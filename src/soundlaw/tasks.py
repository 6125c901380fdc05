"""PBE task records, their JSONL serialization, the readers of every JSON
input, and `map_in_order`, the one worker pool for per-task work (rp-ri
generation and scoring).

One task = paired input/output word lists plus (usually) the gold law that
produced the outputs.  Words serialize as space-joined phone symbols so
multigraph phones survive the round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dsl import SchemaError, doc_to_law, json_field, json_items, json_object, law_to_doc
from .phonology import PhoneSeq, SegmentInventory, open_input
from .rules import SoundLaw, apply_law_word

@dataclass(frozen=True)
class PBETask:
    id: str
    condition: str
    inputs: tuple[PhoneSeq, ...]
    outputs: tuple[PhoneSeq, ...]
    gold_law: SoundLaw | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.inputs) != len(self.outputs):
            raise SchemaError(
                f"task {self.id}: {len(self.inputs)} inputs vs {len(self.outputs)} outputs"
            )

    @property
    def n_examples(self) -> int:
        return len(self.inputs)

    @property
    def language_pair(self) -> str:
        """The language pair its provenance source names, "" when none."""
        return self.provenance.get("source", {}).get("language_pair", "")


def word_to_str(word: PhoneSeq) -> str:
    return " ".join(word)


def str_to_word(text: str) -> PhoneSeq:
    return tuple(text.split())


def task_to_json(task: PBETask) -> str:
    doc = {
        "id": task.id,
        "condition": task.condition,
        "inputs": [word_to_str(w) for w in task.inputs],
        "outputs": [word_to_str(w) for w in task.outputs],
        "gold_law": law_to_doc(task.gold_law) if task.gold_law else None,
        "provenance": task.provenance,
    }
    return json.dumps(doc, ensure_ascii=False, separators=(", ", ": "))


def task_from_doc(doc: dict) -> PBETask:
    """The task of one JSON object, as `task_to_json` writes it."""
    gold = doc_to_law(doc["gold_law"]) if doc.get("gold_law") is not None else None
    provenance = json_field(doc, "provenance", dict) if "provenance" in doc else {}
    if "source" in provenance:  # read by `PBETask.language_pair`
        source = json_field(provenance, "source", dict)
        if "language_pair" in source:
            json_field(source, "language_pair", str)
    return PBETask(
        id=json_field(doc, "id", str),
        condition=json_field(doc, "condition", str),
        inputs=tuple(str_to_word(w) for w in json_items(doc, "inputs", str)),
        outputs=tuple(str_to_word(w) for w in json_items(doc, "outputs", str)),
        gold_law=gold,
        provenance=provenance,
    )


def write_tasks(path, tasks) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for task in tasks:
            fh.write(task_to_json(task))
            fh.write("\n")


# what a JSON input of the wrong shape raises: a JSONDecodeError is a
# ValueError, and a value of the wrong JSON type a TypeError or AttributeError
SHAPE_ERRORS = (SchemaError, ValueError, KeyError, TypeError, AttributeError)


def read_jsonl(path, parse, label: str = "line", key=None) -> list:
    """`parse(doc)` of the JSON object on each non-blank line of a JSONL file;
    any error reading a line is a SchemaError naming `label` and the line.
    With `key`, no two records share `key(record)`, such as "task id 'x'"."""
    records, line_of = [], {}
    with open_input(path) as fh:  # decoded line by line, so a bad byte names its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")  # a UnicodeDecodeError is a ValueError
                if not line.strip():
                    continue
                record = parse(json_object(json.loads(line)))
                first = line_of.setdefault(key(record), lineno) if key else lineno
                if first != lineno:
                    raise SchemaError(f"{key(record)} repeats line {first}")
            except SHAPE_ERRORS as exc:
                raise SchemaError(f"{label} {lineno}: {exc}") from exc
            records.append(record)
    return records


def read_json(path, parse):
    """`parse(doc)` of the JSON document of a whole-file input; any error
    reading it is a SchemaError naming the file."""
    with open_input(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except SHAPE_ERRORS as exc:
            raise SchemaError(f"{path}: {exc}") from exc


def read_tasks(path) -> list[PBETask]:
    """Every task of a JSONL file (see `read_jsonl`); a task id occurs once."""
    return read_jsonl(path, task_from_doc, key=lambda task: f"task id {task.id!r}")


def validate_task(task: PBETask, inv: SegmentInventory) -> list[str]:
    """Re-execute the gold law and report mismatches instead of fixing them.

    Every stored input goes through the token-level engine (`apply_law_word`),
    which catches a stale or tampered tasks file; inputs without a site are
    re-executed too, so a tampered output of an unchanged word is caught as
    well.  It calls `rules.apply_law_word`, so each word still passes through
    `preprocess`, `find_matches`, `apply_law` and `render`.  That engine
    shares the compiled matcher and the `kernels.splice_sites` edit map with
    the lexicon path that wrote the outputs, so this is no independent check
    of either: `window_sites` and `reference_apply` in `tests/oracles.py` are.
    """
    warnings = []
    if task.gold_law is None:
        return warnings
    outputs = tuple(apply_law_word(task.gold_law, w, inv) for w in task.inputs)
    if outputs != task.outputs:
        warnings.append(f"task {task.id}: stored outputs disagree with re-executed gold law")
    if not any(o != w for o, w in zip(outputs, task.inputs)):
        warnings.append(f"task {task.id}: gold law is inert on the stored inputs")
    return warnings


def map_in_order(fn, items, jobs: int = 1) -> list:
    """`[fn(x) for x in items]` of a sequence, across up to `jobs` worker
    processes when there are at least four items.  Each worker gets one
    contiguous chunk, so `fn` (a `partial` holding the inventory) is pickled
    once per worker and the scans it compiles serve the whole chunk; results
    keep the input order.  The pool asks for no more workers than chunks,
    since a forking pool starts every worker it may use at the first
    submit."""
    if jobs <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(items) // jobs)
    with ProcessPoolExecutor(max_workers=-(-len(items) // chunksize)) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
