"""PBE task records and their JSONL serialization.

One task = paired input/output word lists plus (usually) the gold law that
produced the outputs.  Words serialize as space-joined phone symbols so
multigraph phones survive the round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dsl import SchemaError, doc_to_law, json_array, law_to_doc
from .phonology import PhoneSeq, SegmentInventory
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


def task_from_json(text: str, lineno: int = 0) -> PBETask:
    try:
        doc = json.loads(text)
        gold = doc_to_law(doc["gold_law"]) if doc.get("gold_law") else None
        return PBETask(
            id=doc["id"],
            condition=doc["condition"],
            inputs=tuple(str_to_word(w) for w in json_array(doc, "inputs")),
            outputs=tuple(str_to_word(w) for w in json_array(doc, "outputs")),
            gold_law=gold,
            provenance=doc.get("provenance", {}),
        )
    except SchemaError as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc
    # TypeError and AttributeError: a value of the wrong JSON type
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise SchemaError(f"line {lineno}: {exc}") from exc


def write_tasks(path, tasks) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for task in tasks:
            fh.write(task_to_json(task))
            fh.write("\n")


def read_tasks(path) -> list[PBETask]:
    """Every task of a JSONL file; a task id may occur only once."""
    tasks = []
    line_of: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                task = task_from_json(line, lineno)
                first = line_of.setdefault(task.id, lineno)
                if first != lineno:
                    raise SchemaError(f"line {lineno}: task id {task.id!r} repeats line {first}")
                tasks.append(task)
    return tasks


def validate_task(task: PBETask, inv: SegmentInventory) -> list[str]:
    """Re-execute the gold law and report mismatches instead of fixing them.

    Every stored input goes through the token-level engine (`apply_law_word`),
    which catches a stale or tampered tasks file; inputs without a site are
    re-executed too, so a tampered output of an unchanged word is caught as
    well.  That engine shares the compiled matcher and `rules._splice` with
    the lexicon path that wrote the outputs, so this is no independent check
    of either: the tests' `reference_apply` and `scan_sites` are.
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
