"""Single-law evaluation datasets built from a gold cascade.

Each law in the cascade becomes one task: its inputs are every word the
law changed (taken from the evolving lexicon at that point) plus a small
sample of unchanged distractor words; the full lexicon, changed or not,
feeds forward into the next law.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, field

from .datagen import derive_rng
from .dsl import DslError, read_laws
from .evaluation import EmptyDataset
from .phonology import PhoneSeq, SegmentInventory, read_text
from .rules import Cascade, apply_cascade
from .tasks import PBETask


class BenchmarkError(Exception):
    pass


class EmptyCascade(BenchmarkError):
    pass


class EmptyLexicon(BenchmarkError):
    pass


@dataclass(frozen=True)
class BenchmarkSpec:
    cascade: Cascade
    lexicon: tuple[PhoneSeq, ...]
    language_pair: str = ""
    distractor_fraction: float = 0.15
    distractor_min: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.distractor_fraction <= 1:
            raise BenchmarkError("distractor fraction must lie in [0, 1]")


def build_single_law_dataset(
    spec: BenchmarkSpec, inv: SegmentInventory
) -> tuple[list[PBETask], list[str]]:
    """Unroll the cascade into one PBE task per effective law.

    Returns (tasks, warnings); a law that changes nothing contributes a
    warning instead of a degenerate task.
    """
    if not spec.cascade.laws:
        raise EmptyCascade("cascade holds no laws")
    if not spec.lexicon:
        raise EmptyLexicon("lexicon holds no words")
    tasks: list[PBETask] = []
    warnings: list[str] = []
    for j, stage in enumerate(apply_cascade(spec.cascade, spec.lexicon, inv)):
        changed_pairs = [(w, o) for w, o, c in zip(stage.inputs, stage.outputs, stage.changed) if c]
        unchanged = [w for w, c in zip(stage.inputs, stage.changed) if not c]
        if not changed_pairs:
            warnings.append(f"{stage.label}: changes no word, skipped")
            continue
        n_distractors = min(
            len(unchanged),
            max(spec.distractor_min, math.ceil(spec.distractor_fraction * len(changed_pairs))),
        )
        rng = derive_rng(spec.seed, "bench", spec.language_pair, j)
        distractors = rng.sample(unchanged, n_distractors) if n_distractors else []
        inputs = [w for w, _ in changed_pairs] + distractors
        outs = [o for _, o in changed_pairs] + distractors
        tasks.append(
            PBETask(
                id=f"{spec.language_pair or 'bench'}-{j:03d}",
                condition="single-law",
                inputs=tuple(inputs),
                outputs=tuple(outs),
                gold_law=spec.cascade.laws[j],
                provenance={
                    "seed": spec.seed,
                    "source": {
                        "generator": "single-law",
                        "cascade": spec.cascade.name,
                        "law_index": j,
                        "law": stage.label,
                        "language_pair": spec.language_pair,
                    },
                },
            )
        )
    return tasks, warnings


@dataclass(frozen=True)
class DatasetStats:
    task_count: int
    min_examples: int
    max_examples: int
    median_examples: float
    per_language_pair: dict[str, int] = field(default_factory=dict)


def dataset_stats(tasks) -> DatasetStats:
    tasks = list(tasks)
    if not tasks:
        raise EmptyDataset("no tasks")
    sizes = [t.n_examples for t in tasks]
    pairs: dict[str, int] = {}
    for t in tasks:
        pair = t.language_pair or "unlabeled"
        pairs[pair] = pairs.get(pair, 0) + 1
    return DatasetStats(
        task_count=len(tasks),
        min_examples=min(sizes),
        max_examples=max(sizes),
        median_examples=float(statistics.median(sizes)),
        per_language_pair=dict(sorted(pairs.items())),
    )


def stats_to_json(stats: DatasetStats) -> str:
    return json.dumps(asdict(stats), ensure_ascii=False, indent=2)


def load_cascade(text: str, inv: SegmentInventory, name: str = "") -> Cascade:
    """A cascade of every law a law text holds, in order (see
    `dsl.read_laws`).  A classical rule is labelled by the '#' comment line
    before it, else by itself; any other law by its place ("law 3").  A
    constructor that does not parse is a DslError, so no law is dropped, and
    so is a text holding no law."""
    labelled, diagnostics = read_laws(text, inv)
    if diagnostics:
        raise DslError("; ".join(f"{d.code}: {d.message}" for d in diagnostics))
    if not labelled:
        raise DslError("no parseable law in input")
    laws = tuple(law for _, law in labelled)
    return Cascade(laws, name=name, labels=tuple(label for label, _ in labelled))


def load_cascade_file(path, inv: SegmentInventory) -> Cascade:
    return load_cascade(read_text(path), inv, name=str(path))
