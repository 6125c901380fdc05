"""Scoring of candidate laws against tasks.

The reward compares how much closer a candidate's predictions are to the
targets than the untouched sources were, normalized so that a perfect
prediction scores exactly 1 and a no-op scores exactly 0.  All rewards are
exact rationals; floats only appear at the reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import kernels
from .phonology import SegmentInventory
from .rules import SoundLaw, apply_in_order, apply_to_lexicon  # noqa: F401 (perfbench checks the alias)
from .tasks import PBETask, map_in_order


class EvaluationError(Exception):
    pass


class LengthMismatch(EvaluationError):
    pass


class DegenerateTask(EvaluationError):
    pass


class NotEnoughSamples(EvaluationError):
    pass


class EmptyDataset(EvaluationError):
    pass


def aggregate_dist(xs, ys, char_level: bool = False) -> int:
    """Sum of per-word edit distances between two equal-length word vectors.

    char_level compares raw character strings instead of phone sequences
    (multigraph phones then cost per character).
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} vs {len(ys)} words")
    if char_level:
        return sum(kernels.levenshtein("".join(x), "".join(y)) for x, y in zip(xs, ys))
    return sum(kernels.levenshtein(x, y) for x, y in zip(xs, ys))


def reward(source, pred, target, char_level: bool = False, *, denom: int | None = None) -> Fraction:
    """1 - dist(pred, target) / dist(source, target); can go negative.

    `denom`, when given, is dist(source, target) as the caller already
    computed it for this source and target.
    """
    if denom is None:
        denom = aggregate_dist(source, target, char_level)
    if denom == 0:
        raise DegenerateTask("source and target are identical")
    num = aggregate_dist(pred, target, char_level)
    return 1 - Fraction(num, denom)


def reward_at_m(sample_rewards, m: int) -> Fraction:
    """Mean of the m largest sample rewards."""
    if m < 1:
        raise NotEnoughSamples("m must be >= 1")
    if len(sample_rewards) < m:
        raise NotEnoughSamples(f"need {m} samples, have {len(sample_rewards)}")
    top = sorted(sample_rewards, reverse=True)[:m]
    return Fraction(sum(top), m)


@dataclass(frozen=True)
class RewardReport:
    task_id: str
    rewards: tuple[Fraction, ...]  # one per sample, in sample order

    @property
    def reward_at_1(self) -> Fraction:
        return reward_at_m(self.rewards, 1)

    @property
    def reward_at_3(self) -> Fraction | None:
        return reward_at_m(self.rewards, 3) if len(self.rewards) >= 3 else None

    @property
    def passed(self) -> bool:
        return any(r == 1 for r in self.rewards)


def evaluate_samples(task: PBETask, candidates, inv: SegmentInventory, char_level: bool = False) -> RewardReport:
    """Score each candidate program against one task.

    A candidate is a SoundLaw, a sequence of SoundLaws applied in order, or
    None for a sample that produced nothing runnable (scored as if it left
    the sources untouched, i.e. reward 0).
    """
    if not candidates:
        raise EvaluationError("no candidate samples")
    source = list(task.inputs)
    target = list(task.outputs)
    scored: dict[tuple[SoundLaw, ...], Fraction] = {}  # reward by candidate
    rewards = []
    denom = None  # dist(source, target), computed with the first reward
    for cand in candidates:
        laws = () if cand is None else (cand,) if isinstance(cand, SoundLaw) else tuple(cand)
        r = scored.get(laws)
        if r is None:  # each distinct candidate runs and is scored once per task
            pred = source
            if laws:
                for pred, _ in apply_in_order(laws, source, inv):  # ends on the last law's outputs
                    pass
            if denom is None:
                denom = aggregate_dist(source, target, char_level)
            r = scored[laws] = reward(source, pred, target, char_level, denom=denom)
        rewards.append(r)
    return RewardReport(task.id, tuple(rewards))


def _evaluate_pair(inv: SegmentInventory, char_level: bool, pair) -> RewardReport:
    task, candidates = pair
    return evaluate_samples(task, candidates, inv, char_level)


def evaluate_many(pairs, inv: SegmentInventory, char_level: bool = False, jobs: int = 1):
    """Score (task, candidates) pairs, optionally across worker processes.

    Scoring is pure per task, so results come back in input order no matter
    how many workers run.
    """
    return map_in_order(partial(_evaluate_pair, inv, char_level), pairs, jobs)


def pass_rate(reports) -> Fraction:
    """Fraction of tasks with at least one full-reward sample."""
    reports = list(reports)
    if not reports:
        raise EmptyDataset("no reports")
    return Fraction(sum(r.passed for r in reports), len(reports))


def mean_reward_at(reports, m: int) -> Fraction:
    reports = list(reports)
    if not reports:
        raise EmptyDataset("no reports")
    return Fraction(sum(reward_at_m(r.rewards, m) for r in reports), len(reports))


def group_reports(reports, tasks) -> dict[str, list[RewardReport]]:
    """Bucket reports by the tasks' language-pair provenance ('' if unset)."""
    pair_of = {t.id: t.language_pair for t in tasks}
    groups: dict[str, list[RewardReport]] = {}
    for rep in reports:
        groups.setdefault(pair_of.get(rep.task_id, ""), []).append(rep)
    return groups


def _aggregate(reports: list[RewardReport]) -> dict:
    return {
        "n_tasks": len(reports),
        "pass_rate": float(pass_rate(reports)),
        "reward_at_1": float(mean_reward_at(reports, 1)),
        "reward_at_3": float(mean_reward_at(reports, 3))
        if all(r.reward_at_3 is not None for r in reports)
        else None,
    }


def summarize(reports, tasks) -> dict:
    """Aggregate a run into the report document written by the CLI."""
    reports = list(reports)
    groups = group_reports(reports, tasks)
    return {
        "per_task": [
            {
                "task_id": r.task_id,
                "passed": r.passed,
                "reward_at_1": float(r.reward_at_1),
                "reward_at_3": float(r.reward_at_3) if r.reward_at_3 is not None else None,
                "rewards": [float(x) for x in r.rewards],
            }
            for r in reports
        ],
        "aggregates": {
            **_aggregate(reports),
            "per_language_pair": {pair or "all": _aggregate(groups[pair]) for pair in sorted(groups)},
        },
    }


def report_markdown(doc: dict, metric: str = "pass_rate") -> str:
    """Render the per-pair aggregate table (pairs as columns plus Avg)."""
    per_pair = doc["aggregates"]["per_language_pair"]
    pairs = [p for p in per_pair if p != "all"] or ["all"]
    cols = pairs + ["Avg"]
    vals = [per_pair[p][metric] for p in pairs]
    avg = None if any(v is None for v in vals) else sum(vals) / len(vals)
    fmt = lambda v: "-" if v is None else f"{v * 100:.1f}" if metric == "pass_rate" else f"{v:.4f}"
    lines = [
        "| " + " | ".join([metric] + cols) + " |",
        "|" + "---|" * (len(cols) + 1),
        "| " + " | ".join([metric] + [fmt(v) for v in vals] + [fmt(avg)]) + " |",
    ]
    return "\n".join(lines) + "\n"


def report_tables(doc: dict) -> str:
    """The pass-rate, reward@1 and reward@3 tables of one report, in that order."""
    return "".join(report_markdown(doc, metric) + "\n" for metric in ("pass_rate", "reward_at_1", "reward_at_3"))
