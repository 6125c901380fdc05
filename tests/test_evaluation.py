import random
from fractions import Fraction

import pytest

from soundlaw import dsl, evaluation, kernels
from soundlaw.evaluation import (
    DegenerateTask,
    EmptyDataset,
    LengthMismatch,
    NotEnoughSamples,
    aggregate_dist,
    evaluate_samples,
    mean_reward_at,
    pass_rate,
    reward,
    reward_at_m,
    summarize,
)
from soundlaw.dsl import lower_classical, parse_classical
from soundlaw.kernels import levenshtein
from soundlaw.phonology import NonCanonicalTokenSeq
from soundlaw.rules import apply_law_word
from soundlaw.tasks import PBETask


def seg_words(inv, *words):
    return tuple(inv.segment(w) for w in words)


def test_levenshtein_examples():
    assert levenshtein(("x",), ("x",)) == 0
    assert levenshtein((), ("a", "b", "c")) == 3


def test_aggregate_dist(inv):
    assert aggregate_dist(seg_words(inv, "ka", "to"), seg_words(inv, "ka", "to")) == 0
    assert aggregate_dist(seg_words(inv, "ka", "to"), seg_words(inv, "ki", "to")) == 1
    with pytest.raises(LengthMismatch):
        aggregate_dist(seg_words(inv, "ka"), seg_words(inv, "ka", "to"))


def test_aggregate_dist_char_level(inv):
    # phone-level: one multigraph substitution; char-level: one char deleted
    a = seg_words(inv, "tʰum")
    b = seg_words(inv, "tum")
    assert aggregate_dist(a, b) == 1
    assert aggregate_dist(a, b, char_level=True) == 1
    c = seg_words(inv, "tsar")
    d = seg_words(inv, "sar")
    assert aggregate_dist(c, d) == 1  # ts -> s, one phone edit
    assert aggregate_dist(c, d, char_level=True) == 1


def test_reward_identities(inv):
    src = seg_words(inv, "ka", "to")
    tgt = seg_words(inv, "ki", "to")
    assert reward(src, tgt, tgt) == 1
    assert reward(src, src, tgt) == 0
    # derived case: d(kuu, ki) = 2, d(ka, ki) = 1 -> 1 - 2/1 = -1
    assert reward(seg_words(inv, "ka"), seg_words(inv, "kuu"), seg_words(inv, "ki")) == -1
    with pytest.raises(DegenerateTask):
        reward(src, src, src)


def test_reward_is_exact_fraction(inv):
    # d(kaa, k) = 2, d(kaaa, k) = 3 -> 1 - 2/3
    r = reward(seg_words(inv, "kaaa"), seg_words(inv, "kaa"), seg_words(inv, "k"))
    assert isinstance(r, Fraction) and r == Fraction(1, 3)


def test_reward_at_m():
    assert reward_at_m([1, 1, 1], 2) == 1
    assert reward_at_m([Fraction(1), Fraction(0), Fraction(-1)], 1) == 1
    assert reward_at_m([Fraction(1), Fraction(0), Fraction(-1)], 3) == 0
    samples = [Fraction(1, 2), Fraction(1, 4)]
    assert reward_at_m(samples, 2) == Fraction(3, 8)
    with pytest.raises(NotEnoughSamples):
        reward_at_m(samples, 3)


def test_pass_rate_definitions_agree():
    rng = random.Random(2)

    class Rep:
        def __init__(self, rewards):
            self.rewards = rewards
            self.reward_at_1 = max(rewards)
            self.passed = any(r == 1 for r in rewards)

    for _ in range(200):
        reports = [
            Rep([Fraction(rng.randrange(-2, 2)) for _ in range(5)]) for _ in range(rng.randrange(1, 8))
        ]
        via_flag = Fraction(sum(r.passed for r in reports), len(reports))
        via_r1 = Fraction(sum(r.reward_at_1 == 1 for r in reports), len(reports))
        assert via_flag == via_r1
    with pytest.raises(EmptyDataset):
        pass_rate([])


def make_task(inv, ident="e-0"):
    law = lower_classical(parse_classical("t > d / _ #"), inv)
    inputs = seg_words(inv, "sunt", "tapere", "mat")
    outputs, _ = __import__("soundlaw.rules", fromlist=["apply_to_lexicon"]).apply_to_lexicon(
        law, list(inputs), inv
    )
    return PBETask(ident, "rp-ri", inputs, tuple(outputs), law, {"seed": 0, "source": {}})


def test_evaluate_samples_gold(inv):
    task = make_task(inv)
    report = evaluate_samples(task, [task.gold_law], inv)
    assert report.passed and report.reward_at_1 == 1
    assert report.reward_at_3 is None


def test_evaluate_samples_none_and_inert(inv):
    task = make_task(inv)
    inert = lower_classical(parse_classical("ʒ > d"), inv)
    report = evaluate_samples(task, [None, inert, task.gold_law], inv)
    assert report.rewards[0] == 0 and report.rewards[1] == 0
    assert report.passed
    assert report.reward_at_1 == 1 and report.reward_at_3 == Fraction(1, 3)


def test_evaluate_samples_cascade_candidate(inv):
    task = make_task(inv)
    half1 = lower_classical(parse_classical("t > s / _ #"), inv)
    half2 = lower_classical(parse_classical("s > d / _ #"), inv)
    report = evaluate_samples(task, [[half1, half2]], inv)
    assert report.passed


def test_each_distinct_candidate_is_scored_once(inv, monkeypatch):
    task = make_task(inv)
    transcript = (
        "BasicAction(predicates=[lambda x: x == 't', lambda x: x == '@', lambda x: x == '#'], "
        "change_pos=[0], mapping_fn=[lambda x: 'd'])"
    )
    parsed = list(dsl.parse_program_text(transcript, inv).laws)
    assert parsed == [task.gold_law]
    perturbed = lower_classical(parse_classical("t > s / _ #"), inv)
    cands = [task.gold_law, task.gold_law, parsed, perturbed]
    perturbed_outputs = [apply_law_word(perturbed, w, inv) for w in task.inputs]
    want = [1, 1, 1, reward(task.inputs, perturbed_outputs, task.outputs)]
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return reward(*args, **kwargs)

    monkeypatch.setattr(evaluation, "reward", spy)
    report = evaluate_samples(task, cands, inv)
    assert len(calls) == 2
    assert list(report.rewards) == want and want[3] < 1
    assert [r == 1 for r in report.rewards] == [True, True, True, False]


def test_the_source_distance_is_computed_once_per_task(inv, monkeypatch):
    task = make_task(inv)
    perturbed = lower_classical(parse_classical("t > s / _ #"), inv)
    perturbed_outputs = [apply_law_word(perturbed, w, inv) for w in task.inputs]
    want = [reward(task.inputs, pred, task.outputs)
            for pred in (task.outputs, task.inputs, perturbed_outputs, task.outputs)]
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return levenshtein(a, b)

    monkeypatch.setattr(kernels, "levenshtein", counting)
    report = evaluate_samples(task, [task.gold_law, None, perturbed, task.gold_law], inv)
    assert list(report.rewards) == want
    # one distance per word from the sources, and one per word of each distinct candidate
    assert len(calls) == task.n_examples * (1 + 3)


def test_a_degenerate_task_raises_once_its_first_candidate_ran(inv):
    words = seg_words(inv, "sunt", "mat")
    with pytest.raises(DegenerateTask):
        evaluate_samples(PBETask("d-0", "rp-ri", words, words), [None], inv)
    reserved = words + (("a", "#"),)
    with pytest.raises(NonCanonicalTokenSeq):  # the candidate runs before the distances
        evaluate_samples(PBETask("d-1", "rp-ri", reserved, reserved), [make_task(inv).gold_law], inv)


def test_random_candidates_bounded(inv):
    from soundlaw.datagen import GenConfig, derive_rng, sample_random_law

    task = make_task(inv)
    cfg = GenConfig(seed=21)
    cands = [sample_random_law(cfg, derive_rng(21, "c", i), inv) for i in range(20)]
    report = evaluate_samples(task, cands, inv)
    assert all(r <= 1 for r in report.rewards)
    assert report.reward_at_1 >= report.reward_at_3


def test_evaluate_many_parallel_matches_serial(inv):
    tasks = [make_task(inv, f"p-{i}") for i in range(8)]
    pairs = [(t, [t.gold_law, None]) for t in tasks]
    serial = evaluation.evaluate_many(pairs, inv, jobs=1)
    parallel = evaluation.evaluate_many(pairs, inv, jobs=3)
    assert serial == parallel
    assert [r.task_id for r in parallel] == [t.id for t in tasks]


def test_worker_pools_send_the_inventory_once_per_worker(inv, monkeypatch):
    """Each worker unpickles its own inventory, with an empty memo, and then
    recompiles every scan; chunking the work pays that once per worker."""
    from soundlaw.datagen import GenConfig, gen_rp_ri
    from soundlaw.phonology import SegmentInventory

    pickles = []
    getstate = SegmentInventory.__getstate__

    def counted(self):
        pickles.append(self)
        return getstate(self)

    monkeypatch.setattr(SegmentInventory, "__getstate__", counted)
    tasks = [make_task(inv, f"p-{i}") for i in range(8)]
    evaluation.evaluate_many([(t, [t.gold_law, None]) for t in tasks], inv, jobs=2)
    assert len(pickles) <= 2
    pickles.clear()
    assert len(gen_rp_ri(GenConfig(seed=9), 12, inv, jobs=3)) == 12
    assert len(pickles) <= 3


def test_summarize_and_markdown(inv):
    tasks = [make_task(inv, f"e-{i}") for i in range(4)]
    for i, t in enumerate(tasks):
        t.provenance["source"]["language_pair"] = "pair-a" if i % 2 else "pair-b"
    reports = [evaluate_samples(t, [t.gold_law, None, None], inv) for t in tasks]
    doc = summarize(reports, tasks)
    agg = doc["aggregates"]
    assert agg["pass_rate"] == 1.0 and agg["reward_at_1"] == 1.0
    assert set(agg["per_language_pair"]) == {"pair-a", "pair-b"}
    md = evaluation.report_markdown(doc, "pass_rate")
    assert "pair-a" in md and "Avg" in md
    assert mean_reward_at(reports, 2) <= 1
