from importlib.resources import files

import pytest

from soundlaw import evaluation
from soundlaw.benchmark import (
    BenchmarkSpec,
    EmptyCascade,
    EmptyDataset,
    EmptyLexicon,
    build_single_law_dataset,
    dataset_stats,
    load_cascade,
    load_cascade_file,
)
from soundlaw.dsl import lower_classical, parse_classical
from soundlaw.phonology import load_lexicon
from soundlaw.rules import Cascade, apply_cascade


def mini_cascade(inv, *texts):
    return Cascade(
        tuple(lower_classical(parse_classical(t), inv) for t in texts),
        name="mini",
        labels=tuple(texts),
    )


def test_single_law_dataset_basic(inv):
    cascade = mini_cascade(inv, "t > d / _ #")
    lexicon = (inv.segment("sunt"), inv.segment("tapere"), inv.segment("mak"))
    spec = BenchmarkSpec(cascade, lexicon, "mini-pair", seed=1)
    tasks, warnings = build_single_law_dataset(spec, inv)
    assert not warnings and len(tasks) == 1
    task = tasks[0]
    assert inv.segment("sunt") in task.inputs
    pairs = dict(zip(task.inputs, task.outputs))
    assert pairs[inv.segment("sunt")] == inv.segment("sund")
    # distractors are unchanged words
    for w, o in pairs.items():
        if w != inv.segment("sunt"):
            assert w == o


def test_feed_forward_uses_previous_outputs(inv):
    # law 2 only fires on material law 1 creates
    cascade = mini_cascade(inv, "a > e / _ #", "e > i / _ #")
    lexicon = (inv.segment("ta"), inv.segment("ma"), inv.segment("ko"))
    tasks, warnings = build_single_law_dataset(BenchmarkSpec(cascade, lexicon, "ff"), inv)
    assert len(tasks) == 2
    second = tasks[1]
    assert inv.segment("te") in second.inputs
    assert inv.segment("ti") in second.outputs
    stages = apply_cascade(cascade, list(lexicon), inv)
    # feed-forward consistency: composing per-law outputs = cascade final state
    assert stages[1].inputs == stages[0].outputs


def test_changed_word_completeness(inv):
    cascade = mini_cascade(inv, "k > ʔ / _ #", "u > o / _ C")
    lexicon = tuple(inv.segment(w) for w in ("pak", "muk", "tun", "suat", "kura"))
    tasks, _ = build_single_law_dataset(BenchmarkSpec(cascade, lexicon, "cc"), inv)
    stages = apply_cascade(cascade, list(lexicon), inv)
    for task, stage in zip(tasks, stages):
        changed = {w for w, c in zip(stage.inputs, stage.changed) if c}
        assert changed <= set(task.inputs)


def test_inert_law_warned_and_skipped(inv):
    cascade = mini_cascade(inv, "ʒ > d", "t > d / _ #")
    lexicon = (inv.segment("sunt"), inv.segment("ta"), inv.segment("mat"))
    tasks, warnings = build_single_law_dataset(BenchmarkSpec(cascade, lexicon, "skip"), inv)
    assert len(tasks) == 1 and len(warnings) == 1


def test_empty_inputs_rejected(inv):
    cascade = mini_cascade(inv, "t > d / _ #")
    with pytest.raises(EmptyLexicon):
        build_single_law_dataset(BenchmarkSpec(cascade, ()), inv)
    with pytest.raises(EmptyCascade):
        build_single_law_dataset(BenchmarkSpec(Cascade(()), (("a",),)), inv)


def test_dataset_stats():
    from soundlaw.tasks import PBETask

    def fake(ident, n):
        return PBETask(ident, "single-law", (("a",),) * n, (("a",),) * n, None, {})

    stats = dataset_stats([fake("a", 12)])
    assert (stats.min_examples, stats.max_examples, stats.median_examples) == (12, 12, 12.0)
    stats = dataset_stats([fake("a", 11), fake("b", 16), fake("c", 48)])
    assert (stats.min_examples, stats.max_examples, stats.median_examples) == (11, 48, 16.0)
    with pytest.raises(EmptyDataset):
        dataset_stats([])


def test_bundled_demo_cascade(inv):
    cascade = load_cascade_file(files("soundlaw") / "data" / "demo_cascade.rules", inv)
    lexicon = load_lexicon(files("soundlaw") / "data" / "demo_lexicon.txt", inv)
    assert len(cascade) == 10 and len(lexicon) == 200
    spec = BenchmarkSpec(cascade, tuple(lexicon), "demo", seed=0)
    tasks, warnings = build_single_law_dataset(spec, inv)
    assert not warnings
    stats = dataset_stats(tasks)
    assert stats.task_count == 10
    assert 11 <= stats.min_examples and stats.max_examples <= 48
    reports = [evaluation.evaluate_samples(t, [t.gold_law], inv) for t in tasks]
    assert float(evaluation.pass_rate(reports)) == 1.0


def test_cascade_json_form(inv):
    law = lower_classical(parse_classical("t > d / _ #"), inv)
    from soundlaw.dsl import law_to_doc
    import json

    text = json.dumps([law_to_doc(law)])
    cascade = load_cascade(text, inv)
    assert cascade.laws == (law,)


def test_cascade_comments_label_rules(inv):
    text = "# final devoicing\nt > d / _ #\nk > ∅ / _ #\n"
    cascade = load_cascade(text, inv)
    assert cascade.labels[0] == "final devoicing"
    assert cascade.labels[1] == "k > ∅ / _ #"


def test_cascade_labels_an_unlabelled_law_by_its_place(inv):
    from soundlaw.dsl import print_law

    laws = tuple(lower_classical(parse_classical(t), inv) for t in ("t > d / _ #", "a > e / _ j"))
    cascade = load_cascade("".join(print_law(law) + "\n" for law in laws), inv)
    assert cascade.laws == laws and cascade.labels == ("law 1", "law 2")
    assert Cascade(laws, labels=("final voicing", "")).labels == ("final voicing", "law 2")
