"""What every generator writes, read back from disk, against the oracles.

The generators, `eval`'s validation and A04 all run the package's own law
engine, so none of them checks that engine.  Here each command runs through
`cli.main` in-process, and every output word of the files it wrote must be
what `oracles.reference_apply` makes of the input word.
"""

from importlib.resources import files
from pathlib import Path

from oracles import reference_apply

from soundlaw import benchmark
from soundlaw.cli import main
from soundlaw.phonology import default_inventory, load_lexicon
from soundlaw.tasks import read_tasks, word_to_str

DEMO_CASCADE = files("soundlaw") / "data" / "demo_cascade.rules"
DEMO_LEXICON = files("soundlaw") / "data" / "demo_lexicon.txt"
FIXTURES = Path(__file__).parent / "data" / "rp_li_fixtures.jsonl"


def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def assert_gold_outputs(path, inv):
    """Each task of a written tasks file: its gold law, through the oracle,
    gives every stored output from its input.  Returns the tasks."""
    tasks = read_tasks(path)
    assert tasks, path
    for task in tasks:
        assert task.outputs == tuple(reference_apply(task.gold_law, w, inv) for w in task.inputs), task.id
    return tasks


def test_every_generated_output_is_the_oracles_output(tmp_path):
    inv = default_inventory()
    datagen = {
        "rp-ri": ("--count", 300, "--seed", 5),
        "idp-pi": ("--count", 120, "--seed", 5),  # the bundled rule database and lexicon
        "rp-li": ("--cache-only", "--fixtures", FIXTURES, "--count", 5, "--seed", 11),  # A11's replay
    }
    for condition, argv in datagen.items():
        run("datagen", "--condition", condition, *argv, "--out", tmp_path / f"{condition}.jsonl")
        assert_gold_outputs(tmp_path / f"{condition}.jsonl", inv)

    # the demo cascade, chained law by law through the oracle
    cascade = benchmark.load_cascade_file(DEMO_CASCADE, inv)
    lexicon = load_lexicon(DEMO_LEXICON, inv)
    stages, current = [], lexicon
    for law in cascade.laws:
        outputs = [reference_apply(law, w, inv) for w in current]
        stages.append([(w, o) for w, o in zip(current, outputs) if o != w])
        current = outputs

    run("bench", "--seed", 0, "--out", tmp_path / "bench.jsonl")
    tasks = assert_gold_outputs(tmp_path / "bench.jsonl", inv)
    indices = [task.provenance["source"]["law_index"] for task in tasks]
    assert indices == [j for j, changed in enumerate(stages) if changed]
    for j, task in zip(indices, tasks):
        assert task.gold_law == cascade.laws[j], task.id
        # every word the law changes at its stage, in order, then the distractors
        assert list(zip(task.inputs, task.outputs))[: len(stages[j])] == stages[j], task.id

    derived = tmp_path / "derive.txt"
    run("derive", "--cascade", DEMO_CASCADE, "--lexicon", DEMO_LEXICON, "--trace", "--out", derived)
    lines = []
    for label, changed in zip(cascade.labels, stages):
        lines.append(f"== {label} ({len(changed)} changed)")
        lines += [f"  {word_to_str(w)}\t->\t{word_to_str(o)}" for w, o in changed]
    lines += [f"{word_to_str(w)}\t{word_to_str(o)}" for w, o in zip(lexicon, current)]
    assert derived.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
