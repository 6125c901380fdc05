"""Workload definitions and the seeded generators of their inputs.

A workload is a list of soundlaw CLI steps run in one interpreter, plus the
inputs the benchmark builds for them.  Step argv paths are relative to the
directory a repetition runs in; the shared inputs sit in `../inputs`.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("rpri_gen_eval", "cascade_lexicon", "idp_pi")

# The family of a workload names its steps and its set of expected output
# digests.
FAMILY = {
    "rpri_gen_eval": "rpri",
    "cascade_lexicon": "cascade",
    "idp_pi": "idp",
}

# Jobs of the untimed process-pool pass that rp-ri preparation runs: its
# outputs must equal the one-job outputs byte for byte.
POOL_JOBS = min(2, os.cpu_count() or 1)

# Input sizes.  "full" is what the benchmark measures (3 to 5 s per
# repetition on the pure-Python kernels); "tiny" is for the benchmark's own
# tests.  Samples cover only the first eval_tasks tasks, so that rp-ri
# generation runs long enough to be timed steadily while eval stays short;
# eval skips the other tasks.
SIZES = {
    "full": {"rpri_tasks": 400, "eval_tasks": 100, "lexicon_words": 5000, "idp_tasks": 120,
             "audit_tasks": 40},
    "tiny": {"rpri_tasks": 12, "eval_tasks": 8, "lexicon_words": 150, "idp_tasks": 4,
             "audit_tasks": 4},
}

# The offline rp-li replay: the recorded fixtures, replayed with the seed and
# count whose output digest the acceptance suite pins.
RP_LI_FIXTURES = "tests/data/rp_li_fixtures.jsonl"
RP_LI_REPLAY_SHA256 = "6cbd023bfe3c418c883b066e532a46962b570676708686111c0f79a522821b23"
DEMO_CASCADE = "src/soundlaw/data/demo_cascade.rules"
DEMO_LEXICON = "src/soundlaw/data/demo_lexicon.txt"


@dataclass(frozen=True)
class Step:
    """One `soundlaw` invocation, or (argv empty) one benchmark-side input step."""

    argv: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    build: str = ""


def steps(workload: str, seed: int, size: str, jobs: int, root_rel: str) -> list[Step]:
    """The steps of one repetition.  root_rel leads from the repetition
    directory to the checkout root."""
    n = SIZES[size]
    family = FAMILY[workload]
    if family == "rpri":
        return [
            Step(("datagen", "--condition", "rp-ri", "--count", str(n["rpri_tasks"]),
                  "--seed", str(seed), "--jobs", str(jobs), "--out", "tasks.jsonl"),
                 ("tasks.jsonl",)),
            Step(build="samples"),
            Step(("eval", "--tasks", "tasks.jsonl", "--samples", "../inputs/samples.jsonl",
                  "--jobs", str(jobs), "--out", "eval"),
                 ("eval.json", "eval.md")),
            Step(build="columns"),
            Step(("stats", "-x", "gold.json", "-y", "perturbed.json",
                  "--property", "reward_per_program", "--alternative", "greater",
                  "--name", "gold-vs-perturbed", "--out", "stats.json"),
                 ("stats.json",)),
        ]
    if family == "cascade":
        return [
            Step(build="lexicon"),
            Step(("derive", "--cascade", f"{root_rel}/{DEMO_CASCADE}",
                  "--lexicon", "../inputs/lexicon.txt", "--out", "derive.txt"),
                 ("derive.txt",)),
            # bench records the cascade path in each task: a relative one
            # keeps the output digests the same in every checkout
            Step(("bench", "--cascade", f"{root_rel}/{DEMO_CASCADE}",
                  "--lexicon", "../inputs/lexicon.txt", "--seed", str(seed), "--out", "tasks.jsonl"),
                 ("tasks.jsonl", "tasks.jsonl.stats.json")),
            Step(build="samples"),
            Step(("eval", "--tasks", "tasks.jsonl", "--samples", "../inputs/samples.jsonl",
                  "--out", "eval"),
                 ("eval.json", "eval.md")),
        ]
    return [
        Step(("datagen", "--condition", "idp-pi", "--count", str(n["idp_tasks"]),
              "--seed", str(seed), "--out", "tasks.jsonl"),
             ("tasks.jsonl",)),
        Step(("datagen", "--condition", "rp-li", "--cache-only",
              "--fixtures", f"{root_rel}/{RP_LI_FIXTURES}", "--count", "5", "--seed", "11",
              "--out", "rpli.jsonl"),
             ("rpli.jsonl",)),
    ]


# ---------------------------------------------------------------------------
# seeded input generators (run in the untimed preparation pass)


def build_lexicon(root: str, seed: int, size: str, out_path: str) -> int:
    """Distinct raw words drawn from the phone and length distributions of
    the bundled demo lexicon."""
    from soundlaw.phonology import default_inventory, load_lexicon

    demo = load_lexicon(os.path.join(root, DEMO_LEXICON), default_inventory())
    phones = Counter(p for word in demo for p in word)
    lengths = Counter(len(word) for word in demo)
    phone_pool, phone_weights = zip(*sorted(phones.items()))
    length_pool, length_weights = zip(*sorted(lengths.items()))
    rng = random.Random(f"perfbench-lexicon-{seed}")
    target = SIZES[size]["lexicon_words"]
    words: dict[str, None] = {}
    while len(words) < target:
        length = rng.choices(length_pool, length_weights)[0]
        words["".join(rng.choices(phone_pool, phone_weights, k=length))] = None
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic benchmark lexicon\n")
        fh.writelines(word + "\n" for word in words)
    return len(words)


def _literal(symbol: str) -> str:
    return repr(symbol)


def _predicate_source(pred) -> str:
    if pred.kind == "is":
        return f"lambda x: x == {_literal(pred.args[0])}"
    if pred.kind == "is-not":
        return f"lambda x: x != {_literal(pred.args[0])}"
    if pred.kind in ("in", "not-in"):
        members = ", ".join(_literal(a) for a in pred.args)
        op = "in" if pred.kind == "in" else "not in"
        return f"lambda x: x {op} [{members}]"
    if pred.kind == "class":
        return f"lambda x: {pred.args[0]}(x)"
    raise ValueError(f"no constructor form for a {pred.kind} predicate")


def _mapping_source(mapping) -> str:
    text = _literal("".join(mapping.phones))
    if mapping.kind == "delete":
        return "lambda x: '!'"
    if mapping.kind == "replace":
        return f"lambda x: {text}"
    if mapping.kind == "insert-before":
        return f"lambda x: {text}+x"
    return f"lambda x: x+{text}"


def law_transcript(law) -> str:
    """A model-style transcript holding the law as one fenced BasicAction."""
    preds = ", ".join(_predicate_source(p) for p in law.predicates)
    maps = ", ".join(_mapping_source(m) for m in law.mappings)
    pos = ", ".join(str(p) for p in law.change_pos)
    return (
        "Here is a program consistent with the examples.\n\n```python\n"
        f"action = BasicAction(predicates=[{preds}], change_pos=[{pos}], mapping_fn=[{maps}])\n"
        "```\n"
    )


def build_samples(tasks_path: str, workload: str, seed: int, size: str, out_path: str) -> int:
    """Samples for each of the first eval_tasks tasks: gold program, its
    duplicate, a random perturbed law, and (rp-ri only) a raw-text transcript
    of the gold or the perturbed law.  Each transcript must parse back to the
    law it renders."""
    from soundlaw import datagen, dsl
    from soundlaw.phonology import default_inventory

    inv = default_inventory()
    cfg = datagen.GenConfig(seed=seed)
    lines = []
    with open(tasks_path, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    for index, doc in enumerate(docs[: SIZES[size]["eval_tasks"]]):
        rng = datagen.derive_rng(seed, "perfbench-samples", index)
        gold = dsl.doc_to_law(doc["gold_law"])
        perturbed = datagen.sample_random_law(cfg, rng, inv)
        samples = [
            {"program": doc["gold_law"], "renders": "gold"},
            {"program": doc["gold_law"], "renders": "gold"},
            {"program": dsl.law_to_doc(perturbed), "renders": "perturbed"},
        ]
        if FAMILY[workload] == "cascade":
            samples = [samples[0], samples[2]]
        else:
            rendered = gold if rng.random() < 0.5 else perturbed
            text = law_transcript(rendered)
            parsed = dsl.parse_program_text(text, inv)
            if parsed.laws != (rendered,) or parsed.diagnostics:
                raise ValueError(f"transcript for task {doc['id']} does not round-trip: {text!r}")
            samples.append({"raw_text": text, "renders": "gold" if rendered is gold else "perturbed"})
        for sample_index, sample in enumerate(samples):
            sample = {"task_id": doc["id"], "sample_index": sample_index, **sample}
            lines.append(json.dumps(sample, ensure_ascii=False, sort_keys=True))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


def build_columns(eval_path: str) -> None:
    """Per-task gold and perturbed reward columns for the `stats` step."""
    with open(eval_path, encoding="utf-8") as fh:
        per_task = json.load(fh)["per_task"]
    for name, index in (("gold.json", 0), ("perturbed.json", 2)):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump([entry["rewards"][index] for entry in per_task], fh)
