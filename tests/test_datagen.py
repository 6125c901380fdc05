import hashlib
import random
from collections import Counter

import pytest
from oracles import count_scan_occurrences

from soundlaw import _native, datagen, gateway, kernels
from soundlaw.cli import main
from soundlaw.datagen import (
    GenConfig,
    GenerationError,
    InfeasibleQuota,
    NoCommonSubsequence,
    PoolExhausted,
    ZeroYield,
    add_distractors,
    context_predicates,
    derive_rng,
    gen_idp_pi,
    gen_llm_tasks,
    gen_rp_ri,
    harvest_actions,
    lcs,
    sample_idp_context,
    sample_inputs_for_law,
    sample_random_law,
)
from soundlaw.dsl import Atom, ClassicalRule, DslError, load_rule_db, lower_classical, parse_classical
from soundlaw.rules import SEP_PRED, apply_to_lexicon
from soundlaw.tasks import task_to_json


# -- random laws --------------------------------------------------------------


def test_sampled_laws_are_valid(inv):
    cfg = GenConfig(seed=1)
    for i in range(300):
        law = sample_random_law(cfg, derive_rng(1, "s", i), inv)
        assert 1 <= len(law.change_pos) <= 3
        assert all(law.predicates[p].can_match_phone() for p in law.change_pos)


def test_boundary_condition_frequency(inv):
    cfg = GenConfig(seed=2)
    rng = derive_rng(2, "freq")
    hits = 0
    n = 10_000
    for _ in range(n):
        law = sample_random_law(cfg, rng, inv)
        slots = [p for p in law.predicates if p != SEP_PRED]
        edge = [s for s in (slots[0], slots[-1]) if s.args == ("#",)]
        hits += bool(edge)
    assert abs(hits / n - 0.25) <= 0.02


def test_deletion_shape_possible(inv):
    # some sampled law is a 1-phone-context deletion (shape check)
    cfg = GenConfig(seed=3)
    rng = derive_rng(3, "shapes")
    seen_delete = False
    for _ in range(500):
        law = sample_random_law(cfg, rng, inv)
        if len(context_predicates(law)) == 1 and law.mappings[0].kind == "delete":
            seen_delete = True
            break
    assert seen_delete


# -- input quotas --------------------------------------------------------------


def quota_audit(law, words, inv):
    """Independent occurrence counter over the law's phone context: a
    Predicate.matches scan, not the compiled slots that placed the words."""
    preds = context_predicates(law)
    width = len(preds)
    bearing = begin = end = int1 = int2 = 0
    for word in words:
        occ = [
            i
            for i in range(len(word) - width + 1)
            if all(p.matches(word[i + k], inv) for k, p in enumerate(preds))
        ]
        interior = [i for i in occ if 0 < i and i + width < len(word)]
        bearing += bool(occ)
        begin += 0 in occ
        end += (len(word) - width) in occ
        int1 += len(interior) >= 1
        int2 += len(interior) >= 2
    return bearing, begin, end, int1, int2


def test_input_quotas(inv):
    cfg = GenConfig(seed=4)
    for i in range(50):
        rng = derive_rng(4, "quota", i)
        law = sample_random_law(cfg, rng, inv)
        words = sample_inputs_for_law(law, cfg, rng, inv)
        assert len(words) == 50
        bearing, begin, end, int1, int2 = quota_audit(law, words, inv)
        assert bearing >= 34 and begin >= 5 and end >= 5 and int1 >= 5 and int2 >= 5


def test_concrete_context_words_match(inv):
    # a law over literal slots: every quota word contains the literal string
    law = lower_classical(parse_classical("a > e / t _ k"), inv)
    cfg = GenConfig(seed=6)
    rng = derive_rng(6, "tk")
    words = sample_inputs_for_law(law, cfg, rng, inv)
    with_ctx = sum(1 for w in words if "tak" in "".join(w))
    assert with_ctx >= 34


def test_draw_below_takes_the_choice_and_randint_stream():
    for n in (1, 2, 3, 7, 8, 9, 46, 63, 64, 65, 1000):
        seq = list(range(100, 100 + n))
        for seed in range(3):
            ours, theirs = random.Random(seed), random.Random(seed)
            below = datagen.draw_below(ours)
            assert [seq[below(n)] for _ in range(200)] == [theirs.choice(seq) for _ in range(200)]
            assert [5 + below(n) for _ in range(200)] == [theirs.randint(5, 4 + n) for _ in range(200)]
            assert ours.getstate() == theirs.getstate(), n


@pytest.mark.parametrize(
    "condition, count, digest",
    [
        ("rp-ri", 60, "1f5026aeec604642372d74c679e6975c6b3f48e4416c6af301428719ca5b0b62"),
        ("idp-pi", 20, "6905c575c746b69c38d92ce382704c31e438f4ad08384f7eb2d0544cd1d66bfc"),
    ],
)
def test_datagen_output_bytes_are_pinned(tmp_path, condition, count, digest):
    """The tasks file of a fixed datagen run, byte for byte (recorded on
    CPython 3.11, whose `Random` draws the rp-ri stream)."""
    out = tmp_path / "tasks.jsonl"
    argv = ["datagen", "--condition", condition, "--count", str(count), "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_infeasible_quota(inv):
    law = lower_classical(parse_classical("a > e / t a t a _ k"), inv)  # width 6 context
    cfg = GenConfig(seed=7)
    with pytest.raises(InfeasibleQuota):
        sample_inputs_for_law(law, cfg, derive_rng(7, "x"), inv)


# -- rp-ri ---------------------------------------------------------------------


def test_gen_rp_ri_tasks(inv):
    cfg = GenConfig(seed=8)
    tasks = gen_rp_ri(cfg, 25, inv)
    assert len(tasks) == 25
    for task in tasks:
        outputs, changed = apply_to_lexicon(task.gold_law, list(task.inputs), inv)
        assert tuple(outputs) == task.outputs
        assert any(changed)


def test_gen_rp_ri_deterministic_and_parallel(inv):
    cfg = GenConfig(seed=9)
    serial = [task_to_json(t) for t in gen_rp_ri(cfg, 12, inv)]
    again = [task_to_json(t) for t in gen_rp_ri(cfg, 12, inv)]
    parallel = [task_to_json(t) for t in gen_rp_ri(cfg, 12, inv, jobs=3)]
    assert serial == again == parallel


# -- distractors ----------------------------------------------------------------


def test_add_distractors(inv):
    law = lower_classical(parse_classical("t > d / _ #"), inv)
    from soundlaw.tasks import PBETask

    task = PBETask("d-0", "rp-li", (inv.segment("sunt"),), (inv.segment("sund"),), law, {})
    pool = [inv.segment(w) for w in ("tapere", "mat", "kap", "sut", "lamo")]
    rng = random.Random(0)
    padded = add_distractors(task, pool, rng, 4, inv)
    assert padded.n_examples == 4
    outputs, _ = apply_to_lexicon(padded.gold_law, list(padded.inputs), inv)
    assert tuple(outputs) == padded.outputs  # law-consistent even if a
    # distractor happens to change ("mat" -> "mad")
    assert add_distractors(task, pool, rng, 1, inv) == task
    with pytest.raises(PoolExhausted):
        add_distractors(task, pool[:1], rng, 10, inv)


# -- lcs and idp context ---------------------------------------------------------


def test_lcs_identity_and_singleton():
    assert lcs(("a", "b"), ("a", "b")) == ("a", "b")
    assert len(lcs(("a", "b"), ("b", "a"))) == 1


def test_count_scan_occurrences():
    assert count_scan_occurrences(("a", "b"), ("a", "a", "b", "b")) == 1
    assert count_scan_occurrences(("a", "b"), ("a", "b", "a", "b")) == 2
    assert count_scan_occurrences(("a",), ("a", "a", "a")) == 3
    assert count_scan_occurrences((), ("a",)) == 0


def test_sample_idp_context_single_candidate():
    words = [("k", "a"), ("k", "a"), ("k", "a")]
    assert sample_idp_context(words, random.Random(0)) == ("k", "a")


def test_sample_idp_context_weighting():
    # candidate ("a",) occurs 4x across inputs, candidate ("b", "b") much less
    words = [("a", "b", "b"), ("a", "b", "b"), ("a", "a", "x")]
    counts = Counter()
    rng = random.Random(12)
    for _ in range(10_000)  :
        counts[sample_idp_context(words, rng)] += 1
    weights = {}
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            cand = lcs(words[i], words[j])
            if cand and cand not in weights:
                weights[cand] = sum(count_scan_occurrences(cand, w) for w in words)
    total = sum(weights.values())
    for cand, weight in weights.items():
        expect = weight / total
        got = counts[cand] / 10_000
        assert abs(got - expect) < 0.02, (cand, expect, got)


def test_sample_idp_context_draws_the_same_on_both_scan_backends(inv, monkeypatch):
    from importlib.resources import files

    from soundlaw.phonology import load_lexicon

    lexicon = load_lexicon(files("soundlaw") / "data" / "demo_protolexicon_poc.txt", inv)
    pick = random.Random(5)
    input_sets = [pick.sample(lexicon, 50) for _ in range(100)]

    def draws():
        out = []
        for seed, words in enumerate(input_sets):
            rng = random.Random(seed)
            out.append((sample_idp_context(words, rng), rng.random()))
        return out

    compiled = draws()
    monkeypatch.setattr(kernels, "scan_counts", _native.scan_counts)
    assert draws() == compiled


def test_sample_idp_context_candidates_are_the_native_lcs_candidates_in_pair_order(monkeypatch):
    """The candidate list fixes the draw, so its order is checked, not just its set."""
    from importlib.resources import files

    from soundlaw.phonology import default_inventory, load_lexicon

    lexicon = load_lexicon(files("soundlaw") / "data" / "demo_protolexicon_poc.txt", default_inventory())
    pick = random.Random(13)
    input_sets = [pick.sample(lexicon, 50) for _ in range(5)]
    weighed = []

    def recording_scan_counts(cands, words):
        weighed.append(cands)
        return scan_counts(cands, words)

    scan_counts = kernels.scan_counts
    monkeypatch.setattr(kernels, "scan_counts", recording_scan_counts)
    for seed, words in enumerate(input_sets):
        sample_idp_context(words, random.Random(seed))
        pairs = [(words[i], words[j]) for i in range(len(words)) for j in range(i + 1, len(words))]
        expect = [cand for cand in dict.fromkeys(_native.lcs_pair(a, b) for a, b in pairs) if cand]
        assert weighed[-1] == expect


def test_sample_idp_context_no_common():
    with pytest.raises(NoCommonSubsequence):
        sample_idp_context([("a",), ("b",)], random.Random(0))


def test_sampled_context_is_shared_subsequence(inv):
    rng = random.Random(77)
    words = [tuple(rng.choice("ptkamu") for _ in range(rng.randrange(3, 7))) for _ in range(50)]
    ctx = sample_idp_context(words, rng)
    contains = sum(1 for w in words if count_scan_occurrences(ctx, w) >= 1)
    assert contains >= 2


# -- idp-pi -----------------------------------------------------------------------


def test_gen_idp_pi(inv):
    db = load_rule_db("u > o / _ C\tf\tpoc-x\nt > d / _ #\tf\tpoc-x\nm > n / _ #\tf\tptk-y\n", inv)
    rng = random.Random(41)
    lexicon = [tuple(rng.choice("ptkmnsau") for _ in range(rng.randrange(3, 7))) for _ in range(80)]
    cfg = GenConfig(seed=13, retry_budget=40)
    tasks = gen_idp_pi(db, lexicon, cfg, 10, inv)
    assert len(tasks) == 10
    for task in tasks:
        outputs, changed = apply_to_lexicon(task.gold_law, list(task.inputs), inv)
        assert tuple(outputs) == task.outputs and any(changed)
        assert task.provenance["source"]["rule"]


def test_gen_idp_pi_reexecution_audit(inv):
    # every selected rule must be non-inert on its task's inputs
    from importlib.resources import files

    from soundlaw.dsl import load_rule_db_file
    from soundlaw.phonology import load_lexicon

    db = load_rule_db_file(files("soundlaw") / "data" / "demo_rules.txt", inv)
    lexicon = load_lexicon(files("soundlaw") / "data" / "demo_protolexicon_poc.txt", inv)
    cfg = GenConfig(seed=99)
    tasks = gen_idp_pi(db, lexicon, cfg, 200, inv)
    assert len(tasks) == 200
    for task in tasks:
        outputs, changed = apply_to_lexicon(task.gold_law, list(task.inputs), inv)
        assert tuple(outputs) == task.outputs
        assert any(changed)


def _gate_on_the_classical_rule(rule, context, inv):
    """The idp-pi gate as it read the classical syntax tree: focus and literal
    context phones in the context, each set meeting it."""
    ctx = set(context)
    if rule.focus and any(p not in ctx for p in inv.segment(rule.focus)):
        return False
    for atom in rule.left + rule.right:
        if atom.kind == "text" and any(p not in ctx for p in inv.segment(atom.value[0])):
            return False
        if atom.kind == "set" and ctx.isdisjoint(atom.value):
            return False
    return True


def _random_classical_rule(rng, phones):
    def atoms(side):
        out = []
        for _ in range(rng.randrange(0, 3)):
            kind = rng.choice(("text", "text", "set", "class"))
            if kind == "text":  # one or two phones written as one atom
                out.append(Atom("text", ("".join(rng.sample(phones, rng.randrange(1, 3))),)))
            elif kind == "set":
                out.append(Atom("set", tuple(rng.sample(phones, rng.randrange(1, 4)))))
            else:
                out.append(Atom("class", (rng.choice(("is_consonant", "is_vowel")),)))
        if rng.random() < 0.3:
            out.insert(0 if side == "left" else len(out), Atom("boundary"))
        return tuple(out)

    focus = rng.choice(phones) if rng.random() < 0.8 else ""
    target = "".join(rng.sample(phones, rng.randrange(0 if focus else 1, 3)))
    return ClassicalRule(focus, target, atoms("left"), atoms("right"))


def test_idp_gate_on_lowered_laws_equals_gate_on_classical_rules(inv):
    from importlib.resources import files

    from soundlaw.phonology import load_lexicon

    lexicon = load_lexicon(files("soundlaw") / "data" / "demo_protolexicon_poc.txt", inv)
    db = load_rule_db((files("soundlaw") / "data" / "demo_rules.txt").read_text("utf-8"), inv)
    rng = random.Random(2024)
    phones = sorted({p for w in lexicon for p in w}) + ["ʒ", "ts", "ŋ"]
    rules = [(e.rule, e.law) for e in db.usable()]
    while len(rules) < 400:
        rule = _random_classical_rule(rng, phones)
        try:
            rules.append((rule, lower_classical(rule, inv)))
        except DslError:
            continue
    contexts = [sample_idp_context(rng.sample(lexicon, 8), rng) for _ in range(60)]
    verdicts = Counter()
    for rule, law in rules:
        for context in contexts:
            want = _gate_on_the_classical_rule(rule, context, inv)
            assert datagen._law_phones_in_context(law, context) == want, (rule, context)
            verdicts[want] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_gen_idp_pi_no_applicable(inv):
    db = load_rule_db("ʒ > d / _ #\tf\tp\n", inv)  # phone absent from the lexicon
    lexicon = [("a", "t")] * 60
    cfg = GenConfig(seed=14, retry_budget=3)
    with pytest.raises((datagen.NoApplicableRule, GenerationError)):
        gen_idp_pi(db, lexicon, cfg, 1, inv)


# -- llm-backed generation ----------------------------------------------------------


class ScriptedGateway(gateway.Gateway):
    def __init__(self, responses):
        super().__init__(gateway.GatewayConfig())
        self.responses = list(responses)
        self.calls = 0

    def complete_prompt(self, prompt, n):
        content = self.responses[min(self.calls, len(self.responses) - 1)]
        self.calls += 1
        return [gateway.Transcript(content, False, gateway.prompt_hash(prompt), 0)]


S_DELETION = """```python
action = BasicAction(predicates=[lambda x: x == 's', lambda x: x == '@', lambda x: x == 'a', lambda x: x == '@', lambda x: x in ['l', 't', 'v']], change_pos=[0], mapping_fn=[lambda x: '!'])
nonce_inputs = ['neyingersalved', 'savolcomish', 'sataphier']
```"""


def test_harvest_actions_pairs_nonce_inputs(inv):
    pairs = harvest_actions(S_DELETION, inv)
    assert len(pairs) == 1
    law, nonce = pairs[0]
    assert nonce == ["neyingersalved", "savolcomish", "sataphier"]
    assert law.mappings[0].kind == "delete"


def test_gen_llm_tasks_rp_li(inv):
    pool = [
        inv.segment(w)
        for w in (
            "blemick", "trandle", "spolver", "crennit", "flousk",
            "granip", "stelbor", "morvick", "delpras", "fronnet", "sevlok",
        )
    ]
    gw = ScriptedGateway([S_DELETION])
    cfg = GenConfig(seed=15, n_examples=10)
    tasks = gen_llm_tasks("rp-li", gw, pool, cfg, 1, inv)
    assert len(tasks) == 1
    task = tasks[0]
    assert task.n_examples == 10
    assert "".join(task.inputs[0]) == "neyingersalved"
    assert "".join(task.outputs[0]) == "neyingeralved"  # s dropped before 'al'
    outputs, changed = apply_to_lexicon(task.gold_law, list(task.inputs), inv)
    assert tuple(outputs) == task.outputs and any(changed)


def test_gen_llm_tasks_rp_pi_uses_seeds(inv):
    pool = [
        inv.segment(w)
        for w in (
            "tʰum", "sam", "lar", "an", "wam", "ap", "ha", "tsar",
            "lam", "san", "kom", "pat", "nu", "mir", "tok",
        )
    ]
    response = """```python
action = BasicAction(predicates=[lambda x: x == 'm', lambda x: x == '@', lambda x: x == '#'], change_pos=[0], mapping_fn=[lambda x: 'n'])
```"""
    gw = ScriptedGateway([response])
    cfg = GenConfig(seed=16, n_examples=10)
    tasks = gen_llm_tasks("rp-pi", gw, pool, cfg, 1, inv)
    assert len(tasks) == 1
    task = tasks[0]
    assert task.n_examples == 10
    ins = ["".join(w) for w in task.inputs]
    outs = ["".join(w) for w in task.outputs]
    for i, o in zip(ins, outs):
        assert (o == i[:-1] + "n") if i.endswith("m") else (o == i)


def test_gen_llm_tasks_inert_filtered_and_zero_yield(inv):
    pool = [inv.segment(w) for w in ("pa", "ta", "ka", "ma", "na", "sa")]
    prose_only = "I cannot write actions for these words, sorry."
    inert = """```python
action = BasicAction(predicates=[lambda x: x == 'ʒ'], change_pos=[0], mapping_fn=[lambda x: 'e'])
```"""
    gw = ScriptedGateway([prose_only, inert, prose_only, inert])
    cfg = GenConfig(seed=17, n_examples=10, retry_budget=2)
    with pytest.raises(ZeroYield):
        gen_llm_tasks("rp-li", gw, pool, cfg, 1, inv)


def test_derive_rng_streams_independent():
    a = derive_rng(1, "x", 0).random()
    b = derive_rng(1, "x", 1).random()
    c = derive_rng(2, "x", 0).random()
    assert len({a, b, c}) == 3
    assert derive_rng(1, "x", 0).random() == a
