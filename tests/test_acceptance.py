"""Acceptance suite: the project's exit criteria.

Each test prints one [A#] PASS/FAIL line (run with -s to see them inline)
and enforces its stated wall-clock budget.  The budgets hold on both kernel
backends: the compiled kernels, which soundlaw.kernels builds on first
import when a C compiler is present, and the pure-Python fallback;
`kernels.BACKEND_REASON` says which was chosen and why.
"""

import hashlib
import importlib.util
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from oracles import grid_distances, window_sites
from scipy import stats as scipy_stats

from soundlaw import benchmark, datagen, dsl, evaluation, kernels
from soundlaw.cli import main as cli_main
from soundlaw.phonology import default_inventory, preprocess
from soundlaw.rules import apply_law_word, find_matches
from soundlaw.stats import bonferroni, wilcoxon_signed_rank
from soundlaw.tasks import read_tasks

INV = default_inventory()
DATA = Path(__file__).parent / "data"

RP_LI_REPLAY_SHA256 = "6cbd023bfe3c418c883b066e532a46962b570676708686111c0f79a522821b23"


@contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[A{num:02d}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= budget_s else f"FAIL (took {elapsed:.1f}s > {budget_s}s)"
    print(f"[A{num:02d}] {name}: {status} ({elapsed:.1f}s)")
    assert elapsed <= budget_s, f"budget exceeded: {elapsed:.1f}s > {budget_s}s"


def rule(text):
    return dsl.lower_classical(dsl.parse_classical(text), INV)


def test_a01_classical_rule_rows():
    with criterion(1, "four classical rule rows", 1.0):
        rows = [
            ("t > d / _ #", "sunt", "sund"),
            ("t > d / _ #", "tapere", "tapere"),
            ("m > n / _ #", "tʰum", "tʰun"),
            ("m > n / _ #", "sam", "san"),
            ("u > o / _ C", "talun", "talon"),
            ("u > o / _ C", "suat", "suat"),
            ("k > ∅ / _ #", "mak", "ma"),
            ("k > ∅ / _ #", "kap", "kap"),
        ]
        for text, word, expect in rows:
            got = "".join(apply_law_word(rule(text), INV.segment(word), INV))
            assert got == expect, (text, word, got, expect)


def test_a02_pre_j_raising_vs_window_scan():
    with criterion(2, "pre-j raising matches a window-scan oracle", 5.0):
        law = rule("a > e / _ j")
        alphabet = ["a", "e", "j", "k", "o", "t"]
        rng = random.Random(97)
        for _ in range(1000):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
            got = apply_law_word(law, word, INV)
            # oracle: scan the ORIGINAL word for a+j and rewrite those sites
            want = tuple(
                "e" if p == "a" and i + 1 < len(word) and word[i + 1] == "j" else p
                for i, p in enumerate(word)
            )
            assert got == want, (word, got, want)


def test_a03_reward_identities():
    with criterion(3, "reward identities in exact arithmetic", 1.0):
        src = (INV.segment("ka"), INV.segment("to"))
        tgt = (INV.segment("ki"), INV.segment("to"))
        assert evaluation.reward(src, tgt, tgt) == Fraction(1)
        assert evaluation.reward(src, src, tgt) == Fraction(0)
        r = evaluation.reward((INV.segment("ka"),), (INV.segment("kuu"),), (INV.segment("ki"),))
        assert r == Fraction(-1)


def test_a04_gold_oracle_on_2500_task_corpus():
    with criterion(4, "gold oracle solves a 2500-task corpus", 120.0):
        cfg = datagen.GenConfig(seed=2024)
        tasks = datagen.gen_rp_ri(cfg, 2500, INV)
        assert len(tasks) == 2500
        reports = [
            evaluation.evaluate_samples(task, [task.gold_law] * 3, INV) for task in tasks
        ]
        assert evaluation.pass_rate(reports) == Fraction(1)
        assert evaluation.mean_reward_at(reports, 1) == Fraction(1)
        assert evaluation.mean_reward_at(reports, 3) == Fraction(1)


def test_a05_input_quota_audit():
    with criterion(5, "input quotas hold on 1000 tasks", 60.0):
        cfg = datagen.GenConfig(seed=501)
        tasks = datagen.gen_rp_ri(cfg, 1000, INV)
        for task in tasks:
            preds = datagen.context_predicates(task.gold_law)
            width = len(preds)
            bearing = begin = end = one_inside = two_inside = 0
            for word in task.inputs:
                occ = window_sites(preds, word, INV)  # independent scan over the phones
                inside = [i for i in occ if 0 < i and i + width < len(word)]
                bearing += bool(occ)
                begin += 0 in occ
                end += (len(word) - width) in occ
                one_inside += len(inside) >= 1
                two_inside += len(inside) >= 2
            assert bearing >= 34, (task.id, bearing)
            assert begin >= 5 and end >= 5, (task.id, begin, end)
            assert one_inside >= 5 and two_inside >= 5, (task.id, one_inside, two_inside)


def test_a06_self_feeding_suppression():
    with criterion(6, "environment-recreating rules fire once per site", 5.0):
        from soundlaw.rules import (
            SEP_PRED,
            SoundLaw,
            insert_after,
            insert_before,
            is_token,
            replace_with,
        )

        grow_after = SoundLaw((is_token("a"),), (0,), (insert_after(("a",)),))
        grow_before = SoundLaw((is_token("a"),), (0,), (insert_before(("a",)),))
        explode = SoundLaw((is_token("a"),), (0,), (replace_with(("a", "a")),))
        chain = SoundLaw(
            (is_token("a"), SEP_PRED, is_token("b")), (2,), (replace_with(("a", "b")),)
        )
        rng = random.Random(6)
        for law, per_site_growth in ((grow_after, 1), (grow_before, 1), (explode, 1), (chain, 1)):
            for _ in range(300):
                word = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 8)))
                sites = find_matches(law, preprocess(word), INV)
                out = apply_law_word(law, word, INV)
                # exactly one extra phone per original site, never more
                assert len(out) == len(word) + per_site_growth * len(sites), (word, out)
                # fixed point: if the output recreates the environment, a
                # second pass grows again - the first pass must not have
                out_sites = find_matches(law, preprocess(out), INV)
                if out_sites:
                    second = apply_law_word(law, out, INV)
                    assert len(second) == len(out) + per_site_growth * len(out_sites)
        # the worked example: append 'a' after 'a' on "ba" applies exactly once
        assert apply_law_word(grow_after, ("b", "a"), INV) == ("b", "a", "a")


def test_a07_distance_oracles_full_grid():
    with criterion(7, "DP equals one-edit-graph shortest paths for all pairs (len <= 6, 3 phones)", 30.0):
        words, edit, indel = grid_distances("abc", 6)
        lev = kernels.levenshtein
        lcs = kernels.lcs_pair
        for i, a in enumerate(words):
            edit_row, indel_row = edit[i].tolist(), indel[i].tolist()
            for j, b in enumerate(words[i:], start=i):
                d = lev(a, b)
                assert d == edit_row[j], (a, b)
                assert d == lev(b, a)
                assert 2 * len(lcs(a, b)) == len(a) + len(b) - indel_row[j], (a, b)


def test_a08_bonferroni_values():
    with criterion(8, "Bonferroni thresholds", 1.0):
        assert f"{bonferroni(0.05, 7):.3f}" == "0.007"
        assert bonferroni(0.05, 7) == pytest.approx(0.0071428571, abs=1e-9)
        assert bonferroni(0.05, 5) == 0.01
        assert bonferroni(0.05, 2) == 0.025


def test_a09_wilcoxon_against_reference():
    with criterion(9, "Wilcoxon agrees with the reference implementation", 10.0):
        rng = random.Random(909)
        cases = []
        for i in range(8):  # small-n, tie-free: exact path on both sides
            while True:
                x = rng.sample(range(1000, 9000), 8)
                y = [v + rng.choice([-11, -7, -3, 3, 7, 11]) * (j + 1) for j, v in enumerate(x)]
                d = [abs(a - b) for a, b in zip(x, y)]
                if len(set(d)) == 8 and 0 not in d:
                    break
            cases.append((x, y, "exact"))
        for n in (30, 5100):
            for i in range(6):
                x = [rng.randrange(0, 10_000) for _ in range(n)]
                y = [v + rng.choice([-3, -2, -1, 1, 2, 4]) for v in x]
                cases.append((x, y, "approx"))
        assert len(cases) == 20
        alternatives = ("two-sided", "less", "greater")
        for idx, (x, y, method) in enumerate(cases):
            alt = alternatives[idx % 3]
            mine = wilcoxon_signed_rank(x, y, alternative=alt)
            if method == "exact":
                ref = scipy_stats.wilcoxon(x, y, alternative=alt, method="exact")
            else:
                ref = scipy_stats.wilcoxon(
                    x, y, alternative=alt, method="approx", correction=True
                )
            assert mine.method == method
            assert mine.statistic == pytest.approx(float(ref.statistic), abs=1e-9)
            assert abs(mine.pvalue - float(ref.pvalue)) <= 1e-6, (idx, alt)


def test_a10_bundled_benchmark_shape():
    with criterion(10, "bundled 10-law benchmark shape and solvability", 10.0):
        cascade = benchmark.load_cascade_file(files("soundlaw") / "data" / "demo_cascade.rules", INV)
        from soundlaw.phonology import load_lexicon

        lexicon = load_lexicon(files("soundlaw") / "data" / "demo_lexicon.txt", INV)
        assert len(cascade) == 10 and len(lexicon) == 200
        spec = benchmark.BenchmarkSpec(cascade, tuple(lexicon), "demo", seed=0)
        tasks, warnings = benchmark.build_single_law_dataset(spec, INV)
        assert not warnings and len(tasks) == 10
        for task in tasks:
            assert 11 <= task.n_examples <= 48, (task.id, task.n_examples)
        reports = [evaluation.evaluate_samples(t, [t.gold_law], INV) for t in tasks]
        assert evaluation.pass_rate(reports) == Fraction(1)


def test_a11_offline_replay_byte_identical(tmp_path):
    with criterion(11, "offline rp-li replay is byte-identical", 30.0):
        out = tmp_path / "rpli.jsonl"
        code = cli_main(
            [
                "datagen", "--condition", "rp-li", "--cache-only",
                "--fixtures", str(DATA / "rp_li_fixtures.jsonl"),
                "--count", "5", "--seed", "11", "--out", str(out),
            ]
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == RP_LI_REPLAY_SHA256, digest
        tasks = read_tasks(out)
        reports = [evaluation.evaluate_samples(t, [t.gold_law], INV) for t in tasks]
        assert evaluation.pass_rate(reports) == Fraction(1)


def test_record_fixtures_script_rerecords_the_bundled_fixtures(tmp_path, monkeypatch, capsys):
    path = Path(__file__).parent.parent / "scripts" / "record_fixtures.py"
    spec = importlib.util.spec_from_file_location("record_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURE_PATH", tmp_path / "rp_li_fixtures.jsonl")
    script.main()
    recorded = (tmp_path / "rp_li_fixtures.jsonl").read_bytes()
    assert recorded == (DATA / "rp_li_fixtures.jsonl").read_bytes()
    assert f"replay corpus sha256: {RP_LI_REPLAY_SHA256}\n" in capsys.readouterr().out


def test_a12_parser_round_trips():
    with criterion(12, "parser round trips", 30.0):
        # 10 000 random laws through the JSON document form
        cfg = datagen.GenConfig(seed=777)
        for i in range(10_000):
            law = datagen.sample_random_law(cfg, datagen.derive_rng(777, "rt", i), INV)
            assert dsl.read_law(dsl.print_law(law)) == law
        # classical notation round trip over the bundled rule database
        db_text = (files("soundlaw") / "data" / "demo_rules.txt").read_text("utf-8")
        db = dsl.load_rule_db(db_text, INV)
        assert db.usable()
        for entry in db.entries:
            assert dsl.parse_classical(dsl.print_classical(entry.rule)) == entry.rule
        # every attested constructor form parses with zero diagnostics
        corpus = (DATA / "constructor_corpus.txt").read_text("utf-8")
        body = "\n".join(ln for ln in corpus.splitlines() if not ln.startswith("#"))
        blocks = [b.strip() for b in body.split("---") if b.strip()]
        assert len(blocks) == 35
        for block in blocks:
            parsed = dsl.parse_program_text(block, INV)
            assert len(parsed.laws) == 1 and not parsed.diagnostics, block
