"""Tests of the pipeline benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.PER_LAYER_METRICS)
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == tracer.metric_unit(metric["name"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics(workload):
    result = _bench(workload, trace=1)
    assert result["correct"], "a layer the workload uses recorded no calls"
    metrics = result["metrics"]
    assert list(metrics) == list(tracer.PER_LAYER_METRICS)
    for name, metric in metrics.items():
        assert metric["unit"] == tracer.metric_unit(name)
    for layer in run.EXPECTED_LAYERS[workload]:
        probe = next(m for m in tracer.PER_LAYER_METRICS if m.startswith(layer + "."))
        assert metrics[probe]["value"] > 0, probe


def test_trace_patches_every_alias():
    from soundlaw import datagen, evaluation, kernels, rules

    originals = (kernels.lcs_pair, rules.apply_to_lexicon, rules.preprocess)
    probe = tracer.Tracer()
    saved = {}
    for module in tracer._program_modules():
        saved[module] = dict(vars(module))
    from soundlaw.phonology import SegmentInventory
    from soundlaw.gateway import Gateway

    methods = (SegmentInventory.segment, Gateway.complete_prompt)
    try:
        tracer.install(probe)
        assert datagen.lcs is kernels.lcs_pair and datagen.lcs not in originals
        assert evaluation.apply_to_lexicon is rules.apply_to_lexicon is datagen.apply_to_lexicon
        assert rules.preprocess is not originals[2]
    finally:
        for module, namespace in saved.items():
            vars(module).update(namespace)
        SegmentInventory.segment, Gateway.complete_prompt = methods


def test_gate_fails_on_a_corrupted_output_digest(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    bench = run.Run("rpri_gen_eval", 5, "tiny", str(work))
    assert bench.prepare() and bench.gate.failed == 0
    assert bench.repetition(0, 0) is not None and bench.gate.failed == 0
    name = "eval.json"
    bench.ref_digests[name] = "0" * 64
    bench.repetition(1, 0)
    assert bench.gate.failed == 1
    assert any(name in failure for failure in bench.gate.failures)


def test_golden_digests_are_checked(tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    bench = run.Run("idp_pi", 4, "tiny", str(work))
    assert bench.prepare()
    table = {"sizes": workloads.SIZES["full"],
             "digests": {"idp": {"4": {**bench.ref_digests, "rpli.jsonl": "f" * 64}}}}
    monkeypatch.setattr(run, "_load_golden", lambda: table)
    bench.check_golden()
    assert bench.gate.failed == 1 and "golden:rpli.jsonl" in bench.gate.failures[0]


def test_reference_loop_cancels_host_speed(tmp_path):
    bench = run.Run("cascade_lexicon", 1, "tiny", str(tmp_path))
    bench.units = {"tasks": 10, "samples": 20, "word_laws": 1500}

    def rep(scale):
        steps = [{"command": c, "seconds": t * scale} for c, t in
                 (("derive", 1.0), ("bench", 2.0), ("eval", 1.0))]
        return {"steps": steps, "reference_s": [0.1 * scale] * 4, "setup_s": 0.2 * scale,
                "peak_rss_mb": 30.0}

    fast = bench.e2e_metrics([rep(1.0)] * 3, [0.2])
    slow = bench.e2e_metrics([rep(1.5)] * 3, [0.3])
    assert fast["wall_ref"] == pytest.approx(40.0) == pytest.approx(slow["wall_ref"])
    assert fast["gen_tasks_per_ref"] == pytest.approx(0.5) == pytest.approx(slow["gen_tasks_per_ref"])
    assert slow["wall_s"] == pytest.approx(1.5 * fast["wall_s"])
    assert set(run.END_TO_END) <= set(fast) and set(fast) <= set(run.END_TO_END) | set(run.UNGATED)


def test_same_digests_reports_missing_files():
    results = checks.same_digests("x", {"a": "1"}, {"a": "1", "b": "2"})
    assert [ok for _, ok, _ in results] == [True, False]


def test_transcripts_round_trip():
    from soundlaw import datagen, dsl
    from soundlaw.phonology import default_inventory

    inv = default_inventory()
    cfg = datagen.GenConfig(seed=9)
    for i in range(300):
        law = datagen.sample_random_law(cfg, datagen.derive_rng(9, "t", i), inv)
        assert dsl.parse_program_text(workloads.law_transcript(law), inv).laws == (law,)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (tmp_path / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idp_pi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
