"""Pipeline benchmark for soundlaw.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(perfbench/worker.py) that drives `soundlaw.cli.main` in-process through the
workload's steps; no repetition is warmed by an earlier pass in the same
interpreter, so a per-process cache only helps the way it helps a CLI user.
Before the timed repetitions an untimed preparation pass builds the seeded
inputs and a reference copy of every output; the set-up time of a fresh
interpreter is measured on its own.

The gated times are counted in reference loops (perfbench/calibrate.py), a
fixed piece of pure-Python work each repetition times between its steps, so
that the drifting speed of a shared host cancels out; the same times in
seconds are printed beside them.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of the untraced repetitions; with --trace 1,
traced and untraced repetitions alternate and the metrics are the per-layer
metrics of perfbench/tracer.py.  The lines before it give provenance, the
CLI argv of each step, every metric by name and unit (including the step
throughputs of the workloads that run those steps) and each failed check.

`--record-golden 0-63` re-records the output digests that the correctness
gate expects for those seeds (perfbench/golden.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
WORK_DIR = os.path.join(ROOT, ".perfbench")

MIN_REPS = 3
WORKER_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # a run must end well inside 180 s

# Gated: a reference loop ("ref") is one run of perfbench/calibrate.py.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "gen_tasks_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
# Printed, not gated: the same times in seconds, the step throughputs that
# only some workloads produce, and the error rate of the result line.
UNGATED = {
    "wall_s": "s",
    "gen_tasks_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "derive_words_per_s": "1/s",
    "bench_words_per_s": "1/s",
    "reference_loop_s": "s",
    "error_rate": "ratio",
}
GEN_COMMANDS = ("datagen", "bench")
STEP_RATES = {
    "eval_samples_per_s": ("eval", "samples"),
    "derive_words_per_s": ("derive", "word_laws"),
    "bench_words_per_s": ("bench", "word_laws"),
}

# Layers each workload must exercise in a traced repetition.
_COMMON = ["cli.datagen", "tasks.write_tasks"]
EXPECTED_LAYERS = {
    "rpri_gen_eval": _COMMON + [
        "cli.eval", "cli.stats", "tasks.read_tasks", "tasks.validate_task", "dsl.doc_to_law",
        "dsl.parse_program_text", "evaluation.evaluate_many", "rules.apply_to_lexicon",
        "stats.wilcoxon_signed_rank", "kernels.levenshtein", "rules.find_matches",
        "rules.apply_law", "phonology.preprocess", "phonology.render",
        "datagen.sample_random_law", "datagen.sample_inputs_for_law",
        "evaluation.evaluate_samples", "evaluation.reward",
    ],
    "cascade_lexicon": [
        "cli.derive", "cli.bench", "cli.eval", "tasks.write_tasks", "tasks.read_tasks",
        "tasks.validate_task", "kernels.levenshtein", "rules.find_matches", "rules.apply_law",
        "rules.apply_to_lexicon", "rules.apply_cascade", "phonology.segment",
        "phonology.preprocess", "phonology.render", "dsl.lower_classical", "dsl.doc_to_law",
        "evaluation.evaluate_samples", "evaluation.reward", "evaluation.evaluate_many",
        "benchmark.build_single_law_dataset",
    ],
    "idp_pi": _COMMON + [
        "kernels.lcs_pair", "rules.find_matches", "rules.apply_law", "rules.apply_to_lexicon",
        "rules.law_is_inert", "phonology.segment", "phonology.preprocess", "phonology.render",
        "datagen.sample_idp_context", "dsl.lower_classical", "dsl.parse_program_text",
        "gateway.Gateway.complete_prompt",
    ],
}


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str) -> str:
    """HEAD of a git checkout, read without running git; 'none' otherwise."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest(root: str) -> str:
    """sha256 over the package sources, so a checkout without git history is
    still identified."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "soundlaw")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode())
            digest.update(checks.sha256_file(path).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# workers


def _spawn(mode: str, cwd: str, result_path: str, extra: list[str]) -> dict | None:
    """Run one worker to completion; None when it crashed or timed out."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, WORKER, mode, result_path, repr(spawned), *extra]
    with open(result_path + ".log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(result_path):
        with open(result_path + ".log", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-1500:]
        print(f"worker {mode} failed (exit {code}):\n{tail}", file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    """Counts attempted and failed operations; remembers why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def step_results(self, label: str, steps: list[dict], expected: int) -> None:
        for step in steps:
            self.attempted += 1
            if step["exit"] != 0:
                self.failed += 1
                self.failures.append(f"{label}: soundlaw {step['command']} exited {step['exit']}: "
                                     f"{step['stderr'].strip()[-300:]}")
        missing = expected - len(steps)
        if missing > 0:  # steps after a failed one never ran
            self.attempted += missing
            self.failed += missing
            self.failures.append(f"{label}: {missing} steps did not run")

    def add(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {detail}")

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)


def _count_lines(path: str, skip_comments: bool = False) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(
            1 for line in fh if line.strip() and not (skip_comments and line.lstrip().startswith("#"))
        )


def _load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one benchmark run


class Run:
    def __init__(self, workload: str, seed: int, size: str, work: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        root_rel = os.path.relpath(ROOT, os.path.join(work, "rep0"))
        self.steps = workloads.steps(workload, seed, size, 1, root_rel)
        self.cli_steps = [s for s in self.steps if s.argv]
        self.outputs = [o for s in self.cli_steps for o in s.outputs]
        self.gate = Gate()
        self.units: dict[str, float] = {}
        self.ref_digests: dict[str, str] = {}
        self.backend = "unknown"
        self.soundlaw_file = ""
        self.notes: list[str] = []

    def worker_args(self, jobs: int, trace: int = 0) -> list[str]:
        return ["--workload", self.workload, "--seed", str(self.seed), "--size", self.size,
                "--jobs", str(jobs), "--trace", str(trace)]

    def prepare(self) -> bool:
        ref = os.path.join(self.work, "ref")
        os.makedirs(os.path.join(self.work, "inputs"))
        os.makedirs(ref)
        result = _spawn("prepare", ref, os.path.join(self.work, "prepare.json"), self.worker_args(1))
        if result is None:
            self.gate.fail("preparation pass crashed")
            return False
        self.backend = result["backend"]
        self.soundlaw_file = result["soundlaw_file"]
        self.gate.step_results("prepare", result["steps"], len(self.cli_steps))
        if any(step["exit"] != 0 for step in result["steps"]):
            return False
        self.ref_digests = checks.output_digests(ref, self.outputs)
        self._count_units(ref)
        family = workloads.FAMILY[self.workload]
        if family in ("rpri", "cascade"):
            self.gate.add(checks.gold_rewards(os.path.join(ref, "eval.json"),
                                              os.path.join(self.work, "inputs", "samples.jsonl")))
        if family == "idp":
            self.gate.add(checks.replay_hash(os.path.join(ref, "rpli.jsonl"),
                                             workloads.RP_LI_REPLAY_SHA256))
        if family == "rpri":
            self.gate.add(self._audit(os.path.join(ref, "tasks.jsonl")))
            self._pool_pass()
        return True

    def _pool_pass(self) -> None:
        """Run the steps once more, untimed, with a process pool for datagen
        and eval: the outputs must equal the one-job outputs byte for byte."""
        pool = os.path.join(self.work, "pool")
        os.makedirs(pool)
        jobs = workloads.POOL_JOBS
        result = _spawn("rep", pool, os.path.join(self.work, "pool.json"), self.worker_args(jobs))
        if result is None:
            self.gate.fail(f"--jobs {jobs} pass crashed")
            return
        self.gate.step_results(f"--jobs {jobs}", result["steps"], len(self.cli_steps))
        self.gate.add(checks.same_digests(f"--jobs {jobs} vs --jobs 1",
                                          checks.output_digests(pool, self.outputs), self.ref_digests))
        shutil.rmtree(pool)

    def _audit(self, tasks_path: str):
        from soundlaw.phonology import default_inventory

        n_tasks = _count_lines(tasks_path)
        k = min(workloads.SIZES[self.size]["audit_tasks"], n_tasks)
        picks = sorted(random.Random(f"perfbench-audit-{self.seed}").sample(range(n_tasks), k))
        return checks.audit_rp_ri(tasks_path, picks, default_inventory())

    def check_golden(self) -> None:
        golden = _load_golden()
        family = workloads.FAMILY[self.workload]
        if golden["sizes"] != workloads.SIZES["full"]:
            self.gate.fail("golden.json was recorded for other input sizes; re-record it")
            return
        want = golden["digests"][family].get(str(self.seed))
        if want is None:
            self.notes.append(f"no recorded digests for seed {self.seed}: outputs are checked "
                              "against the preparation pass only")
            return
        self.gate.add(checks.same_digests("golden", self.ref_digests, want))

    def _count_units(self, ref: str) -> None:
        """Work done per repetition, read off the reference outputs."""
        tasks = 0
        for step in self.cli_steps:
            if step.argv[0] in ("datagen", "bench"):
                tasks += _count_lines(os.path.join(ref, step.outputs[0]))
        self.units["tasks"] = tasks
        samples = os.path.join(self.work, "inputs", "samples.jsonl")
        if os.path.exists(samples):
            self.units["samples"] = _count_lines(samples)
        lexicon = os.path.join(self.work, "inputs", "lexicon.txt")
        if os.path.exists(lexicon):
            laws = _count_lines(os.path.join(ROOT, workloads.DEMO_CASCADE), skip_comments=True)
            self.units["word_laws"] = _count_lines(lexicon, skip_comments=True) * laws

    def setup_sample(self, index: int) -> list[float]:
        """One fresh interpreter that only sets up: [its set-up time], or []."""
        result = _spawn("setup", self.work, os.path.join(self.work, f"setup{index}.json"), [])
        if result is None:
            self.gate.fail("set-up worker crashed")
            return []
        return [result["setup_s"]]

    def repetition(self, index: int, trace: int) -> dict | None:
        rep = os.path.join(self.work, f"rep{index}")
        os.makedirs(rep)
        result = _spawn("rep", rep, os.path.join(self.work, f"rep{index}.json"),
                        self.worker_args(1, trace))
        label = f"rep{index}{' traced' if trace else ''}"
        if result is None:
            self.gate.fail(f"{label}: worker crashed")
            return None
        self.gate.step_results(label, result["steps"], len(self.cli_steps))
        self.gate.add(checks.same_digests(f"{label} vs reference",
                                          checks.output_digests(rep, self.outputs), self.ref_digests))
        shutil.rmtree(rep)
        if any(step["exit"] != 0 for step in result["steps"]) or len(result["steps"]) != len(self.cli_steps):
            return None
        return result

    def e2e_metrics(self, reps: list[dict], setups: list[float]) -> dict[str, float]:
        """End-to-end metrics over the untraced repetitions of one run, each
        the median over repetitions.  A repetition's times in reference loops
        are its step seconds divided by the mean of the reference loops it
        timed, so both sides of the quotient ran at the host's speed of that
        moment.  Set-up time is the median over every fresh interpreter."""

        def seconds(rep: dict, commands=None) -> float:
            return sum(s["seconds"] for s in rep["steps"] if commands is None or s["command"] in commands)

        def loop(rep: dict) -> float:
            return statistics.fmean(rep["reference_s"])

        def median(fn) -> float:
            return statistics.median(fn(rep) for rep in reps)

        tasks = self.units["tasks"]
        out = {
            "setup_s": statistics.median(setups + [rep["setup_s"] for rep in reps]),
            "wall_ref": median(lambda r: seconds(r) / loop(r)),
            "gen_tasks_per_ref": median(lambda r: tasks * loop(r) / seconds(r, GEN_COMMANDS)),
            "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
            "wall_s": median(seconds),
            "gen_tasks_per_s": median(lambda r: tasks / seconds(r, GEN_COMMANDS)),
            "reference_loop_s": median(loop),
        }
        commands = {step["command"] for step in reps[0]["steps"]}
        for name, (command, unit) in STEP_RATES.items():
            if command in commands and unit in self.units:
                out[name] = median(lambda r: self.units[unit] / seconds(r, (command,)))
        return out


def run(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict | None:
    started = time.monotonic()
    work = os.path.join(WORK_DIR, f"{workload}-s{seed}-{os.getpid()}")
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    bench = Run(workload, seed, size, work)
    try:
        prepared = bench.prepare()
        if prepared and size == "full":
            bench.check_golden()
        # set-up-only interpreters alternate with the repetitions, so both
        # sample the same stretch of machine time
        setups: list[float] = []
        untraced: list[dict] = []
        traced: list[dict] = []
        rep_seconds: list[float] = []
        measure_start = time.monotonic()
        index = 0
        while prepared:
            now = time.monotonic()
            expected = statistics.median(rep_seconds) if rep_seconds else 0.0
            enough = len(untraced) >= MIN_REPS if not trace else (untraced and traced)
            if enough and now - measure_start + expected > seconds:
                break
            if now - started + 2 * expected > RUN_BUDGET_S:
                bench.notes.append("stopped early to stay inside the run budget")
                break
            want_trace = trace and index % 2 == 1
            rep_start = time.monotonic()
            setups += bench.setup_sample(index)
            result = bench.repetition(index, int(want_trace))
            rep_seconds.append(time.monotonic() - rep_start)
            index += 1
            if result is None:
                if index >= 2 * MIN_REPS and not (untraced or traced):
                    break
                continue
            (traced if want_trace else untraced).append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (trace and not traced):
        _report_failures(bench)
        return None
    e2e = bench.e2e_metrics(untraced, setups)
    layers = _trace_metrics(bench, traced, e2e) if trace else {}
    e2e["error_rate"] = bench.gate.failed / bench.gate.attempted

    provenance = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "backend": bench.backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_digest(ROOT),
        "soundlaw": os.path.relpath(bench.soundlaw_file, ROOT),
        "pool_jobs": workloads.POOL_JOBS if workloads.FAMILY[workload] == "rpri" else None,
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "setup_samples": len(setups) + len(untraced),
        "step_seconds": [[round(s["seconds"], 4) for s in r["steps"]] for r in untraced],
        "reference_loop_seconds": [[round(x, 4) for x in r["reference_s"]] for r in untraced],
        "setup_seconds": [round(x, 4) for x in setups] + [round(r["setup_s"], 4) for r in untraced],
        "argv": [" ".join(["soundlaw", *s.argv]) for s in bench.cli_steps],
        "notes": bench.notes,
    }
    print("provenance " + json.dumps(provenance, ensure_ascii=False))
    for name, value in e2e.items():
        gated = "" if name in END_TO_END else "  (not gated)"
        print(f"metric {name} = {value:.6g} {END_TO_END.get(name) or UNGATED[name]}{gated}")
    if trace:
        print(f"trace overhead = {layers['trace.overhead_s']:.4f} s (traced wall "
              f"{layers['trace.wall_s']:.4f} s, untraced {layers['trace.untraced_wall_s']:.4f} s)")
        for name, value in layers.items():
            print(f"layer {name} = {value:.6g} {tracer_mod.metric_unit(name)}")
        _write_spans(workload, seed, traced[-1]["spans"])
    _report_failures(bench)

    metrics = layers if trace else {name: e2e[name] for name in END_TO_END}
    units = {name: tracer_mod.metric_unit(name) for name in layers} if trace else END_TO_END
    return {
        "correct": bench.gate.failed == 0,
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _trace_metrics(bench: Run, traced: list[dict], e2e: dict) -> dict:
    """Per-layer medians over the traced repetitions, checked for the layers
    the workload must exercise."""
    names = traced[0]["layers"]
    layers = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    for name in EXPECTED_LAYERS[bench.workload]:
        calls = min(r["calls"].get(name, 0) for r in traced)
        bench.gate.add([(f"traced layer {name} was called", calls > 0, "zero calls")])
    traced_wall = statistics.median(sum(s["seconds"] for s in r["steps"]) for r in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = e2e["wall_s"]
    layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    for name in STEP_RATES:
        layers[f"e2e.{name}"] = e2e.get(name, 0.0)
    return {name: layers[name] for name in tracer_mod.PER_LAYER_METRICS}


def _write_spans(workload: str, seed: int, spans: list) -> None:
    directory = os.path.join(WORK_DIR, "traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-s{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans], fh)
    print(f"spans of the last traced repetition: {os.path.relpath(path, ROOT)}")


def _report_failures(bench: Run) -> None:
    for failure in bench.gate.failures:
        print(f"check failed: {failure}")


# ---------------------------------------------------------------------------
# golden digests


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_golden(seeds: list[int]) -> int:
    """Record the reference digests of each family for each seed.  A seed
    whose outputs fail any other check is not recorded."""
    golden = _load_golden() if os.path.exists(GOLDEN) else {}
    if golden.get("sizes") != workloads.SIZES["full"]:
        golden = {"sizes": workloads.SIZES["full"], "digests": {}}
    for workload in ("rpri_gen_eval", "cascade_lexicon", "idp_pi"):
        family = workloads.FAMILY[workload]
        table = golden["digests"].setdefault(family, {})
        for seed in seeds:
            work = os.path.join(WORK_DIR, f"golden-{workload}-s{seed}-{os.getpid()}")
            os.makedirs(work)
            try:
                bench = Run(workload, seed, "full", work)
                bench.prepare()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.gate.failed or not bench.ref_digests:
                print(f"{workload} seed {seed}: not recorded: {bench.gate.failures}", file=sys.stderr)
                return 1
            table[str(seed)] = bench.ref_digests
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
        golden["digests"][family] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--record-golden", metavar="SEEDS",
                        help="re-record expected output digests for seeds like 0-63")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "soundlaw", "cli.py")):
        print(f"error: no soundlaw sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(_parse_seeds(args.record_golden))
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        results = {}
        for workload in workloads.WORKLOADS:
            print(f"== {workload}")
            results[workload] = run(workload, args.seed, args.seconds, args.trace, args.size)
        print(json.dumps(results))
        return 0 if all(results.values()) else 1
    result = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    if result is None:
        print("error: no repetition completed; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
