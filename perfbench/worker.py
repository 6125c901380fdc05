"""One fresh interpreter of the pipeline benchmark.

    python3 perfbench/worker.py MODE RESULT_JSON SPAWN_TIME [options]

MODE is `setup` (set up and stop), `prepare` (build the seeded inputs and
run one reference repetition, untimed, with one job) or `rep` (one timed
repetition with the given jobs, optionally traced).  A repetition also times
the reference loop of perfbench/calibrate.py before every CLI step and after
the last one.  SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before
it started this process; set-up time runs from it until `soundlaw` and its
CLI are imported, the kernel backend is chosen and the default inventory is
loaded.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import soundlaw.cli  # noqa: E402
from soundlaw import kernels  # noqa: E402
from soundlaw.phonology import default_inventory  # noqa: E402

default_inventory()
_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child; ru_maxrss is
    in KiB on Linux."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_maxrss + kids.ru_maxrss) * 1024 / 1e6


def _run_steps(args, result: dict, tracer=None) -> None:
    main = soundlaw.cli.main
    root_rel = os.path.relpath(_ROOT, os.getcwd())
    step_list = workloads.steps(args.workload, args.seed, args.size, args.jobs, root_rel)
    for step in step_list:
        if step.build:
            _build(step.build, args)
            continue
        call = tracer.wrap(f"cli.{step.argv[0]}", main, True) if tracer else main
        log = io.StringIO()
        result["reference_s"].append(calibrate.reference_loop())
        start = time.perf_counter()
        with contextlib.redirect_stderr(log):
            try:
                code = call(list(step.argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
        result["steps"].append(
            {"command": step.argv[0], "argv": ["soundlaw", *step.argv], "seconds": elapsed,
             "exit": code, "outputs": list(step.outputs), "stderr": log.getvalue()[-2000:]}
        )
        if code != 0:
            break
    result["reference_s"].append(calibrate.reference_loop())
    result["peak_rss_mb"] = _peak_rss_mb()


def _build(name: str, args) -> None:
    """Benchmark-side input steps.  Inputs are built once, in the preparation
    pass; the reward columns are rebuilt in every repetition because the
    `stats` step reads them."""
    if name == "columns":
        workloads.build_columns("eval.json")
    elif args.mode == "prepare" and name == "lexicon":
        workloads.build_lexicon(_ROOT, args.seed, args.size, "../inputs/lexicon.txt")
    elif args.mode == "prepare" and name == "samples":
        workloads.build_samples("tasks.jsonl", args.workload, args.seed, args.size,
                                "../inputs/samples.jsonl")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "prepare", "rep"))
    parser.add_argument("result")
    parser.add_argument("spawned", type=float)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    result = {
        "setup_s": _READY - args.spawned,
        "backend": kernels.BACKEND,
        "soundlaw_file": soundlaw.cli.__file__,
        "steps": [],
        "reference_s": [],
    }
    if args.mode != "setup":
        tracer = None
        if args.trace:
            tracer = tracer_mod.Tracer()
            tracer_mod.install(tracer)
        _run_steps(args, result, tracer)
        if tracer is not None:
            generated = 0
            for step in result["steps"]:
                if step["command"] == "datagen" and "rp-li" not in step["argv"]:
                    with open(step["outputs"][0], encoding="utf-8") as fh:
                        generated += sum(1 for line in fh if line.strip())
            result["layers"] = tracer_mod.layer_metrics(tracer, generated)
            result["calls"] = {name: layer.calls for name, layer in tracer.layers.items()}
            result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
