"""Per-layer tracing from outside the program.

`install()` wraps public soundlaw functions in place and rebinds every alias
that `from ... import` left in other soundlaw modules, so a call reaches the
wrapper whichever name it goes through.  Each wrapper keeps, per layer name,
the call count, total time, exact self time (its duration minus the time of
the wrapped calls it made directly) and every call duration.  Coarse layers
(CLI steps, whole-file I/O, dataset construction) also keep one span record
(name, start, end, parent span) per call; hot leaves are only aggregated.
Nothing is written while the program runs: the worker reads the tracer after
the last step.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

_clock = time.perf_counter

# (module, attribute path, coarse) for every wrapped function.  Methods use a
# dotted attribute path on the class.
TARGETS = (
    ("kernels", "levenshtein", False),
    ("kernels", "lcs_pair", False),
    ("rules", "find_matches", False),
    ("rules", "apply_law", False),
    ("rules", "apply_to_lexicon", False),
    ("rules", "law_is_inert", False),
    ("rules", "apply_cascade", True),
    ("phonology", "SegmentInventory.segment", False),
    ("phonology", "preprocess", False),
    ("phonology", "render", False),
    ("datagen", "sample_random_law", False),
    ("datagen", "sample_inputs_for_law", False),
    ("datagen", "sample_idp_context", False),
    ("dsl", "parse_program_text", False),
    ("dsl", "doc_to_law", False),
    ("dsl", "lower_classical", False),
    ("evaluation", "evaluate_samples", False),
    ("evaluation", "reward", False),
    ("evaluation", "evaluate_many", True),
    ("tasks", "write_tasks", True),
    ("tasks", "read_tasks", True),
    ("tasks", "validate_task", False),
    ("benchmark", "build_single_law_dataset", True),
    ("stats", "wilcoxon_signed_rank", True),
    ("gateway", "Gateway.complete_prompt", True),
)

CLI_COMMANDS = ("datagen", "derive", "bench", "eval", "stats")

TIMING = ("calls", "total_s", "self_s", "p50_us", "p99_us")


def _timed(layer: str, *fields: str) -> list[str]:
    return [f"{layer}.{f}" for f in fields]


PER_LAYER_METRICS = (
    _timed("kernels.levenshtein", *TIMING, "cells")
    + _timed("kernels.lcs_pair", *TIMING, "cells")
    + _timed("rules.find_matches", *TIMING, "windows", "sites")
    + ["rules.apply_law.self_s", "rules.apply_to_lexicon.calls", "rules.apply_to_lexicon.words",
       "rules.law_is_inert.calls", "rules.apply_cascade.total_s"]
    + _timed("phonology.segment", *TIMING)
    + _timed("phonology.preprocess", *TIMING)
    + _timed("phonology.render", *TIMING)
    + ["datagen.sample_random_law.calls"]
    + _timed("datagen.sample_inputs_for_law", *TIMING)
    + _timed("datagen.sample_idp_context", *TIMING)
    + ["datagen.attempts_per_task"]
    + _timed("dsl.parse_program_text", *TIMING)
    + _timed("dsl.doc_to_law", *TIMING)
    + ["dsl.lower_classical.calls"]
    + _timed("evaluation.evaluate_samples", *TIMING)
    + _timed("evaluation.reward", *TIMING)
    + ["evaluation.applications_per_sample", "evaluation.evaluate_many.total_s"]
    + _timed("tasks.write_tasks", *TIMING)
    + _timed("tasks.read_tasks", *TIMING)
    + _timed("tasks.validate_task", *TIMING)
    + _timed("benchmark.build_single_law_dataset", *TIMING)
    + ["stats.wilcoxon_signed_rank.total_s"]
    + _timed("gateway.Gateway.complete_prompt", *TIMING)
    + [f"cli.{c}.{f}" for c in CLI_COMMANDS for f in ("total_s", "self_s")]
    + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
    + ["e2e.eval_samples_per_s", "e2e.derive_words_per_s", "e2e.bench_words_per_s"]
)


def metric_unit(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if field.endswith("_s") and not field.endswith("_per_s"):
        return "s"
    if field.endswith("_us"):
        return "us"
    if field.endswith("_per_s"):
        return "1/s"
    if field in ("attempts_per_task", "applications_per_sample"):
        return "ratio"
    return "count"


class Layer:
    __slots__ = ("name", "calls", "total", "self_time", "active", "durations", "extra")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0
        self.durations = array("d")
        self.extra: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.stack: list[list] = []  # frames: [child time, span index or None]
        self.spans: list[list] = []  # [name, start, end, parent span index]

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name)
        return self.layers[name]

    def wrap(self, name: str, fn, coarse: bool, after=None):
        layer = self.layer(name)
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = None
            if coarse:
                span = len(spans)
                spans.append([name, 0.0, 0.0, self._open_span()])
            frame = [0.0, span]
            stack.append(frame)
            layer.active += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                layer.active -= 1
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                layer.calls += 1
                layer.total += duration
                layer.self_time += duration - frame[0]
                layer.durations.append(duration)
                if span is not None:
                    spans[span][1] = start
                    spans[span][2] = end
            if after is not None:
                after(layer, args, result)
            return result

        return wrapper

    def _open_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _program_modules():
    """Loaded soundlaw modules that may hold aliases (not the kernel implementations)."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "soundlaw" or name.startswith("soundlaw."))
        and name not in ("soundlaw._native", "soundlaw._speedups")
        and mod is not None
    ]


def _after_hooks(tracer: Tracer) -> dict:
    eval_layer = tracer.layer("evaluation.evaluate_samples")

    def cells(layer, args, result):
        layer.add("cells", len(args[0]) * len(args[1]))

    def windows(layer, args, result):
        law, tokens = args[0], args[1]
        layer.add("windows", max(0, len(tokens) - len(law.predicates) + 1))
        layer.add("sites", len(result))

    def lexicon(layer, args, result):
        layer.add("words", len(args[1]))
        if eval_layer.active:
            eval_layer.add("applications", 1)

    def samples(layer, args, result):
        distinct = set()
        for cand in args[1]:
            if isinstance(cand, list):
                cand = cand[0] if len(cand) == 1 else tuple(cand)
            if cand is not None:
                distinct.add(cand)
        layer.add("distinct", len(distinct))

    return {
        "kernels.levenshtein": cells,
        "kernels.lcs_pair": cells,
        "rules.find_matches": windows,
        "rules.apply_to_lexicon": lexicon,
        "evaluation.evaluate_samples": samples,
    }


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind all of its aliases; raise if one survives."""
    import importlib

    import soundlaw.cli  # noqa: F401  (loads every module that holds an alias)

    hooks = _after_hooks(tracer)
    modules = _program_modules()
    originals = []
    for module_name, path, coarse in TARGETS:
        module = importlib.import_module(f"soundlaw.{module_name}")
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        # the inventory method is reported under its module's public verb
        name = "phonology.segment" if path == "SegmentInventory.segment" else f"{module_name}.{path}"
        wrapper = tracer.wrap(name, original, coarse, hooks.get(name))
        setattr(owner, attr, wrapper)
        originals.append((name, original))
        if owner is module:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for mod in modules:
        for key, value in vars(mod).items():
            for name, original in originals:
                if value is original:
                    raise RuntimeError(f"{mod.__name__}.{key} still refers to the unwrapped {name}")


def _percentile_us(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index] * 1e6


def layer_metrics(tracer: Tracer, tasks_generated: int) -> dict[str, float]:
    """Every per-layer metric of PER_LAYER_METRICS except the trace.* and e2e.* rows."""
    out: dict[str, float] = {}
    for name in PER_LAYER_METRICS:
        layer_name, field = name.rsplit(".", 1)
        if layer_name in ("trace", "e2e"):
            continue
        layer = tracer.layers.get(layer_name) or Layer(layer_name)
        if field == "calls":
            out[name] = layer.calls
        elif field == "total_s":
            out[name] = layer.total
        elif field == "self_s":
            out[name] = layer.self_time
        elif field in ("p50_us", "p99_us"):
            ordered = sorted(layer.durations)
            out[name] = _percentile_us(ordered, 0.5 if field == "p50_us" else 0.99)
        elif field == "attempts_per_task":
            attempts = (
                tracer.layer("datagen.sample_random_law").calls
                + tracer.layer("datagen.sample_idp_context").calls
            )
            out[name] = attempts / tasks_generated if tasks_generated else 0.0
        elif field == "applications_per_sample":
            # per distinct candidate of a task, so repeated samples that are
            # applied again show as a ratio above 1
            evals = tracer.layer("evaluation.evaluate_samples")
            distinct = evals.extra.get("distinct", 0)
            out[name] = evals.extra.get("applications", 0) / distinct if distinct else 0.0
        else:
            out[name] = layer.extra.get(field, 0)
    return out
