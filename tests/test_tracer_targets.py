"""The per-layer tracer of perfbench names soundlaw functions by module and
attribute path; each one must still exist, or a traced benchmark run breaks."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"soundlaw.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"soundlaw.{module_name}.{path}"
        assert callable(owner), f"soundlaw.{module_name}.{path}"
