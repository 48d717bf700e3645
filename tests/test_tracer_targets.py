"""The benchmark's tracer wraps program functions by module and name; a
renamed or deleted function would silently break its traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"pi2cut.{module}"), attr, None)), (
            f"pi2cut.{module}.{attr}"
        )
