"""The benchmark's span tracer (perfbench/spans.py) wraps stackgame functions
that it looks up by name, so each of those names must stay in its module."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}" for module, name, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(f"stackgame.{module}"), name, None))
    ]
    assert len(spans.TRACED) >= 20
    assert missing == []
