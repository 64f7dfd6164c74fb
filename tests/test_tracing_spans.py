"""The benchmark tracer names package functions by (module, attribute).

A rename in the package would otherwise only surface when someone runs
`perfbench/run.py --trace 1`, so every traced name is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_span_names_an_existing_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [
        (module, attr)
        for module, attr in tracing.SPANS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
