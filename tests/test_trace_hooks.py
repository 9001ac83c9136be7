"""The functions the benchmark's traced run wraps must exist in circgeo.

`perfbench/spans.py` looks each traced function up by name in its defining
module; a missing one would break `perfbench/run.py --trace 1`.  This test
reads that table and leaves perfbench untouched.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    spans = _spans_module(monkeypatch)
    missing = [
        f"{home}.{name}"
        for name, (home, _) in spans.FUNCTIONS.items()
        if not callable(getattr(importlib.import_module(f"circgeo.{home}"), name, None))
    ]
    assert not missing
    assert set(spans.MODULES) >= {home for home, _ in spans.FUNCTIONS.values()}
    assert callable(importlib.import_module("circgeo.expr").ScalarField.jet)
