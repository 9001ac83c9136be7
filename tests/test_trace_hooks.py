"""The functions the benchmark's traced run wraps must exist in circgeo.

`perfbench/spans.py` looks each traced function up by name in its defining
module; a missing one would break `perfbench/run.py --trace 1`, and a
layer the commands reach without calling its traced function reads 0 in
that run.  These tests read that table and use its `Tracer`, and leave
perfbench untouched.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["verify", "--grid", "2"], ("tensor.christoffel", "tensor.riemann", "tensor.nabla_q")),
        (["scan", "--grid", "3", "--check", "parallel"], ("tensor.christoffel", "tensor.nabla_q")),
    ],
)
def test_a_traced_command_reaches_the_tensor_layer(monkeypatch, capsys, argv, layers):
    spans = _spans_module(monkeypatch)
    modules = {name: importlib.import_module(f"circgeo.{name}") for name in spans.MODULES}
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        spec = str(ROOT / "fixtures" / "curved-par.json")
        assert tracer.call("cli.main", modules["cli"].main, [argv[0], spec, *argv[1:]]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = {name: totals.calls for name, totals in spans.summarize(tracer.spans).items()}
    assert all(calls.get(name, 0) > 0 for name in layers), calls
    if "tensor.riemann" not in layers:
        assert "tensor.riemann" not in calls  # a scan builds no curvature
