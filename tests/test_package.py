"""The package namespace, loaded on first use, the CLI's BLAS threads and the record types."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circgeo
import circgeo.__main__

from conftest import child_env, fixture_path

ROOT = Path(__file__).resolve().parent.parent
CONST = str(fixture_path("const"))

# The package's names besides its modules: each library module's `__all__`.
EXPORTS = {
    "core": [
        "AdmissibilityError", "BasisAngles", "Box", "InverseMetricAtPoint", "ManifoldSpec",
        "MetricAtPoint", "OutsideDomainError", "Q", "QBasisError", "SingularMetricError",
        "ZeroVectorError", "admissibility", "basis_angles", "circulant_matrix", "cos_angle",
        "find_orthogonal_q_basis", "induces_q_basis", "inner", "inverse_metric", "load_spec",
        "metric_at", "q_apply",
    ],
    "expr": [
        "BinOp", "Call", "Const", "DomainError", "FieldJet", "Neg", "ParseError", "Pow",
        "ScalarField", "Var", "as_point", "eval_jet", "eval_jets", "parse", "unparse",
    ],
    "tensor": [
        "ChristoffelAtPoint", "DegeneratePlaneError", "NablaQ", "christoffel_at",
        "christoffel_from_metric", "metric_compatibility_residual", "nabla_q", "riemann_at",
        "riemann_from_christoffel", "sectional_curvature",
    ],
    "verify": [
        "DEFAULT_TOLERANCES", "KNOWN_CHECKS", "Table", "convention_text", "report_to_json",
        "run_suite", "sample_q_basis_vectors", "write_report",
    ],
}
NAMED = [(module, name) for module, names in EXPORTS.items() for name in names]


def run_python(code: str, env: dict | None = None) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(env), check=True
    )
    return done.stdout


@pytest.mark.parametrize("module, name", NAMED, ids=[name for _, name in NAMED])
def test_every_exported_name_resolves_both_ways(module, name):
    namespace = {}
    exec(f"from circgeo import {name}", namespace)
    defined = getattr(importlib.import_module(f"circgeo.{module}"), name)
    assert namespace[name] is defined
    assert getattr(circgeo, name) is defined
    assert name in dir(circgeo)


def test_the_namespace_is_the_library_modules_and_their_names():
    assert sorted(circgeo.__all__) == sorted([*EXPORTS, *(name for _, name in NAMED)])
    assert len(circgeo.__all__) == 59
    for module, names in EXPORTS.items():
        assert importlib.import_module(f"circgeo.{module}").__all__ == names
    namespace = {}
    exec("from circgeo import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(circgeo.__all__)


def test_submodules_and_version_resolve():
    for module in ["core", "expr", "tensor", "verify"]:
        assert getattr(circgeo, module) is sys.modules[f"circgeo.{module}"]
    assert circgeo.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'circgeo' has no attribute 'no_such_name'"):
        circgeo.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'circgeo'"):
        exec("from circgeo import no_such_name", {})


def test_the_first_lookup_loads_the_library_and_a_bare_import_loads_nothing():
    code = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("circgeo"))
import circgeo
bare = loaded()
circgeo.__version__
wrapped = hasattr(circgeo, "__wrapped__")
dunders = loaded()
circgeo.load_spec
print(json.dumps([bare, wrapped, dunders, loaded()]))
"""
    bare, wrapped, dunders, first_use = json.loads(run_python(code))
    assert bare == dunders == ["circgeo"] and not wrapped
    library = ["circgeo._table", "circgeo.core", "circgeo.expr", "circgeo.tensor", "circgeo.verify"]
    assert first_use == ["circgeo", *library, "numpy"]


def test_dir_loads_the_library():
    code = """
import sys, circgeo
names = dir(circgeo)
print("numpy" in sys.modules, "circgeo.verify" in sys.modules, "run_suite" in names)
"""
    assert run_python(code).split() == ["True", "True", "True"]


def test_the_console_script_is_the_pinned_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, function = scripts["circgeo"].partition(":")
    assert getattr(importlib.import_module(module), function) is circgeo.__main__.main


# Runs the entry function of `python -m circgeo` on `metric`, with `cli.main`
# wrapped as the module is loaded (after the entry has set the environment)
# to print the number of threads of the process when it returns.
_COUNT_THREADS = f"""
import importlib.machinery, os, sys

class WrapMain:
    def find_spec(self, name, path, target=None):
        if name != "circgeo.cli":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        load = spec.loader.exec_module
        def exec_module(module):
            load(module)
            main = module.main
            def counted_main(argv=None):
                code = main(argv)
                print("threads", len(os.listdir("/proc/self/task")))
                return code
            module.main = counted_main
        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, WrapMain())
sys.argv[1:] = ["metric", {CONST!r}, "--point=0,0,0,0"]
from circgeo.__main__ import main
main()
"""

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts the threads in /proc/self/task (Linux)"
)


@needs_proc
def test_the_cli_runs_on_one_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run_python(_COUNT_THREADS).splitlines()[-1] == "threads 1"


@needs_proc
def test_an_explicit_openblas_setting_wins():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts at most one thread per CPU")
    out = run_python(_COUNT_THREADS, {"OPENBLAS_NUM_THREADS": "2"})
    assert out.splitlines()[-1] == "threads 2"


def test_the_library_leaves_the_environment_alone(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = f"""
import os, circgeo
circgeo.load_spec({CONST!r})
print("OPENBLAS_NUM_THREADS" in os.environ)
"""
    assert run_python(code).strip() == "False"


RECORD_MODULES = ["expr", "core", "tensor", "verify", "_table", "cli"]


def test_no_circgeo_class_is_a_dataclass():
    # A dataclass execs its generated methods when its class is created, in
    # every process; circgeo's record types are plain classes.
    found = [
        f"{module}.{name}"
        for module in RECORD_MODULES
        for name, value in vars(importlib.import_module(f"circgeo.{module}")).items()
        if isinstance(value, type)
        and value.__module__ == f"circgeo.{module}"
        and dataclasses.is_dataclass(value)
    ]
    assert found == []


def test_records_cannot_be_changed():
    from circgeo.core import Box, MetricAtPoint
    from circgeo.expr import BinOp, Var, parse

    m = MetricAtPoint.from_constants(3, 1, 2)
    records = [
        (parse("x1 + x2").ast, "left", Var(3)),
        (BinOp("*", Var(1), Var(2)), "op", "+"),
        (m.jet_a, "value", 0.0),
        (Box([0, 0, 0, 0], [1, 1, 1, 1]), "lo", np.zeros(4)),
        (m, "c", 4.0),
        (m, "point", np.zeros(4)),
    ]
    for record, name, value in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.new_attribute = value
        assert getattr(record, name) is before


def test_records_keep_their_constructors_equality_and_repr():
    from circgeo.core import BasisAngles, MetricAtPoint
    from circgeo.expr import BinOp, Const, Pow, ScalarField, Var, parse

    assert BinOp(op="+", left=Var(1), right=Const(2.0)) == parse("x1 + 2").ast
    assert hash(Pow(Var(1), 2)) == hash(Pow(base=Var(1), exponent=2))
    assert Var(1) != Var(2) and Var(1) != Const(1)
    assert repr(BinOp("+", Var(1), Const(2.0))) == (
        "BinOp(op='+', left=Var(index=1), right=Const(value=2.0))"
    )
    assert parse("x1") == ScalarField(Var(1), "x1")
    assert BasisAngles(0.5, cos_theta=0.25) == BasisAngles(cos_phi=0.5, cos_theta=0.25)
    with pytest.raises(ValueError, match="too large"):
        Pow(Var(1), 10**400)
    m = MetricAtPoint.from_constants(3, 1, 2)
    assert m.point is None
    x = np.zeros(4)
    jets = {"jet_a": m.jet_a, "jet_b": m.jet_b, "jet_c": m.jet_c}
    assert MetricAtPoint(m.a, m.b, m.c, **jets, point=x).point is x
