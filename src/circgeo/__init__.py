"""circgeo: circulant 4D Riemannian metrics, their curvature, and checks.

`import circgeo` loads nothing else.  The first lookup of a name below
(PEP 562 `__getattr__`) imports `core`, `expr`, `tensor` and `verify`
together and binds every name, so numpy is imported on first use, not by
the import, and later lookups are plain attribute reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_NAMES = {
    "core": (
        "AdmissibilityError",
        "BasisAngles",
        "Box",
        "InverseMetricAtPoint",
        "ManifoldSpec",
        "MetricAtPoint",
        "OutsideDomainError",
        "Q",
        "QBasisError",
        "SingularMetricError",
        "ZeroVectorError",
        "admissibility",
        "basis_angles",
        "circulant_matrix",
        "cos_angle",
        "find_orthogonal_q_basis",
        "induces_q_basis",
        "inner",
        "inverse_metric",
        "load_spec",
        "metric_at",
        "q_apply",
    ),
    "expr": (
        "DomainError",
        "FieldJet",
        "ParseError",
        "ScalarField",
        "as_point",
        "eval_jet",
        "eval_jets",
        "parse",
        "unparse",
    ),
    "tensor": (
        "ChristoffelAtPoint",
        "DegeneratePlaneError",
        "NablaQ",
        "christoffel_at",
        "christoffel_from_metric",
        "metric_compatibility_residual",
        "nabla_q",
        "riemann_at",
        "riemann_from_christoffel",
        "sectional_curvature",
    ),
    "verify": ("run_suite",),
}

__all__ = [*_NAMES, *(name for names in _NAMES.values() for name in names)]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _NAMES.items():
        module = _import_module(f".{module_name}", __name__)
        globals().update({n: getattr(module, n) for n in names})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
