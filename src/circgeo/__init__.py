"""circgeo: circulant 4D Riemannian metrics, their curvature, and checks."""

from .core import (
    AdmissibilityError,
    BasisAngles,
    Box,
    InverseMetricAtPoint,
    ManifoldSpec,
    MetricAtPoint,
    OutsideDomainError,
    Q,
    QBasisError,
    SingularMetricError,
    ZeroVectorError,
    admissibility,
    basis_angles,
    circulant_matrix,
    cos_angle,
    find_orthogonal_q_basis,
    induces_q_basis,
    inner,
    inverse_metric,
    load_spec,
    metric_at,
    q_apply,
)
from .expr import (
    DomainError,
    FieldJet,
    ParseError,
    ScalarField,
    as_point,
    eval_jet,
    eval_jets,
    parse,
    unparse,
)
from .tensor import (
    ChristoffelAtPoint,
    DegeneratePlaneError,
    NablaQ,
    christoffel_at,
    christoffel_from_metric,
    metric_compatibility_residual,
    nabla_q,
    riemann_at,
    riemann_from_christoffel,
    sectional_curvature,
)
from .verify import run_suite

__version__ = "0.1.0"
