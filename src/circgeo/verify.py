"""Quantified residual checks for circulant-metric manifolds.

Every theorem about the class is expressed here as a named check that
produces scaled residuals, a tolerance and a pass/fail/skipped verdict.
Residuals are reported as absolute values together with the scale used, and
the verdict compares residual/scale against the tolerance, with the scale
floored at 1 so that near-zero quantities do not inflate into false alarms.

Check names (also the names accepted by tolerance overrides):

  isometry              g(qx, qy) = g(x, y) on random vector pairs
  parallel-condition    the gradient conditions coupling grad A, grad B, grad C
  parallel-equivalence  gradient conditions hold iff nabla q = 0, per point
  curvature-identity    R(x, y, qz, qu) = R(x, y, z, u) on the coordinate basis
  integrability         q commutes with the mixed curvature contraction
  sectional-relations   equal ring curvatures, vanishing diagonal curvatures
  mu-law                R(u, qu, u, qu) against its closed-form predictions

Checks that presuppose the curvature identity are skipped, not failed, at
points where the identity itself does not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BasisAngles,
    ManifoldSpec,
    MetricAtPoint,
    Q,
    _clamp_cosine,
    _q_basis_criterion,
    find_orthogonal_q_basis,
    inverse_metric,
    metric_at,
)
from .expr import _as_points
from .tensor import (
    DegeneratePlaneError,
    RiemannAtPoint,
    _christoffel_block,
    _nabla_q,
    christoffel_from_metric,
    riemann_from_christoffel,
)

__all__ = [
    "CheckReport",
    "DEFAULT_TOLERANCES",
    "KNOWN_CHECKS",
    "QBasisCoefficients",
    "check_curvature_q_identity",
    "check_integrability",
    "check_isometry",
    "check_mu_law",
    "check_parallel_condition",
    "check_parallel_equivalence",
    "check_sectional_relations",
    "coeff_angles",
    "convention_text",
    "mu_law_cases",
    "report_to_json",
    "run_suite",
    "sample_q_basis_vectors",
]

KNOWN_CHECKS = (
    "isometry",
    "parallel-condition",
    "parallel-equivalence",
    "curvature-identity",
    "integrability",
    "sectional-relations",
    "mu-law",
)

DEFAULT_TOLERANCES = {
    "isometry": 1e-14,
    "parallel-condition": 1e-10,
    "parallel-equivalence": 0.0,
    "curvature-identity": 1e-9,
    "integrability": 1e-9,
    "sectional-relations": 1e-9,
    "mu-law": 1e-9,
    "nabla-q": 1e-9,
}


def convention_text() -> str:
    return (
        "R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z; "
        "R(x,y,z,u) = g(R(x,y)z, u); lowering into the last slot: "
        "R_ijkl = g_al R^a_ijk; scaled residual = abs residual / max(1, scale)"
    )


@dataclass
class CheckReport:
    """One named check: absolute residuals, scales, tolerance and verdict.

    The payload holds plain JSON types only (dict, list, str, float, int,
    bool, None), so `to_dict` passes it through unconverted.
    """

    name: str
    point: list | None
    residuals: dict[str, float]
    tolerance: float
    status: str
    payload: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "point": self.point,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerance": float(self.tolerance),
            "status": self.status,
            "payload": self.payload,
        }


def _verdict(entries: dict[str, tuple[float, float]], tolerance: float) -> str:
    for absval, scale in entries.values():
        if absval / max(1.0, scale) > tolerance:
            return "fail"
    return "pass"


def _make_report(
    name: str,
    point,
    entries: dict[str, tuple[float, float]],
    tolerance: float,
    payload: dict | None = None,
) -> CheckReport:
    payload = dict(payload or {})
    payload["scales"] = {k: float(s) for k, (_, s) in entries.items()}
    return CheckReport(
        name=name,
        point=None if point is None else [float(v) for v in np.asarray(point).ravel()],
        residuals={k: float(a) for k, (a, _) in entries.items()},
        tolerance=tolerance,
        status=_verdict(entries, tolerance),
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _draw_rows(rng: np.random.Generator, n: int, accept) -> np.ndarray:
    """n rows uniform in [-1, 1]^4 that pass `accept`, in draw order.

    Each block asks for only as many rows as are still missing, so it never
    draws past the row a one-row-at-a-time rejection loop would stop at: the
    rows and the generator's final state equal that loop's.
    """
    blocks = [np.empty((0, 4))]
    count = 0
    while count < n:
        block = rng.uniform(-1.0, 1.0, size=(n - count, 4))
        block = block[accept(block)]
        blocks.append(block)
        count += len(block)
    return np.concatenate(blocks)


def sample_q_basis_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectors with components uniform in [-1, 1] that induce a q-basis."""
    return _draw_rows(rng, n, lambda xs: _q_basis_criterion(xs)[0])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # A stacked row-by-row dot product goes through the same kernel as
    # np.linalg.norm of one row, so block draws normalise bit for bit like
    # single draws.
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _unit_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit rows, drawn uniform in [-1, 1]^4 with norm above 1e-3, normalised."""
    rows = _draw_rows(rng, n, lambda v: _row_norms(v) > 1e-3)
    return rows / _row_norms(rows)[:, None]


@dataclass(frozen=True)
class QBasisCoefficients:
    """Components of a vector in an orthonormal q-basis; must be unit norm."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta])

    @classmethod
    def random_unit(cls, rng: np.random.Generator) -> "QBasisCoefficients":
        return cls(*_unit_coefficients(rng, 1)[0].tolist())


def _coeff_cosines(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(phi) and cos(theta) for each row (alpha, beta, gamma, delta)."""
    norm2 = np.einsum("ni,ni->n", coeffs, coeffs)
    off = np.abs(norm2 - 1.0) > 1e-12
    if off.any():
        raise ValueError(f"coefficients must be unit norm, got |u|^2 = {norm2[off][0]}")
    a, b, g, d = coeffs.T
    cos_phi = a * b + a * d + b * g + d * g
    cos_theta = 2.0 * a * g + 2.0 * b * d
    return _clamp_cosine(cos_phi), _clamp_cosine(cos_theta)


def coeff_angles(c: QBasisCoefficients) -> BasisAngles:
    """Basis angles of u = alpha x + beta qx + gamma q^2 x + delta q^3 x.

    Valid when {x, qx, q^2 x, q^3 x} is orthonormal:
    cos(phi) = alpha beta + alpha delta + beta gamma + delta gamma and
    cos(theta) = 2 alpha gamma + 2 beta delta.
    """
    cos_phi, cos_theta = _coeff_cosines(c.as_array()[None])
    return BasisAngles(float(cos_phi[0]), float(cos_theta[0]))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_isometry(
    m: MetricAtPoint, samples: int = 1000, seed=0, tolerance: float | None = None
) -> CheckReport:
    """g(q^k x, q^k y) = g(x, y) for k = 1, 2, 3 over random vector pairs."""
    rng = _rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(samples, 4))
    ys = rng.uniform(-1.0, 1.0, size=(samples, 4))
    g = m.matrix
    base = np.einsum("ni,ij,nj->n", xs, g, ys)
    scale = max(1.0, float(np.max(np.abs(base))))
    entries = {}
    for k in (1, 2, 3):
        shifted = np.einsum(
            "ni,ij,nj->n", np.roll(xs, -k, axis=1), g, np.roll(ys, -k, axis=1)
        )
        entries[f"q{k}"] = (float(np.max(np.abs(shifted - base))), scale)
    return _make_report(
        "isometry",
        m.point,
        entries,
        DEFAULT_TOLERANCES["isometry"] if tolerance is None else tolerance,
        {"samples": samples},
    )


_PARALLEL_LABELS = (
    "A1-C3",
    "A2-C4",
    "A3-C1",
    "A4-C2",
    "B1-B3",
    "B2-B4",
    "2B1-C2-C4",
    "2B2-C1-C3",
)


def _parallel_residuals(
    ga: np.ndarray, gb: np.ndarray, gc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|residual| of each gradient condition, (n, 8) in `_PARALLEL_LABELS`
    order, and the scale max(1, max |grad A|, |grad B|, |grad C|), (n,),
    from gradients of shape (n, 4)."""
    values = np.stack(
        (
            ga[:, 0] - gc[:, 2],
            ga[:, 1] - gc[:, 3],
            ga[:, 2] - gc[:, 0],
            ga[:, 3] - gc[:, 1],
            gb[:, 0] - gb[:, 2],
            gb[:, 1] - gb[:, 3],
            2.0 * gb[:, 0] - gc[:, 1] - gc[:, 3],
            2.0 * gb[:, 1] - gc[:, 0] - gc[:, 2],
        ),
        axis=1,
    )
    scale = np.maximum(1.0, np.abs(np.concatenate((ga, gb, gc), axis=1)).max(axis=1))
    return np.abs(values), scale


def _point_grads(m: MetricAtPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of A, B, C at one point, each with a leading axis of 1."""
    return m.jet_a.grad[None], m.jet_b.grad[None], m.jet_c.grad[None]


def _parallel_condition_report(
    m: MetricAtPoint, values: np.ndarray, scale: float, tolerance: float
) -> CheckReport:
    entries = {k: (v, scale) for k, v in zip(_PARALLEL_LABELS, values.tolist())}
    return _make_report(
        "parallel-condition",
        m.point,
        entries,
        tolerance,
        {
            "grad_A": m.jet_a.grad.tolist(),
            "grad_B": m.jet_b.grad.tolist(),
            "grad_C": m.jet_c.grad.tolist(),
        },
    )


def check_parallel_condition(spec: ManifoldSpec, p, tolerance: float | None = None) -> CheckReport:
    """Gradient conditions tying grad A and grad B to shifted grad C.

    Componentwise: A_i = C_(i-2), B_1 = B_3, B_2 = B_4 and
    2 B_i = C_(i-1) + C_(i+1), indices cyclic.
    """
    tolerance = DEFAULT_TOLERANCES["parallel-condition"] if tolerance is None else tolerance
    m = metric_at(spec, p)
    values, scale = _parallel_residuals(*_point_grads(m))
    return _parallel_condition_report(m, values[0], float(scale[0]), tolerance)


def _equivalence_rows(
    points: np.ndarray,
    values: np.ndarray,
    scale: np.ndarray,
    gamma: np.ndarray,
    f4_tol: float,
    nq_tol: float,
) -> list[dict]:
    """Both parallelism predicates at each of n points, evaluated independently.

    `values` and `scale` come from `_parallel_residuals`; `gamma` is
    Gamma (n, 4, 4, 4).  One plain-typed row dict per point.
    """
    gradient = values.max(axis=1)
    f4_scaled = gradient / np.maximum(1.0, scale)
    nq = np.abs(_nabla_q(gamma)).max(axis=(1, 2, 3))
    nq_scaled = nq / np.maximum(1.0, np.abs(gamma).max(axis=(1, 2, 3)))
    columns = {
        "point": points.tolist(),
        "gradient_residual": gradient.tolist(),
        "gradient_residual_scaled": f4_scaled.tolist(),
        "nabla_q_residual": nq.tolist(),
        "nabla_q_residual_scaled": nq_scaled.tolist(),
        "gradient_holds": (f4_scaled <= f4_tol).tolist(),
        "parallel_holds": (nq_scaled <= nq_tol).tolist(),
    }
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _equivalence_report(rows: list[dict], f4_tol: float, nq_tol: float) -> CheckReport:
    disagreements = sum(row["gradient_holds"] != row["parallel_holds"] for row in rows)
    entries = {"disagreements": (float(disagreements), 1.0)}
    return _make_report(
        "parallel-equivalence",
        None,
        entries,
        DEFAULT_TOLERANCES["parallel-equivalence"],
        {"gradient_tolerance": f4_tol, "nabla_q_tolerance": nq_tol, "points": rows},
    )


# Points per array pass of `check_parallel_equivalence`.  On curved-par at
# grid 8 (4096 points; 2-core 2.0 GHz Xeon VM, numpy 2.4), blocks of 256
# take 0.046 s with 2.7 MB of transient arrays at peak; the whole grid at
# once takes 0.035 s but 7.6 MB, and blocks of 64 take 0.063 s.
_BLOCK = 256


def check_parallel_equivalence(
    spec: ManifoldSpec,
    points,
    f4_tol: float | None = None,
    nq_tol: float | None = None,
) -> CheckReport:
    """Per point: the gradient conditions hold iff nabla q vanishes.

    Both predicates are evaluated independently at every point; the check
    fails only if they ever disagree.  Points where both are false are
    consistent (the equivalence is two-sided).  The points are evaluated
    in blocks of `_BLOCK` at a time; an error is the one a point-by-point
    loop would raise first.
    """
    f4_tol = DEFAULT_TOLERANCES["parallel-condition"] if f4_tol is None else f4_tol
    nq_tol = DEFAULT_TOLERANCES["nabla-q"] if nq_tol is None else nq_tol
    xs = _as_points(points)
    rows = []
    for start in range(0, len(xs), _BLOCK):
        block = xs[start : start + _BLOCK]
        jets, gamma = _christoffel_block(spec, block)
        values, scale = _parallel_residuals(*(jet.grad for jet in jets))
        rows += _equivalence_rows(block, values, scale, gamma, f4_tol, nq_tol)
    return _equivalence_report(rows, f4_tol, nq_tol)


def check_curvature_q_identity(r: RiemannAtPoint, tolerance: float | None = None) -> CheckReport:
    """R(e_i, e_j, q e_k, q e_l) = R(e_i, e_j, e_k, e_l), all 256 combinations.

    Multilinearity makes the coordinate basis sufficient.
    """
    shifted = np.einsum("ijab,ak,bl->ijkl", r.r_low, Q, Q)
    resid = float(np.max(np.abs(shifted - r.r_low)))
    entries = {"max": (resid, r.norm_inf)}
    return _make_report(
        "curvature-identity",
        r.metric.point,
        entries,
        DEFAULT_TOLERANCES["curvature-identity"] if tolerance is None else tolerance,
        {"riemann_norm_inf": r.norm_inf},
    )


def check_integrability(r: RiemannAtPoint, tolerance: float | None = None) -> CheckReport:
    """Shift/curvature commutation: q on the output slot equals q on the argument.

    Primary residual uses this package's (1,3) tensor, R^l_ijk with plane
    slots first.  Because the raised-slot placement is ambiguous in classical
    component notation, the alternate raising (first slot of the covariant
    tensor, plane slots last) is evaluated too and reported in the payload
    rather than silently chosen.
    """
    rm = r.r_mixed
    lhs = np.einsum("aijk,sa->sijk", rm, Q)
    rhs = np.einsum("sija,ak->sijk", rm, Q)
    scale = max(1.0, float(np.max(np.abs(rm))))
    resid = float(np.max(np.abs(lhs - rhs)))

    # Alternate raising: classical component order puts the plane slots last,
    # so lift the first slot of R_(ajkl) = r_low[k, l, a, j].
    ginv = inverse_metric(r.metric).matrix
    alt = np.einsum("ab,klbj->ajkl", ginv, r.r_low)
    lhs_alt = np.einsum("ajkl,sa->sjkl", alt, Q)
    rhs_alt = np.einsum("sakl,aj->sjkl", alt, Q)
    resid_alt = float(np.max(np.abs(lhs_alt - rhs_alt)))

    entries = {"primary": (resid, scale)}
    return _make_report(
        "integrability",
        r.metric.point,
        entries,
        DEFAULT_TOLERANCES["integrability"] if tolerance is None else tolerance,
        {"alternate_raising_residual": resid_alt},
    )


# Row k of x[..., _SHIFTS] is q^k x: (q^k x)^i = x^(i+k mod 4).
_SHIFTS = (np.arange(4)[:, None] + np.arange(4)) % 4

# The six planes of a q-basis {x, qx, q^2 x, q^3 x} as pairs of shift powers:
# the four ring planes, then the two diagonal planes.
_PLANES = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def _r_xyxy(r: RiemannAtPoint, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R(x, y, x, y) over the leading axes of x and y, as one contraction."""
    w = (x[..., :, None] * y[..., None, :]).reshape(*x.shape[:-1], 16)
    return np.einsum("...a,ab,...b->...", w, r.r_low.reshape(16, 16), w)


def _sectional_entries(
    m: MetricAtPoint, r: RiemannAtPoint, xs: np.ndarray
) -> tuple[dict[str, tuple[float, float]], dict]:
    """Sectional curvatures of the six q-basis planes of each row of xs."""
    shifts = xs[:, _SHIFTS]  # (n, 4, 4): shifts[v, k] = q^k x_v
    gram = np.einsum("nki,ij,nlj->nkl", shifts, m.matrix, shifts)
    a, b = _PLANES.T
    det = gram[:, a, a] * gram[:, b, b] - gram[:, a, b] ** 2
    euclid = np.einsum("nki,nki->nk", shifts, shifts)
    degenerate = det <= 1e-12 * euclid[:, a] * euclid[:, b]
    if degenerate.any():
        first = det.ravel()[np.argmax(degenerate.ravel())]
        raise DegeneratePlaneError(
            f"vectors span no 2-plane (Gram determinant {first:.3e})"
        )
    mu = _r_xyxy(r, shifts[:, a], shifts[:, b]) / det
    ring, diag = mu[:, :4], mu[:, 4:]
    ring_spread = float(np.max(ring.max(axis=1) - ring.min(axis=1), initial=0.0))
    entries = {
        "ring_spread": (ring_spread, float(np.max(np.abs(ring), initial=1.0))),
        "mu_x_q2x": (float(np.max(np.abs(diag[:, 0]), initial=0.0)), r.norm_inf),
        "mu_qx_q3x": (float(np.max(np.abs(diag[:, 1]), initial=0.0)), r.norm_inf),
    }
    sample = {"ring": mu[0, :4].tolist(), "diagonal": mu[0, 4:].tolist()} if len(xs) else None
    return entries, {"vectors": len(xs), "first_vector_values": sample}


def check_sectional_relations(
    spec: ManifoldSpec, p, x, tolerance: float | None = None
) -> CheckReport:
    """Ring planes share one curvature; diagonal planes are flat.

    Presupposes the curvature identity at p (callers gate on it) and that x
    induces a q-basis.
    """
    m = metric_at(spec, p)
    r = riemann_from_christoffel(m, christoffel_from_metric(m))
    entries, payload = _sectional_entries(m, r, np.asarray(x, float)[None])
    return _make_report(
        "sectional-relations",
        m.point,
        entries,
        DEFAULT_TOLERANCES["sectional-relations"] if tolerance is None else tolerance,
        payload,
    )


def mu_law_cases(
    r: RiemannAtPoint, basis: np.ndarray, coeffs: np.ndarray
) -> tuple[list[dict], float]:
    """The mu-law cases u = alpha x + beta qx + gamma q^2 x + delta q^3 x.

    `basis` is x, spanning an orthonormal q-basis; each row of `coeffs` is a
    unit (alpha, beta, gamma, delta).  All rows are contracted at once, and
    R(x, qx, x, qx) once.  Returns one plain-typed case dict per row and the
    largest |direct - expansion| over the cases whose u induces a q-basis
    (0 if none does).  The ratio to the angle law is None where
    R(x, qx, x, qx) = 0.
    """
    coeffs = np.asarray(coeffs, float)
    shifts = np.asarray(basis, float)[_SHIFTS]
    # rho is repeated in every case; this scalar contraction keeps it, and the
    # expansion built on it, bit-identical to the one-case-at-a-time formula.
    x, qx = shifts[0], shifts[1]
    rho = float(np.einsum("ijkl,i,j,k,l->", r.r_low, x, qx, x, qx))
    u = coeffs @ shifts
    direct = _r_xyxy(r, u, u[:, _SHIFTS[1]])
    cos_phi, cos_theta = _coeff_cosines(coeffs)
    expansion = (1.0 - cos_theta) ** 2 * rho
    angle_law = rho  # curvature of the u-plane rescaled by its own Gram factor
    q_basis = _q_basis_criterion(u)[0]
    n = len(coeffs)
    columns = {
        "coefficients": coeffs.tolist(),
        "cos_phi": cos_phi.tolist(),
        "cos_theta": cos_theta.tolist(),
        "direct": direct.tolist(),
        "expansion_prediction": expansion.tolist(),
        "angle_law_prediction": [angle_law] * n,
        "ratio_direct_to_angle_law": (direct / angle_law).tolist() if angle_law else [None] * n,
        "q_basis": q_basis.tolist(),
    }
    cases = [dict(zip(columns, row)) for row in zip(*columns.values())]
    worst = float(np.max(np.abs(direct - expansion)[q_basis], initial=0.0))
    return cases, worst


def check_mu_law(
    spec: ManifoldSpec,
    p,
    c: QBasisCoefficients,
    basis: np.ndarray | None = None,
    seed=0,
    tolerance: float | None = None,
) -> CheckReport:
    """Compare R(u, qu, u, qu) against its two closed-form predictions.

    (i) the direct tensor contraction is ground truth; (ii) the coefficient
    expansion predicts (1 - cos theta)^2 R(x, qx, x, qx); (iii) the angle law
    mu(phi) = mu(pi/2) / (1 - cos^2 phi) predicts plain R(x, qx, x, qx) for
    the same contraction.  Pass/fail compares (i) with (ii) only; (iii) and
    the measured ratio are recorded as data because the two printed forms
    disagree whenever cos theta is nonzero, and the contraction adjudicates.
    """
    tolerance = DEFAULT_TOLERANCES["mu-law"] if tolerance is None else tolerance
    m = metric_at(spec, p)
    r = riemann_from_christoffel(m, christoffel_from_metric(m))
    if basis is None:
        basis = find_orthogonal_q_basis(m, seed=seed)
    (case,), resid = mu_law_cases(r, basis, c.as_array()[None])
    if not case["q_basis"]:
        report = _make_report("mu-law", m.point, {}, tolerance, {"case": case})
        report.status = "skipped"
        report.payload["reason"] = "u does not induce a q-basis"
        return report
    entries = {"expansion": (resid, r.norm_inf)}
    return _make_report(
        "mu-law", m.point, entries, tolerance, {"case": case, "basis": basis.tolist()}
    )


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def _skipped(name: str, point, tolerance: float, reason: str) -> CheckReport:
    return CheckReport(
        name=name,
        point=None if point is None else [float(v) for v in np.asarray(point).ravel()],
        residuals={},
        tolerance=tolerance,
        status="skipped",
        payload={"reason": reason},
    )


def run_suite(
    spec: ManifoldSpec,
    points,
    checks=None,
    seed: int = 0,
    tolerances: dict[str, float] | None = None,
    isometry_samples: int = 1000,
    sectional_samples: int = 50,
    mu_samples: int = 100,
) -> dict:
    """Run the selected checks over the given points and assemble a report.

    The report is a plain dict matching the JSON schema: spec name, the
    convention header, and one entry per (check, point) in canonical order.
    Identical spec, points and seed always produce an identical report.
    """
    selected = list(KNOWN_CHECKS) if checks is None else list(checks)
    for name in selected:
        if name not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    tols = dict(DEFAULT_TOLERANCES)
    for name, value in (tolerances or {}).items():
        if name not in tols:
            raise ValueError(f"unknown tolerance name {name!r}")
        tols[name] = float(value)

    reports: list[CheckReport] = []
    rows: list[dict] = []
    for idx, p in enumerate(points):
        m = metric_at(spec, p)
        ch = christoffel_from_metric(m)
        r = riemann_from_christoffel(m, ch)
        values, scale = _parallel_residuals(*_point_grads(m))
        (row,) = _equivalence_rows(
            m.point[None],
            values,
            scale,
            ch.gamma[None],
            tols["parallel-condition"],
            tols["nabla-q"],
        )
        rows.append(row)
        parallel_holds = row["gradient_holds"] and row["parallel_holds"]

        if "isometry" in selected:
            reports.append(
                check_isometry(
                    m, samples=isometry_samples, seed=[seed, idx, 0], tolerance=tols["isometry"]
                )
            )

        if "parallel-condition" in selected:
            reports.append(
                _parallel_condition_report(
                    m, values[0], float(scale[0]), tols["parallel-condition"]
                )
            )

        identity_rep = check_curvature_q_identity(r, tolerance=tols["curvature-identity"])
        identity_holds = identity_rep.passed
        if "curvature-identity" in selected:
            reports.append(identity_rep)

        if "integrability" in selected:
            rep = check_integrability(r, tolerance=tols["integrability"])
            if not parallel_holds:
                rep.payload["reason"] = (
                    "nabla q does not vanish here; residual recorded without a pass expectation"
                )
                rep.status = "skipped"
            reports.append(rep)

        if "sectional-relations" in selected:
            if identity_holds:
                rng = _rng([seed, idx, 1])
                xs = sample_q_basis_vectors(rng, sectional_samples)
                entries, payload = _sectional_entries(m, r, xs)
                reports.append(
                    _make_report(
                        "sectional-relations",
                        m.point,
                        entries,
                        tols["sectional-relations"],
                        payload,
                    )
                )
            else:
                reports.append(
                    _skipped(
                        "sectional-relations",
                        m.point,
                        tols["sectional-relations"],
                        "curvature identity does not hold at this point",
                    )
                )

        if "mu-law" in selected:
            if identity_holds:
                basis = find_orthogonal_q_basis(m, seed=[seed, idx, 2])
                coeffs = _unit_coefficients(_rng([seed, idx, 3]), mu_samples)
                cases, worst = mu_law_cases(r, basis, coeffs)
                reports.append(
                    _make_report(
                        "mu-law",
                        m.point,
                        {"expansion_max": (worst, r.norm_inf)},
                        tols["mu-law"],
                        {"basis": basis.tolist(), "cases": cases},
                    )
                )
            else:
                reports.append(
                    _skipped(
                        "mu-law",
                        m.point,
                        tols["mu-law"],
                        "curvature identity does not hold at this point",
                    )
                )

    if "parallel-equivalence" in selected and rows:
        reports.append(
            _equivalence_report(rows, tols["parallel-condition"], tols["nabla-q"])
        )

    return {
        "spec": spec.name,
        "convention": convention_text(),
        "checks": [rep.to_dict() for rep in reports],
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
