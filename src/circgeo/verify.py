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

`run_suite` is the one way a check runs; one check at one point is
`run_suite(spec, [p], checks=[name])`.  It evaluates its points in blocks
of `_BLOCK`: the geometry of a block (jets, metric, inverse, Christoffel
symbols, and the curvature where a selected check needs it) is computed
once with a leading point axis, and each check is one array pass over the
block, the closed-form orthonormal q-bases of `mu-law` included; the three
sampled checks draw and contract their samples over runs of a few points
(`_SAMPLE_BYTES`), so their transient arrays do not grow with the block.
Each point keeps its own random streams, seeded [seed, index, k], so the
entries equal those of running the points one at a time, and so does the
first error raised.  The two large per-point payloads, the parallel-scan
rows and each point's mu-law cases, are held as column `Table`s and
written straight from their columns as byte matrices; the floats of all
the tables of a report are written in one pass of the exact array kernel
`_floattext.float_text`, each distinct value once, byte for byte as
`repr` writes them.  Reports are compact JSON, written to a file piece by
piece (`write_report`) without ever holding the whole text.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ._table import Table, _tables_json
from .core import (
    BasisAngles,
    ManifoldSpec,
    _SHIFTS,
    _basis_draws,
    _cosine_beyond,
    _cosine_error,
    _naming_points,
    _orthogonal_q_bases,
    _q_basis_criterion,
)
from .expr import _as_points, _Failure, _raise_first
from .tensor import DegeneratePlaneError, RiemannAtPoint, _christoffel_block, _nabla_q

__all__ = [
    "CheckReport",
    "DEFAULT_TOLERANCES",
    "KNOWN_CHECKS",
    "QBasisCoefficients",
    "Table",
    "coeff_angles",
    "convention_text",
    "mu_law_cases",
    "report_to_json",
    "run_suite",
    "sample_q_basis_vectors",
    "write_report",
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

    The payload holds plain JSON types (dict, list, str, float, int, bool,
    None) and, for the parallel-scan rows and the mu-law cases, `Table`s,
    which read as lists of row dicts; `to_dict` passes it through
    unconverted and `report_to_json` writes both.
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


def _case_failure(bad: np.ndarray, values: np.ndarray, make) -> _Failure:
    """Fails each point (a row of `bad`, (n, S)) where one of its cases is
    bad; the error names the first such case's value."""
    return bad.any(axis=1), lambda i: make(values[i, np.argmax(bad[i])])


def _coeff_cosines(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[_Failure]]:
    """cos(phi) and cos(theta) for each row (alpha, beta, gamma, delta) of
    coeffs (n, S, 4), clipped to [-1, 1], and the failures per point in the
    order they are tested: a row off unit norm, then a cosine beyond
    [-1, 1] by more than rounding."""
    norm2 = np.einsum("...i,...i->...", coeffs, coeffs)
    a, b, g, d = np.moveaxis(coeffs, -1, 0)
    cos_phi = a * b + a * d + b * g + d * g
    cos_theta = 2.0 * a * g + 2.0 * b * d
    failures = [
        _case_failure(
            np.abs(norm2 - 1.0) > 1e-12,
            norm2,
            lambda v: ValueError(f"coefficients must be unit norm, got |u|^2 = {v}"),
        ),
        _case_failure(_cosine_beyond(cos_phi), cos_phi, _cosine_error),
        _case_failure(_cosine_beyond(cos_theta), cos_theta, _cosine_error),
    ]
    return np.clip(cos_phi, -1.0, 1.0), np.clip(cos_theta, -1.0, 1.0), failures


def coeff_angles(c: QBasisCoefficients) -> BasisAngles:
    """Basis angles of u = alpha x + beta qx + gamma q^2 x + delta q^3 x.

    Valid when {x, qx, q^2 x, q^3 x} is orthonormal:
    cos(phi) = alpha beta + alpha delta + beta gamma + delta gamma and
    cos(theta) = 2 alpha gamma + 2 beta delta.
    """
    cos_phi, cos_theta, failures = _coeff_cosines(c.as_array()[None, None])
    _raise_first(failures)
    return BasisAngles(float(cos_phi[0, 0]), float(cos_theta[0, 0]))


# ---------------------------------------------------------------------------
# Individual checks
#
# Each check is one helper over n points, every array with a leading point
# axis, returning one report (or entries and payload) per point; `run_suite`
# calls it once per block of points.
# ---------------------------------------------------------------------------


def _point_max(a: np.ndarray) -> np.ndarray:
    """max |a| over every axis but the first, (n,)."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)))


# The shift on tensor components: q e_k = e_(k-1), so feeding q e_k into a
# lower slot reads component k - 1 (gather with _DOWN), and applying q to
# an upper index gives (q v)^s = v^(s+1) (gather with _UP).
_UP, _DOWN = _SHIFTS[1], _SHIFTS[3]


def _isometry_pairs(rng: np.random.Generator, samples: int) -> np.ndarray:
    """The (x, y) sample pairs of one point, (2, samples, 4): all x, then all y."""
    return rng.uniform(-1.0, 1.0, size=(2, samples, 4))


def _isometry_reports(
    points: list, g: np.ndarray, pairs: np.ndarray, tolerance: float
) -> list[CheckReport]:
    """g(q^k x, q^k y) = g(x, y) for k = 1, 2, 3 at n points: g (n, 4, 4) and
    the sample pairs (n, 2, S, 4) of each point."""
    xs, ys = pairs[:, 0], pairs[:, 1]

    def form(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # g(x, y) of every pair, (n, S)
        return np.einsum("nsi,nsi->ns", x @ g, y)

    base = form(xs, ys)
    scale = np.maximum(1.0, np.abs(base).max(axis=1))
    resid = np.stack(
        [np.abs(form(xs[..., shift], ys[..., shift]) - base).max(axis=1) for shift in _SHIFTS[1:]],
        axis=1,
    )
    payload = {"samples": pairs.shape[2]}
    return [
        _make_report("isometry", p, {"q1": (r1, s), "q2": (r2, s), "q3": (r3, s)}, tolerance, payload)
        for p, (r1, r2, r3), s in zip(points, resid.tolist(), scale.tolist())
    ]


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
    from gradients of shape (n, 4).

    The conditions tie grad A and grad B to shifted grad C, componentwise
    A_i = C_(i-2), B_1 = B_3, B_2 = B_4 and 2 B_i = C_(i-1) + C_(i+1),
    indices cyclic.
    """
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


def _parallel_condition_reports(
    points: list,
    grads: tuple[np.ndarray, np.ndarray, np.ndarray],
    values: np.ndarray,
    scale: np.ndarray,
    tolerance: float,
) -> list[CheckReport]:
    """One report per point from the gradients (n, 4) of A, B, C and their
    `_parallel_residuals`."""
    ga, gb, gc = (grad.tolist() for grad in grads)
    return [
        _make_report(
            "parallel-condition",
            p,
            {k: (v, s) for k, v in zip(_PARALLEL_LABELS, row)},
            tolerance,
            {"grad_A": a, "grad_B": b, "grad_C": c},
        )
        for p, row, s, a, b, c in zip(points, values.tolist(), scale.tolist(), ga, gb, gc)
    ]


def _equivalence_rows(
    points: np.ndarray,
    values: np.ndarray,
    scale: np.ndarray,
    gamma: np.ndarray,
    f4_tol: float,
    nq_tol: float,
) -> dict[str, np.ndarray]:
    """Both parallelism predicates at each of n points, evaluated independently.

    `values` and `scale` come from `_parallel_residuals`; `gamma` is
    Gamma (n, 4, 4, 4).  Returns the columns of the points' scan rows.
    """
    gradient = values.max(axis=1)
    f4_scaled = gradient / np.maximum(1.0, scale)
    nq = _point_max(_nabla_q(gamma))
    nq_scaled = nq / np.maximum(1.0, _point_max(gamma))
    return {
        "point": points,
        "gradient_residual": gradient,
        "gradient_residual_scaled": f4_scaled,
        "nabla_q_residual": nq,
        "nabla_q_residual_scaled": nq_scaled,
        "gradient_holds": f4_scaled <= f4_tol,
        "parallel_holds": nq_scaled <= nq_tol,
    }


def _equivalence_report(rows: Table, f4_tol: float, nq_tol: float, tolerance: float) -> CheckReport:
    """Over all points: the gradient conditions hold iff nabla q vanishes.

    The check fails only if the two predicates of the rows disagree at more
    than `tolerance` points.  Points where both are false are consistent
    (the equivalence is two-sided).
    """
    holds = rows.columns
    disagreements = np.count_nonzero(holds["gradient_holds"] != holds["parallel_holds"])
    entries = {"disagreements": (float(disagreements), 1.0)}
    return _make_report(
        "parallel-equivalence",
        None,
        entries,
        tolerance,
        {"gradient_tolerance": f4_tol, "nabla_q_tolerance": nq_tol, "points": rows},
    )


# Points per geometry pass of `run_suite`.  For the parallel scan on
# curved-par at grid 8 (4096 points; 2-core 2.0 GHz Xeon VM, numpy 2.4),
# blocks of 256 take 18 ms with 1.0 MB traced at peak; the whole grid at
# once takes 15.5 ms but 11 MB, and blocks of 64 take 31 ms.  For the full
# suite at grid 5 (625 points) the peak is 1.3 MB over the 10.5 MB report
# with blocks of 256, and 6 MB over it with one block.
_BLOCK = 256

# Bytes of the widest array a sampled check builds in one pass: isometry,
# sectional-relations and mu-law draw and contract their samples over runs
# of points of a block sized to this budget, so their transient arrays stay
# near it whatever the block.  That is 4 points of 1000 isometry pairs,
# 6 points of 50 sectional vectors (300 planes) and 20 points of 100 mu-law
# cases; larger runs save little Python overhead per point.
_SAMPLE_BYTES = 1 << 18


def _sub_blocks(sel: np.ndarray, floats_per_point: int) -> list[np.ndarray]:
    """The point indices `sel` in runs of equal length, give or take one,
    whose widest array, `floats_per_point` float64s a point, takes about
    `_SAMPLE_BYTES` (at most twice that).

    A run holds one point only where `sel` does: numpy sums the products
    of a lone point's contractions in another order than those of a stack
    of points, so a lone point cut from a stack would change in its last
    bits.  Any two or more points give the bits of the whole stack.  Both
    are what numpy 2.4 does, not what it documents;
    `test_reports_do_not_depend_on_how_the_sampled_checks_cut_a_block`
    fails if another numpy or BLAS sums otherwise.
    """
    size = max(2, _SAMPLE_BYTES // (8 * max(1, floats_per_point)))
    return np.array_split(sel, max(1, len(sel) // size))


def _identity_reports(points: list, r_low: np.ndarray, tolerance: float) -> list[CheckReport]:
    """R(e_i, e_j, q e_k, q e_l) = R(e_i, e_j, e_k, e_l) at n points, from
    R_ijkl (n, 4, 4, 4, 4): all 256 combinations, which multilinearity makes
    sufficient."""
    shifted = r_low[..., _DOWN, :][..., _DOWN]
    resid, norm = _point_max(shifted - r_low).tolist(), _point_max(r_low).tolist()
    return [
        _make_report("curvature-identity", p, {"max": (r, s)}, tolerance, {"riemann_norm_inf": s})
        for p, r, s in zip(points, resid, norm)
    ]


def _integrability_reports(
    points: list, r_mixed: np.ndarray, r_low: np.ndarray, ginv: np.ndarray, tolerance: float
) -> list[CheckReport]:
    """q on the output slot against q on the argument at n points, from
    R^l_ijk and R_ijkl (n, 4, 4, 4, 4) and g^-1 (n, 4, 4).

    The primary residual uses this package's (1,3) tensor, R^l_ijk with the
    plane slots first.  Because the raised-slot placement is ambiguous in
    classical component notation, the alternate raising (first slot of the
    covariant tensor, plane slots last) is evaluated too and reported in
    the payload rather than silently chosen.
    """
    # q R(x, y) z against R(x, y) q z, on the output slot l and the argument k
    # of R^l_ijk.
    lhs, rhs = r_mixed[:, _UP], r_mixed[..., _DOWN]
    scale = np.maximum(1.0, _point_max(r_mixed))
    # Alternate raising: classical component order puts the plane slots last,
    # so lift the first slot of R_(ajkl) = r_low[k, l, a, j].
    alt = np.einsum("...ab,...klbj->...ajkl", ginv, r_low)
    lhs_alt, rhs_alt = alt[:, _UP], alt[:, :, _DOWN]
    columns = zip(
        points,
        _point_max(lhs - rhs).tolist(),
        scale.tolist(),
        _point_max(lhs_alt - rhs_alt).tolist(),
    )
    return [
        _make_report(
            "integrability", p, {"primary": (r, s)}, tolerance, {"alternate_raising_residual": a}
        )
        for p, r, s, a in columns
    ]


# The six planes of a q-basis {x, qx, q^2 x, q^3 x} as pairs of shift powers:
# the four ring planes, then the two diagonal planes.
_PLANES = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def _r_xyxy(r_low: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R(x, y, x, y) at n points: R_ijkl (n, 4, 4, 4, 4), x and y (n, ..., 4)."""
    n, inner = len(r_low), x.shape[1:-1]
    w = (x[..., :, None] * y[..., None, :]).reshape(n, int(np.prod(inner)), 16)
    return np.einsum("nma,nma->nm", w @ r_low.reshape(n, 16, 16), w).reshape(n, *inner)


def _sectional_entries(
    g: np.ndarray, r_low: np.ndarray, xs: np.ndarray
) -> tuple[list[tuple[dict, dict]], _Failure]:
    """Sectional curvatures of the six q-basis planes of each vector at n
    points: g (n, 4, 4), R_ijkl (n, 4, 4, 4, 4) and vectors xs (n, V, 4).

    Ring planes share one curvature and diagonal planes are flat where the
    curvature identity holds (the suite gates on it) and each vector
    induces a q-basis.  Returns the entries and payload of each point, and
    the points where a plane is degenerate (the error names the first such
    plane).
    """
    n, v = xs.shape[:2]
    shifts = xs[..., _SHIFTS]  # (n, V, 4, 4): shifts[p, v, k] = q^k x_v
    gram = shifts @ g[:, None] @ shifts.swapaxes(-1, -2)
    a, b = _PLANES.T
    det = gram[..., a, a] * gram[..., b, b] - gram[..., a, b] ** 2
    euclid = np.einsum("...ki,...ki->...k", shifts, shifts)
    degenerate = det <= 1e-12 * euclid[..., a] * euclid[..., b]
    flat_det, flat_bad = det.reshape(n, v * 6), degenerate.reshape(n, v * 6)
    failure = (
        flat_bad.any(axis=1),
        lambda i: DegeneratePlaneError(
            f"vectors span no 2-plane (Gram determinant {flat_det[i, np.argmax(flat_bad[i])]:.3e})"
        ),
    )
    mu = _r_xyxy(r_low, shifts[..., a, :], shifts[..., b, :]) / np.where(degenerate, 1.0, det)
    ring, diag = mu[..., :4], mu[..., 4:]
    columns = zip(
        np.max(ring.max(axis=2) - ring.min(axis=2), axis=1, initial=0.0).tolist(),
        np.max(np.abs(ring), axis=(1, 2), initial=1.0).tolist(),
        np.max(np.abs(diag[..., 0]), axis=1, initial=0.0).tolist(),
        np.max(np.abs(diag[..., 1]), axis=1, initial=0.0).tolist(),
        _point_max(r_low).tolist(),
        mu[:, 0].tolist() if v else [None] * n,
    )
    found = [
        (
            {"ring_spread": (spread, ring_scale), "mu_x_q2x": (d0, norm), "mu_qx_q3x": (d1, norm)},
            {
                "vectors": v,
                "first_vector_values": (
                    None if first is None else {"ring": first[:4], "diagonal": first[4:]}
                ),
            },
        )
        for spread, ring_scale, d0, d1, norm, first in columns
    ]
    return found, failure


def _mu_law_cases(
    r_low: np.ndarray, basis: np.ndarray, coeffs: np.ndarray
) -> tuple[list[Table], np.ndarray, list[_Failure]]:
    """The mu-law cases of n points: R_ijkl (n, 4, 4, 4, 4), the q-basis
    vector x (n, 4) and the unit coefficient rows (n, S, 4) of each point.

    Returns the case table of each point, the largest |direct - expansion|
    over each point's cases whose u induces a q-basis (n,), 0 where none
    does, and the failures of `_coeff_cosines`.
    """
    shifts = basis[:, _SHIFTS]  # (n, 4, 4): shifts[p, k] = q^k x_p
    rho = _r_xyxy(r_low, shifts[:, 0], shifts[:, 1])
    u = coeffs @ shifts
    direct = _r_xyxy(r_low, u, u[..., _SHIFTS[1]])
    cos_phi, cos_theta, failures = _coeff_cosines(coeffs)
    expansion = (1.0 - cos_theta) ** 2 * rho[:, None]
    q_basis = _q_basis_criterion(u)[0]
    worst = np.max(np.abs(direct - expansion), axis=1, initial=0.0, where=q_basis)
    # The angle law predicts plain rho: the curvature of the u-plane
    # rescaled by its own Gram factor.  The ratio is None where rho = 0.
    ratio = direct / np.where(rho == 0.0, 1.0, rho)[:, None]
    angle_law = np.broadcast_to(rho[:, None], direct.shape)
    cases = [
        Table(
            {
                "coefficients": coeffs[i],
                "cos_phi": cos_phi[i],
                "cos_theta": cos_theta[i],
                "direct": direct[i],
                "expansion_prediction": expansion[i],
                "angle_law_prediction": angle_law[i],
                "ratio_direct_to_angle_law": ratio[i] if rho[i] else None,
                "q_basis": q_basis[i],
            }
        )
        for i in range(len(rho))
    ]
    return cases, worst, failures


def mu_law_cases(
    r: RiemannAtPoint, basis: np.ndarray, coeffs: np.ndarray
) -> tuple[Table, float]:
    """The mu-law cases u = alpha x + beta qx + gamma q^2 x + delta q^3 x.

    `basis` is x, spanning an orthonormal q-basis; each row of `coeffs` is a
    unit (alpha, beta, gamma, delta).  All rows are contracted at once.
    Each case compares R(u, qu, u, qu) against two closed-form predictions:
    (i) the direct tensor contraction is ground truth; (ii) the coefficient
    expansion predicts (1 - cos theta)^2 R(x, qx, x, qx); (iii) the angle law
    mu(phi) = mu(pi/2) / (1 - cos^2 phi) predicts plain R(x, qx, x, qx) for
    the same contraction.  The suite's verdict compares (i) with (ii) only;
    (iii) and the measured ratio are recorded as data because the two
    printed forms disagree whenever cos theta is nonzero, and the
    contraction adjudicates.

    Returns the cases as a `Table` with one row per coefficient row (keys
    coefficients, cos_phi, cos_theta, direct, expansion_prediction,
    angle_law_prediction, ratio_direct_to_angle_law and q_basis) and the
    largest |direct - expansion| over the cases whose u induces a q-basis
    (0 if none does).  The ratio to the angle law is None in every row where
    R(x, qx, x, qx) = 0.
    """
    (cases,), worst, failures = _mu_law_cases(
        r.r_low[None], np.asarray(basis, float)[None], np.asarray(coeffs, float)[None]
    )
    _raise_first(failures)
    return cases, float(worst[0])


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


def _gated(
    name: str, points: list, holds: np.ndarray, found: list[tuple[dict, dict]], tolerance: float
) -> list[CheckReport]:
    """One report per point: the next of `found` where the curvature
    identity holds, skipped elsewhere."""
    found = iter(found)
    reports = []
    for p, ok in zip(points, holds):
        if ok:
            entries, payload = next(found)
            reports.append(_make_report(name, p, entries, tolerance, payload))
        else:
            reason = "curvature identity does not hold at this point"
            reports.append(_skipped(name, p, tolerance, reason))
    return reports


def _lift(failures: list[_Failure], sel: np.ndarray, n: int) -> list[_Failure]:
    """Failures over the points `sel` (increasing indices into n points) as
    failures over all n points."""
    lifted = []
    for mask, make in failures:
        if not mask.any():
            continue  # nothing to raise, and its arrays need not stay alive
        full = np.zeros(n, bool)
        full[sel] = mask
        lifted.append((full, lambda i, make=make: make(int(np.searchsorted(sel, i)))))
    return lifted


# The checks that read the curvature identity: itself, and the two it gates.
_NEEDS_IDENTITY = frozenset({"curvature-identity", "sectional-relations", "mu-law"})


def _suite_block(
    spec: ManifoldSpec,
    xs: np.ndarray,
    start: int,
    selected: list[str],
    seed: int,
    tols: dict[str, float],
    samples: tuple[int, int, int],
) -> tuple[list[CheckReport], dict[str, np.ndarray]]:
    """The suite's entries at the points xs (n, 4), numbered from `start`,
    point by point in canonical order, and the columns of their
    parallel-scan rows.

    The geometry and every check are computed for all points at once, the
    sampled checks over runs of a few points (`_sub_blocks`, each with the
    size of its widest array a point); the random streams stay per point.
    Raises what running the points one at a time would raise first: at
    each point a geometry error, then a degenerate sectional plane, then an
    inaccurate q-basis, then the cosines.
    """
    isometry_samples, sectional_samples, mu_samples = samples

    def stream(index: int, k: int) -> np.random.Generator:
        return np.random.default_rng([seed, index, k])

    geo, failures = _christoffel_block(spec, xs)
    n = len(geo.points)
    if n == 0:
        _raise_first(failures)  # the first point fails, before any check
    points = geo.points.tolist()
    grads = tuple(jet.grad for jet in geo.jets)
    values, scale = _parallel_residuals(*grads)
    rows = _equivalence_rows(
        geo.points, values, scale, geo.gamma, tols["parallel-condition"], tols["nabla-q"]
    )
    if _NEEDS_IDENTITY.intersection(selected):
        # `geo.r_low` builds the curvature on first use; a selection without
        # these checks or integrability never builds it.
        identity = _identity_reports(points, geo.r_low, tols["curvature-identity"])
        holds = np.array([rep.passed for rep in identity])
        sel = np.flatnonzero(holds)

    columns = []
    if "isometry" in selected:
        column = []
        for sub in _sub_blocks(np.arange(n), 8 * isometry_samples):  # pairs (2, S, 4)
            pairs = np.array([_isometry_pairs(stream(start + i, 0), isometry_samples) for i in sub])
            sub_points = [points[i] for i in sub]
            column += _isometry_reports(sub_points, geo.g[sub], pairs, tols["isometry"])
        columns.append(column)

    if "parallel-condition" in selected:
        columns.append(
            _parallel_condition_reports(points, grads, values, scale, tols["parallel-condition"])
        )

    if "curvature-identity" in selected:
        columns.append(identity)

    if "integrability" in selected:
        column = _integrability_reports(
            points, geo.r_mixed, geo.r_low, geo.ginv, tols["integrability"]
        )
        parallel = rows["gradient_holds"] & rows["parallel_holds"]
        for rep, is_parallel in zip(column, parallel.tolist()):
            if not is_parallel:
                rep.payload["reason"] = (
                    "nabla q does not vanish here; residual recorded without a pass expectation"
                )
                rep.status = "skipped"
        columns.append(column)

    if "sectional-relations" in selected:
        found = []
        for sub in _sub_blocks(sel, 96 * sectional_samples):  # plane products (6 V, 16)
            vectors = np.array(
                [sample_q_basis_vectors(stream(start + i, 1), sectional_samples) for i in sub]
            ).reshape(len(sub), sectional_samples, 4)
            sub_found, failure = _sectional_entries(geo.g[sub], geo.r_low[sub], vectors)
            found += sub_found
            failures += _lift([failure], sub, n)
        columns.append(
            _gated("sectional-relations", points, holds, found, tols["sectional-relations"])
        )

    if "mu-law" in selected:
        found = []
        for sub in _sub_blocks(sel, 16 * mu_samples):  # case products (S, 16)
            draws = np.array([_basis_draws(stream(start + i, 2)) for i in sub])
            abc = (jet.value[sub] for jet in geo.jets)
            bases, basis_failure = _orthogonal_q_bases(*abc, *draws.reshape(len(sub), 3).T)
            basis_failure = _naming_points(basis_failure, geo.points[sub])
            coeffs = np.array(
                [_unit_coefficients(stream(start + i, 3), mu_samples) for i in sub]
            ).reshape(len(sub), mu_samples, 4)
            cases, worst, cosine_failures = _mu_law_cases(geo.r_low[sub], bases, coeffs)
            failures += _lift([basis_failure, *cosine_failures], sub, n)
            norms = _point_max(geo.r_low[sub]).tolist()
            found += [
                ({"expansion_max": (w, norm)}, {"basis": basis, "cases": point_cases})
                for w, norm, basis, point_cases in zip(worst.tolist(), norms, bases.tolist(), cases)
            ]
        columns.append(_gated("mu-law", points, holds, found, tols["mu-law"]))

    _raise_first(failures)
    return [column[i] for i in range(n) for column in columns], rows


def _tolerances(overrides: dict[str, float] | None) -> dict[str, float]:
    """The default tolerances with `overrides` applied, each a known name
    and a finite value >= 0."""
    tols = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in tols:
            raise ValueError(f"unknown tolerance name {name!r}")
        value = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"tolerance {name}={value!r} must be finite and >= 0")
        tols[name] = value
    return tols


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
    The points are evaluated in blocks of `_BLOCK`; the entries, and any
    error raised, are those of running the points one at a time.  One check
    at one point is `run_suite(spec, [p], checks=[name])`; the parallel scan
    is the `parallel-equivalence` entry of `checks=["parallel-equivalence"]`.
    """
    selected = list(KNOWN_CHECKS) if checks is None else list(checks)
    for name in selected:
        if name not in KNOWN_CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    tols = _tolerances(tolerances)
    samples = (isometry_samples, sectional_samples, mu_samples)

    xs = _as_points(points)
    reports: list[CheckReport] = []
    blocks: list[dict[str, np.ndarray]] = []
    for start in range(0, len(xs), _BLOCK):
        block = xs[start : start + _BLOCK]
        block_reports, block_rows = _suite_block(spec, block, start, selected, seed, tols, samples)
        reports += block_reports
        blocks.append(block_rows)

    if "parallel-equivalence" in selected and blocks:
        rows = Table({key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]})
        reports.append(
            _equivalence_report(
                rows, tols["parallel-condition"], tols["nabla-q"], tols["parallel-equivalence"]
            )
        )

    return {
        "spec": spec.name,
        "convention": convention_text(),
        "checks": [rep.to_dict() for rep in reports],
    }


def _report_pieces(report: dict) -> Iterator[str]:
    """The text of `report_to_json(report)` as pieces, in document order.

    Every error the text would raise (NaN or +-inf, a value JSON cannot
    write) is raised by this call, in document order: the C encoder writes
    everything but the tables at once, each table as a placeholder string
    once its floats are known to be finite.  The pieces are made as they
    are taken: the encoded text between the tables, and the tables' rows a
    step at a time.  A report string equal to the placeholder is told apart
    by count and a longer placeholder taken.
    """
    mark = "\0"
    while True:
        tables: list[Table] = []

        def placeholder(value):
            if isinstance(value, Table):
                value._check_finite()
                tables.append(value)
                return mark
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

        text = json.JSONEncoder(
            sort_keys=True, allow_nan=False, separators=(",", ":"), default=placeholder
        ).encode(report)
        token = json.dumps(mark)
        if text.count(token) == len(tables):
            return _spliced(text, token, tables)
        mark += "\0"


def _spliced(text: str, token: str, tables: list[Table]) -> Iterator[str]:
    """`text` with each `token` in turn replaced by the JSON of the next of
    `tables`, as pieces, and a newline."""
    at, current = 0, -1
    for i, piece in _tables_json(tables):
        if i != current:
            end = text.index(token, at)
            yield text[at:end]
            at, current = end + len(token), i
        yield piece
    yield text[at:] + "\n"


def report_to_json(report: dict) -> str:
    """The report as compact, strict JSON (no NaN or Infinity) with sorted
    keys, so equal reports give equal bytes.

    The text equals json.dumps(report, sort_keys=True, allow_nan=False,
    separators=(",", ":")) with every `Table` read as its list of rows, and
    a newline; the floats of all the tables are formatted in one pass.
    """
    return "".join(_report_pieces(report))


def write_report(report: dict, path) -> None:
    """Write `report_to_json(report)` to the file at `path` piece by piece,
    never holding the whole text.  Every error of the text is raised before
    the file is opened, so a report that cannot be written leaves no
    truncated file."""
    pieces = _report_pieces(report)
    with open(path, "w") as out:
        out.writelines(pieces)
