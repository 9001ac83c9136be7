"""Quantified residual checks for circulant-metric manifolds.

Every theorem about the class is expressed here as a named check that
produces scaled residuals, a tolerance and a pass/fail/skipped verdict.
Residuals are reported as absolute values with their raw scales; only the
verdict floors a scale at 1 (`_scaled`), residual / max(1, scale) against
the tolerance, so that near-zero quantities do not inflate into false alarms.

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
once with a leading point axis, in the types and by the functions that give
it at one point (`christoffel_from_metric`, `riemann_from_christoffel`,
`nabla_q`), and each check is one array pass over the block, the
closed-form orthonormal q-bases of `mu-law` included; the three
sampled checks draw and contract their samples over runs of a few points
(`_SAMPLE_BYTES`), so their transient arrays do not grow with the block.
A run gives only columns; each failure (the geometry's, a degenerate
sampled plane, an inaccurate q-basis) is made once over the whole block.
A check's pass gives arrays: residuals (n, k), their scales and payload
columns.  One builder, `_entries`, makes them the report's entries, plain
dicts, with the verdict of a whole check taken at once by the one rule
(`_fails`); a skip is a mask where the entries are built.
Each point keeps its own random streams, seeded [seed, index, k], so the
entries equal those of running the points one at a time, and so does the
first error raised.  The two large per-point payloads, the parallel-scan
rows and each point's mu-law cases, are held as column `Table`s.  This
module builds the report; `_table` writes it.  `report_to_json` and
`write_report` are `_table`'s, re-exported here: compact JSON, the tables
written straight from their columns, and a file written piece by piece
without ever holding the whole text.  The shift acts on vectors and
tensor components through `core`'s index maps (`_SHIFTS`, `_UP`, `_DOWN`).
"""

from __future__ import annotations

import math

import numpy as np

from ._table import Table, report_to_json, write_report
from .core import (
    ManifoldSpec,
    _DOWN,
    _SHIFTS,
    _UP,
    _basis_draws,
    _orthogonal_q_bases,
    _q_basis_criterion,
    _scale_exponent,
)
from .expr import _as_points, _raise_first
from .tensor import (
    ChristoffelAtPoint,
    _christoffel_block,
    _degenerate_plane_error,
    _degenerate_planes,
    _max_abs,
    nabla_q,
    riemann_from_christoffel,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "KNOWN_CHECKS",
    "Table",
    "convention_text",
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


# Why an entry is skipped: the checks gated on the curvature identity where
# it fails, and integrability where q is not parallel.
_GATED = "curvature identity does not hold at this point"
_NOT_PARALLEL = "nabla q does not vanish here; residual recorded without a pass expectation"


def _scaled(resid, scale):
    """The scaled residual r / max(1, s), a NaN scale reading as 1 (np.fmax):
    the one place a scale is floored, as the reports keep the raw scales."""
    return resid / np.fmax(1.0, scale)


def _fails(resid: np.ndarray, scale: np.ndarray, tolerance: float) -> np.ndarray:
    """The verdict rule at each of n points: some scaled residual of the row
    resid[i] (k,) exceeds the tolerance (`_scaled`); a NaN does not exceed."""
    with np.errstate(invalid="ignore"):
        return (_scaled(resid, scale) > tolerance).any(axis=1)


def _entries(
    name: str,
    points: list,
    labels,
    resid: np.ndarray,
    scale,
    tolerance: float,
    payload: dict,
    ran: np.ndarray | None = None,
    skip: tuple[np.ndarray, str] | None = None,
) -> list[dict]:
    """The report entries of check `name` at n points, in point order.

    The check ran at the m points where `ran` (n,) is set, at all n if it is
    None: `resid` (m, k) holds their absolute residuals under `labels`,
    `scale` (broadcast to resid) the scales, and `payload` a column of m
    values per key.  Each such entry fails or passes by `_fails`, or is
    skipped, residuals kept, where the mask of `skip` (m,) is set; its
    payload carries the scales, and the reason of a skip.  An entry where
    the check did not run is skipped with no residuals (`_GATED`).
    Entries are plain dicts of JSON values, but for the `Table`s a payload
    may hold.
    """
    tolerance = float(tolerance)
    scale = np.broadcast_to(scale, resid.shape)
    status = np.where(_fails(resid, scale, tolerance), "fail", "pass")
    if skip is not None:
        status = np.where(skip[0], "skipped", status)
    found = zip(resid.tolist(), scale.tolist(), status.tolist(), *payload.values())
    entries = []
    for point, has_run in zip(points, [True] * len(points) if ran is None else ran.tolist()):
        if has_run:
            r, s, verdict, *values = next(found)
            residuals = dict(zip(labels, r))
            extra = {**dict(zip(payload, values)), "scales": dict(zip(labels, s))}
            if verdict == "skipped":
                extra["reason"] = skip[1]
        else:
            residuals, verdict, extra = {}, "skipped", {"reason": _GATED}
        entries.append(
            {
                "name": name,
                "point": point,
                "residuals": residuals,
                "tolerance": tolerance,
                "status": verdict,
                "payload": extra,
            }
        )
    return entries


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
    # np.linalg.norm of one row, so the unit rows, which the report lists as
    # the mu-law cases' coefficients, keep the bits of normalising each row
    # by np.linalg.norm.
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _unit_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit rows, drawn uniform in [-1, 1]^4 with norm above 1e-3, normalised."""
    rows = _draw_rows(rng, n, lambda v: _row_norms(v) > 1e-3)
    return rows / _row_norms(rows)[:, None]


# ---------------------------------------------------------------------------
# Individual checks
#
# Each check is one array pass over n points, every array with a leading
# point axis, giving residuals (n, k), their scales and payload values per
# point; `_suite_block` makes them entries (`_entries`) once per block.
# ---------------------------------------------------------------------------


def _isometry_residuals(g: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(q^k x, q^k y) = g(x, y) for k = 1, 2, 3 at n points, from g (n, 4, 4)
    and the sample pairs (n, 2, S, 4) of each point, all x then all y: the
    largest |residual| of each k, (n, 3), and the scale max |g(x, y)|, (n, 1)."""
    xs, ys = pairs[:, 0], pairs[:, 1]

    def form(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # g(x, y) of every pair, (n, S)
        return np.einsum("nsi,nsi->ns", x @ g, y)

    base = form(xs, ys)
    resid = np.stack(
        [np.abs(form(xs[..., shift], ys[..., shift]) - base).max(axis=1) for shift in _SHIFTS[1:]],
        axis=1,
    )
    return resid, np.abs(base).max(axis=1)[:, None]


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
    order, and the scale max |grad A|, |grad B|, |grad C|, (n,), from
    gradients of shape (n, 4).

    The conditions tie grad A and grad B to shifted grad C, componentwise
    A_i = C_(i+2), B_i = B_(i+2) and 2 B_i = C_(i+1) + C_(i+3), indices
    cyclic, each shift a gather with `_SHIFTS`.  Of the B and 2 B conditions
    only the first two are kept: the other two follow from them.
    """
    values = np.c_[
        ga - gc[:, _SHIFTS[2]],
        (gb - gb[:, _SHIFTS[2]])[:, :2],
        (2.0 * gb - gc[:, _SHIFTS[1]] - gc[:, _SHIFTS[3]])[:, :2],
    ]
    return np.abs(values), np.abs(np.concatenate((ga, gb, gc), axis=1)).max(axis=1)


def _equivalence_rows(
    values: np.ndarray,
    scale: np.ndarray,
    geo: ChristoffelAtPoint,
    f4_tol: float,
    nq_tol: float,
) -> dict[str, np.ndarray]:
    """Both parallelism predicates at each of n points, evaluated independently.

    `values` and `scale` come from `_parallel_residuals`; `geo` is the
    connection of the n points, nabla q's scale max |Gamma|.  Returns the
    columns of the points' scan rows, with the scaled residuals of `_scaled`.
    """
    gradient = values.max(axis=1)
    f4_scaled = _scaled(gradient, scale)
    nq = nabla_q(geo).max_abs
    nq_scaled = _scaled(nq, geo.max_abs)
    return {
        "point": geo.metric.point,
        "gradient_residual": gradient,
        "gradient_residual_scaled": f4_scaled,
        "nabla_q_residual": nq,
        "nabla_q_residual_scaled": nq_scaled,
        "gradient_holds": f4_scaled <= f4_tol,
        "parallel_holds": nq_scaled <= nq_tol,
    }


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


def _identity_residuals(r_low: np.ndarray) -> np.ndarray:
    """R(e_i, e_j, q e_k, q e_l) = R(e_i, e_j, e_k, e_l) at n points, from
    R_ijkl (n, 4, 4, 4, 4): all 256 combinations, which multilinearity makes
    sufficient.  Returns the largest |residual|, (n, 1); its scale is
    max |R_ijkl|, the curvature's `norm_inf`."""
    shifted = r_low[..., _DOWN, :][..., _DOWN]
    return _max_abs(shifted - r_low, 4)[:, None]


def _integrability_residuals(r_mixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q on the output slot against q on the argument at n points, from
    R^l_ijk (n, 4, 4, 4, 4): the largest |residual| and the scale
    max |R^l_ijk|, each (n, 1).

    Raising the first slot of R_ijkl instead, with the plane slots last as
    in classical component notation, gives no other residual: R_ijkl is
    antisymmetric in its last pair, so g^ab R_klbj = -R^a_klj, the same
    tensor with its indices relabelled.
    """
    # q R(x, y) z against R(x, y) q z, on the output slot l and the argument k
    # of R^l_ijk.
    lhs, rhs = r_mixed[:, _UP], r_mixed[..., _DOWN]
    return _max_abs(lhs - rhs, 4)[:, None], _max_abs(r_mixed, 4)[:, None]


# The six planes of a q-basis {x, qx, q^2 x, q^3 x} as pairs of shift powers:
# the four ring planes, then the two diagonal planes.
_PLANES = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def _r_xyxy(r_low: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R(x, y, x, y) at n points: R_ijkl (n, 4, 4, 4, 4), x and y (n, ..., 4)."""
    n, inner = len(r_low), x.shape[1:-1]
    w = (x[..., :, None] * y[..., None, :]).reshape(n, int(np.prod(inner)), 16)
    return np.einsum("nma,nma->nm", w @ r_low.reshape(n, 16, 16), w).reshape(n, *inner)


_SECTIONAL_LABELS = ("ring_spread", "mu_x_q2x", "mu_qx_q3x")


def _sectional_residuals(
    g: np.ndarray, r_low: np.ndarray, norm: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sectional curvatures of the six q-basis planes of each vector at n
    points: g (n, 4, 4), R_ijkl (n, 4, 4, 4, 4) with max |R_ijkl| (n,), and
    vectors xs (n, V, 4).

    Ring planes share one curvature and diagonal planes are flat where the
    curvature identity holds (the suite gates on it) and each vector
    induces a q-basis.  Returns, in `_SECTIONAL_LABELS` order, the spread of
    the ring curvatures and the largest |curvature| of each diagonal plane,
    (n, 3), with their scales max |ring curvature| and max |R_ijkl|,
    (n, 3); the six curvatures of the first vector (n, min(V, 1), 6), rings
    first; and the Gram determinant of each point's first degenerate plane
    (`_degenerate_planes`), NaN where no plane is degenerate, (n,), each
    Gram determinant taken under g at unit scale (`_scale_exponent` of g_11 = A).
    """
    n, v = xs.shape[:2]
    shifts = xs[..., _SHIFTS]  # (n, V, 4, 4): shifts[p, v, k] = q^k x_v
    e = _scale_exponent(g[:, :1, :1])  # (n, 1, 1)
    g, e2 = np.ldexp(g, -e), 2 * e  # g at unit scale, and the Gram determinants' scale
    gram = shifts @ g[:, None] @ shifts.swapaxes(-1, -2)
    a, b = _PLANES.T
    det = gram[..., a, a] * gram[..., b, b] - gram[..., a, b] ** 2
    degenerate = _degenerate_planes(det, gram[..., a, a], gram[..., b, b])
    # Each point's first degenerate plane, or the NaN column past its last plane.
    bad = np.c_[degenerate.reshape(n, v * 6), np.ones(n, bool)]
    dets = np.c_[np.ldexp(det, e2).reshape(n, v * 6), np.full(n, np.nan)]
    r_xyxy = _r_xyxy(r_low, shifts[..., a, :], shifts[..., b, :])
    mu = np.ldexp(r_xyxy / np.where(degenerate, 1.0, det), -e2)
    ring, diag = mu[..., :4], mu[..., 4:]
    resid = np.stack(
        (
            np.max(ring.max(axis=2) - ring.min(axis=2), axis=1, initial=0.0),
            np.max(np.abs(diag[..., 0]), axis=1, initial=0.0),
            np.max(np.abs(diag[..., 1]), axis=1, initial=0.0),
        ),
        axis=1,
    )
    scale = np.stack((np.max(np.abs(ring), axis=(1, 2), initial=0.0), norm, norm), axis=1)
    return resid, scale, mu[:, :1], dets[np.arange(n), bad.argmax(axis=1)]


def _mu_law_cases(
    r_low: np.ndarray, basis: np.ndarray, coeffs: np.ndarray
) -> tuple[list[Table], np.ndarray, np.ndarray]:
    """The mu-law cases u = alpha x + beta qx + gamma q^2 x + delta q^3 x at
    n points: R_ijkl (n, 4, 4, 4, 4), the vector x (n, 4) that spans each
    point's orthonormal q-basis and the unit rows (alpha, beta, gamma,
    delta) of each point, (n, S, 4).  All rows are contracted at once.

    Each case compares R(u, qu, u, qu) against two closed-form predictions:
    (i) the direct tensor contraction is ground truth; (ii) the coefficient
    expansion predicts (1 - cos theta)^2 R(x, qx, x, qx); (iii) the angle law
    mu(phi) = mu(pi/2) / (1 - cos^2 phi) predicts plain R(x, qx, x, qx) for
    the same contraction.  The suite's verdict compares (i) with (ii) only;
    (iii) is one number a point, recorded as data because the two printed
    forms disagree whenever cos theta is nonzero, and the contraction
    adjudicates.  In an orthonormal q-basis
    cos(phi) = alpha beta + alpha delta + beta gamma + delta gamma and
    cos(theta) = 2 alpha gamma + 2 beta delta, functions of the
    coefficients that the cases do not repeat; cos(theta) is at most
    |c|^2 = 1 in size, so clipping it to [-1, 1] only removes rounding.

    Returns the cases of each point as a `Table` with one row per
    coefficient row (keys coefficients, direct, expansion_prediction and
    q_basis); the largest |direct - expansion| over each point's cases
    whose u induces a q-basis, (n,), 0 where none does; and
    rho = R(x, qx, x, qx), the angle law's prediction, (n,).
    """
    shifts = basis[:, _SHIFTS]  # (n, 4, 4): shifts[p, k] = q^k x_p
    rho = _r_xyxy(r_low, shifts[:, 0], shifts[:, 1])
    u = coeffs @ shifts
    direct = _r_xyxy(r_low, u, u[..., _SHIFTS[1]])
    a, b, g, d = np.moveaxis(coeffs, -1, 0)
    cos_theta = np.clip(2.0 * a * g + 2.0 * b * d, -1.0, 1.0)
    expansion = (1.0 - cos_theta) ** 2 * rho[:, None]
    q_basis = _q_basis_criterion(u)[0]
    worst = np.max(np.abs(direct - expansion), axis=1, initial=0.0, where=q_basis)
    cases = [
        Table(
            {
                "coefficients": coeffs[i],
                "direct": direct[i],
                "expansion_prediction": expansion[i],
                "q_basis": q_basis[i],
            }
        )
        for i in range(len(rho))
    ]
    return cases, worst, rho


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


# The checks that read the curvature identity: itself, and the two it gates;
# and the checks that read the curvature: those and integrability.
_NEEDS_IDENTITY = frozenset({"curvature-identity", "sectional-relations", "mu-law"})
_NEEDS_CURVATURE = _NEEDS_IDENTITY | {"integrability"}


def _suite_block(
    spec: ManifoldSpec,
    xs: np.ndarray,
    start: int,
    selected: list[str],
    seed: int,
    tols: dict[str, float],
    samples: tuple[int, int, int],
) -> tuple[list[dict], dict[str, np.ndarray]]:
    """The suite's entries at the points xs (n, 4), numbered from `start`,
    point by point in canonical order, and the columns of their
    parallel-scan rows.

    The geometry and every check are computed for all points at once, the
    sampled checks over runs of a few points (`_sub_blocks`, each with the
    size of its widest array a point), their columns joined; the random
    streams stay per point.  Each failure is made once over the block.
    Raises what running the points one at a time would raise first, naming
    its point: at each point a geometry error, then a degenerate sectional
    plane, then an inaccurate q-basis.
    """
    isometry_samples, sectional_samples, mu_samples = samples

    def stream(index: int, k: int) -> np.random.Generator:
        return np.random.default_rng([seed, index, k])

    geo, failures = _christoffel_block(spec, xs)
    m = geo.metric
    n = len(m.point)
    if n == 0:
        _raise_first(failures, xs)  # the first point fails, before any check

    def sampled(sel: np.ndarray, floats_per_point: int, run) -> list:
        """`run(sub)` over the runs of the points `sel`, each giving values
        per point of the run (arrays or lists), joined over the runs."""
        parts = zip(*(run(sub) for sub in _sub_blocks(sel, floats_per_point)))
        return [np.concatenate(r) if isinstance(r[0], np.ndarray) else sum(r, []) for r in parts]

    columns = []

    def add(name: str, labels, resid, scale, payload: dict, **masks) -> None:
        """Append the entries of check `name`, each with a point list of its own."""
        points = m.point.tolist()
        columns.append(_entries(name, points, labels, resid, scale, tols[name], payload, **masks))

    grads = (m.jet_a.grad, m.jet_b.grad, m.jet_c.grad)
    values, scale = _parallel_residuals(*grads)
    rows = _equivalence_rows(values, scale, geo, tols["parallel-condition"], tols["nabla-q"])
    if _NEEDS_CURVATURE.intersection(selected):
        # A selection without a curvature check never builds the curvature.
        riemann_from_christoffel(m, geo)
    if _NEEDS_IDENTITY.intersection(selected):
        identity, norm = _identity_residuals(geo.r_low), geo.norm_inf[:, None]
        holds = ~_fails(identity, norm, tols["curvature-identity"])
        sel = np.flatnonzero(holds)

    if "isometry" in selected:

        def isometry_run(sub):
            pairs = np.array(
                [stream(start + i, 0).uniform(-1.0, 1.0, (2, isometry_samples, 4)) for i in sub]
            )
            return _isometry_residuals(m.matrix[sub], pairs)

        # The widest array is the sample pairs, (2, S, 4) a point.
        resid, iso_scale = sampled(np.arange(n), 8 * isometry_samples, isometry_run)
        add("isometry", ("q1", "q2", "q3"), resid, iso_scale, {"samples": [isometry_samples] * n})

    if "parallel-condition" in selected:
        payload = dict(zip(("grad_A", "grad_B", "grad_C"), (grad.tolist() for grad in grads)))
        add("parallel-condition", _PARALLEL_LABELS, values, scale[:, None], payload)

    if "curvature-identity" in selected:
        add("curvature-identity", ("max",), identity, norm, {})

    if "integrability" in selected:
        resid, int_scale = _integrability_residuals(geo.r_mixed)
        parallel = rows["gradient_holds"] & rows["parallel_holds"]
        skip = (~parallel, _NOT_PARALLEL)
        add("integrability", ("primary",), resid, int_scale, {}, skip=skip)

    if "sectional-relations" in selected:

        def sectional_run(sub):
            vectors = np.array(
                [sample_q_basis_vectors(stream(start + i, 1), sectional_samples) for i in sub]
            ).reshape(len(sub), sectional_samples, 4)
            return _sectional_residuals(m.matrix[sub], geo.r_low[sub], norm[sub, 0], vectors)

        # The widest array is the plane products, (6 V, 16) a point.
        resid, sec_scale, first, gram = sampled(sel, 96 * sectional_samples, sectional_run)
        dets = np.full(n, np.nan)
        dets[sel] = gram
        failures.append((~np.isnan(dets), lambda i: _degenerate_plane_error(dets[i])))
        # `first` holds no row at a point where no vector was drawn.
        payload = {
            "vectors": [sectional_samples] * len(sel),
            "first_vector_values": [
                {"ring": mu[0][:4], "diagonal": mu[0][4:]} if mu else None for mu in first.tolist()
            ],
        }
        add("sectional-relations", _SECTIONAL_LABELS, resid, sec_scale, payload, ran=holds)

    if "mu-law" in selected:
        # A fixed draw where mu-law does not run; that basis is not tested.
        draws = np.tile([0.0, 1.0, 1.0], (n, 1))
        for i in sel:
            draws[i] = _basis_draws(stream(start + i, 2))
        bases, (bad, make) = _orthogonal_q_bases(m.a, m.b, m.c, *draws.T)
        failures.append((bad & holds, make))

        def mu_law_run(sub):
            coeffs = np.array(
                [_unit_coefficients(stream(start + i, 3), mu_samples) for i in sub]
            ).reshape(len(sub), mu_samples, 4)
            return _mu_law_cases(geo.r_low[sub], bases[sub], coeffs)

        # The widest array is the case products, (S, 16) a point.
        cases, worst, rho = sampled(sel, 16 * mu_samples, mu_law_run)
        payload = {"basis": bases[sel].tolist(), "cases": cases}
        payload["angle_law_prediction"] = rho.tolist()
        add("mu-law", ("expansion_max",), worst[:, None], norm[sel], payload, ran=holds)

    _raise_first(failures, xs)
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
    entries: list[dict] = []
    blocks: list[dict[str, np.ndarray]] = []
    for start in range(0, len(xs), _BLOCK):
        block = xs[start : start + _BLOCK]
        block_entries, block_rows = _suite_block(spec, block, start, selected, seed, tols, samples)
        entries += block_entries
        blocks.append(block_rows)

    if "parallel-equivalence" in selected and blocks:
        # Over all points: the gradient conditions hold iff nabla q vanishes.
        # The check fails only if the two predicates disagree at more than
        # its tolerance of points; where both are false they agree, as the
        # equivalence is two-sided.
        rows = Table({key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]})
        f4_tol, nq_tol = tols["parallel-condition"], tols["nabla-q"]
        cols = rows.columns
        disagreements = np.count_nonzero(cols["gradient_holds"] != cols["parallel_holds"])
        entries += _entries(
            "parallel-equivalence",
            [None],
            ("disagreements",),
            np.full((1, 1), disagreements, float),
            1.0,
            tols["parallel-equivalence"],
            {"gradient_tolerance": [f4_tol], "nabla_q_tolerance": [nq_tol], "points": [rows]},
        )

    return {"spec": spec.name, "convention": convention_text(), "checks": entries}
