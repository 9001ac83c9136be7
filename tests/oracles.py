"""Independent numerical oracles used by the test suite.

These deliberately avoid the analytic-jet code paths they are used to check:
derivatives come from central finite differences of plain field values, and
linear algebra facts come from numpy's generic routines.
"""

from __future__ import annotations

import numpy as np

from circgeo.core import MASK_A, MASK_B, MASK_C


def fd_jet(f, p, h_grad: float = 1e-5, h_hess: float = 1e-5):
    """Finite-difference gradient and Hessian of a scalar function on R^4."""
    p = np.asarray(p, float)
    grad = np.zeros(4)
    hess = np.zeros((4, 4))
    f0 = f(p)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h_grad
        grad[i] = (f(p + e) - f(p - e)) / (2.0 * h_grad)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h_hess
        hess[i, i] = (f(p + e) - 2.0 * f0 + f(p - e)) / h_hess**2
        for j in range(i + 1, 4):
            ei = np.zeros(4)
            ei[i] = h_hess
            ej = np.zeros(4)
            ej[j] = h_hess
            hess[i, j] = hess[j, i] = (
                f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)
            ) / (4.0 * h_hess**2)
    return grad, hess


def metric_values(spec, p) -> np.ndarray:
    """Assemble the metric matrix from plain field values (no jets)."""
    p = np.asarray(p, float)
    return (
        spec.A(p) * MASK_A + spec.B(p) * MASK_B + spec.C(p) * MASK_C
    )


def fd_christoffel(spec, p, h: float = 1e-5) -> np.ndarray:
    """Christoffel symbols from finite differences of the metric entries.

    Returns gamma[s, i, j]; uses numpy's generic inverse, so the whole path
    is independent of the closed-form inverse and of the jet machinery.
    """
    p = np.asarray(p, float)
    g = metric_values(spec, p)
    ginv = np.linalg.inv(g)
    dg = np.zeros((4, 4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        dg[k] = (metric_values(spec, p + e) - metric_values(spec, p - e)) / (2.0 * h)
    t = np.einsum("iaj->aij", dg) + np.einsum("jai->aij", dg) - dg
    return 0.5 * np.einsum("as,aij->sij", ginv, t)


def fd_dgamma(spec, p, h: float = 1e-4) -> np.ndarray:
    """Finite differences of the analytic Christoffel symbols: dgamma[l, s, i, j]."""
    from circgeo.tensor import christoffel_at

    p = np.asarray(p, float)
    out = np.zeros((4, 4, 4, 4))
    for l in range(4):
        e = np.zeros(4)
        e[l] = h
        plus = christoffel_at(spec, p + e).gamma
        minus = christoffel_at(spec, p - e).gamma
        out[l] = (plus - minus) / (2.0 * h)
    return out


def leading_minors(matrix: np.ndarray) -> list[float]:
    """Leading principal minors via numpy's generic determinant."""
    return [float(np.linalg.det(matrix[: k + 1, : k + 1])) for k in range(4)]


def stacked_shift_det(x) -> float:
    """det of the matrix whose rows are x, qx, q^2 x, q^3 x (generic oracle)."""
    x = np.asarray(x, float)
    rows = np.array([np.roll(x, -k) for k in range(4)])
    return float(np.linalg.det(rows))


# Planes of a q-basis {x, qx, q^2 x, q^3 x} as pairs of shift powers: the four
# ring planes, then the two diagonal planes.
PLANES = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))


def sectional_planes_loop(m, r, xs) -> np.ndarray:
    """Curvatures of the six q-basis planes of each x, one public call per plane."""
    from circgeo.tensor import sectional_curvature

    out = []
    for x in np.asarray(xs, float):
        shifts = [np.roll(x, -k) for k in range(4)]
        out.append([sectional_curvature(r, m, shifts[a], shifts[b]) for a, b in PLANES])
    return np.array(out)


def mu_law_case_scalar(r, basis, coeffs) -> dict:
    """One mu-law case from the scalar formulas, one 4-vector contraction each."""
    a, b, g, d = (float(c) for c in coeffs)
    shifts = [np.roll(np.asarray(basis, float), -k) for k in range(4)]
    u = a * shifts[0] + b * shifts[1] + g * shifts[2] + d * shifts[3]
    qu = np.roll(u, -1)
    rho = float(np.einsum("ijkl,i,j,k,l->", r.r_low, shifts[0], shifts[1], shifts[0], shifts[1]))
    cos_theta = min(1.0, max(-1.0, 2.0 * a * g + 2.0 * b * d))
    return {
        "coefficients": [a, b, g, d],
        "cos_phi": min(1.0, max(-1.0, a * b + a * d + b * g + d * g)),
        "cos_theta": cos_theta,
        "direct": float(np.einsum("ijkl,i,j,k,l->", r.r_low, u, qu, u, qu)),
        "expansion_prediction": (1.0 - cos_theta) ** 2 * rho,
        "angle_law_prediction": rho,
        "q_basis": abs(stacked_shift_det(u)) > 1e-12 * float(u @ u) ** 2,
    }


def sequential_rows(rng, n: int, accept) -> np.ndarray:
    """One-row-at-a-time rejection sampling of rows uniform in [-1, 1]^4."""
    out = []
    while len(out) < n:
        x = rng.uniform(-1.0, 1.0, size=4)
        if accept(x):
            out.append(x)
    return np.array(out).reshape(n, 4)


def sequential_unit_coefficients(rng, n: int) -> np.ndarray:
    """Unit coefficient rows drawn one at a time, normalised by np.linalg.norm."""
    rows = sequential_rows(rng, n, lambda v: float(np.linalg.norm(v)) > 1e-3)
    return np.array([v / float(np.linalg.norm(v)) for v in rows]).reshape(n, 4)


def equivalence_row_pointwise(spec, p, f4_tol: float, nq_tol: float) -> dict:
    """One parallel-scan row from the per-point API, with the gradient
    conditions restated: A_i = C_(i+2), B_1 = B_3, B_2 = B_4 and
    2 B_i = C_(i-1) + C_(i+1) for i = 1, 2 (indices cyclic)."""
    from circgeo.core import metric_at
    from circgeo.tensor import christoffel_from_metric, nabla_q

    m = metric_at(spec, p)
    ch = christoffel_from_metric(m)
    ga, gb, gc = m.jet_a.grad, m.jet_b.grad, m.jet_c.grad
    conditions = [ga[i] - gc[(i + 2) % 4] for i in range(4)]
    conditions += [gb[0] - gb[2], gb[1] - gb[3]]
    conditions += [2.0 * gb[i] - gc[(i - 1) % 4] - gc[(i + 1) % 4] for i in (0, 1)]
    gradient = max(abs(float(v)) for v in conditions)
    scale = max(1.0, *(float(abs(v)) for v in np.concatenate((ga, gb, gc))))
    nq = nabla_q(ch).max_abs
    return {
        "point": [float(v) for v in p],
        "gradient_residual": gradient,
        "gradient_residual_scaled": gradient / scale,
        "nabla_q_residual": nq,
        "nabla_q_residual_scaled": nq / max(1.0, ch.max_abs),
        "gradient_holds": gradient / scale <= f4_tol,
        "parallel_holds": nq / max(1.0, ch.max_abs) <= nq_tol,
    }


def first_error_pointwise(spec, points):
    """The exception a point-by-point loop over metric_at and
    christoffel_from_metric raises first, or None."""
    from circgeo.core import metric_at
    from circgeo.tensor import christoffel_from_metric

    for p in points:
        try:
            christoffel_from_metric(metric_at(spec, p))
        except ValueError as exc:
            return exc
    return None


def run_suite_pointwise(
    spec,
    points,
    checks=None,
    seed: int = 0,
    tolerances=None,
    isometry_samples: int = 1000,
    sectional_samples: int = 50,
    mu_samples: int = 100,
) -> dict:
    """The check suite run one point at a time through the per-point API:
    the reference for `run_suite`, which runs blocks of points at once.

    Each point gets its own metric, connection and curvature, the public
    per-point checks where they fit an entry, and the same per-point random
    streams [seed, point index, k].  The first error raised is the one the
    batched suite must raise.  The q-basis (`find_orthogonal_q_basis`, the
    one-point case of the suite's block helper) and the sectional sampler
    are looked up at each call, so a test can replace them for both.
    """
    import circgeo.verify as v
    from circgeo.core import metric_at
    from circgeo.expr import _raise_first
    from circgeo.tensor import christoffel_from_metric, riemann_from_christoffel

    selected = list(v.KNOWN_CHECKS) if checks is None else list(checks)
    tols = {**v.DEFAULT_TOLERANCES, **(tolerances or {})}
    gated = "curvature identity does not hold at this point"
    reports, rows = [], []
    for idx, p in enumerate(points):
        m = metric_at(spec, p)
        r = riemann_from_christoffel(m, christoffel_from_metric(m))
        row = equivalence_row_pointwise(spec, p, tols["parallel-condition"], tols["nabla-q"])
        rows.append(row)

        if "isometry" in selected:
            reports.append(
                v.check_isometry(m, isometry_samples, [seed, idx, 0], tols["isometry"])
            )
        if "parallel-condition" in selected:
            reports.append(v.check_parallel_condition(spec, p, tols["parallel-condition"]))
        identity = v.check_curvature_q_identity(r, tols["curvature-identity"])
        if "curvature-identity" in selected:
            reports.append(identity)
        if "integrability" in selected:
            rep = v.check_integrability(r, tols["integrability"])
            if not (row["gradient_holds"] and row["parallel_holds"]):
                rep.payload["reason"] = (
                    "nabla q does not vanish here; residual recorded without a pass expectation"
                )
                rep.status = "skipped"
            reports.append(rep)

        if "sectional-relations" in selected:
            tol = tols["sectional-relations"]
            if identity.passed:
                xs = v.sample_q_basis_vectors(v._rng([seed, idx, 1]), sectional_samples)
                [(entries, payload)], failure = v._sectional_entries(
                    m.matrix[None], r.r_low[None], xs[None]
                )
                _raise_first([failure])
                reports.append(v._make_report("sectional-relations", m.point, entries, tol, payload))
            else:
                reports.append(v._skipped("sectional-relations", m.point, tol, gated))

        if "mu-law" in selected:
            if identity.passed:
                basis = v.find_orthogonal_q_basis(m, seed=[seed, idx, 2])
                coeffs = v._unit_coefficients(v._rng([seed, idx, 3]), mu_samples)
                cases, worst = v.mu_law_cases(r, basis, coeffs)
                reports.append(
                    v._make_report(
                        "mu-law",
                        m.point,
                        {"expansion_max": (worst, r.norm_inf)},
                        tols["mu-law"],
                        {"basis": basis.tolist(), "cases": cases},
                    )
                )
            else:
                reports.append(v._skipped("mu-law", m.point, tols["mu-law"], gated))

    if "parallel-equivalence" in selected and rows:
        reports.append(
            v._equivalence_report(
                rows, tols["parallel-condition"], tols["nabla-q"], tols["parallel-equivalence"]
            )
        )
    return {
        "spec": spec.name,
        "convention": v.convention_text(),
        "checks": [rep.to_dict() for rep in reports],
    }


# Report fields drawn from the random streams; they must match bit for bit.
SAMPLED_KEYS = frozenset({"basis", "coefficients"})


def assert_reports_match(got, want, atol: float = 1e-12, path=()):
    """Same structure, keys, strings, flags and None; sampled values
    identical; every other number within atol absolute."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_reports_match(got[key], want[key], atol, path + (key,))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_reports_match(g, w, atol, path + (i,))
    elif isinstance(want, (bool, str)) or want is None:
        assert type(got) is type(want) and got == want, (path, got, want)
    elif SAMPLED_KEYS.intersection(path):
        assert type(got) is float and got == want, (path, got, want)
    else:
        assert type(got) is type(want) and abs(got - want) <= atol, (path, got, want)
