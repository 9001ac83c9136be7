"""Independent numerical oracles used by the test suite.

These deliberately avoid the analytic-jet code paths they are used to check:
derivatives come from central finite differences of plain field values, and
linear algebra facts come from numpy's generic routines.
"""

from __future__ import annotations

import json

import numpy as np

from circgeo.verify import Table

# The circulant pattern as 0/1 masks and the cyclic shift as a matrix,
# written out here rather than taken from the package, whose encoding is a
# set of index maps (`core._CLASS`, `core._SHIFTS`).
MASK_A = np.eye(4)
MASK_B = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
MASK_C = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
# (q x)^s = Q[s, k] x^k = x^(s+1 mod 4)
Q = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], dtype=float)


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


def masked(a, b, c) -> np.ndarray:
    """The circulant pattern of a, b, c (any equal trailing shape) as a sum
    over the masks: (..., 4, 4)."""
    return sum(np.multiply.outer(v, mask) for v, mask in zip((a, b, c), (MASK_A, MASK_B, MASK_C)))


def nabla_q_reference(gamma) -> np.ndarray:
    """Gamma^s_ik q^k_j - Gamma^k_ij q^s_k as matrix contractions with Q,
    from gamma (..., s, i, j): (..., i, s, j)."""
    return np.einsum("...sik,kj->...isj", gamma, Q) - np.einsum("...kij,sk->...isj", gamma, Q)


def metric_values(spec, p) -> np.ndarray:
    """Assemble the metric matrix from plain field values (no jets)."""
    p = np.asarray(p, float)
    return masked(spec.A(p), spec.B(p), spec.C(p))


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


def angle_law_scalar(r_low, basis) -> float:
    """R(x, qx, x, qx) of the vector x that spans a q-basis, one contraction."""
    x = np.asarray(basis, float)
    qx = np.roll(x, -1)
    return float(np.einsum("ijkl,i,j,k,l->", r_low, x, qx, x, qx))


def case_cosines(coefficients) -> tuple[float, float]:
    """cos phi and cos theta of a mu-law case in an orthonormal q-basis,
    from its coefficients (alpha, beta, gamma, delta), clipped to [-1, 1]."""
    a, b, g, d = (float(c) for c in coefficients)
    cos_phi = a * b + a * d + b * g + d * g
    cos_theta = 2.0 * a * g + 2.0 * b * d
    return min(1.0, max(-1.0, cos_phi)), min(1.0, max(-1.0, cos_theta))


def mu_law_case_scalar(r, basis, coeffs) -> dict:
    """One mu-law case from the scalar formulas, one 4-vector contraction each."""
    a, b, g, d = (float(c) for c in coeffs)
    shifts = [np.roll(np.asarray(basis, float), -k) for k in range(4)]
    u = a * shifts[0] + b * shifts[1] + g * shifts[2] + d * shifts[3]
    qu = np.roll(u, -1)
    rho = angle_law_scalar(r.r_low, basis)
    cos_theta = case_cosines(coeffs)[1]
    return {
        "coefficients": [a, b, g, d],
        "direct": float(np.einsum("ijkl,i,j,k,l->", r.r_low, u, qu, u, qu)),
        "expansion_prediction": (1.0 - cos_theta) ** 2 * rho,
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


def gradient_conditions(ga, gb, gc) -> dict:
    """The gradient conditions by label, restated: A_i = C_(i+2),
    B_1 = B_3, B_2 = B_4 and 2 B_i = C_(i-1) + C_(i+1) for i = 1, 2
    (indices cyclic); each value is |left - right|."""
    out = {f"A{i + 1}-C{(i + 2) % 4 + 1}": ga[i] - gc[(i + 2) % 4] for i in range(4)}
    out["B1-B3"], out["B2-B4"] = gb[0] - gb[2], gb[1] - gb[3]
    out["2B1-C2-C4"] = 2.0 * gb[0] - gc[3] - gc[1]
    out["2B2-C1-C3"] = 2.0 * gb[1] - gc[0] - gc[2]
    return {k: abs(float(v)) for k, v in out.items()}


def equivalence_row_pointwise(spec, p, f4_tol: float, nq_tol: float) -> dict:
    """One parallel-scan row from the per-point API, with the gradient
    conditions restated (`gradient_conditions`)."""
    from circgeo.core import metric_at
    from circgeo.tensor import christoffel_from_metric, nabla_q

    m = metric_at(spec, p)
    ch = christoffel_from_metric(m)
    ga, gb, gc = m.jet_a.grad, m.jet_b.grad, m.jet_c.grad
    gradient = max(gradient_conditions(ga, gb, gc).values())
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


def _entry(name, point, entries, tolerance, payload) -> dict:
    """A report entry restated: each residual with its scale, failing where
    residual / max(1, scale) exceeds the tolerance."""
    failed = any(r / max(1.0, s) > tolerance for r, s in entries.values())
    return {
        "name": name,
        "point": None if point is None else [float(v) for v in point],
        "residuals": {k: float(r) for k, (r, _) in entries.items()},
        "tolerance": float(tolerance),
        "status": "fail" if failed else "pass",
        "payload": {**payload, "scales": {k: float(s) for k, (_, s) in entries.items()}},
    }


def _skipped(name, point, tolerance, reason) -> dict:
    return {
        "name": name,
        "point": [float(v) for v in point],
        "residuals": {},
        "tolerance": float(tolerance),
        "status": "skipped",
        "payload": {"reason": reason},
    }


def isometry_entry(m, pairs, tolerance) -> dict:
    """g(q^k x, q^k y) = g(x, y), k = 1, 2, 3, over the pairs (2, S, 4)."""
    g = m.matrix
    xs, ys = pairs
    base = np.einsum("ni,ij,nj->n", xs, g, ys)
    scale = float(np.max(np.abs(base)))
    entries = {}
    for k in (1, 2, 3):
        shifted = np.einsum("ni,ij,nj->n", np.roll(xs, -k, axis=1), g, np.roll(ys, -k, axis=1))
        entries[f"q{k}"] = (float(np.max(np.abs(shifted - base))), scale)
    return _entry("isometry", m.point, entries, tolerance, {"samples": xs.shape[0]})


def parallel_condition_entry(m, tolerance) -> dict:
    ga, gb, gc = m.jet_a.grad, m.jet_b.grad, m.jet_c.grad
    scale = float(np.max(np.abs(np.concatenate((ga, gb, gc)))))
    entries = {k: (v, scale) for k, v in gradient_conditions(ga, gb, gc).items()}
    payload = {"grad_A": ga.tolist(), "grad_B": gb.tolist(), "grad_C": gc.tolist()}
    return _entry("parallel-condition", m.point, entries, tolerance, payload)


def curvature_identity_entry(m, r, tolerance) -> dict:
    """R(e_i, e_j, q e_k, q e_l) = R_ijkl, with q e_k = e_(k-1)."""
    shifted = np.roll(r.r_low, 1, axis=(2, 3))
    norm = float(np.max(np.abs(r.r_low)))
    entries = {"max": (float(np.max(np.abs(shifted - r.r_low))), norm)}
    return _entry("curvature-identity", m.point, entries, tolerance, {})


def integrability_entry(m, r, tolerance) -> dict:
    """q R(x, y) z = R(x, y) q z on R^l_ijk ((q v)^s = v^(s+1) on the output
    slot l, q e_k = e_(k-1) on the argument k)."""
    mixed = r.r_mixed
    primary = float(np.max(np.abs(np.roll(mixed, -1, axis=0) - np.roll(mixed, 1, axis=3))))
    entries = {"primary": (primary, float(np.max(np.abs(mixed))))}
    return _entry("integrability", m.point, entries, tolerance, {})


def sectional_entry(m, r, xs, tolerance) -> dict:
    """Equal ring curvatures and flat diagonal planes over the q-basis
    planes of each vector of xs, one `sectional_curvature` call per plane
    (`sectional_planes_loop`, which raises at the first degenerate plane)."""
    mu = sectional_planes_loop(m, r, xs).reshape(len(xs), 6)
    ring, diag = mu[:, :4], mu[:, 4:]
    spread = float(np.max(ring.max(axis=1) - ring.min(axis=1), initial=0.0))
    entries = {
        "ring_spread": (spread, float(np.max(np.abs(ring), initial=0.0))),
        "mu_x_q2x": (float(np.max(np.abs(diag[:, 0]), initial=0.0)), r.norm_inf),
        "mu_qx_q3x": (float(np.max(np.abs(diag[:, 1]), initial=0.0)), r.norm_inf),
    }
    first = {"ring": mu[0, :4].tolist(), "diagonal": mu[0, 4:].tolist()} if len(xs) else None
    payload = {"vectors": len(xs), "first_vector_values": first}
    return _entry("sectional-relations", m.point, entries, tolerance, payload)


def equivalence_entry(rows, f4_tol, nq_tol, tolerance) -> dict:
    disagreements = sum(row["gradient_holds"] != row["parallel_holds"] for row in rows)
    payload = {"gradient_tolerance": f4_tol, "nabla_q_tolerance": nq_tol, "points": rows}
    entries = {"disagreements": (float(disagreements), 1.0)}
    return _entry("parallel-equivalence", None, entries, tolerance, payload)


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

    Each point gets its own metric, connection and curvature and the same
    per-point random streams [seed, point index, k].  Isometry, the
    parallel condition, the curvature identity, integrability and the
    parallel equivalence are restated above with numpy; sectional-relations
    uses one public `sectional_curvature` call per plane, and mu-law one
    scalar contraction per case (`mu_law_case_scalar`).  The first error
    raised is the one the batched suite must raise.  The q-basis
    (`core.find_orthogonal_q_basis`, the one-point case of the suite's
    block helper) and the sectional sampler are looked up at each call, so
    a test can replace them for both.
    """
    import circgeo.core as core
    import circgeo.verify as v
    from circgeo.tensor import christoffel_from_metric, riemann_from_christoffel

    selected = list(v.KNOWN_CHECKS) if checks is None else list(checks)
    tols = {**v.DEFAULT_TOLERANCES, **(tolerances or {})}
    gated = "curvature identity does not hold at this point"
    reports, rows = [], []
    for idx, p in enumerate(points):
        streams = [np.random.default_rng([seed, idx, k]) for k in range(4)]
        m = core.metric_at(spec, p)
        r = riemann_from_christoffel(m, christoffel_from_metric(m))
        row = equivalence_row_pointwise(spec, p, tols["parallel-condition"], tols["nabla-q"])
        rows.append(row)

        if "isometry" in selected:
            pairs = streams[0].uniform(-1.0, 1.0, (2, isometry_samples, 4))
            reports.append(isometry_entry(m, pairs, tols["isometry"]))
        if "parallel-condition" in selected:
            reports.append(parallel_condition_entry(m, tols["parallel-condition"]))
        identity = curvature_identity_entry(m, r, tols["curvature-identity"])
        if "curvature-identity" in selected:
            reports.append(identity)
        if "integrability" in selected:
            entry = integrability_entry(m, r, tols["integrability"])
            if not (row["gradient_holds"] and row["parallel_holds"]):
                entry["payload"]["reason"] = (
                    "nabla q does not vanish here; residual recorded without a pass expectation"
                )
                entry["status"] = "skipped"
            reports.append(entry)

        holds = identity["status"] == "pass"
        if "sectional-relations" in selected:
            tol = tols["sectional-relations"]
            if holds:
                xs = v.sample_q_basis_vectors(streams[1], sectional_samples)
                reports.append(sectional_entry(m, r, xs, tol))
            else:
                reports.append(_skipped("sectional-relations", m.point, tol, gated))

        if "mu-law" in selected:
            if holds:
                basis = core.find_orthogonal_q_basis(m, seed=streams[2])
                coeffs = v._unit_coefficients(streams[3], mu_samples)
                cases = [mu_law_case_scalar(r, basis, c) for c in coeffs]
                worst = max(
                    (abs(c["direct"] - c["expansion_prediction"]) for c in cases if c["q_basis"]),
                    default=0.0,
                )
                payload = {"basis": basis.tolist(), "cases": cases}
                payload["angle_law_prediction"] = angle_law_scalar(r.r_low, basis)
                reports.append(
                    _entry(
                        "mu-law",
                        m.point,
                        {"expansion_max": (worst, r.norm_inf)},
                        tols["mu-law"],
                        payload,
                    )
                )
            else:
                reports.append(_skipped("mu-law", m.point, tols["mu-law"], gated))

    if "parallel-equivalence" in selected and rows:
        reports.append(
            equivalence_entry(
                rows, tols["parallel-condition"], tols["nabla-q"], tols["parallel-equivalence"]
            )
        )
    return {"spec": spec.name, "convention": v.convention_text(), "checks": reports}


# Report fields drawn from the random streams; they must match bit for bit.
SAMPLED_KEYS = frozenset({"basis", "coefficients"})


def assert_reports_match(got, want, atol: float = 1e-12, path=()):
    """Same structure, keys, strings, flags and None; sampled values
    identical; every other number within atol absolute.  A `Table` on
    either side is compared as its list of rows, row by row."""
    got, want = (list(v) if isinstance(v, Table) else v for v in (got, want))
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


# ---------------------------------------------------------------------------
# Reference writers: the report serialiser and scan printer that wrote one
# Python dict per row, before the rows were held as columns
# ---------------------------------------------------------------------------


def plain_report(value):
    """The report with every `Table` replaced by its list of row dicts."""
    if isinstance(value, Table):
        return list(value)
    if isinstance(value, dict):
        return {k: plain_report(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain_report(v) for v in value]
    return value


def report_to_json_reference(report) -> str:
    text = json.dumps(plain_report(report), sort_keys=True, allow_nan=False, separators=(",", ":"))
    return text + "\n"


def scan_stdout_reference(report) -> str:
    """What `circgeo scan` printed, one print per row."""
    inner = report["report"]
    lines = [
        f"spec: {report['spec']}  scan={report['check']} grid={report['grid']} "
        f"-> {inner['status']} (disagreements: {inner['residuals']['disagreements']!r})"
    ]
    for row in plain_report(inner["payload"]["points"]):
        lines.append(
            f"  {row['point']!r} gradient={row['gradient_residual']!r} "
            f"nabla_q={row['nabla_q_residual']!r} "
            f"holds=({row['gradient_holds']}, {row['parallel_holds']})"
        )
    return "".join(line + "\n" for line in lines)
