"""Residual checks: positive cases, negative controls, gating and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgeo.core import (
    ManifoldSpec,
    MetricAtPoint,
    SingularMetricError,
    circulant_matrix,
    cos_angle,
    find_orthogonal_q_basis,
    induces_q_basis,
    metric_at,
    q_apply,
)
from circgeo.expr import DomainError
from circgeo.tensor import DegeneratePlaneError, christoffel_from_metric, riemann_from_christoffel
from circgeo.verify import (
    DEFAULT_TOLERANCES,
    KNOWN_CHECKS,
    QBasisCoefficients,
    _draw_rows,
    _isometry_reports,
    _sectional_entries,
    _unit_coefficients,
    coeff_angles,
    mu_law_cases,
    report_to_json,
    run_suite,
    sample_q_basis_vectors,
)

from oracles import (
    assert_reports_match,
    equivalence_row_pointwise,
    first_error_pointwise,
    mu_law_case_scalar,
    report_to_json_reference,
    run_suite_pointwise,
    sectional_planes_loop,
    sequential_rows,
    sequential_unit_coefficients,
)

ORIGIN = [0.0, 0.0, 0.0, 0.0]


def riemann_of(spec, p):
    m = metric_at(spec, p)
    return m, riemann_from_christoffel(m, christoffel_from_metric(m))


def single_entry(spec, points, name, **kwargs) -> dict:
    """The one report entry of check `name`: at one point, or the
    parallel-equivalence entry over many."""
    (entry,) = run_suite(spec, points, checks=[name], **kwargs)["checks"]
    return entry


def _passes(entries, name) -> bool:
    """The suite's verdict on (residual, scale) entries at the default tolerance."""
    tolerance = DEFAULT_TOLERANCES[name]
    return all(r / max(1.0, s) <= tolerance for r, s in entries.values())


# ---------------------------------------------------------------------------
# Isometry
# ---------------------------------------------------------------------------


def test_isometry_passes_on_circulant_metrics():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = rng.uniform(0.1, 2)
        c = b + rng.uniform(0.1, 2)
        a = c + rng.uniform(0.1, 2)
        spec = _spec(repr(a), repr(b), repr(c))
        rep = single_entry(spec, [ORIGIN], "isometry", seed=1, isometry_samples=1000)
        assert rep["status"] == "pass"


def test_isometry_negative_control():
    bad = circulant_matrix(4.0, 1.0, 2.0)
    bad[0, 1] = 3.0  # break the circulant pattern
    bad[1, 0] = 3.0
    pairs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1, 2, 200, 4))
    tolerance = DEFAULT_TOLERANCES["isometry"]
    (rep,) = _isometry_reports([None], bad[None], pairs, tolerance)
    assert rep.status == "fail"
    (loose,) = _isometry_reports([None], bad[None], pairs, 10.0)
    assert (loose.status, loose.tolerance, loose.residuals) == ("pass", 10.0, rep.residuals)


# ---------------------------------------------------------------------------
# Parallel condition
# ---------------------------------------------------------------------------


def test_parallel_condition_curved_par(curved_par):
    rep = single_entry(curved_par, [[0.3, -0.2, 0.1, 0.4]], "parallel-condition")
    assert rep["status"] == "pass"
    assert max(rep["residuals"].values()) <= 1e-15


def test_parallel_condition_constants(const_spec):
    rep = single_entry(const_spec, [ORIGIN], "parallel-condition")
    assert rep["status"] == "pass"
    assert all(v == 0.0 for v in rep["residuals"].values())


def test_parallel_condition_nonpar_residual(nonpar):
    rep = single_entry(nonpar, [[1, 0, 0, 0]], "parallel-condition")
    assert rep["status"] == "fail"
    assert abs(rep["residuals"]["A1-C3"] - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# Parallel equivalence over grids
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["nonpar", "curved_par"])
def test_equivalence_blocks_match_pointwise_rows(name, request):
    # 625 points: three blocks, the last one partial.
    spec = request.getfixturevalue(name)
    points = spec.domain.grid(5)
    f4_tol, nq_tol = DEFAULT_TOLERANCES["parallel-condition"], DEFAULT_TOLERANCES["nabla-q"]
    rows = single_entry(spec, points, "parallel-equivalence")["payload"]["points"]
    assert len(rows) == len(points)
    for row, p in zip(rows, points):
        expected = equivalence_row_pointwise(spec, p, f4_tol, nq_tol)
        assert row.keys() == expected.keys()
        for key, value in expected.items():
            if isinstance(value, bool):
                assert row[key] is value, key
            else:
                assert np.max(np.abs(np.subtract(row[key], value))) <= 1e-12, key


def _spec(A, B="1", C="2", box=1.0):
    return ManifoldSpec.from_dict(
        {"name": "probe", "A": A, "B": B, "C": C, "domain": {"min": [-box] * 4, "max": [box] * 4}}
    )


GRID_5 = _spec("4").domain.grid(5)


@pytest.mark.parametrize(
    "spec,points",
    [
        # Point 0 fails only at log; later points fail at sqrt, an earlier node.
        (_spec("4 + sqrt(0.5 - x4) + log(x1 + 0.5)"), GRID_5),
        # The first failure lies in the second block.
        (_spec("4 + log(0.2 - x1)"), GRID_5),
        # Admissibility fails (C > A from x4 = 0 on) before the log does.
        (_spec("4 + log(0.2 - x1)", C="2 + 3*(x4 + 1)"), GRID_5),
        # A field error at a point beats the vanishing inverse there ...
        (_spec("1e-200*(4 + log(x1 + 0.5))", B="1e-200", C="2e-200"), GRID_5),
        # ... and the vanishing inverse is found when nothing fails earlier.
        (_spec("1e-200*(4 + log(x1 + 1.5))", B="1e-200", C="2e-200"), GRID_5),
        # The domain check comes first at a point, and order decides between points.
        (_spec("4 + log(x1 + 0.5)"), [[0, 0, 0, 0], [-0.9, 0, 0, 0], [5, 0, 0, 0]]),
        (_spec("4 + log(x1 + 0.5)"), [[0, 0, 0, 0], [5, 0, 0, 0], [-0.9, 0, 0, 0]]),
        (_spec("4 + log(x1 + 0.5)"), [[0, 0, 0, 0], [np.inf, 0, 0, 0], [-0.9, 0, 0, 0]]),
        # Fields are evaluated A, B, C at each point.
        (_spec("4 + log(x1 + 0.5)", B="1 + 0*sqrt(x2 + 0.5)"), GRID_5),
    ],
)
def test_equivalence_raises_the_pointwise_first_error(spec, points):
    expected = first_error_pointwise(spec, points)
    assert expected is not None
    with pytest.raises(type(expected)) as err:
        run_suite(spec, points, checks=["parallel-equivalence"])
    assert str(err.value) == str(expected)


def test_equivalence_curved_par_grid(curved_par):
    rep = single_entry(curved_par, curved_par.domain.grid(3), "parallel-equivalence")
    assert rep["status"] == "pass"
    rows = rep["payload"]["points"]
    assert all(r["gradient_holds"] and r["parallel_holds"] for r in rows)
    assert max(r["nabla_q_residual"] for r in rows) <= 1e-9


def test_equivalence_flat_par_grid(flat_par):
    rep = single_entry(flat_par, flat_par.domain.grid(3), "parallel-equivalence")
    assert rep["status"] == "pass"
    assert all(
        r["gradient_holds"] and r["parallel_holds"] for r in rep["payload"]["points"]
    )


def test_equivalence_nonpar_grid(nonpar):
    rep = single_entry(nonpar, nonpar.domain.grid(3), "parallel-equivalence")
    # Both predicates are false wherever x1 != 0, so they never disagree.
    assert rep["status"] == "pass"
    for row in rep["payload"]["points"]:
        if abs(row["point"][0]) > 0:
            assert not row["gradient_holds"] and not row["parallel_holds"]
        else:
            assert row["gradient_holds"] and row["parallel_holds"]


# ---------------------------------------------------------------------------
# Curvature identity and integrability
# ---------------------------------------------------------------------------


def test_curvature_identity_flat(const_spec):
    rep = single_entry(const_spec, [ORIGIN], "curvature-identity")
    assert rep["status"] == "pass" and rep["residuals"]["max"] == 0.0


def test_curvature_identity_curved_par(curved_par):
    assert single_entry(curved_par, [ORIGIN], "curvature-identity")["status"] == "pass"


def test_curvature_identity_fails_on_nonpar(nonpar):
    rep = single_entry(nonpar, [[1, 0, 0, 0]], "curvature-identity")
    assert rep["status"] == "fail"
    assert rep["residuals"]["max"] > 1e-3


def test_integrability_curved_par(curved_par):
    rep = single_entry(curved_par, [ORIGIN], "integrability")
    assert rep["status"] == "pass"
    assert rep["payload"]["alternate_raising_residual"] <= 1e-9


def test_integrability_residual_reported_on_nonpar(nonpar):
    rep = single_entry(nonpar, [[1, 0, 0, 0]], "integrability")
    assert rep["status"] == "skipped"  # nabla q does not vanish there
    assert "primary" in rep["residuals"]  # recorded either way


# ---------------------------------------------------------------------------
# Sectional relations
# ---------------------------------------------------------------------------


def sectional_passes(spec, p, x) -> bool:
    m, r = riemann_of(spec, p)
    [(entries, _)], (bad, _) = _sectional_entries(
        m.matrix[None], r.r_low[None], np.asarray(x, float)[None, None]
    )
    assert not bad.any()
    return _passes(entries, "sectional-relations")


def test_sectional_relations_curved_par(curved_par):
    rng = np.random.default_rng(12)
    for x in sample_q_basis_vectors(rng, 10):
        assert sectional_passes(curved_par, ORIGIN, x)


def test_sectional_relations_flat(flat_par):
    assert sectional_passes(flat_par, [0.1, 0.1, 0.1, 0.1], [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# Coefficient angles and the mu law
# ---------------------------------------------------------------------------


def test_coeff_angles_pinned():
    plain = coeff_angles(QBasisCoefficients(1, 0, 0, 0))
    assert (plain.cos_phi, plain.cos_theta) == (0.0, 0.0)
    degenerate = coeff_angles(QBasisCoefficients(0.5, 0.5, 0.5, 0.5))
    assert (degenerate.cos_phi, degenerate.cos_theta) == (1.0, 1.0)
    mixed = coeff_angles(QBasisCoefficients(0.8, 0.6, 0, 0))
    assert abs(mixed.cos_phi - 0.48) <= 1e-15
    assert mixed.cos_theta == 0.0


def test_coeff_angles_requires_unit_norm():
    with pytest.raises(ValueError):
        coeff_angles(QBasisCoefficients(1, 1, 0, 0))


def test_coeff_angles_cross_checked_against_metric_angle():
    m = MetricAtPoint.from_constants(4, 1, 2)
    x = find_orthogonal_q_basis(m, seed=2)
    u = 0.8 * x + 0.6 * q_apply(x, 1)
    assert abs(cos_angle(m, u, q_apply(u, 1)) - 0.48) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1, 1) for _ in range(4)]))
def test_expansion_bracket_equals_angle_factor(raw):
    # The quartic coefficient bracket collapses to (1 - cos theta)^2 at unit
    # norm: pure algebra, no geometry involved.
    v = np.asarray(raw)
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        return
    a, b, g, d = (v / norm).tolist()
    bracket = (
        (a * a + g * g - 2 * b * d) ** 2
        + (b * b + d * d - 2 * g * a) ** 2
        + 2 * (a * a + g * g - 2 * b * d) * (b * b + d * d - 2 * g * a)
    )
    cos_theta = 2 * a * g + 2 * b * d
    assert abs(bracket - (1 - cos_theta) ** 2) <= 1e-12


def pinned_mu_case(spec, p, c: QBasisCoefficients) -> dict:
    """The mu-law case of the pinned coefficients c in the q-basis of seed
    3; asserts that it passes as the suite would judge it."""
    m, r = riemann_of(spec, p)
    (case,), worst = mu_law_cases(r, find_orthogonal_q_basis(m, seed=3), c.as_array()[None])
    assert case["q_basis"]
    assert _passes({"expansion_max": (worst, r.norm_inf)}, "mu-law")
    return case


def test_mu_law_identity_coefficients(curved_par):
    case = pinned_mu_case(curved_par, ORIGIN, QBasisCoefficients(1, 0, 0, 0))
    rep = single_entry(curved_par, [ORIGIN], "mu-law", mu_samples=5)
    assert rep["status"] == "pass"
    assert rep["residuals"].keys() == {"expansion_max"}  # the suite's residual name
    assert case["direct"] == pytest.approx(case["expansion_prediction"], abs=1e-15)
    assert case["direct"] == pytest.approx(case["angle_law_prediction"], abs=1e-15)


def test_mu_law_cos_theta_zero(curved_par):
    case = pinned_mu_case(curved_par, ORIGIN, QBasisCoefficients(0.8, 0.6, 0, 0))
    # cos theta = 0: the expansion predicts exactly the base plane value.
    assert case["cos_theta"] == 0.0
    assert case["expansion_prediction"] == pytest.approx(case["angle_law_prediction"], rel=1e-12)


def test_mu_law_adjudication_case(curved_par):
    # cos theta = 0.96 separates the two predictions by (1 - cos theta)^2;
    # the direct contraction sides with the coefficient expansion.
    case = pinned_mu_case(curved_par, ORIGIN, QBasisCoefficients(0.8, 0, 0.6, 0))
    assert abs(case["cos_theta"] - 0.96) <= 1e-12
    assert case["expansion_prediction"] == pytest.approx(
        0.0016 * case["angle_law_prediction"], rel=1e-9
    )
    assert case["direct"] == pytest.approx(case["expansion_prediction"], abs=1e-12)
    assert abs(case["ratio_direct_to_angle_law"] - (1 - 0.96) ** 2) <= 1e-9


# ---------------------------------------------------------------------------
# Suite assembly, gating, determinism
# ---------------------------------------------------------------------------


def test_suite_schema_and_gating_nonpar(nonpar):
    report = run_suite(nonpar, [[1, 0, 0, 0]], seed=5, mu_samples=5, sectional_samples=5)
    assert set(report.keys()) == {"spec", "convention", "checks"}
    by_name = {c["name"]: c for c in report["checks"]}
    assert set(by_name) == set(KNOWN_CHECKS)
    for entry in report["checks"]:
        assert set(entry.keys()) == {
            "name",
            "point",
            "residuals",
            "tolerance",
            "status",
            "payload",
        }
    assert by_name["isometry"]["status"] == "pass"
    assert by_name["parallel-condition"]["status"] == "fail"
    assert by_name["curvature-identity"]["status"] == "fail"
    assert by_name["integrability"]["status"] == "skipped"
    assert "primary" in by_name["integrability"]["residuals"]
    assert by_name["sectional-relations"]["status"] == "skipped"
    assert by_name["mu-law"]["status"] == "skipped"
    assert by_name["parallel-equivalence"]["status"] == "pass"


def test_suite_all_pass_on_curved_par(curved_par):
    report = run_suite(
        curved_par, [ORIGIN], seed=5, mu_samples=20, sectional_samples=10
    )
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert all(s == "pass" for s in statuses.values()), statuses


def test_suite_deterministic(curved_par):
    kwargs = dict(seed=11, mu_samples=10, sectional_samples=5)
    a = report_to_json(run_suite(curved_par, [ORIGIN], **kwargs))
    b = report_to_json(run_suite(curved_par, [ORIGIN], **kwargs))
    assert a == b


def test_equal_reports_compare_equal(curved_par):
    # The scan rows and the mu-law cases are Tables; equal tables compare equal.
    kwargs = dict(seed=11, mu_samples=10, sectional_samples=5)
    a = run_suite(curved_par, [ORIGIN, [0.1, 0.0, 0.0, 0.1]], **kwargs)
    assert a == run_suite(curved_par, [ORIGIN, [0.1, 0.0, 0.0, 0.1]], **kwargs)
    assert a != run_suite(curved_par, [ORIGIN, [0.1, 0.0, 0.0, 0.1]], **{**kwargs, "seed": 12})


def test_empty_check_selection_runs_nothing(curved_par):
    # The benchmark's check-cost baseline: the block geometry and no check.
    assert run_suite(curved_par, curved_par.domain.grid(2), checks=[])["checks"] == []


def test_suite_tolerance_override(nonpar):
    report = run_suite(
        nonpar,
        [[1, 0, 0, 0]],
        checks=["parallel-condition"],
        tolerances={"parallel-condition": 10.0},
    )
    assert report["checks"][0]["status"] == "pass"


def test_suite_computes_geometry_once_per_block(nonpar, monkeypatch):
    import circgeo.tensor as tensor
    import circgeo.verify as verify

    calls = {"_christoffel_block": 0, "_riemann": 0}
    for module, name in ((verify, "_christoffel_block"), (tensor, "_riemann")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for name in ("metric_at", "christoffel_from_metric", "riemann_from_christoffel"):
        assert not hasattr(verify, name)  # the suite makes no per-point call
    points = nonpar.domain.grid(5)  # 625 points: three blocks
    run_suite(nonpar, points, seed=3, mu_samples=5, sectional_samples=5, isometry_samples=10)
    assert calls == {"_christoffel_block": 3, "_riemann": 3}


SMALL = dict(seed=1, isometry_samples=20, sectional_samples=4, mu_samples=4)
# Flat to second order only where x1 = 0 (points 250 to 374 of GRID_5).
CUBIC = _spec("4 + x1^3")
# Flat where defined (so every check runs); log fails from x1 = 0.2 on, first
# at point 375 of GRID_5, in the second block.
FLAT_UNTIL_X1_02 = _spec("4 + 0*log(0.2 - x1)")
INADMISSIBLE_FROM_X1_08 = _spec("4 - 2.5*x1")


@pytest.mark.parametrize(
    "name,grid",
    [
        ("const_spec", 3),
        ("flat_par", 3),
        ("curved_par", 3),
        ("nonpar", 3),
        ("nonpar", 5),
        ("cubic", 5),
    ],
)
def test_suite_matches_pointwise_oracle(name, grid, request):
    # Grid 5 is 625 points: three blocks, the last one partial.  On `cubic`
    # the curvature identity holds on part of a block only.
    spec = CUBIC if name == "cubic" else request.getfixturevalue(name)
    points = spec.domain.grid(grid)
    got = run_suite(spec, points, seed=5)
    want = run_suite_pointwise(spec, points, seed=5)
    assert len(got["checks"]) == len(want["checks"]) == 6 * len(points) + 1
    assert_reports_match(got, want)


def test_suite_matches_pointwise_oracle_on_selected_checks(curved_par):
    points = curved_par.domain.grid(2)
    kwargs = dict(checks=["mu-law", "isometry"], seed=2, tolerances={"isometry": 0.5})
    got = run_suite(curved_par, points, mu_samples=7, isometry_samples=30, **kwargs)
    want = run_suite_pointwise(curved_par, points, mu_samples=7, isometry_samples=30, **kwargs)
    assert [c["name"] for c in got["checks"][:2]] == ["isometry", "mu-law"]
    assert_reports_match(got, want)


@pytest.mark.parametrize(
    "spec,points",
    [
        (FLAT_UNTIL_X1_02, GRID_5),
        (_spec("4 + log(0.2 - x1)"), GRID_5),
        # The domain check comes before admissibility at a point ...
        (INADMISSIBLE_FROM_X1_08, [[0, 0, 0, 0], [5, 0, 0, 0], [0.9, 0, 0, 0]]),
        # ... and between points, order decides.
        (INADMISSIBLE_FROM_X1_08, [[0, 0, 0, 0], [0.9, 0, 0, 0], [5, 0, 0, 0]]),
        (INADMISSIBLE_FROM_X1_08, [[5, 0, 0, 0]]),
    ],
)
def test_suite_raises_the_pointwise_first_geometry_error(spec, points):
    with pytest.raises(ValueError) as want:
        run_suite_pointwise(spec, points, **SMALL)
    with pytest.raises(type(want.value)) as got:
        run_suite(spec, points, **SMALL)
    assert str(got.value) == str(want.value)


def _failing_checks(
    monkeypatch, basis_at: int | None, degenerate_at: int | None, unit_at: int | None = None
):
    """Make the q-basis of one point index fail its acceptance test, the
    sectional vectors of another point span no plane and the mu-law
    coefficients of a third fail the unit-norm test of the cosines (the
    k-th call samples point k while the curvature identity holds
    everywhere).  The failing q-basis is told by its angle, the one point
    `basis_at`'s stream draws."""
    import circgeo.core as core
    import circgeo.verify as verify

    bases, sample = core._orthogonal_q_bases, verify.sample_q_basis_vectors
    unit = verify._unit_coefficients
    target = None
    if basis_at is not None:
        target = core._basis_draws(np.random.default_rng([SMALL["seed"], basis_at, 2]))[0]
    calls = []

    def failing_bases(a, b, c, t, s0, s2):
        x, (bad, make) = bases(a, b, c, t, s0, s2)
        hit = t == target

        def make_failing(i):
            if hit[i]:
                return SingularMetricError(f"no orthogonal q-basis at point {basis_at}")
            return make(i)

        return x, (bad | hit, make_failing)

    def degenerate_sample(rng, n):
        calls.append("sectional")
        xs = sample(rng, n)
        if calls.count("sectional") - 1 == degenerate_at:
            xs[-1] = [1.0, 0.0, 1.0, 0.0]  # x = q^2 x
        return xs

    def off_unit_coefficients(rng, n):
        calls.append("mu-law")
        rows = unit(rng, n)
        if calls.count("mu-law") - 1 == unit_at:
            rows[-1] *= 2.0  # |u|^2 = 4
        return rows

    # The suite calls the block helper; the pointwise oracle reaches it
    # through `find_orthogonal_q_basis`.
    monkeypatch.setattr(core, "_orthogonal_q_bases", failing_bases)
    monkeypatch.setattr(verify, "_orthogonal_q_bases", failing_bases)
    monkeypatch.setattr(verify, "sample_q_basis_vectors", degenerate_sample)
    monkeypatch.setattr(verify, "_unit_coefficients", off_unit_coefficients)
    return calls


# A - C is 1e-9 where x1 = 0 (points 250 to 374 of GRID_5), too ill-conditioned
# for a 1e-10-accurate q-basis, and the metric is flat to second order there,
# so the curvature identity holds and mu-law runs.
NEAR_EQUAL_A_C = _spec("2.000000001 + x1^4")


@pytest.mark.parametrize(
    "spec,basis_at,degenerate_at,expected",
    [
        (FLAT_UNTIL_X1_02, 40, None, SingularMetricError),  # before the geometry error at 375
        (FLAT_UNTIL_X1_02, 300, None, SingularMetricError),  # ... also in the second block
        (FLAT_UNTIL_X1_02, 400, None, DomainError),  # the geometry error comes first
        (FLAT_UNTIL_X1_02, 40, 30, DegeneratePlaneError),  # the earlier point
        (FLAT_UNTIL_X1_02, 30, 30, DegeneratePlaneError),  # sectional before mu-law at a point
        (FLAT_UNTIL_X1_02, 30, 40, SingularMetricError),
        # The checks gated on the identity run on a subset of the points.
        (CUBIC, 260, 5, DegeneratePlaneError),  # the 6th such point is 255
        (CUBIC, 260, 20, SingularMetricError),  # the 21st is 270
        (CUBIC, 260, None, SingularMetricError),
        # Not patched: the closed form itself fails its test, first at point 250.
        (NEAR_EQUAL_A_C, None, None, SingularMetricError),
    ],
)
def test_suite_raises_the_pointwise_first_check_error(
    monkeypatch, spec, basis_at, degenerate_at, expected
):
    calls = _failing_checks(monkeypatch, basis_at, degenerate_at)
    with pytest.raises(expected) as want:
        run_suite_pointwise(spec, GRID_5, **SMALL)
    calls.clear()
    with pytest.raises(expected) as got:
        run_suite(spec, GRID_5, **SMALL)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "spec,basis_at,degenerate_at,unit_at,expected",
    [
        # Runs of about 3 isometry points, 2 sectional points and 8 mu-law
        # points: the first failing point lies past the first run of its check.
        (FLAT_UNTIL_X1_02, None, 31, None, DegeneratePlaneError),
        (FLAT_UNTIL_X1_02, None, None, 41, ValueError),  # coefficients off unit norm
        (FLAT_UNTIL_X1_02, None, 41, 31, ValueError),  # the earlier point, another run
        (FLAT_UNTIL_X1_02, None, 31, 41, DegeneratePlaneError),
        (FLAT_UNTIL_X1_02, None, 41, 41, DegeneratePlaneError),  # sectional first at a point
        (FLAT_UNTIL_X1_02, 41, None, 41, SingularMetricError),  # the q-basis, then cosines
        (FLAT_UNTIL_X1_02, None, None, 300, ValueError),  # in the second block
        (FLAT_UNTIL_X1_02, None, None, 400, DomainError),  # the geometry error comes first
        (CUBIC, None, 21, None, DegeneratePlaneError),  # the 22nd point of the identity: 271
        (CUBIC, 300, None, 21, ValueError),
        (CUBIC, 262, None, 21, SingularMetricError),  # 262 is the 13th point of the identity
    ],
)
def test_suite_raises_the_pointwise_first_error_across_sample_runs(
    monkeypatch, spec, basis_at, degenerate_at, unit_at, expected
):
    import circgeo.verify as verify

    calls = _failing_checks(monkeypatch, basis_at, degenerate_at, unit_at)
    with pytest.raises(expected) as want:
        run_suite_pointwise(spec, GRID_5, **SMALL)
    monkeypatch.setattr(verify, "_SAMPLE_BYTES", 1 << 12)
    # Floats a point of each check's widest array at SMALL: isometry pairs
    # 8 x 20, sectional planes 96 x 4, mu-law cases 16 x 4.
    assert [len(verify._sub_blocks(np.arange(10), k)) for k in (160, 384, 64)] == [3, 5, 1]
    calls.clear()
    with pytest.raises(expected) as got:
        run_suite(spec, GRID_5, **SMALL)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("count", [1, 2, 7, 81])
def test_reports_do_not_depend_on_how_the_sampled_checks_cut_a_block(
    monkeypatch, curved_par, count
):
    # Runs of 2 (and 3), 3 to 20 points (the default), and one run a block.
    import circgeo.verify as verify

    points = curved_par.domain.grid(3)[:count]
    texts = []
    for budget in (1, 1 << 12, verify._SAMPLE_BYTES, 1 << 40):
        monkeypatch.setattr(verify, "_SAMPLE_BYTES", budget)
        report = run_suite(curved_par, points, seed=5)
        texts.append(report_to_json(report))
        assert texts[-1] == report_to_json_reference(report)
    assert texts[1:] == texts[:-1]


def test_singular_metric_errors_name_the_point():
    # Grid index 250 is the first point where x1 = 0.
    where = f"at point {GRID_5[250].tolist()}"
    with pytest.raises(SingularMetricError, match="Gram residual") as suite:
        run_suite(NEAR_EQUAL_A_C, GRID_5, **SMALL)
    assert str(suite.value).endswith(where)
    # The one-point API names the point of a metric that has one ...
    with pytest.raises(SingularMetricError) as one:
        find_orthogonal_q_basis(metric_at(NEAR_EQUAL_A_C, GRID_5[250]), seed=[1, 250, 2])
    assert str(one.value) == str(suite.value)
    # ... and the inverse names it too, in the scan and at one point.
    vanishing = _spec("1e-200*(4 + log(x1 + 1.5))", B="1e-200", C="2e-200")
    with pytest.raises(SingularMetricError, match="determinant factor is zero") as scan:
        run_suite(vanishing, GRID_5, checks=["parallel-equivalence"])
    assert str(scan.value).endswith(f"at point {GRID_5[0].tolist()}")
    with pytest.raises(SingularMetricError) as one:
        christoffel_from_metric(metric_at(vanishing, GRID_5[0]))
    assert str(one.value) == str(scan.value)
    # A metric built from constants has no point to name.
    with pytest.raises(SingularMetricError) as constant:
        find_orthogonal_q_basis(MetricAtPoint.from_constants(2.000000001, 1.0, 2.0))
    assert "at point" not in str(constant.value)


def test_curvature_is_computed_only_for_checks_that_need_it(curved_par, monkeypatch):
    import circgeo.tensor as tensor

    calls = []
    original = tensor._riemann

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(tensor, "_riemann", counted)
    points = curved_par.domain.grid(8)  # 4096 points: 16 blocks
    for name in ("parallel-equivalence", "parallel-condition", "isometry"):
        run_suite(curved_par, points, checks=[name], isometry_samples=2)
        assert not calls, name
    run_suite(curved_par, points, isometry_samples=2, sectional_samples=1, mu_samples=1)
    assert len(calls) == 16


def test_suite_rejects_unknown_names(curved_par):
    with pytest.raises(ValueError):
        run_suite(curved_par, [ORIGIN], checks=["nope"])
    with pytest.raises(ValueError):
        run_suite(curved_par, [ORIGIN], tolerances={"nope": 1.0})


def test_checks_selection_subset(curved_par):
    report = run_suite(curved_par, [ORIGIN], checks=["isometry", "parallel-condition"])
    names = [c["name"] for c in report["checks"]]
    assert names == ["isometry", "parallel-condition"]


def test_parallel_grid_implies_identity_everywhere(const_spec, flat_par, curved_par):
    # Suite-level chain: wherever the gradient conditions hold across a grid,
    # the curvature shift identity must hold at every grid point.
    for spec in (const_spec, flat_par, curved_par):
        report = run_suite(
            spec,
            spec.domain.grid(3),
            checks=["parallel-condition", "curvature-identity"],
        )
        by_name = {}
        for check in report["checks"]:
            by_name.setdefault(check["name"], []).append(check["status"])
        assert all(s == "pass" for s in by_name["parallel-condition"])
        assert all(s == "pass" for s in by_name["curvature-identity"])


def test_expansion_bracket_identity_bulk():
    rng = np.random.default_rng(555)
    for _ in range(1000):
        v = rng.uniform(-1, 1, 4)
        norm = float(np.linalg.norm(v))
        if norm < 1e-3:
            continue
        a, b, g, d = (v / norm).tolist()
        first = a * a + g * g - 2 * b * d
        second = b * b + d * d - 2 * g * a
        bracket = first**2 + second**2 + 2 * first * second
        cos_theta = 2 * a * g + 2 * b * d
        assert abs(bracket - (1 - cos_theta) ** 2) <= 1e-12


# ---------------------------------------------------------------------------
# Batched sampling and contractions against one-at-a-time oracles
# ---------------------------------------------------------------------------


def oracle_points(curved_par, nonpar):
    return [
        (curved_par, ORIGIN),
        (curved_par, [0.3, -0.2, 0.1, 0.4]),
        (nonpar, [0.5, 0.2, -0.3, 0.1]),
        (nonpar, [0.0, 0.3, 0.2, -0.1]),
    ]


def test_sectional_entries_match_per_plane_loop(curved_par, nonpar):
    rng = np.random.default_rng(21)
    for spec, p in oracle_points(curved_par, nonpar):
        m, r = riemann_of(spec, p)
        xs = sample_q_basis_vectors(rng, 50)
        [(entries, payload)], failure = _sectional_entries(m.matrix[None], r.r_low[None], xs[None])
        assert not failure[0].any()
        mu = sectional_planes_loop(m, r, xs)
        ring, diag = mu[:, :4], mu[:, 4:]
        spread = np.max(ring.max(axis=1) - ring.min(axis=1))
        expected = {
            "ring_spread": (spread, max(1.0, np.max(np.abs(ring)))),
            "mu_x_q2x": (np.max(np.abs(diag[:, 0])), r.norm_inf),
            "mu_qx_q3x": (np.max(np.abs(diag[:, 1])), r.norm_inf),
        }
        assert entries.keys() == expected.keys()
        for key, (value, scale) in expected.items():
            assert entries[key][0] == pytest.approx(value, rel=0, abs=1e-12)
            assert entries[key][1] == pytest.approx(scale, rel=0, abs=1e-12)
        assert payload["vectors"] == 50
        first = payload["first_vector_values"]
        assert np.allclose(first["ring"] + first["diagonal"], mu[0], rtol=0, atol=1e-12)


def test_sectional_entries_reject_degenerate_plane(curved_par):
    m, r = riemann_of(curved_par, ORIGIN)
    xs = np.array([[0.3, -0.7, 0.2, 0.9], [1.0, 0.0, 1.0, 0.0]])  # x = q^2 x in row 2
    with pytest.raises(DegeneratePlaneError):
        sectional_planes_loop(m, r, xs)
    _, (mask, make) = _sectional_entries(m.matrix[None], r.r_low[None], xs[None])
    assert mask.tolist() == [True]
    assert isinstance(make(0), DegeneratePlaneError)


def test_mu_law_cases_match_scalar_formulas(curved_par, nonpar):
    rng = np.random.default_rng(22)
    pinned = [[1, 0, 0, 0], [0.8, 0.6, 0, 0], [0.8, 0, 0.6, 0], [0.5, 0.5, 0.5, 0.5]]
    for k, (spec, p) in enumerate(oracle_points(curved_par, nonpar)):
        m, r = riemann_of(spec, p)
        basis = find_orthogonal_q_basis(m, seed=k)
        coeffs = np.vstack([pinned, sequential_unit_coefficients(rng, 100)])
        cases, worst = mu_law_cases(r, basis, coeffs)
        expected = [mu_law_case_scalar(r, basis, c) for c in coeffs]
        assert len(cases) == len(expected)
        for case, want in zip(cases, expected):
            assert case["coefficients"] == want["coefficients"]
            assert case["q_basis"] == want["q_basis"]
            want["ratio_direct_to_angle_law"] = want["direct"] / want["angle_law_prediction"]
            for key in want.keys() - {"coefficients", "q_basis"}:
                assert case[key] == pytest.approx(want[key], rel=0, abs=1e-12), key
        assert expected[3]["q_basis"] is False  # u = (s, s, s, s) spans no q-basis
        want_worst = max(
            abs(w["direct"] - w["expansion_prediction"]) for w in expected if w["q_basis"]
        )
        assert worst == pytest.approx(want_worst, rel=0, abs=1e-12)


def test_block_draws_equal_sequential_draws():
    for seed in range(5):
        block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = sample_q_basis_vectors(block_rng, 50)
        loop = sequential_rows(loop_rng, 50, lambda x: induces_q_basis(x)[0])
        assert np.array_equal(block, loop)
        assert block_rng.uniform() == loop_rng.uniform()

        block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = _unit_coefficients(block_rng, 100)
        assert np.array_equal(block, sequential_unit_coefficients(loop_rng, 100))
        assert block_rng.uniform() == loop_rng.uniform()

        # About half the draws are rejected here, so the block loop refills.
        block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        half = lambda xs: xs[..., 0] > 0.0  # noqa: E731
        assert np.array_equal(_draw_rows(block_rng, 40, half), sequential_rows(loop_rng, 40, half))
        assert block_rng.uniform() == loop_rng.uniform()


def test_random_unit_equals_block_coefficients():
    one_rng, block_rng = np.random.default_rng(9), np.random.default_rng(9)
    singles = [QBasisCoefficients.random_unit(one_rng).as_array() for _ in range(100)]
    assert np.array_equal(np.array(singles), _unit_coefficients(block_rng, 100))
