"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line;
run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import json
from contextlib import contextmanager

import numpy as np

from circgeo.cli import main
from circgeo.core import (
    MetricAtPoint,
    basis_angles,
    circulant_matrix,
    find_orthogonal_q_basis,
    induces_q_basis,
    inner,
    inverse_metric,
    load_spec,
    metric_at,
    q_apply,
)
from circgeo.tensor import (
    christoffel_from_metric,
    metric_compatibility_residual,
    riemann_from_christoffel,
)
from circgeo.verify import report_to_json, run_suite, sample_q_basis_vectors

from conftest import fixture_path, interior_points
from oracles import case_cosines, sequential_unit_coefficients

ORIGIN = [0.0, 0.0, 0.0, 0.0]


@contextmanager
def criterion(number: int, description: str):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")


def single_entry(spec, points, name) -> dict:
    """The one report entry of check `name` over the points."""
    (entry,) = run_suite(spec, points, checks=[name])["checks"]
    return entry


def random_ordered_triples(rng, n):
    b = rng.uniform(0.1, 2.0, n)
    c = b + rng.uniform(0.1, 2.0, n)
    a = c + rng.uniform(0.1, 2.0, n)
    return np.stack([a, b, c], axis=1)


def test_criterion_01_closed_form_inverse():
    with criterion(1, "closed-form inverse: g g^-1 = I to 1e-12; pinned factors for (4,1,2)"):
        rng = np.random.default_rng(101)
        eye = np.eye(4)
        for a, b, c in random_ordered_triples(rng, 1000):
            m = MetricAtPoint.from_constants(a, b, c)
            gi = inverse_metric(m)
            assert np.max(np.abs(m.matrix @ gi.matrix - eye)) <= 1e-12
        gi = inverse_metric(MetricAtPoint.from_constants(4, 1, 2))
        assert (gi.d, gi.a_bar, gi.b_bar, gi.c_bar) == (64.0, 22.0, -2.0, -10.0)


def test_criterion_02_minors():
    with criterion(2, "leading-minor formulas match generic determinants to 1e-10 relative"):
        rng = np.random.default_rng(102)
        from circgeo.core import admissibility

        for a, b, c in random_ordered_triples(rng, 1000):
            _, minors = admissibility(a, b, c)
            g = circulant_matrix(a, b, c)
            for k, formula in enumerate(minors):
                det = float(np.linalg.det(g[: k + 1, : k + 1]))
                assert abs(formula - det) <= 1e-10 * max(1.0, abs(formula))
        _, minors = admissibility(4, 1, 2)
        assert minors == (4, 15, 44, 128)


def test_criterion_03_isometry():
    with criterion(3, "shift isometry g(q^k x, q^k y) = g(x, y) to 1e-14 on 1000 pairs per metric"):
        rng = np.random.default_rng(103)
        triples = list(random_ordered_triples(rng, 5)) + [(4, 1, 2), (10, 1, 2)]
        for a, b, c in triples:
            g = circulant_matrix(a, b, c)
            xs = rng.uniform(-1, 1, (1000, 4))
            ys = rng.uniform(-1, 1, (1000, 4))
            base = np.einsum("ni,ij,nj->n", xs, g, ys)
            scale = np.maximum(1.0, np.abs(base))
            for k in (1, 2, 3):
                shifted = np.einsum(
                    "ni,ij,nj->n", np.roll(xs, -k, axis=1), g, np.roll(ys, -k, axis=1)
                )
                assert np.max(np.abs(shifted - base) / scale) <= 1e-14


def test_criterion_04_q_basis_criterion():
    with criterion(4, "q-basis criterion equals the stacked-shift determinant (measured sign) to 1e-9"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            x = rng.uniform(-1, 1, 4)
            _, value = induces_q_basis(x)
            rows = np.array([q_apply(x, k) for k in range(4)])
            det = float(np.linalg.det(rows))
            # Measured relation: det[x, qx, q^2x, q^3x] = -value; the listing
            # order (x, q^3x, q^2x, qx) gives +value.  Magnitudes agree.
            assert abs(value + det) <= 1e-9 * max(1.0, abs(value))
        assert induces_q_basis([1, 0, 1, 0])[1] == 0.0
        assert induces_q_basis([1, 2, 3, 4])[1] == -160.0


def test_criterion_05_connection(all_fixture_specs, flat_par):
    with criterion(5, "metric compatibility and torsion-free symmetry to 1e-9; flat-par origin Gamma = 1/16"):
        rng = np.random.default_rng(105)
        for spec in all_fixture_specs:
            for p in interior_points(spec, rng, 100):
                m = metric_at(spec, p)
                ch = christoffel_from_metric(m)
                scale = max(1.0, float(np.max(np.abs(m.d1))))
                assert metric_compatibility_residual(m, ch) <= 1e-9 * scale
                assert np.array_equal(ch.gamma, np.swapaxes(ch.gamma, 1, 2))
        ch = christoffel_from_metric(metric_at(flat_par, ORIGIN))
        assert np.max(np.abs(ch.gamma - 1.0 / 16.0)) <= 1e-12


def test_criterion_06_curvature_sanity(all_fixture_specs, const_spec, flat_par, curved_par):
    with criterion(6, "Riemann symmetries and Bianchi to 1e-9; flat families flat; curved-par curved"):
        rng = np.random.default_rng(106)
        for spec in all_fixture_specs:
            for p in interior_points(spec, rng, 25):
                m = metric_at(spec, p)
                r = riemann_from_christoffel(m, christoffel_from_metric(m))
                low = r.r_low
                scale = max(1.0, r.norm_inf)
                assert np.max(np.abs(low + np.einsum("ijkl->jikl", low))) <= 1e-9 * scale
                assert np.max(np.abs(low + np.einsum("ijkl->ijlk", low))) <= 1e-9 * scale
                assert np.max(np.abs(low - np.einsum("ijkl->klij", low))) <= 1e-9 * scale
                bianchi = (
                    low + np.einsum("jkil->ijkl", low) + np.einsum("kijl->ijkl", low)
                )
                assert np.max(np.abs(bianchi)) <= 1e-9 * scale
        for spec in (const_spec, flat_par):
            for p in interior_points(spec, rng, 25):
                m = metric_at(spec, p)
                assert riemann_from_christoffel(m, christoffel_from_metric(m)).norm_inf <= 1e-9
        m = metric_at(curved_par, ORIGIN)
        assert riemann_from_christoffel(m, christoffel_from_metric(m)).norm_inf > 1e-4


def test_criterion_07_parallel_equivalence(curved_par, flat_par, nonpar):
    with criterion(7, "gradient conditions and nabla q agree on 3^4 grids; nonpar fails off the x1 = 0 plane"):
        for spec in (curved_par, flat_par):
            rep = single_entry(spec, spec.domain.grid(3), "parallel-equivalence")
            assert rep["status"] == "pass"
            for row in rep["payload"]["points"]:
                assert row["gradient_holds"] and row["parallel_holds"]
                assert row["gradient_residual_scaled"] <= 1e-9
                assert row["nabla_q_residual_scaled"] <= 1e-9
        rep = single_entry(nonpar, nonpar.domain.grid(3), "parallel-equivalence")
        assert rep["status"] == "pass"
        for row in rep["payload"]["points"]:
            if abs(row["point"][0]) > 0:
                assert not row["gradient_holds"] and not row["parallel_holds"]
        pinned = single_entry(nonpar, [[1, 0, 0, 0]], "parallel-condition")
        assert abs(pinned["residuals"]["A1-C3"] - 2.0) <= 1e-12


def test_criterion_08_subclass_chain(curved_par):
    with criterion(8, "curved-par: curvature identity, equal ring curvatures, flat diagonal planes to 1e-9; "
                      "cone keeps the identity where nabla q != 0, cone-bent fails it everywhere"):
        m = metric_at(curved_par, ORIGIN)
        r = riemann_from_christoffel(m, christoffel_from_metric(m))
        assert single_entry(curved_par, [ORIGIN], "curvature-identity")["status"] == "pass"
        rng = np.random.default_rng(108)
        for x in sample_q_basis_vectors(rng, 50):
            shifts = [q_apply(x, k) for k in range(4)]
            from circgeo.tensor import sectional_curvature

            ring = [
                sectional_curvature(r, m, shifts[0], shifts[1]),
                sectional_curvature(r, m, shifts[1], shifts[2]),
                sectional_curvature(r, m, shifts[2], shifts[3]),
                sectional_curvature(r, m, shifts[3], shifts[0]),
            ]
            spread = max(ring) - min(ring)
            assert spread <= 1e-9 * max(1.0, max(abs(v) for v in ring))
            for k in (0, 1):
                diag = sectional_curvature(r, m, shifts[k], shifts[k + 2])
                assert abs(diag) <= 1e-9 * max(1.0, r.norm_inf)
        # Down the chain: cone is in the subclass but its q is not parallel;
        # cone-bent (lambda0 also depends on x1 - x3) is in neither.
        checks = ["parallel-equivalence", "curvature-identity"]
        for name, identity in (("cone", "pass"), ("cone-bent", "fail")):
            spec = load_spec(fixture_path(name))
            *entries, scan = run_suite(spec, spec.domain.grid(3), checks=checks)["checks"]
            assert [entry["status"] for entry in entries] == [identity] * 81
            assert all(row["nabla_q_residual_scaled"] > 1e-4 for row in scan["payload"]["points"])


def test_criterion_09_orthogonal_basis_existence():
    with criterion(9, "orthogonal q-basis found on 100 random metrics; products below 1e-10; angle laws hold"):
        rng = np.random.default_rng(109)
        for i, (a, b, c) in enumerate(random_ordered_triples(rng, 100)):
            m = MetricAtPoint.from_constants(a, b, c)
            x = find_orthogonal_q_basis(m, seed=i)
            shifts = [q_apply(x, k) for k in range(4)]
            for s in range(4):
                assert abs(inner(m, shifts[s], shifts[s]) - 1.0) <= 1e-10
                for t in range(s + 1, 4):
                    assert abs(inner(m, shifts[s], shifts[t])) <= 1e-10
            angles = basis_angles(m, x)  # raises if the equalities or inequality fail
            assert abs(angles.cos_phi) <= 1e-10 and abs(angles.cos_theta) <= 1e-10
            y = rng.uniform(-1, 1, 4)
            if induces_q_basis(y)[0]:
                basis_angles(m, y)


def test_criterion_10_mu_law_adjudication(curved_par):
    with criterion(10, "direct contraction matches the coefficient expansion to 1e-9; angle law logged as data"):
        m = metric_at(curved_par, ORIGIN)
        r = riemann_from_christoffel(m, christoffel_from_metric(m))
        basis = find_orthogonal_q_basis(m, seed=110)
        shifts = [q_apply(basis, k) for k in range(4)]
        rho = float(np.einsum("ijkl,i,j,k,l->", r.r_low, shifts[0], shifts[1], shifts[0], shifts[1]))
        rng = np.random.default_rng(110)
        logged = []
        for alpha, beta, gamma, delta in sequential_unit_coefficients(rng, 100):
            u = alpha * shifts[0] + beta * shifts[1] + gamma * shifts[2] + delta * shifts[3]
            qu = q_apply(u, 1)
            direct = float(np.einsum("ijkl,i,j,k,l->", r.r_low, u, qu, u, qu))
            cos_theta = 2.0 * alpha * gamma + 2.0 * beta * delta
            expansion = (1.0 - cos_theta) ** 2 * rho
            assert abs(direct - expansion) <= 1e-9 * max(1.0, r.norm_inf)
            if abs(cos_theta) > 1e-12:
                logged.append(
                    {
                        "cos_theta": cos_theta,
                        "angle_law_prediction": rho,
                        "measured_ratio": direct / rho,
                    }
                )
        # The angle-law comparison carries no pass flag; the data is recorded.
        assert logged
        for entry in logged:
            assert np.isfinite(entry["measured_ratio"])


def test_criterion_10_read_from_the_report():
    with criterion(10, "each ran mu-law entry states R(x, qx, x, qx) once; direct / it = (1 - cos theta)^2 to 1e-9"):
        for name in ("curved-par", "cone"):
            spec = load_spec(fixture_path(name))
            report = json.loads(report_to_json(run_suite(spec, spec.domain.grid(2), seed=3)))
            ran = [e for e in report["checks"] if e["name"] == "mu-law" and "basis" in e["payload"]]
            assert len(ran) == 16
            for entry in ran:
                m = metric_at(spec, entry["point"])
                r_low = riemann_from_christoffel(m, christoffel_from_metric(m)).r_low
                x = np.array(entry["payload"]["basis"])
                rho = entry["payload"]["angle_law_prediction"]
                assert abs(rho - np.einsum("ijkl,i,j,k,l->", r_low, x, q_apply(x, 1), x, q_apply(x, 1))) <= 1e-12
                assert rho != 0.0
                for case in entry["payload"]["cases"]:
                    assert "angle_law_prediction" not in case and "ratio_direct_to_angle_law" not in case
                    cos_theta = case_cosines(case["coefficients"])[1]
                    assert abs(case["direct"] / rho - (1.0 - cos_theta) ** 2) <= 1e-9


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "verify runs with equal seeds produce byte-identical JSON"):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", str(fixture_path("curved-par")), "--point", "0,0,0,0", "--seed", "42"]
        assert main(argv + ["--json", str(out1)]) == 0
        assert main(argv + ["--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        json.loads(out1.read_text())  # well-formed


def test_criterion_12_cone_is_curved_and_not_parallel(tmp_path):
    with criterion(12, "cone: identity, sectional relations, mu-law, isometry hold at 81 points; q not parallel"):
        out = tmp_path / "cone.json"
        argv = ["verify", str(fixture_path("cone")), "--grid", "3", "--seed", "7", "--json", str(out)]
        assert main(argv) == 1
        statuses = {}
        for entry in json.loads(out.read_text())["checks"]:
            if entry["point"] is not None:
                statuses.setdefault(entry["name"], []).append(entry["status"])
        expected = {
            "isometry": "pass",
            "parallel-condition": "fail",
            "curvature-identity": "pass",
            "integrability": "skipped",
            "sectional-relations": "pass",
            "mu-law": "pass",
        }
        assert statuses == {name: [status] * 81 for name, status in expected.items()}
        m = metric_at(load_spec(fixture_path("cone")), ORIGIN)
        assert riemann_from_christoffel(m, christoffel_from_metric(m)).norm_inf > 1e-4  # 1/4800
