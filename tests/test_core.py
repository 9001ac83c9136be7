"""Circulant metric construction, inverse, q action, angles and orthonormal q-bases."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgeo.core import (
    AdmissibilityError,
    Box,
    MetricAtPoint,
    OutsideDomainError,
    Q,
    QBasisError,
    SingularMetricError,
    ZeroVectorError,
    _basis_draws,
    _circulant_eigenvalues,
    _orthogonal_q_bases,
    admissibility,
    basis_angles,
    circulant_matrix,
    cos_angle,
    find_orthogonal_q_basis,
    induces_q_basis,
    inner,
    inverse_metric,
    metric_at,
    q_apply,
)

from oracles import leading_minors, stacked_shift_det


def random_ordered_triple(rng):
    b = rng.uniform(0.1, 2.0)
    c = b + rng.uniform(0.1, 2.0)
    a = c + rng.uniform(0.1, 2.0)
    return a, b, c


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------


def test_constant_metric_rows():
    m = MetricAtPoint.from_constants(4, 1, 2)
    expected = [
        [4, 1, 2, 1],
        [1, 4, 1, 2],
        [2, 1, 4, 1],
        [1, 2, 1, 4],
    ]
    assert m.matrix.tolist() == expected
    assert np.array_equal(m.matrix, m.matrix.T)


def test_flat_par_values_at_ones(flat_par):
    m = metric_at(flat_par, [1, 1, 1, 1])
    assert (m.a, m.b, m.c) == (8.0, 5.0, 6.0)


def test_unordered_triple_rejected():
    with pytest.raises(AdmissibilityError):
        MetricAtPoint.from_constants(1, 1, 2)


def test_point_outside_domain_rejected(curved_par):
    with pytest.raises(OutsideDomainError):
        metric_at(curved_par, [2, 0, 0, 0])


def test_metric_jets_follow_entry_pattern(curved_par):
    m = metric_at(curved_par, [0.3, -0.2, 0.1, 0.4])
    # d1[k] must equal the circulant assembly of the three gradients.
    for k in range(4):
        expected = circulant_matrix(
            m.jet_a.grad[k], m.jet_b.grad[k], m.jet_c.grad[k]
        )
        assert np.array_equal(m.d1[k], expected)
    assert np.array_equal(m.d2, np.swapaxes(m.d2, 0, 1))


@pytest.mark.parametrize(
    "lo, hi, says",
    [
        ([math.nan, 0, 0, 0], [1] * 4, "domain min must be four finite numbers"),
        (np.zeros(4), np.array([1, 1, np.inf, 1]), "domain max must be four finite numbers"),
        (np.zeros((2, 2)), [1] * 4, "domain min must be four finite numbers"),
        ([0, 0, 0], [1] * 4, "domain min must be four finite numbers"),
        ([0, 0, 0, 0], np.array(5.0), "domain max must be four finite numbers"),
        (np.full(4, -1e308), np.full(4, 1e308), "domain extent max - min overflows"),
        ([1, 0, 0, 0], [0] * 4, "domain min exceeds max"),
    ],
)
def test_a_box_built_directly_rejects_a_bad_domain_without_warnings(lo, hi, says):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{says}"):
            Box(lo, hi)


def test_a_box_takes_lists_and_arrays_alike():
    box = Box(np.full(4, -1e307), [1e307, 1, 2.5, np.float64(3)])
    assert box.lo.dtype == box.hi.dtype == float
    assert box.hi.tolist() == [1e307, 1.0, 2.5, 3.0]
    assert np.isfinite(box.grid(3)).all()


# ---------------------------------------------------------------------------
# Admissibility and minors
# ---------------------------------------------------------------------------


def test_admissibility_pinned_values():
    ordered, minors = admissibility(4, 1, 2)
    assert ordered
    assert minors == (4, 15, 44, 128)


@pytest.mark.parametrize(
    "triple",
    [
        (1, 2, 3),
        (4, -1, 2),
        (4, 2, 2),
        (2, 1, 2),
        (np.inf, 1, 2),
        (np.nan, 1, 2),
        (4, np.nan, 2),
        (4, 1, np.nan),
    ],
)
def test_admissibility_rejects(triple):
    assert not admissibility(*triple)[0]


def test_admissibility_accepts_large_finite_values():
    ordered, minors = admissibility(1e308, 1e300, 1e307)
    assert ordered is True
    assert minors[0] == 1e308


def test_minor_formulas_match_determinants():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b, c = random_ordered_triple(rng)
        _, minors = admissibility(a, b, c)
        numeric = leading_minors(circulant_matrix(a, b, c))
        for formula, det in zip(minors, numeric):
            assert abs(formula - det) <= 1e-10 * max(1.0, abs(formula))
            assert formula > 0.0


# ---------------------------------------------------------------------------
# Closed-form inverse
# ---------------------------------------------------------------------------


def test_inverse_pinned_412():
    gi = inverse_metric(MetricAtPoint.from_constants(4, 1, 2))
    assert (gi.d, gi.a_bar, gi.b_bar, gi.c_bar) == (64.0, 22.0, -2.0, -10.0)
    assert gi.matrix[0].tolist() == [0.34375, -0.03125, -0.15625, -0.03125]


def test_inverse_pinned_312():
    gi = inverse_metric(MetricAtPoint.from_constants(3, 1, 2))
    assert (gi.d, gi.a_bar, gi.b_bar, gi.c_bar) == (21.0, 13.0, -1.0, -8.0)
    m = MetricAtPoint.from_constants(3, 1, 2)
    assert abs(float(m.matrix[0] @ gi.matrix[:, 0]) - 1.0) < 1e-15


def test_inverse_singular_when_a_equals_c():
    # from_constants rejects A = C as inadmissible, so the metric is built directly.
    m = MetricAtPoint.from_constants(4, 1, 2)
    with pytest.raises(SingularMetricError):
        inverse_metric(MetricAtPoint(m.a, m.b, 4.0, m.jet_a, m.jet_b, m.jet_c))


def test_inverse_rejects_overflowing_factors():
    # d = (A - C)((A + C)^2 - 4B^2) grows like A^3 and overflows past ~5.6e102.
    gi = inverse_metric(MetricAtPoint.from_constants(1e100, 1, 2))
    assert np.all(np.isfinite(gi.matrix))
    with pytest.raises(SingularMetricError, match="overflow"):
        inverse_metric(MetricAtPoint.from_constants(1e103, 1, 2))


def test_inverse_of_a_tiny_metric_is_taken_at_a_unit_scale():
    # d is cubic in the scale: at 2^-600 it underflows to 0, as the factors
    # report it, while the matrix is the unit metric's inverse times 2^600.
    tiny = 2.0**-600
    gi = inverse_metric(MetricAtPoint.from_constants(4 * tiny, tiny, 2 * tiny))
    assert gi.d == 0.0
    assert gi.matrix[0].tolist() == [v / tiny for v in (0.34375, -0.03125, -0.15625, -0.03125)]
    gi = inverse_metric(MetricAtPoint.from_constants(4e-160, 1e-160, 2e-160))
    unit = inverse_metric(MetricAtPoint.from_constants(4, 1, 2)).matrix
    assert gi.d == 0.0 and np.allclose(gi.matrix * 1e-160, unit, rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "triple",
    [
        (1e-300, 5e-301, 9.999999999999e-301),  # condition number about 3e13
        (4 * 2.0**-1030, 2.0**-1030, 2 * 2.0**-1030),  # the const metric at 2^-1030
    ],
)
def test_an_overflowing_inverse_is_singular(triple):
    # Finite factors and a nonzero d at unit scale, but g^-1 beyond the largest float.
    with pytest.raises(SingularMetricError, match="inverse overflows"):
        inverse_metric(MetricAtPoint.from_constants(*triple))


def test_inverse_keeps_the_bits_of_the_unscaled_closed_form():
    rng = np.random.default_rng(18)
    for _ in range(300):
        a, b, c = np.array(random_ordered_triple(rng)) * 10.0 ** rng.uniform(-60, 60)
        gi = inverse_metric(MetricAtPoint.from_constants(a, b, c))
        d = (a - c) * ((a + c) ** 2 - 4.0 * b * b)
        bars = a * (a + c) - 2.0 * b * b, b * (c - a), 2.0 * b * b - c * (a + c)
        assert (gi.a_bar, gi.b_bar, gi.c_bar, gi.d) == (*bars, d)
        assert np.array_equal(gi.matrix, circulant_matrix(*bars) / d)


def test_inverse_matches_generic_inversion():
    rng = np.random.default_rng(17)
    eye = np.eye(4)
    for _ in range(300):
        a, b, c = random_ordered_triple(rng)
        m = MetricAtPoint.from_constants(a, b, c)
        gi = inverse_metric(m)
        assert np.max(np.abs(m.matrix @ gi.matrix - eye)) <= 1e-12
        assert np.max(np.abs(gi.matrix - np.linalg.inv(m.matrix))) <= 1e-12


# ---------------------------------------------------------------------------
# The shift structure
# ---------------------------------------------------------------------------


def test_q_matrix_entries():
    assert Q.tolist() == [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ]


def test_q_apply_shifts_left():
    assert q_apply([1, 2, 3, 4], 1).tolist() == [2, 3, 4, 1]
    assert q_apply([1, 2, 3, 4], 2).tolist() == [3, 4, 1, 2]


def test_q_fourth_power_is_identity():
    x = np.array([0.3, -1.2, 0.7, 2.1])
    assert np.array_equal(q_apply(x, 4), x)
    assert np.array_equal(np.linalg.matrix_power(Q, 4), np.eye(4))


def test_q_squared_is_not_plus_minus_identity():
    assert q_apply([1, 0, 1, 0], 2).tolist() == [1, 0, 1, 0]
    assert q_apply([1, 0, -1, 0], 2).tolist() == [-1, 0, 1, 0]


def test_q_apply_matches_matrix_action():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=4)
        for k in range(4):
            assert np.allclose(
                q_apply(x, k), np.linalg.matrix_power(Q, k) @ x, rtol=0, atol=0
            )


# ---------------------------------------------------------------------------
# Inner products and angles
# ---------------------------------------------------------------------------


def test_inner_single_entry_contractions():
    m = MetricAtPoint.from_constants(4, 1, 2)
    e1 = np.array([1.0, 0, 0, 0])
    assert inner(m, e1, q_apply(e1)) == 1.0  # entry g_14 = B
    assert inner(m, e1, q_apply(e1, 2)) == 2.0  # entry g_13 = C
    assert cos_angle(m, e1, q_apply(e1)) == 0.25
    assert cos_angle(m, e1, q_apply(e1, 2)) == 0.5


def test_isometry_of_shift():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = MetricAtPoint.from_constants(*random_ordered_triple(rng))
        x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        base = inner(m, x, y)
        for k in (1, 2, 3):
            shifted = inner(m, q_apply(x, k), q_apply(y, k))
            assert abs(shifted - base) <= 1e-14 * max(1.0, abs(base))


def test_cos_angle_zero_vector():
    m = MetricAtPoint.from_constants(4, 1, 2)
    with pytest.raises(ZeroVectorError):
        cos_angle(m, [0, 0, 0, 0], [1, 0, 0, 0])


# ---------------------------------------------------------------------------
# q-basis criterion
# ---------------------------------------------------------------------------


def test_criterion_pinned_values():
    assert induces_q_basis([1, 0, 1, 0]) == (False, 0.0)
    flag, value = induces_q_basis([1, 2, 3, 4])
    assert flag and value == -160.0
    flag, value = induces_q_basis([1, 1, -1, 1])
    assert flag and value == -16.0


def test_criterion_is_minus_stacked_determinant():
    # Measured relation: the determinant of rows (x, qx, q^2x, q^3x) is the
    # negative of the closed-form value; listing the shifts in reverse order
    # flips the row permutation and recovers the value itself.
    rng = np.random.default_rng(100)
    for _ in range(1000):
        x = rng.uniform(-1, 1, 4)
        _, value = induces_q_basis(x)
        det = stacked_shift_det(x)
        assert abs(value + det) <= 1e-9 * max(1.0, abs(value))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.floats(-10, 10) for _ in range(4)]))
def test_criterion_sign_flip_invariance(coords):
    flag, value = induces_q_basis(coords)
    flag_neg, value_neg = induces_q_basis([-v for v in coords])
    assert flag == flag_neg and value == value_neg


@pytest.mark.parametrize("k", [-300, -100, 0, 100, 300])
def test_criterion_flag_does_not_depend_on_the_vector_scale(k):
    # x^4 overflows a double from about 2^256 on and underflows below 2^-269;
    # the vectors are scaled by powers of two, so the flags are exact.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flag, value = induces_q_basis(np.ldexp([1.0, 2.0, 3.0, 4.0], k))
        assert not induces_q_basis(np.ldexp([1.0, 0.0, 1.0, 0.0], k))[0]
    assert flag
    with np.errstate(over="ignore"):
        assert value == np.ldexp(-160.0, 4 * k)  # -inf where it overflows


# ---------------------------------------------------------------------------
# Basis angles
# ---------------------------------------------------------------------------


def test_basis_angles_e1():
    m = MetricAtPoint.from_constants(4, 1, 2)
    angles = basis_angles(m, [1, 0, 0, 0])
    assert angles.cos_phi == 0.25
    assert angles.cos_theta == 0.5
    assert 4 * angles.cos_phi - angles.cos_theta < 3


def test_basis_angles_rejects_degenerate_vector():
    m = MetricAtPoint.from_constants(4, 1, 2)
    with pytest.raises(QBasisError):
        basis_angles(m, [1, 0, 1, 0])


def test_six_angle_equalities_hold():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = MetricAtPoint.from_constants(*random_ordered_triple(rng))
        x = rng.uniform(-1, 1, 4)
        if not induces_q_basis(x)[0]:
            continue
        shifts = [q_apply(x, k) for k in range(4)]
        ring = [
            cos_angle(m, shifts[0], shifts[1]),
            cos_angle(m, shifts[1], shifts[2]),
            cos_angle(m, shifts[2], shifts[3]),
            cos_angle(m, shifts[0], shifts[3]),
        ]
        diag = [cos_angle(m, shifts[0], shifts[2]), cos_angle(m, shifts[1], shifts[3])]
        assert max(ring) - min(ring) <= 1e-14
        assert abs(diag[0] - diag[1]) <= 1e-14
        angles = basis_angles(m, x)  # also enforces the inequality
        assert -1.0 <= angles.cos_phi <= 1.0
        assert -1.0 <= angles.cos_theta <= 1.0


# ---------------------------------------------------------------------------
# Orthonormal q-bases
# ---------------------------------------------------------------------------

# The real DFT basis f0, f1, f2, f3, one vector per row.
DFT = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [0.5**0.5, 0.0, -(0.5**0.5), 0.0],
        [0.5, -0.5, 0.5, -0.5],
        [0.0, 0.5**0.5, 0.0, -(0.5**0.5)],
    ]
)
# The ranges of `random_ordered_triple`: B, then the gaps C - B and A - C.
ordered_triples = st.tuples(*[st.floats(0.1, 2.0) for _ in range(3)]).map(
    lambda d: (d[0] + d[1] + d[2], d[0], d[0] + d[1])
)


@settings(max_examples=300, deadline=None)
@given(ordered_triples, st.integers(0, 2**32 - 1))
def test_closed_form_basis_is_orthonormal(triple, seed):
    m = MetricAtPoint.from_constants(*triple)
    x = find_orthogonal_q_basis(m, seed=seed)
    shifts = [q_apply(x, k) for k in range(4)]
    errors = [abs(inner(m, shifts[i], shifts[j]) - (i == j)) for i in range(4) for j in range(i, 4)]
    assert len(errors) == 10 and all(e <= 1e-10 for e in errors)  # criterion 09's bound
    assert max(errors) <= 1e-11
    assert induces_q_basis(x)[0]


def test_circulant_eigenvalues_match_numpy():
    rng = np.random.default_rng(31)
    for _ in range(200):
        a, b, c = random_ordered_triple(rng)
        lam0, lam1, lam2 = _circulant_eigenvalues(a, b, c)
        g = circulant_matrix(a, b, c)
        numeric = np.linalg.eigvalsh(g)
        assert np.allclose(sorted([lam0, lam1, lam1, lam2]), numeric, rtol=1e-12, atol=0)
        # ... each on its own DFT vector.
        assert np.allclose(g @ DFT.T, DFT.T * [lam0, lam1, lam2, lam1], rtol=0, atol=1e-12 * lam0)


def test_block_rows_equal_one_point_calls():
    rng = np.random.default_rng(41)
    triples = np.array([random_ordered_triple(rng) for _ in range(64)])
    draws = np.array([_basis_draws(np.random.default_rng([7, i])) for i in range(64)])
    xs, (bad, _) = _orthogonal_q_bases(*triples.T, *draws.T)
    assert not bad.any()
    for i, (a, b, c) in enumerate(triples):
        one = find_orthogonal_q_basis(MetricAtPoint.from_constants(a, b, c), seed=[7, i])
        assert np.array_equal(xs[i], one)


def test_seed_picks_the_angle_and_signs():
    # The seed draws t, s0 and s2; x has exactly the closed-form Fourier
    # components, so different seeds give different members of the family.
    m = MetricAtPoint.from_constants(4, 1, 2)
    lam0, lam1, lam2 = _circulant_eigenvalues(4.0, 1.0, 2.0)
    angles, signs = set(), set()
    for seed in range(20):
        t, s0, s2 = _basis_draws(np.random.default_rng(seed))
        expected = [
            s0 / (2 * math.sqrt(lam0)),
            math.cos(t) / math.sqrt(2 * lam1),
            s2 / (2 * math.sqrt(lam2)),
            math.sin(t) / math.sqrt(2 * lam1),
        ]
        x = find_orthogonal_q_basis(m, seed=seed)
        assert np.allclose(DFT @ x, expected, rtol=0, atol=1e-15)
        angles.add(t)
        signs.add((s0, s2))
    assert len(angles) == 20 and min(angles) >= 0.0 and max(angles) < 2 * math.pi
    assert signs == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_ill_conditioned_metric_raises():
    # A - C = 1e-9: the Gram error of the closed form is about 4e-8.
    m = MetricAtPoint.from_constants(1 + 1e-9, 0.5, 1)
    with pytest.raises(SingularMetricError, match="Gram residual"):
        find_orthogonal_q_basis(m, seed=0)


@pytest.mark.parametrize("gap", [1e-5, 1e-6])
def test_basis_angles_allow_the_rounding_of_an_ill_conditioned_metric(gap):
    # A - C = gap: the condition number lambda0 / lambda1 is about 3 / gap,
    # and the computed cosines of an accepted basis differ by more than 1e-12.
    m = MetricAtPoint.from_constants(1 + gap, 0.5, 1)
    for seed in range(8):
        x = find_orthogonal_q_basis(m, seed=seed)
        angles = basis_angles(m, x)  # raises if the equalities fail
        assert abs(angles.cos_phi) <= 1e-10 and abs(angles.cos_theta) <= 1e-10


def test_solver_finds_orthogonal_basis_412():
    m = MetricAtPoint.from_constants(4, 1, 2)
    # The problem is non-trivial: the obvious start e1 is not a solution.
    assert inner(m, [1, 0, 0, 0], q_apply([1, 0, 0, 0])) == 1.0
    x = find_orthogonal_q_basis(m, seed=0)
    shifts = [q_apply(x, k) for k in range(4)]
    for i in range(4):
        assert abs(inner(m, shifts[i], shifts[i]) - 1.0) <= 1e-10
        for j in range(i + 1, 4):
            assert abs(inner(m, shifts[i], shifts[j])) <= 1e-10
    angles = basis_angles(m, x)
    assert abs(angles.cos_phi) <= 1e-10
    assert abs(angles.cos_theta) <= 1e-10


def test_solver_deterministic_per_seed():
    m = MetricAtPoint.from_constants(4, 1, 2)
    assert np.array_equal(
        find_orthogonal_q_basis(m, seed=123), find_orthogonal_q_basis(m, seed=123)
    )


def test_solver_on_random_metrics():
    rng = np.random.default_rng(77)
    for i in range(30):
        m = MetricAtPoint.from_constants(*random_ordered_triple(rng))
        x = find_orthogonal_q_basis(m, seed=i)
        assert induces_q_basis(x)[0]


def test_solver_on_point_dependent_metric(curved_par):
    m = metric_at(curved_par, [0.5, -0.5, 0.25, 0.75])
    x = find_orthogonal_q_basis(m, seed=1)
    angles = basis_angles(m, x)
    assert abs(angles.cos_phi) <= 1e-10 and abs(angles.cos_theta) <= 1e-10
