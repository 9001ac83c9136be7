"""Connection and curvature: oracles, symmetries, and fixture anchors."""

import numpy as np
import pytest

from circgeo.core import MetricAtPoint, circulant_matrix, metric_at, q_apply
from circgeo.expr import FieldJet
from circgeo.tensor import (
    DegeneratePlaneError,
    _christoffel_block,
    _nabla_q,
    christoffel_at,
    christoffel_from_metric,
    metric_compatibility_residual,
    nabla_q,
    riemann_at,
    riemann_from_christoffel,
    sectional_curvature,
)
from circgeo.verify import sample_q_basis_vectors

from conftest import interior_points
from oracles import fd_christoffel, fd_dgamma, masked, nabla_q_reference


def geometry_at(spec, p):
    m = metric_at(spec, p)
    ch = christoffel_from_metric(m)
    return m, ch, riemann_from_christoffel(m, ch)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_constant_metric_connection_vanishes(const_spec):
    ch = christoffel_at(const_spec, [0.3, 0.1, -0.2, 0.5])
    assert np.array_equal(ch.gamma, np.zeros((4, 4, 4)))
    assert np.array_equal(ch.dgamma, np.zeros((4, 4, 4, 4)))


def test_flat_par_gamma_at_origin(flat_par):
    ch = christoffel_at(flat_par, [0, 0, 0, 0])
    assert np.max(np.abs(ch.gamma - 1.0 / 16.0)) <= 1e-12


def test_flat_par_gamma_closed_form(flat_par):
    # All 64 components coincide: common derivative over 2(A + 2B + C).
    rng = np.random.default_rng(1)
    for p in interior_points(flat_par, rng, 10):
        m = metric_at(flat_par, p)
        ch = christoffel_from_metric(m)
        expected = 1.0 / (2.0 * (m.a + 2.0 * m.b + m.c))
        assert np.max(np.abs(ch.gamma - expected)) <= 1e-12


def test_gamma_symmetric_and_matches_unsymmetrized(all_fixture_specs):
    rng = np.random.default_rng(2)
    from circgeo.core import inverse_metric

    for spec in all_fixture_specs:
        for p in interior_points(spec, rng, 5):
            m = metric_at(spec, p)
            ch = christoffel_from_metric(m)
            assert np.array_equal(ch.gamma, np.swapaxes(ch.gamma, 1, 2))
            ginv = inverse_metric(m).matrix
            dg = m.d1
            raw = 0.5 * np.einsum(
                "as,aij->sij",
                ginv,
                np.einsum("iaj->aij", dg) + np.einsum("jai->aij", dg) - dg,
            )
            assert np.max(np.abs(ch.gamma - raw)) <= 1e-12


def test_gamma_matches_finite_differences(nonpar, curved_par):
    for spec, p in [
        (nonpar, [1.0, 0.0, 0.0, 0.0]),
        (nonpar, [0.5, 0.2, -0.3, 0.8]),
        (curved_par, [0.3, -0.2, 0.1, 0.4]),
    ]:
        ch = christoffel_at(spec, p)
        assert np.max(np.abs(ch.gamma - fd_christoffel(spec, p))) <= 1e-6


def test_dgamma_is_computed_only_for_curvature(curved_par):
    m = metric_at(curved_par, [0.3, -0.2, 0.1, 0.4])
    ch = christoffel_from_metric(m)
    nabla_q(ch)
    assert "dgamma" not in vars(ch)
    riemann_from_christoffel(m, ch)
    assert "dgamma" in vars(ch)


def test_dgamma_matches_finite_differences(all_fixture_specs):
    rng = np.random.default_rng(3)
    for spec in all_fixture_specs:
        for p in interior_points(spec, rng, 3, margin=0.02):
            ch = christoffel_at(spec, p)
            fd = fd_dgamma(spec, p, h=1e-4)
            scale = max(1.0, float(np.max(np.abs(ch.dgamma))))
            assert np.max(np.abs(ch.dgamma - fd)) <= 1e-5 * scale


def test_metric_compatibility(all_fixture_specs):
    rng = np.random.default_rng(4)
    for spec in all_fixture_specs:
        for p in interior_points(spec, rng, 25):
            m = metric_at(spec, p)
            ch = christoffel_from_metric(m)
            scale = max(1.0, float(np.max(np.abs(m.d1))))
            assert metric_compatibility_residual(m, ch) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Riemann tensor
# ---------------------------------------------------------------------------


def test_constant_metric_is_flat(const_spec):
    r = riemann_at(const_spec, [0.2, -0.4, 0.1, 0.9])
    assert np.array_equal(r.r_low, np.zeros((4, 4, 4, 4)))


def test_flat_par_family_is_flat(flat_par):
    rng = np.random.default_rng(5)
    for p in interior_points(flat_par, rng, 25):
        assert riemann_at(flat_par, p).norm_inf <= 1e-9


def test_curved_par_is_curved_at_origin(curved_par):
    r = riemann_at(curved_par, [0, 0, 0, 0])
    assert r.norm_inf > 1e-4
    # Regression anchors, measured once and frozen.
    assert abs(r.r_low[0, 1, 0, 1] - (-0.2)) <= 1e-12
    assert abs(r.norm_inf - 0.2) <= 1e-12


def test_riemann_symmetries_and_bianchi(all_fixture_specs):
    rng = np.random.default_rng(6)
    for spec in all_fixture_specs:
        for p in interior_points(spec, rng, 25):
            r = riemann_at(spec, p)
            low = r.r_low
            scale = max(1.0, r.norm_inf)
            assert np.max(np.abs(low + np.einsum("ijkl->jikl", low))) <= 1e-9 * scale
            assert np.max(np.abs(low + np.einsum("ijkl->ijlk", low))) <= 1e-9 * scale
            assert np.max(np.abs(low - np.einsum("ijkl->klij", low))) <= 1e-9 * scale
            bianchi = low + np.einsum("jkil->ijkl", low) + np.einsum("kijl->ijkl", low)
            assert np.max(np.abs(bianchi)) <= 1e-9 * scale


def test_riemann_from_christoffel_returns_its_connection(curved_par):
    m = metric_at(curved_par, [0.3, -0.2, 0.1, 0.4])
    ch = christoffel_from_metric(m)
    assert riemann_from_christoffel(m, ch) is ch
    with pytest.raises(ValueError, match="not that of this metric"):
        riemann_from_christoffel(metric_at(curved_par, [0.3, -0.2, 0.1, 0.4]), ch)


def test_block_rows_equal_the_one_point_geometry(all_fixture_specs):
    # One type holds a block and a point: row i of the block is the
    # geometry at its i-th point.
    rng = np.random.default_rng(12)
    for spec in all_fixture_specs:
        points = np.concatenate((spec.domain.grid(2), interior_points(spec, rng, 8)))
        geo, failures = _christoffel_block(spec, points)
        assert not any(mask.any() for mask, _ in failures)
        m = geo.metric
        assert riemann_from_christoffel(m, geo) is geo
        assert np.array_equal(m.point, points)
        for i, x in enumerate(points):
            one = riemann_at(spec, x)
            pairs = [(m.matrix, one.metric.matrix), (m.d1, one.metric.d1), (m.d2, one.metric.d2)]
            for name in ("ginv", "gamma", "dgamma", "r_mixed", "r_low", "max_abs", "norm_inf"):
                pairs.append((getattr(geo, name), getattr(one, name)))
            pairs.append((nabla_q(geo).max_abs, nabla_q(one).max_abs))
            for block, point in pairs:
                assert np.abs(block[i] - point).max() <= 1e-12 * np.abs(point).max()
            assert isinstance(one.norm_inf, float) and isinstance(one.metric.a, float)


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------


def test_sectional_zero_on_flat_fixtures(const_spec, flat_par):
    for spec, p in [(const_spec, [0, 0, 0, 0]), (flat_par, [0.1, 0.2, 0.3, 0.4])]:
        m, _, r = geometry_at(spec, p)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
            assert abs(sectional_curvature(r, m, x, y)) <= 1e-9


def test_sectional_diagonal_plane_vanishes(curved_par):
    m, _, r = geometry_at(curved_par, [0, 0, 0, 0])
    rng = np.random.default_rng(8)
    for x in sample_q_basis_vectors(rng, 20):
        assert abs(sectional_curvature(r, m, x, q_apply(x, 2))) <= 1e-9


def test_sectional_symmetric_in_arguments(curved_par):
    m, _, r = geometry_at(curved_par, [0.4, 0.1, -0.3, 0.2])
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        mu_xy = sectional_curvature(r, m, x, y)
        mu_yx = sectional_curvature(r, m, y, x)
        assert abs(mu_xy - mu_yx) <= 1e-12 * max(1.0, abs(mu_xy))


def test_sectional_rejects_degenerate_plane(curved_par):
    m, _, r = geometry_at(curved_par, [0, 0, 0, 0])
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(r, m, [1, 2, 0, 1], [2, 4, 0, 2])


@pytest.mark.parametrize("scale", [2.0**-1000, 1e-160, 2.0**-60, 1e-7, 1.0, 2.0**60, 2.0**300])
def test_the_degenerate_plane_test_does_not_depend_on_the_metric_scale(scale):
    # The const metric scaled: flat at every scale.  The plane of e1 and
    # e1 + t e2 has sin^2 = 15 t^2 / (16 + 8 t + 16 t^2) under g at each scale,
    # 1e-10 at t = 1e-5 and 1e-14 at t = 1e-7.
    m = MetricAtPoint.from_constants(4 * scale, scale, 2 * scale)
    r = riemann_from_christoffel(m, christoffel_from_metric(m))
    assert sectional_curvature(r, m, [1, 0, 0, 0], [0, 1, 0, 0]) == 0.0
    assert sectional_curvature(r, m, [1, 0, 0, 0], [1, 1e-5, 0, 0]) == 0.0
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(r, m, [1, 0, 0, 0], [1, 1e-7, 0, 0])


def test_sectional_curvature_scales_exactly_with_the_metric(curved_par):
    # g times 2^-600 leaves the connection and R^l_ijk as they are and scales
    # R_ijkl by 2^-600, so each sectional curvature is 2^600 times that of g,
    # bit for bit; unscaled, each Gram determinant would underflow to 0.
    m, _, r = geometry_at(curved_par, [0.4, 0.1, -0.3, 0.2])
    s = 2.0**-600
    jets = [
        FieldJet(j.value * s, j.grad * s, j.hess_packed * s) for j in (m.jet_a, m.jet_b, m.jet_c)
    ]
    tiny = MetricAtPoint(*(j.value for j in jets), *jets, point=m.point)
    r_tiny = riemann_from_christoffel(tiny, christoffel_from_metric(tiny))
    assert np.array_equal(r_tiny.r_low, r.r_low * s)
    for x in sample_q_basis_vectors(np.random.default_rng(10), 10):
        y = q_apply(x, 1)
        assert sectional_curvature(r_tiny, tiny, x, y) == sectional_curvature(r, m, x, y) / s
    with pytest.raises(DegeneratePlaneError, match="Gram determinant 0.000e"):
        sectional_curvature(r_tiny, tiny, [1, 2, 0, 1], [2, 4, 0, 2])


# ---------------------------------------------------------------------------
# Covariant derivative of the shift
# ---------------------------------------------------------------------------


def test_nabla_q_vanishes_for_constants(const_spec):
    ch = christoffel_at(const_spec, [0, 0, 0, 0])
    assert nabla_q(ch).max_abs == 0.0


def test_nabla_q_vanishes_on_curved_par(curved_par):
    rng = np.random.default_rng(10)
    for p in interior_points(curved_par, rng, 25):
        ch = christoffel_at(curved_par, p)
        assert nabla_q(ch).max_abs <= 1e-9


def test_nabla_q_vanishes_on_flat_par(flat_par):
    rng = np.random.default_rng(11)
    for p in interior_points(flat_par, rng, 25):
        ch = christoffel_at(flat_par, p)
        assert nabla_q(ch).max_abs <= 1e-9


def test_nabla_q_nonzero_on_nonpar(nonpar):
    ch = christoffel_at(nonpar, [1, 0, 0, 0])
    assert nabla_q(ch).max_abs > 1e-2


def test_nabla_q_formula_shape():
    m = MetricAtPoint.from_constants(5, 1, 3)
    ch = christoffel_from_metric(m)
    assert nabla_q(ch).components.shape == (4, 4, 4)


# ---------------------------------------------------------------------------
# The index maps of q and of the circulant pattern
# ---------------------------------------------------------------------------


def _signed_values(rng, shape):
    """Finite floats over many magnitudes, a third of them +0.0 or -0.0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    zero = rng.random(shape) < 1 / 3
    return np.where(zero, np.copysign(0.0, rng.standard_normal(shape)), values)


def _same_up_to_zero_sign(got, ref):
    assert got.shape == ref.shape
    nonzero = ref != 0
    assert np.array_equal(got[nonzero].view(np.uint64), ref[nonzero].view(np.uint64))
    assert not got[~nonzero].any()


@pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3)])
def test_index_maps_match_mask_and_matrix_contractions(lead):
    # The gathers must give the masks' and Q's numbers: nonzero entries bit
    # for bit, zeros in value.  An exact zero may change sign: the gradient
    # of -(x1 - 12) is (-1, -0.0, -0.0, -0.0), a gather keeps the -0.0 and a
    # mask sum adds +0.0 to it.  No report shows this sign: every residual
    # is an absolute value, and `christoffel` and `curvature` at points of a
    # spec whose fields are negated like this write the same bytes either
    # way.
    rng = np.random.default_rng(len(lead) + sum(lead))
    a, b, c = (_signed_values(rng, lead) for _ in range(3))
    _same_up_to_zero_sign(circulant_matrix(a, b, c), masked(a, b, c))
    grads = [_signed_values(rng, (*lead, 4)) for _ in range(3)]
    _same_up_to_zero_sign(circulant_matrix(*grads), masked(*grads))  # d_k g_ij
    hessians = [_signed_values(rng, (*lead, 4, 4)) for _ in range(3)]
    _same_up_to_zero_sign(circulant_matrix(*hessians), masked(*hessians))  # d_l d_k g_ij
    gamma = _signed_values(rng, (*lead, 4, 4, 4))
    _same_up_to_zero_sign(_nabla_q(gamma), nabla_q_reference(gamma))
