"""Connection and curvature of a circulant metric, computed from jets.

All derivatives come analytically from the second-order jets of A, B, C;
finite differences are never used here (they live in the test suite as an
independent oracle).

Conventions, fixed once for the whole package:

  * Christoffel symbols: 2 Gamma^s_ij = g^{as} (d_i g_aj + d_j g_ai - d_a g_ij).
  * Curvature sign: R(x, y) z = nabla_x nabla_y z - nabla_y nabla_x z
    - nabla_[x,y] z, so in coordinates
    R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik
              + Gamma^l_ia Gamma^a_jk - Gamma^l_ja Gamma^a_ik.
  * Index lowering uses the last slot: R_ijkl = g_al R^a_ijk, which makes
    R_ijkl = g(R(e_i, e_j) e_k, e_l).

The Christoffel, curvature and nabla q computations take any leading axes,
and so does their one container, `ChristoffelAtPoint`: over a
`MetricAtPoint` of n points (`_christoffel_block`) every array carries a
leading point axis, and at one point it has none.  The public functions
work on both.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import (
    ManifoldSpec,
    MetricAtPoint,
    _DOWN,
    _UP,
    _inverse_factors,
    _metric_jets,
    _scale_exponent,
    inverse_metric,
    metric_at,
)
from .expr import FieldJet, _Failure, _Record, _at_point, _first_failing

__all__ = [
    "ChristoffelAtPoint",
    "DegeneratePlaneError",
    "NablaQ",
    "christoffel_at",
    "christoffel_from_metric",
    "metric_compatibility_residual",
    "nabla_q",
    "riemann_at",
    "riemann_from_christoffel",
    "sectional_curvature",
]


class DegeneratePlaneError(ValueError):
    """The two vectors do not span a 2-plane."""


def _degenerate_planes(det, gxx, gyy):
    """Where x and y span no 2-plane, elementwise: their Gram determinant under g
    is at most 1e-12 g(x, x) g(y, y), the squared sine of their angle under g."""
    return det <= 1e-12 * gxx * gyy


def _degenerate_plane_error(det: float) -> DegeneratePlaneError:
    return DegeneratePlaneError(f"vectors span no 2-plane (Gram determinant {det:.3e})")


def _lowered(dg: np.ndarray) -> np.ndarray:
    """T[..., a, i, j] = d_i g_aj + d_j g_ai - d_a g_ij (symmetric in i, j)."""
    return np.einsum("...iaj->...aij", dg) + np.einsum("...jai->...aij", dg) - dg


def _gamma(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^s_ij = g^{as} T_aij / 2 over any leading axes: (..., s, i, j)."""
    return 0.5 * np.einsum("...as,...aij->...sij", ginv, _lowered(dg))


def _dgamma(ginv: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """d_l Gamma^s_ij over any leading axes: (..., l, s, i, j).

    Uses d_l g^{as} = -g^{ab} (d_l g_bc) g^{cs} and the entry Hessians
    `ddg` (..., l, k, i, j), never differencing.
    """
    dginv = -np.einsum("...ab,...lbc,...cs->...las", ginv, dg, ginv)
    # The axis after the leading ones of ddg is the extra derivative l: dT[l, a, i, j].
    return 0.5 * (
        np.einsum("...las,...aij->...lsij", dginv, _lowered(dg))
        + np.einsum("...as,...laij->...lsij", ginv, _lowered(ddg))
    )


def _riemann(g: np.ndarray, gamma: np.ndarray, dgamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R^l_ijk (..., l, i, j, k) and R_ijkl = g_al R^a_ijk over any leading axes."""
    r_mixed = (
        np.einsum("...iljk->...lijk", dgamma)
        - np.einsum("...jlik->...lijk", dgamma)
        + np.einsum("...lia,...ajk->...lijk", gamma, gamma)
        - np.einsum("...lja,...aik->...lijk", gamma, gamma)
    )
    return r_mixed, np.einsum("...al,...aijk->...ijkl", g, r_mixed)


def _max_abs(a: np.ndarray, ndim: int) -> float | np.ndarray:
    """max |a| over its last `ndim` axes: a float without a leading axis,
    else one value per leading index."""
    found = np.abs(a).max(axis=tuple(range(-ndim, 0)))
    return float(found) if found.ndim == 0 else found


class ChristoffelAtPoint(_Record):
    """Gamma^s_ij (symmetric in i, j), its analytic derivatives and the curvature.

    `gamma[..., s, i, j]` is Gamma^s_ij of `metric`, at one point or with
    the metric's leading point axis.  Computed on first use:
    `dgamma[..., l, s, i, j]`, d_l Gamma^s_ij, from
    d_l g^{as} = -g^{ab} (d_l g_bc) g^{cs} and the entry Hessians, never by
    differencing; the curvature `r_mixed[..., l, i, j, k]`, R^l_ijk with
    (i, j) the plane slots and k the argument, and `r_low[..., i, j, k, l]`,
    the covariant tensor with the upper index lowered into the last slot.
    Only the curvature needs d Gamma; `riemann_from_christoffel` builds it.
    `max_abs` and `norm_inf` are max |Gamma| and max |R_ijkl|: floats at one
    point, one value per point over a block.
    """

    __match_args__ = ("gamma", "metric")

    def __init__(self, gamma: np.ndarray, metric: MetricAtPoint):
        self.__dict__.update(gamma=gamma, metric=metric)

    @property
    def ginv(self) -> np.ndarray:
        """g^-1, (..., 4, 4)."""
        return inverse_metric(self.metric).matrix

    @cached_property
    def dgamma(self) -> np.ndarray:
        return _dgamma(self.ginv, self.metric.d1, self.metric.d2)

    @cached_property
    def _curvature(self) -> tuple[np.ndarray, np.ndarray]:
        return _riemann(self.metric.matrix, self.gamma, self.dgamma)

    @property
    def r_mixed(self) -> np.ndarray:
        return self._curvature[0]

    @property
    def r_low(self) -> np.ndarray:
        return self._curvature[1]

    @cached_property
    def max_abs(self) -> float | np.ndarray:
        return _max_abs(self.gamma, 3)

    @cached_property
    def norm_inf(self) -> float | np.ndarray:
        return _max_abs(self.r_low, 4)


def christoffel_from_metric(m: MetricAtPoint) -> ChristoffelAtPoint:
    return ChristoffelAtPoint(_gamma(inverse_metric(m).matrix, m.d1), m)


def _christoffel_block(
    spec: ManifoldSpec, xs: np.ndarray
) -> tuple[ChristoffelAtPoint, list[_Failure]]:
    """The connection of the rows of xs (n, 4) up to the first one where
    `metric_at` or then `christoffel_from_metric` would fail, over a
    `MetricAtPoint` of those rows, and the failures over all rows, unraised
    and in that order."""
    jets, failures = _metric_jets(spec, xs)
    _, singular = _inverse_factors(*(jet.value for jet in jets))
    failures.append(singular)
    keep = slice(_first_failing(failures))
    jets = tuple(FieldJet(j.value[keep], j.grad[keep], j.hess_packed[keep]) for j in jets)
    m = MetricAtPoint(*(jet.value for jet in jets), *jets, point=xs[keep])
    return christoffel_from_metric(m), failures


def christoffel_at(spec: ManifoldSpec, p) -> ChristoffelAtPoint:
    """Christoffel symbols of the spec's metric at a point."""
    return christoffel_from_metric(metric_at(spec, p))


def riemann_from_christoffel(m: MetricAtPoint, ch: ChristoffelAtPoint) -> ChristoffelAtPoint:
    """Build the curvature of `ch`, the connection of `m`, and return `ch`."""
    if m is not ch.metric:
        raise ValueError("the connection is not that of this metric")
    ch._curvature  # computed here, once, and kept
    return ch


def riemann_at(spec: ManifoldSpec, p) -> ChristoffelAtPoint:
    """Riemann curvature of the spec's metric at a point."""
    m = metric_at(spec, p)
    return riemann_from_christoffel(m, christoffel_from_metric(m))


def sectional_curvature(r: ChristoffelAtPoint, m: MetricAtPoint, x, y) -> float:
    """Sectional curvature R(x,y,x,y) / (g(x,x) g(y,y) - g(x,y)^2), the Gram
    determinant taken under g at unit scale (`_scale_exponent`)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    e = _scale_exponent(m.a)
    g = np.ldexp(m.matrix, -e)
    gxx, gyy = float(x @ g @ x), float(y @ g @ y)
    gram = gxx * gyy - float(x @ g @ y) ** 2
    if _degenerate_planes(gram, gxx, gyy):
        raise _at_point(_degenerate_plane_error(float(np.ldexp(gram, 2 * e))), m.point)
    numerator = float(np.einsum("ijkl,i,j,k,l->", r.r_low, x, y, x, y))
    return float(np.ldexp(numerator / gram, -2 * e))


class NablaQ(_Record):
    """Covariant derivative of the shift structure.

    `components[..., i, s, j]` holds Gamma^s_ik q^k_j - Gamma^k_ij q^s_k
    (the partial-derivative term drops since q is constant), with the
    leading axes of the connection.  Its vanishing is a check on the
    metric, not an invariant of the type.
    """

    __match_args__ = ("components",)

    def __init__(self, components: np.ndarray):
        self.__dict__["components"] = components

    @cached_property
    def max_abs(self) -> float | np.ndarray:
        return _max_abs(self.components, 3)


def _nabla_q(gamma: np.ndarray) -> np.ndarray:
    """Components of nabla q from Gamma over any leading axes: (..., i, s, j).
    q only relabels components: the terms are Gamma^s_i(j-1) and Gamma^(s+1)_ij."""
    return np.swapaxes(gamma[..., _DOWN] - gamma[..., _UP, :, :], -3, -2)


def nabla_q(ch: ChristoffelAtPoint) -> NablaQ:
    return NablaQ(_nabla_q(ch.gamma))


def metric_compatibility_residual(m: MetricAtPoint, ch: ChristoffelAtPoint) -> float:
    """Max abs entry of d_k g_ij - Gamma^a_ki g_aj - Gamma^a_kj g_ia."""
    g = m.matrix
    resid = (
        m.d1
        - np.einsum("aki,aj->kij", ch.gamma, g)
        - np.einsum("akj,ia->kij", ch.gamma, g)
    )
    return float(np.max(np.abs(resid)))
