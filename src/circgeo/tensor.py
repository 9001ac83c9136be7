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
so one call covers a block of points (`_christoffel_block`, whose `_Block`
holds the metric, Gamma and the curvature of every point with a leading
point axis); the per-point functions are their case without a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    InverseMetricAtPoint,
    ManifoldSpec,
    MetricAtPoint,
    _DOWN,
    _UP,
    _inverse_factors,
    _metric_jets,
    _naming_points,
    circulant_matrix,
    inner,
    inverse_metric,
    metric_at,
)
from .expr import FieldJet, _Failure, _first_failing

__all__ = [
    "ChristoffelAtPoint",
    "DegeneratePlaneError",
    "NablaQ",
    "RiemannAtPoint",
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


@dataclass(frozen=True)
class ChristoffelAtPoint:
    """Gamma^s_ij (symmetric in i, j) and its analytic derivatives.

    `gamma[s, i, j]` is Gamma^s_ij; `dgamma[l, s, i, j]` is d_l Gamma^s_ij,
    computed on first use (only the curvature needs it) with
    d_l g^{as} = -g^{ab} (d_l g_bc) g^{cs} and the entry Hessians, never by
    differencing.
    """

    gamma: np.ndarray
    metric: MetricAtPoint

    @cached_property
    def dgamma(self) -> np.ndarray:
        m = self.metric
        return _dgamma(inverse_metric(m).matrix, m.d1, m.d2)

    @cached_property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.gamma)))


def christoffel_from_metric(m: MetricAtPoint) -> ChristoffelAtPoint:
    return ChristoffelAtPoint(_gamma(inverse_metric(m).matrix, m.d1), m)


@dataclass(frozen=True)
class _Block:
    """The geometry of n points, each array with a leading point axis.

    `jets` are those of A, B, C (values (n,), gradients (n, 4)); `ginv`,
    `dg` and `gamma` are g^-1 (n, 4, 4), d_k g_ij (n, 4, 4, 4) and
    Gamma^s_ij (n, 4, 4, 4).  Row i holds what `metric_at`,
    `christoffel_from_metric` and `riemann_from_christoffel` give at the
    i-th point.  The metric, d Gamma and the curvature are computed on
    first use, so a caller that needs only Gamma does not pay for them.
    """

    points: np.ndarray
    jets: tuple[FieldJet, FieldJet, FieldJet]
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray

    @cached_property
    def g(self) -> np.ndarray:
        return circulant_matrix(*(jet.value for jet in self.jets))

    @cached_property
    def dgamma(self) -> np.ndarray:
        """d_l Gamma^s_ij, (n, l, s, i, j)."""
        return _dgamma(self.ginv, self.dg, circulant_matrix(*(jet.hess for jet in self.jets)))

    @cached_property
    def _curvature(self) -> tuple[np.ndarray, np.ndarray]:
        return _riemann(self.g, self.gamma, self.dgamma)

    @property
    def r_mixed(self) -> np.ndarray:
        """R^l_ijk, (n, l, i, j, k)."""
        return self._curvature[0]

    @property
    def r_low(self) -> np.ndarray:
        """R_ijkl, (n, i, j, k, l)."""
        return self._curvature[1]


def _christoffel_block(spec: ManifoldSpec, xs: np.ndarray) -> tuple[_Block, list[_Failure]]:
    """The geometry of the rows of xs (n, 4) up to the first one where
    `metric_at` or then `christoffel_from_metric` would fail, and the
    failures over all rows, unraised and in that order."""
    jets, failures = _metric_jets(spec, xs)
    inverse, singular = _inverse_factors(*(jet.value for jet in jets))
    failures.append(_naming_points(singular, xs))
    keep = slice(_first_failing(failures))
    jets = tuple(FieldJet(j.value[keep], j.grad[keep], j.hess_packed[keep]) for j in jets)
    ginv = InverseMetricAtPoint(
        *(f[keep] for f in (inverse.a_bar, inverse.b_bar, inverse.c_bar, inverse.d))
    ).matrix
    dg = circulant_matrix(*(jet.grad for jet in jets))
    return _Block(xs[keep], jets, ginv, dg, _gamma(ginv, dg)), failures


def christoffel_at(spec: ManifoldSpec, p) -> ChristoffelAtPoint:
    """Christoffel symbols of the spec's metric at a point."""
    return christoffel_from_metric(metric_at(spec, p))


@dataclass(frozen=True)
class RiemannAtPoint:
    """Curvature tensors at a point, in (1,3) and (0,4) form.

    `r_mixed[l, i, j, k]` is R^l_ijk with (i, j) the plane slots and k the
    argument; `r_low[i, j, k, l]` is the fully covariant tensor with the
    upper index lowered into the last slot.
    """

    r_mixed: np.ndarray
    r_low: np.ndarray
    metric: MetricAtPoint

    @cached_property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.r_low)))


def riemann_from_christoffel(m: MetricAtPoint, ch: ChristoffelAtPoint) -> RiemannAtPoint:
    return RiemannAtPoint(*_riemann(m.matrix, ch.gamma, ch.dgamma), m)


def riemann_at(spec: ManifoldSpec, p) -> RiemannAtPoint:
    """Riemann curvature of the spec's metric at a point."""
    m = metric_at(spec, p)
    return riemann_from_christoffel(m, christoffel_from_metric(m))


def sectional_curvature(r: RiemannAtPoint, m: MetricAtPoint, x, y) -> float:
    """Sectional curvature R(x,y,x,y) / (g(x,x) g(y,y) - g(x,y)^2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    gram = inner(m, x, x) * inner(m, y, y) - inner(m, x, y) ** 2
    scale = float(x @ x) * float(y @ y)
    if gram <= 1e-12 * scale:
        raise DegeneratePlaneError(
            f"vectors span no 2-plane (Gram determinant {gram:.3e})"
        )
    numerator = float(np.einsum("ijkl,i,j,k,l->", r.r_low, x, y, x, y))
    return numerator / gram


@dataclass(frozen=True)
class NablaQ:
    """Covariant derivative of the shift structure.

    `components[i, s, j]` holds Gamma^s_ik q^k_j - Gamma^k_ij q^s_k (the
    partial-derivative term drops since q is constant).  Its vanishing is a
    check on the metric, not an invariant of the type.
    """

    components: np.ndarray

    @cached_property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


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
