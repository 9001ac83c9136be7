"""Circulant 4x4 metrics with the cyclic-shift structure.

The metric at a point is the circulant symmetric matrix built from three
scalar fields A, B, C in the pattern (A B C B / B A B C / C B A B / B C B A),
admissible when 0 < B < C < A.  The companion structure q is the constant
cyclic coordinate shift, which satisfies q^4 = id and is an isometry of every
metric of this shape.  This module builds metrics from a manifold spec,
tests admissibility, evaluates the closed-form inverse, measures inner
products and angles, classifies q-bases and gives orthonormal ones in
closed form.

This module is the one place that knows how q and the circulant pattern
are encoded: as index maps.  `_CLASS` maps entry (i, j) to 0, 1, 2 for A,
B, C, so the metric and its first and second partials are each one
gather (`circulant_matrix`) from the stacked values, gradients or
Hessians of A, B, C; `_SHIFTS` gathers q^k x, and `_UP` and `_DOWN` apply
q to an upper or a lower tensor index.  `Q` is the matrix of q for
callers; no code in the package contracts with it.

The domain check, the field jets, admissibility and the inverse are
computed for many points at once (`_metric_jets`, `_inverse_factors`,
`_orthogonal_q_bases`); `metric_at`, `inverse_metric` and
`find_orthogonal_q_basis` are their one-point case.  `MetricAtPoint` and
`InverseMetricAtPoint` are one type over any leading axis: the same class
holds the metric at one point or at a block of points.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import combinations

import numpy as np

from .expr import (
    FieldJet,
    ParseError,
    ScalarField,
    _Failure,
    _Record,
    _Value,
    _field_jets,
    _point_failure,
    _raise_first,
    _single,
    as_point,
    parse,
)

__all__ = [
    "AdmissibilityError",
    "BasisAngles",
    "Box",
    "InverseMetricAtPoint",
    "ManifoldSpec",
    "MetricAtPoint",
    "OutsideDomainError",
    "Q",
    "QBasisError",
    "SingularMetricError",
    "ZeroVectorError",
    "admissibility",
    "basis_angles",
    "circulant_matrix",
    "cos_angle",
    "find_orthogonal_q_basis",
    "induces_q_basis",
    "inner",
    "inverse_metric",
    "load_spec",
    "metric_at",
    "q_apply",
]


class AdmissibilityError(ValueError):
    """The ordering 0 < B < C < A fails at the requested point."""


class SingularMetricError(ValueError):
    """The closed-form inverse is undefined, q-basis inaccurate, or a minor overflows."""


class OutsideDomainError(ValueError):
    """Point lies outside the spec's domain box."""


class ZeroVectorError(ValueError):
    """Angle of a vector with non-positive squared length."""


class QBasisError(ValueError):
    """Vector does not induce a q-basis."""


# Entry (i, j) of the metric is A, B or C by _CLASS[i, j] = min(s, 4 - s), s = (j - i) mod 4.
_SHIFT = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4
_CLASS = np.minimum(_SHIFT, 4 - _SHIFT)
# Row k of x[..., _SHIFTS] is q^k x: (q^k x)^i = x^(i+k mod 4).
_SHIFTS = (np.arange(4)[:, None] + np.arange(4)) % 4
for _m in (_SHIFT, _CLASS, _SHIFTS):
    _m.setflags(write=False)
# The shift on tensor components: q e_k = e_(k-1), so feeding q e_k into a
# lower slot reads component k - 1 (gather with _DOWN), and applying q to
# an upper index gives (q v)^s = v^(s+1) (gather with _UP).
_UP, _DOWN = _SHIFTS[1], _SHIFTS[3]

# The cyclic shift as a matrix for callers, (q x)^s = Q[s, k] x^k = x^(s+1 mod 4).
Q = np.eye(4)[_UP]
Q.setflags(write=False)


def circulant_matrix(a, b, c) -> np.ndarray:
    """Symmetric circulant matrix with first row (a, b, c, b), over any
    leading axes: floats give one (4, 4) matrix, arrays of shape (n,) give
    n of them, and the gradients (..., k) or Hessians (..., l, k) of A, B,
    C give d_k g_ij (..., k, i, j) or d_l d_k g_ij (..., l, k, i, j).  One
    gather of the stacked (a, b, c) with `_CLASS`."""
    abc = np.stack(np.broadcast_arrays(a, b, c), axis=-1).astype(float, copy=False)
    return abc[..., _CLASS]


def q_apply(x, k: int = 1) -> np.ndarray:
    """Apply the cyclic shift k times: (1,2,3,4) -> (2,3,4,1) for k=1."""
    return np.asarray(x, dtype=float)[..., _SHIFTS[k % 4]]


# ---------------------------------------------------------------------------
# Manifold specs
# ---------------------------------------------------------------------------


class Box(_Record):
    """Axis-aligned domain box in R^4 with a finite extent; a ValueError names a bad domain."""

    __match_args__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = _domain_bound(lo, "min"), _domain_bound(hi, "max")
        with np.errstate(over="ignore"):
            if not np.isfinite(hi - lo).all():
                raise ValueError(
                    f"domain extent max - min overflows from {lo.tolist()} to {hi.tolist()}"
                )
        if np.any(lo > hi):
            raise ValueError("domain min exceeds max")
        self.__dict__.update(lo=lo, hi=hi)

    def _inside(self, xs: np.ndarray) -> np.ndarray:
        """Which rows of xs (n, 4) lie in the box, up to 1e-12 per coordinate."""
        return np.all((xs >= self.lo - 1e-12) & (xs <= self.hi + 1e-12), axis=1)

    def grid(self, n: int) -> np.ndarray:
        """Cartesian product of n equispaced samples per axis, endpoints included."""
        if n < 1:
            raise ValueError("grid resolution must be >= 1")
        axes = [np.linspace(self.lo[i], self.hi[i], n) for i in range(4)]
        # Broadcast views of the sparse mesh: only the stacked points are allocated.
        mesh = np.broadcast_arrays(*np.meshgrid(*axes, indexing="ij", sparse=True))
        return np.stack(mesh, axis=-1).reshape(-1, 4)


def _spec_field(data: dict, key: str) -> ScalarField:
    """Field `key` of a spec; a ParseError names the field, its offset
    still counted in the field's own text."""
    try:
        return parse(str(data[key]))
    except ParseError as exc:
        message = f"malformed manifold spec: field {key}: {exc.message}"
        raise ParseError(message, exc.offset) from None


def _domain_bound(value, key: str) -> np.ndarray:
    """A domain bound (a list, tuple or array of numbers; a bool is not one)
    as four finite floats, or a ValueError naming the bound."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    numbers = isinstance(items, (list, tuple)) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in items
    )
    try:
        bound = np.array(items, float) if numbers else None
    except OverflowError:  # an integer beyond the largest float
        bound = None
    if bound is None or bound.shape != (4,) or not np.isfinite(bound).all():
        raise ValueError(f"domain {key} must be four finite numbers, got {value!r}")
    return bound


class ManifoldSpec(_Record):
    """Named triple of scalar fields (A, B, C) plus a domain box."""

    __match_args__ = ("name", "A", "B", "C", "domain")

    def __init__(self, name: str, A: ScalarField, B: ScalarField, C: ScalarField, domain: Box):
        self.__dict__.update(name=name, A=A, B=B, C=C, domain=domain)

    @classmethod
    def from_dict(cls, data: dict) -> "ManifoldSpec":
        try:
            name = data["name"]
            if not isinstance(name, str):
                raise ValueError("malformed manifold spec: name must be a string")
            fields = {key: _spec_field(data, key) for key in ("A", "B", "C")}
            lo, hi = (data["domain"][key] for key in ("min", "max"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed manifold spec: {exc}") from exc
        try:
            domain = Box(lo, hi)
        except ValueError as exc:
            raise ValueError(f"malformed manifold spec: {exc}") from None
        return cls(name, fields["A"], fields["B"], fields["C"], domain)


def load_spec(path) -> ManifoldSpec:
    """Load a manifold spec from a JSON file."""
    with open(path) as f:
        text = f.read()
    try:
        data = json.loads(text)
    except RecursionError:  # json's reader recurses once per nested array or object
        raise ValueError("malformed manifold spec: JSON nested too deeply") from None
    return ManifoldSpec.from_dict(data)


# ---------------------------------------------------------------------------
# Metric at a point
# ---------------------------------------------------------------------------


def _ordered(a, b, c):
    """0 < b < c < a with every value finite, elementwise over arrays."""
    # b and c lie between 0 and a, so a finite a makes all three finite.
    return (0.0 < b) & (b < c) & (c < a) & np.isfinite(a)


def admissibility(a: float, b: float, c: float) -> tuple[bool, tuple[float, float, float, float]]:
    """Ordering test 0 < b < c < a (finite) plus the four closed-form leading minors."""
    minors = (
        a,
        (a - b) * (a + b),
        (a - c) * (a * (c + a) - 2.0 * b * b),
        (a - c) * (a - c) * ((a + c) * (a + c) - 4.0 * b * b),
    )
    return bool(_ordered(a, b, c)), minors


class MetricAtPoint(_Record):
    """Circulant metric realized at one point or at n points, with entry-wise jets.

    At one point `a`, `b`, `c` are floats and `point` has shape (4,); at n
    points each carries a leading axis, as do the jets (see `FieldJet`) and
    every array below.  `d1[..., k, i, j]` holds the first partial of entry
    (i, j) along coordinate k, `d2[..., l, k, i, j]` the second partial
    along (l, k); both are assembled from the jets of A, B, C through the
    circulant entry pattern, `d2` anew on each use.
    """

    __match_args__ = ("a", "b", "c", "jet_a", "jet_b", "jet_c", "point")

    def __init__(
        self,
        a: float | np.ndarray,
        b: float | np.ndarray,
        c: float | np.ndarray,
        jet_a: FieldJet,
        jet_b: FieldJet,
        jet_c: FieldJet,
        point: np.ndarray | None = None,
    ):
        self.__dict__.update(a=a, b=b, c=c, jet_a=jet_a, jet_b=jet_b, jet_c=jet_c, point=point)

    @classmethod
    def from_constants(cls, a: float, b: float, c: float) -> "MetricAtPoint":
        ordered, _ = admissibility(a, b, c)
        if not ordered:
            raise AdmissibilityError(f"0 < B < C < A fails for ({a}, {b}, {c})")
        zero4, zero10 = np.zeros(4), np.zeros(10)
        return cls(
            float(a),
            float(b),
            float(c),
            FieldJet(float(a), zero4, zero10),
            FieldJet(float(b), zero4, zero10),
            FieldJet(float(c), zero4, zero10),
        )

    @cached_property
    def matrix(self) -> np.ndarray:
        return circulant_matrix(self.a, self.b, self.c)

    @cached_property
    def d1(self) -> np.ndarray:
        return circulant_matrix(self.jet_a.grad, self.jet_b.grad, self.jet_c.grad)

    @property
    def d2(self) -> np.ndarray:
        return circulant_matrix(self.jet_a.hess, self.jet_b.hess, self.jet_c.hess)

    @cached_property
    def _inverse(self) -> "InverseMetricAtPoint":
        inverse, singular = _inverse_factors(*np.atleast_1d(self.a, self.b, self.c))
        _raise_first([singular], self.point)
        if np.ndim(self.a):
            return inverse
        factors = (inverse.a_bar, inverse.b_bar, inverse.c_bar, inverse.d)
        return InverseMetricAtPoint(*(float(f[0]) for f in factors), inverse.matrix[0])


def _metric_jets(
    spec: ManifoldSpec, xs: np.ndarray
) -> tuple[tuple[FieldJet, FieldJet, FieldJet], list[_Failure]]:
    """Jets of A, B and C at every row of xs (n, 4), and the failures unraised.

    The failures are listed in the order `metric_at` tests them at one
    point: a finite point, inside the domain box, the fields A, B and C,
    then the ordering 0 < B < C < A.
    """
    failures = [
        _point_failure(xs),
        (
            ~spec.domain._inside(xs),
            lambda i: OutsideDomainError(f"outside the domain box of spec '{spec.name}'"),
        ),
    ]
    jets = []
    for field in (spec.A, spec.B, spec.C):
        jet, field_failures = _field_jets(field.ast, xs)
        jets.append(jet)
        failures += field_failures
    a, b, c = (jet.value for jet in jets)
    failures.append(
        (
            ~_ordered(a, b, c),
            lambda i: AdmissibilityError(
                f"0 < B < C < A fails: A={float(a[i])}, B={float(b[i])}, C={float(c[i])}"
            ),
        )
    )
    return tuple(jets), failures


def metric_at(spec: ManifoldSpec, p) -> MetricAtPoint:
    """Evaluate the circulant metric of a spec at a point.

    Raises ValueError when p is not finite, OutsideDomainError when p
    leaves the domain box, DomainError when a field cannot be evaluated
    there (or is not finite) and AdmissibilityError when the ordering
    0 < B < C < A fails there, each ending in " at point [...]".
    """
    x = as_point(p)
    jets, failures = _metric_jets(spec, x[None])
    _raise_first(failures, x)
    ja, jb, jc = (_single(jet) for jet in jets)
    return MetricAtPoint(ja.value, jb.value, jc.value, ja, jb, jc, point=x)


class InverseMetricAtPoint(_Record):
    """Closed-form inverse of a circulant metric.

    The inverse is circulant again, with first row (a_bar, b_bar, c_bar,
    b_bar) / d where a_bar = A(A+C) - 2B^2, b_bar = B(C-A),
    c_bar = 2B^2 - C(A+C) and d = (A-C)((A+C)^2 - 4B^2).  The factors are
    floats at one point, or (n,) arrays over n points with `matrix` of shape
    (n, 4, 4).  The factors are those of the metric as given, so at a tiny
    scale they underflow (d is cubic in the scale); `matrix` is computed
    from the factors at unit scale (`_scale_exponent`) and scaled back.
    """

    __match_args__ = ("a_bar", "b_bar", "c_bar", "d", "matrix")

    def __init__(
        self,
        a_bar: float | np.ndarray,
        b_bar: float | np.ndarray,
        c_bar: float | np.ndarray,
        d: float | np.ndarray,
        matrix: np.ndarray,
    ):
        self.__dict__.update(a_bar=a_bar, b_bar=b_bar, c_bar=c_bar, d=d, matrix=matrix)


def _factors(a, b, c) -> tuple:
    """The closed-form inverse factors (a_bar, b_bar, c_bar, d) of (A, B, C)."""
    d = (a - c) * ((a + c) ** 2 - 4.0 * b * b)
    return a * (a + c) - 2.0 * b * b, b * (c - a), 2.0 * b * b - c * (a + c), d


def _scale_exponent(a):
    """The metric's scale, e with A = f 2^e and f in [0.5, 1): g 2^-e is g at unit scale."""
    return np.frexp(a)[1]


def _inverse_factors(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[InverseMetricAtPoint, _Failure]:
    """The closed-form inverse at n points, and where it is undefined: where
    an entry is not finite (d of the scaled metric vanishes, or a tiny or
    ill-conditioned metric overflows it) or a factor of the metric as given
    overflows (d grows like A^3, so from A of about 5.6e102 on)."""
    with np.errstate(all="ignore"):
        factors = _factors(a, b, c)
        e = _scale_exponent(a)
        *bars, d = _factors(*np.ldexp([a, b, c], -e))
        matrix = circulant_matrix(*np.ldexp(np.divide(bars, d), -e))
        finite = np.isfinite(factors).all(axis=0)
        singular = ~(finite & np.isfinite(matrix[:, 0]).all(axis=1))  # row 0 holds every entry

    def make(i: int) -> Exception:
        if d[i] == 0.0:
            reason = "determinant factor is zero"
        elif not finite[i]:
            reason = "closed-form factors overflow"
        else:
            reason = "inverse overflows"
        return SingularMetricError(
            f"inverse undefined for (A, B, C) = ({float(a[i])}, {float(b[i])}, {float(c[i])}): "
            + reason
        )

    return InverseMetricAtPoint(*factors, matrix), (singular, make)


def inverse_metric(m: MetricAtPoint) -> InverseMetricAtPoint:
    """The closed-form inverse of m (computed once per metric)."""
    return m._inverse


# ---------------------------------------------------------------------------
# Inner products, angles, q-bases
# ---------------------------------------------------------------------------


def inner(m: MetricAtPoint, x, y) -> float:
    """Bilinear contraction g_ij x^i y^j."""
    return float(np.asarray(x, float) @ m.matrix @ np.asarray(y, float))


def _clamp_cosine(value):
    """Clip cosines (a float or an array) to [-1, 1]; raise beyond rounding."""
    value = np.asarray(value, dtype=float)
    beyond = np.abs(value) > 1.0 + 1e-12
    if beyond.any():
        raise ValueError(f"cosine {value[beyond].flat[0]} out of [-1, 1] beyond rounding")
    return np.clip(value, -1.0, 1.0)


def cos_angle(m: MetricAtPoint, x, y) -> float:
    gxx = inner(m, x, x)
    gyy = inner(m, y, y)
    if gxx <= 0.0 or gyy <= 0.0:
        raise ZeroVectorError(
            f"cannot measure an angle with squared lengths {gxx}, {gyy}"
        )
    return float(_clamp_cosine(inner(m, x, y) / (math.sqrt(gxx) * math.sqrt(gyy))))


def _q_basis_criterion(xs) -> tuple[np.ndarray, np.ndarray]:
    """`induces_q_basis` over the last axis of xs: (flags, criterion values).
    The flags are those of each vector scaled exactly, by a power of two,
    into [0.5, 1), so that |x|^4 neither overflows nor underflows."""
    xs = np.asarray(xs, dtype=float)
    _, e = np.frexp(np.abs(xs).max(axis=-1))
    x1, x2, x3, x4 = np.moveaxis(np.ldexp(xs, -e[..., None]), -1, 0)
    value = ((x1 - x3) ** 2 + (x2 - x4) ** 2) * ((x1 + x3) ** 2 - (x2 + x4) ** 2)
    norm4 = (x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4) ** 2
    with np.errstate(over="ignore"):
        return np.abs(value) > 1e-12 * norm4, np.ldexp(value, 4 * e)


def induces_q_basis(x) -> tuple[bool, float]:
    """Whether {x, qx, q^2 x, q^3 x} spans, and the closed-form criterion value.

    The value equals det[x, qx, q^2 x, q^3 x]; the flag applies a scaled
    cutoff |value| > 1e-12 * |x|^4 since an exact float zero test is
    meaningless off the measure-zero degenerate set.
    """
    flag, value = _q_basis_criterion(x)
    return bool(flag), float(value)


class BasisAngles(_Value):
    """Cosines of the two independent angles inside a q-basis: `cos_phi` of
    angle(x, qx) and `cos_theta` of angle(x, q^2 x)."""

    __match_args__ = ("cos_phi", "cos_theta")

    def __init__(self, cos_phi: float, cos_theta: float):
        self.__dict__.update(cos_phi=cos_phi, cos_theta=cos_theta)


_EQUAL_ANGLE_TOL = 1e-12


def basis_angles(m: MetricAtPoint, x) -> BasisAngles:
    """Angles of a q-basis; also enforces the angle symmetries of the shift.

    For any q-basis the four neighbour angles agree and the two diagonal
    angles agree (the shift is an isometry); additionally
    4 cos(phi) - cos(theta) < 3 must hold.  Violations beyond rounding
    raise: beyond `_EQUAL_ANGLE_TOL` times the metric's condition number
    lambda_max / lambda_min, with which the cosines' rounding grows.
    """
    flag, value = induces_q_basis(x)
    if not flag:
        raise QBasisError(f"{np.asarray(x).tolist()} does not induce a q-basis (criterion {value})")
    shifts = np.asarray(x, dtype=float)[_SHIFTS]
    cosines = {
        (i, j): cos_angle(m, shifts[i], shifts[j])
        for i, j in combinations(range(4), 2)
    }
    ring = [cosines[0, 1], cosines[1, 2], cosines[2, 3], cosines[0, 3]]
    diag = [cosines[0, 2], cosines[1, 3]]
    eigenvalues = _circulant_eigenvalues(m.a, m.b, m.c)
    # The ratio first: 1e-12 lambda_max underflows to 0 for a subnormal metric.
    tol = _EQUAL_ANGLE_TOL * (max(eigenvalues) / min(eigenvalues))
    if max(ring) - min(ring) > tol or abs(diag[0] - diag[1]) > tol:
        raise ValueError(
            f"q-basis angle symmetry violated beyond rounding: ring={ring}, diag={diag}"
        )
    cos_phi, cos_theta = ring[0], diag[0]
    if not 4.0 * cos_phi - cos_theta < 3.0:
        raise ValueError(
            f"q-basis angle inequality violated: 4*{cos_phi} - {cos_theta} >= 3"
        )
    return BasisAngles(cos_phi, cos_theta)


# ---------------------------------------------------------------------------
# Orthonormal q-bases
# ---------------------------------------------------------------------------


def _circulant_eigenvalues(a, b, c):
    """Eigenvalues of the circulant metric (A, B, C): lambda0 = A + 2B + C on
    f0 = (1, 1, 1, 1)/2, lambda1 = lambda3 = A - C on f1 = (1, 0, -1, 0)/sqrt(2)
    and f3 = (0, 1, 0, -1)/sqrt(2), and lambda2 = A - 2B + C on
    f2 = (1, -1, 1, -1)/2.  Floats or arrays, elementwise."""
    return a + 2.0 * b + c, a - c, a - 2.0 * b + c


def _basis_draws(rng: np.random.Generator) -> np.ndarray:
    """The angle t, uniform in [0, 2 pi), and the signs s0, s2, each +1 or
    -1 with equal odds, that pick one orthonormal q-basis: (t, s0, s2)."""
    u = rng.random(3)
    return np.array([2.0 * math.pi * u[0], *np.where(u[1:] < 0.5, 1.0, -1.0)])


def _orthogonal_q_bases(a, b, c, t, s0, s2) -> tuple[np.ndarray, _Failure]:
    """From (n,) arrays of A, B, C and of the draws t, s0, s2: the unit
    vectors x (n, 4) of `find_orthogonal_q_basis`, and the metrics where x
    fails its acceptance test, unraised.

    With x_k the component of x along f_k, {x, qx, q^2 x, q^3 x} is
    orthonormal exactly when lambda0 x_0^2 = lambda2 x_2^2 = 1/4 and
    lambda1 (x_1^2 + x_3^2) = 1/2.  In floats the Gram error grows like
    lambda_max / lambda1, so x passes only where all products and norms are
    within 1e-10 of delta_ij and x induces a q-basis.  Each step is
    elementwise or a sum over one point's axes: a row does not depend on
    the other rows.
    """
    with np.errstate(all="ignore"):
        lam0, lam1, lam2 = _circulant_eigenvalues(a, b, c)
        even, odd = s0 / (4.0 * np.sqrt(lam0)), s2 / (4.0 * np.sqrt(lam2))
        scale = 2.0 * np.sqrt(lam1)
        u, v = np.cos(t) / scale, np.sin(t) / scale
        x = np.stack((even + odd + u, even - odd + v, even + odd - u, even - odd - v), axis=-1)
        shifts = x[:, _SHIFTS]  # shifts[p, k] = q^k x_p
        g_shifts = (circulant_matrix(a, b, c)[:, None] * shifts[:, :, None]).sum(-1)
        gram = (shifts[:, :, None] * g_shifts[:, None]).sum(-1)
        resid = np.abs(gram - np.eye(4)).max(axis=(1, 2))
    bad = ~((resid <= 1e-10) & _q_basis_criterion(x)[0])

    def make(i: int) -> Exception:
        return SingularMetricError(
            f"no orthogonal q-basis accurate to 1e-10 for (A, B, C) = "
            f"({float(a[i])}, {float(b[i])}, {float(c[i])}): Gram residual {resid[i]:.3e}"
        )

    return x, (bad, make)


def find_orthogonal_q_basis(m: MetricAtPoint, seed: int | np.random.Generator = 0) -> np.ndarray:
    """A unit vector x with {x, qx, q^2 x, q^3 x} orthonormal under m.

    g and q are both diagonal in the real DFT basis f_k, g with eigenvalues
    lambda0 = A + 2B + C, lambda1 = lambda3 = A - C and lambda2 = A - 2B + C,
    so x = s0 f0 / (2 sqrt(lambda0)) + s2 f2 / (2 sqrt(lambda2))
    + (cos t f1 + sin t f3) / sqrt(2 lambda1), where the seed draws the
    angle t and the signs s0, s2.  Raises SingularMetricError where the
    metric is too ill-conditioned for products and norms within 1e-10 (at
    (1 + eps, 0.5, 1), for some draws from eps = 5e-7 down).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x, failure = _orthogonal_q_bases(*np.atleast_1d(m.a, m.b, m.c), *_basis_draws(rng)[:, None])
    _raise_first([failure], m.point)
    return x[0]
