"""Symbolic oracle: jets and the block geometry against sympy's exact derivatives.

sympy differentiates each field exactly and evaluates at 40 significant
digits, so the comparison bound (1e-12 relative to the largest entry of the
quantity at that point) is far tighter than the finite-difference oracles.
"""

import numpy as np
import pytest

from circgeo.expr import BinOp, Call, Const, Neg, Pow, Var, eval_jets, parse
from circgeo.tensor import _christoffel_block

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

X = sympy.symbols("x1:5")
PACKED = [(i, j) for i in range(4) for j in range(i, 4)]
MIXED = "sin(x1*x2) - cos(x3)/exp(x4) + log(2 + x1^2)*sqrt(3 + x2 - x3) + (1 + x4^2)^-2"


def to_sympy(node):
    match node:
        case Const(value=v):
            return sympy.Rational(v)  # the exact binary value of the literal
        case Var(index=i):
            return X[i - 1]
        case Neg(operand=child):
            return -to_sympy(child)
        case BinOp(op="+", left=left, right=right):
            return to_sympy(left) + to_sympy(right)
        case BinOp(op="-", left=left, right=right):
            return to_sympy(left) - to_sympy(right)
        case BinOp(op="*", left=left, right=right):
            return to_sympy(left) * to_sympy(right)
        case BinOp(op="/", left=left, right=right):
            return to_sympy(left) / to_sympy(right)
        case Pow(base=base, exponent=e):
            return to_sympy(base) ** e
        case Call(func=f, arg=arg):
            return getattr(sympy, f)(to_sympy(arg))
    raise TypeError(node)


def exact_jets(field, points):
    """Value (n,), gradient (n, 4) and packed Hessian (n, 10) from sympy."""
    expr = to_sympy(field.ast)
    grad = [sympy.diff(expr, x) for x in X]
    hess = [sympy.diff(grad[i], X[j]) for i, j in PACKED]
    fn = sympy.lambdify(X, [expr, *grad, *hess], modules="mpmath")
    with mpmath.workdps(40):
        rows = [[float(v) for v in fn(*(mpmath.mpf(float(c)) for c in p))] for p in points]
    rows = np.array(rows)
    return rows[:, 0], rows[:, 1:5], rows[:, 5:]


def assert_close(got, ref):
    """|got - ref| <= 1e-12 * max |ref| per point (exact where ref is all zero)."""
    ref = ref.reshape(len(ref), -1)
    got = got.reshape(len(got), -1)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def fields_and_points(all_fixture_specs):
    rng = np.random.default_rng(1414)
    for spec in all_fixture_specs:
        points = rng.uniform(spec.domain.lo, spec.domain.hi, size=(16, 4))
        for name in ("A", "B", "C"):
            yield getattr(spec, name), points
    yield parse(MIXED), rng.uniform(-1, 1, size=(16, 4))


def test_jets_match_sympy(all_fixture_specs):
    checked = 0
    for field, points in fields_and_points(all_fixture_specs):
        jet = eval_jets(field, points)  # all 16 points in one call
        value, grad, hess = exact_jets(field, points)
        assert_close(jet.value[:, None], value[:, None])
        assert_close(jet.grad, grad)
        assert_close(jet.hess_packed, hess)
        checked += 1
    assert checked == 13


A_, B_, C_ = sympy.symbols("a b c")
# The circulant pattern (A B C B / B A B C / C B A B / B C B A) over symbols,
# inverted by sympy's generic routine (not the closed form the package uses).
G_SYM = sympy.Matrix(4, 4, lambda i, j: (A_, B_, C_, B_)[(j - i) % 4])
GINV_SYM = G_SYM.inv()


def exact_geometry(spec, points):
    """Gamma (n, s, i, j), d_l Gamma (n, l, s, i, j) and R_ijkl (n, i, j, k, l)
    at 40 digits: exact derivatives of A, B, C from sympy, the inverse and its
    partials in (a, b, c) from sympy, and the defining formulas in mpmath."""
    jets = [
        sympy.lambdify(X, [e, *(sympy.diff(e, x) for x in X)], modules="mpmath")
        for e in (to_sympy(getattr(spec, k).ast) for k in "ABC")
    ]
    hessians = [
        sympy.lambdify(X, sympy.hessian(to_sympy(getattr(spec, k).ast), X), modules="mpmath")
        for k in "ABC"
    ]
    ginv_fn = sympy.lambdify((A_, B_, C_), GINV_SYM, modules="mpmath")
    dginv_fn = [
        sympy.lambdify((A_, B_, C_), GINV_SYM.diff(f), modules="mpmath") for f in (A_, B_, C_)
    ]
    pattern = np.array([[(j - i) % 4 for j in range(4)] for i in range(4)])
    slot = np.array([0, 1, 2, 1])[pattern]  # which of A, B, C sits at entry (i, j)
    out = []
    with mpmath.workdps(40):
        for p in points:
            x = [mpmath.mpf(float(c)) for c in p]
            values = [jet(*x) for jet in jets]  # the value, then the 4 partials
            abc = [v[0] for v in values]
            grads = [np.array(v[1:], dtype=object) for v in values]
            hess = [np.array(h(*x).tolist(), dtype=object) for h in hessians]
            # Entry (i, j) of g and of its derivatives is that of A, B or C.
            g = np.array(abc, dtype=object)[slot]
            dg = np.moveaxis(np.array(grads)[slot], -1, 0)  # (k, i, j)
            ddg = np.moveaxis(np.array(hess)[slot], (-2, -1), (0, 1))  # (l, k, i, j)
            ginv = np.array(ginv_fn(*abc).tolist(), dtype=object)
            # d_l g^-1 by the chain rule through the partials of g^-1 in a, b, c.
            dginv = sum(
                np.multiply.outer(grad, np.array(d(*abc).tolist(), dtype=object))
                for d, grad in zip(dginv_fn, grads)
            )
            t = np.einsum("iaj->aij", dg) + np.einsum("jai->aij", dg) - dg
            dt = np.einsum("liaj->laij", ddg) + np.einsum("ljai->laij", ddg) - ddg
            gamma = np.einsum("as,aij->sij", ginv, t) / 2
            dgamma = (np.einsum("las,aij->lsij", dginv, t) + np.einsum("as,laij->lsij", ginv, dt)) / 2
            r_mixed = (
                np.einsum("iljk->lijk", dgamma)
                - np.einsum("jlik->lijk", dgamma)
                + np.einsum("lia,ajk->lijk", gamma, gamma)
                - np.einsum("lja,aik->lijk", gamma, gamma)
            )
            r_low = np.einsum("al,aijk->ijkl", g, r_mixed)
            out.append([np.vectorize(float)(a) for a in (gamma, dgamma, r_low)])
    return [np.array(q) for q in zip(*out)]


def test_block_geometry_matches_sympy(all_fixture_specs):
    rng = np.random.default_rng(1515)
    for spec in all_fixture_specs:
        points = rng.uniform(spec.domain.lo, spec.domain.hi, size=(16, 4))
        geo, failures = _christoffel_block(spec, points)  # all 16 points in one call
        assert len(geo.metric.point) == 16 and not any(mask.any() for mask, _ in failures)
        gamma, dgamma, r_low = exact_geometry(spec, points)
        assert_close(geo.gamma, gamma)
        assert_close(geo.dgamma, dgamma)
        assert_close(geo.r_low, r_low)
