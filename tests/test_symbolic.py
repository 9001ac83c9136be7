"""Symbolic oracle: jets from the array evaluator against sympy's exact derivatives.

sympy differentiates each field exactly and evaluates at 40 significant
digits, so the comparison bound (1e-12 relative to the largest entry of the
quantity at that point) is far tighter than the finite-difference oracles.
"""

import numpy as np
import pytest

from circgeo.expr import BinOp, Call, Const, Neg, Pow, Var, eval_jets, parse

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
