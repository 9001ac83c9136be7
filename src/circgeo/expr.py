"""Scalar fields on R^4: a tiny expression language with exact second-order jets.

Fields are written over the coordinates x1..x4 using +, -, *, /, integer
powers and sin/cos/exp/log/sqrt.  Evaluation propagates (value, gradient,
Hessian) in a single forward pass, so all derivatives are exact calculus
derivatives up to floating-point rounding; no finite differencing is involved.

There is one evaluator, and it works on many points at once: `eval_jets`
walks the tree once over an (n, 4) array of points and returns the values
(n,), gradients (n, 4) and packed Hessians (n, 10) as one `FieldJet`.
`eval_jet` and `ScalarField.jet` are its one-point case.  A point where a
subexpression leaves its domain, or where a value, gradient or Hessian
entry stops being finite, raises `DomainError` naming that subexpression;
over many points the error is the one a point-by-point walk would meet
first (the first failing point, and there the first failing node in
evaluation order).

Grammar (whitespace insignificant, identifiers case-sensitive):

    expr   := term { ("+"|"-") term }
    term   := factor { ("*"|"/") factor }
    factor := ["-"] base [ "^" integer ]
    base   := number | "x1".."x4" | func "(" expr ")" | "(" expr ")"
    func   := "sin" | "cos" | "exp" | "log" | "sqrt"

Binary +, -, *, / are left-associative, "^" binds tighter than unary minus
and takes a (possibly signed) integer literal exponent n such that n(n - 1)
fits a float (any exponent of up to 154 digits does).  Numbers are decimal
literals: at least one digit and at most one point (``3``, ``1.``, ``.5``,
``2.25``), then an optional exponent part (``2.5e-3``, ``1E+16``); any
Unicode decimal digit counts as a digit.  A second point starts a new
token, so ``1.2.3`` is an error at ``.3``.  An identifier is a run of
letters, digits and "_" that does not start with a decimal digit; the only
ones known are x1..x4 and the function names.  Every source that does not
parse raises `ParseError` with the offset of the offending token.  Parentheses
and function calls nest at most `MAX_DEPTH` levels, and the syntax tree is at
most `MAX_DEPTH` nodes deep (a sum of n terms is n deep); deeper input
is a `ParseError` at the token that goes past the limit.  The evaluator and
`unparse` recurse once per level and rely on this bound.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Union

import numpy as np

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "DomainError",
    "FieldJet",
    "Neg",
    "ParseError",
    "Pow",
    "ScalarField",
    "Var",
    "as_point",
    "eval_jet",
    "eval_jets",
    "parse",
    "unparse",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
VARIABLES = ("x1", "x2", "x3", "x4")
MAX_DEPTH = 100


class ParseError(ValueError):
    """Source text does not match the grammar; `offset` is a character
    position in it and `message` the text before " (offset N)"."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class DomainError(ValueError):
    """Evaluation left the mathematical domain of a subexpression."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class _Record:
    """Base of circgeo's record types: each `__init__` writes the fields into
    `__dict__` once, and assigning or deleting an attribute afterwards raises
    AttributeError.  `__match_args__` names the fields in constructor order,
    for `repr` and positional `match` patterns.  These are plain classes, not
    frozen dataclasses, because a dataclass `exec`s its generated methods
    when its class is created: about 1 ms a class in every process.
    (`functools.cached_property` writes `__dict__` directly, so it works.)"""

    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """A record equal to another of its type with equal fields, and hashed by them."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Const(_Value):
    __match_args__ = ("value",)

    def __init__(self, value: float):
        self.__dict__["value"] = value


class Var(_Value):
    __match_args__ = ("index",)

    def __init__(self, index: int):  # 1..4
        self.__dict__["index"] = index


class Neg(_Value):
    __match_args__ = ("operand",)

    def __init__(self, operand: Node):
        self.__dict__["operand"] = operand


class BinOp(_Value):
    __match_args__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):  # op one of "+", "-", "*", "/"
        self.__dict__.update(op=op, left=left, right=right)


class Pow(_Value):
    """base^exponent for an integer exponent n whose n(n - 1), the largest
    coefficient of the jet (`_pow_jet`), fits a float; else ValueError."""

    __match_args__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: int):
        try:
            float(exponent * (exponent - 1))
        except OverflowError:
            raise ValueError(f"exponent of {exponent.bit_length()} bits is too large") from None
        self.__dict__.update(base=base, exponent=exponent)


class Call(_Value):
    __match_args__ = ("func", "arg")

    def __init__(self, func: str, arg: Node):
        self.__dict__.update(func=func, arg=arg)


Node = Union[Const, Var, Neg, BinOp, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# One match per token: optional whitespace, then a decimal literal, an
# identifier, an operator or parenthesis, the end of the source, or (the
# last resort) any other character.  `\d` is a Unicode decimal digit, as
# `float` and `int` read them, and `[^\W\d]` a word character that is not one.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<eof>\Z)|(?P<bad>.))",
    re.DOTALL,
)
_BINARY = ("+-", "*/")  # binary operators, loosest binding first


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, ending with ("eof", "", len(src))."""
    toks = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        toks.append((kind, m[kind], m.start(kind)))
        if kind == "eof":
            return toks


class _Parser:
    """Recursive descent; every method returns (node, depth of its tree)."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node, _ = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r} after expression", off)
        return node

    def node(self, node: Node, off: int, *children: tuple[Node, int]) -> tuple[Node, int]:
        depth = 1 + max(d for _, d in children)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", off)
        return node, depth

    def nested(self, off: int) -> tuple[Node, int]:
        """An expression and its closing ')' inside parentheses or a call
        opened at `off`."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than {MAX_DEPTH} levels", off)
        inner = self.expr()
        self.nesting -= 1
        _, text, off = self.advance()
        if text != ")":
            raise ParseError("expected ')'", off)
        return inner

    def expr(self, level: int = 0) -> tuple[Node, int]:
        """A left-associative chain over the operators `_BINARY[level]`: a
        sum of terms at level 0, a term (a product of factors) at level 1."""
        last = level == len(_BINARY) - 1
        left = self.factor() if last else self.expr(level + 1)
        while True:
            kind, text, off = self.peek()
            if kind != "op" or text not in _BINARY[level]:
                return left
            self.advance()
            right = self.factor() if last else self.expr(level + 1)
            left = self.node(BinOp(text, left[0], right[0]), off, left, right)

    def factor(self) -> tuple[Node, int]:
        _, text, neg_off = self.peek()
        negate = text == "-"
        if negate:
            self.advance()
        base = self.base()
        _, text, off = self.peek()
        if text == "^":
            self.advance()
            base = self.node(self.power(base[0]), off, base)
        return self.node(Neg(base[0]), neg_off, base) if negate else base

    def power(self, base: Node) -> Pow:
        """`base` to the signed integer literal that follows "^"."""
        _, text, off = self.peek()
        sign = 1
        if text == "-":
            self.advance()
            sign = -1
        kind, text, off = self.advance()
        if kind != "num":
            raise ParseError("expected an integer exponent", off)
        if any(c in text for c in ".eE"):
            raise ParseError(f"non-integer exponent {text!r}", off)
        try:
            n = sign * int(text)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"exponent of {len(text)} digits is too long", off) from None
        try:
            return Pow(base, n)
        except ValueError:
            raise ParseError(f"exponent of {len(text)} digits is too large", off) from None

    def base(self) -> tuple[Node, int]:
        kind, text, off = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows", off)
            return Const(value), 1
        if kind == "ident":
            if text in VARIABLES:
                return Var(int(text[1])), 1
            if text in FUNCTIONS:
                _, paren, paren_off = self.advance()
                if paren != "(":
                    raise ParseError(f"expected '(' after {text}", paren_off)
                arg = self.nested(paren_off)
                return self.node(Call(text, arg[0]), off, arg)
            raise ParseError(f"unknown identifier {text!r}", off)
        if text == "(":
            return self.nested(off)
        raise ParseError("expected a number, coordinate, function or '('", off)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    match node:
        case BinOp(op="+") | BinOp(op="-"):
            return _PREC_ADD
        case BinOp():
            return _PREC_MUL
        case Neg():
            return _PREC_NEG
        case Pow():
            return _PREC_POW
        case _:
            return _PREC_ATOM


def _wrap(node: Node, minprec: int) -> str:
    text = unparse(node)
    return f"({text})" if _prec(node) < minprec else text


def unparse(node: Node) -> str:
    """Render an AST to source that re-parses to a structurally equal tree."""
    match node:
        case Const(value=v):
            return repr(v)
        case Var(index=i):
            return f"x{i}"
        case Neg(operand=child):
            # The grammar allows a single leading minus per factor, so a
            # nested negation needs parentheses.
            return "-" + _wrap(child, _PREC_NEG + 1)
        case BinOp(op=op, left=left, right=right):
            prec = _prec(node)
            return f"{_wrap(left, prec)} {op} {_wrap(right, prec + 1)}"
        case Pow(base=base, exponent=e):
            return f"{_wrap(base, _PREC_ATOM)}^{e}"
        case Call(func=f, arg=arg):
            return f"{f}({unparse(arg)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Second-order jets
# ---------------------------------------------------------------------------

# Packed upper-triangle layout for symmetric 4x4 Hessians.
_PI = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_PJ = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
_Z4 = np.zeros(4)
_Z4.setflags(write=False)
_Z10 = np.zeros(10)
_Z10.setflags(write=False)
_E4 = np.eye(4)
_E4.setflags(write=False)


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed a_i b_j + a_j b_i (product-rule cross term)."""
    return a[..., _PI] * b[..., _PJ] + a[..., _PJ] * b[..., _PI]


def _outer_self(a: np.ndarray) -> np.ndarray:
    """Packed a_i a_j (chain-rule term; diagonal not doubled)."""
    return a[..., _PI] * a[..., _PJ]


def _col(v) -> np.ndarray:
    """A value (float or per-point array) as a column against gradients."""
    return np.asarray(v)[..., None]


class FieldJet(_Record):
    """Value, gradient and Hessian of a scalar field, at one point or many.

    At one point `value` is a float, `grad` has shape (4,) and `hess_packed`
    holds the 10 upper-triangle entries, so symmetry is exact by
    construction; `hess` assembles the full 4x4 matrix on demand.  Over n
    points each carries a leading axis: (n,), (n, 4), (n, 10) and (n, 4, 4).
    The arithmetic below is the jet calculus for both.
    """

    __match_args__ = ("value", "grad", "hess_packed")

    def __init__(self, value: float | np.ndarray, grad: np.ndarray, hess_packed: np.ndarray):
        # One jet per tree node per block of points: three plain stores.
        fields = self.__dict__
        fields["value"] = value
        fields["grad"] = grad
        fields["hess_packed"] = hess_packed

    @property
    def hess(self) -> np.ndarray:
        h = np.empty(self.hess_packed.shape[:-1] + (4, 4))
        h[..., _PI, _PJ] = self.hess_packed
        h[..., _PJ, _PI] = self.hess_packed
        return h

    def __add__(self, other: "FieldJet") -> "FieldJet":
        return FieldJet(
            self.value + other.value,
            self.grad + other.grad,
            self.hess_packed + other.hess_packed,
        )

    def __sub__(self, other: "FieldJet") -> "FieldJet":
        return FieldJet(
            self.value - other.value,
            self.grad - other.grad,
            self.hess_packed - other.hess_packed,
        )

    def __neg__(self) -> "FieldJet":
        return FieldJet(-self.value, -self.grad, -self.hess_packed)

    def __mul__(self, other: "FieldJet") -> "FieldJet":
        sv, ov = _col(self.value), _col(other.value)
        return FieldJet(
            self.value * other.value,
            sv * other.grad + ov * self.grad,
            sv * other.hess_packed + ov * self.hess_packed + _sym_outer(self.grad, other.grad),
        )

    def __truediv__(self, other: "FieldJet") -> "FieldJet":
        # Caller guards other.value != 0.
        v = self.value / other.value
        ov = _col(other.value)
        g = (self.grad - _col(v) * other.grad) / ov
        h = (self.hess_packed - _sym_outer(g, other.grad) - _col(v) * other.hess_packed) / ov
        return FieldJet(v, g, h)


def _compose(j: FieldJet, u, du, ddu) -> FieldJet:
    """Chain rule for a scalar function applied on top of a jet."""
    du, ddu = _col(du), _col(ddu)
    return FieldJet(u, du * j.grad, ddu * _outer_self(j.grad) + du * j.hess_packed)


def _pow_jet(j: FieldJet, n: int) -> FieldJet:
    if n == 0:
        return FieldJet(np.ones_like(j.value), _Z4, _Z10)
    if n == 1:
        return j
    v = j.value
    c1 = _col(n * v ** (n - 1))
    c2 = _col(n * (n - 1) * v ** (n - 2))
    return FieldJet(v**n, c1 * j.grad, c2 * _outer_self(j.grad) + c1 * j.hess_packed)


# A failure is (mask over points, index -> exception): where a point-by-point
# walk would raise, and what.  Lists of failures are kept in the order the
# walk tests them at one point.
_Failure = tuple[np.ndarray, Callable[[int], Exception]]


def _fail(
    failures: list[_Failure] | None, mask: np.ndarray, make: Callable[[int], Exception]
) -> None:
    if failures is not None and mask.any():
        failures.append((mask, make))


def _first_failing(failures: list[_Failure]) -> int | None:
    """The first point where any failure's mask is set, or None."""
    return min((int(np.argmax(mask)) for mask, _ in failures if mask.any()), default=None)


def _error_at(failures: list[_Failure], i: int) -> Exception | None:
    """What a point-by-point walk over the failures would raise at point i:
    the error of the first failure (in list order) whose mask is set there,
    or None.  Masks may be shorter than the walk: a point past a mask's end
    does not fail it."""
    return next((make(i) for mask, make in failures if i < len(mask) and mask[i]), None)


def _at_point(exc: Exception, point) -> Exception:
    """`exc`, its message ending in " at point [x1, x2, x3, x4]" (set through
    `args`, which keeps any exception's type and attributes), or unchanged
    where `point` is None: a metric built from constants has no point."""
    if point is not None:
        exc.args = (f"{exc} at point {np.asarray(point, float).tolist()}",)
    return exc


def _raise_first(failures: list[_Failure], points: np.ndarray | None = None) -> None:
    """Raise what a point-by-point walk over the failures would raise first:
    the error at the first point where any mask is set (`_error_at`), named
    by `_at_point` with row i of `points` (n, 4), the one point (4,) or None."""
    i = _first_failing(failures)
    if i is not None:
        exc = _error_at(failures, i)
        raise exc if points is None else _at_point(exc, np.reshape(points, (-1, 4))[i])


def _check_finite(jet: FieldJet, node: Node, failures: list[_Failure] | None) -> None:
    """Record the points where the jet has a non-finite entry."""
    if failures is None:
        return
    finite = (
        np.isfinite(jet.value)
        & np.isfinite(jet.grad).all(axis=-1)
        & np.isfinite(jet.hess_packed).all(axis=-1)
    )

    def make(i: int) -> Exception:
        v = float(jet.value[i])
        what = "derivative" if math.isfinite(v) else f"value {v!r}"
        return DomainError(f"non-finite {what}", unparse(node))

    _fail(failures, ~finite, make)


def _jets(node: Node, xs: np.ndarray, failures: list[_Failure] | None) -> FieldJet:
    """Jet of a subtree at every row of xs; appends its failures in walk order
    (none are looked for when `failures` is None).

    Values have shape (n,); a gradient or Hessian that is the same at every
    point (a constant's zeros, a coordinate's unit vector) keeps shape (4,)
    or (10,) and broadcasts.
    """
    match node:
        case Const(value=v):
            jet = FieldJet(np.full(len(xs), v), _Z4, _Z10)
        case Var(index=i):
            jet = FieldJet(xs[:, i - 1], _E4[i - 1], _Z10)
        case Neg(operand=child):
            jet = -_jets(child, xs, failures)
        case BinOp(op="+", left=left, right=right):
            jet = _jets(left, xs, failures) + _jets(right, xs, failures)
        case BinOp(op="-", left=left, right=right):
            jet = _jets(left, xs, failures) - _jets(right, xs, failures)
        case BinOp(op="*", left=left, right=right):
            jet = _jets(left, xs, failures) * _jets(right, xs, failures)
        case BinOp(op="/", left=left, right=right):
            jr = _jets(right, xs, failures)
            message = "division by zero"
            _fail(failures, jr.value == 0.0, lambda i: DomainError(message, unparse(node)))
            jet = _jets(left, xs, failures) / jr
        case Pow(base=base, exponent=e):
            jb = _jets(base, xs, failures)
            if e < 0:
                message = "zero raised to a negative power"
                _fail(failures, jb.value == 0.0, lambda i: DomainError(message, unparse(node)))
            jet = _pow_jet(jb, e)
        case Call(func=f, arg=arg) if f in FUNCTIONS:
            ja = _jets(arg, xs, failures)
            v = ja.value
            if f in ("log", "sqrt"):
                _fail(
                    failures,
                    v <= 0.0,
                    lambda i: DomainError(
                        f"{f} of non-positive value {float(v[i])!r}", unparse(node)
                    ),
                )
            if f == "sin":
                s, c = np.sin(v), np.cos(v)
                jet = _compose(ja, s, c, -s)
            elif f == "cos":
                s, c = np.sin(v), np.cos(v)
                jet = _compose(ja, c, -s, -c)
            elif f == "exp":
                e = np.exp(v)
                jet = _compose(ja, e, e, e)
            elif f == "log":
                jet = _compose(ja, np.log(v), 1.0 / v, -1.0 / v**2)
            else:
                r = np.sqrt(v)
                jet = _compose(ja, r, 0.5 / r, -0.25 / (r * v))
        case _:
            raise TypeError(f"not an AST node: {node!r}")
    _check_finite(jet, node, failures)
    return jet


def _point_failure(xs: np.ndarray) -> _Failure:
    """Rows of xs with a non-finite coordinate."""
    return ~np.isfinite(xs).all(axis=1), lambda i: ValueError("point coordinates must be finite")


def _field_jets(node: Node, xs: np.ndarray) -> tuple[FieldJet, list[_Failure]]:
    """Jets of a tree at every row of xs (n, 4), with the failures unraised.

    The gradient and Hessian are broadcast to (n, 4) and (n, 10).  The first
    walk looks for no failures but raises numpy's floating-point errors:
    every failure (a zero divisor, log or sqrt of a non-positive value, zero
    to a negative power, an overflow) sets one, and no inf or NaN can arise
    from finite literals (all the parser admits) and finite points (the
    others are `_point_failure`'s) without one.  Only then is the tree walked
    again, warnings silenced, building the masks that locate each failure.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            jet, failures = _jets(node, xs, None), []
    except FloatingPointError:
        failures = []
        with np.errstate(all="ignore"):
            jet = _jets(node, xs, failures)
    n = len(xs)
    grad, hess = jet.grad, jet.hess_packed
    if grad.shape != (n, 4):
        grad = np.broadcast_to(grad, (n, 4))
    if hess.shape != (n, 10):
        hess = np.broadcast_to(hess, (n, 10))
    return FieldJet(jet.value, grad, hess), failures


def _single(jet: FieldJet) -> FieldJet:
    """The one-point jet of a batch holding exactly one point."""
    return FieldJet(float(jet.value[0]), jet.grad[0], jet.hess_packed[0])


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------


class ScalarField(_Value):
    """A parsed expression over x1..x4, evaluable to a second-order jet."""

    __match_args__ = ("ast", "source")

    def __init__(self, ast: Node, source: str):
        self.__dict__.update(ast=ast, source=source)

    def jet(self, point) -> FieldJet:
        return eval_jet(self, point)

    def __call__(self, point) -> float:
        return eval_jet(self, point).value

    def __str__(self) -> str:
        return unparse(self.ast)


def parse(source: str) -> ScalarField:
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return ScalarField(_Parser(source).parse(), source)


def as_point(p) -> np.ndarray:
    """Coerce to a 4-coordinate point; only the shape is checked here."""
    x = np.asarray(p, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"a point needs exactly 4 coordinates, got shape {x.shape}")
    return x


def _as_points(ps) -> np.ndarray:
    """Coerce to an (n, 4) array of points; finiteness is checked per point later."""
    xs = np.asarray(ps, dtype=float)
    if xs.size == 0:
        return xs.reshape(0, 4)
    if xs.ndim != 2 or xs.shape[1] != 4:
        raise ValueError(f"points need shape (n, 4), got shape {xs.shape}")
    return xs


def eval_jets(field: ScalarField | Node, points) -> FieldJet:
    """Values (n,), gradients (n, 4) and packed Hessians (n, 10) at n points.

    Raises the ValueError or DomainError that evaluating the points one at a
    time, in order, would raise first, naming its point.
    """
    xs = _as_points(points)
    node = field.ast if isinstance(field, ScalarField) else field
    jet, failures = _field_jets(node, xs)
    _raise_first([_point_failure(xs), *failures], xs)
    return jet


def eval_jet(field: ScalarField | Node, point) -> FieldJet:
    """Evaluate value, gradient and Hessian of a field at a point."""
    return _single(eval_jets(field, as_point(point)[None]))
