"""Expression language: grammar, jets, and their agreement with finite differences."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circgeo.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    DomainError,
    Neg,
    ParseError,
    Pow,
    Var,
    eval_jet,
    eval_jets,
    parse,
    unparse,
)

from oracles import fd_jet


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_simple_sum():
    assert parse("x1 + x2").ast == BinOp("+", Var(1), Var(2))


def test_curved_fixture_field_parses():
    field = parse("10 - 0.1*((x1-x3)^2 + (x2-x4)^2)")
    assert field([0.0, 0.0, 0.0, 0.0]) == 10.0
    assert field([1.0, 0.0, 0.0, 0.0]) == 10.0 - 0.1


def test_incomplete_input_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 +")
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "source,expected",
    [
        ("x1 - x2 - x3", BinOp("-", BinOp("-", Var(1), Var(2)), Var(3))),
        ("x1 / x2 / x3", BinOp("/", BinOp("/", Var(1), Var(2)), Var(3))),
        ("2*x1^2", BinOp("*", Const(2.0), Pow(Var(1), 2))),
        ("-x1^2", Neg(Pow(Var(1), 2))),
        ("(-x1)^2", Pow(Neg(Var(1)), 2)),
        ("x1*-x2", BinOp("*", Var(1), Neg(Var(2)))),
        ("x1^-2", Pow(Var(1), -2)),
        ("sin(x1 + x2)", Call("sin", BinOp("+", Var(1), Var(2)))),
    ],
)
def test_precedence_and_associativity(source, expected):
    assert parse(source).ast == expected


@pytest.mark.parametrize(
    "source",
    [
        "x5", "foo(x1)", "x1^2.5", "x1^x2", "x1 * * x2", "(x1", "x1)", "", "   ", "x1^2^3", "--x1",
        "1.2.3", "1..2", ".5.", "\u00b2", pytest.param("x1^" + "9" * 5000, id="x1^9...9"),
    ],
)
def test_rejects_bad_sources(source):
    with pytest.raises(ParseError):
        parse(source)


@pytest.mark.parametrize(
    "source,message",
    [
        ("1.2.3", "unexpected '.3' after expression (offset 3)"),
        ("x1 + .", "unexpected character '.' (offset 5)"),
        ("x1 + 2.e", "unexpected 'e' after expression (offset 7)"),
        ("x1 $ 2", "unexpected character '$' (offset 3)"),
        ("\u00e9", "unknown identifier '\u00e9' (offset 0)"),
        pytest.param(
            "x1^-" + "9" * 5000, "exponent of 5000 digits is too long (offset 4)", id="x1^-9...9"
        ),
    ],
)
def test_malformed_sources_name_the_offending_token(source, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message


def test_an_exponent_is_rejected_exactly_where_its_jet_coefficients_overflow():
    # n(n - 1), the Hessian's coefficient, must round to a finite double:
    # 2**1024 - 2**970 is the least integer that does not.
    n = (1 + math.isqrt(4 * (2**1024 - 2**970) - 3)) // 2  # the largest n with n(n - 1) below it
    assert len(str(n)) == 155 and math.isfinite(float(n * (n - 1)))
    for exponent, x1 in ((n, 0.5), (-(n - 1), 2.0)):  # the last that parse, both evaluate
        jet = parse(f"x1^{exponent}").jet([x1, 0, 0, 0])
        assert (jet.value, *jet.grad, *jet.hess.ravel()) == (0.0,) * 21
    for source, offset in ((f"x1^{n + 1}", 3), (f"x1^-{n}", 4), ("x1^" + "9" * 310, 3)):
        with pytest.raises(ParseError) as err:
            parse(source)
        digits = len(source) - offset
        assert str(err.value) == f"exponent of {digits} digits is too large (offset {offset})"


@pytest.mark.parametrize("zeros", [200, 5000])
def test_a_built_power_node_obeys_the_parsed_exponent_bound(zeros):
    # The bound lives in the node, so no tree reaches the jets or `unparse`
    # with such an exponent: 10**200 would overflow `_pow_jet`, and 10**5000
    # has more digits than `int` converts to text.
    with pytest.raises(ValueError, match="bits is too large"):
        Pow(Var(1), 10**zeros)


@pytest.mark.parametrize(
    "source,value",
    [("1.", 1.0), (".5", 0.5), ("2.5e-3", 0.0025), ("1E+16", 1e16), ("\u0663", 3.0)],
)
def test_literal_forms(source, value):
    assert parse(source).ast == Const(value)


# Digits, points, exponent letters, signs, operators, parentheses, spaces,
# the letters of x1..x4 and of the function names, and a superscript digit,
# an Arabic-Indic digit, a vulgar fraction and an accented letter.
_SOURCE_CHARS = sorted(set("0123456789.eE+-*/^() x" + "".join(FUNCTIONS))) + [
    "\u00b2", "\u0663", "\u00bd", "\u00e9"
]


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(_SOURCE_CHARS), max_size=30))
def test_parse_returns_a_tree_or_raises_parse_error(source):
    try:
        field = parse(source)
    except ParseError as err:
        assert 0 <= err.offset <= len(source)
    else:
        assert parse(unparse(field.ast)).ast == field.ast


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 + blob")
    assert err.value.offset == 5


def test_nesting_limit_offset():
    ok = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    assert parse(ok).ast == Var(1)
    with pytest.raises(ParseError) as err:
        parse("(" + ok + ")")
    assert err.value.offset == MAX_DEPTH  # the opening parenthesis past the limit
    with pytest.raises(ParseError) as err:
        parse("sin(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1))
    assert err.value.offset == 4 * MAX_DEPTH + 3


def test_depth_limit_on_left_deep_chain():
    # A sum of n terms is a tree n nodes deep.
    chain = parse("x1" + "+x1" * (MAX_DEPTH - 1))
    assert parse(unparse(chain.ast)).ast == chain.ast
    with pytest.raises(ParseError) as err:
        parse("x1" + "+x1" * MAX_DEPTH)
    assert err.value.offset == 2 + 3 * (MAX_DEPTH - 1)  # the "+" past the limit


@pytest.mark.parametrize("source", ["(" * 3000 + "x1" + ")" * 3000, "x1" + "+x1" * 4999])
def test_very_deep_sources_are_parse_errors(source):
    with pytest.raises(ParseError):
        parse(source)


# ---------------------------------------------------------------------------
# Jet evaluation against pinned values
# ---------------------------------------------------------------------------


def test_linear_field_jet_is_exact():
    jet = parse("x1+x2+x3+x4").jet([1, 2, 3, 4])
    assert jet.value == 10.0
    assert np.array_equal(jet.grad, np.ones(4))
    assert np.array_equal(jet.hess, np.zeros((4, 4)))


def test_monomial_jet_is_exact():
    jet = parse("x1^2").jet([3, 0, 0, 0])
    assert jet.value == 9.0
    assert np.array_equal(jet.grad, np.array([6.0, 0, 0, 0]))
    assert np.array_equal(jet.hess, np.diag([2.0, 0, 0, 0]))


def test_hessian_exactly_symmetric():
    jet = parse("sin(x1*x2)*exp(x3) + x4^3/x1").jet([0.7, 0.3, -0.5, 1.1])
    assert np.array_equal(jet.hess, jet.hess.T)


def test_addition_is_componentwise_exact():
    f = parse("sin(x1*x2) + x3^2")
    g = parse("exp(x4) / (1 + x1^2)")
    combined = parse(f"({f.source}) + ({g.source})")
    p = [0.4, -0.8, 0.9, 0.2]
    js, jf, jg = combined.jet(p), f.jet(p), g.jet(p)
    total = jf + jg
    assert js.value == total.value
    assert np.array_equal(js.grad, total.grad)
    assert np.array_equal(js.hess_packed, total.hess_packed)


# ---------------------------------------------------------------------------
# Domain errors name the offending subexpression
# ---------------------------------------------------------------------------


def test_log_domain_error():
    with pytest.raises(DomainError) as err:
        parse("log(x1)").jet([-1, 0, 0, 0])
    assert err.value.subexpression == "log(x1)"


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        parse("sqrt(x1 - 5)").jet([1, 0, 0, 0])


def test_division_by_zero_error():
    with pytest.raises(DomainError) as err:
        parse("1/(x1 - x2)").jet([2, 2, 0, 0])
    assert "x1 - x2" in err.value.subexpression


def test_zero_to_negative_power():
    with pytest.raises(DomainError):
        parse("x1^-1").jet([0, 1, 1, 1])


@pytest.mark.parametrize(
    "source,point,subexpression,message",
    [
        ("4 + 1e308*1e308*x1", [0.1, 0, 0, 0], "1e+308 * 1e+308", "non-finite value inf"),
        ("4 + exp(1000*x1)", [1, 0, 0, 0], "exp(1000.0 * x1)", "non-finite value inf"),
        ("x1^400", [10, 0, 0, 0], "x1^400", "non-finite value inf"),
        # sqrt of a subnormal is finite, its second derivative is not.
        ("sqrt(x1)", [1e-320, 0, 0, 0], "sqrt(x1)", "non-finite derivative"),
    ],
)
def test_non_finite_jets_are_domain_errors(source, point, subexpression, message):
    with pytest.raises(DomainError) as err:
        parse(source).jet(point)
    assert err.value.subexpression == subexpression
    assert str(err.value).startswith(message)


# ---------------------------------------------------------------------------
# Many points at once
# ---------------------------------------------------------------------------

MIXED = "sin(x1*x2) - cos(x3)/exp(x4) + log(2 + x1^2)*sqrt(3 + x2 - x3) + (1 + x4^2)^-2"


def test_batch_equals_single_points(all_fixture_specs):
    rng = np.random.default_rng(12)
    points = rng.uniform(-1, 1, size=(17, 4))
    fields = [f for spec in all_fixture_specs for f in (spec.A, spec.B, spec.C)]
    for field in fields + [parse(MIXED)]:
        batch = eval_jets(field, points)
        assert batch.value.shape == (17,)
        assert batch.grad.shape == (17, 4)
        assert batch.hess_packed.shape == (17, 10)
        assert batch.hess.shape == (17, 4, 4)
        for k, p in enumerate(points):
            jet = field.jet(p)
            assert isinstance(jet.value, float)
            assert jet.value == batch.value[k]
            assert np.array_equal(jet.grad, batch.grad[k])
            assert np.array_equal(jet.hess_packed, batch.hess_packed[k])


def _first_pointwise_error(field, points):
    for p in points:
        try:
            field.jet(p)
        except (DomainError, ValueError) as exc:
            return exc
    return None


@pytest.mark.parametrize(
    "source,points",
    [
        # Point 1 fails only at log; point 2 fails at sqrt, which the walk meets first.
        ("sqrt(0.5 - x4) + log(x1 + 0.5)", [[0, 0, 0, 0], [-1, 0, 0, -1], [0, 0, 0, 1]]),
        # Division checks the divisor before evaluating the numerator.
        ("log(x1) / (x2 - 1)", [[1, 0, 0, 0], [2, 1, 0, 0], [-1, 1, 0, 0]]),
        ("x1^-2 + 1/x2", [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]),
        # A non-finite point is rejected at its own position in the order.
        ("log(x1)", [[1, 0, 0, 0], [np.inf, 0, 0, 0], [-1, 0, 0, 0]]),
        ("log(x1)", [[1, 0, 0, 0], [-1, 0, 0, 0], [np.nan, 0, 0, 0]]),
    ],
)
def test_batch_raises_the_pointwise_first_error(source, points):
    field = parse(source)
    expected = _first_pointwise_error(field, points)
    assert expected is not None
    with pytest.raises(type(expected)) as err:
        eval_jets(field, points)
    assert str(err.value) == str(expected)


def test_batch_shape_is_checked():
    with pytest.raises(ValueError):
        eval_jets(parse("x1"), [[1, 2, 3]])
    assert eval_jets(parse("x1"), []).value.shape == (0,)


# ---------------------------------------------------------------------------
# Finite-difference oracle on the fixture fields
# ---------------------------------------------------------------------------


def test_fixture_fields_match_finite_differences(all_fixture_specs):
    rng = np.random.default_rng(2024)
    for spec in all_fixture_specs:
        for field in (spec.A, spec.B, spec.C):
            for _ in range(3):
                p = rng.uniform(spec.domain.lo + 0.01, spec.domain.hi - 0.01)
                jet = field.jet(p)
                grad_fd, hess_fd = fd_jet(field, p)
                gscale = max(1.0, float(np.max(np.abs(jet.grad))))
                hscale = max(1.0, float(np.max(np.abs(jet.hess))))
                assert np.max(np.abs(jet.grad - grad_fd)) <= 1e-5 * gscale
                assert np.max(np.abs(jet.hess - hess_fd)) <= 1e-4 * hscale


# ---------------------------------------------------------------------------
# Random ASTs: round-trip and derivative properties
# ---------------------------------------------------------------------------


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Const, st.floats(0.25, 4.0)),
        st.sampled_from([Var(1), Var(2), Var(3), Var(4)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                lambda op, l, r: BinOp(op, l, r),
                st.sampled_from("+-*/"),
                children,
                children,
            ),
            st.builds(Neg, children),
            st.builds(Pow, children, st.integers(-2, 4)),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(_ast_strategy())
def test_unparse_parse_round_trip(tree):
    assert parse(unparse(tree)).ast == tree


@settings(max_examples=60, deadline=None)
@given(
    _ast_strategy(),
    st.tuples(*[st.floats(0.3, 0.9) for _ in range(4)]),
)
def test_random_ast_matches_finite_differences(tree, point):
    p = np.array(point)
    try:
        jet = eval_jet(tree, p)
        # The FD stencil must stay inside the domain too.
        for i in range(4):
            for delta in (-2e-4, 2e-4):
                q = p.copy()
                q[i] += delta
                eval_jet(tree, q)
    except (DomainError, OverflowError):
        assume(False)
        return
    magnitudes = (
        abs(jet.value),
        float(np.max(np.abs(jet.grad))),
        float(np.max(np.abs(jet.hess))),
    )
    assume(all(m <= 30.0 for m in magnitudes))
    grad_fd, hess_fd = fd_jet(lambda q: eval_jet(tree, q).value, p, h_grad=1e-5, h_hess=1e-4)
    assert np.max(np.abs(jet.grad - grad_fd)) <= 1e-5 * max(1.0, magnitudes[1])
    assert np.max(np.abs(jet.hess - hess_fd)) <= 1e-4 * max(1.0, magnitudes[2])


def test_fixture_sources_round_trip(all_fixture_specs):
    for spec in all_fixture_specs:
        for field in (spec.A, spec.B, spec.C):
            reparsed = parse(str(field))
            assert reparsed.ast == field.ast
            assert parse(str(reparsed)).ast == reparsed.ast
