from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.jets import JetMap
from weylcalc.operators import DiffOp
from weylcalc.parser import (
    Add,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Var,
    parse_ast,
    parse_jet_map,
    parse_operator,
    parse_poly,
    parse_symbol,
    to_diffop,
)
from weylcalc.poly import Poly
from weylcalc.symbols import SymbolElem


def coeffs():
    return st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=5
    )


@st.composite
def polys(draw, n=2, max_exp=2, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        I = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        terms[I] = draw(coeffs())
    return Poly(n, terms)


@st.composite
def diffops(draw, n=2, max_word=2, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        J = tuple(draw(st.integers(0, max_word)) for _ in range(n))
        terms[J] = draw(polys(n=n))
    return DiffOp(n, terms)


def t(i, n=2):
    return Poly.variable(n, i)


def test_composition_is_not_commutative_in_the_grammar():
    assert parse_operator("d1*t1") == DiffOp(
        1, {(1,): Poly.variable(1, 1), (0,): Poly.const(1, 1)}
    )
    assert parse_operator("d1*t1", n=1) != parse_operator("t1*d1", n=1)


def test_precedence():
    # * binds tighter than +
    assert parse_operator("t1+t2*d1") == DiffOp(
        2, {(0, 0): t(1), (1, 0): t(2)}
    )
    # ^ binds tighter than unary minus
    assert parse_operator("-d1^2", n=1) == DiffOp(1, {(2,): Poly.const(1, -1)})
    # parenthesized powers
    assert str(parse_operator("(d1*t1)^2")) == "(t1^2)*d1^2 + (3*t1)*d1 + 1"


def test_rationals():
    assert parse_poly("1/2*t1 - 3", n=1) == Poly(1, {(1,): Fraction(1, 2), (0,): -3})
    assert parse_poly("3/2^2", n=1) == Poly.const(1, Fraction(9, 4))


def test_inference_of_variable_count():
    assert parse_operator("d2").n == 2
    assert parse_operator("t3 + d1").n == 3
    assert parse_poly("5").n == 1


@pytest.mark.parametrize(
    "src,offset,fragment",
    [
        ("d1*(t1", 7, "expected ')'"),
        ("t0", 1, "variable index must be at least 1"),
        ("q1", 1, "unknown variable 'q'"),
        ("d1^0", 4, "exponent must be at least 1"),
        ("d1^t1", 4, "expected a positive integer exponent"),
        ("1/0", 3, "denominator must be positive"),
        ("d1 d2", 4, "unexpected trailing input"),
        ("", 1, "expected a number, a variable, or '('"),
        ("t1 +", 5, "expected a number, a variable, or '('"),
        ("t1 ? 2", 4, "unexpected character '?'"),
        ("d", 1, "needs a numeric index"),
    ],
)
def test_error_offsets(src, offset, fragment):
    with pytest.raises(ParseError) as err:
        parse_operator(src)
    assert err.value.offset == offset
    assert fragment in err.value.message
    assert f"at offset {offset}" in str(err.value)


def test_explicit_vars_bound_is_enforced():
    with pytest.raises(ParseError) as err:
        to_diffop(parse_ast("t2", {"t", "d"}), 1)
    assert err.value.offset == 1
    assert "exceeds the 1 available variables" in err.value.message


def test_index_error_inside_a_d_free_subtree_keeps_its_offset():
    with pytest.raises(ParseError) as err:
        to_diffop(parse_ast("d1*(t1 + 2*t3^2)", {"t", "d"}), 2)
    assert err.value.offset == 12
    assert "exceeds the 2 available variables" in err.value.message


def compose_all(node, n):
    """Reference evaluation: every leaf an operator, every '*' a composition."""
    if isinstance(node, Num):
        return DiffOp.from_poly(Poly.const(n, node.value))
    if isinstance(node, Var):
        if node.prefix == "d":
            return DiffOp.partial(n, node.index)
        return DiffOp.from_poly(Poly.variable(n, node.index))
    if isinstance(node, Neg):
        return compose_all(node.inner, n).scale(-1)
    if isinstance(node, Pow):
        out = DiffOp.identity(n)
        for _ in range(node.exponent):
            out = out.compose(compose_all(node.base, n))
        return out
    left, right = compose_all(node.left, n), compose_all(node.right, n)
    if isinstance(node, Add):
        return left + right
    if isinstance(node, Sub):
        return left - right
    return left.compose(right)


@pytest.mark.parametrize(
    "src",
    [
        "(t1+1)^3*d1*(t2-1/2)*d2 - t3^2",
        "-(t1*t2 - 3)^2*d3^2*t3 + d1*(t1 + 1/3)",
        "t2*(d2 + t1)^2*(t2^2 - t1) + 5",
        "(t1 - t1)*d1 + d2*(2*t2 - t2*2)",
    ],
)
def test_mixed_expressions_match_composition_alone(src):
    ast = parse_ast(src, {"t", "d"})
    assert parse_operator(src, n=3) == compose_all(ast, 3)


@given(polys())
def test_d_free_input_is_a_multiplication(p):
    src = str(p)
    assert parse_operator(src, n=2) == DiffOp.from_poly(parse_poly(src, n=2))


def test_polynomials_reject_derivative_names():
    with pytest.raises(ParseError):
        parse_poly("d1")


def test_parse_symbol():
    s = parse_symbol("t1*x1^2 + x2*x1")
    assert s == SymbolElem(2, 2, {(2, 0): t(1), (1, 1): Poly.const(2, 1)})
    assert parse_symbol("xi1^2", xi_prefix="xi") == SymbolElem(1, 2, {(2,): Poly.const(1, 1)})
    assert parse_symbol("t1 - t1", n=2).grade == 0
    with pytest.raises(ParseError, match="homogeneous"):
        parse_symbol("x1^2 + x2")
    with pytest.raises(ValueError):
        parse_symbol("t1", xi_prefix="t")


def test_operator_round_trip_examples():
    for src in [
        "0",
        "1",
        "d1*d2",
        "(t1)*d1 + 1",
        "(-t1)*d1",
        "(1/2)*d1 + t1 - 1",
        "(t1^2)*d1^3 + (4*t1)*d1^2 + (2)*d1",
        "d1^2 - t2",
    ]:
        D = parse_operator(src, n=2)
        assert str(D) == src
        assert parse_operator(str(D), n=2) == D


@given(diffops())
def test_operator_print_parse_round_trip(D):
    assert parse_operator(str(D), n=2) == D


@given(polys())
def test_poly_print_parse_round_trip(p):
    assert parse_poly(str(p), n=2) == p


def test_parse_jet_map_basic():
    A = parse_jet_map("1,0 -> t2\n", 1)
    assert A == JetMap(2, 1, {(1, 0): t(2)})
    assert A.n == 2 and A.k == 1
    B = parse_jet_map("\n0,0 -> 1\n\n0,1 -> t1 - 1\n", 1)
    assert B == JetMap(2, 1, {(0, 0): Poly.const(2, 1), (0, 1): t(1) - 1})


def test_parse_jet_map_round_trips_render():
    A = JetMap(2, 2, {(1, 1): t(1) * t(2), (0, 0): Poly.const(2, Fraction(1, 3))})
    assert parse_jet_map(A.render(), 2) == A


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1,0 = t2", "expected 'i1,...,in -> polynomial'"),
        ("a,0 -> t2", "bad monomial index"),
        ("1,0 -> t2\n1 -> t1", "earlier lines have 2"),
        ("1,0 -> t2\n1,0 -> t1", "duplicate entry"),
        ("2,0 -> t2", "exceeds the table degree 1"),
        ("1,0 -> t3", "exceeds the 2 available variables"),
        ("1,0 -> d1", "unknown variable 'd'"),
        ("", "cannot infer the number of variables"),
    ],
)
def test_parse_jet_map_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_jet_map(text, 1)
    assert fragment in err.value.message


def test_parse_jet_map_vars_override():
    A = parse_jet_map("", 1, n=2)
    assert A == JetMap.zero(2, 1)
    with pytest.raises(ParseError, match="does not match"):
        parse_jet_map("1,0 -> t1", 1, n=3)
