import hashlib
import math
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weylcalc import cli, parser
from weylcalc.jets import JetMap, from_jet_map
from weylcalc.operators import DiffOp
from weylcalc.parser import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_INDEX,
    MAX_JET_BASIS,
    MAX_NESTING,
    MAX_POWER_BITS,
    ParseError,
    _Evaluator,
    _Plan,
    _term,
    check_variable_count,
    max_index,
    parse_action,
    parse_ast,
    parse_commutator,
    parse_jet_map,
    parse_operator,
    parse_poly,
    parse_symbol,
)
from weylcalc.poly import Poly, monomials_up_to
from weylcalc.symbols import SymbolElem, principal_symbol


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
        # numeric characters that int() cannot read
        ("t²", 2, "unexpected character '²'"),
        ("³", 1, "unexpected character '³'"),
        ("t1^²", 4, "unexpected character '²'"),
        ("t1²", 3, "unexpected character '²'"),
        ("²1", 1, "unexpected character '²'"),
        ("t½", 1, "variable 't' needs a numeric index"),
        ("é1", 1, "unknown variable 'é'"),
    ],
)
def test_error_offsets(src, offset, fragment):
    with pytest.raises(ParseError) as err:
        parse_operator(src)
    assert err.value.offset == offset
    assert fragment in err.value.message
    assert f"at offset {offset}" in str(err.value)


# Which error a call reports, where its texts have several: each text's lexical error, then its
# syntax error, the first text's before the second's, and a semantic error (an index above n, a
# size over the budget) only where no text has either.
WHICH_ERROR_WINS = [
    pytest.param(parse_commutator, ("x1", "("), "parse error at offset 1: unknown variable 'x'; expected one of: d, t",
                 id="lexical in text 1 before syntax in text 2"),
    pytest.param(parse_commutator, ("t1 +", "x1"), "parse error at offset 5: expected a number, a variable, or '('",
                 id="syntax in text 1 before lexical in text 2"),
    pytest.param(parse_action, ("t5", "(", 2), "parse error at offset 2: expected a number, a variable, or '('",
                 id="syntax in text 2 before an index above n in text 1"),
    pytest.param(parse_commutator, ("(t1+t2+t3+d1+d2+d3)^40", "("),
                 "parse error at offset 2: expected a number, a variable, or '('", id="syntax before a size refusal"),
    pytest.param(parse_operator, ("t1 + + x1",), "parse error at offset 8: unknown variable 'x'; expected one of: d, t",
                 id="a later lexical error before an earlier syntax error"),
    pytest.param(parse_action, ("d1", "t1 + d1"), "parse error at offset 6: unknown variable 'd'; expected one of: t",
                 id="the polynomial's prefixes"),
    pytest.param(parse_commutator, ("t3", "t1^", 2), "parse error at offset 4: expected a positive integer exponent",
                 id="syntax in text 2 before an index above n in text 1, n given"),
    pytest.param(parse_operator, ("-" * (MAX_NESTING + 1) + "t1",),
                 f"parse error at offset {MAX_NESTING + 1}: parentheses and unary minus nest deeper than {MAX_NESTING} levels",
                 id="nesting"),
    pytest.param(parse_operator, ("t1 + ( ",), "parse error at offset 8: expected a number, a variable, or '('",
                 id="an open parenthesis at the end"),
]


@pytest.mark.parametrize("parse,args,message", WHICH_ERROR_WINS)
def test_which_error_wins(parse, args, message):
    with pytest.raises(ParseError) as err:
        parse(*args)
    assert str(err.value) == message


def test_numbers_and_indices_are_bounded():
    longest = "9" * MAX_DIGITS
    assert str(parse_poly(f"{longest}*t1 + 1/{longest}")).startswith(longest)
    too_long = "3" * (MAX_DIGITS + 1)
    for src, offset in [(too_long, 1), (f"t1 + 2^{too_long}", 8), (f"t{too_long}", 2)]:
        with pytest.raises(ParseError, match=f"number longer than {MAX_DIGITS} digits") as err:
            parse_operator(src)
        assert err.value.offset == offset
    assert parse_operator(f"d{MAX_INDEX}").n == MAX_INDEX
    with pytest.raises(ParseError, match=f"variable index {MAX_INDEX + 1} exceeds {MAX_INDEX}") as err:
        parse_operator(f"t1*d{MAX_INDEX + 1}")
    assert err.value.offset == 4
    wide = ",".join(["0"] * (MAX_INDEX + 1))
    with pytest.raises(ParseError, match=f"more than {MAX_INDEX}"):
        parse_jet_map(f"{wide} -> 1\n", 0)


def test_powers_are_bounded():
    # an exponent is refused as soon as it is read
    with pytest.raises(ParseError, match=f"exponent larger than {MAX_EXPONENT}") as err:
        parse_operator(f"t1 + 2^{MAX_EXPONENT + 1}")
    assert err.value.offset == 8
    # a power whose estimated size is over the budget is refused before it is computed
    too_large = f"too large to expand: its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    for src in ["(t1+t2+t3+d1+d2+d3)^40", "(t1+1)^100000", "(d1+t1)^200", "123456789^50000", "(-123/457)^99999"]:
        with pytest.raises(ParseError, match=too_large) as err:
            parse_operator(src)
        assert err.value.offset is None
    with pytest.raises(ParseError, match=too_large):
        parse_poly("(t1+t2+t3+t4)^300")
    with pytest.raises(ParseError, match=too_large):
        parse_symbol("(t1+x1)^2000")
    # within the budget a power is the repeated product
    field = DiffOp(2, {(1, 0): t(1) + 1, (0, 1): t(2), (0, 0): Poly.const(2, Fraction(1, 2))})
    assert parse_operator("((t1+1)*d1 + t2*d2 + 1/2)^6") == field**6
    assert parse_poly("(t1-2*t2)^20") == (t(1) - 2 * t(2)) ** 20
    assert len(parse_operator("(t1+t2+t3+d1+d2+d3)^10").terms) == 286
    # a single monomial or a constant has one term at any exponent
    assert parse_poly(f"(t1*t2*t3*t4*t5*t6)^{MAX_EXPONENT}") == Poly.monomial(6, [MAX_EXPONENT] * 6)
    assert parse_poly(f"2^15000*(1/2)^15000") == Poly.const(1, 1)


def test_reordering_products_are_bounded():
    # a product that moves d_i past t_i is estimated before DiffOp.compose runs
    too_large = f"the product is too large to expand: its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    for src in ["d1^300*d2^300*t1^300*t2^300", "d1^1000*t1^1000", f"d1^{MAX_EXPONENT}*t1^{MAX_EXPONENT}", "t2*d1^1500*t1^1500*d2"]:
        with pytest.raises(ParseError, match=too_large) as err:
            parse_operator(src)
        assert err.value.offset is None
    # within the budget the product is the composition
    d300 = DiffOp(1, {(300,): Poly.const(1, 1)})
    assert parse_operator("d1^300*t1^300") == d300.compose(DiffOp.from_poly(Poly.monomial(1, (300,))))
    # two expanded sums: the compose-step count (about 22 k) is over the budget, but
    # only 4917 terms t^A d^B with |A| = |B| <= 8 can come out, so the product runs
    product = parse_operator("(d1+d2+d3)^8*(t1+t2+t3)^8")
    assert product == parse_operator("(d1+d2+d3)^8").compose(parse_operator("(t1+t2+t3)^8"))
    assert len(product.poly._num) == 4917
    # atoms fold into one term and never make a product, whatever their exponents
    assert len(parse_operator(f"t1^{MAX_EXPONENT}*d1^{MAX_EXPONENT}").terms) == 1
    assert parse_symbol(f"x1^{MAX_EXPONENT}*t1^{MAX_EXPONENT}").grade == MAX_EXPONENT
    # the steps of a power are budgeted by the power as a whole, not one by one
    assert len(parse_operator("(t1+t2+t3+d1+d2+d3)^10").terms) == 286


def test_commuting_products_are_bounded():
    # a product that needs no reordering is estimated too: its pairs of terms times coefficient bits
    too_large = f"the product is too large to expand: its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    f = "(t1+t2+t3)^30"
    with pytest.raises(ParseError, match=too_large) as err:
        parse_operator("*".join([f] * 5))
    assert err.value.offset is None
    with pytest.raises(ParseError, match=too_large):
        parse_poly("*".join([f] * 5))
    # 231 * 231 pairs make at most 53361 terms of about 64 bits, over the budget
    with pytest.raises(ParseError, match=too_large):
        parse_symbol("(x1+x2+x3)^20*(t1+t2+t3)^20")
    # at most 201 terms of degree 200 can come out, so the product runs
    assert parse_poly("(t1+t2)^100*(t1-t2)^100") == (t(1) ** 2 - t(2) ** 2) ** 100
    # a symbol's x_i commutes with t_i, so no reordering is charged: 961 pairs
    s = parse_symbol("(x1+x2)^30*(t1+t2)^30")
    assert s.grade == 30 and len(s.poly._num) == 31 * 31
    # three factors are within the budget, as a product of operators too
    assert parse_operator("*".join([f] * 3)) == DiffOp.from_poly(parse_poly(f) ** 3)


def test_composition_check_matches_the_parser():
    # comm sizes both of its products by the rule that sizes a product in an expression
    wide = "(t1+t2+t3+d1+d2+d3)^8"
    with pytest.raises(ParseError, match="the product is too large to expand"):
        parse_commutator(wide, wide)
    with pytest.raises(ParseError, match="the product is too large to expand"):
        parse_operator(f"{wide}*{wide}")
    # the rule is not symmetric: d1^1000 after t1^1000 needs no reordering (each sum of one
    # term is a factor of its own, where atoms alone would fold into one term)
    assert parse_operator("(t1^1000 + 0)*(d1^1000 + 0)") == parse_operator("t1^1000*d1^1000")
    with pytest.raises(ParseError, match="the product is too large to expand"):
        parse_operator("(d1^1000 + 0)*(t1^1000 + 0)")
    with pytest.raises(ParseError, match="the product is too large to expand"):
        parse_commutator("t1^1000", "d1^1000")


def test_action_check_bounds_apply():
    with pytest.raises(ParseError, match="the action is too large to expand"):
        parse_action("(t1+t2+t3+d1+d2+d3)^12", "(t1+t2+t3)^40")
    # one pair with a 1000! coefficient is far below the budget, though the product d1^1000*t1^1000 is not
    assert parse_action("d1^1000", "t1^1000") == Poly.const(1, math.factorial(1000))
    # a word that no term of p reaches costs nothing
    assert parse_action("d1^90000*d2^90000 + 7", "(t1+t2)^20") == 7 * parse_poly("(t1+t2)^20")


def test_shared_parse_infers_one_n():
    # comm and apply read both sources in one n, the largest index in either unless given
    assert parse_action("d2", "t2^2") == Poly(2, {(0, 1): 2})
    assert parse_action("d1", "t1", n=3) == Poly.const(3, 1)
    assert parse_commutator("d2", "t1") == DiffOp.zero(2)
    assert parse_commutator("d1", "t1", n=3) == DiffOp.identity(3)


def random_tree(rng, variables, depth=3):
    """Text of a small random tree: sums, products, powers and negations of atoms and rationals."""
    kind = rng.randrange(5) if depth else 0
    if kind == 0:
        return rng.choice([*variables, str(rng.randint(0, 3)), f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"])
    left, right = random_tree(rng, variables, depth - 1), random_tree(rng, variables, depth - 1)
    return [f"({left} + {right})", f"({left})*({right})", f"({left})^{rng.randint(1, 3)}", f"-({left})"][kind - 1]


def assert_bounds(shape, value):
    assert shape.terms >= len(value._num)
    assert shape.den >= value._den and shape.den % value._den == 0
    assert shape.num >= sum(map(abs, value._num.values()))


def test_the_shape_bounds_the_value():
    # the size rule must stay an upper bound: on random trees for operators, polynomials,
    # symbols and actions, the shape has at least the terms, numerators and denominator
    rng = random.Random(20261018)
    kinds = [(["t1", "t2", "t3", "d1", "d2", "d3"], "d", True), (["t1", "t2", "t3"], None, False),
             (["t1", "t2", "t3", "x1", "x2", "x3"], "x", False)]
    for _ in range(150):
        for variables, second, reorder in kinds:
            [(evaluator, plan)] = parser._first_pass(3, (random_tree(rng, variables), second, reorder))
            assert_bounds(evaluator.shape(plan), evaluator.value(plan))
        (operator, d), (polynomial, p) = parser._first_pass(
            3, (random_tree(rng, kinds[0][0]), "d", True), (random_tree(rng, kinds[1][0]), None, False)
        )
        shape = operator.times(operator.shape(d), polynomial.shape(p), "the action", action=True)
        assert_bounds(shape, DiffOp._make(3, operator.value(d)).apply(polynomial.value(p)))


def test_jet_tables_are_bounded():
    with pytest.raises(ParseError, match=f"degree 100 in 2 variables has more than {MAX_JET_BASIS} monomials"):
        parse_jet_map("1,0 -> t2\n", 100)
    with pytest.raises(ParseError, match=f"more than {MAX_JET_BASIS} monomials"):
        parse_jet_map("0 -> t1\n", 10**4000)
    # the largest basis within the budget: C(2+22, 22) = 276 monomials
    assert len(parse_jet_map("1,0 -> t2\n", 22).values) == 276


def test_explicit_vars_bound_is_enforced():
    with pytest.raises(ParseError) as err:
        parse_operator("t2", 1)
    assert err.value.offset == 1
    assert "exceeds the 1 available variables" in err.value.message


def test_index_error_inside_a_d_free_subtree_keeps_its_offset():
    with pytest.raises(ParseError) as err:
        parse_operator("d1*(t1 + 2*t3^2)", 2)
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
        "d1*t1^2*d2*t2*3 - d2*t1*2/3*d1",
    ],
)
def test_mixed_expressions_match_composition_alone(src):
    assert parse_operator(src, n=3) == compose_all(reference_parse(src, {"t", "d"}), 3)


@given(polys())
def test_d_free_input_is_a_multiplication(p):
    src = str(p)
    assert parse_operator(src, n=2) == DiffOp.from_poly(parse_poly(src, n=2))


def test_polynomials_reject_derivative_names():
    with pytest.raises(ParseError):
        parse_poly("d1")
    with pytest.raises(ParseError, match="unknown variable 'd'; expected one of: t") as err:
        parse_poly("t1 + d1", 1)
    assert err.value.offset == 6


def test_parse_symbol():
    s = parse_symbol("t1*x1^2 + x2*x1")
    assert s == SymbolElem(2, 2, {(2, 0): t(1), (1, 1): Poly.const(2, 1)})
    assert parse_symbol("xi1^2", xi_prefix="xi") == SymbolElem(1, 2, {(2,): Poly.const(1, 1)})
    assert parse_symbol("t1 - t1", n=2).grade == 0
    with pytest.raises(ParseError, match="homogeneous"):
        parse_symbol("x1^2 + x2")
    with pytest.raises(ValueError):
        parse_symbol("t1", xi_prefix="t")
    # symbols commute, whatever their prefix
    assert parse_symbol("d1*t1", xi_prefix="d") == parse_symbol("t1*x1")


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
        ("1_0,0 -> t1", "bad monomial index"),
        ("+1,0 -> t1", "bad monomial index"),
        ("-1,0 -> t1", "negative exponent"),
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


# -- the lexer against the character loop it replaced ------------------------


def reference_tokenize(src, prefixes):
    """The parser's former character loop, kept as an independent reference.

    Returns (kind, text, offset, index) tuples or raises ParseError.  It
    reads digits with str.isdigit, so it also takes characters such as
    '²' that int() rejects; the parser crashed on those.
    """
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("num", src[i:j], i + 1, 0))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            word = src[i:j]
            if word not in prefixes:
                expected = ", ".join(sorted(prefixes))
                raise ParseError(i + 1, f"unknown variable {word!r}; expected one of: {expected}")
            k = j
            while k < len(src) and src[k].isdigit():
                k += 1
            if k == j:
                raise ParseError(i + 1, f"variable {word!r} needs a numeric index")
            index = int(src[j:k])
            if index < 1:
                raise ParseError(i + 1, "variable index must be at least 1")
            if index > MAX_INDEX:
                raise ParseError(i + 1, f"variable index {index} exceeds {MAX_INDEX}")
            tokens.append(("var", word, i + 1, index))
            i = k
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i + 1, 0))
            i += 1
            continue
        raise ParseError(i + 1, f"unexpected character {ch!r}")
    tokens.append(("eof", "", len(src) + 1, 0))
    return tokens


def outcome(tokenize, src, prefixes):
    try:
        return tokenize(src, prefixes)
    except ParseError as exc:
        return ("error", exc.offset, exc.message)


def unreadable_digit(src):
    """Offset of the first digit character int() cannot read, such as '²'; None if there is none.

    The former loop read these as digits, so the parser either crashed
    on them or reported some later error first; the lexer now stops at
    them.  Without them the former loop never crashed.
    """
    return next((i + 1 for i, ch in enumerate(src) if ch.isdigit() and not ch.isdecimal()), None)


# The words of the lexical errors, as reference_tokenize and _bad_variable give them.
LEXICAL = re.compile(r"unexpected character|number longer than|unknown variable|needs a numeric index|variable index")


# ASCII and non-ASCII letters, decimal digits of two scripts, superscripts,
# a vulgar fraction, operators, whitespace of several kinds and strays
ALPHABET = list("tdxé" "0123456789" "٣²³①½" "+-*^/()" " \t\n " "?_.")
PREFIX_SETS = [frozenset({"t", "d"}), frozenset({"t"}), frozenset({"t", "x"})]


def test_tokenizer_matches_the_character_loop_on_random_strings():
    # a lexical error comes before any syntax error, so parse_ast raises the loop's error where
    # the loop fails, and none with a lexical error's words where it does not
    rng = random.Random(20240518)
    compared = lexical = stopped = 0
    for _ in range(4000):
        src = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        prefixes = rng.choice(PREFIX_SETS)
        bad = unreadable_digit(src)
        got = outcome(parse_ast, src, prefixes)
        if bad is None:
            compared += 1
            want = outcome(reference_tokenize, src, prefixes)
            if type(want) is tuple:
                lexical += 1
                assert got == want, src
            else:
                assert type(got) is list or not LEXICAL.match(got[2]), src
        else:
            stopped += 1
            assert type(got) is tuple and got[1] <= bad, src
    assert compared > 2000 and lexical > 500 and stopped > 500


# -- the evaluator against references that compose or multiply every node ----


def poly_all(node, n):
    """Reference polynomial evaluation: every node a Poly operation."""
    if isinstance(node, Num):
        return Poly.const(n, node.value)
    if isinstance(node, Var):
        return Poly.variable(n, node.index)
    if isinstance(node, Neg):
        return -poly_all(node.inner, n)
    if isinstance(node, Pow):
        return poly_all(node.base, n) ** node.exponent
    left, right = poly_all(node.left, n), poly_all(node.right, n)
    if isinstance(node, Add):
        return left + right
    if isinstance(node, Sub):
        return left - right
    return left * right


def expressions(variables):
    """Strings over the grammar: numbers, atoms in any order, powers, parentheses, minus, sums."""
    atoms = st.one_of(
        st.integers(0, 3).map(str),
        st.sampled_from(["1/2", "3/4", "2/3"]),
        st.sampled_from(variables),
        st.tuples(st.sampled_from(variables), st.integers(1, 3)).map(lambda a: f"{a[0]}^{a[1]}"),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from([" + ", " - ", "*", "*"]), inner).map("".join),
            inner.map(lambda e: f"({e})"),
            inner.map(lambda e: f"-{e}"),
            st.tuples(inner, st.integers(1, 3)).map(lambda a: f"({a[0]})^{a[1]}"),
        )

    return st.recursive(atoms, extend, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(expressions(["t1", "t2", "d1", "d2"]))
def test_operators_match_composition_of_every_node(src):
    assert parse_operator(src, n=2) == compose_all(reference_parse(src, {"t", "d"}), 2)


@settings(max_examples=300, deadline=None)
@given(expressions(["t1", "t2"]))
def test_polynomials_match_multiplication_of_every_node(src):
    assert parse_poly(src, n=2) == poly_all(reference_parse(src, {"t"}), 2)


# -- the syntax check against the recursive descent it replaced --------------


@dataclass
class Num:
    value: Fraction


@dataclass
class Var:
    prefix: str
    index: int
    offset: int


@dataclass
class Neg:
    inner: object


@dataclass
class Pow:
    base: object
    exponent: int


@dataclass
class Add:
    left: object
    right: object


@dataclass
class Sub:
    left: object
    right: object


@dataclass
class Mul:
    left: object
    right: object


class ReferenceParser:
    """The parser's former recursive descent, kept as an independent reference.

    One method per grammar rule, each building a node of the tree above;
    it reads a number as a Fraction.  The references that evaluate every
    node (compose_all, poly_all, reference_sum) walk its trees.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def parse(self):
        node = self.expr()
        kind, _, offset, _ = self.tokens[self.pos]
        if kind != "eof":
            raise ParseError(offset, "unexpected trailing input")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind = self.tokens[self.pos][0]
            if kind == "+":
                self.pos += 1
                node = Add(node, self.term())
            elif kind == "-":
                self.pos += 1
                node = Sub(node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            node = Mul(node, self.factor())
        return node

    def factor(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        kind, text, offset, index = tok
        if kind == "var":
            node = Var(text, index, offset)
        elif kind == "num":
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                den = self.positive("expected a positive integer denominator", "denominator must be positive")
                node = Num(Fraction(int(text), den))
            else:
                node = Num(Fraction(int(text)))
        elif kind == "-":
            self.enter(tok)
            node = Neg(self.factor())
            self.depth -= 1
            return node
        elif kind == "(":
            self.enter(tok)
            node = self.expr()
            kind, _, offset, _ = self.tokens[self.pos]
            if kind != ")":
                raise ParseError(offset, "expected ')'")
            self.pos += 1
            self.depth -= 1
        else:
            raise ParseError(offset, "expected a number, a variable, or '('")
        if self.tokens[self.pos][0] == "^":
            self.pos += 1
            offset = self.tokens[self.pos][2]
            exponent = self.positive("expected a positive integer exponent", "exponent must be at least 1")
            if exponent > MAX_EXPONENT:
                raise ParseError(offset, f"exponent larger than {MAX_EXPONENT}")
            node = Pow(node, exponent)
        return node

    def positive(self, expected, too_small):
        kind, text, offset, _ = self.tokens[self.pos]
        if kind != "num":
            raise ParseError(offset, expected)
        self.pos += 1
        value = int(text)
        if value < 1:
            raise ParseError(offset, too_small)
        return value

    def enter(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok[2], f"parentheses and unary minus nest deeper than {MAX_NESTING} levels")


class Unreadable(ParseError):
    """reference_parse's verdict on a text with a digit int() cannot read: the parser must fail at it or before."""


def reference_parse(src, prefixes):
    """The tree of src, by the former character loop and recursive descent; Unreadable where the loop misreads src."""
    if (bad := unreadable_digit(src)) is not None:
        raise Unreadable(bad, "a digit that int() cannot read")
    return ReferenceParser(reference_tokenize(src, prefixes)).parse()


def reference_max_index(node):
    """The largest index of a variable in the tree; 0 if there is none."""
    best, stack = 0, [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            best = max(best, node.index)
        elif not isinstance(node, Num):
            stack += [child for child in vars(node).values() if not isinstance(child, int)]
    return best


# What a text is parsed as, by its set of prefixes (a key of TEXTS).
KIND = {frozenset({"t", "d"}): "operator", frozenset({"t"}): "poly", frozenset({"t", "x"}): "symbol"}


def assert_same_parse(src, prefixes):
    """parse_ast accepts what reference_parse accepts, with its largest index, or both fail at one offset with one message.

    An accepted text's inferred n is that index, at least 1.  Where
    reference_parse finds a digit int() cannot read, parse_ast must
    fail at it or before.
    """
    got = outcome(parse_ast, src, prefixes)
    if (bad := unreadable_digit(src)) is not None:
        assert type(got) is tuple and got[1] <= bad, src
        return False
    want = outcome(reference_parse, src, prefixes)
    if type(want) is tuple:
        assert got == want, src
        return False
    assert type(got) is list and max_index(got) == reference_max_index(want), src
    [(evaluator, _)] = parser._first_pass(None, *TEXTS[KIND[frozenset(prefixes)]](src))
    assert evaluator.n == max(1, reference_max_index(want)), src
    return True


def test_descent_matches_the_recursive_descent_on_random_strings():
    rng = random.Random(20240518)
    trees = 0
    for _ in range(4000):
        src = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        trees += assert_same_parse(src, rng.choice(PREFIX_SETS))
    assert trees > 100


# Tokens of the random strings below: every kind of primary, operators in and out of place,
# exponents and denominators out of range, and lexical errors.
TOKENS = ["t1", "d2", "3", "0", "2/3", "1/0", "/", "^", "^2", "^0", f"^{MAX_EXPONENT + 1}", "*", "+", "-", "(", ")",
          "x1", "t0", ".", " "]


def token_string(rng):
    """Up to 14 random tokens; one string in 100 after about MAX_NESTING minus signs, one in 100 inside as many parentheses."""
    src = "".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 14)))
    deep, levels = rng.random(), rng.randint(MAX_NESTING - 5, MAX_NESTING + 5)
    if deep < 0.01:
        return "-" * levels + src
    if deep < 0.02:
        return "(" * levels + src + ")" * levels
    return src


def test_descent_matches_the_recursive_descent_on_token_strings():
    # the character-level strings above are almost never deep or long enough to reach the limits
    rng = random.Random(20261020)
    accepted = deep = 0
    for _ in range(20000):
        src = token_string(rng)
        prefixes = rng.choice(PREFIX_SETS)
        deep += src.startswith(("-" * (MAX_NESTING - 5), "(" * (MAX_NESTING - 5)))
        if assert_same_parse(src, prefixes):
            accepted += 1
            if prefixes == PREFIX_SETS[0]:
                assert assert_same_as_the_tree_walk("operator", src)
    assert accepted > 300 and deep > 300


@settings(max_examples=300, deadline=None)
@given(expressions(["t1", "t2", "d1", "d2"]))
def test_descent_matches_the_recursive_descent_on_expressions(src):
    assert assert_same_parse(src, {"t", "d"})


@pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1])
def test_descent_matches_the_recursive_descent_at_the_nesting_limit(levels):
    half, odd = divmod(levels, 2)
    for src in (
        "(" * levels + "t1" + ")" * levels,
        "-" * levels + "t1^2",
        "-(" * half + "(" * odd + "d1" + ")" * (half + odd),
    ):
        assert_same_parse(src, {"t", "d"})
        assert_same_parse(src[:-1], {"t", "d"})


def test_long_polynomial_round_trips():
    rng = random.Random(5)
    p = Poly(2, {(j % 71, j // 71): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for j in range(5000)})
    assert len(p.terms) == 5000
    assert parse_poly(str(p), 2) == p


def test_long_operator_round_trips():
    D = DiffOp(1, {(j,): Poly(1, {(j % 3,): j + 1}) for j in range(5000)})
    assert parse_operator(str(D), 1) == D


def test_max_index_walks_a_long_sum():
    tokens = parse_ast(" + ".join(f"t{j % 7 + 1}*d2" for j in range(5000)), {"t", "d"})
    assert max_index(tokens) == 7


@pytest.mark.parametrize(
    "unit,close,levels",
    [("(", ")", 1), ("-", "", 1), ("-(", ")", 2)],
    ids=["parentheses", "unary minus", "both"],
)
def test_nesting_limit(unit, close, levels):
    times = MAX_NESTING // levels
    ok = unit * times + "d1" + close * times
    assert parse_operator(ok, 1) == compose_all(reference_parse(ok, {"t", "d"}), 1)
    deep = unit * times + "-d1" + close * times
    with pytest.raises(ParseError) as err:
        parse_operator(deep)
    assert err.value.offset == MAX_NESTING + 1
    assert f"deeper than {MAX_NESTING} levels" in err.value.message


@pytest.mark.parametrize("term", ["-t1", "-(t1)", "(-(t1))^2", "--(d1*-t1)", "-(-(t1) + 1)*-2"])
def test_nesting_counts_only_what_is_open(term):
    # a unary minus's level ends with its factor and a parenthesis's at its ')', so a sum of
    # many shallow terms is as deep as one of them
    src = " + ".join([term] * (2 * MAX_NESTING))
    assert assert_same_parse(src, {"t", "d"})
    assert parse_operator(src, 1) == compose_all(reference_parse(src, {"t", "d"}), 1)


def test_a_finished_product_is_not_multiplied_by_one(monkeypatch):
    # the pending term of a product chain is 1 once every factor is done; multiplying
    # by it would cost a kernel product over every term of the product
    products, units = [], []
    for owner, name in [(Poly, "__mul__"), (DiffOp, "compose")]:
        def counted(left, right, inner=getattr(owner, name)):
            factor = right.poly if isinstance(right, DiffOp) else right
            products.append(len(factor._num))
            if factor == Poly.const(factor.n, 1):
                units.append(len(factor._num))
            return inner(left, right)

        monkeypatch.setattr(owner, name, counted)
    big = "(" + "+".join(f"d{i}" for i in range(51, 101)) + ")^3"
    assert len(parse_operator(big, 100).poly._num) == 22100
    assert len(products) == 2 and units == []  # the two products of the power, and no other
    for src in ["(t1+d1)^2*t2", "2*(t1+d1)*d2^2", "(t1+d2)*(d1+t2)", "-(t1+d1)^2", "t1*(d1+t2)*3"]:
        parse_operator(src, 2)
    assert units == [] and len(products) > 2


def test_printed_operators_and_symbols_parse_back_with_no_kernel_product(monkeypatch):
    # every printed term (f_J)*d^J is a sum times atoms in which nothing meets, so the first
    # pass multiplies it out: no product per coefficient
    power = heavy_power()
    symbol = principal_symbol(parse_operator("((t1+t2)*d1 + t3*d2 - 1/2*t1*t2*d3)^4", 3))
    texts = [str(power), str(symbol)]
    assert all(re.search(r"\([^()]* [-+] [^()]*\)\*", text) for text in texts)  # a coefficient that is a sum
    products = []
    for owner, name in [(Poly, "__mul__"), (DiffOp, "compose")]:
        def counted(*args, name=name, inner=getattr(owner, name)):
            products.append(name)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
    assert parse_operator(texts[0], 3) == power
    assert parse_symbol(texts[1], 3) == symbol
    assert products == []


@pytest.mark.parametrize("src,printed", [
    ("(t1+d1)*t1", "(t1)*d1 + t1^2 + 1"),
    ("(t2+d1)*d2*t1", "(t1)*d1*d2 + (t1*t2 + 1)*d2"),
    ("(t1*d1 + t2)*3*t1^2", "(3*t1^3)*d1 + 3*t1^2*t2 + 6*t1^2"),
])
def test_a_sum_whose_d_meets_a_t_after_it_is_composed(monkeypatch, src, printed):
    # a d_i of the sum meets a t_i of the atoms after it: the kernel's star product
    want = compose_all(reference_parse(src, {"t", "d"}), 2)
    composed = []
    monkeypatch.setattr(DiffOp, "compose", lambda left, right, inner=DiffOp.compose: composed.append(1) or inner(left, right))
    got = parse_operator(src, 2)
    assert got == want and str(got) == printed
    assert composed == [1]


def test_a_power_of_a_base_that_commutes_with_itself_makes_no_kernel_product(monkeypatch):
    # a one-term base commutes with itself, so its power is its exponents times k and its
    # coefficient to the k-th, where k kernel products would each build one term
    want = [
        Poly.monomial(6, (100000,) * 6),
        Poly.monomial(4, (100000, 0, 0, 100000), 3**100000),
        Poly.monomial(2, (100000, 100000)),
        Poly.monomial(1, (60000,), 3**60000),
    ]
    products = []
    for owner, name in [(Poly, "__mul__"), (DiffOp, "compose")]:
        def counted(left, right, name=name, inner=getattr(owner, name)):
            products.append(name)
            return inner(left, right)

        monkeypatch.setattr(owner, name, counted)
    got = [
        parse_poly("(t1*t2*t3*t4*t5*t6)^100000"),
        parse_operator("(3*t1*d2)^100000").poly,
        parse_symbol("(t1*x1)^100000").poly,
        parse_poly("(3*t1)^60000"),
    ]
    assert products == []
    assert got == want


# -- the size rule's verdicts ------------------------------------------------

F = "(t1+t2+t3)^30"
S6, S8 = "(t1+t2+t3+d1+d2+d3)^6", "(t1+t2+t3+d1+d2+d3)^8"
# t_i*d_(i+1) around a cycle: its square runs as a product and as a power
B30 = "(" + "+".join(f"t{i}*d{i % 30 + 1}" for i in range(1, 31)) + ")"
B8 = "(" + "+".join(f"t{i}*d{i % 8 + 1}" for i in range(1, 9)) + ")"


def evaluate(kind, *sources):
    parse = {"operator": parse_operator, "poly": parse_poly, "symbol": parse_symbol, "comm": parse_commutator,
             "apply": parse_action, "construct": lambda degree, text="1,0 -> t2\n": parse_jet_map(text, degree)}
    return parse[kind](*sources)


# within the budget: each input and the SHA-256 of its printed value, as the
# estimators that the size rule replaced computed it
ACCEPTED = [
    ("field^6", ("operator", "((t1+1)*d1 + t2*d2 + 1/2)^6"),
     "eb382f3734e321f00d4b133748796fa60b760990a6c7fc36e0fb42b8ebbeef9a"),
    ("(t1-2*t2)^20", ("poly", "(t1-2*t2)^20"),
     "ec125000092bb85de9a37024562a47c7512221808563db7d1f2ebcadb7f52175"),
    ("s^10", ("operator", "(t1+t2+t3+d1+d2+d3)^10"),
     "6f9579f8e293e37bdf1da4d13edb3ad56f2e5b0722f5915be7592955d3470b66"),
    ("monomial^100000", ("poly", "(t1*t2*t3*t4*t5*t6)^100000"),
     "93a114bcfa93bceddcde9527df169c7d47c1e2e02939a85d6d0452cf65f4bea3"),
    ("2^15000*(1/2)^15000", ("poly", "2^15000*(1/2)^15000"),
     "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ("d1^300*t1^300", ("operator", "d1^300*t1^300"),
     "f4eae2dc151241f48d0045adbb129a759a9d18ac8c9b6e03558234f01371564b"),
    ("(d1+d2+d3)^8*(t1+t2+t3)^8", ("operator", "(d1+d2+d3)^8*(t1+t2+t3)^8"),
     "ac3926667f8ea45bb2dbf896d92251308d9b3e7a26f33d8f9cd6f4247e54be00"),
    ("t1^100000*d1^100000", ("operator", "t1^100000*d1^100000"),
     "626a41b2e3171640126520da16c00477eda19cb9db3f3053ccb4be27a874fc0b"),
    ("x1^100000*t1^100000", ("symbol", "x1^100000*t1^100000"),
     "fa867276739f9fd6898c880681079aae60b507b3ec77bb4a22ecbb60bfc8b435"),
    ("(t1+t2)^100*(t1-t2)^100", ("poly", "(t1+t2)^100*(t1-t2)^100"),
     "854b4218cbbe6933af0663b92939800f06b7f0f3bb8758e7ab52dd598f800c20"),
    ("(x1+x2)^30*(t1+t2)^30", ("symbol", "(x1+x2)^30*(t1+t2)^30"),
     "ccbd8f5e11aae4fe68f0836a6782d4150fe3ece9b0be0ebfc597e8769c80f694"),
    ("three F", ("operator", f"{F}*{F}*{F}"),
     "6ea3062434a1c6964fa0678a0eab843ff8df4827c10ea122833cf56852abc136"),
    ("comm s6 s6", ("comm", S6, S6),
     "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
    ("apply d1^1000 t1^1000", ("apply", "d1^1000", "t1^1000"),
     "cc336cf135d690c1105664b3b859db66b940db51cd66cf891fee120584cf7873"),
    ("apply beyond reach", ("apply", "d1^90000*d2^90000 + 7", "(t1+t2)^20"),
     "9e66fe89a230debad55f79a43e19e488dc238c4177cf3d101c779e32ab8da853"),
    ("(d51+...+d100)^3", ("operator", "(" + "+".join(f"d{i}" for i in range(51, 101)) + ")^3"),
     "d45c5306c4f9547e3e6827dacf67c68e08232cd94f103f3509d62678a136165d"),
    ("d1*(t1+t2)^2", ("operator", "d1*(t1+t2)^2"),
     "651951c3b73e20744a79ce28906a382d9a1471fa30ef80fb948f95f1995416cd"),
    ("B30*B30", ("operator", f"{B30}*{B30}"),
     "ab1a67ad9c60d2b018f36b9dd0f115aaf1362a1592ae6dc727f6b2ddbafbce49"),
    ("B8*B8*B8", ("operator", f"{B8}*{B8}*{B8}"),
     "270052b4ec9ade61ac4f5f3ec219ae5882f9c46efc77dedf1278d4d74b0a2976"),
    # the group times 3 is multiplied out in the first pass, so the power's base is a value
    # and is sized from its terms; as a plan, the base was refused at ^4
    ("a folded sum in a power's base", ("operator", "(d1 + (2*t1^8 + 84)*3 + t2 + 1/2*t1 + 2*d1*d2)^4"),
     "87b26344d0d2c6bb94d2715a33ab212e70bf9f83aa73bd679330436fe6d2719e"),
    # a group times d1 alone adds its terms to the sum it stands in, sized as that sum: each term
    # holds its own numerator's bits, where a fold's cap charged each the 4300 digits
    ("(nines*t1 + t2 + ... + t80)*d1", ("operator", f"({'9' * MAX_DIGITS}*t1+" + "+".join(f"t{i}" for i in range(2, 81)) + ")*d1"),
     "bbec9eb507ef34fcd467d6996f992ce35b41b98fd98006643dcaba5159045596"),
]


@pytest.mark.parametrize("source,digest", [pytest.param(source, digest, id=name) for name, source, digest in ACCEPTED])
def test_accepted_inputs_keep_their_values(source, digest):
    assert hashlib.sha256(str(evaluate(*source)).encode()).hexdigest() == digest


def test_a_number_chain_is_sized_as_one_term():
    # the sixth factor of 3^100000 meets 3^500000 in 950,981 bits of numerators and
    # denominators, within the budget; a seventh is refused (REFUSED), as a product of
    # one-term shapes
    src = "*".join(["3^100000"] * 6) + "*t1"
    assert assert_same_as_the_tree_walk("operator", src, values=False)
    assert parse_operator(src).poly == Poly.monomial(2, (1, 0), 3**600000)


def test_number_powers_share_one_allowance_per_call():
    # each (1/1021)^100000 holds 999,578 bits: four fit in 4 * MAX_POWER_BITS, a fifth does not,
    # in one text, across the two texts of a call, or across the lines of a jet table
    zeros = ["+".join(["(1/1021)^100000*0"] * k) for k in range(6)]
    assert parse_poly(zeros[4]) == Poly.zero(1)
    assert parse_commutator(zeros[2] + "+d1", zeros[2] + "+t1") == parse_operator("1")
    table = "".join(f"{i} -> (1/1021)^100000*0\n" for i in range(5))
    assert parse_jet_map(table.replace("0 -> (1/1021)^100000*0\n", "0 -> 1\n", 1), 4).values[(4,)] == Poly.zero(1)
    for refused in [lambda: parse_poly(zeros[5]), lambda: parse_commutator(zeros[3], zeros[2]),
                    lambda: parse_action(zeros[1] + "+d1", zeros[4] + "+t1"), lambda: parse_jet_map(table, 4)]:
        with pytest.raises(ParseError, match=r"the power \^100000 is too large"):
            refused()


def test_a_power_and_its_product_chain_get_one_verdict():
    # the power ^k is the k-fold product under the same rule, so both run
    assert parse_operator(f"{B30}^2") == parse_operator(f"{B30}*{B30}")
    assert parse_operator(f"{B8}^3") == parse_operator(f"{B8}*{B8}*{B8}")


def heavy_power():
    """The benchmark's heavy round trip input: a first-order field in 3 variables to the 8th power."""
    rng = random.Random("heavy:7:0")

    def rational():
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.choice((1, 2)))

    units = [tuple(int(k == j) for k in range(3)) for j in range(3)]
    coefficients = {(0, 0, 0): Poly(3, {u: rational() for u in units})}
    field = DiffOp(3, {**coefficients, **{u: Poly.const(3, rational()) for u in units}})
    return field**8


def test_heavy_round_trip_text_parses_back():
    power = heavy_power()
    text = str(power)
    assert hashlib.sha256(text.encode()).hexdigest() == "1760a013db6f122e9c73f677ee1b69ebb13c897fdde4289bf6ba7cfd528a8866"
    assert parse_operator(text, 3) == power


def test_printed_coefficients_add_their_terms_to_one_sum(monkeypatch):
    # each printed term (f_J)*d^J passes the terms of f_J, shifted by J, to the sum it stands
    # in, so the whole text is added, and sized, once
    sums = []
    monkeypatch.setattr(parser, "_sum", lambda *args, inner=parser._sum: sums.append(len(args[2])) or inner(*args))
    power = heavy_power()
    assert parse_operator(str(power), 3) == power
    assert sums == [len(power.poly._num)]


SUM = "(1/1021)^100000 + (1/1019)^100000"
FIVE_PRIMES = "+".join(f"(1/{p})^100000*t1" for p in (2, 3, 5, 7, 11))
TWO_LINES = "0 -> (1/1021)^100000\n1 -> (1/1019)^100000*t1\n"
THREE_LINES = "0,0 -> (1/1021)^100000\n1,0 -> (1/1019)^100000*t1\n0,1 -> (1/1013)^100000*t2\n"
REFUSED = [
    pytest.param(("operator", "*".join([F] * 5)), "the product is too large", id="five F"),
    pytest.param(("comm", S8, S8), "the product is too large", id="comm s8 s8"),
    pytest.param(("apply", "(t1+t2+t3+d1+d2+d3)^12", "(t1+t2+t3)^40"), "the action is too large", id="apply s^12"),
    pytest.param(("operator", "(t1+t2+t3+d1+d2+d3)^40"), r"the power \^40 is too large", id="s^40"),
    pytest.param(("construct", 100), "more than 300 monomials", id="construct --degree 100"),
    pytest.param(("operator", f"({F}*{F}+1)^2"), r"the power \^2 is too large", id="(F*F+1)^2"),
    # 79 terms times a 4300-digit number: over the cap, 74 terms, of a sum times a number and an atom
    pytest.param(("operator", "(" + "+".join(f"t{i}" for i in range(1, 80)) + ")*" + "9" * MAX_DIGITS + "*d1"),
                 "the product is too large", id="(t1+...+t79)*nines*d1"),
    # a chain of numbers is one term: 7 * 158,497 bits of 3^100000 are over the budget
    pytest.param(("operator", "*".join(["3^100000"] * 7) + "*t1"), "the product is too large", id="3^100000 x7 *t1"),
    # each value is within the budget alone; the operator from_jet_map would build from them is not
    pytest.param(("construct", 1, TWO_LINES), "the table is too large", id="table (1/p)^100000, two lines"),
    pytest.param(("construct", 1, THREE_LINES), "the table is too large", id="table (1/p)^100000, three lines"),
    # each term is within the budget alone; their sum, over the lcm of the denominators, is not
    pytest.param(("operator", SUM), "the sum is too large", id="(1/1021)^100000 + (1/1019)^100000"),
    pytest.param(("poly", FIVE_PRIMES), "the sum is too large", id="(1/p)^100000*t1 over five primes"),
    # the number powers of a call share 4 * MAX_POWER_BITS, whatever their chains come to: the
    # fifth near-budget power is refused before it is computed
    pytest.param(("operator", " + ".join(["(1/1021)^100000*0"] * 80)), r"the power \^100000 is too large",
                 id="(1/1021)^100000*0 x80"),
    pytest.param(("operator", " + ".join(["(1/1021)^50000*1021^50000*t1"] * 40)), r"the power \^50000 is too large",
                 id="(1/1021)^50000*1021^50000*t1 x40"),
    pytest.param(("construct", 299, "".join(f"{i} -> (1/1021)^100000*0\n" for i in range(300))),
                 r"line 5: the power \^100000 is too large", id="table (1/1021)^100000*0, 300 lines"),
]


@pytest.mark.parametrize("source,message", REFUSED)
def test_refused_inputs_make_no_kernel_call(monkeypatch, source, message):
    calls = []
    kernel = [(Poly, "__mul__"), (Poly, "__pow__"), (DiffOp, "compose"), (DiffOp, "__pow__"), (DiffOp, "apply"),
              (parser, "commutator")]
    for owner, name in kernel:
        def counted(*args, name=name, inner=getattr(owner, name)):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
    with pytest.raises(ParseError, match=message):
        evaluate(*source)
    assert calls == []


def test_a_sum_is_sized_by_its_terms_own_denominators(monkeypatch):
    lcms = []
    monkeypatch.setattr(parser, "lcm", lambda a, b: lcms.append(a) or math.lcm(a, b))
    # the largest denominator alone holds more bits than the sum allows each term: refused
    # with no lcm taken
    for parse, src in ((parse_operator, SUM), (parse_poly, FIVE_PRIMES)):
        with pytest.raises(ParseError, match="the sum is too large"):
            parse(src)
    assert lcms == []
    # each term's numerator is charged relative to its own denominator: two terms over one
    # 499,795-bit denominator hold about 1.0M bits, within the budget
    half = Fraction(1, 1021**50000)
    assert parse_operator("(1/1021)^50000*t1 + (1/1021)^50000*t2").poly == Poly(4, {(1, 0, 0, 0): half, (0, 1, 0, 0): half})
    assert lcms == []


@contextmanager
def bits_built():
    """The bits of each Poly made in the block, numerators' and the denominator's once per term, in a list."""
    sizes = []
    make = Poly._make.__func__

    def recorded(cls, n, num, den):
        out = make(cls, n, num, den)
        sizes.append(sum(map(int.bit_length, out._num.values())) + len(out._num) * out._den.bit_length())
        return out

    with mock.patch.object(Poly, "_make", classmethod(recorded)):
        yield sizes


def largest_value_built(kind, *sources):
    """The most bits of a Poly made while the input parses, if it is accepted; None if it is refused."""
    with bits_built() as sizes:
        try:
            evaluate(kind, *sources)
        except ParseError:
            return None
    return max(sizes, default=0)


# Every Poly that an accepted input makes while it parses, the values of its sums,
# products and powers and the kernel's own on the way, holds at most MAX_POWER_BITS
# bits: the one rule bounds each sum, product and power before the kernel computes it.
# The two sums over the budget are refused, so they build nothing to measure.
@pytest.mark.parametrize("source", [pytest.param(source, id=name) for name, source, _ in ACCEPTED]
                         + [pytest.param(("operator", "(1/1021)^50000*t1 + (1/1021)^50000*t2"), id="two terms"),
                            pytest.param(("operator", SUM), id="sum of two (1/p)^100000"),
                            pytest.param(("poly", FIVE_PRIMES), id="sum of five (1/p)^100000*t1")])
def test_an_accepted_input_builds_no_value_over_the_budget(source):
    assert (largest_value_built(*source) or 0) <= MAX_POWER_BITS


@settings(max_examples=200, deadline=None)
@given(expressions(["t1", "t2", "d1", "d2"]), expressions(["t1", "t2"]), expressions(["t1", "t2", "x1", "x2"]))
def test_a_random_input_builds_no_value_over_the_budget(operator, polynomial, symbol):
    for source in [("operator", operator), ("poly", polynomial), ("symbol", symbol), ("comm", operator, operator),
                   ("apply", operator, polynomial)]:
        assert (largest_value_built(*source) or 0) <= MAX_POWER_BITS


def test_an_over_budget_table_is_refused_before_from_jet_map(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "from_jet_map", lambda A: pytest.fail("from_jet_map ran"))
    path = tmp_path / "table.jets"
    for text in (TWO_LINES, THREE_LINES):
        path.write_text(text, encoding="utf-8")
        assert cli.main(["construct", "--map", str(path), "--degree", "1"]) == 2
    bound = f"its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    assert capsys.readouterr().err == f"error: the table is too large to expand: {bound}\n" * 2


def jet_operator_bits(A):
    """Terms times the largest coefficient's bits of from_jet_map(A), as it works over lcm(denominators) * k!."""
    D = from_jet_map(A)
    den = math.lcm(*(p._den for p in A.values.values())) * math.factorial(A.k)
    scale = den // D.poly._den
    return len(D.poly._num) * (max((abs(c * scale).bit_length() for c in D.poly._num.values()), default=0) + den.bit_length())


def test_a_table_is_sized_as_the_operator_it_builds(monkeypatch):
    lcms = []
    monkeypatch.setattr(parser, "lcm", lambda a, b: lcms.append(a) or math.lcm(a, b))
    # (1/1021)^100000 is 999,590 bits: one term within the budget at degree 0, two over it at
    # degree 1, where the word d1 gets -t1 times it
    A = parse_jet_map("0 -> (1/1021)^100000", 0)
    assert from_jet_map(A) == DiffOp.from_poly(Poly.const(1, Fraction(1, 1021**100000)))
    with pytest.raises(ParseError, match="the table is too large"):
        parse_jet_map("0 -> (1/1021)^100000", 1)
    # the largest denominator alone is over the room: refused with no lcm taken
    for text in (TWO_LINES, THREE_LINES):
        with pytest.raises(ParseError, match="the table is too large"):
            parse_jet_map(text, 1)
    assert lcms == []
    # the two denominators' bits add up to more than the room, their lcm's do not: accepted
    shared = parse_jet_map("0 -> (1/8)^100000*1/3\n1 -> (1/8)^100000*1/5*t1", 1)
    assert len(lcms) == 1 and jet_operator_bits(shared) <= MAX_POWER_BITS
    with pytest.raises(ParseError, match="the table is too large"):
        parse_jet_map("0 -> (1/8)^100000*1/3\n1 -> (1/9)^95000*t1", 1)
    assert len(lcms) == 2


@st.composite
def jet_tables(draw):
    """Jet tables in 1 or 2 variables whose values mix small and large, shared and coprime denominators."""
    n, k = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    dens = st.sampled_from([1, 2, 6, 35, 2**200, 3 * 2**200, 5**90, 1021**20])
    values = {}
    for I in draw(st.lists(st.sampled_from(monomials_up_to(n, k)), unique=True, max_size=4)):
        terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.integers(-2**300, 2**300), dens),
                              max_size=3))
        values[I] = Poly(n, {J: Fraction(c, d) for J, c, d in terms})
    return JetMap(n, k, values)


@settings(deadline=None)
@given(jet_tables(), st.sampled_from([2**10, 2**12, 2**14, 2**16, MAX_POWER_BITS]))
def test_an_accepted_table_builds_an_operator_within_the_budget(A, budget):
    with mock.patch.object(parser, "MAX_POWER_BITS", budget):
        try:
            B = parse_jet_map(A.render(), A.k, n=A.n)
        except ParseError as exc:
            if exc.message.startswith("line "):  # a value over the budget alone: parse_poly refuses it in the same words
                where, _, words = exc.message.partition(": ")
                with pytest.raises(ParseError) as alone:
                    parse_poly(A.render().splitlines()[int(where.split()[1]) - 1].partition("->")[2], A.n)
                assert alone.value.message == words
            else:
                assert exc.message.startswith("the table is too large")
            return
    assert B == A and jet_operator_bits(B) <= budget


# -- the evaluation loop against the tree walk it replaced ---------------------


def reference_sum(evaluator, node, raw=False):
    """The evaluator's former first pass over a tree, kept as an independent reference.

    It walks the tree reference_parse builds, with the live evaluator's sizing
    (shape, times, raised), its sum of parts (add) and its one-term Poly
    (_term), so that equal plans come out where the two passes read the
    text alike.  A sum and a product chain are walked with an explicit
    stack; every Neg on the way to a product flips its sign.  With raw, a
    sum whose parts are all terms is its list of terms, which
    reference_product multiplies out.
    """
    terms, plans = [], []  # (exponents, coefficient) terms, and plans
    stack = [(node, 1)]
    while stack:
        node, sign = stack.pop()
        cls = type(node)
        if cls is Add:
            stack += [(node.right, sign), (node.left, sign)]
        elif cls is Sub:
            stack += [(node.right, -sign), (node.left, sign)]
        elif cls is Neg:
            stack.append((node.inner, -sign))
        else:
            part = reference_product(evaluator, node, sign)
            (terms.append if type(part) is tuple else terms.extend if type(part) is list else plans.append)(part)
    if raw and not plans:
        return terms
    value = evaluator.add(terms)
    return evaluator.summed([value, *plans] if value else plans) if plans else value


def reference_product(evaluator, node, c):
    """c times the product chain at node, folded left to right, as the former first pass did."""
    n, width, reorder = evaluator.n, evaluator.width, evaluator.reorder
    exps = [0] * width
    factors = []
    stack = [node]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Mul:
            stack += [node.right, node.left]
            continue
        if cls is Neg:
            c = -c
            stack.append(node.inner)
            continue
        k = 1
        if cls is Pow and type(node.base) in (Num, Var):
            node, k = node.base, node.exponent
            cls = type(node)
        if cls is Num:
            value = node.value
            if value.denominator == 1:
                value = value.numerator
            if k != 1:  # a one-term power, whose bits, or their estimate where that is over, the call's allowance is charged
                spent = (max(value.numerator, value.denominator).bit_length() - 1) * k
                if spent <= evaluator.allowance[0]:
                    evaluator.raised(evaluator.shape(_term([0] * width, value)), k)
                    value **= k
                    spent = value.numerator.bit_length() + value.denominator.bit_length()
                evaluator.allowance[0] -= spent
                if evaluator.allowance[0] < 0:
                    raise ParseError(None, f"the power ^{k} is too large to expand: its estimated terms times "
                                           f"coefficient bits exceed {MAX_POWER_BITS}")
            if c != 1 and c != -1:  # a second number of the chain: the product of two one-term shapes
                bits = sum(v.numerator.bit_length() + v.denominator.bit_length() for v in (c, value))
                if bits > MAX_POWER_BITS:
                    raise ParseError(None, f"the product is too large to expand: its estimated terms times coefficient "
                                           f"bits exceed {MAX_POWER_BITS}")
            c = value if c == 1 else -value if c == -1 else c * value
            continue
        if cls is Var:
            if node.index > n:
                raise ParseError(node.offset, f"variable index {node.index} exceeds the {n} available variables")
            s = node.index - 1 if node.prefix == "t" else n + node.index - 1
            if reorder and s < n and exps[n + s]:  # t_i after d_i: the pending term is a factor
                factors.append(_term(exps, c))
                c, exps = 1, [0] * width
            exps[s] += k
            continue
        if cls is Pow:
            base, k = reference_sum(evaluator, node.base), node.exponent
            factor = _Plan("pow", (base, k), evaluator.raised(evaluator.shape(base), k))
        else:
            factor = reference_sum(evaluator, node, raw=True)
        if c != 1 or any(exps):
            factors.append(_term(exps, c))
            c, exps = 1, [0] * width
        factors.append(factor)
    if not factors:
        return exps, c
    if len(factors) == 1 and type(factors[0]) is list:
        # a sum of terms times numbers and atoms, where no d_i of the sum's terms meets a t_i of
        # the term: times 1, the sum's terms shifted, for the enclosing sum to add; times any
        # other number, the plain product, where it has fewer terms than its cap, and else the
        # plan below, which must refuse it
        raw, term = factors[0], _term(exps, c)
        if not (reorder and any(min(e[n + i], exps[i]) for e, _ in raw for i in range(n))):
            if c == 1:
                return [([*map(add, e, exps)], v) for e, v in raw]
            s, t = evaluator.shape(evaluator.add(raw)), evaluator.shape(term)
            if s.terms < MAX_POWER_BITS // ((s.num * t.num).bit_length() + (s.den * t.den).bit_length()) + 1:
                folded = evaluator.add(raw) * term
                return [([*key], Fraction(v, folded._den)) for key, v in folded._num.items()]
    factors = [evaluator.add(f) if type(f) is list else f for f in factors]
    if c != 1 or any(exps):
        factors.append(_term(exps, c))
    if len(factors) == 1:
        return factors[0]
    return _Plan("mul", factors, reduce(lambda out, s: evaluator.times(out, s, "the product"), map(evaluator.shape, factors)))


def reference_first_pass(n, *texts, allowance=None):
    """parser._first_pass as it was: each text (source, second, reorder) to a tree, then to a plan."""
    trees = [reference_parse(src, {"t", second or "t"}) for src, second, _ in texts]
    if n is None:
        n = max(1, *map(reference_max_index, trees))
    check_variable_count(n)
    allowance = allowance or [4 * MAX_POWER_BITS]
    evaluators = [_Evaluator(n, second, reorder, allowance) for _, second, reorder in texts]
    return [(evaluator, reference_sum(evaluator, tree)) for evaluator, tree in zip(evaluators, trees)]


ENTRY = {"operator": parse_operator, "poly": parse_poly, "symbol": parse_symbol, "comm": parse_commutator,
         "apply": parse_action,
         "construct": lambda degree, text="1,0 -> t2\n", n=None: parse_jet_map(text, degree, n)}
TEXTS = {
    "operator": lambda src: [(src, "d", True)],
    "poly": lambda src: [(src, None, False)],
    "symbol": lambda src: [(src, "x", False)],
    "comm": lambda left, right: [(left, "d", True), (right, "d", True)],
    "apply": lambda expr, poly: [(expr, "d", True), (poly, None, False)],
}


def reference_evaluate(kind, *sources, n=None):
    """The entry point of kind as it was: the live entry point over the tree walk's first pass."""
    with mock.patch.object(parser, "_first_pass", reference_first_pass):
        return ENTRY[kind](*sources, n=n)


def result(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)


def assert_same_as_the_tree_walk(kind, *sources, n=None, values=True):
    """The loop and the tree walk give equal plans, and equal values or one error (type, offset, message).

    values=False compares the plans alone, for inputs whose values are
    costly; the second pass that computes a plan is shared code.  A jet
    table has no text of its own to plan, so only its value is compared.
    Where the tree walk stops at a digit int() cannot read (Unreadable),
    the loop must raise a ParseError at it or before.  Returns whether
    the texts were planned without an error.
    """
    def same(got, want):
        if type(want) is tuple and want[0] is Unreadable:
            assert got[0] is ParseError and got[1] <= want[1], (kind, sources)
        else:
            assert got == want, (kind, sources)

    planned = True
    if kind in TEXTS:
        plans = [result(lambda f: [(e.n, plan) for e, plan in f(n, *TEXTS[kind](*sources))], f)
                 for f in (parser._first_pass, reference_first_pass)]
        same(*plans)
        planned = type(plans[1]) is list
    if values:
        same(result(ENTRY[kind], *sources, n=n), result(reference_evaluate, kind, *sources, n=n))
    return planned


def test_the_loop_matches_the_tree_walk_on_random_strings():
    rng = random.Random(20240518)
    accepted = 0
    previous = ""
    for _ in range(4000):
        src = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        n = rng.choice([None, None, 2])
        for kind in ("operator", "poly", "symbol"):
            accepted += assert_same_as_the_tree_walk(kind, src, n=n)
        for kind in ("comm", "apply"):
            assert_same_as_the_tree_walk(kind, previous, src, n=n)
            assert_same_as_the_tree_walk(kind, src, previous, n=n)
        previous = src
    assert accepted > 300


@settings(max_examples=300, deadline=None)
@given(expressions(["t1", "t2", "d1", "d2"]), expressions(["t1", "t2"]), expressions(["t1", "t2", "x1", "x2"]))
def test_the_loop_matches_the_tree_walk_on_expressions(operator, polynomial, symbol):
    assert assert_same_as_the_tree_walk("operator", operator)
    assert assert_same_as_the_tree_walk("poly", polynomial)
    assert_same_as_the_tree_walk("symbol", symbol)
    assert_same_as_the_tree_walk("comm", operator, polynomial)
    assert_same_as_the_tree_walk("apply", operator, polynomial)


def test_the_loop_matches_the_tree_walk_on_random_trees():
    rng = random.Random(20261019)
    variables = {"operator": ["t1", "t2", "t3", "d1", "d2", "d3"], "poly": ["t1", "t2", "t3"],
                 "symbol": ["t1", "t2", "t3", "x1", "x2", "x3"]}
    for _ in range(150):
        for kind, names in variables.items():
            assert_same_as_the_tree_walk(kind, random_tree(rng, names), n=3)
        assert_same_as_the_tree_walk("apply", random_tree(rng, variables["operator"]), random_tree(rng, variables["poly"]))


SIGNED_GROUPS = [
    "-(t1*(t1+d1)^2) + t2", "t2 - (t1+d1)*d1", "--((t1+d1))^2", "-(t1+d1)^2", "-((t1+d1)^2)", "-(t1+d1)*2",
    "2*-(t1+d1)", "t1 - (d1 - (t1 - d1*t1))", "-(-(t1 + d1) + d2*(t2 - d2))", "((t1+d1))*t1", "t1*((t1+d1))",
    "(t1*(t1+d1))*d1", "-(d1*t1)*(t1)^2*((3/4))^2", "((t1))^2*(-t1)^2*(t1^2)^2", "(t1*1)^2 + (2)^3 - (-(2))^2",
    "((d1*t1))^1 + (d1 + 0)^1", "d1*(t1*t2)*(-(d2*t2))", "(d1 + t1)*-(-(d1)*t1) - -(t2)",
]


@pytest.mark.parametrize("src", SIGNED_GROUPS)
def test_the_loop_matches_the_tree_walk_on_signed_groups(src):
    assert assert_same_as_the_tree_walk("operator", src)
    assert assert_same_as_the_tree_walk("poly", src.replace("d", "t"))


@pytest.mark.parametrize("source", [pytest.param(source, id=name) for name, source, _ in ACCEPTED]
                         + [pytest.param(p.values[0], id=p.id) for p in REFUSED])
def test_the_loop_matches_the_tree_walk_on_the_pinned_inputs(source):
    kind, *sources = source
    assert_same_as_the_tree_walk(kind, *sources, values=kind == "construct")


def test_a_sum_at_its_cap_is_left_to_the_plan():
    # 73 terms over a 4300-digit denominator are within the budget as a sum, and the sum times
    # 2^100 reaches the cap of a sum times a term, so the product is refused, as the tree walk's
    # plan of the sum times the term is; times 0 the sum is measured where it is added, and
    # folds to zero.  79 such terms are over the budget as a sum, refused before any product
    big = "9" * MAX_DIGITS

    def total(k):
        return "(" + "+".join(f"1/{big}*t{i}" for i in range(1, k + 1)) + ")"

    assert assert_same_as_the_tree_walk("operator", f"{total(73)}*0*d1")
    assert parse_operator(f"{total(73)}*0*d1").poly == Poly.zero(146)
    with pytest.raises(ParseError, match="the product is too large"):
        parse_operator(f"{total(73)}*2^100*d1")
    for c in ("0", "2"):
        assert not assert_same_as_the_tree_walk("operator", f"{total(79)}*{c}*d1", values=False)
        with pytest.raises(ParseError, match="the sum is too large"):
            parse_operator(f"{total(79)}*{c}*d1")


def test_a_fold_over_its_cap_adds_its_terms_once(monkeypatch):
    # 79 terms times a 4300-digit number reach the cap of a fold, so the product is refused, as
    # the tree walk's plan of the sum times the number is, once the sum is added
    big = "9" * MAX_DIGITS
    sums = []

    def counted(n, parts, terms=(), den=0, inner=parser._sum):
        sums.append(len(terms))
        return inner(n, parts, terms, den)

    src = "(" + "+".join(f"t{i}" for i in range(1, 80)) + f")*{big}*d1"
    assert not assert_same_as_the_tree_walk("operator", src, values=False)
    monkeypatch.setattr(parser, "_sum", counted)
    with pytest.raises(ParseError) as err:
        parse_operator(src)
    assert str(err.value) == f"error: the product is too large to expand: its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    assert sums == [79]
    # a fold by a number other than 1 measures its sum as a sum first, and 79 terms of 4300
    # digits each are over the budget as one
    monkeypatch.undo()
    heavy = "(" + "+".join(f"{big}*t{i}" for i in range(1, 80)) + ")"
    for c in ("0", "2"):
        assert not assert_same_as_the_tree_walk("operator", f"{heavy}*{c}*d1", values=False)
        with pytest.raises(ParseError, match="the sum is too large"):
            parse_operator(f"{heavy}*{c}*d1")


def test_the_loop_matches_the_tree_walk_on_products_of_a_cycle():
    for src in (f"{B30}*{B30}*{B30}", f"{B30}^2", f"{B30}*{B30}", f"{B8}^3"):
        assert_same_as_the_tree_walk("operator", src, values=False)
    with pytest.raises(ParseError, match="the product is too large"):
        parse_operator(f"{B30}*{B30}*{B30}")


def test_an_accepted_input_makes_no_parse_ast_call(monkeypatch):
    # the scan keeps no offsets: a text's tokens are checked for a lexical error, and one is
    # looked up again in the text for its offset, only on an error; a syntax error in any
    # text of a call is found before any text is planned
    calls = []
    for owner, name in [(parser, "parse_ast"), (parser, "_checked"), (parser, "_offset"), (_Evaluator, "plan")]:
        def counted(*args, name=name, inner=getattr(owner, name)):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
    parse_operator("-(t1*(t1+d1)^2) + t02 - (t1+d1)*d1")
    parse_poly("(t1 + 1/2)^3 - t2")
    parse_symbol("x1*(t1*x2 + x1)")
    parse_commutator("d1^2", "t1^2")
    parse_action("d1*(t1+d1)", "t1^3", 2)
    parse_jet_map("1,0 -> t2\n", 1)
    assert calls == ["plan"] * 8
    calls.clear()
    with pytest.raises(ParseError, match="expected a number"):
        parse_commutator("d1^2", "t1 +")
    with pytest.raises(ParseError, match="expected a positive integer exponent"):
        parse_action("t1^", "t1^2")
    assert calls == ["_checked", "_checked", "_offset", "_checked", "_offset"]
    calls.clear()
    with pytest.raises(ParseError, match="exceeds the 1 available variables"):
        parse_operator("t2", 1)
    assert calls == ["plan", "_offset", "_checked"]


@pytest.mark.parametrize("n,message", [(0, "need at least one variable, got 0"),
                                       (-1, "need at least one variable, got -1"),
                                       (MAX_INDEX + 1, f"at most {MAX_INDEX} variables, got {MAX_INDEX + 1}")])
def test_an_explicit_variable_count_is_bounded(n, message):
    # refused before any work: DiffOp(0) has no variables, and a huge n would size every term
    for parse, sources in [(parse_operator, ["1"]), (parse_poly, ["1"]), (parse_symbol, ["1"]),
                           (parse_commutator, ["1", "1"]), (parse_action, ["1", "1"]), (parse_jet_map, ["", 0])]:
        with pytest.raises(ValueError) as err:
            parse(*sources, n=n)
        assert str(err.value) == message and type(err.value) is ValueError
    assert parse_operator("1", MAX_INDEX).n == MAX_INDEX
