import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylcalc.jets import JetMap
from weylcalc.operators import DiffOp
from weylcalc.parser import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_INDEX,
    MAX_JET_BASIS,
    MAX_NESTING,
    MAX_POWER_BITS,
    Add,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Var,
    _Evaluator,
    _tokenize,
    check_action,
    check_composition,
    max_index,
    parse_ast,
    parse_jet_map,
    parse_operator,
    parse_poly,
    parse_shared,
    parse_symbol,
    to_diffop,
    to_poly,
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
    wide = parse_operator("(t1+t2+t3+d1+d2+d3)^8")
    with pytest.raises(ParseError, match="the product is too large to expand"):
        check_composition(wide, wide)
    with pytest.raises(ParseError, match="the product is too large to expand"):
        parse_operator("(t1+t2+t3+d1+d2+d3)^8*(t1+t2+t3+d1+d2+d3)^8")
    # the check is not symmetric: d1^1000 after t1^1000 needs no reordering
    d, t1 = parse_operator("d1^1000"), parse_operator("t1^1000")
    check_composition(t1, d)
    with pytest.raises(ParseError, match="the product is too large to expand"):
        check_composition(d, t1)


def test_action_check_bounds_apply():
    D, p = parse_shared(("operator", "(t1+t2+t3+d1+d2+d3)^12"), ("poly", "(t1+t2+t3)^40"))
    with pytest.raises(ParseError, match="the action is too large to expand"):
        check_action(D, p)
    # one pair with a 1000! coefficient is far below the budget, though the product d1^1000*t1^1000 is not
    d, t1 = parse_shared(("operator", "d1^1000"), ("poly", "t1^1000"))
    check_action(d, t1)
    assert d.apply(t1) == Poly.const(1, math.factorial(1000))
    # a word that no term of p reaches costs nothing
    check_action(parse_operator("d1^90000*d2^90000 + 7", 2), parse_poly("(t1+t2)^20", 2))


def test_shared_parse_infers_one_n():
    D, p = parse_shared(("operator", "d2"), ("poly", "t1"))
    assert D == DiffOp.partial(2, 2) and p == Poly.variable(2, 1)
    D, p = parse_shared(("operator", "d1"), ("poly", "t1"), n=3)
    assert D.n == p.n == 3


def test_product_term_count_bounds_the_product():
    rng = random.Random(20261018)
    evaluator = _Evaluator(3, "d", True)

    def draw():
        terms = ["*".join(f"{rng.choice('td')}{rng.randint(1, 3)}^{rng.randint(1, 4)}" for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        return evaluator.sum(parse_ast("+".join(terms), {"t", "d"}))

    for _ in range(100):
        left, right = draw(), draw()
        if evaluator.reorders(left, right):
            assert evaluator.product_terms(left, right, 10**9) >= len(evaluator.mul(left, right)._num)
            assert evaluator.product_terms(left, right, 3) <= 3


def test_jet_tables_are_bounded():
    with pytest.raises(ParseError, match=f"degree 100 in 2 variables has more than {MAX_JET_BASIS} monomials"):
        parse_jet_map("1,0 -> t2\n", 100)
    with pytest.raises(ParseError, match=f"more than {MAX_JET_BASIS} monomials"):
        parse_jet_map("0 -> t1\n", 10**4000)
    # the largest basis within the budget: C(2+22, 22) = 276 monomials
    assert len(parse_jet_map("1,0 -> t2\n", 22).values) == 276


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
        "d1*t1^2*d2*t2*3 - d2*t1*2/3*d1",
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
    with pytest.raises(ParseError, match="unknown variable 'd'; expected one of: t") as err:
        to_poly(parse_ast("t1 + d1", {"t", "d"}), 1)
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


# -- the tokenizer against the character loop it replaced -------------------


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
    on them or reported some later error first; the tokenizer now stops
    at them.  Without them the former loop never crashed.
    """
    return next((i + 1 for i, ch in enumerate(src) if ch.isdigit() and not ch.isdecimal()), None)


# ASCII and non-ASCII letters, decimal digits of two scripts, superscripts,
# a vulgar fraction, operators, whitespace of several kinds and strays
ALPHABET = list("tdxé" "0123456789" "٣²³①½" "+-*^/()" " \t\n " "?_.")
PREFIX_SETS = [frozenset({"t", "d"}), frozenset({"t"}), frozenset({"t", "x"})]


def test_tokenizer_matches_the_character_loop_on_random_strings():
    rng = random.Random(20240518)
    compared = stopped = 0
    for _ in range(4000):
        src = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        prefixes = rng.choice(PREFIX_SETS)
        bad = unreadable_digit(src)
        if bad is None:
            compared += 1
            assert outcome(_tokenize, src, prefixes) == outcome(reference_tokenize, src, prefixes), src
        else:
            stopped += 1
            with pytest.raises(ParseError) as err:
                _tokenize(src, prefixes)
            assert err.value.offset <= bad, src
    assert compared > 2000 and stopped > 500


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
    assert parse_operator(src, n=2) == compose_all(parse_ast(src, {"t", "d"}), 2)


@settings(max_examples=300, deadline=None)
@given(expressions(["t1", "t2"]))
def test_polynomials_match_multiplication_of_every_node(src):
    assert parse_poly(src, n=2) == poly_all(parse_ast(src, {"t"}), 2)


def test_long_polynomial_round_trips():
    rng = random.Random(5)
    p = Poly(2, {(j % 71, j // 71): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for j in range(5000)})
    assert len(p.terms) == 5000
    assert parse_poly(str(p), 2) == p


def test_long_operator_round_trips():
    D = DiffOp(1, {(j,): Poly(1, {(j % 3,): j + 1}) for j in range(5000)})
    assert parse_operator(str(D), 1) == D


def test_max_index_walks_a_long_sum():
    ast = parse_ast(" + ".join(f"t{j % 7 + 1}*d2" for j in range(5000)), {"t", "d"})
    assert max_index(ast) == 7
    assert max_index(ast, {"d"}) == 2


@pytest.mark.parametrize(
    "unit,close,levels",
    [("(", ")", 1), ("-", "", 1), ("-(", ")", 2)],
    ids=["parentheses", "unary minus", "both"],
)
def test_nesting_limit(unit, close, levels):
    times = MAX_NESTING // levels
    ok = unit * times + "d1" + close * times
    assert parse_operator(ok, 1) == compose_all(parse_ast(ok, {"t", "d"}), 1)
    deep = unit * times + "-d1" + close * times
    with pytest.raises(ParseError) as err:
        parse_operator(deep)
    assert err.value.offset == MAX_NESTING + 1
    assert f"deeper than {MAX_NESTING} levels" in err.value.message


def test_nodes_keep_their_fields():
    ast = parse_ast("-t1^2*3/4 - d2", {"t", "d"})
    assert ast == Sub(Mul(Neg(Pow(Var("t", 1, 2), 2)), Num(Fraction(3, 4))), Var("d", 2, 13))


def test_nodes_compare_and_print_like_dataclasses():
    a, b = Var("t", 1, 1), Num(Fraction(2))
    assert Add(a, b) == Add(Var("t", 1, 1), Num(Fraction(2)))
    # equality is strict about the class, whatever the fields
    assert Add(a, b) != Sub(a, b) and Sub(a, b) != Mul(a, b) and Add(a, b) != Add(b, a)
    assert Num(Fraction(2)) != Fraction(2)
    for node in (a, b, Neg(a), Pow(a, 2), Add(a, b), Sub(a, b), Mul(a, b)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(node)
        with pytest.raises(AttributeError):
            node.extra = 1  # slotted: no fields but the declared ones
    assert repr(Var("t", 1, 2)) == "Var(prefix='t', index=1, offset=2)"
    assert repr(Sub(Neg(Pow(a, 2)), b)) == (
        "Sub(left=Neg(inner=Pow(base=Var(prefix='t', index=1, offset=1), exponent=2)), "
        "right=Num(value=Fraction(2, 1)))"
    )


def test_a_finished_product_is_not_multiplied_by_one(monkeypatch):
    # the pending term of a product chain is 1 once every factor is done; multiplying
    # by it would charge check_product a pass over every word of the product
    units = []
    checks = []
    inner = _Evaluator.check_product

    def counted(self, left, right):
        checks.append(len(left._num))
        if right == Poly.const(right.n, 1):
            units.append(len(left._num))
        return inner(self, left, right)

    monkeypatch.setattr(_Evaluator, "check_product", counted)
    big = "(" + "+".join(f"d{i}" for i in range(51, 101)) + ")^3"
    assert len(parse_operator(big, 100).poly._num) == 22100
    assert checks == []
    for src in ["(t1+d1)^2*t2", "2*(t1+d1)*d2^2", "(t1+d2)*(d1+t2)", "-(t1+d1)^2", "t1*(d1+t2)*3"]:
        parse_operator(src, 2)
    assert units == [] and len(checks) > 0
