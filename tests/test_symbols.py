from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.operators import DiffOp
from weylcalc.poly import Poly
from weylcalc.symbols import (
    SymbolElem,
    derivation_symbol,
    principal_symbol,
    quantize,
    symbol_mul,
)


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


def _words(n, grade):
    if n == 1:
        return [(grade,)]
    return [(i, grade - i) for i in range(grade + 1)]


@st.composite
def symbols(draw, n=2, grade=None, max_terms=3):
    if grade is None:
        grade = draw(st.integers(0, 3))
    words = _words(n, grade)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(st.sampled_from(words))] = draw(polys(n=n))
    return SymbolElem(n, grade, terms)


def t(i, n=2):
    return Poly.variable(n, i)


def test_grade_validation():
    with pytest.raises(ValueError):
        SymbolElem(2, 1, {(1, 1): Poly.const(2, 1)})
    with pytest.raises(ValueError):
        SymbolElem(2, -1)
    s = SymbolElem(2, 1, {(1, 0): Poly.zero(2)})
    assert not s


def test_addition_requires_matching_grade():
    s = SymbolElem(2, 1, {(1, 0): Poly.const(2, 1)})
    u = SymbolElem(2, 2, {(1, 1): Poly.const(2, 1)})
    with pytest.raises(ValueError):
        s + u


def test_principal_symbol_reads_top_words():
    D = DiffOp(2, {(1, 1): t(1), (1, 0): Poly.const(2, 1), (0, 0): t(2)})
    s = principal_symbol(D)
    assert s.grade == 2
    assert s == SymbolElem(2, 2, {(1, 1): t(1)})
    with pytest.raises(ValueError):
        principal_symbol(D, 1)
    high = principal_symbol(D, 3)
    assert high.grade == 3 and not high


def test_principal_symbol_of_zero():
    s = principal_symbol(DiffOp.zero(2))
    assert s.grade == 0 and not s


def test_principal_symbol_refuses_a_negative_grade():
    for D in [DiffOp.zero(2), DiffOp.identity(2), DiffOp.partial(2, 1)]:
        with pytest.raises(ValueError, match="grade must be nonnegative, got -3"):
            principal_symbol(D, -3)


def test_symbol_mul_small():
    s = SymbolElem(2, 1, {(1, 0): Poly.const(2, 1)})
    u = SymbolElem(2, 1, {(0, 1): t(1)})
    su = symbol_mul(s, u)
    assert su == SymbolElem(2, 2, {(1, 1): t(1)})
    assert su.grade == 2


def test_symbols_commute_where_operators_do_not():
    d1 = DiffOp.partial(2, 1)
    D = DiffOp(2, {(1, 0): t(1)})
    assert d1.compose(D) != D.compose(d1)
    s, u = principal_symbol(d1), principal_symbol(D)
    assert symbol_mul(s, u) == symbol_mul(u, s)


def test_quantize():
    s = SymbolElem(2, 2, {(1, 1): t(1) * t(1)})
    D = quantize(s)
    assert D == DiffOp(2, {(1, 1): t(1) * t(1)})
    assert D.order == 2
    assert principal_symbol(D, 2) == s
    assert quantize(SymbolElem.zero(2, 3)) == DiffOp.zero(2)
    # the same stored data, but a symbol is never an operator
    assert s != D and D != s and SymbolElem.zero(2, 0) != DiffOp.zero(2)


def test_rendering():
    s = SymbolElem(2, 2, {(1, 1): t(1), (2, 0): Poly.const(2, 1)})
    assert str(s) == "x1^2 + (t1)*x1*x2"
    assert s.render("xi") == "xi1^2 + (t1)*xi1*xi2"
    assert str(SymbolElem.zero(2, 1)) == "0"
    assert str(SymbolElem(2, 0, {(0, 0): t(2) - 1})) == "t2 - 1"


def test_derivation_symbol_is_a_bijection_witness():
    X = DiffOp.from_vector_field([t(2), t(1) * t(1)])
    s = derivation_symbol(X)
    assert s == SymbolElem(2, 1, {(1, 0): t(2), (0, 1): t(1) * t(1)})
    assert quantize(s) == X
    with pytest.raises(ValueError):
        derivation_symbol(DiffOp(2, {(1, 1): Poly.const(2, 1)}))


@given(symbols(), symbols())
def test_symbol_mul_commutative(s, u):
    assert symbol_mul(s, u) == symbol_mul(u, s)


@given(symbols(grade=1), symbols(grade=1), symbols(grade=1))
def test_symbol_mul_associative_and_distributive(a, b, c):
    assert symbol_mul(symbol_mul(a, b), c) == symbol_mul(a, symbol_mul(b, c))
    assert symbol_mul(a, b + c) == symbol_mul(a, b) + symbol_mul(a, c)


@given(symbols())
def test_quantize_section_property(s):
    assert principal_symbol(quantize(s), s.grade) == s


@given(symbols(grade=1), symbols(grade=1))
def test_grade_one_products_match_operator_products(s, u):
    # multiply two vector fields as operators, read the grade-2 part
    X, Y = quantize(s), quantize(u)
    assert principal_symbol(X.compose(Y), 2) == symbol_mul(s, u)
