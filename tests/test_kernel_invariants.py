"""Arithmetic results skip the public constructors, so check here what those would enforce.

Every key is a MultiIndex of the right length with no negative entry,
no coefficient is zero, and rebuilding a result through its public
constructor gives an equal object.  A Poly stores integer numerators
over one positive denominator in lowest terms (den 1 for zero), and
shows them as Fractions.  The public entry points take int or Fraction
coefficients only, and Poly.evaluate int or Fraction coordinates.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.operators import DiffOp, commutator
from weylcalc.poly import MultiIndex, Poly, reduce_by
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


def assert_canonical_key(key, n):
    assert type(key) is MultiIndex
    assert len(key) == n
    assert all(type(e) is int and e >= 0 for e in key)


def assert_canonical_poly(p, n):
    assert type(p) is Poly and p.n == n
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c != 0 for c in p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1
    assert p._den == 1 or p._num
    assert p.terms.keys() == p._num.keys()
    for I, c in p.terms.items():
        assert_canonical_key(I, n)
        assert type(c) is Fraction and c != 0
    assert Poly(n, p.terms) == p


def assert_canonical_diffop(D, n):
    assert type(D) is DiffOp and D.n == n
    for J, f in D.terms.items():
        assert_canonical_key(J, n)
        assert_canonical_poly(f, n)
        assert f
    assert DiffOp(n, D.terms) == D


@given(polys(), polys(), coeffs(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_poly_results_are_canonical(p, q, c, J):
    for r in (p + q, p - q, -p, p * q, p * c, p - p, p.derive(J)):
        assert_canonical_poly(r, 2)
    if q:
        assert_canonical_poly(reduce_by(p * q + p, q), 2)


@given(diffops(), diffops(), coeffs())
def test_diffop_results_are_canonical(A, B, c):
    for D in (A + B, A - B, -A, A - A, A.compose(B), A.scale(c), commutator(A, B)):
        assert_canonical_diffop(D, 2)


def test_subtraction_still_rejects_negative_entries():
    with pytest.raises(ValueError):
        MultiIndex((1, 0)) - MultiIndex((0, 1))
    with pytest.raises(ValueError):
        MultiIndex((1, 0)) + (0, -1)


def test_mixed_denominators_cancel_to_the_canonical_zero():
    p = Poly(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(3, 4)})
    q = Poly(2, {(1, 0): Fraction(-1, 6), (0, 1): Fraction(1, 4)})
    assert_canonical_poly(p + q, 2)
    assert (p + q)._den == 1 and (p + q).terms == {(0, 1): 1}
    for zero in (p - p, p * 0, p + (-p), (p + q) - (p + q)):
        assert_canonical_poly(zero, 2)
        assert zero._den == 1 and not zero._num and zero == Poly.zero(2)


INEXACT = [0.5, 1e-3, "1/2", None]
ENTRY_POINTS = {
    "Poly": lambda c: Poly(1, {(1,): c}),
    "Poly.const": lambda c: Poly.const(1, c),
    "Poly.monomial": lambda c: Poly.monomial(1, (1,), c),
    "DiffOp": lambda c: DiffOp(1, {(1,): c}),
    "DiffOp.scale": lambda c: DiffOp.partial(1, 1).scale(c),
    "SymbolElem": lambda c: SymbolElem(1, 1, {(1,): c}),
    "SymbolElem * c": lambda c: SymbolElem(1, 1, {(1,): 1}) * c,
    "c * SymbolElem": lambda c: c * SymbolElem(1, 1, {(1,): 1}),
    "Poly.evaluate": lambda c: Poly.variable(1, 1).evaluate((c,)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_take_int_or_fraction_only(entry):
    build = ENTRY_POINTS[entry]
    for c in INEXACT:
        with pytest.raises(TypeError):
            build(c)
    assert build(2) == build(Fraction(4, 2))
    assert build(Fraction(1, 2)) != build(1)

