"""Arithmetic results skip the public constructors, so check here what those would enforce.

Every key is a MultiIndex of the right length with no negative entry,
no coefficient is zero, and rebuilding a result through its public
constructor gives an equal object.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.operators import DiffOp, commutator
from weylcalc.poly import MultiIndex, Poly, reduce_by


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
