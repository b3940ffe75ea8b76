from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import weylcalc.grothendieck
from weylcalc.grothendieck import (
    grothendieck_order,
    is_derivation,
    is_order_at_most,
    split_order_one,
)
from weylcalc.operators import DiffOp, commutator
from weylcalc.parser import parse_operator
from weylcalc.poly import Poly


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


def reference_is_order_at_most(D, i):
    """The definition walked literally: every ordered sequence of generators, n^i paths."""
    if not D:
        return True
    gens = [DiffOp.from_poly(Poly.variable(D.n, j)) for j in range(1, D.n + 1)]
    if i == 0:
        return all(not commutator(D, m) for m in gens)
    return all(reference_is_order_at_most(commutator(D, m), i - 1) for m in gens)


def test_multiplications_have_order_zero():
    m = DiffOp.from_poly(Poly(2, {(2, 1): 3, (0, 0): -1}))
    assert is_order_at_most(m, 0)
    assert grothendieck_order(m) == 0


def test_zero_operator_has_no_order():
    z = DiffOp.zero(2)
    assert grothendieck_order(z) is None
    assert is_order_at_most(z, 0)


def test_known_orders():
    d1 = DiffOp.partial(2, 1)
    assert grothendieck_order(d1) == 1
    D = DiffOp(2, {(1, 0): Poly.variable(2, 1), (0, 0): Poly.monomial(2, (2, 0))})
    assert grothendieck_order(D) == 1
    E = DiffOp(2, {(1, 1): Poly.const(2, 1)})
    assert not is_order_at_most(E, 1)
    assert is_order_at_most(E, 2)
    assert is_order_at_most(E, 3)
    assert grothendieck_order(E) == 2


def test_order_bound_must_be_nonnegative():
    with pytest.raises(ValueError):
        is_order_at_most(DiffOp.partial(2, 1), -1)


def test_is_derivation():
    assert is_derivation(DiffOp.partial(2, 1))
    assert is_derivation(DiffOp.from_vector_field([Poly.variable(2, 1), Poly.zero(2)]))
    assert is_derivation(DiffOp.zero(2))
    assert not is_derivation(DiffOp.identity(2))
    assert not is_derivation(DiffOp(2, {(1, 1): Poly.const(2, 1)}))


def test_split_order_one():
    t1 = Poly.variable(2, 1)
    D = DiffOp(2, {(1, 0): t1, (0, 0): t1 * t1})
    X, a = split_order_one(D)
    assert X == DiffOp(2, {(1, 0): t1})
    assert a == t1 * t1
    assert is_derivation(X)
    assert X + DiffOp.from_poly(a) == D


def test_split_multiplication_only():
    m = DiffOp.from_poly(Poly.variable(2, 2))
    X, a = split_order_one(m)
    assert X == DiffOp.zero(2)
    assert a == Poly.variable(2, 2)


def test_split_rejects_order_two():
    with pytest.raises(ValueError):
        split_order_one(DiffOp(2, {(1, 1): Poly.const(2, 1)}))


def test_split_zero_operator():
    X, a = split_order_one(DiffOp.zero(2))
    assert X == DiffOp.zero(2)
    assert a == Poly.zero(2)


@given(diffops())
def test_inductive_order_equals_syntactic(D):
    assert grothendieck_order(D) == D.order


@given(polys(max_terms=2), polys(max_terms=2), polys(max_terms=2))
def test_vector_fields_satisfy_leibniz(a1, a2, p):
    X = DiffOp.from_vector_field([a1, a2])
    q = Poly.variable(2, 1) + Poly.monomial(2, (0, 2))
    assert X(p * q) == X(p) * q + p * X(q)


@given(diffops(), polys())
def test_commuting_with_generators_reaches_all_multiplications(D, g):
    # the order drop on variable multiplications propagates to any m_g
    bound = D.order
    if bound is None:
        bound = 0
    c = commutator(D, DiffOp.from_poly(g))
    if c.order is not None:
        assert c.order <= bound - 1


@given(st.one_of(diffops(), diffops(n=3, max_word=1, max_terms=2)))
def test_multiset_descent_agrees_with_the_reference(D):
    top = (D.order or 0) + 1
    for i in range(top + 1):
        assert is_order_at_most(D, i) == reference_is_order_at_most(D, i), i


def test_descent_visits_each_multiset_once(monkeypatch):
    calls = []
    inner = weylcalc.grothendieck.commutator

    def counting(a, b):
        calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(weylcalc.grothendieck, "commutator", counting)
    D = parse_operator("t1*d2+t2*d3+t3*d1") ** 4
    assert grothendieck_order(D) == 4
    # one commutator per multiset of size L = 1..5 over 3 variables: C(L+2, L)
    assert len(calls) == 55


def test_disagreement_with_the_syntactic_order_raises(monkeypatch):
    monkeypatch.setattr(weylcalc.grothendieck, "commutator", lambda a, b: DiffOp.zero(a.n))
    with pytest.raises(AssertionError, match="disagrees with syntactic order 1"):
        grothendieck_order(DiffOp.partial(2, 1))
    monkeypatch.setattr(weylcalc.grothendieck, "commutator", lambda a, b: a)
    with pytest.raises(AssertionError, match="no inductive order up to the syntactic order 1"):
        grothendieck_order(DiffOp.partial(2, 1))
