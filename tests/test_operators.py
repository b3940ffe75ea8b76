import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.operators import DiffOp, commutator
from weylcalc.poly import MultiIndex, Poly, subindices


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


def test_normal_form_is_canonical():
    D = DiffOp(2, {(1, 0): t(1), (0, 0): Poly.zero(2)})
    assert list(D.terms) == [MultiIndex((1, 0))]
    E = DiffOp(2, [((1, 0), t(1)), ((1, 0), -t(1))])
    assert not E
    assert E == DiffOp.zero(2)
    assert E.order is None


def test_apply():
    E = DiffOp(2, {(1, 1): t(1)})
    assert E.apply(Poly.monomial(2, (1, 2))) == Poly(2, {(1, 1): 2})
    assert E(Poly.const(2, 1)) == Poly.zero(2)
    D = DiffOp.from_poly(t(2))
    assert D(t(1)) == t(1) * t(2)
    with pytest.raises(ValueError):
        E.apply(Poly.variable(3, 1))


def test_compose_weyl_relation():
    d1 = DiffOp.partial(2, 1)
    m1 = DiffOp.from_poly(t(1))
    assert d1.compose(m1) == m1.compose(d1) + DiffOp.identity(2)
    assert str(d1.compose(m1)) == "(t1)*d1 + 1"


def test_compose_higher_leibniz():
    # d1^2 after (t1^2 d1), one variable:
    #   t1^2 d1^3 + 4 t1 d1^2 + 2 d1
    lhs = DiffOp(1, {(2,): Poly.const(1, 1)})
    rhs = DiffOp(1, {(1,): Poly.monomial(1, (2,))})
    got = lhs.compose(rhs)
    want = DiffOp(
        1,
        {
            (3,): Poly.monomial(1, (2,)),
            (2,): Poly.monomial(1, (1,), 4),
            (1,): Poly.const(1, 2),
        },
    )
    assert got == want
    assert str(got) == "(t1^2)*d1^3 + (4*t1)*d1^2 + (2)*d1"


def test_order():
    assert DiffOp.zero(2).order is None
    assert DiffOp.identity(2).order == 0
    assert DiffOp.partial(2, 1).order == 1
    assert DiffOp(2, {(1, 1): t(1), (1, 0): Poly.const(2, 1)}).order == 2


def test_from_vector_field():
    X = DiffOp.from_vector_field([t(2), t(1)])
    assert X.apply(t(1) * t(2)) == t(2) * t(2) + t(1) * t(1)
    with pytest.raises(ValueError):
        DiffOp.from_vector_field([t(1)])


def test_scale_and_linear_structure():
    d1 = DiffOp.partial(2, 1)
    m1 = DiffOp.from_poly(t(1))
    assert 2 * d1 + d1 * Fraction(1, 2) == d1.scale(Fraction(5, 2))
    assert d1 - d1 == DiffOp.zero(2)
    assert (-(m1 + d1)) + m1 + d1 == DiffOp.zero(2)


def test_pow():
    d1 = DiffOp.partial(1, 1)
    m1 = DiffOp.from_poly(Poly.variable(1, 1))
    D = m1.compose(d1)
    # (t1 d1)^2 = t1^2 d1^2 + t1 d1
    assert D**2 == DiffOp(1, {(2,): Poly.monomial(1, (2,)), (1,): Poly.monomial(1, (1,))})
    assert D**0 == DiffOp.identity(1)


@st.composite
def small_ops(draw, n=2):
    """At most three terms c * t^I * d^J, so that zero, constants and one-term bases come up often."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        I, J = (tuple(draw(st.integers(0, 2)) for _ in range(n)) for _ in range(2))
        terms[J] = terms.get(J, Poly.zero(n)) + Poly.monomial(n, I, draw(coeffs()))
    return DiffOp(n, terms)


def repeated(x, k, unit, times):
    """k products of x, one at a time, starting from the unit: the oracle for x**k."""
    out = unit
    for _ in range(k):
        out = times(out, x)
    return out


def assert_powers_are_repeated_products(D):
    p = D.poly
    for k in range(5):
        assert p**k == repeated(p, k, Poly.const(p.n, 1), Poly.__mul__)
        assert D**k == repeated(D, k, DiffOp.identity(D.n), DiffOp.compose)


@given(small_ops())
def test_powers_are_repeated_products(D):
    assert_powers_are_repeated_products(D)


@pytest.mark.parametrize("terms", [
    pytest.param({(0, 1): Poly.monomial(2, (1, 0))}, id="t1*d2"),
    pytest.param({(0, 0): Poly.monomial(2, (2, 0), Fraction(3, 2))}, id="3/2*t1^2"),
    pytest.param({(1, 0): Poly.monomial(2, (1, 0))}, id="t1*d1"),
    pytest.param({(1, 0): Poly.monomial(2, (1, 0)), (0, 0): Poly.const(2, -1)}, id="t1*d1-1"),
    pytest.param({}, id="zero"),
    pytest.param({(0, 0): Poly.const(2, Fraction(-5, 3))}, id="-5/3"),
])
def test_power_examples_are_repeated_products(terms):
    # one-term bases that commute with themselves take the closed form; t1*d1 reorders with itself
    assert_powers_are_repeated_products(DiffOp(2, terms))


def test_rendering_edges():
    assert str(DiffOp.zero(2)) == "0"
    assert str(DiffOp.identity(2)) == "1"
    assert str(DiffOp(2, {(1, 1): Poly.const(2, 1)})) == "d1*d2"
    assert str(DiffOp(2, {(1, 0): -t(1)})) == "(-t1)*d1"
    assert str(DiffOp(2, {(2, 0): Poly.const(2, 1), (0, 0): -t(2)})) == "d1^2 - t2"
    assert (
        str(DiffOp(2, {(1, 0): Poly.const(2, Fraction(1, 2)), (0, 0): t(1) - 1}))
        == "(1/2)*d1 + t1 - 1"
    )
    # ties broken by descending graded-lex on the derivative word
    assert str(DiffOp(2, {(1, 1): Poly.const(2, 1), (0, 2): Poly.const(2, 1), (2, 0): Poly.const(2, 1)})) == "d1^2 + d1*d2 + d2^2"


@given(diffops(), diffops(), polys())
def test_compose_matches_applying_twice(D1, D2, p):
    assert D1.compose(D2).apply(p) == D1.apply(D2.apply(p))


@given(diffops(), diffops(), diffops())
def test_compose_associative(A, B, C):
    assert A.compose(B).compose(C) == A.compose(B.compose(C))


@given(diffops(), diffops(), diffops())
def test_compose_distributes_over_add(A, B, C):
    assert A.compose(B + C) == A.compose(B) + A.compose(C)
    assert (A + B).compose(C) == A.compose(C) + B.compose(C)


@given(diffops(), polys(), polys())
def test_apply_is_linear(D, p, q):
    assert D(p + q) == D(p) + D(q)
    assert D(p * Fraction(3, 7)) == D(p) * Fraction(3, 7)


@given(diffops(), diffops())
def test_commutator_antisymmetric(A, B):
    assert commutator(A, B) == -commutator(B, A)
    assert commutator(A, A) == DiffOp.zero(2)


@given(diffops(), diffops())
def test_order_subadditive_general(A, B):
    oa, ob = A.order, B.order
    oc = A.compose(B).order
    if oa is None or ob is None:
        assert oc is None
    else:
        assert oc == oa + ob  # no cancellation at the top over a domain


def leibniz_compose(A, B):
    """Test-only oracle: the generalized Leibniz rule in Poly arithmetic, term by term.

    (f d^I)(g d^J) = sum over K <= I of binom(I, K) f d^(I-K)(g) d^(K+J),
    with math.comb for the binomials and Poly.derive / * / + for the rest.
    """
    acc = {}
    for I, f in A.terms.items():
        for J, g in B.terms.items():
            for K in subindices(I):
                dg = g.derive(I - K)
                if not dg:
                    continue
                piece = f * dg * math.prod(map(math.comb, I, K))
                key = K + J
                acc[key] = acc[key] + piece if key in acc else piece
    return DiffOp(A.n, acc)


def constant_ops():
    return st.one_of(
        st.just(DiffOp.zero(2)),
        coeffs().map(lambda c: DiffOp.identity(2).scale(c)),
        polys().map(DiffOp.from_poly),
    )


def any_ops():
    return st.one_of(diffops(), diffops(max_word=3), constant_ops())


@given(any_ops(), any_ops())
def test_compose_matches_leibniz_oracle(A, B):
    assert A.compose(B) == leibniz_compose(A, B)


@given(any_ops(), any_ops())
def test_commutator_is_the_difference_of_the_two_compositions(A, B):
    assert commutator(A, B) == A.compose(B) - B.compose(A)


def test_commutator_of_zero_and_of_mismatched_operators():
    A = DiffOp(2, {(2, 1): t(1) * t(2), (0, 0): Poly.const(2, Fraction(1, 3))})
    zero = DiffOp.zero(2)
    assert commutator(A, zero) == commutator(zero, A) == commutator(zero, zero) == zero
    with pytest.raises(ValueError, match="mixing operators in 2 and 3 variables"):
        commutator(A, DiffOp.partial(3, 1))


def test_leibniz_oracle_examples():
    d1 = DiffOp.partial(2, 1)
    m1 = DiffOp.from_poly(Poly(2, {(1, 0): Fraction(1, 2)}))
    third = DiffOp(2, {(2, 0): Poly.const(2, Fraction(1, 3)), (0, 1): t(2)})
    for A, B in [(d1, m1), (third, m1), (m1, third), (third, third), (DiffOp.zero(2), third)]:
        assert A.compose(B) == leibniz_compose(A, B)
    assert str(leibniz_compose(third, m1)) == str(third.compose(m1)) == "(1/6*t1)*d1^2 + (1/3)*d1 + (1/2*t1*t2)*d2"


def test_compose_with_a_right_factor_without_t():
    # no t on the right: only K = 0 is live, so composition is the plain product of the two
    A = DiffOp(2, {(2, 0): Poly(2, {(2, 0): 1}), (1, 1): Poly(2, {(0, 1): Fraction(2, 3)}), (0, 1): Poly.const(2, -1)})
    B = DiffOp(2, {(1, 0): Poly.const(2, 3), (0, 2): Poly.const(2, Fraction(1, 2)), (0, 0): Poly.const(2, -5)})
    assert A.compose(B) == leibniz_compose(A, B)
    assert str(A.compose(B)) == (
        "(1/2*t1^2)*d1^2*d2^2 + (1/3*t2)*d1*d2^3 + (3*t1^2)*d1^3 + (2*t2)*d1^2*d2 + (-1/2)*d2^3"
        " + (-5*t1^2)*d1^2 + (-10/3*t2 - 3)*d1*d2 + (5)*d2"
    )
    assert B.compose(A) == leibniz_compose(B, A)
    assert str(B.compose(A)) == (
        "(1/2*t1^2)*d1^2*d2^2 + (1/3*t2)*d1*d2^3 + (3*t1^2)*d1^3 + (2*t2)*d1^2*d2 + (2/3)*d1*d2^2"
        " + (-1/2)*d2^3 + (-5*t1^2 + 6*t1)*d1^2 + (-10/3*t2 - 3)*d1*d2 + (5)*d2"
    )


def test_compose_with_a_single_t_on_the_right():
    # right factor t_j: K runs over 0 and the unit vector of j, as in the commutators of gorder
    C = DiffOp(2, {(3, 1): Poly.const(2, 1), (2, 0): Poly(2, {(0, 1): Fraction(1, 2)}), (0, 4): t(1)})
    got = [C.compose(DiffOp.from_poly(t(j))) for j in (1, 2)]
    assert got == [leibniz_compose(C, DiffOp.from_poly(t(j))) for j in (1, 2)]
    assert str(got[0]) == "(t1)*d1^3*d2 + (t1^2)*d2^4 + (3)*d1^2*d2 + (1/2*t1*t2)*d1^2 + (t2)*d1"
    assert str(got[1]) == "(t2)*d1^3*d2 + (t1*t2)*d2^4 + d1^3 + (4*t1)*d2^3 + (1/2*t2^2)*d1^2"
    assert commutator(C, DiffOp.from_poly(t(1))) == DiffOp(
        2, {(2, 1): Poly.const(2, 3), (1, 0): t(2)}
    )


def reference_apply(D, p):
    """Test-only oracle: D(p) in Poly arithmetic, word by word, from the view terms.

    The sum of f_J * d^J(p), with Poly.derive, * and + doing the work.
    """
    out = Poly.zero(D.n)
    for J, f in D.terms.items():
        dp = p.derive(J)
        if dp:
            out = out + f * dp
    return out


@st.composite
def operator_and_poly(draw):
    """(D, p) in 1..3 variables; D may be zero, p may be zero, denominators mixed."""
    n = draw(st.integers(1, 3))
    D = draw(st.one_of(st.just(DiffOp.zero(n)), diffops(n=n, max_word=3)))
    return D, draw(polys(n=n, max_exp=4, max_terms=4))


@given(operator_and_poly())
def test_apply_matches_the_reference(case):
    D, p = case
    assert D.apply(p) == reference_apply(D, p)


def test_apply_reference_examples():
    D = DiffOp(2, {(1, 1): Poly(2, {(1, 0): Fraction(1, 6)}), (0, 0): Poly.const(2, Fraction(2, 3)), (2, 0): t(2)})
    p = Poly(2, {(3, 1): Fraction(3, 4), (0, 2): Fraction(-1, 5), (0, 0): 7})
    assert D.apply(p) == reference_apply(D, p)
    assert str(D.apply(p)) == "1/2*t1^3*t2 + 3/8*t1^3 + 9/2*t1*t2^2 - 2/15*t2^2 + 14/3"
    assert D.apply(Poly.zero(2)) == Poly.zero(2)
    assert DiffOp.zero(2).apply(p) == Poly.zero(2)
    # a word of order above the degree of p kills it
    assert DiffOp(1, {(4,): Poly.const(1, 1)}).apply(Poly.monomial(1, (3,))) == Poly.zero(1)


def test_apply_does_not_use_the_composition_binomial():
    # the oracle laws apply operators to check composition, so apply stays off _binom
    assert "_binom" not in DiffOp.apply.__code__.co_names
