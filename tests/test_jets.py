from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, strategies as st

from weylcalc.jets import JetMap, d_basis, from_jet_map, restriction
from weylcalc.operators import DiffOp
from weylcalc.poly import MultiIndex, Poly, monomials_up_to, reduce_by


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


@st.composite
def jet_maps(draw, n=2, k=2):
    return JetMap(
        n, k, {I: draw(polys(n=n)) for I in monomials_up_to(n, k)}
    )


def t(i, n=2):
    return Poly.variable(n, i)


def test_jetmap_totality_and_validation():
    A = JetMap(2, 1, {(1, 0): t(2)})
    assert A.values[MultiIndex((0, 0))] == Poly.zero(2)
    assert A.values[MultiIndex((1, 0))] == t(2)
    assert A.values[MultiIndex((0, 1))] == Poly.zero(2)
    with pytest.raises(ValueError):
        JetMap(2, 1, {(1, 1): t(1)})
    with pytest.raises(ValueError):
        JetMap(2, 1, {(1, 0): Poly.variable(3, 1)})


def test_jetmap_render():
    A = JetMap(2, 1, {(1, 0): t(2)})
    assert A.render() == "1,0 -> t2"
    B = JetMap(2, 1, {(0, 0): Poly.const(2, 1), (0, 1): t(1) - 1})
    assert B.render() == "0,0 -> 1\n0,1 -> t1 - 1"
    assert JetMap.zero(2, 1).render() == ""


def test_d_basis_action():
    D = d_basis(t(2), (1, 0))
    assert D == DiffOp(2, {(1, 0): t(2)})
    assert D(Poly.const(2, 1)) == Poly.zero(2)
    assert D(t(1)) == t(2)
    assert D(t(2)) == Poly.zero(2)
    # factorial normalization: (1/2) d1^2 sends t1^2 to 1
    E = d_basis(Poly.const(1, 1), (2,))
    assert E == DiffOp(1, {(2,): Poly.const(1, Fraction(1, 2))})
    assert E(Poly.monomial(1, (2,))) == Poly.const(1, 1)
    assert E(Poly.monomial(1, (1,))) == Poly.zero(1)


def test_restriction_tabulates():
    D = DiffOp(2, {(1, 0): t(1)})
    A = restriction(D, 2)
    assert A.values[MultiIndex((0, 0))] == Poly.zero(2)
    assert A.values[MultiIndex((1, 0))] == t(1)
    assert A.values[MultiIndex((2, 0))] == 2 * t(1) * t(1)
    assert A.values[MultiIndex((1, 1))] == t(1) * t(2)
    assert A.values[MultiIndex((0, 2))] == Poly.zero(2)


def applied_restriction(D, k):
    """Test-only oracle: the table of D by applying it to each basis monomial on its own."""
    return JetMap(D.n, k, {I: D.apply(Poly.monomial(D.n, I)) for I in monomials_up_to(D.n, k)})


@st.composite
def operator_and_degree(draw):
    """(D, k) in 1..3 variables with k in 0..4; D may be zero and may have words above k."""
    n = draw(st.integers(1, 3))
    D = draw(st.one_of(st.just(DiffOp.zero(n)), diffops(n=n, max_word=2, max_terms=4)))
    return D, draw(st.integers(0, 4))


def top_digit_case(n, k=2, m=3):
    """(D, k) where D(t_i^k) holds t_i^(m + k) for every i: the digit top - 1 of restriction's packing."""
    powers = sum((Poly.monomial(n, [m if j == i else 0 for j in range(n)]) for i in range(n)), Poly.zero(n))
    return DiffOp(n, {(0,) * n: powers + 1, (1,) + (0,) * (n - 1): Poly.variable(n, n)}), k


# restriction adds monomials packed into one int; these reach the largest digit, a
# lone huge exponent, a sum that cancels to zero, and tables with no word to add
@given(operator_and_degree())
@example(top_digit_case(1))
@example(top_digit_case(2))
@example(top_digit_case(3))
@example((DiffOp(2, {(1, 0): t(1) ** 1000 + t(2), (0, 1): Poly.const(2, 3), (0, 0): t(1) * t(2)}), 3))
@example((DiffOp(2, {(1, 0): t(1), (0, 0): Poly.const(2, -1)}), 2))
@example((DiffOp(2, {(0, 0): t(2) ** 3 + 1, (1, 0): t(1)}), 0))
@example((DiffOp.zero(3), 2))
@example((DiffOp(2, {(1, 1): t(1) ** 4, (0, 2): t(2)}), 1))
def test_restriction_matches_the_applied_oracle(case):
    D, k = case
    assert restriction(D, k) == applied_restriction(D, k)


@given(operator_and_degree())
def test_restriction_table_is_what_the_validating_constructor_builds(case):
    D, k = case
    A = restriction(D, k)
    B = JetMap(D.n, k, A.values)
    assert A == B
    assert list(A.values) == list(B.values) == monomials_up_to(D.n, k)
    assert A.render() == B.render() and repr(A) == repr(B)


def test_restriction_oracle_examples():
    half = Fraction(1, 2)
    D = DiffOp(2, {(2, 1): t(1) * half, (1, 0): t(2) - Fraction(2, 3), (0, 0): Poly.const(2, 5), (4, 0): t(2)})
    for k in range(5):
        assert restriction(D, k) == applied_restriction(D, k)
    # words above k reach no basis monomial, and k = 0 keeps only the multiplication
    assert restriction(DiffOp(1, {(2,): Poly.const(1, 1)}), 1) == JetMap.zero(1, 1)
    assert restriction(D, 0) == JetMap(2, 0, {(0, 0): Poly.const(2, 5)})
    assert restriction(DiffOp.zero(3), 2) == JetMap.zero(3, 2)
    # t1^2*t2 -> 1/2*t1 * 2! * 1! = t1 from the (2, 1) word, plus the lower words
    assert restriction(D, 3).values[MultiIndex((2, 1))] == t(1) + 2 * t(1) * t(2) * (t(2) - Fraction(2, 3)) + 5 * t(1) * t(1) * t(2)


def test_staged_interpolation_uses_residuals():
    # table: 1 -> t1, t1 -> 0 forces a correcting first-order term: f_1 = A(t1) - t1 * A(1)
    A = JetMap(1, 1, {(0,): Poly.variable(1, 1)})
    D = from_jet_map(A)
    assert D == DiffOp(
        1, {(0,): Poly.variable(1, 1), (1,): -Poly.monomial(1, (2,))}
    )
    assert D(Poly.const(1, 1)) == Poly.variable(1, 1)
    assert D(Poly.variable(1, 1)) == Poly.zero(1)


def test_zero_table_gives_zero_operator():
    assert from_jet_map(JetMap.zero(2, 2)) == DiffOp.zero(2)
    assert from_jet_map(JetMap.zero(1, 0)) == DiffOp.zero(1)


def test_reconstruction_round_trip_small():
    D = DiffOp(2, {(1, 1): t(1), (0, 1): t(2) - 1, (0, 0): Poly.const(2, 3)})
    assert from_jet_map(restriction(D, 2)) == D


def test_interpolant_order_stays_within_degree():
    A = JetMap(2, 1, {(0, 0): t(1) * t(2), (0, 1): t(1)})
    D = from_jet_map(A)
    assert D.order is not None and D.order <= 1
    assert restriction(D, 1) == A


@given(diffops())
def test_reconstruction_round_trip(D):
    k = D.order
    if k is None:
        k = 0
    assert from_jet_map(restriction(D, k)) == D


@given(jet_maps())
def test_interpolation_round_trip(A):
    D = from_jet_map(A)
    if D.order is not None:
        assert D.order <= A.k
    assert restriction(D, A.k) == A


@given(jet_maps(k=1))
def test_triangular_stages_settle_lower_degrees(A):
    # every basis monomial, low degrees included, goes to its table value
    D = from_jet_map(A)
    for I in monomials_up_to(A.n, A.k):
        assert D.apply(Poly.monomial(A.n, I)) == A.values[I]


def test_order_k_operator_maps_power_products_into_the_ideal():
    # D of order 2 applied to a product of 3 members of (t1)
    D = DiffOp(1, {(2,): Poly.const(1, 1)})
    g = Poly.variable(1, 1)
    f = g * g * g
    assert reduce_by(D(f), g) == Poly.zero(1)
    # and of 3 polynomials vanishing at a point
    x = (Fraction(2, 3),)
    p = Poly.monomial(1, (1,), 2) - Poly.const(1, Fraction(4, 3))
    f2 = p * p * p
    assert D(f2).evaluate(x) == 0


def staged_from_jet_map(A):
    """Test-only oracle: interpolation in stages of ascending degree.

    The stage for degree d adds d_basis(residual, I) for every t^I of
    degree d, the residual being A(t^I) less what the stages below
    already send t^I to.  It applies operators and never reads a
    binomial coefficient, so it shares nothing with the closed form.
    """
    D = DiffOp.zero(A.n)
    for _, basis in groupby(monomials_up_to(A.n, A.k), key=sum):
        stage = DiffOp.zero(A.n)
        for I in basis:
            residual = A.values[I] - D.apply(Poly.monomial(A.n, I))
            if residual:
                stage = stage + d_basis(residual, I)
        D = D + stage
    return D


@st.composite
def any_jet_maps(draw):
    """Tables in 1..3 variables of degree 0..3: zero, sparse or dense, mixed denominators."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3))
    basis = monomials_up_to(n, k)
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "zero":
        return JetMap.zero(n, k)
    chosen = basis if kind == "dense" else draw(st.lists(st.sampled_from(basis), max_size=3))
    return JetMap(n, k, {I: draw(polys(n=n)) for I in chosen})


@given(any_jet_maps())
def test_closed_form_matches_the_staged_oracle(A):
    assert from_jet_map(A) == staged_from_jet_map(A)


def test_closed_form_examples():
    # degree 0: multiplication by the value of 1
    A = JetMap(3, 0, {(0, 0, 0): Poly(3, {(1, 0, 2): Fraction(-2, 3)})})
    assert from_jet_map(A) == DiffOp.from_poly(A.values[MultiIndex((0, 0, 0))])
    # mixed denominators: t1^2 -> 1/3 alone needs (1/6) d1^2 and nothing else
    B = JetMap(1, 2, {(2,): Poly.const(1, Fraction(1, 3))})
    assert from_jet_map(B) == DiffOp(1, {(2,): Poly.const(1, Fraction(1, 6))})
    C = JetMap(2, 2, {(0, 0): Poly.const(2, Fraction(1, 2)), (1, 1): t(1) * Fraction(2, 7), (0, 2): t(2)})
    for table in (A, B, C):
        assert from_jet_map(table) == staged_from_jet_map(table)
        assert restriction(from_jet_map(table), table.k) == table
    # f_(1,1) = A(t1*t2) - t2*A(t1) - t1*A(t2) + t1*t2*A(1), and so on
    assert str(from_jet_map(C)) == (
        "(1/4*t1^2)*d1^2 + (1/2*t1*t2 + 2/7*t1)*d1*d2 + (1/4*t2^2 + 1/2*t2)*d2^2"
        " + (-1/2*t1)*d1 + (-1/2*t2)*d2 + 1/2"
    )


def test_closed_form_does_not_use_the_composition_binomial():
    from weylcalc import jets

    assert "_binom" not in jets.from_jet_map.__code__.co_names
