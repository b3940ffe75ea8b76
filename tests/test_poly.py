from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.poly import MultiIndex, Poly, grlex_key, monomials_up_to, reduce_by


def coeffs():
    return st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
    )


@st.composite
def polys(draw, n=2, max_exp=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        I = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        terms[I] = draw(coeffs())
    return Poly(n, terms)


def test_multiindex_basics():
    I = MultiIndex((2, 0, 1))
    assert I.degree == 3
    assert I.factorial == 2
    assert I + MultiIndex((0, 1, 0)) == MultiIndex((2, 1, 1))
    assert MultiIndex((1, 0, 1)).divides(I)
    assert not MultiIndex((0, 1, 0)).divides(I)
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        I - MultiIndex((3, 0, 0))


def test_canonical_form_drops_zeros():
    p = Poly(2, {(1, 0): Fraction(1, 3), (0, 1): 0})
    assert list(p.terms) == [MultiIndex((1, 0))]
    q = Poly(2, [((1, 0), 1), ((1, 0), -1)])
    assert not q
    assert q == Poly.zero(2)


def test_rendering():
    p = Poly(2, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 4})
    assert str(p) == "3*t1^2*t2 - 1/2*t2 + 4"
    assert str(Poly.zero(2)) == "0"
    assert str(-Poly.variable(2, 1)) == "-t1"
    assert str(Poly.const(3, Fraction(7, 2))) == "7/2"
    assert str(Poly.monomial(2, (1, 2))) == "t1*t2^2"


def test_degree_of_zero_is_none():
    assert Poly.zero(2).degree is None
    assert Poly.const(2, 5).degree == 0
    assert Poly(2, {(2, 1): 1, (0, 0): 1}).degree == 3


def test_arithmetic_small():
    t1 = Poly.variable(2, 1)
    t2 = Poly.variable(2, 2)
    assert (t1 + t2) * (t1 - t2) == t1 * t1 - t2 * t2
    assert (Fraction(1, 3) * t1 + Fraction(1, 6) * t1) == Fraction(1, 2) * t1
    assert (t1 + 1) ** 2 == t1 * t1 + 2 * t1 + 1
    with pytest.raises(ValueError):
        t1 + Poly.variable(3, 1)


def test_derive():
    p = Poly.monomial(2, (3, 1))
    assert p.derive((2, 1)) == Poly(2, {(1, 0): 6})
    assert p.derive((0, 2)) == Poly.zero(2)
    assert p.partial(1) == Poly(2, {(2, 1): 3})
    with pytest.raises(IndexError):
        p.partial(3)


def test_evaluate():
    p = Poly(2, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 4})
    assert p.evaluate((Fraction(1, 2), 3)) == Fraction(19, 4)
    assert Poly.zero(2).evaluate((1, 1)) == 0


def points(n):
    return st.tuples(*[st.one_of(st.integers(-5, 5), coeffs()) for _ in range(n)])


@st.composite
def evaluation_cases(draw):
    """(p, x) in 1..3 variables: p may be zero, x mixes zero, negative, int and Fraction coordinates."""
    n = draw(st.integers(1, 3))
    return draw(polys(n=n)), draw(points(n))


def fraction_evaluate(p, x):
    """Test-only oracle: the sum over p.terms of c * prod of x_i^I_i, in Fractions."""
    total = Fraction(0)
    for I, c in p.terms.items():
        v = c
        for xi, e in zip(x, I):
            v *= Fraction(xi) ** e
        total += v
    return total


@given(evaluation_cases())
def test_evaluate_matches_the_fraction_oracle(case):
    p, x = case
    got = p.evaluate(x)
    assert type(got) is Fraction and got == fraction_evaluate(p, x)


def test_evaluate_oracle_examples():
    p = Poly(2, {(3, 0): 2, (1, 2): Fraction(-1, 3), (0, 0): 5})
    for x in [(0, 0), (Fraction(-2, 3), 4), (Fraction(1, 2), Fraction(-3, 5)), (-1, Fraction(0))]:
        assert p.evaluate(x) == fraction_evaluate(p, x)
    assert Poly.zero(3).evaluate((Fraction(1, 2), -1, 0)) == 0
    with pytest.raises(TypeError):
        p.evaluate((0.5, 1))
    with pytest.raises(ValueError):
        p.evaluate((1,))


def test_monomials_up_to_order_and_count():
    assert [tuple(I) for I in monomials_up_to(2, 1)] == [(0, 0), (1, 0), (0, 1)]
    assert [tuple(I) for I in monomials_up_to(2, 2)] == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    # C(n+k, k)
    assert len(monomials_up_to(2, 2)) == 6
    assert len(monomials_up_to(3, 2)) == 10
    assert len(monomials_up_to(3, 3)) == 20
    assert len(monomials_up_to(1, 0)) == 1
    # built unchecked, the keys are still MultiIndex of nonnegative ints
    for n, k in [(1, 0), (1, 5), (2, 3), (3, 3)]:
        for I in monomials_up_to(n, k):
            assert type(I) is MultiIndex and len(I) == n
            assert all(type(e) is int and e >= 0 for e in I)


def test_reduce_by_examples():
    t1 = Poly.variable(2, 1)
    t2 = Poly.variable(2, 2)
    g = t1 * t1 - t2
    # t1^2*t2 + t1 = t2*(t1^2 - t2) + t2^2 + t1
    assert reduce_by(t1 * t1 * t2 + t1, g) == t2 * t2 + t1
    assert reduce_by((t1 + t2) * g, g) == Poly.zero(2)
    assert reduce_by(t1, g) == t1
    with pytest.raises(ZeroDivisionError):
        reduce_by(t1, Poly.zero(2))


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
def test_degree_is_additive_on_products(p, q):
    pq = p * q
    if p and q:
        assert pq.degree == p.degree + q.degree
    else:
        assert pq.degree is None


@given(polys(), polys())
def test_partial_is_a_derivation(p, q):
    for i in (1, 2):
        lhs = (p * q).partial(i)
        assert lhs == p.partial(i) * q + p * q.partial(i)


@given(polys())
def test_partials_commute(p):
    assert p.partial(1).partial(2) == p.partial(2).partial(1)
    assert p.derive((1, 1)) == p.partial(1).partial(2)


@given(polys(), polys())
def test_evaluate_is_a_ring_map(p, q):
    x = (Fraction(2, 3), Fraction(-1, 2))
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(polys(), polys(max_terms=3))
def test_division_membership(p, g):
    if not g:
        return
    assert reduce_by(p * g, g) == Poly.zero(2)
    # the remainder differs from the input by a multiple of g
    r = reduce_by(p, g)
    assert reduce_by(p - r, g) == Poly.zero(2)


# A dict-of-Fraction reference for the integer kernel: exponent tuples to
# nonzero Fractions, one Fraction operation per term, nothing shared with
# weylcalc.poly beyond reading the operands' terms.


def ref_add(a, b, sign=1):
    out = dict(a)
    for I, c in b.items():
        out[I] = out.get(I, 0) + sign * c
    return {I: c for I, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for I, c in a.items():
        for J, d in b.items():
            K = tuple(i + j for i, j in zip(I, J))
            out[K] = out.get(K, 0) + c * d
    return {K: c for K, c in out.items() if c}


def ref_derive(a, J):
    out = {}
    for I, c in a.items():
        if all(i >= j for i, j in zip(I, J)):
            factor = 1
            for i, j in zip(I, J):
                for k in range(j):
                    factor *= i - k
            out[tuple(i - j for i, j in zip(I, J))] = c * factor
    return out


def ref_scale(a, c):
    return {I: v * c for I, v in a.items()} if c else {}


@st.composite
def poly_pairs(draw):
    """(p, q) where q may cancel some or all of p, so sums can vanish."""
    p, q = draw(polys()), draw(polys())
    kept = {I: -c for I, c in p.terms.items() if draw(st.booleans())}
    return p, Poly(2, ref_add(kept, q.terms)) if draw(st.booleans()) else Poly(2, kept)


@given(poly_pairs(), coeffs(), st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_kernel_matches_fraction_reference(pq, c, J):
    p, q = pq
    a, b = p.terms, q.terms
    assert (p + q).terms == ref_add(a, b)
    assert (p - q).terms == ref_add(a, b, -1)
    assert (-p).terms == ref_scale(a, -1)
    assert (p * q).terms == ref_mul(a, b)
    assert p.derive(J).terms == ref_derive(a, J)
    assert (p * c).terms == ref_scale(a, c)
    assert (c * p).terms == ref_scale(a, c)
    assert (p * int(c)).terms == ref_scale(a, int(c))


@given(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs()), max_size=6))
def test_constructor_sums_duplicates_like_the_reference(items):
    want = {}
    for I, c in items:
        want = ref_add(want, {I: c})
    assert Poly(2, items).terms == want


def test_fraction_reference_examples():
    half = Poly(1, {(1,): Fraction(1, 2)})
    third = Poly(1, {(1,): Fraction(1, 3), (0,): Fraction(2, 3)})
    assert (half + third).terms == {(1,): Fraction(5, 6), (0,): Fraction(2, 3)}
    assert not (half - half)
    assert (half * 2).terms == {(1,): 1}
    assert (third - Poly(1, {(0,): Fraction(2, 3)})).terms == {(1,): Fraction(1, 3)}


def fraction_reduce_by(p, g):
    """Test-only oracle: division by g on Fraction coefficients, the leading
    term found by max() over the working terms at every step."""
    lead_g, cg = g.leading()
    work = p.terms
    rem = {}
    while work:
        I = max(work, key=grlex_key)
        c = work.pop(I)
        if lead_g.divides(I):
            shift = I - lead_g
            factor = c / cg
            for J, d in g.terms.items():
                if J == lead_g:
                    continue
                K = J + shift
                v = work.get(K, 0) - factor * d
                if v:
                    work[K] = v
                else:
                    work.pop(K, None)
        else:
            rem[I] = c
    return Poly(p.n, rem)


@st.composite
def division_cases(draw):
    """(p, g) in 1..3 variables, g nonzero; p is often a multiple of g plus a little."""
    n = draw(st.integers(1, 3))
    g = draw(polys(n=n, max_exp=2, max_terms=3))
    if not g:
        g = Poly.const(n, draw(coeffs().filter(bool)))
    p = draw(polys(n=n, max_exp=4, max_terms=5))
    if draw(st.booleans()):
        p = p * g + draw(polys(n=n, max_exp=2, max_terms=2))
    return p, g


@given(division_cases())
def test_reduce_by_matches_the_fraction_oracle(case):
    p, g = case
    assert reduce_by(p, g) == fraction_reduce_by(p, g)


def test_reduce_by_scales_only_when_the_lead_does_not_divide():
    t1, t2 = Poly.variable(2, 1), Poly.variable(2, 2)
    # numerators -30, 14, 35 over 35: steps rescale by 30 / gcd, the remainder stays exact
    g = Poly(2, {(1, 1): Fraction(-6, 7), (0, 1): Fraction(2, 5), (0, 0): 1})
    for p in [t1 * t1 * t2 * t2 + t1, (t1 + 3) * g + t2 * Fraction(1, 9), Poly.const(2, Fraction(7, 3))]:
        assert reduce_by(p, g) == fraction_reduce_by(p, g)
    assert reduce_by(g * g * (t1 - t2), g) == Poly.zero(2)
    # scaling g does not move the remainder
    assert reduce_by(t1 * t1 * t2 * t2 + t1, g * Fraction(-35, 2)) == reduce_by(t1 * t1 * t2 * t2 + t1, g)
