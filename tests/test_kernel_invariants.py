"""Arithmetic results skip the public constructors, so check here what those would enforce.

Every stored key (Poly._num) is a plain tuple of n nonnegative ints,
whoever built it: the arithmetic, the parser, the jets and the public
constructors alike.  Every key a view returns (Poly.terms, DiffOp.terms,
Poly.leading) is a MultiIndex of the right length with no negative
entry.  No coefficient is zero, and rebuilding a result through its
public constructor gives an equal object.  A Poly stores integer numerators
over one positive denominator in lowest terms (den 1 for zero), and
shows them as Fractions.  The public entry points take int or Fraction
coefficients only, and Poly.evaluate int or Fraction coordinates.

Printing reads the integer storage directly.  Its text must be byte
for byte what the Fraction view gives, which fraction_render_terms and
fraction_render below work out as the printers used to.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylcalc.jets import JetMap, from_jet_map, restriction
from weylcalc.operators import DiffOp, commutator
from weylcalc.parser import parse_jet_map, parse_operator, parse_poly, parse_symbol
from weylcalc.poly import MultiIndex, Poly, format_power_product, monomials_up_to, reduce_by
from weylcalc.symbols import SymbolElem, principal_symbol, symbol_mul


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


def assert_canonical_key(key, n, cls=MultiIndex):
    assert type(key) is cls
    assert len(key) == n
    assert all(type(e) is int and e >= 0 for e in key)


def assert_canonical_poly(p, n):
    assert type(p) is Poly and p.n == n
    for key in p._num:
        assert_canonical_key(key, n, tuple)
    if p:
        assert_canonical_key(p.leading()[0], n)
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
    assert_canonical_poly(D.poly, 2 * n)
    for J, f in D.terms.items():
        assert_canonical_key(J, n)
        assert_canonical_poly(f, n)
        assert f
    assert DiffOp(n, D.terms) == D


@given(polys(), polys(), coeffs(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_poly_results_are_canonical(p, q, c, J):
    for r in (p + q, p - q, -p, p * q, p * c, p - p, p.derive(J), p**3):
        assert_canonical_poly(r, 2)
    if q:
        assert_canonical_poly(reduce_by(p * q + p, q), 2)


@given(diffops(), diffops(), coeffs())
def test_diffop_results_are_canonical(A, B, c):
    for D in (A + B, A - B, -A, A - A, A.compose(B), A.scale(c), commutator(A, B), A**2):
        assert_canonical_diffop(D, 2)


def test_parsed_results_are_canonical():
    for p in (parse_poly("(t1 - 1/2*t2)^3 + 2*t1*t2", 2), parse_poly("t1^4 - t1^4", 2), parse_poly("7", 2)):
        assert_canonical_poly(p, 2)
    for D in (parse_operator("d1*t1^2 - (1/3*t2 + t1)*d2^2", 2), parse_operator("(t1 + d1)^3", 2)):
        assert_canonical_diffop(D, 2)
    s = parse_symbol("t1*x1^2 - 2/3*x1*x2", 2)
    assert_canonical_poly(s.poly, 4)
    assert_canonical_poly(parse_jet_map("1,0 -> t2\n0,1 -> 1/2*t1^2", 2).values[(1, 0)], 2)


@given(diffops(max_word=3), diffops())
def test_jet_results_are_canonical(D, E):
    for A in (restriction(D, 3), JetMap(2, 2, {(1, 0): Poly.variable(2, 2)})):
        assert all(type(I) is MultiIndex for I in A.values)
        for value in A.values.values():
            assert_canonical_poly(value, 2)
        assert_canonical_diffop(from_jet_map(A), 2)
    s = principal_symbol(E)
    assert_canonical_poly(s.poly, 4)
    assert_canonical_poly(symbol_mul(s, s).poly, 4)


def test_public_constructors_store_plain_tuples():
    index = MultiIndex((2, 1))
    polys = [
        Poly(2, {index: 3, (0, 1): Fraction(1, 2)}), Poly(2, [((1, 1), 2), ((1, 1), -1)]), Poly.const(2, 5),
        Poly.variable(2, 2), Poly.monomial(2, index, -4), Poly.zero(2),
    ]
    for p in polys:
        assert_canonical_poly(p, 2)
    operators = [
        DiffOp(2, {index: polys[0], (0, 0): 2}), DiffOp.identity(2), DiffOp.partial(2, 1),
        DiffOp.from_poly(polys[0]), DiffOp.from_vector_field(polys[:2]), DiffOp.zero(2),
    ]
    for D in operators:
        assert_canonical_diffop(D, 2)
    assert_canonical_poly(SymbolElem(2, 3, {index: polys[1]}).poly, 4)
    assert polys[0].leading() == ((2, 1), 3) and type(polys[0].leading()[0]) is MultiIndex


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
    A, B = DiffOp(2, {(1, 0): p, (0, 1): q}), DiffOp(2, {(1, 0): q, (0, 1): -q})
    assert_canonical_diffop(A + B, 2)
    assert (A + B).poly._den == 1 and (A + B).terms == {(1, 0): Poly(2, {(0, 1): 1})}
    for zero in (A - A, A + (-A), (A + B) - (A + B), (A - B) - (A + (-B))):
        assert_canonical_diffop(zero, 2)
        assert zero.poly._den == 1 and not zero.poly._num and zero == DiffOp.zero(2)


def mixed_coeffs():
    """Ints, and Fractions over mixed and coprime denominators, small and large."""
    dens = st.sampled_from([1, 2, 3, 4, 6, 7, 35, 2**70, 3**40])
    return st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), dens))


@st.composite
def word_pairs(draw, n, words):
    """(J, f) pairs whose words repeat, each f a Poly over mixed denominators or a bare coefficient."""
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        J = draw(st.sampled_from(words))
        if draw(st.booleans()):
            pairs.append((J, draw(mixed_coeffs())))
        else:
            pairs.append((J, Poly(n, draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), mixed_coeffs(), max_size=3)))))
    return pairs


def fraction_words(n, pairs):
    """Test-only oracle: {(M, J): coefficient} of the terms f_J * y^J, repeated words added as Fractions."""
    want = {}
    for J, f in pairs:
        for M, c in (f.terms if isinstance(f, Poly) else {(0,) * n: Fraction(f)}).items():
            key = (tuple(M), tuple(J))
            want[key] = want.get(key, 0) + c
    return {key: c for key, c in want.items() if c}


def stored_words(D):
    return {(tuple(M), tuple(J)): c for J, f in D.terms.items() for M, c in f.terms.items()}


@given(st.data())
def test_normal_form_constructors_sum_repeated_words_like_the_reference(data):
    n, grade = 2, data.draw(st.integers(0, 2))
    pairs = data.draw(word_pairs(n, [(0, 0), (1, 0), (0, 1), (2, 0)]))
    D = DiffOp(n, pairs)
    assert_canonical_diffop(D, n)
    assert stored_words(D) == fraction_words(n, pairs)
    pairs = data.draw(word_pairs(n, [J for J in monomials_up_to(n, grade) if sum(J) == grade]))
    s = SymbolElem(n, grade, pairs)
    assert_canonical_poly(s.poly, 2 * n)
    assert SymbolElem(n, grade, s.terms) == s
    assert stored_words(s) == fraction_words(n, pairs)


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



def fraction_render_terms(terms, prefix):
    """Test-only oracle: the text of a {I: Fraction} dict, as Poly printed it from its Fraction view.

    Descending graded-lex order, explicit signs, a coefficient of magnitude
    1 dropped before a monomial, '0' for no terms.
    """
    if not terms:
        return "0"
    chunks = []
    for I in sorted(terms, key=lambda I: (-sum(I), tuple(-e for e in I))):
        c = terms[I]
        mono = format_power_product(I, prefix)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    out = ("-" + body) if sign == "-" else body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def fraction_render(D, prefix=None):
    """Test-only oracle: an operator's or symbol's text from its view terms, one Poly per word."""
    prefix = prefix or D._prefix
    one = Poly.const(D.n, 1)
    out = ""
    for J in sorted(D.terms, key=lambda J: (-sum(J), tuple(-e for e in J))):
        f = D.terms[J]
        word = format_power_product(J, prefix)
        if not word:
            body = fraction_render_terms(f.terms, "t")
        else:
            body = word if f == one else f"({fraction_render_terms(f.terms, 't')})*{word}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += f" - {body[1:]}"
        else:
            out += f" + {body}"
    return out or "0"


def render_coeffs():
    """Fractions with negative and fractional values, and 1 and -1 often."""
    return st.one_of(coeffs(), st.sampled_from([1, -1, Fraction(-1, 3), Fraction(7, 2)]))


@st.composite
def render_polys(draw, n=2):
    """Polys in n variables whose terms may be constants and coefficients may be +-1."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        I = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms[I] = draw(render_coeffs())
    return Poly(n, terms)


@st.composite
def render_diffops(draw):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        J = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms[J] = draw(st.one_of(render_polys(n), render_coeffs().map(lambda c: Poly.const(n, c))))
    return DiffOp(n, terms)


@st.composite
def render_symbols(draw):
    n = draw(st.integers(1, 3))
    grade = draw(st.integers(0, 2))
    words = monomials_up_to(n, grade)[-math.comb(n + grade - 1, grade) :]  # the words of degree grade
    terms = {J: draw(render_polys(n)) for J in draw(st.lists(st.sampled_from(words), max_size=3))}
    return SymbolElem(n, grade, terms)


@given(st.integers(1, 3).flatmap(render_polys))
def test_poly_text_matches_the_fraction_oracle(p):
    assert str(p) == fraction_render_terms(p.terms, "t")


@given(render_diffops())
def test_operator_text_matches_the_fraction_oracle(D):
    assert str(D) == fraction_render(D)


@given(render_symbols(), st.sampled_from([None, "x", "xi", "y", "Xi"]))
def test_symbol_text_matches_the_fraction_oracle(s, prefix):
    assert s.render(prefix) == fraction_render(s, prefix)


def test_text_examples_match_the_fraction_oracle():
    half = Fraction(1, 2)
    cases = [
        Poly(2, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 4}),
        Poly(1, {(0,): Fraction(-6, 4)}),
        Poly(2, {(1, 0): -1, (0, 1): 1}),
        DiffOp(2, {(1, 0): Poly.const(2, 1), (0, 1): Poly.const(2, -1), (0, 0): Poly.const(2, half)}),
        DiffOp(2, {(2, 0): Poly(2, {(1, 0): Fraction(-2, 3), (0, 0): 1}), (0, 0): Poly(2, {(0, 1): -1})}),
        DiffOp(1, {(0,): Poly.const(1, 1)}),
    ]
    for obj in cases:
        want = fraction_render_terms(obj.terms, "t") if isinstance(obj, Poly) else fraction_render(obj)
        assert str(obj) == want
    s = SymbolElem(2, 1, {(1, 0): Poly(2, {(0, 1): Fraction(-3, 7)}), (0, 1): Poly.const(2, 1)})
    assert s.render("xi") == fraction_render(s, "xi") == "(-3/7*t2)*xi1 + xi2"
    assert str(cases[0]) == "3*t1^2*t2 - 1/2*t2 + 4"
    assert str(cases[3]) == "d1 + (-1)*d2 + 1/2"
