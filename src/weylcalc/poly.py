"""Exact sparse polynomial arithmetic over the rationals.

A polynomial in the variables t1, ..., tn is stored as integer
numerators over one shared positive denominator: a dict mapping
exponent vectors (MultiIndex) to nonzero ints, and an int den with no
factor common to all of them.  The empty dict over den 1 is the zero
polynomial.  Arithmetic is integer work followed by one gcd reduction,
and Fraction appears only at the API boundary: constructors take int or
Fraction coefficients and Poly.terms shows them as Fractions.  Because
the representation is canonical, equality of polynomials is equality
of the stored data.

Monomial order is graded lexicographic throughout: compare total degree
first, then exponent tuples lexicographically.  Printing and division
use the descending order; basis enumeration (monomials_up_to) ascends
through degrees.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import product
from operator import add, sub

Scalar = int | Fraction


class MultiIndex(tuple):
    """Exponent vector (i1, ..., in) of the monomial t1^i1 * ... * tn^in."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> "MultiIndex":
        ix = super().__new__(cls, map(int, exponents))
        if ix and min(ix) < 0:
            raise ValueError(f"negative exponent in multi-index {tuple(ix)}")
        return ix

    @classmethod
    def _make(cls, exponents: Iterable[int]) -> "MultiIndex":
        """Unchecked constructor for entries known to be nonnegative ints."""
        return tuple.__new__(cls, exponents)

    @classmethod
    def zero(cls, n: int) -> "MultiIndex":
        return cls((0,) * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "MultiIndex":
        """The i-th standard basis vector, 1-based."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        return cls(tuple(1 if j == i - 1 else 0 for j in range(n)))

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def factorial(self) -> int:
        """Product of the factorials of the entries."""
        out = 1
        for e in self:
            out *= math.factorial(e)
        return out

    def divides(self, other: "MultiIndex") -> bool:
        self._check_len(other)
        return all(a <= b for a, b in zip(self, other))

    def __add__(self, other: Sequence[int]) -> "MultiIndex":  # type: ignore[override]
        self._check_len(other)
        if type(other) is MultiIndex:  # two valid indices have a valid sum
            return MultiIndex._make(map(add, self, other))
        return MultiIndex(map(add, self, other))

    def __sub__(self, other: Sequence[int]) -> "MultiIndex":
        self._check_len(other)
        return MultiIndex(map(sub, self, other))

    def _check_len(self, other: Sequence[int]) -> None:
        if len(self) != len(other):
            raise ValueError(f"multi-index length mismatch: {len(self)} vs {len(other)}")


def grlex_key(I: Sequence[int]) -> tuple:
    """Sort key for ascending graded-lex order (max() picks the leading monomial)."""
    return (sum(I), tuple(I))


def _print_key(I: Sequence[int]) -> tuple:
    # descending degree, then descending lex within a degree
    return (-sum(I), tuple(-e for e in I))


def subindices(I: MultiIndex) -> Iterator[MultiIndex]:
    """All K with 0 <= K <= I componentwise."""
    for k in product(*(range(e + 1) for e in I)):
        yield MultiIndex._make(k)


def format_power_product(I: Sequence[int], prefix: str) -> str:
    """Render e.g. (2, 0, 1) with prefix 't' as 't1^2*t3'; empty string for zero."""
    parts = []
    for pos, e in enumerate(I):
        if e == 1:
            parts.append(f"{prefix}{pos + 1}")
        elif e > 1:
            parts.append(f"{prefix}{pos + 1}^{e}")
    return "*".join(parts)


def _coefficient(c: object) -> Scalar:
    """A coefficient from outside the kernel: int or Fraction only, so no float slips in."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")


class Poly:
    """Polynomial in t1..tn with rational coefficients, kept in canonical form.

    The coefficients are integer numerators over one shared denominator:
    _num maps length-n MultiIndex keys to nonzero ints and _den is a
    positive int with gcd(_den, *_num.values()) == 1, so the zero
    polynomial has _den == 1.  The form is unique, so equality is
    equality of (n, _den, _num).  terms is the Fraction view of it.

    Instances are treated as immutable; all operations return new objects.
    The public constructors validate and canonicalise their input; every
    arithmetic result is built with _make, which does the one gcd
    reduction of the operation.
    """

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, terms: Mapping[Sequence[int], Scalar] | Iterable = ()):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        canon: dict[MultiIndex, Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for I, c in items:
            ix = I if isinstance(I, MultiIndex) else MultiIndex(I)
            if len(ix) != n:
                raise ValueError(f"multi-index {tuple(ix)} has length {len(ix)}, expected {n}")
            c = _coefficient(c)
            if c:
                canon[ix] = canon.get(ix, 0) + c
        self.n = n
        self._num, self._den = _integer_form(canon)

    @classmethod
    def _make(cls, n: int, num: dict[MultiIndex, int], den: int) -> "Poly":
        """Unchecked constructor: num maps length-n MultiIndex keys to nonzero ints, den > 0.

        Divides out the common factor of den and the numerators.
        """
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {I: c // g for I, c in num.items()}
            den //= g
        out = object.__new__(cls)
        out.n = n
        out._num = num
        out._den = den
        return out

    @property
    def terms(self) -> dict[MultiIndex, Fraction]:
        """The nonzero coefficients as Fractions, built from the integer storage."""
        den = self._den
        return {I: Fraction(c, den) for I, c in self._num.items()}

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: Scalar) -> "Poly":
        return cls(n, {MultiIndex.zero(n): c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The polynomial t_i, 1-based."""
        return cls(n, {MultiIndex.unit(n, i): 1})

    @classmethod
    def monomial(cls, n: int, I: Sequence[int], c: Scalar = 1) -> "Poly":
        return cls(n, {MultiIndex(I): c})

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial (which has no degree)."""
        if not self._num:
            return None
        return max(map(sum, self._num))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.n, self._den, frozenset(self._num.items())))

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.n, {I: -c for I, c in self._num.items()}, self._den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other: Scalar) -> "Poly":
        return self._coerce(other) - self

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, over the lcm of the two denominators."""
        da, db = self._den, other._den
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        merged = dict(self._num) if sa == 1 else {I: c * sa for I, c in self._num.items()}
        sb *= sign
        get = merged.get
        for I, c in other._num.items():
            v = get(I, 0) + c * sb
            if v:
                merged[I] = v
            else:
                del merged[I]
        return Poly._make(self.n, merged, da * sa)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly._make(self.n, {}, 1)
            c = other.numerator
            return Poly._make(self.n, {I: a * c for I, a in self._num.items()}, self._den * other.denominator)
        other = self._coerce(other)
        new = tuple.__new__
        acc: dict[MultiIndex, int] = {}
        get = acc.get
        for I, c in self._num.items():
            for J, d in other._num.items():
                K = new(MultiIndex, map(add, I, J))
                acc[K] = get(K, 0) + c * d
        return Poly._make(self.n, {K: v for K, v in acc.items() if v}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        out = Poly.const(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ValueError(f"mixing polynomials in {self.n} and {other.n} variables")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.n, other)
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to t_i, 1-based."""
        return self.derive(MultiIndex.unit(self.n, i))

    def derive(self, J: Sequence[int]) -> "Poly":
        """Iterated formal derivative: apply d/dt_l exactly J_l times."""
        J = J if isinstance(J, MultiIndex) else MultiIndex(J)
        if len(J) != self.n:
            raise ValueError(f"derivative multi-index {tuple(J)} has length {len(J)}, expected {self.n}")
        new = tuple.__new__
        acc: dict[MultiIndex, int] = {}
        for I, c in self._num.items():
            rest = new(MultiIndex, map(sub, I, J))
            if min(rest) < 0:  # J does not divide I
                continue
            acc[rest] = c * math.prod(map(math.perm, I, J))
        return Poly._make(self.n, acc, self._den)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        xs = [_coefficient(x) for x in point]
        total = _ZERO
        for I, c in self._num.items():
            v = Fraction(c)
            for x, e in zip(xs, I):
                v *= x**e
            total += v
        return total / self._den

    def leading(self) -> tuple[MultiIndex, Fraction]:
        """Leading term under graded-lex order; errors on the zero polynomial."""
        if not self._num:
            raise ValueError("the zero polynomial has no leading term")
        I = max(self._num, key=grlex_key)
        return I, Fraction(self._num[I], self._den)

    def __str__(self) -> str:
        return render_terms(self.terms, "t")

    def __repr__(self) -> str:
        return f"Poly({self.n}: {self})"


_ZERO = Fraction(0)


def _integer_form(terms: Mapping[MultiIndex, Scalar]) -> tuple[dict[MultiIndex, int], int]:
    """(numerators, denominator) of an int or Fraction term dict, zeros dropped, canonical.

    Over the lcm of the reduced denominators, the numerators share no
    factor with it, so no gcd reduction is needed.
    """
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {I: c.numerator * (den // c.denominator) for I, c in terms.items() if c}, den


def render_terms(terms: Mapping[MultiIndex, Fraction], prefix: str) -> str:
    """Canonical text for a term dict: descending graded-lex, explicit signs.

    Examples: '3*t1^2*t2 - 1/2*t2 + 4', '0', '-t1'.
    """
    if not terms:
        return "0"
    chunks = []
    for I in sorted(terms, key=_print_key):
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


def monomials_up_to(n: int, k: int) -> list[MultiIndex]:
    """All multi-indices in n variables of total degree <= k.

    Ascending by degree; within a degree, descending lexicographically,
    so for n=2, k=1 the order is (0,0), (1,0), (0,1).  The list has
    C(n+k, k) entries.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got n={n}")
    if k < 0:
        raise ValueError(f"degree bound must be nonnegative, got {k}")
    out: list[MultiIndex] = []

    def fill(remaining: int, pos: int, acc: list[int]) -> None:
        if pos == n - 1:
            out.append(MultiIndex(acc + [remaining]))
            return
        for e in range(remaining, -1, -1):
            fill(remaining - e, pos + 1, acc + [e])

    for d in range(k + 1):
        fill(d, 0, [])
    return out


def reduce_by(p: Poly, g: Poly) -> Poly:
    """Remainder of multivariate division of p by the single divisor g.

    Graded-lex order.  The remainder is zero exactly when p lies in the
    principal ideal (g): a one-element set is a Groebner basis of the
    ideal it generates.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.n != g.n:
        raise ValueError(f"mixing polynomials in {p.n} and {g.n} variables")
    lead_g, cg = g.leading()
    g_terms = g.terms
    work = p.terms
    rem: dict[MultiIndex, Fraction] = {}
    while work:
        I = max(work, key=grlex_key)
        c = work.pop(I)
        if lead_g.divides(I):
            shift = I - lead_g
            factor = c / cg
            for J, d in g_terms.items():
                if J == lead_g:
                    continue
                K = J + shift
                v = work.get(K, _ZERO) - factor * d
                if v:
                    work[K] = v
                else:
                    work.pop(K, None)
        else:
            rem[I] = c
    return Poly._make(p.n, *_integer_form(rem))
