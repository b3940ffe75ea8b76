"""Exact sparse polynomial arithmetic over the rationals.

A polynomial in the variables t1, ..., tn is stored as a dict mapping
exponent vectors (MultiIndex) to nonzero Fraction coefficients.  The
empty dict is the zero polynomial.  Because the representation is
canonical, equality of polynomials is equality of dicts.

Monomial order is graded lexicographic throughout: compare total degree
first, then exponent tuples lexicographically.  Printing and division
use the descending order; basis enumeration (monomials_up_to) ascends
through degrees.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


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


class Poly:
    """Polynomial in t1..tn with Fraction coefficients, kept in canonical form.

    Instances are treated as immutable; all operations return new objects.
    The public constructors validate and canonicalise their input; the
    results of arithmetic are canonical by construction and are built
    with _make.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Sequence[int], Scalar] | Iterable = ()):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        canon: dict[MultiIndex, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for I, c in items:
            ix = I if isinstance(I, MultiIndex) else MultiIndex(I)
            if len(ix) != n:
                raise ValueError(f"multi-index {tuple(ix)} has length {len(ix)}, expected {n}")
            c = Fraction(c)
            if c:
                acc = canon.get(ix, _ZERO) + c
                if acc:
                    canon[ix] = acc
                else:
                    canon.pop(ix, None)
        self.n = n
        self.terms = canon

    @classmethod
    def _make(cls, n: int, terms: dict[MultiIndex, Fraction]) -> "Poly":
        """Unchecked constructor: terms maps length-n MultiIndex keys to nonzero Fractions."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: Scalar) -> "Poly":
        return cls(n, {MultiIndex.zero(n): Fraction(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The polynomial t_i, 1-based."""
        return cls(n, {MultiIndex.unit(n, i): 1})

    @classmethod
    def monomial(cls, n: int, I: Sequence[int], c: Scalar = 1) -> "Poly":
        return cls(n, {MultiIndex(I): Fraction(c)})

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial (which has no degree)."""
        if not self.terms:
            return None
        return max(I.degree for I in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = self._coerce(other)
        merged = dict(self.terms)
        for I, c in other.terms.items():
            acc = merged.get(I, _ZERO) + c
            if acc:
                merged[I] = acc
            else:
                merged.pop(I, None)
        return Poly._make(self.n, merged)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.n, {I: -c for I, c in self.terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly._make(self.n, {})
            return Poly._make(self.n, {I: c * other for I, c in self.terms.items()})
        other = self._coerce(other)
        make = MultiIndex._make
        acc: dict[MultiIndex, Fraction] = {}
        for I, c in self.terms.items():
            for J, d in other.terms.items():
                K = make(map(add, I, J))
                v = acc.get(K, _ZERO) + c * d
                if v:
                    acc[K] = v
                else:
                    acc.pop(K, None)
        return Poly._make(self.n, acc)

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
        make = MultiIndex._make
        acc: dict[MultiIndex, Fraction] = {}
        for I, c in self.terms.items():
            rest = make(map(sub, I, J))
            if min(rest) < 0:  # J does not divide I
                continue
            acc[rest] = c * math.prod(map(math.perm, I, J))
        return Poly._make(self.n, acc)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        xs = [Fraction(x) for x in point]
        total = _ZERO
        for I, c in self.terms.items():
            v = c
            for x, e in zip(xs, I):
                v *= x**e
            total += v
        return total

    def leading(self) -> tuple[MultiIndex, Fraction]:
        """Leading term under graded-lex order; errors on the zero polynomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        I = max(self.terms, key=grlex_key)
        return I, self.terms[I]

    def __str__(self) -> str:
        return render_terms(self.terms, "t")

    def __repr__(self) -> str:
        return f"Poly({self.n}: {self})"


_ZERO = Fraction(0)


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
    work = dict(p.terms)
    rem: dict[MultiIndex, Fraction] = {}
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
                v = work.get(K, _ZERO) - factor * d
                if v:
                    work[K] = v
                else:
                    work.pop(K, None)
        else:
            rem[I] = c
    return Poly._make(p.n, rem)
