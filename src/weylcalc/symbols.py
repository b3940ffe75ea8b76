"""The graded algebra of symbols attached to the order filtration.

A symbol of grade k is a polynomial in commuting variables x1..xn
(standing for the classes of d1..dn), homogeneous of degree k in the
x's, with coefficients in the t-polynomial ring.  Grade-k symbols
represent operators of order k modulo operators of lower order, which
is why symbol multiplication is commutative even though composition of
the operators is not: the commutator of operators of orders j and k
drops to order j + k - 1.

principal_symbol reads the top-order part of a normal form; quantize
maps a symbol back to the operator with every derivative word written
to the right of its coefficient.  quantize is a section of
principal_symbol but only its order-independent properties are
meaningful, since other coefficient orderings differ by lower-order
operators.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Sequence

from .grothendieck import is_derivation
from .operators import DiffOp
from .poly import MultiIndex, Poly, Scalar, format_power_product


class SymbolElem:
    """Grade-k symbol: x-monomials of degree exactly k with Poly coefficients."""

    __slots__ = ("n", "grade", "terms")

    def __init__(
        self,
        n: int,
        grade: int,
        terms: Mapping[Sequence[int], Poly] | Iterable = (),
    ):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        if grade < 0:
            raise ValueError(f"grade must be nonnegative, got {grade}")
        canon: dict[MultiIndex, Poly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for J, f in items:
            ix = J if isinstance(J, MultiIndex) else MultiIndex(J)
            if len(ix) != n:
                raise ValueError(f"index {tuple(ix)} has length {len(ix)}, expected {n}")
            if ix.degree != grade:
                raise ValueError(
                    f"monomial of degree {ix.degree} in a symbol of grade {grade}"
                )
            if not isinstance(f, Poly):
                f = Poly.const(n, f)
            if f.n != n:
                raise ValueError(f"coefficient in {f.n} variables on a symbol in {n}")
            if f:
                acc = canon.get(ix)
                acc = f if acc is None else acc + f
                if acc:
                    canon[ix] = acc
                else:
                    canon.pop(ix, None)
        self.n = n
        self.grade = grade
        self.terms = canon

    @classmethod
    def zero(cls, n: int, grade: int) -> "SymbolElem":
        return cls(n, grade)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolElem):
            return NotImplemented
        return (
            self.n == other.n
            and self.grade == other.grade
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self.grade, frozenset(self.terms.items())))

    def __add__(self, other: "SymbolElem") -> "SymbolElem":
        if not isinstance(other, SymbolElem):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mixing symbols in {self.n} and {other.n} variables")
        if other.grade != self.grade:
            raise ValueError(f"adding symbols of grades {self.grade} and {other.grade}")
        merged = dict(self.terms)
        for J, f in other.terms.items():
            acc = merged.get(J)
            acc = f if acc is None else acc + f
            if acc:
                merged[J] = acc
            else:
                merged.pop(J, None)
        out = SymbolElem.zero(self.n, self.grade)
        out.terms = merged
        return out

    def __neg__(self) -> "SymbolElem":
        out = SymbolElem.zero(self.n, self.grade)
        out.terms = {J: -f for J, f in self.terms.items()}
        return out

    def __sub__(self, other: "SymbolElem") -> "SymbolElem":
        if not isinstance(other, SymbolElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "SymbolElem | Scalar") -> "SymbolElem":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = SymbolElem.zero(self.n, self.grade)
            if c:
                out.terms = {J: f * c for J, f in self.terms.items()}
            return out
        if not isinstance(other, SymbolElem):
            return NotImplemented
        return symbol_mul(self, other)

    def __rmul__(self, other: Scalar) -> "SymbolElem":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def render(self, xi_prefix: str = "x") -> str:
        if not self.terms:
            return "0"
        chunks = []
        for J in sorted(self.terms, key=lambda I: tuple(-e for e in I)):
            f = self.terms[J]
            word = format_power_product(J, xi_prefix)
            if not word:
                body = str(f)
            elif f == Poly.const(self.n, 1):
                body = word
            else:
                body = f"({f})*{word}"
            chunks.append(body)
        out = chunks[0]
        for body in chunks[1:]:
            if body.startswith("-"):
                out += f" - {body[1:]}"
            else:
                out += f" + {body}"
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SymbolElem({self.n}, grade {self.grade}: {self})"


def symbol_mul(s: SymbolElem, u: SymbolElem) -> SymbolElem:
    """Product of symbols: grades add, x-parts multiply commutatively."""
    if s.n != u.n:
        raise ValueError(f"mixing symbols in {s.n} and {u.n} variables")
    acc: dict[MultiIndex, Poly] = {}
    for I, f in s.terms.items():
        for J, g in u.terms.items():
            K = I + J
            piece = f * g
            prev = acc.get(K)
            acc[K] = piece if prev is None else prev + piece
    return SymbolElem(s.n, s.grade + u.grade, acc)


def principal_symbol(D: DiffOp, k: int | None = None) -> SymbolElem:
    """Grade-k symbol of D: its derivative words of length exactly k.

    k defaults to the order of D (grade 0 for the zero operator).  The
    symbol is an honest class of D only when D has order <= k, so
    k below the order is an error; k above it yields the zero symbol,
    consistent with D being of lower order than the grade pretends.
    """
    order = D.order
    if k is None:
        k = order if order is not None else 0
    if order is not None and k < order:
        raise ValueError(f"grade {k} below the operator order {order}")
    top = {J: f for J, f in D.terms.items() if J.degree == k}
    return SymbolElem(D.n, k, top)


def quantize(s: SymbolElem) -> DiffOp:
    """Normal-ordered lift: each coefficient to the left of its derivative word.

    principal_symbol(quantize(s), s.grade) == s, and for nonzero s the
    lift has syntactic order exactly s.grade.
    """
    return DiffOp(s.n, dict(s.terms))


def derivation_symbol(X: DiffOp) -> SymbolElem:
    """Grade-1 symbol of a vector field; the map is a bijection onto grade 1.

    Raises ValueError when X is not a derivation (some word of length != 1).
    """
    if not is_derivation(X):
        raise ValueError(f"not a derivation: {X}")
    return principal_symbol(X, 1)
