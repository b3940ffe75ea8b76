"""The graded algebra of symbols attached to the order filtration.

A symbol of grade k is a polynomial in commuting variables x1..xn
(the classes of d1..dn), homogeneous of degree k in the x's, with
coefficients in t1..tn.  Grade-k symbols represent operators of order
k modulo lower order, so their product is commutative although
composition is not: a commutator drops the order by one.

A symbol is stored as an operator is, one Poly in t1..tn, x1..xn
(weylcalc.operators).  symbol_mul is the product of those Polys,
principal_symbol keeps the terms of x-degree k, and quantize reads the
same data as an operator, coefficients left of the words: a section of
principal_symbol, meaningful only up to lower-order operators.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .grothendieck import is_derivation
from .operators import DiffOp, _NormalForm
from .poly import Poly, Scalar


class SymbolElem(_NormalForm):
    """Grade-k symbol: x-monomials of degree exactly k with Poly coefficients."""

    __slots__ = ()

    _noun = "symbol"
    _prefix = "x"

    def __init__(self, n: int, grade: int, terms: Mapping[Sequence[int], Poly] | Iterable = ()):
        self._fill(n, terms, grade)

    @classmethod
    def zero(cls, n: int, grade: int) -> "SymbolElem":
        return cls(n, grade)

    @property
    def grade(self) -> int:
        return self._grade

    def __mul__(self, other: "SymbolElem | Scalar") -> "SymbolElem":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SymbolElem):
            return NotImplemented
        return symbol_mul(self, other)

    def __repr__(self) -> str:
        return f"SymbolElem({self.n}, grade {self.grade}: {self})"


def symbol_mul(s: SymbolElem, u: SymbolElem) -> SymbolElem:
    """Product of symbols: grades add, x-parts multiply commutatively."""
    if s.n != u.n:
        raise ValueError(f"mixing symbols in {s.n} and {u.n} variables")
    return SymbolElem._make(s.n, s.poly * u.poly, s.grade + u.grade)


def principal_symbol(D: DiffOp, k: int | None = None) -> SymbolElem:
    """Grade-k symbol of D: its derivative words of length exactly k.

    k defaults to the order of D (grade 0 for the zero operator).  The
    symbol is an honest class of D only when D has order <= k, so
    k below the order is an error, as is a negative k; k above the
    order yields the zero symbol, consistent with D being of lower
    order than the grade pretends.
    """
    order = D.order
    if k is None:
        k = order if order is not None else 0
    if k < 0:
        raise ValueError(f"grade must be nonnegative, got {k}")
    if order is not None and k < order:
        raise ValueError(f"grade {k} below the operator order {order}")
    n = D.n
    top = {key: c for key, c in D.poly._num.items() if sum(key[n:]) == k}
    return SymbolElem._make(n, Poly._make(2 * n, top, D.poly._den), k)


def quantize(s: SymbolElem) -> DiffOp:
    """Normal-ordered lift: each coefficient to the left of its derivative word.

    principal_symbol(quantize(s), s.grade) == s, and for nonzero s the
    lift has syntactic order exactly s.grade.
    """
    return DiffOp._make(s.n, s.poly)


def derivation_symbol(X: DiffOp) -> SymbolElem:
    """Grade-1 symbol of a vector field; the map is a bijection onto grade 1.

    Raises ValueError when X is not a derivation (some word of length != 1).
    """
    if not is_derivation(X):
        raise ValueError(f"not a derivation: {X}")
    return principal_symbol(X, 1)
