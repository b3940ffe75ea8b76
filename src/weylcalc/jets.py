"""Building operators from their values on low-degree monomials.

An operator of order at most k is determined by what it does to the
monomials of degree at most k, and every assignment of polynomial
values to those monomials is realized by exactly one such operator.
JetMap records such an assignment; from_jet_map reconstructs the
operator; restriction tabulates an existing operator.

The reconstruction walks the monomial basis in ascending degree.  The
single-term operator d_basis(f, I) = (f / I!) d^I sends t^I to f,
kills every monomial of degree below |I|, and kills the other
monomials of degree |I|, but it does touch higher-degree monomials.
So each stage interpolates the residual target, the part not already
produced by the stages before it, rather than the raw table value.
One stage covers all monomials of one degree, since their building
blocks leave each other's monomials alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import groupby

from .operators import DiffOp
from .poly import MultiIndex, Poly, monomials_up_to


class JetMap:
    """Total assignment of a polynomial value to each monomial of degree <= k."""

    __slots__ = ("n", "k", "values")

    def __init__(
        self,
        n: int,
        k: int,
        values: Mapping[Sequence[int], Poly] | Iterable = (),
    ):
        basis = monomials_up_to(n, k)
        allowed = set(basis)
        table: dict[MultiIndex, Poly] = {I: Poly.zero(n) for I in basis}
        items = values.items() if isinstance(values, Mapping) else values
        for I, p in items:
            ix = I if isinstance(I, MultiIndex) else MultiIndex(I)
            if ix not in allowed:
                raise ValueError(
                    f"monomial index {tuple(ix)} outside the degree-{k} basis in {n} variables"
                )
            if not isinstance(p, Poly):
                p = Poly.const(n, p)
            if p.n != n:
                raise ValueError(f"value in {p.n} variables in a table over {n}")
            table[ix] = p
        self.n = n
        self.k = k
        self.values = table

    @classmethod
    def zero(cls, n: int, k: int) -> "JetMap":
        return cls(n, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JetMap):
            return NotImplemented
        return self.n == other.n and self.k == other.k and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.k, frozenset(self.values.items())))

    def render(self) -> str:
        """One 'i1,...,in -> value' line per nonzero entry, basis order."""
        lines = []
        for I in monomials_up_to(self.n, self.k):
            p = self.values[I]
            if p:
                lines.append(f"{','.join(str(e) for e in I)} -> {p}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        body = "; ".join(
            f"{tuple(I)} -> {p}" for I, p in self.values.items() if p
        ) or "zero"
        return f"JetMap(n={self.n}, k={self.k}: {body})"


def d_basis(f: Poly, I: Sequence[int]) -> DiffOp:
    """(f / I!) d^I: sends t^I to f and kills all other monomials of degree <= |I|."""
    I = I if isinstance(I, MultiIndex) else MultiIndex(I)
    return DiffOp(f.n, {I: f * Fraction(1, I.factorial)})


def restriction(D: DiffOp, k: int) -> JetMap:
    """Tabulate D on every monomial of degree at most k."""
    if k < 0:
        raise ValueError(f"degree bound must be nonnegative, got {k}")
    return JetMap(
        D.n,
        k,
        {I: D.apply(Poly.monomial(D.n, I)) for I in monomials_up_to(D.n, k)},
    )


def from_jet_map(A: JetMap) -> DiffOp:
    """The unique operator of order <= k realizing the table.

    Stages ascend through degrees; the stage for degree d interpolates
    the residual A(t^I) - D_partial(t^I) of every t^I of degree d, which
    leaves the already-settled lower degrees untouched.  D_partial is
    added to once per degree, not once per monomial.
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
