"""Building operators from their values on low-degree monomials.

An operator of order at most k is determined by what it does to the
monomials of degree at most k, and every assignment of polynomial
values to those monomials is realized by exactly one such operator.
JetMap records such an assignment; from_jet_map reconstructs the
operator; restriction tabulates an existing operator.

The reconstruction is in closed form.  D = sum of f_J d^J sends t^I to
sum over J <= I of f_J * I!/(I-J)! * t^(I-J); writing g_J = J! f_J,
that is A(t^I) = sum over J <= I of binom(I, J) t^(I-J) g_J, which
binomial inversion solves for g:

    f_J = (1/J!) * sum over K <= J of (-1)^|J-K| binom(J, K) t^(J-K) A(t^K)

with J! and binom(J, K) the products of the componentwise factorials
and binomial coefficients.  Every f_J is read off the table directly;
no operator is applied.  restriction goes forward instead: it walks
each word J of D once and adds f_J * I!/(I-J)! * t^(I-J) into the
value of every basis monomial t^I with I >= J.  It neither applies D
per monomial nor shares the inversion, so the two directions stay
independent of each other.  Only restriction packs monomials into ints:
each of its terms is added for many I, and from_jet_map's only about once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from operator import add, mul, sub

from .operators import DiffOp, _by_word
from .poly import MultiIndex, Poly, monomials_up_to, subindices


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
    def _make(cls, n: int, k: int, values: dict[MultiIndex, Poly]) -> "JetMap":
        """Unchecked constructor for a table built on the basis itself.

        values maps every MultiIndex of monomials_up_to(n, k), in that
        order, to a Poly in n variables.
        """
        out = object.__new__(cls)
        out.n = n
        out.k = k
        out.values = values
        return out

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
    """Tabulate D on every monomial of degree at most k, in one forward pass.

    D(t^I) = sum over J <= I of f_J * I!/(I-J)! * t^(I-J).  Each word J
    of degree at most k is walked once, over I = J + R for every R with
    |R| <= k - |J|, and its numerators, times perm(I, J), go into one
    integer dict per I over den(D).  Words above k reach no basis
    monomial.  The dicts are keyed by exponents packed as the digits of
    one int base top = k + 1 + (largest t-exponent of D), so t^T t^R is
    one int add, as no T_i + R_i reaches top; nonzero sums are unpacked.
    The basis monomials are packed the same way, so I = J + R is found
    by one int add too, and perm(I, J) = I!/R! from the factorial
    products kept with them.
    """
    if k < 0:
        raise ValueError(f"degree bound must be nonnegative, got {k}")
    n = D.n
    basis = monomials_up_to(n, k)
    top = k + 1 + max((max(key[:n]) for key in D.poly._num), default=0)
    weights = [top**i for i in reversed(range(n))]
    # each basis monomial R as (R packed, R!), and the table by packed I: its dict and I!
    packed = [(sum(map(mul, R, weights)), math.prod(map(math.factorial, R))) for R in basis]
    table = {r: ({}, f) for r, f in packed}
    for J, group in _by_word(n, D.poly).items():
        room = k - sum(J)
        if room < 0:
            continue
        j = sum(map(mul, J, weights))
        # map stops with weights, after the n t-exponents of each key
        terms = [(sum(map(mul, key, weights)), c) for key, c in group]
        # basis ascends through degrees, so its first C(n + room, n) entries have degree <= room
        for r, f in packed[: math.comb(n + room, n)]:
            acc, g = table[j + r]
            get = acc.get
            scale = g // f
            for T, c in terms:
                key = T + r
                acc[key] = get(key, 0) + c * scale
    den = D.poly._den
    nums = {I: {tuple(p // w % top for w in weights): c for p, c in acc.items() if c} for I, (acc, _) in zip(basis, table.values())}
    return JetMap._make(n, k, {I: Poly._make(n, num, den) for I, num in nums.items()})


def from_jet_map(A: JetMap) -> DiffOp:
    """The unique operator of order <= k realizing the table, in closed form.

    Every coefficient is put over lcm(table denominators) * k!: J!
    divides |J|!, which divides k!, so (k!/J!) * (-1)^|J-K| * binom(J, K)
    is an integer.  The terms go into one integer dict keyed by
    (t exponents, word), reduced once.
    """
    n = A.n
    values = [(I, p) for I, p in A.values.items() if p]
    den = math.lcm(*(p._den for _, p in values))
    top = math.factorial(A.k)
    # K -> the numerators of A(t^K) over den, each key padded with a zero word
    table = {
        K: [((*M, *(0,) * n), c * (den // p._den)) for M, c in p._num.items()]
        for K, p in values
    }
    acc: dict[tuple, int] = {}
    get = acc.get
    for J in A.values:
        scale = top // J.factorial
        for K in subindices(J):
            column = table.get(K)
            if column is None:
                continue
            shift = (*map(sub, J, K), *J)
            coeff = scale * math.prod(map(math.comb, J, K))
            if (J.degree - K.degree) % 2:
                coeff = -coeff
            for M, c in column:
                key = (*map(add, M, shift),)
                acc[key] = get(key, 0) + c * coeff
    num = {key: c for key, c in acc.items() if c}
    return DiffOp._make(n, Poly._make(2 * n, num, den * top))
