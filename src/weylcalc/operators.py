"""Differential operators on the rational polynomial ring, in normal form.

An operator is a finite sum of terms f_J * d^J with the polynomial
coefficient written to the left of the derivative word d^J.  The normal
form is unique, so operator equality is dict equality.  Composition
rewrites products back into normal form with the generalized Leibniz
rule: for single terms,

    (f d^I) (g d^J) = sum over K <= I of
        binom(I, K) * f * d^(I-K)(g) * d^(K+J)

where binom(I, K) is the product of the componentwise binomial
coefficients.  The rule follows by induction on I from d_i g = g d_i +
(dg/dt_i) as operators.  Tests validate it against an independent
apply-twice oracle.

Coefficients are Polys, which hold integer numerators over one
denominator.  Composition works on those integers directly: each
operand is written over the lcm of its coefficient denominators, the
Leibniz sum is accumulated as integer numerators per derivative word
over the product of the two, and each word is reduced once.  apply
stays built from Poly.derive, * and +, because it is the oracle.

Sign convention: the commutator is [A, B] = A B - B A, and with it
[d_i, t_j] = delta_ij (so [t_i, d_i] = -1).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import add, ge, sub
from typing import Iterable, Sequence

from .poly import MultiIndex, Poly, Scalar, _coefficient, format_power_product, subindices

# Composition looks binomial coefficients up through this module-level name
# so tests can substitute a broken one and watch the oracle law catch it.
_binom = math.comb


class DiffOp:
    """Differential operator sum of f_J * d^J, canonical normal form.

    terms maps each derivative multi-index J to its nonzero polynomial
    coefficient f_J.  Treated as immutable.  The public constructors
    validate their input; arithmetic results are built with _make.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Sequence[int], Poly] | Iterable = ()):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        canon: dict[MultiIndex, Poly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for J, f in items:
            ix = J if isinstance(J, MultiIndex) else MultiIndex(J)
            if len(ix) != n:
                raise ValueError(f"derivative index {tuple(ix)} has length {len(ix)}, expected {n}")
            if not isinstance(f, Poly):
                f = Poly.const(n, f)
            if f.n != n:
                raise ValueError(f"coefficient in {f.n} variables on an operator in {n}")
            if f:
                acc = canon.get(ix)
                acc = f if acc is None else acc + f
                if acc:
                    canon[ix] = acc
                else:
                    canon.pop(ix, None)
        self.n = n
        self.terms = canon

    @classmethod
    def _make(cls, n: int, terms: dict[MultiIndex, Poly]) -> "DiffOp":
        """Unchecked constructor: terms maps length-n MultiIndex keys to nonzero Polys in n."""
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n: int) -> "DiffOp":
        return cls(n)

    @classmethod
    def identity(cls, n: int) -> "DiffOp":
        return cls(n, {MultiIndex.zero(n): Poly.const(n, 1)})

    @classmethod
    def from_poly(cls, f: Poly) -> "DiffOp":
        """Multiplication operator p -> f * p."""
        return cls(f.n, {MultiIndex.zero(f.n): f})

    @classmethod
    def partial(cls, n: int, i: int) -> "DiffOp":
        """The derivation d/dt_i, 1-based."""
        return cls(n, {MultiIndex.unit(n, i): Poly.const(n, 1)})

    @classmethod
    def from_vector_field(cls, coeffs: Sequence[Poly]) -> "DiffOp":
        """sum of a_i * d/dt_i for the given coefficient list (one per variable)."""
        if not coeffs:
            raise ValueError("a vector field needs at least one coefficient")
        n = coeffs[0].n
        if len(coeffs) != n:
            raise ValueError(f"got {len(coeffs)} coefficients for {n} variables")
        return cls(n, {MultiIndex.unit(n, i + 1): a for i, a in enumerate(coeffs)})

    @property
    def order(self) -> int | None:
        """Largest |J| over the terms; None for the zero operator (no order)."""
        if not self.terms:
            return None
        return max(J.degree for J in self.terms)

    def apply(self, p: Poly) -> Poly:
        if not isinstance(p, Poly):
            raise TypeError(f"operators act on Poly, not {type(p).__name__}")
        if p.n != self.n:
            raise ValueError(f"operator in {self.n} variables applied to polynomial in {p.n}")
        out = Poly._make(self.n, {}, 1)
        for J, f in self.terms.items():
            dp = p.derive(J)
            if dp:
                out = out + f * dp
        return out

    def __call__(self, p: Poly) -> Poly:
        return self.apply(p)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mixing operators in {self.n} and {other.n} variables")
        merged = dict(self.terms)
        for J, f in other.terms.items():
            acc = merged.get(J)
            acc = f if acc is None else acc + f
            if acc:
                merged[J] = acc
            else:
                merged.pop(J, None)
        return DiffOp._make(self.n, merged)

    def __neg__(self) -> "DiffOp":
        return DiffOp._make(self.n, {J: -f for J, f in self.terms.items()})

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar) -> "DiffOp":
        c = _coefficient(c)
        if not c:
            return DiffOp._make(self.n, {})
        return DiffOp._make(self.n, {J: f * c for J, f in self.terms.items()})

    def __mul__(self, other: "DiffOp | Scalar") -> "DiffOp":
        """Composition when other is an operator, scaling for a scalar."""
        if isinstance(other, DiffOp):
            return self.compose(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "DiffOp":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal form of self after other (self acting second), as one integer loop.

        Each term of the Leibniz sum is added into the numerators of its
        derivative word over den_a * den_b; each word is reduced once.
        """
        if other.n != self.n:
            raise ValueError(f"mixing operators in {self.n} and {other.n} variables")
        new = tuple.__new__
        den_a, left = _over_common_denominator(self)
        den_b, right = _over_common_denominator(other)
        # per term of other: I - K -> the monomials and numerators of d^(I-K) g
        derivatives: list[dict[MultiIndex, list[tuple[MultiIndex, int]]]] = [{} for _ in right]
        acc: dict[MultiIndex, dict[MultiIndex, int]] = {}
        for I, f in left:
            for K in subindices(I):
                rest = new(MultiIndex, map(sub, I, K))
                coeff = math.prod(map(_binom, I, K))
                scaled = [(M, coeff * c) for M, c in f.items()]
                for (J, g), cache in zip(right, derivatives):
                    dg = cache.get(rest)
                    if dg is None:
                        dg = cache[rest] = [
                            (new(MultiIndex, map(sub, N, rest)), d * math.prod(map(math.perm, N, rest)))
                            for N, d in g.items()
                            if all(map(ge, N, rest))
                        ]
                    if not dg:
                        continue
                    word = new(MultiIndex, map(add, K, J))
                    out = acc.get(word)
                    if out is None:
                        out = acc[word] = {}
                    get = out.get
                    for M, c in scaled:
                        for N, d in dg:
                            key = new(MultiIndex, map(add, M, N))
                            out[key] = get(key, 0) + c * d
        den = den_a * den_b
        terms: dict[MultiIndex, Poly] = {}
        for word, num in acc.items():
            num = {M: c for M, c in num.items() if c}
            if num:
                terms[word] = Poly._make(self.n, num, den)
        return DiffOp._make(self.n, terms)

    def __pow__(self, k: int) -> "DiffOp":
        if k < 0:
            raise ValueError(f"negative power {k} of an operator")
        out = DiffOp.identity(self.n)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for J in sorted(self.terms, key=lambda I: (-I.degree, tuple(-e for e in I))):
            f = self.terms[J]
            word = format_power_product(J, "d")
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

    def __repr__(self) -> str:
        return f"DiffOp({self.n}: {self})"


def _over_common_denominator(D: DiffOp) -> tuple[int, list[tuple[MultiIndex, dict[MultiIndex, int]]]]:
    """(den, [(J, numerators of f_J over den)]) with den the lcm of the coefficient denominators."""
    den = math.lcm(*(f._den for f in D.terms.values()))
    return den, [
        (J, f._num if f._den == den else {M: c * (den // f._den) for M, c in f._num.items()})
        for J, f in D.terms.items()
    ]


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a b - b a."""
    return a.compose(b) - b.compose(a)
