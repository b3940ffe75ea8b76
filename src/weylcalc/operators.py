"""Differential operators on the rational polynomial ring, in normal form.

An operator is a finite sum of terms f_J * d^J with the polynomial
coefficient written to the left of the derivative word d^J.  Read with
each d_i as a commuting variable xi_i, that normal form is one
polynomial in t1..tn, xi1..xin, and so it is stored: one Poly in 2n
variables, integer numerators over one denominator, keyed by (t
exponents, xi exponents).  The form is unique, so equality, addition,
negation and scaling are those of the Poly.  Symbols
(weylcalc.symbols) share the storage and differ only in their product.

Composition is the normal-ordered star product of the Weyl algebra,

    A * B = sum over K of (1/K!) * d_xi^K(A) * d_t^K(B),

with K! the product of the factorials of the entries of K.  On single
terms it is the generalized Leibniz rule, reindexed:

    (f d^I) (g d^J) = sum over K <= I of binom(I, K) * f * d^K(g) * d^(I-K+J)

with binom(I, K) the product of the componentwise binomial
coefficients; it follows by induction on I from d_i g = g d_i +
(dg/dt_i).  apply stays built from the coefficient view terms,
Poly.derive, * and +, because tests check composition against it.

Sign convention: the commutator is [A, B] = A B - B A, and with it
[d_i, t_j] = delta_ij (so [t_i, d_i] = -1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from operator import add, ge, sub

from .poly import MultiIndex, Poly, Scalar, _coefficient, _print_key, format_power_product, subindices

# Composition looks binomial coefficients up through this module-level name
# so tests can substitute a broken one and watch the oracle law catch it.
_binom = math.comb


class _NormalForm:
    """A sum of terms f_J * y^J, stored as one Poly in t1..tn, y1..yn.

    Subclasses name y (d for operators) and fix the product.  _grade is
    None for an operator; a symbol's grade is part of its identity even
    when it is zero.  terms, the view {J: f_J}, is built on first use
    and kept, since instances are treated as immutable.
    """

    __slots__ = ("n", "poly", "_grade", "_terms")

    _noun = "operator"
    _prefix = "d"

    def _fill(self, n: int, terms: Mapping[Sequence[int], Poly] | Iterable, grade: int | None) -> None:
        """Validate {J: f_J} (or pairs), sum repeated words, and store the result."""
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        if grade is not None and grade < 0:
            raise ValueError(f"grade must be nonnegative, got {grade}")
        pairs = []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for J, f in items:
            ix = J if isinstance(J, MultiIndex) else MultiIndex(J)
            if len(ix) != n:
                raise ValueError(f"word {tuple(ix)} has length {len(ix)}, expected {n}")
            if grade is not None and ix.degree != grade:
                raise ValueError(f"monomial of degree {ix.degree} in a symbol of grade {grade}")
            if not isinstance(f, Poly):
                f = Poly.const(n, f)
            if f.n != n:
                raise ValueError(f"{self._noun} in {n} variables with a coefficient in {f.n}")
            pairs.append((ix, f))
        # every coefficient over the lcm of their denominators, added per (t, y) exponent
        den = math.lcm(*(f._den for _, f in pairs))
        new = tuple.__new__
        acc: dict[MultiIndex, int] = {}
        get = acc.get
        for J, f in pairs:
            scale = den // f._den
            for M, c in f._num.items():
                key = new(MultiIndex, (*M, *J))
                acc[key] = get(key, 0) + c * scale
        self.n = n
        self.poly = Poly._make(2 * n, {key: c for key, c in acc.items() if c}, den)
        self._grade = grade
        self._terms = None

    @classmethod
    def _make(cls, n: int, poly: Poly, grade: int | None = None):
        """Unchecked constructor: poly is a Poly in 2n variables."""
        out = object.__new__(cls)
        out.n = n
        out.poly = poly
        out._grade = grade
        out._terms = None
        return out

    @property
    def terms(self) -> dict[MultiIndex, Poly]:
        """The nonzero coefficient f_J of each word J, a Poly in t1..tn."""
        if self._terms is None:
            n, new, den = self.n, tuple.__new__, self.poly._den
            self._terms = {
                new(MultiIndex, J): Poly._make(n, {new(MultiIndex, key[:n]): c for key, c in group}, den)
                for J, group in _by_word(n, self.poly).items()
            }
        return self._terms

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _NormalForm):
            return NotImplemented
        return type(self) is type(other) and self._grade == other._grade and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((self._grade, self.poly))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mixing {self._noun}s in {self.n} and {other.n} variables")
        if other._grade != self._grade:
            raise ValueError(f"adding {self._noun}s of grades {self._grade} and {other._grade}")
        return self._make(self.n, self.poly + other.poly, self._grade)

    def __neg__(self):
        return self._make(self.n, -self.poly, self._grade)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar):
        return self._make(self.n, self.poly * _coefficient(c), self._grade)

    def __rmul__(self, other: Scalar):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def render(self, prefix: str | None = None) -> str:
        """Words in descending graded-lex order, each as (f)*word; y is written prefix."""
        terms = self.terms
        prefix = prefix or self._prefix
        one = Poly.const(self.n, 1)
        out = ""
        for J in sorted(terms, key=_print_key):
            f = terms[J]
            word = format_power_product(J, prefix)
            if not word:
                body = str(f)
            else:
                body = word if f == one else f"({f})*{word}"
            if not out:
                out = body
            elif body.startswith("-"):
                out += f" - {body[1:]}"
            else:
                out += f" + {body}"
        return out or "0"

    def __str__(self) -> str:
        return self.render()


def _by_word(n: int, poly: Poly) -> dict[tuple, list[tuple[MultiIndex, int]]]:
    """The (exponents, numerator) pairs of poly, grouped by their last n exponents."""
    groups: dict[tuple, list[tuple[MultiIndex, int]]] = {}
    for key, c in poly._num.items():
        group = groups.get(key[n:])
        if group is None:
            group = groups[key[n:]] = []
        group.append((key, c))
    return groups


class DiffOp(_NormalForm):
    """Differential operator sum of f_J * d^J, canonical normal form.

    The public constructor validates its input; arithmetic results are
    built with _make.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Sequence[int], Poly] | Iterable = ()):
        self._fill(n, terms, None)

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
        if not self.poly:
            return None
        n = self.n
        return max(sum(key[n:]) for key in self.poly._num)

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

    def __mul__(self, other: "DiffOp | Scalar") -> "DiffOp":
        """Composition when other is an operator, scaling for a scalar."""
        if isinstance(other, DiffOp):
            return self.compose(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal form of self after other (self acting second): the star product.

        The left terms are grouped by word X.  For each K <= X, every
        left term t^T xi^X, times binom(X, K), meets d_t^K of every
        right term t^S xi^Y, and the products are added into one
        integer dict.
        """
        if other.n != self.n:
            raise ValueError(f"mixing operators in {self.n} and {other.n} variables")
        n = self.n
        new = tuple.__new__
        a, b = self.poly, other.poly
        # K -> the right terms d_t^K keeps: (exponents less K in both halves, numerator
        # times falling factorials), so that adding a left key gives t^(T+S-K) xi^(X-K+Y)
        derivatives: dict[MultiIndex, list[tuple[tuple, int]]] = {}
        acc: dict[MultiIndex, int] = {}
        get = acc.get
        for X, left in _by_word(n, a).items():
            for K in subindices(X):
                right = derivatives.get(K)
                if right is None:
                    both = (*K, *K)
                    right = derivatives[K] = [
                        (tuple(map(sub, N, both)), d * math.prod(map(math.perm, N, K)))
                        for N, d in b._num.items()
                        if all(map(ge, N, K))
                    ]
                if not right:
                    continue
                coeff = math.prod(map(_binom, X, K))
                for M, c in left:
                    c *= coeff
                    for N, d in right:
                        key = new(MultiIndex, map(add, M, N))
                        acc[key] = get(key, 0) + c * d
        num = {key: c for key, c in acc.items() if c}
        return DiffOp._make(n, Poly._make(2 * n, num, a._den * b._den))

    def __pow__(self, k: int) -> "DiffOp":
        if k < 0:
            raise ValueError(f"negative power {k} of an operator")
        out = DiffOp.identity(self.n)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __str__(self) -> str:
        # defined here, not inherited, so that DiffOp.__str__ can be wrapped on its own
        return self.render()

    def __repr__(self) -> str:
        return f"DiffOp({self.n}: {self})"


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a b - b a."""
    return a.compose(b) - b.compose(a)
