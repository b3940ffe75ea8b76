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
(dg/dt_i).  d_t^K(B) is zero unless K is at most B's componentwise
largest t-exponent, so compose enumerates K only up to that reach.

Sign convention: the commutator is [A, B] = A B - B A, and with it
[d_i, t_j] = delta_ij (so [t_i, d_i] = -1).  The K = 0 term of the
star product is the commuting product of the two Polys, the same in
A * B as in B * A, so it cancels from the commutator:

    [A, B] = sum over K != 0 of (1/K!) * (d_xi^K(A) * d_t^K(B) - d_xi^K(B) * d_t^K(A)).

commutator adds these terms of both halves into one integer dict and
never forms the K = 0 products, which are most of the work of the two
compositions.

apply is one integer loop as well: for each word J of the operator
that is at most p's reach, the numerators of d^J(p) are worked out
once and multiplied into every numerator of f_J, all over
den(D) * den(p).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import islice, product
from operator import add, ge, le, sub

from .poly import MultiIndex, Poly, Scalar, _coefficient, _print_key, _sum, format_power_product, render_numerators

# Composition looks binomial coefficients up through this module-level name
# so tests can substitute a broken one and watch the oracle law catch it.
_binom = math.comb


class _NormalForm:
    """A sum of terms f_J * y^J, stored as one Poly in t1..tn, y1..yn.

    Subclasses name y (d for operators) and fix the product.  _grade is
    None for an operator; a symbol's grade is part of its identity even
    when it is zero.
    """

    __slots__ = ("n", "poly", "_grade")

    _noun = "operator"
    _prefix = "d"

    def _fill(self, n: int, terms: Mapping[Sequence[int], Poly] | Iterable, grade: int | None) -> None:
        """Validate {J: f_J} (or pairs), sum repeated words, and store the result."""
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        if grade is not None and grade < 0:
            raise ValueError(f"grade must be nonnegative, got {grade}")
        parts = []
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
            # a list, not a generator, so that each part is keyed by its own word
            parts.append(([((*M, *ix), c) for M, c in f._num.items()], f._den))
        self.n = n
        self.poly = _sum(2 * n, parts)
        self._grade = grade

    @classmethod
    def _make(cls, n: int, poly: Poly, grade: int | None = None):
        """Unchecked constructor: poly is a Poly in 2n variables."""
        out = object.__new__(cls)
        out.n = n
        out.poly = poly
        out._grade = grade
        return out

    @property
    def terms(self) -> dict[MultiIndex, Poly]:
        """The nonzero coefficient f_J of each word J, a Poly in t1..tn, built from poly on each access."""
        n, new, den = self.n, tuple.__new__, self.poly._den
        return {
            new(MultiIndex, J): Poly._make(n, {key[:n]: c for key, c in group}, den)
            for J, group in _by_word(n, self.poly).items()
        }

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
        """Words in descending graded-lex order, each as (f)*word; y is written prefix.

        The text is read off the numerators of poly, grouped by word, over
        its one denominator; no coefficient Poly is built, and each
        t-monomial is formatted once.
        """
        n, den = self.n, self.poly._den
        prefix = prefix or self._prefix
        groups = _by_word(n, self.poly)
        monos: dict[tuple, str] = {}
        out = ""
        for J in sorted(groups, key=_print_key):
            group = groups[J]
            word = format_power_product(J, prefix)
            if word and len(group) == 1 and group[0][1] == den and not any(group[0][0][:n]):
                body = word  # the coefficient is 1
            else:
                f = render_numerators([(key[:n], c) for key, c in group], den, "t", monos)
                body = f"({f})*{word}" if word else f
            if not out:
                out = body
            elif body.startswith("-"):
                out += f" - {body[1:]}"
            else:
                out += f" + {body}"
        return out or "0"

    def __str__(self) -> str:
        return self.render()


def _reach(keys: Iterable[Sequence[int]]) -> list[int]:
    """The componentwise largest exponents over keys; [] when there are none.

    d^J kills every term t^I unless J is at most the reach of the I's.
    """
    return [max(column) for column in zip(*keys)]


def _by_word(n: int, poly: Poly) -> dict[tuple, list[tuple[tuple, int]]]:
    """The (exponents, numerator) pairs of poly, grouped by their last n exponents."""
    groups: dict[tuple, list[tuple[tuple, int]]] = {}
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
        # for each word J: the numerators of d^J(p), keyed by exponents less J, then
        # each times every numerator of f_J (already over den(D)), added into one integer dict
        items = p._num.items()
        reach = _reach(p._num)
        acc: dict[tuple, int] = {}
        get = acc.get
        for J, group in _by_word(self.n, self.poly).items():
            if any(J):
                if not all(map(le, J, reach)):
                    continue
                dp = [
                    ((*map(sub, I, J),), e * math.prod(map(math.perm, I, J)))
                    for I, e in items
                    if all(map(ge, I, J))
                ]
            else:
                dp = items
            if not dp:
                continue
            for M, c in group:
                for R, v in dp:
                    # map stops at the end of R, so only the t-half of M is added
                    key = (*map(add, M, R),)
                    acc[key] = get(key, 0) + c * v
        return Poly._make(self.n, {key: c for key, c in acc.items() if c}, self.poly._den * p._den)

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
        """Normal form of self after other (self acting second): the star product (see _add_star)."""
        if other.n != self.n:
            raise ValueError(f"mixing operators in {self.n} and {other.n} variables")
        n = self.n
        a, b = self.poly, other.poly
        acc: dict[tuple, int] = {}
        _add_star(n, a, b, 1, False, acc)
        return DiffOp._make(n, Poly._make(2 * n, {key: c for key, c in acc.items() if c}, a._den * b._den))

    def __pow__(self, k: int) -> "DiffOp":
        """k - 1 compositions of self with itself, and the identity at k = 0.

        Where no d_i of self meets a t_i of self, self commutes with
        itself, and its power is the power of its Poly.
        """
        if k < 0:
            raise ValueError(f"negative power {k} of an operator")
        n, reach = self.n, _reach(self.poly._num)
        if not k or not any(map(min, reach[:n], reach[n:])):
            return DiffOp._make(n, self.poly**k)
        out = self
        for _ in range(k - 1):
            out = out.compose(self)
        return out

    def __str__(self) -> str:
        # defined here, not inherited, so that DiffOp.__str__ can be wrapped on its own
        return self.render()

    def __repr__(self) -> str:
        return f"DiffOp({self.n}: {self})"


def _add_star(n: int, a: Poly, b: Poly, sign: int, skip_zero: bool, acc: dict[tuple, int]) -> None:
    """Add sign times the numerators of the star product a * b into acc, over a._den * b._den.

    The left terms are grouped by word X.  For each K <= X, every left
    term t^T xi^X, times binom(X, K), meets d_t^K of every right term
    t^S xi^Y, and the products are added into acc.  d_t^K kills every
    right term unless K is at most the reach, the right factor's
    componentwise largest t-exponent, so K runs over K <= min(X, reach)
    only.  skip_zero leaves out K = 0, the commuting product of a and b,
    which comes first in product order; a multiplication (a of word 0
    only) then has no K left, so it returns before b's reach is taken.
    """
    if not b:
        return
    groups = _by_word(n, a)
    if skip_zero and groups.keys() <= {(0,) * n}:
        return
    reach = _reach(key[:n] for key in b._num)
    # K -> the right terms d_t^K keeps: (exponents less K in both halves, numerator
    # times falling factorials), so that adding a left key gives t^(T+S-K) xi^(X-K+Y);
    # at K = 0 the right terms are used as they stand
    derivatives: dict[tuple, Iterable[tuple[tuple, int]]] = {(0,) * n: b._num.items()}
    get = acc.get
    for X, left in groups.items():
        for K in islice(product(*[range(min(x, r) + 1) for x, r in zip(X, reach)]), int(skip_zero), None):
            right = derivatives.get(K)
            if right is None:
                both = (*K, *K)
                right = derivatives[K] = [
                    ((*map(sub, N, both),), d * math.prod(map(math.perm, N, K)))
                    for N, d in b._num.items()
                    if all(map(ge, N, K))
                ]
            if not right:
                continue
            coeff = sign * math.prod(map(_binom, X, K))
            for M, c in left:
                c *= coeff
                for N, d in right:
                    key = (*map(add, M, N),)
                    acc[key] = get(key, 0) + c * d


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a b - b a, from the star product's K != 0 terms alone.

    The K = 0 term of a * b is the commuting product of the two Polys,
    the same as that of b * a, so it cancels and is never formed:

        [a, b] = sum over K != 0 of (1/K!) (d_xi^K(a) d_t^K(b) - d_xi^K(b) d_t^K(a)).

    Both halves are added into one integer dict over den(a) * den(b).
    """
    if b.n != a.n:
        raise ValueError(f"mixing operators in {a.n} and {b.n} variables")
    n = a.n
    acc: dict[tuple, int] = {}
    _add_star(n, a.poly, b.poly, 1, True, acc)
    _add_star(n, b.poly, a.poly, -1, True, acc)
    num = {key: c for key, c in acc.items() if c}
    return DiffOp._make(n, Poly._make(2 * n, num, a.poly._den * b.poly._den))
