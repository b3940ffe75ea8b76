"""Exact sparse polynomial arithmetic over the rationals.

A polynomial in the variables t1, ..., tn is stored as integer
numerators over one shared positive denominator: a dict mapping
exponent vectors, plain tuples of n nonnegative ints, to nonzero ints,
and an int den with no factor common to all of them.  The empty dict
over den 1 is the zero polynomial.  Plain tuples are the cheapest keys
the arithmetic loops can build, written (*map(add, I, J),); MultiIndex
is the validated exponent type of the API, which the constructors
check their input with and every view (terms, leading,
monomials_up_to, subindices) returns.  Arithmetic is integer work
followed by one gcd reduction, and Fraction appears only at the API
boundary: constructors take int or Fraction coefficients and Poly.terms
shows them as Fractions.  _sum is the one adder, the one place where
numerators meet over an lcm: Poly sums, the validating constructors
(of Poly here, of operators and symbols in weylcalc.operators) and the
parser's sums all go through it; only jets.from_jet_map, a weighted
and shifted sum, keeps a loop of its own.  Printing reads the
numerators too (render_numerators), one gcd per coefficient, and
evaluate sums integers over one common denominator, making a single
Fraction at the end.
Because the representation is canonical, equality of polynomials is
equality of the stored data.

Monomial order is graded lexicographic throughout: compare total degree
first, then exponent tuples lexicographically.  Printing and division
use the descending order; basis enumeration (monomials_up_to) ascends
through degrees.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import product
from operator import add, getitem, neg, sub

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
    return (-sum(I), (*map(neg, I),))


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
    _num maps length-n plain int tuples to nonzero ints and _den is a
    positive int with gcd(_den, *_num.values()) == 1, so the zero
    polynomial has _den == 1.  The form is unique, so equality is
    equality of (n, _den, _num).  terms is the Fraction view of it,
    keyed by MultiIndex.

    Instances are treated as immutable; all operations return new objects.
    The public constructors validate and canonicalise their input; every
    arithmetic result is built with _make, which does the one gcd
    reduction of the operation.
    """

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, terms: Mapping[Sequence[int], Scalar] | Iterable = ()):
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        checked = []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for I, c in items:
            ix = I if isinstance(I, MultiIndex) else MultiIndex(I)
            if len(ix) != n:
                raise ValueError(f"multi-index {tuple(ix)} has length {len(ix)}, expected {n}")
            checked.append((ix, _coefficient(c)))
        out = _sum(n, (), checked)
        self.n, self._num, self._den = n, out._num, out._den

    @classmethod
    def _make(cls, n: int, num: dict[tuple, int], den: int) -> "Poly":
        """Unchecked constructor: num maps length-n plain int tuples to nonzero ints, den > 0.

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
        new, den = tuple.__new__, self._den
        return {new(MultiIndex, I): Fraction(c, den) for I, c in self._num.items()}

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
        other = self._coerce(other)
        return _sum(self.n, [(self._num.items(), self._den), (other._num.items(), other._den)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.n, {I: -c for I, c in self._num.items()}, self._den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        other = self._coerce(other)
        return _sum(self.n, [(self._num.items(), self._den), (other._num.items(), -other._den)])

    def __rsub__(self, other: Scalar) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly._make(self.n, {}, 1)
            c = other.numerator
            return Poly._make(self.n, {I: a * c for I, a in self._num.items()}, self._den * other.denominator)
        other = self._coerce(other)
        acc: dict[tuple, int] = {}
        get = acc.get
        for I, c in self._num.items():
            for J, d in other._num.items():
                K = (*map(add, I, J),)
                acc[K] = get(K, 0) + c * d
        return Poly._make(self.n, {K: v for K, v in acc.items() if v}, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        """k - 1 products of self with itself, and 1 at k = 0.

        A one-term self c * t^I needs none: its power is c^k * t^(k*I).
        """
        if k < 0:
            raise ValueError(f"negative power {k} of a polynomial")
        if not k:
            return Poly.const(self.n, 1)
        if len(self._num) == 1:
            ((I, c),) = self._num.items()
            return Poly._make(self.n, {tuple([k * e for e in I]): c**k}, self._den**k)
        out = self
        for _ in range(k - 1):
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
        acc: dict[tuple, int] = {}
        for I, c in self._num.items():
            rest = (*map(sub, I, J),)
            if min(rest) < 0:  # J does not divide I
                continue
            acc[rest] = c * math.prod(map(math.perm, I, J))
        return Poly._make(self.n, acc, self._den)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """The value at point, as integer work with one Fraction at the end.

        With x_i = p_i/q_i and e_i the largest exponent of t_i, the term
        c * x^I is c * prod of p_i^I_i * q_i^(e_i - I_i) over the common
        denominator den * prod of q_i^e_i.
        """
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        xs = [_coefficient(x) for x in point]
        den = self._den
        rows = []  # rows[i][a] = p_i^a * q_i^(e_i - a), for each exponent a of t_i in use
        for x, column in zip(xs, zip(*self._num)):
            e, p, q = max(column), x.numerator, x.denominator
            rows.append({a: p**a * q ** (e - a) for a in set(column)})
            den *= q**e
        total = sum(c * math.prod(map(getitem, rows, I)) for I, c in self._num.items())
        return Fraction(total, den)

    def leading(self) -> tuple[MultiIndex, Fraction]:
        """Leading term under graded-lex order; errors on the zero polynomial."""
        if not self._num:
            raise ValueError("the zero polynomial has no leading term")
        I = max(self._num, key=grlex_key)
        return MultiIndex._make(I), Fraction(self._num[I], self._den)

    def __str__(self) -> str:
        return render_numerators(self._num.items(), self._den, "t", {})

    def __repr__(self) -> str:
        return f"Poly({self.n}: {self})"


def _sum(n: int, parts: Sequence[tuple[Iterable[tuple[tuple, int]], int]], terms: Sequence[tuple[Sequence[int], Scalar]] = (), den: int = 0) -> Poly:
    """The Poly in n variables of the parts and the terms, added over the lcm of their denominators.

    The one adder of the integer form: every part goes over the lcm,
    numerators are added by key, zeros are dropped, and the sum is
    reduced once.  A part is (pairs, den), pairs of distinct length-n
    plain tuple keys and int numerators over den, such as a Poly's;
    a part over -den is subtracted.  A term is (exponents, int or
    Fraction coefficient), the exponents n nonnegative ints, stored as
    a plain tuple.  Keys may repeat across parts and terms, and are
    summed.  den, where nonzero, is that lcm, from a caller that has
    already worked it out.
    """
    den = den or math.lcm(*[d for _, d in parts], *[c.denominator for _, c in terms])
    acc: dict[tuple, int] = {}
    get = acc.get
    for pairs, d in parts:
        scale = den // d
        if not acc:  # nothing to add to yet, and the part's keys are distinct
            acc.update(pairs if scale == 1 else [(key, c * scale) for key, c in pairs])
            continue
        for key, c in pairs:
            if v := get(key, 0) + c * scale:
                acc[key] = v
            else:  # cancelled: the key was there, as no numerator is 0
                del acc[key]
    for key, c in terms:
        key = tuple(key)
        if v := get(key, 0) + c.numerator * (den // c.denominator):
            acc[key] = v
        else:  # cancelled, or a zero coefficient
            acc.pop(key, None)
    return Poly._make(n, acc, den)


def render_numerators(pairs: Iterable[tuple[Sequence[int], int]], den: int, prefix: str, monos: dict) -> str:
    """Canonical text of the terms c/den * prefix^I: descending graded-lex, explicit signs.

    pairs holds (I, c) with c a nonzero int; each coefficient is reduced
    by its own gcd with den.  Examples: '3*t1^2*t2 - 1/2*t2 + 4', '-t1';
    no pairs give '0'.  monos maps each I already formatted to its text
    and gains the others: a caller that prints many coefficients passes
    one dict to them all, so that each monomial is formatted once.  A
    coefficient too long for str() is a ValueError in the words the CLI
    prints for it.
    """
    out = ""
    gcd = math.gcd
    for I, c in sorted(pairs, key=lambda pair: _print_key(pair[0])):
        g = gcd(c, den)
        p, q = abs(c) // g, den // g
        mono = monos.get(I)
        if mono is None:
            mono = monos[I] = format_power_product(I, prefix)
        try:
            mag = str(p) if q == 1 else f"{p}/{q}"
        except ValueError:  # the interpreter's limit on int to str conversion
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"the result has a number longer than {limit} digits, too long to print") from None
        if not mono:
            body = mag
        elif p == 1 == q:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not out:
            out = "-" + body if c < 0 else body
        else:
            out += f" - {body}" if c < 0 else f" + {body}"
    return out or "0"


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
            out.append(MultiIndex._make(acc + [remaining]))
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

    The division runs on integer numerators.  The working terms and the
    remainder share one denominator, p's times a multiplier that grows
    only when a leading coefficient is not a multiple of g's leading
    numerator; the leading term is popped from a heap in descending
    graded-lex order (_print_key ascending).  Scaling g does not change
    the remainder, so g's numerators are used as they stand.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.n != g.n:
        raise ValueError(f"mixing polynomials in {p.n} and {g.n} variables")
    lead_g = max(g._num, key=grlex_key)
    a = g._num[lead_g]
    tail = [(J, d) for J, d in g._num.items() if J != lead_g]
    work = dict(p._num)
    rem: dict[tuple, int] = {}
    heap = [(_print_key(I), I) for I in work]
    heapq.heapify(heap)
    scale = 1
    while heap:
        I = heapq.heappop(heap)[1]
        c = work.pop(I, 0)
        if not c:  # cancelled, or a second heap entry of a term already taken
            continue
        shift = (*map(sub, I, lead_g),)
        if min(shift) < 0:
            rem[I] = c
            continue
        m = abs(a) // math.gcd(c, a)
        if m != 1:  # make c a multiple of a: every coefficient times m
            scale *= m
            c *= m
            work = {K: v * m for K, v in work.items()}
            rem = {K: v * m for K, v in rem.items()}
        q = c // a
        for J, d in tail:
            K = (*map(add, J, shift),)
            v = work.get(K, 0) - q * d
            if v:
                if K not in work:
                    heapq.heappush(heap, (_print_key(K), K))
                work[K] = v
            else:
                work.pop(K, None)
    return Poly._make(p.n, rem, p._den * scale)
