"""Text input: operator, polynomial, and symbol expressions, plus jet tables.

Grammar (whitespace insensitive):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | primary ['^' posint]
    primary  := atom | '(' expr ')'
    atom     := rational | variable
    rational := int ['/' posint]
    variable := prefix posint        e.g. t2, d1, x3

'*' means composition when operators are involved, so it is not
commutative: d1*t1 normalizes to (t1)*d1 + 1.  Which prefixes are legal
depends on what is being parsed: polynomials use t, operators t and d,
symbols t and the xi prefix (x by default).  Numbers and indices are
written in decimal digits, at most MAX_DIGITS of them; other numeric
characters such as '²' are rejected.  Indices go up to MAX_INDEX, and
parentheses and unary minus nest at most MAX_NESTING deep.  Exponents
go up to MAX_EXPONENT.  Every product and power in an expression, and
the two products of parse_commutator and the action of parse_action,
is sized by one rule before any of it is computed, and refused if its
terms times coefficient bits could be over MAX_POWER_BITS.  A jet
table's basis holds at most MAX_JET_BASIS monomials.

Text becomes a tree in two stages: one regular-expression scan into
tokens, then one loop that descends the grammar, with an explicit stack
of the open parentheses, so that no input makes it recurse.  Sum and
product chains come out left-deep.  The tree nodes (Num, Var, Neg, Pow,
Add, Sub, Mul) are plain slotted classes that compare, print and refuse
hashing as dataclasses would; they are not dataclasses, so that
importing the parser stays cheap.  A Num holds an int for an integer
literal and a Fraction only for n/d; the two compare equal where their
values do.

One evaluator turns a tree into a polynomial, an operator or a symbol.
Its values are the kernel's own Poly, sums of normal-ordered terms
c * t^a * y^b: in 2n variables for an operator (y = d) or a symbol (y =
the xi prefix), in n for a polynomial, which has no y.  A product chain
folds left to right into one term: a number multiplies c, and an atom
t_i^k or y_i^k adds k to its exponent, except that an operator's t_i
after a d_i starts the next factor.  A chain of atoms alone stays that
one term, (exponents, coefficient), and the sum adds it into its
integer dict over the lcm of all denominators, with no one-term Poly.
Sums and product chains are walked with an explicit stack, so a sum of
any length needs no recursion.

The evaluator works in two passes.  The first computes every part that
multiplies nothing but atoms, as above, and turns each other product,
power and sum into a plan that carries its shape: an upper bound on its
terms, on its coefficients (the sum of |numerators| and a denominator,
as exact integers), on its exponents and degrees, and a progression
that holds its t- less y-degrees and keeps their parity.  The shape of
a product comes from the star product's rule: the degrees add, the t-
less y-degrees add, and a left word y^X meets a right t^S in one term
for each K <= X, S.  Read off a computed value, a shape counts the
terms by word and power, so that B^2 and B*B, for B = t1*d2 + t2*d3 +
... + t30*d1, are both sized from the terms of B; a shape above that
keeps only the reach.  A power is the k-fold product under the same
rule, iterated for a base in which a d_i meets a t_i, in closed form
otherwise; an action D(p) is the y-degree-0 slice of the product
D * p.  A plan over the budget is refused at once.  The second pass
computes the plans with no checks, each by one kernel call: an
operator's products and powers are DiffOp.compose and DiffOp.__pow__,
a polynomial's or a symbol's are Poly.__mul__ and Poly.__pow__.  The
kernel decides what commutes: a star product in which no d_i on the
left meets a t_i on the right, such as a right factor c * d^b, is its
plain product, and a base that commutes with itself takes the Poly
power, which raises a one-term base in closed form.

Errors carry the 1-based byte offset of the offending token; semantic
errors that have no single position carry offset None.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import reduce
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add, itemgetter, le, mul, sub

from .jets import JetMap
from .operators import DiffOp, _reach, commutator
from .poly import MultiIndex, Poly
from .symbols import SymbolElem

# How deep parentheses and unary minus may nest; each level costs a few
# Python frames in the evaluator, so this stays far below the recursion limit.
MAX_NESTING = 100
# The longest number, in decimal digits: the interpreter's default limit on
# int/str conversion, so every number that prints by default parses back.
MAX_DIGITS = 4300
# The largest variable index, and so the most variables an input can ask for.
MAX_INDEX = 100
# The largest exponent, refused as soon as it is read.
MAX_EXPONENT = 100_000
# The most bits a power or a product may be estimated to hold, terms times
# coefficient bits; a larger one is refused before it is computed.
MAX_POWER_BITS = 2**20
# The most monomials a jet table's basis may have: C(n+K, K) in n variables
# at degree K.
MAX_JET_BASIS = 300
# One entry of a jet table's index: decimal digits, a minus sign allowed so
# that a negative exponent gets its own message.
_JET_ENTRY = re.compile(rf"\s*-?\d{{1,{MAX_DIGITS}}}\s*")


class ParseError(ValueError):
    def __init__(self, offset: int | None, message: str):
        super().__init__(offset, message)
        self.offset = offset
        self.message = message

    def __str__(self) -> str:
        if self.offset is None:
            return f"error: {self.message}"
        return f"parse error at offset {self.offset}: {self.message}"


class _Node:
    """A tree node: slotted, equal to a node of the same class with equal
    fields, unhashable, and shown as Class(field=value, ...)."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        names = self.__slots__
        return tuple(getattr(self, name) for name in names) == tuple(getattr(other, name) for name in names)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value: int | Fraction):
        self.value = value


class Var(_Node):
    __slots__ = ("prefix", "index", "offset")

    def __init__(self, prefix: str, index: int, offset: int):
        self.prefix = prefix
        self.index = index
        self.offset = offset


class Neg(_Node):
    __slots__ = ("inner",)

    def __init__(self, inner: Node):
        self.inner = inner


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: int):
        self.base = base
        self.exponent = exponent


class Add(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right


class Sub(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right


class Mul(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right


Node = Num | Var | Neg | Pow | Add | Sub | Mul

# A token is (kind, text, offset, index): kind is "num", "var", "eof" or the
# operator character itself, and index is the variable index (0 otherwise).
Token = tuple[str, str, int, int]

# After optional whitespace, one of: an operator, a number of at most
# MAX_DIGITS digits, a letter run with the decimal digits after it, a longer
# number, any other character, the end.  The first three never match at one
# place, so trying the operator first changes no token.  \d is exactly what
# int() reads; the letter class also takes numeric characters such as '²'
# and '½', which _bad_variable rejects.
_TOKEN = re.compile(rf"\s*(?:([-+*^/()])|(\d{{1,{MAX_DIGITS}}})(?!\d)|([^\W\d_]+)(\d*)|(\d+)|(.)|\Z)", re.DOTALL)


def _tokenize(src: str, prefixes: frozenset[str]) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        if group == 1:
            append((m[1], m[1], m.end(), 0))
        elif group == 4:
            word, digits = m[3], m[4]
            if not (word in prefixes and 0 < len(digits) <= MAX_DIGITS and 0 < (index := int(digits)) <= MAX_INDEX):
                _bad_variable(word, digits, m.start(3) + 1, prefixes)
            append(("var", word, m.start(3) + 1, index))
        elif group == 2:
            append(("num", m[2], m.start(2) + 1, 0))
        elif group == 5:
            raise ParseError(m.start(5) + 1, f"number longer than {MAX_DIGITS} digits")
        elif group == 6:
            raise ParseError(m.end(), f"unexpected character {m[6]!r}")
    append(("eof", "", len(src) + 1, 0))
    return tokens


def _bad_variable(word: str, digits: str, offset: int, prefixes: frozenset[str]) -> None:
    """Raise the error for a letter run and the digits after it that do not make a variable."""
    stray = None
    if not word.isalpha():  # the letters end at a numeric character such as '²'
        cut = next(i for i, ch in enumerate(word) if not ch.isalpha())
        stray = (offset + cut, word[cut])
        word, digits = word[:cut], ""
        if not word:
            raise ParseError(stray[0], f"unexpected character {stray[1]!r}")
    if word not in prefixes:
        expected = ", ".join(sorted(prefixes))
        raise ParseError(offset, f"unknown variable {word!r}; expected one of: {expected}")
    if not digits:
        if stray is not None and stray[1].isdigit():
            raise ParseError(stray[0], f"unexpected character {stray[1]!r}")
        raise ParseError(offset, f"variable {word!r} needs a numeric index")
    if len(digits) > MAX_DIGITS:
        raise ParseError(offset + len(word), f"number longer than {MAX_DIGITS} digits")
    if int(digits) < 1:
        raise ParseError(offset, "variable index must be at least 1")
    raise ParseError(offset, f"variable index {int(digits)} exceeds {MAX_INDEX}")


def _parse(tokens: list[Token]) -> Node:
    """The tree of the tokens, by one loop over them.

    The state is that of the innermost open parenthesis: its sum so far,
    the pending '+' or '-' (Add or Sub), its product so far and the count
    of minus signs before the factor being read.  '(' pushes the state
    of the level it opens; ')' pops it, and the closed sum is a primary.
    depth counts open parentheses and the minus signs whose factor is
    not yet read.
    """
    stack: list[tuple] = []
    total = op = prod = None
    negs = depth = pos = 0
    while True:
        kind, text, offset, index = tokens[pos]
        pos += 1
        if kind == "var":
            node = Var(text, index, offset)
        elif kind == "num":
            value = int(text)
            if tokens[pos][0] == "/":
                kind, text, offset, _ = tokens[pos + 1]
                if kind != "num":
                    raise ParseError(offset, "expected a positive integer denominator")
                if (den := int(text)) < 1:
                    raise ParseError(offset, "denominator must be positive")
                value, pos = Fraction(value, den), pos + 2
            node = Num(value)
        elif kind == "-" or kind == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(offset, f"parentheses and unary minus nest deeper than {MAX_NESTING} levels")
            if kind == "-":
                negs += 1
            else:
                stack.append((total, op, prod, negs))
                total = op = prod = None
                negs = 0
            continue
        else:
            raise ParseError(offset, "expected a number, a variable, or '('")
        while True:  # node is a primary: take its power and signs, then what follows the factor
            kind, _, offset, _ = tokens[pos]
            pos += 1
            if kind == "^":
                kind, text, offset, _ = tokens[pos]
                if kind != "num":
                    raise ParseError(offset, "expected a positive integer exponent")
                if (exponent := int(text)) < 1:
                    raise ParseError(offset, "exponent must be at least 1")
                if exponent > MAX_EXPONENT:
                    raise ParseError(offset, f"exponent larger than {MAX_EXPONENT}")
                node = Pow(node, exponent)
                kind, _, offset, _ = tokens[pos + 1]
                pos += 2
            if negs:
                depth -= negs
                for _ in range(negs):
                    node = Neg(node)
                negs = 0
            prod = node if prod is None else Mul(prod, node)
            if kind == "*":
                break
            total, prod = prod if op is None else op(total, prod), None
            if kind == "+" or kind == "-":
                op = Add if kind == "+" else Sub
                break
            if not stack:
                if kind != "eof":
                    raise ParseError(offset, "unexpected trailing input")
                return total
            if kind != ")":
                raise ParseError(offset, "expected ')'")
            depth -= 1
            node = total
            total, op, prod, negs = stack.pop()


def parse_ast(src: str, prefixes: frozenset[str] | set[str]) -> Node:
    return _parse(_tokenize(src, frozenset(prefixes)))


def max_index(node: Node, prefixes: frozenset[str] | set[str] | None = None) -> int:
    """Largest variable index in the tree (restricted to prefixes if given); 0 if none."""
    best = 0
    stack = [node]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            if node.index > best and (prefixes is None or node.prefix in prefixes):
                best = node.index
        elif cls is Neg:
            stack.append(node.inner)
        elif cls is Pow:
            stack.append(node.base)
        elif cls is not Num:
            stack.append(node.left)
            stack.append(node.right)
    return best


# An upper bound on a value that is not computed yet: at most terms terms,
# whose numerators over den (a multiple of the true denominator) add up to at
# most num in absolute value.  reach bounds each exponent; tdeg, ddeg and deg
# bound a term's t-, y- and total degree; every t- less y-degree of a term is
# among lo, lo + step, ..., hi for gaps = (lo, hi, step), which keeps their
# parity.  keys holds the terms' exponents where the shape is read off a value.
_Shape = namedtuple("_Shape", "terms num den reach tdeg ddeg deg gaps keys", defaults=(None,))
# A product chain (op "mul", args its factors), a power (op "pow", args (base,
# k)) or a sum (op "sum", args its parts) that is sized but not computed.  A
# sum's shape is worked out only when the sum is a factor.
_Plan = namedtuple("_Plan", "op args shape")


class _Evaluator:
    """Evaluates a tree in t1..tn and y1..yn, y named by the prefix second.

    Every value is a Poly in the kernel's integer form: in n variables
    for polynomials (second is None), else in 2n with y_i in slot n+i.
    reorder says that y_i = d_i does not commute with t_i, so that the
    values are operators.  sum turns a tree into a plan: product-free
    parts are computed at once, and every product and power is sized by
    its shape, and refused if that is over MAX_POWER_BITS, before
    anything is multiplied.  value then maps the plan to kernel calls,
    with no further checks.
    """

    def __init__(self, n: int, second: str | None, reorder: bool):
        self.n, self.second, self.reorder = n, second, reorder
        self.width = n if second is None else 2 * n

    def run(self, node: Node) -> Poly:
        return self.value(self.sum(node))

    def sum(self, node: Node) -> Poly | _Plan:
        polys, terms, plans = [], [], []  # Polys, (exponents, coefficient) terms, and plans
        stack = [(node, 1)]
        pop, push = stack.pop, stack.append
        while stack:
            node, sign = pop()
            cls = type(node)
            if cls is Add:
                push((node.right, sign))
                push((node.left, sign))
            elif cls is Sub:
                push((node.right, -sign))
                push((node.left, sign))
            elif cls is Neg:
                push((node.inner, -sign))
            else:
                part = self.product(node, sign)
                (terms if type(part) is tuple else plans if type(part) is _Plan else polys).append(part)
        value = self.add(polys, terms)
        return _Plan("sum", [value, *plans] if value else plans, None) if plans else value

    def add(self, polys: list[Poly], terms: list[tuple[list[int], int | Fraction]]) -> Poly:
        """The sum of the Polys and the terms (exponents, coefficient)."""
        if not terms and len(polys) == 1:
            return polys[0]
        # all parts at once over one denominator: pairwise + would be quadratic in long sums
        den = lcm(*(part._den for part in polys), *(c.denominator for _, c in terms))
        acc: dict[tuple, int] = {}
        get = acc.get
        for part in polys:
            scale = den // part._den
            for key, c in part._num.items():
                acc[key] = get(key, 0) + c * scale
        for exps, c in terms:
            key = tuple(exps)
            acc[key] = get(key, 0) + c.numerator * (den // c.denominator)
        return Poly._make(self.width, {key: c for key, c in acc.items() if c}, den)

    def product(self, node: Node, c: int | Fraction) -> Poly | _Plan | tuple[list[int], int | Fraction]:
        """c times the product chain at node, folded left to right.

        The factors seen so far are those in factors times the pending
        term c * t^a * y^b, with its exponents in exps; atoms that need
        no reordering go into the pending term.  A chain of atoms alone
        is that one term, returned as (exps, c) for the sum to add in;
        any other chain is sized as a whole before it becomes a plan.
        """
        n, width, reorder = self.n, self.width, self.reorder
        exps = [0] * width
        factors: list[Poly | _Plan] = []
        stack = [node]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            cls = type(node)
            if cls is Mul:
                push(node.right)
                push(node.left)
                continue
            if cls is Neg:
                c = -c
                push(node.inner)
                continue
            k = 1
            if cls is Pow and type(node.base) in (Num, Var):
                node, k = node.base, node.exponent
                cls = type(node)
            if cls is Num:
                value = node.value
                if value.denominator == 1:
                    value = value.numerator
                if k != 1:
                    self.raised(self.shape(_term([0] * width, value)), k)
                    value **= k
                c = value if c == 1 else -value if c == -1 else c * value
                continue
            if cls is Var:
                s = self.slot(node)
                if reorder and s < n and exps[n + s]:  # t_i after d_i: the pending term is a factor
                    factors.append(_term(exps, c))
                    c, exps = 1, [0] * width
                exps[s] += k
                continue
            if cls is Pow:
                base, k = self.sum(node.base), node.exponent
                factor = _Plan("pow", (base, k), self.raised(self.shape(base), k))
            else:
                factor = self.sum(node)
            if c != 1 or any(exps):
                factors.append(_term(exps, c))
                c, exps = 1, [0] * width
            factors.append(factor)
        if not factors:
            return exps, c
        if c != 1 or any(exps):
            factors.append(_term(exps, c))
        if len(factors) == 1:
            return factors[0]
        return _Plan("mul", factors, reduce(lambda out, s: self.times(out, s, "the product"), map(self.shape, factors)))

    def slot(self, var: Var) -> int:
        if var.index > self.n:
            raise ParseError(var.offset, f"variable index {var.index} exceeds the {self.n} available variables")
        if var.prefix == "t":
            return var.index - 1
        if var.prefix == self.second:
            return self.n + var.index - 1
        expected = "t" if self.second is None else ", ".join(sorted({"t", self.second}))
        raise ParseError(var.offset, f"unknown variable {var.prefix!r}; expected one of: {expected}")

    def value(self, x: Poly | _Plan) -> Poly:
        """x computed by the kernel; a plan has passed its size checks, so none are made here.

        Products and powers are the kernel's: DiffOp.compose and
        DiffOp.__pow__ for an operator, Poly.__mul__ and Poly.__pow__
        otherwise.  The kernel finds by itself the factors that commute.
        """
        if type(x) is not _Plan:
            return x
        if x.op == "sum":
            return self.add(list(map(self.value, x.args)), [])
        n = self.n
        if x.op == "pow":
            base, k = self.value(x.args[0]), x.args[1]
            return (DiffOp._make(n, base) ** k).poly if self.reorder else base**k
        factors = map(self.value, x.args)
        if self.reorder:
            return reduce(DiffOp.compose, (DiffOp._make(n, f) for f in factors)).poly
        return reduce(mul, factors)

    # -- the size rule --------------------------------------------------------

    def shape(self, x: Poly | _Plan) -> _Shape:
        """x's shape: a plan's own, a sum's from its parts, or one read off a value's terms."""
        if type(x) is _Plan:
            return x.shape or self.union([self.shape(part) for part in x.args])
        n, keys = self.n, x._num
        ts, ds = list(map(sum, map(itemgetter(slice(n)), keys))), list(map(sum, map(itemgetter(slice(n, None)), keys)))
        gaps = set(map(sub, ts, ds)) or {0}
        lo = min(gaps)
        return _Shape(
            len(keys), sum(map(abs, keys.values())), x._den, _reach(keys) or [0] * self.width, max(ts, default=0),
            max(ds, default=0), max(map(add, ts, ds), default=0), (lo, max(gaps), gcd(*(g - lo for g in gaps))), keys,
        )

    def union(self, shapes: list[_Shape]) -> _Shape:
        """The shape of the sum of parts with these shapes."""
        terms, nums, dens, reaches, tdegs, ddegs, degs, gaps, _ = zip(*shapes)
        (los, his, steps), den = zip(*gaps), lcm(*dens)
        return _Shape(
            sum(terms), sum(num * (den // d) for num, d in zip(nums, dens)), den, list(map(max, zip(*reaches))),
            max(tdegs), max(ddegs), max(degs), (min(los), max(his), gcd(*steps, *(lo - min(los) for lo in los))),
        )

    def times(self, left: _Shape, right: _Shape, what: str, action: bool = False) -> _Shape:
        """The shape of left * right, or of left acting on a polynomial right; refused as what if over the budget.

        The star product's rule: a left term t^T y^X meets a right term
        t^S y^Y in one term t^(T+S-K) y^(X+Y-K) for each K <= X, S, with
        binom(X, K) * perm(S, K) times their coefficients.  Summed over
        K, that is at most (1 + s)^x and (1 + x)^s for x = |X|, s = |S|.
        So |A| - |B| of each term is the sum of the factors' gaps, and
        the degrees add.  An action is the y-degree-0 slice: K = X only,
        which needs X <= S (checked where the words are known) and
        multiplies by perm(S, X) <= s^x.  Where no y_i meets a t_i, each
        pair of terms makes one term.  The pairs are counted by word and
        power where a shape is read off a value, else as all at the
        reach; x and s are at most the degrees.
        """
        n = self.n
        steps, grow = left.terms * right.terms, 1
        if action or self.reorder and any(map(min, left.reach[n:], right.reach)):  # some y_i meets a t_i
            steps, (words, powers) = 0, (
                {tuple(s.reach[i:j]): s.terms} if s.keys is None else Counter(map(itemgetter(slice(i, j)), s.keys))
                for s, i, j in ((left, n, None), (right, 0, n))
            )
            for X, a in words.items():
                x = min(sum(X), left.ddeg)
                for S, b in powers.items():
                    s = min(sum(S), right.tdeg)
                    if action and left.keys is not None and not all(map(le, X, S)):
                        continue  # a word beyond the power meets no term
                    steps += a * b * (1 if action else prod(min(u, v) + 1 for u, v in zip(X, S)))
                    grow = max(grow, _power(s if action else 1 + max(x, s), min(x, s), what))
        (lo, hi, step), (lo2, hi2, step2) = left.gaps, right.gaps
        return self.fit(_Shape(
            steps, left.num * right.num * grow, left.den * right.den, list(map(add, left.reach, right.reach)),
            left.tdeg + right.tdeg, 0 if action else left.ddeg + right.ddeg, left.deg + right.deg,
            (lo + lo2, hi + hi2, gcd(step, step2)),
        ), what)

    def raised(self, base: _Shape, k: int) -> _Shape:
        """The shape of base^k, refused if over the budget.

        Where no y_i meets a t_i in the base, the power has at most the
        multisets of k of its terms, degrees and reach times k, and
        num^k over den^k.  Any other base is the k-fold product, sized
        one factor at a time and refused at the first that is over.
        """
        what, reach, (lo, hi, step) = f"the power ^{k}", base.reach, base.gaps
        if self.reorder and any(map(min, reach, reach[self.n :])):
            return reduce(lambda out, _: self.times(out, base, what), range(k - 1), base)
        return self.fit(_Shape(
            comb(base.terms + k - 1, k), _power(base.num, k, what), _power(base.den, k, what), [k * r for r in reach],
            k * base.tdeg, k * base.ddeg, k * base.deg, (k * lo, k * hi, step),
        ), what)

    def fit(self, s: _Shape, what: str) -> _Shape:
        """s with its terms cut to the monomials its degrees allow, if fewer; refused as what if over the budget.

        Over the budget is terms times coefficient bits, those of num
        and den, over MAX_POWER_BITS.  The monomials t^A y^B counted
        have |A| - |B| among the gaps, |A| <= tdeg, |B| <= ddeg and |A|
        + |B| <= deg, in the variables s reaches.  Each gap allows at
        least one, so the count stops after at most terms or cap steps,
        whichever is fewer.
        """
        n, cap = self.n, MAX_POWER_BITS // (s.num.bit_length() + s.den.bit_length()) + 1
        used_t, used_d = n - s.reach[:n].count(0), len(s.reach[n:]) - s.reach[n:].count(0)
        (lo, hi, step), count = s.gaps, 0
        for gap in range(lo, hi + 1, step or 1):
            for a in range(max(gap, 0), min(s.tdeg, gap + s.ddeg, (gap + s.deg) // 2) + 1):
                count += _monomials(a, used_t) * _monomials(a - gap, used_d)
                if count >= min(s.terms, cap):
                    if s.terms < cap:
                        return s
                    raise _too_large(what)
        return s._replace(terms=count)


def _term(exps: list[int], c: int | Fraction) -> Poly:
    """The one-term Poly c * t^a * y^b with exponents exps."""
    num = {tuple(exps): c.numerator} if c else {}
    return Poly._make(len(exps), num, c.denominator)


def _monomials(degree: int, variables: int) -> int:
    """How many monomials of exactly this degree the variables have."""
    return comb(degree + variables - 1, variables - 1) if variables else int(degree == 0)


def _power(base: int, k: int, what: str) -> int:
    """base**k; refused as what if that has more than MAX_POWER_BITS bits, and so is over any budget."""
    if (base.bit_length() - 1) * k > MAX_POWER_BITS:
        raise _too_large(what)
    return base**k


def _too_large(what: str) -> ParseError:
    bound = f"its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    return ParseError(None, f"{what} is too large to expand: {bound}")


def to_poly(node: Node, n: int) -> Poly:
    return _Evaluator(n, None, False).run(node)


def to_diffop(node: Node, n: int) -> DiffOp:
    return DiffOp._make(n, _Evaluator(n, "d", True).run(node))


def variable_count(n: int | None, *trees: Node) -> int:
    """n when given, else the largest variable index in the trees (at least 1)."""
    return n if n is not None else max(1, *map(max_index, trees))


def parse_operator(src: str, n: int | None = None) -> DiffOp:
    """Operator expression in t and d variables; n inferred as the max index."""
    tree = parse_ast(src, {"t", "d"})
    return to_diffop(tree, variable_count(n, tree))


def parse_poly(src: str, n: int | None = None) -> Poly:
    tree = parse_ast(src, {"t"})
    return to_poly(tree, variable_count(n, tree))


def parse_commutator(left: str, right: str, n: int | None = None) -> DiffOp:
    """[A, B] of two operator expressions in one shared n, inferred as the max index unless given.

    Both products, A * B and B * A, are sized by the rule for a product
    in an expression, on the expressions, before either is computed.
    """
    trees = parse_ast(left, {"t", "d"}), parse_ast(right, {"t", "d"})
    evaluator = _Evaluator(variable_count(n, *trees), "d", True)
    a, b = map(evaluator.sum, trees)
    A, B = evaluator.shape(a), evaluator.shape(b)
    evaluator.times(A, B, "the product")
    evaluator.times(B, A, "the product")
    return commutator(*(DiffOp._make(evaluator.n, evaluator.value(x)) for x in (a, b)))


def parse_action(expr: str, poly: str, n: int | None = None) -> Poly:
    """D(p) for an operator and a polynomial expression in one shared n, inferred unless given.

    The action is sized as the y-degree-0 slice of the product D * p,
    on the expressions, before either is computed.
    """
    trees = parse_ast(expr, {"t", "d"}), parse_ast(poly, {"t"})
    n = variable_count(n, *trees)
    operator, polynomial = _Evaluator(n, "d", True), _Evaluator(n, None, False)
    d, p = operator.sum(trees[0]), polynomial.sum(trees[1])
    operator.times(operator.shape(d), polynomial.shape(p), "the action", action=True)
    return DiffOp._make(n, operator.value(d)).apply(polynomial.value(p))


def check_xi_prefix(prefix: str) -> str:
    """The prefix of the symbol variables: letters other than t, so printed symbols parse back."""
    if not prefix.isalpha() or prefix == "t":
        raise ValueError(f"bad xi prefix {prefix!r}: need letters other than 't'")
    return prefix


def parse_symbol(src: str, n: int | None = None, xi_prefix: str = "x") -> SymbolElem:
    """Symbol expression in t and xi variables, homogeneous in the xi's (else an error)."""
    check_xi_prefix(xi_prefix)
    ast = parse_ast(src, {"t", xi_prefix})
    n = variable_count(n, ast)
    poly = _Evaluator(n, xi_prefix, False).run(ast)
    grades = {sum(key[n:]) for key in poly._num} or {0}
    if len(grades) > 1:
        lo, hi = min(grades), max(grades)
        raise ParseError(
            None,
            f"symbol mixes {xi_prefix}-degrees {lo} and {hi}; a symbol is homogeneous in {xi_prefix}",
        )
    return SymbolElem._make(n, poly, grades.pop())


def parse_jet_map(text: str, degree: int, n: int | None = None) -> JetMap:
    """Jet table in the line format 'i1,...,in -> polynomial'.

    Each index entry is decimal digits.  Blank lines are skipped; absent
    monomials default to the zero value; duplicate lines for one
    monomial are an error.  The number of variables is the number of
    index entries unless n is given.
    """
    if degree < 0:
        raise ParseError(None, f"degree must be nonnegative, got {degree}")
    entries: list[tuple[int, tuple[int, ...], str]] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(None, f"line {lineno}: expected 'i1,...,in -> polynomial'")
        left, _, right = line.partition("->")
        parts = left.split(",")
        if not all(map(_JET_ENTRY.fullmatch, parts)):
            raise ParseError(None, f"line {lineno}: bad monomial index {left.strip()!r}")
        exps = tuple(map(int, parts))
        if any(e < 0 for e in exps):
            raise ParseError(None, f"line {lineno}: negative exponent in {exps}")
        if width is None:
            if len(exps) > MAX_INDEX:
                raise ParseError(None, f"line {lineno}: index has {len(exps)} entries, more than {MAX_INDEX}")
            width = len(exps)
        elif len(exps) != width:
            raise ParseError(
                None, f"line {lineno}: index has {len(exps)} entries, earlier lines have {width}"
            )
        entries.append((lineno, exps, right.strip()))
    if n is None:
        if width is None:
            raise ParseError(
                None, "cannot infer the number of variables from an empty table; pass --vars"
            )
        n = width
    elif width is not None and width != n:
        raise ParseError(None, f"index width {width} does not match the requested {n} variables")
    if comb(n + degree, degree) > MAX_JET_BASIS:
        raise ParseError(
            None, f"a table of degree {degree} in {n} variables has more than {MAX_JET_BASIS} monomials"
        )
    values: dict[MultiIndex, Poly] = {}
    for lineno, exps, rhs in entries:
        if sum(exps) > degree:
            raise ParseError(
                None, f"line {lineno}: monomial degree {sum(exps)} exceeds the table degree {degree}"
            )
        key = MultiIndex(exps)
        if key in values:
            raise ParseError(None, f"line {lineno}: duplicate entry for {exps}")
        try:
            values[key] = parse_poly(rhs, n=n)
        except ParseError as exc:
            where = f" at offset {exc.offset} in the value" if exc.offset is not None else ""
            raise ParseError(None, f"line {lineno}{where}: {exc.message}") from None
    return JetMap(n, degree, values)
