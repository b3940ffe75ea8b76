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
go up to MAX_EXPONENT, and a power or a product whose estimated size
(terms times coefficient bits) is over MAX_POWER_BITS is refused before
it is expanded; check_action estimates an operator applied to a
polynomial against the same budget.  A jet table's basis holds at most
MAX_JET_BASIS monomials.

Text becomes a tree in two stages: one regular-expression scan into
tokens, then recursive descent over the grammar.  Sum and product
chains come out left-deep, so only nesting makes the descent recurse.
The tree nodes (Num, Var, Neg, Pow, Add, Sub, Mul) are plain slotted
classes that compare, print and refuse hashing as dataclasses would;
they are not dataclasses, so that importing the parser stays cheap.

One evaluator turns a tree into a polynomial, an operator or a symbol.
Its values are the kernel's own Poly, sums of normal-ordered terms
c * t^a * y^b: in 2n variables for an operator (y = d) or a symbol (y =
the xi prefix), in n for a polynomial, which has no y.  A product chain
folds left to right into one term: a number multiplies c, an atom
t_i^k or y_i^k adds k to its exponent, and a right factor c * d^b just
shifts the words on its left.  A chain of atoms alone stays that one
term, (exponents, coefficient), and the sum adds it into its integer
dict over the lcm of all denominators, with no one-term Poly.  Every
other product is estimated against MAX_POWER_BITS first.  Where a t_i
follows a d_i, or a compound factor meets the derivatives on its left,
DiffOp.compose reorders the product; otherwise it is the Poly product,
as it always is for symbols and polynomials.  Powers are the kernel's powers.  Sums and product
chains are walked with an explicit stack, so a sum of any length needs
no recursion.

Errors carry the 1-based byte offset of the offending token; semantic
errors that have no single position carry offset None.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from math import comb, lcm, perm, prod
from operator import add, ge, le, sub

from .jets import JetMap
from .operators import DiffOp, _reach
from .poly import MultiIndex, Poly
from .symbols import SymbolElem

# How deep parentheses and unary minus may nest; each level costs a few
# Python frames in the parser, so this stays far below the recursion limit.
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


class ParseError(Exception):
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

    def __init__(self, value: Fraction):
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

# After optional whitespace, one of: decimal digits, a letter run with the
# decimal digits after it, an operator, any other character, the end.  \d is
# exactly what int() reads; the letter class also takes numeric characters
# such as '²' and '½', which _variable rejects.
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d_]+)(\d*)|([-+*^/()])|(.)|\Z)", re.DOTALL)


def _tokenize(src: str, prefixes: frozenset[str]) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        if group == 4:
            append((m[4], m[4], m.end(), 0))
        elif group == 1:
            _check_length(m[1], m.start(1) + 1)
            append(("num", m[1], m.start(1) + 1, 0))
        elif group == 3:
            append(_variable(m[2], m[3], m.start(2) + 1, prefixes))
        elif group == 5:
            raise ParseError(m.end(), f"unexpected character {m[5]!r}")
    append(("eof", "", len(src) + 1, 0))
    return tokens


def _variable(word: str, digits: str, offset: int, prefixes: frozenset[str]) -> Token:
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
    _check_length(digits, offset + len(word))
    index = int(digits)
    if index < 1:
        raise ParseError(offset, "variable index must be at least 1")
    if index > MAX_INDEX:
        raise ParseError(offset, f"variable index {index} exceeds {MAX_INDEX}")
    return ("var", word, offset, index)


def _check_length(digits: str, offset: int) -> None:
    if len(digits) > MAX_DIGITS:
        raise ParseError(offset, f"number longer than {MAX_DIGITS} digits")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def parse(self) -> Node:
        node = self.expr()
        kind, _, offset, _ = self.tokens[self.pos]
        if kind != "eof":
            raise ParseError(offset, "unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        tokens = self.tokens
        while True:
            kind = tokens[self.pos][0]
            if kind == "+":
                self.pos += 1
                node = Add(node, self.term())
            elif kind == "-":
                self.pos += 1
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        tokens = self.tokens
        while tokens[self.pos][0] == "*":
            self.pos += 1
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        tokens = self.tokens
        tok = tokens[self.pos]
        self.pos += 1
        kind, text, offset, index = tok
        if kind == "var":
            node = Var(text, index, offset)
        elif kind == "num":
            if tokens[self.pos][0] == "/":
                self.pos += 1
                den = self.positive("expected a positive integer denominator", "denominator must be positive")
                node = Num(Fraction(int(text), den))
            else:
                node = Num(Fraction(int(text)))
        elif kind == "-":
            self.enter(tok)
            node = Neg(self.factor())
            self.depth -= 1
            return node
        elif kind == "(":
            self.enter(tok)
            node = self.expr()
            kind, _, offset, _ = tokens[self.pos]
            if kind != ")":
                raise ParseError(offset, "expected ')'")
            self.pos += 1
            self.depth -= 1
        else:
            raise ParseError(offset, "expected a number, a variable, or '('")
        if tokens[self.pos][0] == "^":
            self.pos += 1
            offset = tokens[self.pos][2]
            exponent = self.positive("expected a positive integer exponent", "exponent must be at least 1")
            if exponent > MAX_EXPONENT:
                raise ParseError(offset, f"exponent larger than {MAX_EXPONENT}")
            node = Pow(node, exponent)
        return node

    def positive(self, expected: str, too_small: str) -> int:
        kind, text, offset, _ = self.tokens[self.pos]
        if kind != "num":
            raise ParseError(offset, expected)
        self.pos += 1
        value = int(text)
        if value < 1:
            raise ParseError(offset, too_small)
        return value

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok[2], f"parentheses and unary minus nest deeper than {MAX_NESTING} levels")


def parse_ast(src: str, prefixes: frozenset[str] | set[str]) -> Node:
    return _Parser(_tokenize(src, frozenset(prefixes))).parse()


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


class _Evaluator:
    """Evaluates a tree in t1..tn and y1..yn, y named by the prefix second.

    Every value is a Poly in the kernel's integer form: in n variables
    for polynomials (second is None), else in 2n with y_i in slot n+i.
    reorder says that y_i = d_i does not commute with t_i.  Every
    product and power is estimated against MAX_POWER_BITS before it is
    expanded.
    """

    def __init__(self, n: int, second: str | None, reorder: bool):
        self.n = n
        self.second = second
        self.width = n if second is None else 2 * n
        self.reorder = reorder

    def sum(self, node: Node) -> Poly:
        polys: list[Poly] = []
        terms: list[tuple[list[int], int | Fraction]] = []
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
                if type(part) is tuple:
                    terms.append(part)
                else:
                    polys.append(part)
        if not terms and len(polys) == 1:
            return polys[0]
        # all parts at once over one denominator: pairwise + would be quadratic in long sums
        den = lcm(*(part._den for part in polys), *(c.denominator for _, c in terms))
        acc: dict[MultiIndex, int] = {}
        get = acc.get
        for part in polys:
            scale = den // part._den
            for key, c in part._num.items():
                acc[key] = get(key, 0) + c * scale
        new = tuple.__new__
        for exps, c in terms:
            key = new(MultiIndex, exps)
            acc[key] = get(key, 0) + c.numerator * (den // c.denominator)
        return Poly._make(self.width, {key: c for key, c in acc.items() if c}, den)

    def product(self, node: Node, c: int | Fraction) -> Poly | tuple[list[int], int | Fraction]:
        """c times the product chain at node, folded left to right.

        The factors seen so far are done * (c * t^a * y^b), with the
        pending term's exponents in exps; atoms that need no reordering
        go into the pending term.  A chain of atoms alone is that one
        term, returned as (exps, c) for the sum to add in.
        """
        n, width, reorder = self.n, self.width, self.reorder
        exps = [0] * width
        done: Poly | None = None
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
            if cls is Pow and type(node.base) in _ATOMS:
                node, k = node.base, node.exponent
                cls = type(node)
            if cls is Num:
                value = node.value
                if value.denominator == 1:
                    value = value.numerator
                if k != 1:
                    _check_power(k, 1, _coefficient_bits(_term([0], value)))
                    value **= k
                c = value if c == 1 else -value if c == -1 else c * value
                continue
            if cls is Var:
                s = self.slot(node)
                if not (reorder and s < n and exps[n + s]):
                    exps[s] += k
                    continue
                unit = [0] * width
                unit[s] = k
                factor = _term(unit, 1)
            elif cls is Pow:
                factor = self.power(self.sum(node.base), node.exponent)
            else:
                factor = self.sum(node)
            if c != 1 or any(exps):
                done = self.mul(done, _term(exps, c))
                c, exps = 1, [0] * width
            done = self.mul(done, factor)
        if done is None:
            return exps, c
        if c == 1 and not any(exps):
            return done
        return self.mul(done, _term(exps, c))

    def slot(self, var: Var) -> int:
        if var.index > self.n:
            raise ParseError(
                var.offset, f"variable index {var.index} exceeds the {self.n} available variables"
            )
        if var.prefix == "t":
            return var.index - 1
        if var.prefix == self.second:
            return self.n + var.index - 1
        expected = "t" if self.second is None else ", ".join(sorted({"t", self.second}))
        raise ParseError(var.offset, f"unknown variable {var.prefix!r}; expected one of: {expected}")

    def mul(self, left: Poly | None, right: Poly) -> Poly:
        """left * right, checked against the size budget first; None stands for 1."""
        if left is None:
            return right
        self.check_product(left, right)
        if self.reorder and self.reorders(left, right):
            n = self.n
            return DiffOp._make(n, left).compose(DiffOp._make(n, right)).poly
        return left * right

    def power(self, base: Poly, k: int) -> Poly:
        if base:
            _check_power(k, self.power_terms(base, k), _coefficient_bits(base))
        if self.reorder and self.reorders(base, base):
            return (DiffOp._make(self.n, base) ** k).poly
        return base**k

    def power_terms(self, base: Poly, k: int) -> int:
        """An upper bound on the terms of base^k.

        At most the monomials of degree k*D in the variables base uses (D
        its degree) and the box of k times their largest exponents; where
        no d_i meets a t_i, also at most the multisets of k terms of base.
        """
        highs = [max(column) for column in zip(*base._num)]
        used = sum(1 for h in highs if h)
        bound = min(comb(used + k * max(map(sum, base._num)), used), prod(k * h + 1 for h in highs))
        n = self.n
        if not (self.reorder and any(highs[i] and highs[n + i] for i in range(n))):
            bound = min(bound, comb(len(base._num) + k - 1, k))
        return bound

    def check_product(self, left: Poly, right: Poly) -> None:
        """Refuse a product whose estimated size is over MAX_POWER_BITS.

        The terms are at most those DiffOp.compose works out: a left word
        d^X meeting a right t^S gives one for each K <= X, S, so the
        product over i of min(X_i, S_i) + 1.  Where the evaluator does not
        reorder, every left term counts as the empty word, so a product
        of commuting factors is charged its pairs of terms.  Where that is
        over the budget, product_terms counts the possible results
        instead.  The sum over K of binom(X_i, K_i) * perm(S_i, K_i) is
        at most (1 + S_i)^X_i and (1 + X_i)^S_i, which bounds what
        reordering adds to the coefficient bits.
        """
        n = self.n
        cut = n if self.reorder else self.width
        words = Counter(key[cut:] for key in left._num)
        powers = Counter(key[:n] for key in right._num)
        work = grow = 0
        for X, a in words.items():
            for S, b in powers.items():
                work += a * b * prod(min(x, s) + 1 for x, s in zip(X, S))
                grow = max(grow, sum(min(x * (s + 1).bit_length(), s * (x + 1).bit_length()) for x, s in zip(X, S)))
        bits = _coefficient_bits(left) + _coefficient_bits(right) + grow
        cap = MAX_POWER_BITS // bits + 1
        if work >= cap and self.product_terms(left, right, cap) >= cap:
            raise ParseError(
                None,
                f"the product is too large to expand: its estimated terms times coefficient bits exceed {MAX_POWER_BITS}",
            )

    def product_terms(self, left: Poly, right: Poly, cap: int) -> int:
        """An upper bound on the terms of the product, or cap if that is less.

        t^T d^X times t^S d^Y gives terms t^A d^B with A = T + S - K and
        B = X + Y - K, so |A| - |B| = (|T| - |X|) + (|S| - |Y|), |A| and
        |B| stay within the largest t- and d-degrees of the factors
        added, and |A| + |B| within their largest total degrees added.
        The bound counts the monomials of each degree pair (|A|, |B|)
        allowed, in the t and d variables the factors use.
        """
        n = self.n
        (tl, dl, sl, gaps_l), (tr, dr, sr, gaps_r) = _degree_shape(left, n), _degree_shape(right, n)
        keys = (*left._num, *right._num)
        used_t = sum(1 for i in range(n) if any(key[i] for key in keys))
        used_d = sum(1 for i in range(n, self.width) if any(key[i] for key in keys))
        count = 0
        for gap in {a + b for a in gaps_l for b in gaps_r}:
            for a in range(max(gap, 0), tl + tr + 1):
                b = a - gap
                if b > dl + dr or a + b > sl + sr:
                    break
                count += _monomials(a, used_t) * _monomials(b, used_d)
                if count >= cap:
                    return cap
        return count

    def reorders(self, left: Poly, right: Poly) -> bool:
        """Does some d_i on the left meet a t_i on the right?"""
        n = self.n
        ts = {i for key in right._num for i in range(n) if key[i]}
        return bool(ts) and any(key[n + i] for key in left._num for i in ts)


_ATOMS = (Num, Var)


def _term(exps: list[int], c: int | Fraction) -> Poly:
    """The one-term Poly c * t^a * y^b with exponents exps."""
    num = {MultiIndex._make(exps): c.numerator} if c else {}
    return Poly._make(len(exps), num, c.denominator)


def _degree_shape(p: Poly, n: int) -> tuple[int, int, int, set[int]]:
    """Largest t-degree, d-degree and total degree of the terms, and their t- less d-degrees."""
    ts = [sum(key[:n]) for key in p._num]
    ds = [sum(key[n:]) for key in p._num]
    return max(ts), max(ds), max(map(add, ts, ds)), set(map(sub, ts, ds))


def _monomials(degree: int, variables: int) -> int:
    """How many monomials of exactly this degree the variables have."""
    if not variables:
        return int(degree == 0)
    return comb(degree + variables - 1, variables - 1)


def _coefficient_bits(p: Poly) -> int:
    """Bits of the sum of |c| over the common denominator, plus the denominator's.

    A k-th power's coefficients have at most k times as many, leaving
    out what reordering d_i past t_i adds.
    """
    return sum(map(abs, p._num.values())).bit_length() + p._den.bit_length()


def _check_power(k: int, terms: int, bits: int) -> None:
    if terms * k * bits > MAX_POWER_BITS:
        raise ParseError(
            None,
            f"the power ^{k} is too large to expand: its estimated terms times coefficient bits exceed {MAX_POWER_BITS}",
        )


def to_poly(node: Node, n: int) -> Poly:
    return _Evaluator(n, None, False).sum(node)


def to_diffop(node: Node, n: int) -> DiffOp:
    return DiffOp._make(n, _Evaluator(n, "d", True).sum(node))


def variable_count(n: int | None, *trees: Node) -> int:
    """n when given, else the largest variable index in the trees (at least 1)."""
    return n if n is not None else max(1, *map(max_index, trees))


def parse_shared(*sources: tuple[str, str], n: int | None = None) -> list:
    """Each (kind, text) source, kind "operator" (t and d) or "poly" (t), in one shared n.

    n is inferred as the largest variable index in any source unless given.
    """
    kinds = {"operator": ({"t", "d"}, to_diffop), "poly": ({"t"}, to_poly)}
    trees = [(kind, parse_ast(text, kinds[kind][0])) for kind, text in sources]
    n = variable_count(n, *(tree for _, tree in trees))
    return [kinds[kind][1](tree, n) for kind, tree in trees]


def parse_operator(src: str, n: int | None = None) -> DiffOp:
    """Operator expression in t and d variables; n inferred as the max index."""
    return parse_shared(("operator", src), n=n)[0]


def parse_poly(src: str, n: int | None = None) -> Poly:
    return parse_shared(("poly", src), n=n)[0]


def check_composition(left: DiffOp, right: DiffOp) -> None:
    """Refuse left * right when its estimated size is over MAX_POWER_BITS, as in an expression."""
    _Evaluator(left.n, "d", True).check_product(left.poly, right.poly)


def check_action(D: DiffOp, p: Poly) -> None:
    """Refuse D(p) when its estimated size is over MAX_POWER_BITS.

    A term of f_J meets every term t^I of p with I >= J, so the terms
    are the sum over words J of |f_J| times the count of such I.
    d^J(t^I) multiplies a coefficient by perm(I, J) = I!/(I-J)!, so the
    bits are those of D and p plus the most bits of perm(I, J) over
    those pairs.  A word above p's reach meets no term and is skipped
    unscanned, as apply skips it.  The estimate only grows, so it is
    refused as soon as it passes the budget.
    """
    n = D.n
    words = Counter(key[n:] for key in D.poly._num)
    base = _coefficient_bits(D.poly) + _coefficient_bits(p)
    reach = _reach(p._num)
    terms = grow = 0
    for J, a in words.items():
        if not all(map(le, J, reach)):
            continue
        for I in p._num:
            if all(map(ge, I, J)):
                terms += a
                grow = max(grow, prod(map(perm, I, J)).bit_length())
                if terms * (base + grow) > MAX_POWER_BITS:
                    raise ParseError(
                        None,
                        "the action is too large to expand: "
                        f"its estimated terms times coefficient bits exceed {MAX_POWER_BITS}",
                    )


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
    poly = _Evaluator(n, xi_prefix, False).sum(ast)
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

    Blank lines are skipped; absent monomials default to the zero
    value; duplicate lines for one monomial are an error.  The number
    of variables is the width of the index column unless n is given.
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
        try:
            exps = tuple(int(part.strip()) for part in left.strip().split(","))
        except ValueError:
            raise ParseError(None, f"line {lineno}: bad monomial index {left.strip()!r}") from None
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
