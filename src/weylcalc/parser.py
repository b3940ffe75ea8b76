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
go up to MAX_EXPONENT.  Every product, power and sum in an expression,
and the two products of parse_commutator and the action of
parse_action, is sized by one rule before any of it is computed, and
refused if its terms times coefficient bits could be over
MAX_POWER_BITS; a sum of values has its denominators sized before it
is added and its numerators measured as it is made (_Evaluator.add).
A jet table's basis holds at most MAX_JET_BASIS monomials, and the
operator that from_jet_map would build from it is sized by the same
rule, line by line as the table is read (parse_jet_map).

Text becomes a value with no tree in between: one regular-expression
scan into tokens (_TOKEN.findall), one loop over them that checks the
syntax and matches the parentheses (_groups), then one loop that reads
the grammar and evaluates as it reads, with an explicit stack of the
open parentheses, so that no input makes it recurse.  Every text of a
call is checked before any is evaluated, so that errors come text by
text, the first text's first: its lexical error, then its syntax
error, and only then any semantic one.  The scan keeps no offsets:
errors are found on its tokens, and only the token at fault is looked
up again in the text, for its offset.

One evaluator turns text into a polynomial, an operator or a symbol.
Its values are the kernel's own Poly, sums of normal-ordered terms
c * t^a * y^b: in 2n variables for an operator (y = d) or a symbol (y =
the xi prefix), in n for a polynomial, which has no y.  A product chain
folds left to right into one term: a number multiplies c, and an atom
t_i^k or y_i^k adds k to its exponent, except that an operator's t_i
after a d_i starts the next factor.  A chain of atoms alone stays that
one term, (exponents, coefficient), which the sum hands to the
kernel's adder (poly._sum) as it is, with no one-term Poly.
Parentheses count as the grammar nests them: a group that is a whole term
adds its terms to the enclosing sum, a group of one chain goes on with
the chain around it, and only a sum that is a factor, or a group other
than a lone atom raised to a power, is a value of its own.

The evaluator works in two passes.  The first, that loop, computes
every part that multiplies nothing but atoms, as above, and a sum of
atom chains that a chain multiplies by numbers and atoms alone, as in
each printed term (f_J)*d^J: where no d_i of the sum meets a t_i of
the chain's term, each of its terms times that term is one term, so
the product keeps the sum's term count, and the size rule refuses it
only where that count reaches a cap.  It turns each other product,
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
from itertools import accumulate, islice
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import add, attrgetter, itemgetter, le, mul, sub

from .jets import JetMap
from .operators import DiffOp, commutator
from .poly import MultiIndex, Poly, _sum
from .symbols import SymbolElem

# How deep parentheses and unary minus may nest, a limit the error messages
# state; it bounds the explicit stacks that _groups and the evaluator keep.
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
_coefficient, _denominator = itemgetter(1), attrgetter("denominator")


class ParseError(ValueError):
    def __init__(self, offset: int | None, message: str):
        super().__init__(offset, message)
        self.offset = offset
        self.message = message

    def __str__(self) -> str:
        if self.offset is None:
            return f"error: {self.message}"
        return f"parse error at offset {self.offset}: {self.message}"


# After optional whitespace, one of: a token, that is an operator, a number
# of at most MAX_DIGITS digits, or a letter run with the decimal digits after
# it; else a longer number, any other character, or the end, which findall
# gives as "".  findall reads the text with no trailing whitespace, so that
# "" is the end only as the last token.  The three kinds of token never match
# at one place, so trying the operator first changes no token.  \d is exactly
# what int() reads and str.isdecimal() tells; the letter class also takes
# numeric characters such as '²' and '½', which _bad_variable rejects.
_TOKEN = re.compile(rf"\s*(?:([-+*^/()]|\d{{1,{MAX_DIGITS}}}(?!\d)|[^\W\d_]+\d*)|\d+|.|\Z)", re.DOTALL)
# A variable token's letter run and digits.
_VARIABLE = re.compile(r"([^\W\d_]+)(\d*)")


def _offset(src: str, tokens: list[str], i: int) -> int:
    """The offset of tokens[i], one of src's findall tokens: where it starts, or the end for the last."""
    if i + 1 == len(tokens):
        return len(src) + 1
    m = next(islice(_TOKEN.finditer(src), i, None))  # finditer gives findall's tokens, with offsets
    return m.end() - len(m[0].lstrip()) + 1


def _index(token: str, prefixes: frozenset[str] | set[str] | None = None) -> int:
    """A variable token's index if that is 1 to MAX_INDEX and its prefix one of prefixes (any if None); else 0."""
    m = _VARIABLE.fullmatch(token)
    if m is None or prefixes is not None and m[1] not in prefixes or not 0 < len(m[2]) <= MAX_DIGITS:
        return 0
    return index if (index := int(m[2])) <= MAX_INDEX else 0


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


# What a closed group holds, as far as its evaluation goes: a lone atom such as
# (t1) or ((3/4)), one product chain, or a sum with a '+' or a binary '-' of
# its own.  What a primary is, to the loop: a variable, a number, a group's
# value, or a group already added to the chain.
_ATOM, _CHAIN, _SUM = range(3)
_VAR, _NUM, _GROUP, _DONE = range(4)


def _groups(tokens: list[str]) -> dict[int, tuple[int, int]]:
    """(index of its ')', what it holds) for each closed '(', by its token index; the syntax checked.

    One loop over the tokens (_TOKEN.findall) in two states: an operand
    is expected, or a primary is read and its power and what follows
    it are.  depth counts the open parentheses and the unary minus
    signs whose factor is not read yet; negs, those of the innermost
    open parenthesis.  On text that is not well formed it raises a
    ParseError whose offset is the index of the token at fault, which
    _checked turns into its offset in the text (_offset).  The
    evaluation needs to know at '(' what the group holds, and that the
    syntax is right.
    """
    groups: dict[int, tuple[int, int]] = {}
    stack: list[list[int]] = []  # per open '(': its index, what it holds, the minus signs before it
    depth = negs = i = 0
    while True:
        op = tokens[i]
        if op.isdecimal():
            if tokens[i + 1] == "/":
                i += 2
                _positive(tokens, i, "expected a positive integer denominator", "denominator must be positive")
        elif op in "+*^/)":  # so is "", which is no token
            raise ParseError(i, "expected a number, a variable, or '('")
        elif op == "-" or op == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(i, f"parentheses and unary minus nest deeper than {MAX_NESTING} levels")
            if op == "-":
                negs += 1
            else:
                stack.append([i, _CHAIN, negs])
                negs = 0
            i += 1
            continue
        while True:  # after a primary: its power, then what follows the factor
            i += 1
            op = tokens[i]
            if op == "^":
                i += 1
                if _positive(tokens, i, "expected a positive integer exponent", "exponent must be at least 1") > MAX_EXPONENT:
                    raise ParseError(i, f"exponent larger than {MAX_EXPONENT}")
                i += 1
                op = tokens[i]
            if negs:
                depth -= negs
                negs = 0
            if op == "*":
                i += 1
                break
            if op == "+" or op == "-":
                if stack:
                    stack[-1][1] = _SUM
                i += 1
                break
            if not stack:
                if op or i + 1 < len(tokens):  # "" is the end only as the last token
                    raise ParseError(i, "unexpected trailing input")
                return groups
            if op != ")":
                raise ParseError(i, "expected ')'")
            j, content, negs = stack.pop()
            depth -= 1
            if i == j + 2 or i == j + 4 and tokens[j + 2] == "/" or groups.get(j + 1) == (i - 1, _ATOM):
                content = _ATOM
            groups[j] = (i, content)


def _positive(tokens: list[str], i: int, expected: str, too_small: str) -> int:
    """The positive integer that tokens[i] must be, an exponent or a denominator; else the error at i."""
    if not tokens[i].isdecimal():
        raise ParseError(i, expected)
    if (value := int(tokens[i])) < 1:
        raise ParseError(i, too_small)
    return value


def _checked(src: str, tokens: list[str], prefixes: frozenset[str] | set[str]) -> list[str]:
    """tokens, src's findall tokens, if src is well formed; else its first lexical error, or failing that its syntax error.

    A lexical error is a "" before the end, that is a longer number or
    any other character, or a letter run with digits that is not a
    variable of one of the prefixes with an index 1 to MAX_INDEX, which
    _bad_variable words.  A syntax error is _groups'.  Each gets the
    offset of its token.
    """
    bad = {token for token in set(tokens) if not (token.isdecimal() or token and token in "-+*^/()" or _index(token, prefixes))}
    i = next(i for i, token in enumerate(tokens) if token in bad)  # the end, "", if no token before it
    if i + 1 < len(tokens):
        offset = _offset(src, tokens, i)
        if tokens[i]:
            _bad_variable(*_VARIABLE.fullmatch(tokens[i]).groups(), offset, prefixes)
        if src[offset - 1].isdecimal():  # "" at a longer number, else at another character
            raise ParseError(offset, f"number longer than {MAX_DIGITS} digits")
        raise ParseError(offset, f"unexpected character {src[offset - 1]!r}")
    try:
        _groups(tokens)
    except ParseError as exc:
        raise ParseError(_offset(src, tokens, exc.offset), exc.message) from None
    return tokens


def parse_ast(src: str, prefixes: frozenset[str] | set[str]) -> list[str]:
    """src's tokens (_TOKEN.findall), or its lexical or syntax error, as the parse_* functions word it.

    It builds no tree.  It and max_index stay public because the
    benchmark's CLI oracle (perfbench/workloads.py) takes a text's arity
    from max_index(parse_ast(...)), with no evaluation; both are the
    code that every parse runs, not code of their own.
    """
    return _checked(src, _TOKEN.findall(src.rstrip()), prefixes)


def max_index(tokens: list[str]) -> int:
    """The largest index, 1 to MAX_INDEX, of a variable among the tokens (_TOKEN.findall); 0 if none.

    _first_pass infers n with it, and parse_ast's callers a text's arity.
    """
    return max(map(_index, set(tokens)))


# An upper bound on a value that is not computed yet: at most terms terms,
# whose numerators over den (a multiple of the true denominator) add up to at
# most num in absolute value.  reach bounds each exponent; tdeg, ddeg and deg
# bound a term's t-, y- and total degree; every t- less y-degree of a term is
# among lo, lo + step, ..., hi for gaps = (lo, hi, step), which keeps their
# parity.  keys holds the terms' exponents where the shape is read off a value.
_Shape = namedtuple("_Shape", "terms num den reach tdeg ddeg deg gaps keys", defaults=(None,))
# A product chain (op "mul", args its factors), a power (op "pow", args (base,
# k)) or a sum with plans among its parts (op "sum", args its parts) that is
# sized but not computed.
_Plan = namedtuple("_Plan", "op args shape")


class _Evaluator:
    """Evaluates text in t1..tn and y1..yn, y named by the prefix second.

    Every value is a Poly in the kernel's integer form: in n variables
    for polynomials (second is None), else in 2n with y_i in slot n+i.
    reorder says that y_i = d_i does not commute with t_i, so that the
    values are operators.  plan is the first pass: one loop over a
    text's tokens that computes every product-free part at once, sizing
    each sum as it adds it (add), and sizes every product, power and sum
    of plans by its shape, refused if that is over MAX_POWER_BITS,
    before anything is multiplied.  value is the second
    pass: it maps the plan to kernel calls, with no further checks.
    """

    def __init__(self, n: int, second: str | None, reorder: bool):
        self.n, self.reorder = n, reorder
        self.width = n if second is None else 2 * n
        self.prefixes = frozenset({"t"} if second is None else {"t", second})
        # variable token -> slot, for the indices written without leading zeros
        self.slots = {f"t{i}": i - 1 for i in range(1, n + 1)}
        if second is not None:
            self.slots.update({f"{second}{i}": n + i - 1 for i in range(1, n + 1)})

    def plan(self, src: str, tokens: list[str], groups: dict[int, tuple[int, int]]) -> Poly | _Plan:
        """The first pass over src's well-formed tokens (_TOKEN.findall): its value, or the plan that computes it.

        The state is that of the innermost open group: its sum's parts
        (polys, terms, plans), the sign that starts a chain after '+',
        the chain being read (factors, the pending term exps and c,
        whether it has a factor yet), and whether the group goes on
        with the chain around it, and so has no sum.  What '(' does
        depends on what the group holds and what follows it (groups,
        from _groups), so that the parts come out as the grammar nests
        them:
        - a lone atom, such as (t1) or ((3/4)), is that atom;
        - a group raised to a power, or a sum that is a factor, is a
          sum of its own, read with sign +1, whose value is a factor;
          one of atom chains alone, not raised, stays its list of
          terms, for product to multiply out where its chain ends;
        - a group of one chain that is a factor goes on with the chain;
        - a whole term, signs aside, adds its chains to the enclosing
          sum, each starting with the sign in front of the group.
        _groups has checked the syntax, so the only errors here are
        semantic: an index above n, or a size over the budget.
        """
        n, width, reorder, slots = self.n, self.width, self.reorder, self.slots
        polys, terms, plans = [], [], []  # the sum's Polys, (exponents, coefficient) terms, and plans
        sign = c = 1
        exps, factors, fresh, chain = [0] * width, [], True, False
        stack: list[tuple] = []
        lone = pos = 0  # lone: the parentheses around the next atom alone
        while True:
            op = tokens[pos]
            pos += 1
            if (x := slots.get(op)) is not None:
                kind = _VAR
            elif op.isdecimal():
                kind, x = _NUM, int(op)
                if tokens[pos] == "/":
                    x, pos = Fraction(x, int(tokens[pos + 1])), pos + 2
            elif op == "-":
                c = -c
                continue
            elif op != "(":
                kind, x = _VAR, self.slot(src, tokens, pos - 1)
            else:
                close, content = groups[pos - 1]
                if content == _ATOM:
                    lone += 1
                    continue
                after = tokens[close + 1]
                factor = chain or not fresh or after == "*"
                if after == "^" or factor and content == _SUM:  # a sum of its own
                    stack.append((polys, terms, plans, sign, c, exps, factors, fresh, chain))
                    polys, terms, plans = [], [], []
                    sign = c = 1
                    exps, factors, fresh, chain = [0] * width, [], True, False
                else:  # a chain the enclosing one goes on with, or a whole term of the enclosing sum
                    stack.append((sign, chain))
                    chain, sign = factor, sign if factor else c
                continue
            pos, lone = pos + lone, 0
            while True:  # after a primary: its power and what follows the factor
                op = tokens[pos]
                pos += 1
                k = 1
                if op == "^":
                    k = int(tokens[pos])
                    op = tokens[pos + 1]
                    pos += 2
                    if kind == _GROUP:
                        x = _Plan("pow", (x, k), self.raised(self.shape(x), k))
                if kind == _VAR:
                    if reorder and x < n and exps[n + x]:  # t_i after d_i: the pending term is a factor
                        factors.append(_term(exps, c))
                        c, exps = 1, [0] * width
                    exps[x] += k
                elif kind == _NUM:
                    # sized as a one-term power, by the bits of its numerator and its denominator
                    if k != 1 and ((max(x.numerator, x.denominator).bit_length() - 1) * k > MAX_POWER_BITS
                                   or (x := x**k).numerator.bit_length() + x.denominator.bit_length() > MAX_POWER_BITS):
                        raise _too_large(f"the power ^{k}")
                    c = x if c == 1 else -x if c == -1 else _product(c, x)
                elif kind == _GROUP:
                    if c != 1 or any(exps):
                        factors.append(_term(exps, c))
                        c, exps = 1, [0] * width
                    factors.append(x)
                fresh = False
                if op == "*":
                    break
                if op == ")" and len(stack[-1]) == 2:  # the group's chain goes on outside it
                    sign, chain = stack.pop()
                    kind = _DONE
                    continue
                if factors:  # the chain ends
                    part = self.product(factors, exps, c)
                    (plans if type(part) is _Plan else polys).append(part)
                else:
                    terms.append((exps, c))
                exps, factors, fresh = [0] * width, [], True
                if op == "+" or op == "-":
                    c = sign if op == "+" else -sign
                    break
                # a group's sum of atom chains alone, not raised, stays its terms for product
                value = terms if op == ")" and not polys and not plans and tokens[pos] != "^" else self.add(polys, terms)
                if plans:
                    value = self.summed([value, *plans] if value else plans)
                if op != ")":
                    return value
                polys, terms, plans, sign, c, exps, factors, fresh, chain = stack.pop()
                kind, x = _GROUP, value

    def slot(self, src: str, tokens: list[str], pos: int) -> int:
        """The slot of the variable at tokens[pos] where the slot table has none, as for t01; else an error.

        The error is that the index is above n, at the token's offset
        in src (_offset).  A variable that is not well formed gets it
        too, but then src has a lexical error, which _first_pass finds
        and raises instead.
        """
        word, digits = _VARIABLE.fullmatch(tokens[pos]).groups()
        index = int(digits) if 0 < len(digits) <= MAX_DIGITS else 0
        if word in self.prefixes and 0 < index <= self.n:
            return self.slots[f"{word}{index}"]
        raise ParseError(_offset(src, tokens, pos), f"variable index {index} exceeds the {self.n} available variables")

    def add(self, polys: list[Poly], terms: list[tuple[list[int], int | Fraction]], whole: bool = True) -> Poly:
        """The sum of the Polys and the terms (exponents, coefficient), all at once by the kernel's adder; sized by the one rule.

        Each of its count coefficients, over the lcm L of the
        denominators, holds at least the bits of L: where count * (bits(L)
        + 1) is over MAX_POWER_BITS, the sum is refused before it is
        added, with the lcm walked only where the denominators' bits do
        not decide (_lcm_over), so that no gcd is taken of a denominator
        that is over on its own.  Then its numerators are measured on the
        sum, and it is refused if their bits, and the bits of L for each
        term, are over MAX_POWER_BITS.  A fold by a nonzero number
        (product) measures them by its own cap, so it passes whole=False.
        Both are refused as the sum.
        """
        if not terms and len(polys) == 1:
            return polys[0]
        dens = {*map(_denominator, map(_coefficient, terms)), *(part._den for part in polys)}
        count = len(terms) + sum(len(part._num) for part in polys)
        if count > 1 and _lcm_over(dens, MAX_POWER_BITS // count - 1):
            raise _too_large("the sum")
        total = _sum(self.width, [(part._num.items(), part._den) for part in polys], terms, reduce(lcm, dens or [1]))
        if whole and sum(map(int.bit_length, total._num.values())) + len(total._num) * total._den.bit_length() > MAX_POWER_BITS:
            raise _too_large("the sum")
        return total

    def product(self, factors: list, exps: list[int], c: int | Fraction) -> Poly | _Plan:
        """A chain's factors times its pending term c * t^a * y^b: a value where they multiply out, else a plan.

        Where the factors are [S], S the terms of a group whose parts
        are all chains of atoms, and no y_i in S's terms meets a t_i of
        the term, each term of S times it is one term, so the product is
        S with a and b added to its exponents, times c (fold).  It keeps
        |S| terms, and so is refused by the size rule only if |S|
        reaches the cap that its coefficient bits give.  There, and
        where anything meets, the product is a plan, sized as one.  The
        exponent lists of S are its own, shifted in place, and shifted
        back for a plan.
        """
        terms, n = factors[0], self.n
        if len(factors) == 1 and type(terms) is list and not (self.reorder and any(
            e[n + i] for i in range(n) if exps[i] for e, _ in terms
        )):
            for i, k in enumerate(exps):
                if k:
                    for e, _ in terms:
                        e[i] += k
            S = self.add([], terms, whole=not c)  # the cap below measures S, unless c is 0
            keys, num, den = S._num, c.numerator, c.denominator
            if len(keys) <= MAX_POWER_BITS // ((sum(map(abs, keys.values())) * abs(num)).bit_length() + (S._den * den).bit_length()):
                return S if c == 1 else Poly._make(self.width, {key: v * num for key, v in keys.items()} if num else {}, S._den * den)
            for e, _ in terms:
                e[:] = map(sub, e, exps)
        factors = [self.add([], f) if type(f) is list else f for f in factors]
        if c != 1 or any(exps):
            factors.append(_term(exps, c))
        if len(factors) == 1:
            return factors[0]
        return _Plan("mul", factors, reduce(lambda out, s: self.times(out, s, "the product"), map(self.shape, factors)))

    def value(self, x: Poly | _Plan) -> Poly:
        """x computed by the kernel; a plan has passed its size checks, so none are made here.

        Products and powers are the kernel's: DiffOp.compose and
        DiffOp.__pow__ for an operator, Poly.__mul__ and Poly.__pow__
        otherwise.  The kernel finds by itself the factors that commute.
        """
        if type(x) is not _Plan:
            return x
        if x.op == "sum":
            return _sum(self.width, [(part._num.items(), part._den) for part in map(self.value, x.args)])
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
        """x's shape: a plan's own, or one read off a value's terms in one loop."""
        if type(x) is _Plan:
            return x.shape
        n, keys, zero = self.n, x._num, (0,) * self.width
        tdeg = ddeg = deg = 0
        gaps = set()
        for key in keys:
            t, total = sum(key[:n]), sum(key)
            if t > tdeg:
                tdeg = t
            if total - t > ddeg:
                ddeg = total - t
            if total > deg:
                deg = total
            gaps.add(2 * t - total)
        lo = min(gaps, default=0)
        return _Shape(  # two zeros give max two arguments where there are no keys
            len(keys), sum(map(abs, keys.values())), x._den, list(map(max, zero, zero, *keys)), tdeg, ddeg, deg,
            (lo, max(gaps, default=0), gcd(*(g - lo for g in gaps))), keys,
        )

    def summed(self, parts: list[Poly | _Plan]) -> _Plan:
        """The sum of the parts, plans among them, as a plan sized from the parts' shapes.

        Its shape is their union, refused as the sum where fit refuses
        it.  fit refuses a sum with a term whose lcm of denominators
        alone has more than MAX_POWER_BITS bits, so that is tested first
        (_lcm_over), and the lcm is taken only where it is not over.
        """
        terms, nums, dens, reaches, tdegs, ddegs, degs, gaps, _ = zip(*map(self.shape, parts))
        if sum(terms) and _lcm_over(set(dens), MAX_POWER_BITS):
            raise _too_large("the sum")
        (los, his, steps), den = zip(*gaps), lcm(*dens)
        shape = _Shape(
            sum(terms), sum(num * (den // d) for num, d in zip(nums, dens)), den, list(map(max, zip(*reaches))),
            max(tdegs), max(ddegs), max(degs), (min(los), max(his), gcd(*steps, *(lo - min(los) for lo in los))),
        )
        self.fit(shape, "the sum")
        return _Plan("sum", parts, shape)

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


def _product(c: int | Fraction, x: int | Fraction) -> int | Fraction:
    """c * x, two numbers of one chain; refused as the product if their bits, numerators' and denominators', pass the budget.

    That is fit's rule for a product of two one-term shapes.
    """
    if sum(v.numerator.bit_length() + v.denominator.bit_length() for v in (c, x)) > MAX_POWER_BITS:
        raise _too_large("the product")
    return c * x


def _lcm_over(dens: set[int], room: int) -> bool:
    """Whether the lcm of the distinct denominators dens has more than room bits, the cheapest test first.

    Its bits are at least the largest denominator's and at most the sum
    of all of theirs: the lcm is taken, one denominator at a time from
    the largest, only where that sum is over room, and the walk stops
    at the first lcm over it, so that a largest denominator over room
    takes no gcd.
    """
    return sum(map(int.bit_length, dens)) > room and any(den.bit_length() > room for den in accumulate(sorted(dens, reverse=True), lcm))


def _too_large(what: str) -> ParseError:
    bound = f"its estimated terms times coefficient bits exceed {MAX_POWER_BITS}"
    return ParseError(None, f"{what} is too large to expand: {bound}")


def check_variable_count(n: int) -> int:
    """n if it is a number of variables an input may have, 1 to MAX_INDEX; else a ValueError."""
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    if n > MAX_INDEX:
        raise ValueError(f"at most {MAX_INDEX} variables, got {n}")
    return n


def _first_pass(n: int | None, *texts: tuple[str, str | None, bool]) -> list[tuple[_Evaluator, Poly | _Plan]]:
    """Each text (source, second, reorder) in one n, given or the largest index in any: its evaluator and its plan.

    _groups checks the syntax of every text before any is planned.
    Errors come text by text, the first text's first: its lexical
    error, then its syntax error, and only then any semantic one.  A
    text with a lexical error fails in _groups or in the plan, so on
    any error _checked looks for one in each text, and the semantic
    error stands only if none of them fails.  An inferred n is the
    largest index in any text; it matters only where all of them are
    well formed.
    """
    tokens = [_TOKEN.findall(src.rstrip()) for src, _, _ in texts]
    if n is None:
        n = max(1, *map(max_index, tokens))
    else:
        check_variable_count(n)
    evaluators = [_Evaluator(n, second, reorder) for _, second, reorder in texts]
    try:
        groups = list(map(_groups, tokens))
        return [(ev, ev.plan(src, each, found)) for ev, (src, _, _), each, found in zip(evaluators, texts, tokens, groups)]
    except ParseError:
        for ev, (src, _, _), each in zip(evaluators, texts, tokens):
            _checked(src, each, ev.prefixes)
        raise


def parse_operator(src: str, n: int | None = None) -> DiffOp:
    """Operator expression in t and d variables; n inferred as the max index."""
    [(evaluator, x)] = _first_pass(n, (src, "d", True))
    return DiffOp._make(evaluator.n, evaluator.value(x))


def parse_poly(src: str, n: int | None = None) -> Poly:
    [(evaluator, x)] = _first_pass(n, (src, None, False))
    return evaluator.value(x)


def parse_commutator(left: str, right: str, n: int | None = None) -> DiffOp:
    """[A, B] of two operator expressions in one shared n, inferred as the max index unless given.

    Both products, A * B and B * A, are sized by the rule for a product
    in an expression, on the expressions, before either is computed.
    """
    (evaluator, a), (_, b) = _first_pass(n, (left, "d", True), (right, "d", True))
    A, B = evaluator.shape(a), evaluator.shape(b)
    evaluator.times(A, B, "the product")
    evaluator.times(B, A, "the product")
    return commutator(*(DiffOp._make(evaluator.n, evaluator.value(x)) for x in (a, b)))


def parse_action(expr: str, poly: str, n: int | None = None) -> Poly:
    """D(p) for an operator and a polynomial expression in one shared n, inferred unless given.

    The action is sized as the y-degree-0 slice of the product D * p,
    on the expressions, before either is computed.
    """
    (operator, d), (polynomial, p) = _first_pass(n, (expr, "d", True), (poly, None, False))
    operator.times(operator.shape(d), polynomial.shape(p), "the action", action=True)
    return DiffOp._make(operator.n, operator.value(d)).apply(polynomial.value(p))


def check_xi_prefix(prefix: str) -> str:
    """The prefix of the symbol variables: letters other than t, so printed symbols parse back."""
    if not prefix.isalpha() or prefix == "t":
        raise ValueError(f"bad xi prefix {prefix!r}: need letters other than 't'")
    return prefix


def parse_symbol(src: str, n: int | None = None, xi_prefix: str = "x") -> SymbolElem:
    """Symbol expression in t and xi variables, homogeneous in the xi's (else an error)."""
    check_xi_prefix(xi_prefix)
    [(evaluator, x)] = _first_pass(n, (src, xi_prefix, False))
    n, poly = evaluator.n, evaluator.value(x)
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

    A table whose operator, from_jet_map's, could be over the budget is
    refused as the table.  from_jet_map adds each A(t^K), times (k!/J!)
    * binom(J, K), into every word J >= K of degree at most k, C(n + k -
    |K|, n) of them, over den * k!, den the lcm of the values'
    denominators.  The binom(J, K) add up to 2^|J|, so a numerator is
    below 2^k * k! * den times the largest value coefficient, which is
    below 2^top.  That bounds the terms, and each term's coefficient bits
    by top + k + 2 * (bits of k! + bits of den), and so the bits den may
    have (room), which _lcm_over holds the lcm to.  The bound only grows
    as values are added, so the values read so far are sized after each
    line, from running totals of the terms and of top and the set of
    distinct denominators: a table is refused at the first line that
    takes it over, before the next line is parsed.
    """
    if n is not None:
        check_variable_count(n)
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
            raise ParseError(None, f"line {lineno}: index has {len(exps)} entries, earlier lines have {width}")
        entries.append((lineno, exps, right.strip()))
    if n is None:
        if width is None:
            raise ParseError(None, "cannot infer the number of variables from an empty table; pass --vars")
        n = width
    elif width is not None and width != n:
        raise ParseError(None, f"index width {width} does not match the requested {n} variables")
    if comb(n + degree, degree) > MAX_JET_BASIS:
        raise ParseError(None, f"a table of degree {degree} in {n} variables has more than {MAX_JET_BASIS} monomials")
    values: dict[MultiIndex, Poly] = {}
    terms, top, dens = 0, 0, set()  # the running totals of the values read so far
    for lineno, exps, rhs in entries:
        if sum(exps) > degree:
            raise ParseError(None, f"line {lineno}: monomial degree {sum(exps)} exceeds the table degree {degree}")
        key = MultiIndex(exps)
        if key in values:
            raise ParseError(None, f"line {lineno}: duplicate entry for {exps}")
        try:
            values[key] = p = parse_poly(rhs, n=n)
        except ParseError as exc:
            where = f" at offset {exc.offset} in the value" if exc.offset is not None else ""
            raise ParseError(None, f"line {lineno}{where}: {exc.message}") from None
        if p:
            terms += len(p._num) * comb(n + degree - sum(exps), n)
            bits = max(map(abs, p._num.values())).bit_length() - p._den.bit_length() + 1
            top = max(top, bits) if dens else bits
            dens.add(p._den)
            if _lcm_over(dens, (MAX_POWER_BITS // terms - top - degree) // 2 - factorial(degree).bit_length()):
                raise _too_large("the table")
    return JetMap(n, degree, values)
