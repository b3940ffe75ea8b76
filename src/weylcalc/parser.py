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
symbols t and the xi prefix (x by default).

Errors carry the 1-based byte offset of the offending token; semantic
errors that have no single position carry offset None.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .jets import JetMap
from .operators import DiffOp
from .poly import MultiIndex, Poly
from .symbols import SymbolElem


class ParseError(Exception):
    def __init__(self, offset: Optional[int], message: str):
        super().__init__(offset, message)
        self.offset = offset
        self.message = message

    def __str__(self) -> str:
        if self.offset is None:
            return f"error: {self.message}"
        return f"parse error at offset {self.offset}: {self.message}"


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    prefix: str
    index: int
    offset: int


@dataclass(frozen=True)
class Neg:
    inner: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


Node = Union[Num, Var, Neg, Pow, Add, Sub, Mul]


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int
    index: int = 0


def _tokenize(src: str, prefixes: frozenset[str]) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(_Token("num", src[i:j], i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            word = src[i:j]
            if word not in prefixes:
                expected = ", ".join(sorted(prefixes))
                raise ParseError(i + 1, f"unknown variable {word!r}; expected one of: {expected}")
            k = j
            while k < len(src) and src[k].isdigit():
                k += 1
            if k == j:
                raise ParseError(i + 1, f"variable {word!r} needs a numeric index")
            index = int(src[j:k])
            if index < 1:
                raise ParseError(i + 1, "variable index must be at least 1")
            tokens.append(_Token("var", word, i + 1, index=index))
            i = k
            continue
        if ch in "+-*^/()":
            tokens.append(_Token(ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(i + 1, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(tok.offset, "unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.factor())
        node = self.primary()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num":
                raise ParseError(tok.offset, "expected a positive integer exponent")
            self.advance()
            exponent = int(tok.text)
            if exponent < 1:
                raise ParseError(tok.offset, "exponent must be at least 1")
            node = Pow(node, exponent)
        return node

    def primary(self) -> Node:
        tok = self.advance()
        if tok.kind == "num":
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.advance()
                den = self.peek()
                if den.kind != "num":
                    raise ParseError(den.offset, "expected a positive integer denominator")
                self.advance()
                if int(den.text) < 1:
                    raise ParseError(den.offset, "denominator must be positive")
                value = Fraction(int(tok.text), int(den.text))
            return Num(value)
        if tok.kind == "var":
            return Var(tok.text, tok.index, tok.offset)
        if tok.kind == "(":
            node = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError(closing.offset, "expected ')'")
            self.advance()
            return node
        raise ParseError(tok.offset, "expected a number, a variable, or '('")


def parse_ast(src: str, prefixes: frozenset[str] | set[str]) -> Node:
    return _Parser(_tokenize(src, frozenset(prefixes))).parse()


def max_index(node: Node, prefixes: frozenset[str] | set[str] | None = None) -> int:
    """Largest variable index in the tree (restricted to prefixes if given); 0 if none."""
    if isinstance(node, Var):
        if prefixes is not None and node.prefix not in prefixes:
            return 0
        return node.index
    if isinstance(node, (Num,)):
        return 0
    if isinstance(node, (Neg, Pow)):
        inner = node.inner if isinstance(node, Neg) else node.base
        return max_index(inner, prefixes)
    return max(max_index(node.left, prefixes), max_index(node.right, prefixes))


def _check_index(node: Var, n: int) -> None:
    if node.index > n:
        raise ParseError(
            node.offset, f"variable index {node.index} exceeds the {n} available variables"
        )


def to_poly(node: Node, n: int) -> Poly:
    if isinstance(node, Num):
        return Poly.const(n, node.value)
    if isinstance(node, Var):
        _check_index(node, n)
        return Poly.variable(n, node.index)
    if isinstance(node, Neg):
        return -to_poly(node.inner, n)
    if isinstance(node, Pow):
        return to_poly(node.base, n) ** node.exponent
    if isinstance(node, Add):
        return to_poly(node.left, n) + to_poly(node.right, n)
    if isinstance(node, Sub):
        return to_poly(node.left, n) - to_poly(node.right, n)
    return to_poly(node.left, n) * to_poly(node.right, n)


def to_diffop(node: Node, n: int) -> DiffOp:
    return _lift(_poly_or_diffop(node, n))


def _lift(value: Poly | DiffOp) -> DiffOp:
    return value if isinstance(value, DiffOp) else DiffOp.from_poly(value)


# '*' is the product of polynomials and the composition of operators
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _poly_or_diffop(node: Node, n: int) -> Poly | DiffOp:
    """Bottom-up: a d-free subtree stays a Poly; it is lifted where it meets a d.

    The product of polynomials equals the composition of their
    multiplication operators, so staying in Poly changes no result.
    """
    if isinstance(node, Var) and node.prefix == "d":
        _check_index(node, n)
        return DiffOp.partial(n, node.index)
    if isinstance(node, (Num, Var)):
        return to_poly(node, n)
    if isinstance(node, Neg):
        return -_poly_or_diffop(node.inner, n)
    if isinstance(node, Pow):
        return _poly_or_diffop(node.base, n) ** node.exponent
    left = _poly_or_diffop(node.left, n)
    right = _poly_or_diffop(node.right, n)
    if isinstance(left, DiffOp) or isinstance(right, DiffOp):
        left, right = _lift(left), _lift(right)
    return _BINARY[type(node)](left, right)


def parse_operator(src: str, n: int | None = None) -> DiffOp:
    """Operator expression in t and d variables; n inferred as the max index."""
    ast = parse_ast(src, {"t", "d"})
    nn = n if n is not None else max(max_index(ast), 1)
    return to_diffop(ast, nn)


def parse_poly(src: str, n: int | None = None) -> Poly:
    ast = parse_ast(src, {"t"})
    nn = n if n is not None else max(max_index(ast), 1)
    return to_poly(ast, nn)


def check_xi_prefix(prefix: str) -> str:
    """The prefix of the symbol variables: letters other than t, so printed symbols parse back."""
    if not prefix.isalpha() or prefix == "t":
        raise ValueError(f"bad xi prefix {prefix!r}: need letters other than 't'")
    return prefix


def parse_symbol(src: str, n: int | None = None, xi_prefix: str = "x") -> SymbolElem:
    """Symbol expression in t and xi variables, homogeneous in the xi's.

    Evaluated commutatively in a doubled polynomial ring, then split
    into grade and coefficients; inhomogeneous input is an error.
    """
    check_xi_prefix(xi_prefix)
    ast = parse_ast(src, {"t", xi_prefix})
    if n is None:
        n = max(max_index(ast), 1)
    doubled = _to_doubled_poly(ast, n, xi_prefix)
    if not doubled:
        return SymbolElem.zero(n, 0)
    grades = {sum(I[n:]) for I in doubled.terms}
    if len(grades) > 1:
        lo, hi = min(grades), max(grades)
        raise ParseError(
            None,
            f"symbol mixes {xi_prefix}-degrees {lo} and {hi}; a symbol is homogeneous in {xi_prefix}",
        )
    grade = grades.pop()
    acc: dict[MultiIndex, Poly] = {}
    for I, c in doubled.terms.items():
        t_part, x_part = MultiIndex(I[:n]), MultiIndex(I[n:])
        piece = Poly.monomial(n, t_part, c)
        prev = acc.get(x_part)
        acc[x_part] = piece if prev is None else prev + piece
    return SymbolElem(n, grade, acc)


def _to_doubled_poly(node: Node, n: int, xi_prefix: str) -> Poly:
    """Evaluate in 2n commuting variables: t_i in slot i, xi_i in slot n+i."""
    if isinstance(node, Num):
        return Poly.const(2 * n, node.value)
    if isinstance(node, Var):
        _check_index(node, n)
        slot = node.index if node.prefix == "t" else n + node.index
        return Poly.variable(2 * n, slot)
    if isinstance(node, Neg):
        return -_to_doubled_poly(node.inner, n, xi_prefix)
    if isinstance(node, Pow):
        return _to_doubled_poly(node.base, n, xi_prefix) ** node.exponent
    if isinstance(node, Add):
        return _to_doubled_poly(node.left, n, xi_prefix) + _to_doubled_poly(node.right, n, xi_prefix)
    if isinstance(node, Sub):
        return _to_doubled_poly(node.left, n, xi_prefix) - _to_doubled_poly(node.right, n, xi_prefix)
    return _to_doubled_poly(node.left, n, xi_prefix) * _to_doubled_poly(node.right, n, xi_prefix)


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
