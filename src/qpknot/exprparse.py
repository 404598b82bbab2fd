"""Parser and evaluator for user-typed polynomial expressions.

Grammar (whitespace insignificant, variables are single lowercase
letters)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)* ('/' factor)?
    factor   := ('-')? base ('^' exponent)?
    base     := integer | variable | '(' expr ')'
    exponent := ('-')? integer | '(' ('-')? integer ('/' integer)? ')'

Division maps to exact division in the Laurent ring.  Fractional
exponents are only legal on variables and syntactic monomials; anywhere
else the parser raises at the offending offset.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import add, mul, sub

from qpknot._record import Record
from qpknot.errors import ExprSyntaxError, NonMonomialFractionalPowerError
from qpknot.laurent import LaurentPoly, Monomial, exact_div


class Lit(Record):
    __slots__ = ("value",)
    value: int


class Var(Record):
    __slots__ = ("name",)
    name: str


class Neg(Record):
    __slots__ = ("child",)
    child: Node


class Add(Record):
    __slots__ = ("left", "right")
    left: Node
    right: Node


class Sub(Record):
    __slots__ = ("left", "right")
    left: Node
    right: Node


class Mul(Record):
    __slots__ = ("left", "right")
    left: Node
    right: Node


class Div(Record):
    __slots__ = ("left", "right")
    left: Node
    right: Node


class Pow(Record):
    __slots__ = ("base", "exponent")
    base: Node
    exponent: Fraction


Node = Lit | Var | Neg | Add | Sub | Mul | Div | Pow


class _Token(Record):
    __slots__ = ("kind", "text", "offset")
    kind: str  # INT VAR OP END
    text: str
    offset: int


def _tokenize(src: str, origin: int) -> list[_Token]:
    """The tokens of ``src``, each at its offset plus ``origin``."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            # `int` refuses longer literals; 0 (or before Python 3.10.7,
            # no such limit) means none
            limit = getattr(sys, "get_int_max_str_digits", int)()
            if 0 < limit < j - i:
                raise ExprSyntaxError(f"integer literal longer than {limit} digits", origin + i)
            tokens.append(_Token("INT", src[i:j], origin + i))
            i = j
        elif "a" <= ch <= "z":
            tokens.append(_Token("VAR", ch, origin + i))
            i += 1
        elif ch in "+-*/^()":
            tokens.append(_Token("OP", ch, origin + i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", origin + i)
    tokens.append(_Token("END", "", origin + n))
    return tokens


def _is_monomial_node(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Pow):
        return _is_monomial_node(node.base)
    if isinstance(node, Mul):
        return _is_monomial_node(node.left) and _is_monomial_node(node.right)
    return False


class _Parser:
    def __init__(self, src: str, origin: int):
        if not src.strip():
            raise ExprSyntaxError("empty expression", origin)
        self.tokens = _tokenize(src, origin)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> _Token | None:
        """Take the next token if it is one of the operator characters
        ``ops``; None otherwise."""
        tok = self.tokens[self.pos]
        if tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def expect_op(self, op: str) -> _Token:
        tok = self.accept(op)
        if tok is None:
            raise ExprSyntaxError(f"expected {op!r}", self.peek().offset)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while tok := self.accept("+-"):
            rhs = self.term()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.accept("*"):
            node = Mul(node, self.factor())
        if self.accept("/"):
            node = Div(node, self.factor())
        return node

    def factor(self) -> Node:
        negate = self.accept("-")
        node = self.base()
        caret = self.accept("^")
        if caret:
            exponent = self.exponent()
            if exponent.denominator != 1 and not _is_monomial_node(node):
                raise NonMonomialFractionalPowerError(
                    "fractional powers are only legal on variables and monomials",
                    caret.offset,
                )
            node = Pow(node, exponent)
        return Neg(node) if negate else node

    def base(self) -> Node:
        if self.accept("("):
            node = self.expr()
            self.expect_op(")")
            return node
        tok = self.take()
        if tok.kind == "INT":
            return Lit(int(tok.text))
        if tok.kind == "VAR":
            return Var(tok.text)
        raise ExprSyntaxError(f"expected a number, variable or '('", tok.offset)

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.take()
        if tok.kind != "INT":
            raise ExprSyntaxError("expected an integer", tok.offset)
        return sign * int(tok.text)

    def exponent(self) -> Fraction:
        if not self.accept("("):
            return Fraction(self.signed_int())
        num = self.signed_int()
        den = 1
        if self.accept("/"):
            den_tok = self.take()
            if den_tok.kind != "INT":
                raise ExprSyntaxError("expected an integer denominator", den_tok.offset)
            den = int(den_tok.text)
            if den == 0:
                raise ExprSyntaxError("zero denominator in exponent", den_tok.offset)
        self.expect_op(")")
        return Fraction(num, den)


def parse_expression(src: str, origin: int = 0) -> Node:
    """Parse source text to an AST; raises :class:`ExprSyntaxError` (with
    byte offset) on malformed input, including nesting too deep to parse.

    ``origin`` is the offset of ``src`` in a longer text the user typed,
    such as the right side of an identity; error offsets count from there."""
    parser = _Parser(src, origin)
    try:
        return parser.parse()
    except RecursionError:
        offset = parser.tokens[min(parser.pos, len(parser.tokens) - 1)].offset
        raise ExprSyntaxError("expression nested too deeply", offset) from None


_BINARY = {Add: add, Sub: sub, Mul: mul}


def eval_expression(node: Node) -> LaurentPoly:
    """Evaluate an AST in the Laurent ring; '/' uses exact division.

    The left spine of ``+ - *`` chains, which the parser builds left-deep
    for flat sums and products, is folded in a loop, so the length of a
    chain does not count against the recursion limit."""
    spine = []
    while type(node) in _BINARY:
        spine.append(node)
        node = node.left
    value = _eval_leaf(node)
    for op in reversed(spine):
        value = _BINARY[type(op)](value, eval_expression(op.right))
    return value


def _eval_leaf(node: Node) -> LaurentPoly:
    if isinstance(node, Lit):
        return LaurentPoly(node.value)
    if isinstance(node, Var):
        return LaurentPoly.var(node.name)
    if isinstance(node, Neg):
        return -eval_expression(node.child)
    if isinstance(node, Div):
        return exact_div(eval_expression(node.left), eval_expression(node.right))
    if isinstance(node, Pow):
        base = eval_expression(node.base)
        if node.exponent.denominator == 1:
            return base ** int(node.exponent)
        mono = base.as_monomial()  # guaranteed by the parse-time check
        return (mono ** node.exponent).as_poly()
    raise TypeError(f"not an AST node: {node!r}")


def parse_poly(src: str) -> LaurentPoly:
    """Parse and evaluate in one step."""
    return eval_expression(parse_expression(src))
