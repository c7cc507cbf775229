"""Recursive-descent parser for the scalar expression language.

Grammar (highest precedence first):

    power   := atom ['^' unary]          (right associative)
    unary   := '-' unary | power
    term    := unary (('*' | '/') unary)*
    expr    := term (('+' | '-') term)*
    atom    := NUMBER | IDENT | IDENT '(' expr {',' expr} ')' | '(' expr ')'

Identifiers are either function names (sin cos exp log atan2 sqrt), the
constants `i` and `pi`, or coordinate names supplied by the chart.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ..errors import ExprSyntaxError, UnknownIdentifier

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "atan2": 2}
CONSTANTS = {"i": 1j, "pi": math.pi}


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Coord(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple


# One alternative per token kind; whitespace is matched unnamed and
# skipped, and "bad" takes any other character.  \d is exactly the
# digits float() reads; \w continues an identifier as str.isalnum or _.
# [^\W\d] also starts one at a numeral such as "²", which _tokenize
# refuses: an identifier starts with a letter or _.
_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[^\W\d]\w*)|(?P<op>[-+*/^])|(?P<lparen>\()"
    r"|(?P<rparen>\))|(?P<comma>,)|[ \t\r\n]+|(?P<bad>.)", re.DOTALL)

# Tokens an expression may have: the parser recurses once or more per
# token, and at this cap every nesting shape parses, evaluates and
# renders within Python's default recursion limit.
MAX_TOKENS = 256


def _position(source, offset):
    """The (line, column) of an offset into source, both from 1."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _tokenize(source):
    """(kind, text, offset) tokens of source, closed by an "end" token."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "bad" or kind == "ident" and not (
                text[0].isalpha() or text[0] == "_"):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}",
                                  *_position(source, m.start()))
        if kind:
            tokens.append((kind, text, m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source, coords):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.coords = coords

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None, error=ExprSyntaxError):
        line, column = _position(self.source, (tok or self.peek())[2])
        if error is ExprSyntaxError:
            raise ExprSyntaxError(message, line, column)
        raise error(f"{message} at line {line}, column {column}")

    def expect(self, kind, what):
        if self.peek()[0] != kind:
            self.fail(f"expected {what}")
        return self.advance()

    def at(self, *ops):
        """Whether the next token is one of the operators ops (no other
        token kind has an operator's text)."""
        return self.peek()[1] in ops

    def parse_expr(self):
        node = self.parse_term()
        while self.at("+", "-"):
            op = self.advance()[1]
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.at("*", "/"):
            op = self.advance()[1]
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.at("-"):
            self.advance()
            return Unary("-", self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.at("^"):
            self.advance()
            return Bin("^", node, self.parse_unary())
        return node

    def parse_atom(self):
        tok = kind, name, _ = self.peek()
        if kind == "num":
            value = float(name)
            if not math.isfinite(value):
                self.fail("number out of range")
            self.advance()
            return Num(value)
        if kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "lparen":
                if name not in FUNCTIONS:
                    self.fail(f"unknown function {name!r}", tok,
                              UnknownIdentifier)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == "comma":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect("rparen", "')'")
                if len(args) != FUNCTIONS[name]:
                    self.fail(f"{name} takes {FUNCTIONS[name]} argument(s)",
                              tok)
                return Call(name, tuple(args))
            if name in CONSTANTS:
                return Const(name)
            if self.coords is not None and name not in self.coords:
                self.fail(f"unknown identifier {name!r}", tok,
                          UnknownIdentifier)
            return Coord(name)
        self.fail("expected a number, identifier or '('")


def parse(source, coords=None) -> Expr:
    """Parse expression text of at most MAX_TOKENS tokens; coords, when
    given, restricts identifiers."""
    parser = _Parser(source, coords)
    if len(parser.tokens) > MAX_TOKENS + 1:
        parser.pos = MAX_TOKENS
        parser.fail(f"expression longer than {MAX_TOKENS} tokens")
    node = parser.parse_expr()
    if parser.peek()[0] != "end":
        parser.fail("unexpected trailing input")
    return node


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _src(node, parent_prec):
    if isinstance(node, Num):
        v = node.value
        text = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return text
    if isinstance(node, (Const, Coord)):
        return node.name
    if isinstance(node, Unary):
        inner = _src(node.arg, _PREC["neg"])
        out = f"-{inner}"
        return f"({out})" if parent_prec > _PREC["neg"] else out
    if isinstance(node, Bin):
        p = _PREC[node.op]
        # left operand of ^ must re-parenthesize at equal precedence
        left = _src(node.left, p + 1 if node.op == "^" else p)
        right = _src(node.right, p + 1 if node.op in "+-*/" else p)
        out = f"{left}{node.op}{right}"
        return f"({out})" if parent_prec > p else out
    if isinstance(node, Call):
        args = ", ".join(_src(a, 0) for a in node.args)
        return f"{node.fn}({args})"
    raise TypeError(f"not an Expr node: {node!r}")


def to_source(node: Expr) -> str:
    """Render an AST back to parseable text; parse(to_source(e)) == e."""
    return _src(node, 0)
