"""Infix expression parser and evaluator for objectives and constraints.

Grammar (highest binding first): ``^`` (right associative), unary minus,
``*`` ``/``, then ``+`` ``-``.  ``name(arg)`` calls one of sin, cos, exp,
sqrt, abs.  The identifiers ``pi`` and ``e`` are folded to constants
unless shadowed by a declared variable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Union

__all__ = [
    "Node",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ParseError",
    "DomainError",
    "parse_expr",
    "eval_expr",
    "to_text",
    "free_vars",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


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


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


class ParseError(ValueError):
    """Syntax or name error, annotated with a 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation left the real domain (or produced a non-finite value)."""

    def __init__(self, message: str, subexpr: "Node"):
        super().__init__(f"{message} in '{to_text(subexpr)}'")
        self.subexpr = subexpr


_TOKEN_RE = re.compile(
    r"(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, var_names: Iterable[str]):
        if not text.strip():
            raise ParseError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.i = 0
        self.known = set(var_names)

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.take()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return Pow(base, self.unary())  # right associative, allows 2^-3
        return base

    def atom(self) -> Node:
        kind, val, pos = self.take()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in self.known:
                return Var(val)
            if val in CONSTANTS:
                return Num(CONSTANTS[val])
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {val!r}" if val else "unexpected end of input", pos)


def parse_expr(text: str, var_names: Iterable[str]) -> Node:
    """Parse ``text`` into an AST.

    Identifiers outside ``var_names`` (and outside the function/constant
    tables) raise a position-annotated ParseError.
    """
    return _Parser(text, var_names).parse()


def eval_expr(ast: Node, env: dict[str, float]) -> float:
    """Evaluate with IEEE doubles; domain failures and non-finite results raise."""
    val = _eval(ast, env)
    if not math.isfinite(val):
        raise DomainError("non-finite result", ast)
    return val


def _eval(ast: Node, env: dict[str, float]) -> float:
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Var):
        try:
            return float(env[ast.name])
        except KeyError:
            raise DomainError(f"unassigned variable {ast.name!r}", ast) from None
    if isinstance(ast, Neg):
        return -_eval(ast.arg, env)
    if isinstance(ast, Add):
        return _eval(ast.left, env) + _eval(ast.right, env)
    if isinstance(ast, Sub):
        return _eval(ast.left, env) - _eval(ast.right, env)
    if isinstance(ast, Mul):
        return _eval(ast.left, env) * _eval(ast.right, env)
    if isinstance(ast, Div):
        denom = _eval(ast.right, env)
        if denom == 0.0:
            raise DomainError("division by zero", ast)
        return _eval(ast.left, env) / denom
    if isinstance(ast, Pow):
        base = _eval(ast.base, env)
        exponent = _eval(ast.exponent, env)
        try:
            out = math.pow(base, exponent)
        except (ValueError, OverflowError):
            raise DomainError("power outside real domain", ast) from None
        return out
    if isinstance(ast, Call):
        arg = _eval(ast.arg, env)
        if ast.fn == "sqrt":
            if arg < 0.0:
                raise DomainError("square root of a negative number", ast)
            return math.sqrt(arg)
        if ast.fn == "abs":
            return abs(arg)
        try:
            return getattr(math, ast.fn)(arg)
        except (ValueError, OverflowError):
            raise DomainError(f"{ast.fn} outside real domain", ast) from None
    raise TypeError(f"not an expression node: {ast!r}")


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(ast: Node) -> int:
    if isinstance(ast, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(ast, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(ast, Neg):
        return _LEVEL_NEG
    if isinstance(ast, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def to_text(ast: Node) -> str:
    """Render with minimal parentheses; re-parsing yields an identical tree."""

    def wrap(child: Node, min_level: int) -> str:
        s = to_text(child)
        return f"({s})" if _level(child) < min_level else s

    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return "-" + wrap(ast.arg, _LEVEL_NEG)
    if isinstance(ast, Add):
        return f"{wrap(ast.left, _LEVEL_ADD)} + {wrap(ast.right, _LEVEL_ADD + 1)}"
    if isinstance(ast, Sub):
        return f"{wrap(ast.left, _LEVEL_ADD)} - {wrap(ast.right, _LEVEL_ADD + 1)}"
    if isinstance(ast, Mul):
        return f"{wrap(ast.left, _LEVEL_MUL)}*{wrap(ast.right, _LEVEL_MUL + 1)}"
    if isinstance(ast, Div):
        return f"{wrap(ast.left, _LEVEL_MUL)}/{wrap(ast.right, _LEVEL_MUL + 1)}"
    if isinstance(ast, Pow):
        return f"{wrap(ast.base, _LEVEL_ATOM)}^{wrap(ast.exponent, _LEVEL_NEG)}"
    if isinstance(ast, Call):
        return f"{ast.fn}({to_text(ast.arg)})"
    raise TypeError(f"not an expression node: {ast!r}")


def free_vars(ast: Node) -> set[str]:
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Num):
        return set()
    if isinstance(ast, Neg):
        return free_vars(ast.arg)
    if isinstance(ast, Call):
        return free_vars(ast.arg)
    if isinstance(ast, Pow):
        return free_vars(ast.base) | free_vars(ast.exponent)
    return free_vars(ast.left) | free_vars(ast.right)
