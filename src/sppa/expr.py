"""Infix expression parser and evaluator for objectives and constraints.

Grammar: one precedence table, ``_BINARY``, read by the parser and by
``to_text``; highest binding first, ``^`` (right associative), unary minus,
``*`` ``/``, then ``+`` ``-`` (left associative).  ``name(arg)`` calls one
of sin, cos, exp, sqrt, abs.  The identifiers ``pi`` and ``e`` are folded to constants
unless shadowed by a declared variable.
``compile_sum`` generates straight-line ``math`` code that evaluates a
sum of trees on many points, row by row, bit for bit as ``eval_expr``.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Iterable, Sequence, Union

__all__ = [
    "Node",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ParseError",
    "DomainError",
    "parse_expr",
    "eval_expr",
    "compile_sum",
    "to_text",
    "free_vars",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


class _Frozen:
    """An immutable record, equal by class and fields (its instance dict), hashed by them."""

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Num(_Frozen):
    def __init__(self, value: float):
        vars(self)["value"] = value


class Var(_Frozen):
    def __init__(self, name: str):
        vars(self)["name"] = name


class Neg(_Frozen):
    def __init__(self, arg: "Node"):
        vars(self)["arg"] = arg


class BinOp(_Frozen):
    def __init__(self, op: str, left: "Node", right: "Node"):  # op: one of + - * / ^
        vars(self).update(op=op, left=left, right=right)


class Call(_Frozen):
    def __init__(self, fn: str, arg: "Node"):
        vars(self).update(fn=fn, arg=arg)


Node = Union[Num, Var, Neg, BinOp, Call]


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
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


# binding levels: 1 for + -, 2 for * /, 3 for unary minus, 4 for ^, 5 for an
# atom; each operator's level, the lowest levels its left and right operands
# take without parentheses, and its printed form.  The parser and to_text
# both read this table.
_BINARY = {"+": (1, 1, 2, " + "), "-": (1, 1, 2, " - "), "*": (2, 2, 3, "*"), "/": (2, 2, 3, "/"),
           "^": (4, 5, 3, "^")}
_LEVEL_NEG, _LEVEL_ATOM = 3, 5


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
        node = self.expr(1)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return node

    def expr(self, min_level: int) -> Node:
        """Precedence climbing: the left operand, then every ``_BINARY``
        operator of level ``min_level`` or above, each with its right
        operand parsed at the operator's right level."""
        if self.peek()[1] == "-":  # only an operator token holds a symbol
            self.take()
            node = Neg(self.expr(_LEVEL_NEG))
        else:
            node = self.atom()
        while self.peek()[1] in _BINARY and _BINARY[self.peek()[1]][0] >= min_level:
            op = self.take()[1]
            node = BinOp(op, node, self.expr(_BINARY[op][2]))
        return node

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
                arg = self.expr(1)
                self.expect_op(")")
                return Call(val, arg)
            if val in self.known:
                return Var(val)
            if val in CONSTANTS:
                return Num(CONSTANTS[val])
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr(1)
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


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": math.pow}


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
    if isinstance(ast, BinOp):
        if ast.op == "/":  # the divisor first, so that its own failure is reported
            denom = _eval(ast.right, env)
            if denom == 0.0:
                raise DomainError("division by zero", ast)
            return _eval(ast.left, env) / denom
        left, right = _eval(ast.left, env), _eval(ast.right, env)
        try:
            return _ARITHMETIC[ast.op](left, right)
        except OverflowError:  # only math.pow raises
            raise DomainError("power overflows", ast) from None
        except ValueError:
            raise DomainError("power outside real domain", ast) from None
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
        except OverflowError:
            raise DomainError(f"{ast.fn} overflows", ast) from None
        except ValueError:
            raise DomainError(f"{ast.fn} outside real domain", ast) from None
    raise TypeError(f"not an expression node: {ast!r}")


# the row evaluator's functions, each the one eval_expr calls, so that a
# row raises where eval_expr raises and otherwise gets its bits
_ROW_FUNCS = {"pow_": math.pow, "sqrt": math.sqrt, "exp": math.exp, "sin": math.sin,
              "cos": math.cos}


def compile_sum(nodes: Sequence[Node], names: Sequence[str]) -> Callable:
    """A generated function of a sequence of rows of Python floats, entry k
    the value of ``names[k]``: the list of each row's ``0.0 + s1 + s2 ...``
    over ``nodes``, with ``eval_expr``'s operations and bits.  Where
    ``eval_expr`` raises for a zero divisor, a negative square root or a
    ``math`` error, the row raises the Python error; a non-finite summand
    leaves the sum non-finite.  Constant subtrees are folded: one that
    fails raises its ``DomainError`` here."""
    body: list[str] = []
    consts: dict[str, float] = {}

    def value(node: Node) -> str:
        """The name of the local or constant holding ``node``'s value."""
        if isinstance(node, Var):
            return f"c{names.index(node.name)}"
        if not free_vars(node):
            consts[f"k{len(consts)}"] = _eval(node, {})
            return f"k{len(consts) - 1}"
        if isinstance(node, Neg):
            code = f"-{value(node.arg)}"
        elif isinstance(node, Call):
            code = f"{node.fn}({value(node.arg)})"
        elif node.op == "^":
            code = f"pow_({value(node.left)}, {value(node.right)})"
        else:
            code = f"{value(node.left)} {node.op} {value(node.right)}"
        body.append(f"        t{len(body)} = {code}")
        return f"t{len(body) - 1}"

    total = " + ".join(["0.0", *map(value, nodes)])
    row = "".join(f"c{k}, " for k in range(len(names)))
    source = "\n".join(["def rows(p):", "    out = []", f"    for {row}in p:", *body,
                        f"        out.append({total})", "    return out\n"])
    namespace = dict(_ROW_FUNCS, **consts)
    exec(compile(source, "<compile_sum>", "exec"), namespace)
    return namespace["rows"]


def _level(ast: Node) -> int:
    if isinstance(ast, BinOp):
        return _BINARY[ast.op][0]
    return _LEVEL_NEG if isinstance(ast, Neg) else _LEVEL_ATOM


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
    if isinstance(ast, BinOp):
        _, left, right, text = _BINARY[ast.op]
        return f"{wrap(ast.left, left)}{text}{wrap(ast.right, right)}"
    if isinstance(ast, Call):
        return f"{ast.fn}({to_text(ast.arg)})"
    raise TypeError(f"not an expression node: {ast!r}")


def free_vars(ast: Node) -> set[str]:
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Num):
        return set()
    if isinstance(ast, (Neg, Call)):
        return free_vars(ast.arg)
    return free_vars(ast.left) | free_vars(ast.right)
