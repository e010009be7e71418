#!/usr/bin/env python3
"""Compare this checkout's ``parse_expr`` with another checkout's on seeded
random token strings.

Each string joins up to 12 tokens: numbers, names (variables, functions,
constants, unknowns), operators, parentheses and characters the
tokenizer rejects, with separators that include tabs, newlines and
non-ASCII whitespace.  Both parsers must give an equal tree, or a
``ParseError`` with the same message and position.  Prints the counts;
exits 1 at the first difference.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 scripts/diff_parsers.py OTHER_CHECKOUT [-n 400000] [--seed 0]
"""

import argparse
import importlib.util
import pathlib
import random
import sys

from sppa import expr

# a string alternates operands and operators, parentheses mostly balanced;
# about one token in twenty is one that is often wrong where it stands
_OPERANDS = ["1", "2.5", ".5", "3.", "1e3", "2E-2", "\u0663", "a", "b", "x", "pi", "e",
             "sin(", "exp(", "sqrt(", "abs(", "cos(", "(", "-", "--"]
_OPERATORS = ["+", "-", "*", "/", "^", "^-"]
_ODD = ["?", ".", "$", ",", "q", "_u", "tan(", "sin", "1e", "(", ")", "+", "*", "^"]
_SEPARATORS = ["", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c"]
_NAMES = ["a", "b", "x"]


def _random_text(rng: random.Random) -> str:
    tokens, depth = [], 0
    for k in range(rng.randint(0, 12)):  # odd counts end on an operand
        if rng.random() < 0.05:
            token = rng.choice(_ODD)
        elif k % 2:
            token = ")" if depth and rng.random() < 0.3 else rng.choice(_OPERATORS)
        else:
            token = rng.choice(_OPERANDS)
            while token[-1] in "-(":  # unary minus and "(" take an operand
                token += rng.choice(_SEPARATORS) + rng.choice(_OPERANDS)
        depth = max(depth + token.count("(") - token.count(")"), 0)
        tokens.append(rng.choice(_SEPARATORS) + token)
    if rng.random() < 0.8:
        tokens.append(")" * depth)
    return "".join(tokens) + rng.choice(_SEPARATORS)


def _outcome(module, text: str):
    try:
        return repr(module.parse_expr(text, _NAMES))
    except module.ParseError as exc:
        return ("error", exc.message, exc.position)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other", help="root of the checkout to compare with")
    ap.add_argument("-n", type=int, default=400_000, help="number of strings")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    path = pathlib.Path(args.other) / "src" / "sppa" / "expr.py"
    module_spec = importlib.util.spec_from_file_location("other_expr", path)
    other = sys.modules["other_expr"] = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(other)

    rng = random.Random(args.seed)
    n_trees = 0
    for _ in range(args.n):
        text = _random_text(rng)
        mine, theirs = _outcome(expr, text), _outcome(other, text)
        if mine != theirs:
            print(f"differ on {text!r}: {mine} != {theirs}")
            return 1
        n_trees += isinstance(mine, str)
    print(f"{args.n} strings agree: {n_trees} trees, {args.n - n_trees} parse errors")
    return 0


if __name__ == "__main__":
    sys.exit(run())
