"""Problem model, automatic term decomposition, and the benchmark registry.

A problem is a box-bounded set of variables, a linear objective part,
linear constraint rows, and nonlinear terms (each an evaluable function of
a variable subset, contributing to the objective or to one row).  Top
level sums in user expressions are split: affine summands go to the
linear parts exactly, nonlinear summands are grouped by overlapping
variable support (splitting wherever possible keeps the grids, and hence
the binary count, low-dimensional).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from sppa import expr
from sppa.expr import DomainError, Node, ParseError
from sppa.milp import LinearConstraint
from sppa.pwl import Interval

__all__ = [
    "NonlinearTerm",
    "ProblemSpec",
    "ProblemFormatError",
    "from_expressions",
    "builtin",
    "builtin_names",
    "builtin_info",
    "load_problem",
]


@dataclass
class NonlinearTerm:
    """Evaluable function of a variable subset.

    ``row is None`` places ``coef * fn`` in the objective, otherwise in the
    linear constraint with that index.
    """

    var_ids: tuple[int, ...]
    fn: Callable[[np.ndarray], float]
    coef: float = 1.0
    row: Optional[int] = None
    label: str = ""


@dataclass
class ProblemSpec:
    """Full problem description handed to the solver loop."""

    variables: list[tuple[str, Interval, bool]]  # (name, bounds, integer)
    linear_objective: dict[int, float]
    objective_constant: float
    linear_constraints: list[LinearConstraint]
    nonlinear_terms: list[NonlinearTerm]
    sense: str = "min"
    name: str = "problem"

    def __post_init__(self):
        names = [v[0] for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        n = len(self.variables)
        for term in self.nonlinear_terms:
            for j in term.var_ids:
                if not 0 <= j < n:
                    raise ValueError(f"term references unknown variable {j}")
            if term.row is not None and not 0 <= term.row < len(self.linear_constraints):
                raise ValueError(f"term references unknown row {term.row}")
        for row in self.linear_constraints:
            for j in row.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"row references unknown variable {j}")

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def var_names(self) -> list[str]:
        return [v[0] for v in self.variables]

    def bounds(self) -> list[Interval]:
        return [v[1] for v in self.variables]

    def objective_value(self, x) -> float:
        """Exact objective at a point (nonlinear terms evaluated, not surrogate)."""
        x = np.asarray(x, dtype=float)
        val = self.objective_constant + sum(c * x[j] for j, c in self.linear_objective.items())
        for term in self.nonlinear_terms:
            if term.row is None:
                val += term.coef * float(term.fn(x[list(term.var_ids)]))
        return val


# ---------------------------------------------------------------------------
# decomposition of expression trees


def _flatten_sum(node: Node, sign: float, out: list):
    if isinstance(node, expr.Add):
        _flatten_sum(node.left, sign, out)
        _flatten_sum(node.right, sign, out)
    elif isinstance(node, expr.Sub):
        _flatten_sum(node.left, sign, out)
        _flatten_sum(node.right, -sign, out)
    elif isinstance(node, expr.Neg):
        _flatten_sum(node.arg, -sign, out)
    else:
        out.append((sign, node))


def _affine(node: Node) -> Optional[tuple[float, dict[str, float]]]:
    """(constant, name->coefficient) if the node is affine, else None."""
    if not expr.free_vars(node):
        return expr.eval_expr(node, {}), {}
    if isinstance(node, expr.Var):
        return 0.0, {node.name: 1.0}
    if isinstance(node, expr.Neg):
        a = _affine(node.arg)
        if a is None:
            return None
        return -a[0], {k: -v for k, v in a[1].items()}
    if isinstance(node, (expr.Add, expr.Sub)):
        la, ra = _affine(node.left), _affine(node.right)
        if la is None or ra is None:
            return None
        s = -1.0 if isinstance(node, expr.Sub) else 1.0
        coeffs = dict(la[1])
        for k, v in ra[1].items():
            coeffs[k] = coeffs.get(k, 0.0) + s * v
        return la[0] + s * ra[0], coeffs
    if isinstance(node, expr.Mul):
        for const_side, other in ((node.left, node.right), (node.right, node.left)):
            if not expr.free_vars(const_side):
                c = expr.eval_expr(const_side, {})
                a = _affine(other)
                if a is None:
                    return None
                return c * a[0], {k: c * v for k, v in a[1].items()}
        return None
    if isinstance(node, expr.Div):
        if expr.free_vars(node.right):
            return None
        c = expr.eval_expr(node.right, {})
        if c == 0.0:
            raise DomainError("division by zero", node)
        a = _affine(node.left)
        if a is None:
            return None
        return a[0] / c, {k: v / c for k, v in a[1].items()}
    if isinstance(node, expr.Pow):
        if not expr.free_vars(node.exponent) and expr.eval_expr(node.exponent, {}) == 1.0:
            return _affine(node.base)
        return None
    return None


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, a: int) -> int:
        self.parent.setdefault(a, a)
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _term_fn(nodes: list[Node], names: tuple[str, ...]) -> Callable[[np.ndarray], float]:
    def fn(v: np.ndarray) -> float:
        env = dict(zip(names, np.asarray(v, dtype=float)))
        return float(sum(expr.eval_expr(node, env) for node in nodes))

    return fn


def _decompose(ast: Node, var_index: dict[str, int],
               forced_groups: Sequence[Sequence[str]] = ()):
    """Split a sum into (constant, linear coefficients, nonlinear groups)."""
    summands: list[tuple[float, Node]] = []
    _flatten_sum(ast, 1.0, summands)

    constant = 0.0
    linear: dict[int, float] = {}
    nonlinear: list[tuple[frozenset[int], Node]] = []
    for sign, node in summands:
        for name in expr.free_vars(node):
            if name not in var_index:
                raise ValueError(f"unknown identifier {name!r}")
        a = _affine(node)
        if a is not None:
            constant += sign * a[0]
            for name, coef in a[1].items():
                j = var_index[name]
                linear[j] = linear.get(j, 0.0) + sign * coef
            continue
        support = frozenset(var_index[name] for name in expr.free_vars(node))
        nonlinear.append((support, node if sign > 0 else expr.Neg(node)))

    uf = _UnionFind()
    for group in forced_groups:
        ids = [var_index[name] for name in group]
        for j in ids[1:]:
            uf.union(ids[0], j)
    for support, _ in nonlinear:
        ids = sorted(support)
        for j in ids[1:]:
            uf.union(ids[0], j)

    buckets: dict[int, tuple[set[int], list[Node]]] = {}
    for support, node in nonlinear:
        root = uf.find(min(support))
        ids, nodes = buckets.setdefault(root, (set(), []))
        ids.update(support)
        nodes.append(node)
    # a forced group widens its component's term to all group members
    for group in forced_groups:
        gids = [var_index[name] for name in group]
        root = uf.find(gids[0])
        if root in buckets:
            buckets[root][0].update(gids)

    id_to_name = {j: n for n, j in var_index.items()}
    groups = []
    for root in sorted(buckets):
        ids, nodes = buckets[root]
        ordered = tuple(sorted(ids))
        names = tuple(id_to_name[k] for k in ordered)
        groups.append((ordered, _term_fn(nodes, names), nodes))
    linear = {j: c for j, c in linear.items() if c != 0.0}
    return constant, linear, groups


def from_expressions(
    variables: list[tuple[str, Interval, bool]],
    objective_text: str,
    constraints: Sequence[tuple[str, str, float]] = (),
    sense: str = "min",
    groups: Sequence[Sequence[str]] = (),
    name: str = "problem",
) -> ProblemSpec:
    """Build a ProblemSpec from expression text.

    ``constraints`` entries are (lhs expression, sense, rhs).  Nonlinear
    constraint content becomes terms targeted at the corresponding row.
    """
    names = [v[0] for v in variables]
    var_index = {n: j for j, n in enumerate(names)}
    obj_ast = expr.parse_expr(objective_text, var_names=names)
    constant, linear, obj_groups = _decompose(obj_ast, var_index, groups)

    rows: list[LinearConstraint] = []
    terms: list[NonlinearTerm] = []
    for lhs_text, sn, rhs in constraints:
        lhs_ast = expr.parse_expr(lhs_text, var_names=names)
        c0, lin, row_groups = _decompose(lhs_ast, var_index, groups)
        row_idx = len(rows)
        rows.append(LinearConstraint(lin, sn, float(rhs) - c0))
        for g, (ids, fn, _nodes) in enumerate(row_groups):
            terms.append(NonlinearTerm(ids, fn, 1.0, row=row_idx, label=f"r{row_idx}g{g}"))

    for g, (ids, fn, _nodes) in enumerate(obj_groups):
        terms.append(NonlinearTerm(ids, fn, 1.0, row=None, label=f"g{g}"))

    return ProblemSpec(
        variables=list(variables),
        linear_objective=linear,
        objective_constant=constant,
        linear_constraints=rows,
        nonlinear_terms=terms,
        sense=sense,
        name=name,
    )


# ---------------------------------------------------------------------------
# benchmark registry

# piece counts mirror the published benchmark settings; contract_frac and
# max_iters are not published, so the registry carries values found to
# reproduce the reference objectives (see README)
_BUILTINS = {
    "rosenbrock": {
        "text": "(1 - x)^2 + 100*(y - x^2)^2",
        "box": (-2.048, 2.048),
        "optimum": 0.0,
        "argmin": (1.0, 1.0),
        "initial_n_pieces": 4,
        "n_pieces": 4,
        "contract_frac": 0.92,  # slow shrink: the window must track the curved valley
        "max_iters": 150,
    },
    "rastrigin": {
        "text": "20 + x^2 + y^2 - 10*cos(2*pi*x) - 10*cos(2*pi*y)",
        "box": (-5.12, 5.12),
        "optimum": 0.0,
        "argmin": (0.0, 0.0),
        "initial_n_pieces": 6,
        "n_pieces": 3,
        "contract_frac": 0.5,
        "max_iters": 60,
    },
    "ackley": {
        # a=20, b=0.2, c=2*pi on [-5,5]^2
        "text": "-20*exp(-0.2*sqrt(0.5*(x^2 + y^2))) - exp(0.5*(cos(2*pi*x) + cos(2*pi*y)))"
                " + 20 + exp(1)",
        "box": (-5.0, 5.0),
        "optimum": 0.0,
        "argmin": (0.0, 0.0),
        "initial_n_pieces": 3,
        "n_pieces": 3,
        "contract_frac": 0.5,
        "max_iters": 60,
    },
    "eggholder": {
        "text": "-(y + 47)*sin(sqrt(abs(x/2 + y + 47))) - x*sin(sqrt(abs(x - y - 47)))",
        "box": (-512.0, 512.0),
        "optimum": -959.6407,
        "argmin": (512.0, 404.2319),
        "initial_n_pieces": 35,
        "n_pieces": 3,
        # reduced (initial, later) pieces for `sppa table`, the table script
        # and the acceptance gate: a small first MILP that still reaches the optimum
        "desk_pieces": (20, 4),
        "contract_frac": 0.5,
        "max_iters": 60,
    },
}


def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_info(name: str) -> dict:
    """Registry metadata: default piece counts, known optimum, box."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin problem {name!r}")
    return dict(_BUILTINS[name])


def builtin(name: str) -> ProblemSpec:
    info = builtin_info(name)
    lo, hi = info["box"]
    variables = [("x", Interval(lo, hi), False), ("y", Interval(lo, hi), False)]
    return from_expressions(variables, info["text"], sense="min", name=name)


# ---------------------------------------------------------------------------
# problem file format


class ProblemFormatError(ValueError):
    """Malformed problem file; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _split_sense(text: str) -> tuple[str, str, str]:
    for sn in ("<=", ">=", "="):
        k = text.find(sn)
        if k >= 0:
            return text[:k], sn, text[k + len(sn):]
    raise ValueError("constraint needs one of <=, >=, =")


def load_problem(path: str) -> ProblemSpec:
    """Read a problem file.

    Sections: ``[variables]`` (name lo hi [integer]), ``[objective]``
    (optional min/max prefix, then an expression), ``[constraints]`` (one
    ``expr <= rhs`` per line, rhs a constant expression), and optional
    ``[groups]`` (variable names forced into one term).  ``#`` starts a
    comment.
    """
    with open(path) as fh:
        raw = fh.readlines()

    section = None
    variables: list[tuple[str, Interval, bool]] = []
    seen: set[str] = set()
    objective_parts: list[tuple[str, int]] = []
    sense = "min"
    constraints: list[tuple[str, str, float, int]] = []
    groups: list[list[str]] = []

    for lineno, rawline in enumerate(raw, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("variables", "objective", "constraints", "groups"):
                raise ProblemFormatError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ProblemFormatError("content before the first section header", lineno)
        if section == "variables":
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ProblemFormatError("expected: name lo hi [integer]", lineno)
            name = parts[0]
            if name in seen:
                raise ProblemFormatError(f"duplicate variable {name!r}", lineno)
            seen.add(name)
            try:
                lo, hi = float(parts[1]), float(parts[2])
                iv = Interval(lo, hi)
            except ValueError as exc:
                raise ProblemFormatError(str(exc), lineno) from None
            integer = False
            if len(parts) == 4:
                if parts[3].lower() not in ("integer", "int"):
                    raise ProblemFormatError(f"unexpected token {parts[3]!r}", lineno)
                integer = True
            variables.append((name, iv, integer))
        elif section == "objective":
            words = line.split(None, 1)
            if words and words[0].lower() in ("min", "max", "minimize", "maximize"):
                sense = "min" if words[0].lower().startswith("min") else "max"
                line = words[1] if len(words) > 1 else ""
                if not line:
                    continue
            objective_parts.append((line, lineno))
        elif section == "constraints":
            try:
                lhs, sn, rhs_text = _split_sense(line)
            except ValueError as exc:
                raise ProblemFormatError(str(exc), lineno) from None
            try:
                rhs = expr.eval_expr(expr.parse_expr(rhs_text, var_names=[]), {})
            except (ParseError, DomainError) as exc:
                raise ProblemFormatError(f"bad constraint rhs: {exc}", lineno) from None
            constraints.append((lhs, sn, rhs, lineno))
        elif section == "groups":
            names = line.replace(",", " ").split()
            for n in names:
                if n not in seen:
                    raise ProblemFormatError(f"group names unknown variable {n!r}", lineno)
            groups.append(names)

    if not variables:
        raise ProblemFormatError("no variables declared", len(raw))
    if not objective_parts:
        raise ProblemFormatError("no objective", len(raw))

    names = [v[0] for v in variables]
    var_index = {n: j for j, n in enumerate(names)}
    obj_text = " ".join(p[0] for p in objective_parts)
    # decompose each expression against its own source line first, so that
    # a parse, domain or coefficient error names the line it comes from
    try:
        _decompose(expr.parse_expr(obj_text, var_names=names), var_index, groups)
    except (ValueError, DomainError) as exc:  # ParseError is a ValueError
        raise ProblemFormatError(f"objective: {exc}", objective_parts[0][1]) from exc
    for lhs, sn, rhs, lineno in constraints:
        try:
            c0, lin, _ = _decompose(expr.parse_expr(lhs, var_names=names), var_index, groups)
            LinearConstraint(lin, sn, rhs - c0)
        except (ValueError, DomainError) as exc:
            raise ProblemFormatError(f"constraint: {exc}", lineno) from exc

    return from_expressions(
        variables,
        obj_text,
        [(lhs, sn, rhs) for lhs, sn, rhs, _ in constraints],
        sense=sense,
        groups=groups,
        name=os.path.splitext(os.path.basename(path))[0],
    )
