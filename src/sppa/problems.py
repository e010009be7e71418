"""Problem model and its rows, automatic term decomposition, and the benchmark registry.

A problem is a box-bounded set of variables, a linear objective part,
linear constraint rows, and nonlinear terms (each an evaluable function of
a variable subset, contributing to the objective or to one row).  Top
level sums in user expressions are split: affine summands go to the
linear parts exactly, and the nonlinear summands are grouped by
``group_leads``: taken largest variable set first, each joins the first
group whose variables contain its own, or leads a term of its own.  On the
simplicial grid a sum of functions interpolates to the sum of their
interpolants, so splitting summands keeps the surrogate and keeps the
grids, and hence each term's vertex count, low-dimensional; ``loop`` gives
each group of terms, by the same rule, one lambda block.

A term evaluates itself: ``NonlinearTerm.at`` gives ``coef * fn`` at one
point and ``NonlinearTerm.on`` at every row of a list of points, such as a
grid's vertices.  A term built from expressions evaluates one point with
``expr.eval_expr``, and carries its ``expr.compile_sum`` function as
``NonlinearTerm.rows_fn``, which ``on`` calls on all the rows at once; the
exact objective and rows of ``ProblemSpec`` evaluate each term by ``on``
at its one point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from sppa import expr
from sppa.expr import DomainError, Node, _Frozen

__all__ = [
    "LE", "EQ", "GE", "ROW_TOL", "COUNTERS", "LinearConstraint", "row_violation",  # shared with milp
    "Interval",
    "NonlinearTerm",
    "ProblemSpec",
    "ProblemFormatError",
    "from_expressions",
    "group_leads",
    "builtin",
    "builtin_names",
    "builtin_info",
    "load_problem",
]


LE, EQ, GE = "<=", "=", ">="
# the largest row violation an accepted point may have, relative to 1 + |rhs|
ROW_TOL = 1e-6
# the solver's counters, in trace order; nodes_<outcome> counts the nodes that end
# that way, and a node the deadline stops counts in none of them
COUNTERS = ("nodes", "pivots", "root_pivots", "factorizations", "nodes_set_branched",
            "nodes_var_branched", "nodes_integral", "nodes_infeasible", "nodes_cutoff")


class LinearConstraint:
    """Sparse row ``sum(coeffs[j] * x_j) sense rhs``."""

    def __init__(self, coeffs: dict[int, float], sense: str, rhs: float):
        if sense not in (LE, EQ, GE):
            raise ValueError(f"unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError("row rhs must be finite")
        for j, c in coeffs.items():
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient on variable {j}")
        self.coeffs, self.sense, self.rhs = coeffs, sense, rhs

    def activity(self, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in self.coeffs.items()))


def row_violation(activity, senses, rhs) -> float:
    """The largest ``max(0, excess) / (1 + |rhs|)`` over rows of these ``senses``
    and ``rhs`` at ``activity``, ``excess`` being how far it lies on the wrong
    side of the rhs; 0.0 with no rows.  Rows hold when it is at most ``ROW_TOL``."""
    worst = 0.0
    for a, sense, b in zip(activity, senses, rhs):
        r = a - b
        excess = r if sense == LE else -r if sense == GE else abs(r)
        worst = max(worst, excess / (1.0 + abs(b)))
    return float(worst)


_BOOLS = frozenset((bool, np.bool_))  # math.isfinite takes their values as 0 and 1


class Interval(_Frozen):
    """Closed bounded interval ``[lo, hi]`` of real numbers, immutable."""
    __hash__ = _Frozen.__hash__  # kept beside the __eq__ below

    def __init__(self, lo: float, hi: float):
        try:
            finite = math.isfinite(lo) and math.isfinite(hi)
        except TypeError:  # not a real number
            finite = None
        if finite is None or lo.__class__ in _BOOLS or hi.__class__ in _BOOLS:
            raise ValueError(f"interval bounds must be real numbers, got [{lo!r}, {hi!r}]")
        if not finite:
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        # set and compared without building the instance dict, whose reads are slower
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass
class NonlinearTerm:
    """Evaluable function of a variable subset.

    ``row is None`` places ``coef * fn`` in the objective, otherwise in the
    linear constraint with that index.  A term with a ``rows_fn``, the row
    form of ``fn`` (``expr.compile_sum``), is evaluated on many points
    through it (``on``).  ``ProblemSpec`` labels a term left unlabelled
    ``t<k>``, after its position.
    """

    var_ids: tuple[int, ...]
    fn: Callable[[np.ndarray], float]
    coef: float = 1.0
    row: Optional[int] = None
    label: str = ""
    rows_fn: Optional[Callable] = None

    def at(self, point: np.ndarray, where: str = "point") -> float:
        """``coef * fn`` at ``point``, the values of ``var_ids``; an
        ``ArithmeticError`` or a non-finite value (times ``coef``) raises a
        ``ValueError`` that names the label, ``where`` and the point and
        carries the point as its ``point`` attribute."""
        try:
            val = self.coef * float(self.fn(point))
            if not math.isfinite(val):
                raise ArithmeticError(f"value {val} is not finite")
        except ArithmeticError as exc:
            error = ValueError(f"term '{self.label}' failed at {where} {point.tolist()}: {exc}")
            error.point = point.tolist()
            raise error from exc
        return val

    def on(self, rows: Sequence[Sequence[float]], where: str = "grid vertex") -> list[float]:
        """``coef * fn`` at every row of ``rows``, each the Python float
        values of ``var_ids``: in one call to ``rows_fn`` if set, else, or
        if that pass raises, gives other than one value per row or a sum of
        them times ``coef`` that is not finite, by ``at`` on each row in
        order, so that the first failing row raises, named as ``where``."""
        if self.rows_fn is not None:
            try:
                values = self.rows_fn(rows)
            except (ValueError, ArithmeticError):  # a zero divisor or a math error
                pass
            else:
                values = list(values) if self.coef == 1.0 else [self.coef * v for v in values]
                # non-finite where a value is, or on a rare overflow, which the loop evaluates
                if len(values) == len(rows) and math.isfinite(sum(values)):
                    return values
        return [self.at(np.array(p, dtype=float), where) for p in rows]


def _integer_bounds(iv: Interval) -> Interval:
    """``iv`` rounded inward to integers; ValueError if it holds no integer."""
    lo, hi = float(math.ceil(iv.lo)), float(math.floor(iv.hi))
    if lo > hi:
        raise ValueError(f"integer variable has no integer in [{iv.lo}, {iv.hi}]")
    return Interval(lo, hi)


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
        self.variables = [(name, _integer_bounds(iv) if integer else iv, integer)
                          for name, iv, integer in self.variables]
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not all(map(math.isfinite, [self.objective_constant, *self.linear_objective.values()])):
            raise ValueError("objective constant and coefficients must be finite")
        n = len(self.variables)
        for what, ids in (("term", [j for t in self.nonlinear_terms for j in t.var_ids]),
                          ("row", [j for row in self.linear_constraints for j in row.coeffs]),
                          ("objective", self.linear_objective)):
            for j in ids:
                if not 0 <= j < n:
                    raise ValueError(f"{what} references unknown variable {j}")
        # an unlabelled term is named by its position, as errors report it
        self.nonlinear_terms = [term if term.label else replace(term, label=f"t{k}")
                                for k, term in enumerate(self.nonlinear_terms)]
        for term in self.nonlinear_terms:
            if term.row is not None and not 0 <= term.row < len(self.linear_constraints):
                raise ValueError(f"term references unknown row {term.row}")
            if not math.isfinite(term.coef):
                raise ValueError(f"term '{term.label}' has a non-finite coefficient {term.coef}")
            if len(set(term.var_ids)) != len(term.var_ids):
                raise ValueError(f"term '{term.label}' repeats a variable in {term.var_ids}")
        self.groups = group_leads([term.var_ids for term in self.nonlinear_terms])  # per term

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def var_names(self) -> list[str]:
        return [v[0] for v in self.variables]

    def bounds(self) -> list[Interval]:
        return [v[1] for v in self.variables]

    def objective_value(self, x) -> float:
        """Exact objective at a point, a float (nonlinear terms evaluated, not surrogate)."""
        x = np.asarray(x, dtype=float).tolist()
        val = self.objective_constant + sum(c * x[j] for j, c in self.linear_objective.items())
        for term in self.nonlinear_terms:
            if term.row is None:
                val += term.on([[x[k] for k in term.var_ids]], "point")[0]
        return float(val)

    def row_violation(self, x) -> float:
        """The largest row violation at a point, each relative to ``1 + |rhs|``
        (nonlinear terms evaluated, not surrogate); 0.0 without rows."""
        x = np.asarray(x, dtype=float).tolist()
        shift = [0.0] * len(self.linear_constraints)
        for term in self.nonlinear_terms:
            if term.row is not None:
                shift[term.row] += term.on([[x[k] for k in term.var_ids]], "point")[0]
        rows = self.linear_constraints
        return row_violation([row.activity(x) + s for row, s in zip(rows, shift)],
                             [row.sense for row in rows], [row.rhs for row in rows])


# ---------------------------------------------------------------------------
# decomposition of expression trees


def _flatten_sum(node: Node, sign: float, out: list):
    if isinstance(node, expr.BinOp) and node.op in ("+", "-"):
        _flatten_sum(node.left, sign, out)
        _flatten_sum(node.right, -sign if node.op == "-" else sign, out)
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
    if not isinstance(node, expr.BinOp):
        return None
    if node.op in ("+", "-"):
        la, ra = _affine(node.left), _affine(node.right)
        if la is None or ra is None:
            return None
        s = -1.0 if node.op == "-" else 1.0
        coeffs = dict(la[1])
        for k, v in ra[1].items():
            coeffs[k] = coeffs.get(k, 0.0) + s * v
        return la[0] + s * ra[0], coeffs
    if node.op == "*":
        for const_side, other in ((node.left, node.right), (node.right, node.left)):
            if not expr.free_vars(const_side):
                c = expr.eval_expr(const_side, {})
                a = _affine(other)
                if a is None:
                    return None
                return c * a[0], {k: c * v for k, v in a[1].items()}
        return None
    if expr.free_vars(node.right):  # a divisor or an exponent with a variable
        return None
    c = expr.eval_expr(node.right, {})
    if node.op == "^":
        return _affine(node.left) if c == 1.0 else None
    if c == 0.0:
        raise DomainError("division by zero", node)
    a = _affine(node.left)
    if a is None:
        return None
    return a[0] / c, {k: v / c for k, v in a[1].items()}


def _term_fn(nodes: list[Node], names: tuple[str, ...]):
    """The sum of ``nodes`` as a function of one point, and its row form."""
    def fn(v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (len(names),):
            raise ValueError(f"expected a point of width {len(names)}, got shape {v.shape}")
        env = dict(zip(names, v))
        return float(sum(expr.eval_expr(node, env) for node in nodes))

    return fn, expr.compile_sum(nodes, names)


def group_leads(var_sets: Sequence) -> list[int]:
    """Each variable set's group, named by the position of its leading set,
    whose variables are the group's: the sets are taken largest first, in
    source order on ties, and each joins the first group whose variables
    contain its own, or leads a new one."""
    lead: dict[int, int] = {}
    for i in sorted(range(len(var_sets)), key=lambda i: -len(var_sets[i])):
        lead[i] = next((g for g in lead.values() if set(var_sets[i]) <= set(var_sets[g])), i)
    return [lead[i] for i in range(len(var_sets))]


def _decompose(text: str, var_index: dict[str, int]):
    """Parse a sum and split it into (constant, linear coefficients,
    nonlinear groups).  A group is (variable ids, function of them, its
    row form): the nonlinear summands of one ``group_leads`` group, in
    their order of appearance; groups are ordered by their smallest
    variable id, then by their leading summand's position."""
    summands: list[tuple[float, Node]] = []
    _flatten_sum(expr.parse_expr(text, var_names=list(var_index)), 1.0, summands)

    constant = 0.0
    linear: dict[int, float] = {}
    nonlinear: list[tuple[frozenset[int], Node]] = []
    for sign, node in summands:
        a = _affine(node)
        if a is not None:
            constant += sign * a[0]
            for name, coef in a[1].items():
                j = var_index[name]
                linear[j] = linear.get(j, 0.0) + sign * coef
            continue
        support = frozenset(var_index[name] for name in expr.free_vars(node))
        nonlinear.append((support, node if sign > 0 else expr.Neg(node)))
    if not math.isfinite(constant):
        raise ValueError("non-finite constant")
    for name, j in var_index.items():
        if not math.isfinite(linear.get(j, 0.0)):
            raise ValueError(f"non-finite coefficient on {name!r}")

    leads = group_leads([support for support, _ in nonlinear])
    id_to_name = {j: n for n, j in var_index.items()}
    groups = []
    for g in sorted(set(leads), key=lambda g: (min(nonlinear[g][0]), g)):
        ids = tuple(sorted(nonlinear[g][0]))
        groups.append((ids, *_term_fn([node for (_, node), lead in zip(nonlinear, leads)
                                       if lead == g], tuple(id_to_name[k] for k in ids))))
    linear = {j: c for j, c in linear.items() if c != 0.0}
    return constant, linear, groups


def _row(decomposed, sense: str, rhs: float):
    """A decomposed constraint lhs as (linear row, its nonlinear groups)."""
    c0, linear, groups = decomposed
    return LinearConstraint(linear, sense, float(rhs) - c0), groups


def _assemble(variables, objective, rows, sense: str, name: str) -> ProblemSpec:
    """The ProblemSpec of a decomposed objective and ``_row`` rows; each
    group becomes one term, labelled ``g<k>`` in the objective and
    ``r<i>g<k>`` in row i."""
    constant, linear, obj_groups = objective
    terms = [NonlinearTerm(ids, fn, 1.0, row=i, label=f"r{i}g{g}", rows_fn=rows_fn)
             for i, (_, groups) in enumerate(rows)
             for g, (ids, fn, rows_fn) in enumerate(groups)]
    terms += [NonlinearTerm(ids, fn, 1.0, row=None, label=f"g{g}", rows_fn=rows_fn)
              for g, (ids, fn, rows_fn) in enumerate(obj_groups)]
    return ProblemSpec(list(variables), linear, constant, [row for row, _ in rows], terms,
                       sense, name)


def from_expressions(
    variables: list[tuple[str, Interval, bool]],
    objective_text: str,
    constraints: Sequence[tuple[str, str, float]] = (),
    sense: str = "min",
    name: str = "problem",
) -> ProblemSpec:
    """Build a ProblemSpec from expression text.

    ``constraints`` entries are (lhs expression, sense, rhs).  Nonlinear
    constraint content becomes terms targeted at the corresponding row.
    """
    var_index = {v[0]: j for j, v in enumerate(variables)}
    objective = _decompose(objective_text, var_index)
    rows = [_row(_decompose(lhs, var_index), sn, rhs) for lhs, sn, rhs in constraints]
    return _assemble(variables, objective, rows, sense, name)


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
        "initial_n_pieces": 4,
        "n_pieces": 4,
        "contract_frac": 0.92,  # slow shrink: the window must track the curved valley
        "max_iters": 150,
    },
    "rastrigin": {
        "text": "20 + x^2 + y^2 - 10*cos(2*pi*x) - 10*cos(2*pi*y)",
        "box": (-5.12, 5.12),
        "optimum": 0.0,
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
        "initial_n_pieces": 3,
        "n_pieces": 3,
        "contract_frac": 0.5,
        "max_iters": 60,
    },
    "eggholder": {
        "text": "-(y + 47)*sin(sqrt(abs(x/2 + y + 47))) - x*sin(sqrt(abs(x - y - 47)))",
        "box": (-512.0, 512.0),
        "optimum": -959.6407,
        "initial_n_pieces": 35,
        "n_pieces": 3,
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
    (one optional min/max word before the expression, which may span lines)
    and ``[constraints]`` (one ``expr <= rhs`` per line, rhs a constant
    expression); any other section is an error.  ``#`` starts a comment.
    Each expression is parsed once, and the terms are grouped as in
    ``from_expressions``.  An error names its line (an objective error with
    no position, such as a domain error, the objective's first line; an
    empty section its header).
    """
    with open(path) as fh:
        raw = fh.readlines()

    section = None
    variables: list[tuple[str, Interval, bool]] = []
    objective_parts: list[tuple[str, int]] = []
    sense: Optional[str] = None
    constraints: list[tuple[str, int]] = []
    headers: dict[str, int] = {}  # each section's first header line

    for lineno, rawline in enumerate(raw, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("variables", "objective", "constraints"):
                raise ProblemFormatError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ProblemFormatError("content before the first section header", lineno)
        if section == "variables":
            parts = line.split()
            if len(parts) not in (3, 4):
                raise ProblemFormatError("expected: name lo hi [integer]", lineno)
            name = parts[0]
            if any(name == v[0] for v in variables):
                raise ProblemFormatError(f"duplicate variable {name!r}", lineno)
            integer = len(parts) == 4
            if integer and parts[3].lower() not in ("integer", "int"):
                raise ProblemFormatError(f"unexpected token {parts[3]!r}", lineno)
            try:
                iv = Interval(float(parts[1]), float(parts[2]))
                if integer:
                    _integer_bounds(iv)
            except ValueError as exc:
                raise ProblemFormatError(str(exc), lineno) from None
            variables.append((name, iv, integer))
        elif section == "objective":
            words = line.split(None, 1)  # a sense word only before the expression
            if sense is None and not objective_parts and words[0].lower() in (
                    "min", "max", "minimize", "maximize"):
                sense = "min" if words[0].lower().startswith("min") else "max"
                line = words[1] if len(words) > 1 else ""
                if not line:
                    continue
            objective_parts.append((line, lineno))
        elif section == "constraints":
            constraints.append((line, lineno))

    last = max(len(raw), 1)  # an empty section names its header, a missing one this
    if not variables:
        raise ProblemFormatError("no variables declared", headers.get("variables", last))
    if not objective_parts:
        raise ProblemFormatError("no objective", headers.get("objective", last))

    # decompose each expression inside its own line's try, so that a parse,
    # domain or coefficient error names the line it comes from
    var_index = {v[0]: j for j, v in enumerate(variables)}
    text = "\n".join(p[0] for p in objective_parts)
    try:
        objective = _decompose(text, var_index)
    except (ValueError, DomainError) as exc:  # ParseError is a ValueError
        message, part = str(exc), 0
        if isinstance(exc, expr.ParseError):  # the line and column of the position
            part = text.count("\n", 0, exc.position)
            column = exc.position - text.rfind("\n", 0, exc.position) - 1
            message = str(expr.ParseError(exc.message, column))
        raise ProblemFormatError(f"objective: {message}", objective_parts[part][1]) from exc
    rows = []
    for line, lineno in constraints:
        try:
            lhs, sn, rhs_text = _split_sense(line)
            try:
                rhs = expr.eval_expr(expr.parse_expr(rhs_text, var_names=[]), {})
            except expr.ParseError as exc:  # the position within the line
                raise expr.ParseError(exc.message, len(lhs) + len(sn) + exc.position) from exc
            rows.append(_row(_decompose(lhs, var_index), sn, rhs))
        except (ValueError, DomainError) as exc:
            raise ProblemFormatError(f"constraint: {exc}", lineno) from exc
    return _assemble(variables, objective, rows, sense or "min",
                     os.path.splitext(os.path.basename(path))[0])
