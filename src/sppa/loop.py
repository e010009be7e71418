"""Outer solve loop: piecewise model, MILP solve, geometric bound contraction.

Each iteration approximates every nonlinear term on a fresh grid over the
current variable boxes, solves the resulting MILP (or reads its optimum off
the grid vertices when no row exists and no two terms share a variable),
then shrinks the box of every variable that appears in a nonlinear term by
``contract_frac`` (translated to stay inside the previous box), until the
box reaches its floor (see ``run``).  Variables outside all nonlinear terms
keep their bounds untouched.  Iterates are ranked by their exact objective
and rows, never by the surrogate; the boxes are centred on the best-ranked
point while the latest iterate is feasible (see ``run``).

Each iteration builds one grid per lambda block, in ``_group_grid``, and
one array of its vertices for ``mcmodel.encode_term``; the vertex solve
takes a term's vertices as tuples of floats (``_vertex_rows``).  Each term
evaluates itself once at all those vertices (``NonlinearTerm.on``), or at
one point when all its variables are fixed (``NonlinearTerm.at``).  The
model is exact at a vertex, so the vertex solve's value is the exact objective.

At a fixed piece count every model has the same columns and rows in the
same order, one shape, built once per ``run`` call with its canonical form
and refilled in place (``build_iteration_model``, which groups the terms
once per run); each MILP root starts from the previous iteration's optimal
root basis (``MilpResult.start``).
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from typing import Callable, Optional

import numpy as np

from sppa import mcmodel, milp
from sppa.problems import NonlinearTerm, ProblemSpec, group_leads
from sppa.pwl import Grid, Interval, axis_breakpoints

__all__ = [
    "SppaConfig",
    "IterationRecord",
    "SppaResult",
    "contract_bounds",
    "build_iteration_model",
    "run",
]

# a run stalls when the exact objective moves by at most _STALL_TOL in
# _STALL_ITERS consecutive iterations whose incumbent moved
_STALL_TOL = 1e-9
_STALL_ITERS = 3
# the floor of a continuous window (see run)
_FLOOR_REL = 1e-8
_FLOOR_SPACINGS = 8


class SppaConfig:
    """The run's settings, checked on construction; equal to a config of equal settings."""

    def __init__(self, initial_n_pieces: int = 4, n_pieces: int = 4, contract_frac: float = 0.5,
                 max_iters: int = 60, time_limit: Optional[float] = None):
        self.initial_n_pieces, self.n_pieces = initial_n_pieces, n_pieces
        self.contract_frac, self.max_iters, self.time_limit = contract_frac, max_iters, time_limit
        for name in ("initial_n_pieces", "n_pieces", "max_iters"):
            value = getattr(self, name)
            # a bool is an Integral, but True is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        frac, limit = self.contract_frac, self.time_limit
        if not (isinstance(frac, numbers.Real) and 0.0 < frac < 1.0):
            raise ValueError(f"contract_frac must lie strictly between 0 and 1, got {frac!r}")
        if limit is not None and (isinstance(limit, bool)
                                  or not (isinstance(limit, numbers.Real) and limit > 0.0)):
            raise ValueError(f"time_limit must be positive, got {limit!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"SppaConfig({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class IterationRecord:
    def __init__(self, iteration: int, incumbent: np.ndarray, objective: float,
                 surrogate_objective: float, row_violation: float,
                 bounds: dict[str, Interval], milp_stats: dict):
        self.iteration, self.incumbent, self.milp_stats = iteration, incumbent, milp_stats
        self.objective = objective  # exact objective at the incumbent
        self.surrogate_objective = surrogate_objective  # the MILP's piecewise model optimum
        self.row_violation = row_violation  # ProblemSpec.row_violation at the incumbent
        self.bounds = bounds  # boxes in effect for this iteration's model


class SppaResult:
    def __init__(self, best_point: Optional[np.ndarray], best_objective: Optional[float],
                 trace: list[IterationRecord], termination: str, seconds: float = 0.0):
        self.best_point, self.best_objective, self.trace = best_point, best_objective, trace
        # width | stall | max_iters | time_limit, or the status of a MILP that
        # returned no incumbent: infeasible | time_limit | numerical | iteration_limit
        self.termination, self.seconds = termination, seconds


def contract_bounds(interval: Interval, value: float, frac: float) -> Interval:
    """Shrink ``interval`` to ``frac`` of its width around ``value``.

    A window protruding below (above) the interval is translated up (down)
    until flush; the result is contained in the old interval and contains
    ``value``.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must lie strictly between 0 and 1")
    v = min(max(value, interval.lo), interval.hi)
    w = interval.width * frac
    lo = v - w / 2.0
    hi = v + w / 2.0
    if lo < interval.lo:
        return Interval(interval.lo, interval.lo + w)
    if hi > interval.hi:
        return Interval(interval.hi - w, interval.hi)
    return Interval(lo, hi)


def _contract_integer(interval: Interval, value: float, frac: float) -> Interval:
    # round the contracted window outward; ProblemSpec's integral bounds keep
    # it inside the old window and, at positive width, at least one unit wide
    inner = contract_bounds(interval, value, frac)
    return Interval(math.floor(inner.lo), math.ceil(inner.hi))


def _group_grid(spec: ProblemSpec, lead: NonlinearTerm, bounds: list[Interval], pieces: int):
    """``(active, vertices, points)`` of the lambda block that ``lead``
    leads: the lead's variables of positive width, their grid's vertex
    coordinates (``pieces`` segments each, ``Grid.points``) and each
    vertex's full point in ``lead.var_ids`` order, fixed variables at their
    values (the same array when no variable is fixed); with no active
    variable, no grid."""
    active = [k for k in lead.var_ids if bounds[k].width > 0.0]
    if not active:
        return active, None, None
    vertices = Grid([axis_breakpoints(bounds[k], pieces, spec.variables[k][2])
                     for k in active]).points()
    if len(active) == len(lead.var_ids):
        return active, vertices, vertices
    # float: an int bound must not make the array integer and truncate the grid
    points = np.full(vertices.shape[:-1] + (len(lead.var_ids),),
                     [bounds[k].lo for k in lead.var_ids], dtype=float)
    points[..., [lead.var_ids.index(k) for k in active]] = vertices
    return active, vertices, points


def _constant(term: NonlinearTerm, bounds: list[Interval]) -> float:
    """A term whose variables are all fixed, at their values."""
    return term.at(np.array([bounds[k].lo for k in term.var_ids], dtype=float))


def build_iteration_model(spec: ProblemSpec, bounds: list[Interval], pieces: int,
                          models: Optional[dict] = None) -> milp.LpProblem:
    """The MILP for one iteration.

    Linear parts are copied verbatim; the nonlinear terms get one lambda
    block (one weight per grid vertex, ``mcmodel.encode_term``) per group
    of ``group_leads``, the rule ``problems`` groups summands by, on one
    fresh grid (``_group_grid``) over the current boxes of its leading
    term's active variables.  Each term is evaluated at every vertex of
    its group's grid, and the values are summed in source order per
    target, the objective or a row.  Fixed variables are substituted as
    constants; a term whose variables are all fixed is a constant.
    ``models``, which belongs to one ``spec``, holds under the key None
    each term's group and the columns of its variables among its lead's
    (None for the lead's own order), the same at every iteration, and maps
    each shape (each block's active variables, vertex counts and targets)
    built so far to its model and blocks; every call fills the model of
    its shape in place.
    """
    terms = spec.nonlinear_terms
    models = {} if models is None else models
    if None not in models:
        leads = group_leads([term.var_ids for term in terms])
        models[None] = leads, [None if term.var_ids == terms[g].var_ids
                               else [terms[g].var_ids.index(k) for k in term.var_ids]
                               for term, g in zip(terms, leads)]
    leads, cols = models[None]
    grids = {g: _group_grid(spec, terms[g], bounds, pieces) for g in dict.fromkeys(leads)}
    blocks_at: dict = {}  # leading term -> {spec row or None: values on its grid}
    row_shift = [0.0] * len(spec.linear_constraints)
    const_extra = 0.0
    for term, g, c in zip(terms, leads, cols):
        if any(bounds[k].width > 0.0 for k in term.var_ids):
            points = grids[g][2].reshape(-1, len(terms[g].var_ids))
            value = term.on((points if c is None else points[:, c]).tolist())
            targets = blocks_at.setdefault(g, {})
            targets[term.row] = ([a + b for a, b in zip(targets[term.row], value)]
                                 if term.row in targets else value)
        elif term.row is None:
            const_extra += _constant(term, bounds)
        else:
            row_shift[term.row] += _constant(term, bounds)
    shape = tuple((tuple(grids[g][0]), grids[g][2].shape[:-1], tuple(targets))
                  for g, targets in blocks_at.items())
    if shape not in models:
        model = milp.LpProblem()
        for _name, _iv, is_int in spec.variables:  # columns 0..n-1, then the weights
            model.add_var(0.0, 0.0, integer=is_int)
        blocks = [mcmodel.add_term(model, active, lattice) for active, lattice, _ in shape]
        for row in spec.linear_constraints:  # after every block's rows
            model.add_row(row.coeffs, row.sense, 0.0)
        model.set_objective(spec.linear_objective, sense=spec.sense)
        models[shape] = model, blocks
    model, blocks = models[shape]
    model.lb[:spec.n_vars] = [iv.lo for iv in bounds]
    model.ub[:spec.n_vars] = [iv.hi for iv in bounds]
    first_row = len(model.senses) - len(spec.linear_constraints)
    for (g, targets), block in zip(blocks_at.items(), blocks):
        mcmodel.encode_term(model, block, grids[g][1], {
            None if row is None else first_row + row: np.array(v) for row, v in targets.items()})
    model.rhs[first_row:] = [row.rhs - s for row, s in zip(spec.linear_constraints, row_shift)]
    model.obj_constant = spec.objective_constant + const_extra
    return model


def _vertex_rows(spec: ProblemSpec, term: NonlinearTerm, bounds: list[Interval], pieces: int):
    """The vertices of ``_group_grid``'s grid for ``term`` (with an active
    variable) as its lead, row-major, each a tuple of Python floats in
    ``term.var_ids`` order, fixed variables at their values."""
    axes = iter(Grid([axis_breakpoints(bounds[k], pieces, spec.variables[k][2])
                      for k in term.var_ids if bounds[k].width > 0.0]).breakpoints)
    return list(itertools.product(*[next(axes) if bounds[k].width > 0.0
                                    else (float(bounds[k].lo),) for k in term.var_ids]))


def _solve_at_vertices(spec: ProblemSpec, bounds: list[Interval], pieces: int) -> milp.MilpResult:
    """The piecewise-linear optimum of a spec without rows whose terms share
    no variable: per term, the first vertex of its own grid in row-major
    order (``_vertex_rows``) with the best ``coef * f(v) + linear part``;
    every other variable at the bound its objective coefficient favours (if
    0, the bound nearest zero, lower on a tie, as the simplex).  Every
    counter is 0; B&B reports nodes >= 1, so ``nodes`` 0 marks this path."""
    sign = 1.0 if spec.sense == "min" else -1.0
    lin = spec.linear_objective
    z = []
    for j, iv in enumerate(bounds):
        c = sign * lin.get(j, 0.0)
        z.append(float(iv.lo if c > 0.0 or (c == 0.0 and abs(iv.lo) <= abs(iv.hi)) else iv.hi))
    term_values = []
    for term in spec.nonlinear_terms:
        if not any(bounds[k].width > 0.0 for k in term.var_ids):
            term_values.append(_constant(term, bounds))
            continue
        rows = _vertex_rows(spec, term, bounds, pieces)
        values = term.on(rows)
        # the linear part summed left to right from 0, as Python's sum; a
        # zero coefficient adds only a signed zero, which moves no minimum
        linear = [0] * len(rows)
        for i, k in enumerate(term.var_ids):
            if bounds[k].width > 0.0 and lin.get(k, 0.0) != 0.0:
                linear = [s + lin[k] * row[i] for s, row in zip(linear, rows)]
        keys = [sign * (v + s) for v, s in zip(values, linear)]
        best = min(range(len(rows)), key=keys.__getitem__)  # the first best
        for k, x in zip(term.var_ids, rows[best]):
            z[k] = x
        term_values.append(values[best])
    # summed in the order of ProblemSpec.objective_value
    objective = sum(term_values, spec.objective_constant + sum(c * z[j] for j, c in lin.items()))
    return milp.MilpResult("optimal", np.array(z), objective, objective, 0.0)


def _floor(iv: Interval, rel_floor: float, pieces: int) -> float:
    """The width at or below which a continuous window counts as at its
    floor: ``rel_floor``, or ``_FLOOR_SPACINGS`` float spacings per piece at
    its largest endpoint (the gap up to the next float, ``np.spacing``'s,
    infinite at the largest float), whichever is larger."""
    top = max(abs(iv.lo), abs(iv.hi))
    return max(rel_floor, _FLOOR_SPACINGS * pieces * (math.nextafter(top, math.inf) - top))


def run(
    spec: ProblemSpec,
    config: SppaConfig,
    on_iteration: Optional[Callable[[IterationRecord], None]] = None,
) -> SppaResult:
    """Iterate solve/contract/rebuild until a termination criterion fires.

    Each iterate is ranked by ``ProblemSpec.row_violation``: a point within
    ``milp.ROW_TOL`` is feasible.  Feasible points rank first, by exact
    objective (a vertex solve's own value, summed as ``objective_value``
    sums it), the others after them by violation; the later point wins a
    tie.  The best-ranked point is reported.  While the latest iterate is
    feasible the next windows are centred on the best-ranked point, and
    otherwise on the latest iterate, as the paper contracts them about each
    iteration's solution.

    Stops when (a) every window is at its floor, (b) the exact objective
    moved at most ``_STALL_TOL`` for ``_STALL_ITERS`` consecutive
    iterations, (c) ``max_iters`` is reached, (d) the MILP is infeasible,
    (e) the time budget runs out, or (f) the MILP solver fails with status
    ``numerical`` or ``iteration_limit``; the best point found before
    stopping is kept.  Each MILP gets the run's deadline: a solve it stops
    keeps the iteration if it found an incumbent, and otherwise ends the run
    with ``time_limit``.  A window at its floor keeps its bounds: an integer
    window that contracting would give back unchanged, or a continuous one
    that it would leave no wider than ``_FLOOR_REL`` of its initial width or
    ``_FLOOR_SPACINGS * n_pieces`` float spacings at its largest endpoint
    (narrower, the next grid's breakpoints could collide).  A declared
    continuous window already that narrow for the larger piece count is
    held fixed at its midpoint from the start.
    """
    t0 = time.perf_counter()
    deadline = t0 + config.time_limit if config.time_limit is not None else None

    nl_vars = sorted({k for term in spec.nonlinear_terms for k in term.var_ids})
    current = list(spec.bounds())
    pieces_max = max(config.initial_n_pieces, config.n_pieces)
    for j in nl_vars:
        iv = current[j]
        if not spec.variables[j][2] and 0.0 < iv.width <= _floor(iv, 0.0, pieces_max):
            mid = iv.lo + 0.5 * iv.width
            current[j] = Interval(mid, mid)  # too narrow for any grid of the run
    rel_floor = {j: _FLOOR_REL * current[j].width for j in nl_vars}

    sign = 1.0 if spec.sense == "min" else -1.0
    ids = [k for term in spec.nonlinear_terms for k in term.var_ids]
    vertex_solvable = not spec.linear_constraints and len(ids) == len(set(ids))
    trace: list[IterationRecord] = []
    best_point = best_obj = best_rank = None
    stall_run = 0
    prev_obj = None
    prev_z = None
    start = None  # the previous MILP's optimal root basis
    models: dict = {}  # each model shape met so far, refilled in place
    termination = "max_iters"

    for it in range(config.max_iters):
        if deadline is not None and time.perf_counter() >= deadline:
            termination = "time_limit"
            break
        pieces = config.initial_n_pieces if it == 0 else config.n_pieces
        iter_start = time.perf_counter()
        if vertex_solvable:
            res = _solve_at_vertices(spec, current, pieces)
        else:
            model = build_iteration_model(spec, current, pieces, models)
            res = milp.solve_milp(model, deadline, start)
            start = res.start

        if res.x is None:  # the run ends under the solver's status
            termination = res.status
            break

        z = res.x[: spec.n_vars].copy()
        true_obj, violation = ((res.objective, 0.0) if vertex_solvable  # exact, no rows
                               else (spec.objective_value(z), spec.row_violation(z)))
        record = IterationRecord(
            iteration=it,
            incumbent=z,
            objective=true_obj,
            surrogate_objective=res.objective,
            row_violation=violation,
            bounds={name: current[j] for j, (name, _, _) in enumerate(spec.variables)},
            milp_stats={"status": res.status, **res.counters, "gap": res.gap,
                        "seconds": time.perf_counter() - iter_start},
        )
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)

        feasible = violation <= milp.ROW_TOL
        rank = (0, sign * true_obj) if feasible else (1, violation)
        if best_rank is None or rank <= best_rank:
            best_rank, best_obj, best_point = rank, true_obj, z.copy()
        centre = best_point if feasible else z

        # stall evidence needs a tiny objective delta from an incumbent that
        # actually moved; a re-found identical vertex just means the grid is
        # still refining around it (the width criterion covers convergence)
        z_list = z.tolist()  # on a few coordinates, Python floats beat numpy
        if prev_obj is not None:
            moved = any(abs(a - b) > 1e-9 * (1.0 + abs(b)) for a, b in zip(z_list, prev_z))
            if moved and abs(true_obj - prev_obj) <= _STALL_TOL:
                stall_run += 1
            else:
                stall_run = 0
        prev_obj = true_obj
        prev_z = z_list
        if stall_run >= _STALL_ITERS:
            termination = "stall"
            break

        at_floor = True
        for j in nl_vars:
            iv = current[j]
            if spec.variables[j][2]:
                new = _contract_integer(iv, float(centre[j]), config.contract_frac)
            else:
                new = contract_bounds(iv, float(centre[j]), config.contract_frac)
                if new.width <= _floor(new, rel_floor[j], config.n_pieces):
                    new = iv
            if new != iv:
                current[j], at_floor = new, False
        if at_floor:
            termination = "width"
            break

    return SppaResult(
        best_point=best_point,
        best_objective=best_obj,
        trace=trace,
        termination=termination,
        seconds=time.perf_counter() - t0,
    )
