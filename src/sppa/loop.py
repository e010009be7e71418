"""Outer solve loop: piecewise model, MILP solve, geometric bound contraction.

Each iteration approximates every nonlinear term on a fresh grid over the
current variable boxes, solves the resulting MILP (or reads its optimum off
the grid vertices when no row exists and no variable lies in two lambda
blocks), then shrinks the box of every variable that appears in a nonlinear
term by ``contract_frac`` (translated to stay inside the previous box),
until the box reaches its floor (see ``run``).  Variables outside all
nonlinear terms keep their bounds untouched.  Iterates are ranked by their
exact objective and rows, never by the surrogate; the boxes are centred on
the best-ranked point while the latest iterate is feasible (see ``run``).

Both paths read one stage per iteration (``_block_stage``): per lambda
block, its grid's axes (``axis_breakpoints``, equal pieces over each
active variable's window, checked by ``check_axis``) and vertices, as
Python floats, and its terms' values there, each term evaluated once at
all of them (``NonlinearTerm.on``), or at one point when all its
variables are fixed (``NonlinearTerm.at``).  The MILP path encodes them,
vertices included; the vertex solve takes each block's best vertex,
where the model is exact, so its value is the exact objective.

At a fixed piece count every model has the same columns and rows in the
same order, one shape, built once per ``run`` call in one pass, each
array made at its final size and each block's columns and rows written by
slices, and refilled in place with its canonical form
(``build_iteration_model``, which lays out the blocks once per run).  Each
model keeps its own warm start: its first root starts from a crash basis
read off the block stage when the shape is built, the weight of each
block's vertex-path pick (``_pick``, the vertex solve's own rule) and the
blocks' variables, and every later root from the model's previous optimal
root basis (``solve_milp`` keeps it on the model).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import time
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from sppa import mcmodel
from sppa.problems import COUNTERS, EQ, ROW_TOL, Interval, ProblemSpec

if TYPE_CHECKING:  # at run time the solver is imported where a model is built or solved
    from sppa import milp

__all__ = [
    "SppaConfig",
    "IterationRecord",
    "SppaResult",
    "axis_breakpoints",
    "check_axis",
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
# a vertex solve's stats read as a MILP's that solved without a node
_VERTEX_STATS = {"status": "optimal", **dict.fromkeys(COUNTERS, 0), "gap": 0.0}


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
    old_lo, old_hi = interval.lo, interval.hi
    v = old_lo if value < old_lo else old_hi if value > old_hi else value  # as min(max(...))
    w = (old_hi - old_lo) * frac
    lo = v - w / 2.0
    hi = v + w / 2.0
    if lo < old_lo:
        return Interval(old_lo, old_lo + w)
    if hi > old_hi:
        return Interval(old_hi - w, old_hi)
    return Interval(lo, hi)


def _contract_integer(interval: Interval, value: float, frac: float) -> Interval:
    # round the contracted window outward; ProblemSpec's integral bounds keep
    # it inside the old window and, at positive width, at least one unit wide
    inner = contract_bounds(interval, value, frac)
    return Interval(math.floor(inner.lo), math.ceil(inner.hi))


def _layout(spec: ProblemSpec, bounds: list[Interval]) -> tuple:
    """``(blocks, constants)``, fixed for a run, as its windows never contract
    to width 0: a block ``(ids, active, members)`` per group of
    ``spec.groups`` with an active variable (of positive width), in the order
    of its first such term, holding its leading term's variables, the active
    ones and ``(place, row, cols)`` per term with an active variable,
    ``cols`` the places of its variables in ``ids`` (None for ``ids``
    itself); and the places of the terms of fixed variables."""
    terms = spec.nonlinear_terms
    blocks: dict = {}  # per group with an active variable, from its first such term
    constants = []
    for t, g in enumerate(spec.groups):
        term, ids = terms[t], terms[g].var_ids
        active = [k for k in ids if bounds[k].width > 0.0]
        if set(term.var_ids).isdisjoint(active):
            constants.append(t)
        else:
            blocks.setdefault(g, (ids, active, []))[2].append(
                (t, term.row, None if term.var_ids == ids else [ids.index(k) for k in term.var_ids]))
    return list(blocks.values()), constants


def check_axis(k: int, values: tuple) -> tuple:
    """Axis ``k``, a tuple of floats, returned once it has two breakpoints or
    more, all finite and strictly increasing; else a ``ValueError`` naming it."""
    if len(values) < 2:
        raise ValueError(f"dimension {k}: need at least two breakpoints")
    # a strictly increasing axis holds no NaN, and an infinity only at an
    # end; the full scan only chooses the error, non-finite first
    if not (all(map(operator.lt, values, values[1:]))
            and math.isfinite(values[0]) and math.isfinite(values[-1])):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"dimension {k}: non-finite breakpoint")
        raise ValueError(f"dimension {k}: breakpoints must be strictly increasing")
    return values


def axis_breakpoints(iv: Interval, pieces: int, integer: bool = False) -> tuple[float, ...]:
    """``pieces`` equal segments over ``iv`` with the endpoints kept exact.

    The points are ``np.linspace``'s, bit for bit, outside its branch for a
    step that underflows to zero, whose grid has equal breakpoints either
    way.  For an integer variable the inner points are rounded and
    deduplicated, so the axis may end up with fewer segments.
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    lo, hi, step = float(iv.lo), float(iv.hi), iv.width / pieces
    pts = (lo, *[n * step + lo for n in range(1, pieces)], hi)
    if integer:
        snapped = np.round(pts)
        keep = (snapped >= lo) & (snapped <= hi)
        pts = tuple(np.unique(np.concatenate([[lo, hi], snapped[keep]])).tolist())
    return pts


def _block_stage(spec: ProblemSpec, layout: tuple, bounds: list[Interval], pieces: int):
    """Per block of ``layout`` (``_layout``): the axes of its active variables
    (``axis_breakpoints``, checked by ``check_axis``, ``dimension k`` the
    k-th active one), its vertices, row-major tuples of Python floats in
    ``ids`` order with fixed variables at their values, and per target
    (None for the objective, else a row) its terms' values there,
    summed in source order; and each term's values by its place, at its
    block's vertices (``NonlinearTerm.on``) or, all its variables fixed, at
    its point (``NonlinearTerm.at``), evaluated once for both solve paths."""
    blocks, constants = layout
    terms = spec.nonlinear_terms
    values: list = [None] * len(terms)
    for t in constants:
        values[t] = terms[t].at(np.array([bounds[k].lo for k in terms[t].var_ids], dtype=float))
    stage = []
    for ids, active, members in blocks:
        axes = [check_axis(i, axis_breakpoints(bounds[k], pieces, spec.variables[k][2]))
                for i, k in enumerate(active)]
        factors = axes
        if len(active) < len(ids):  # with its fixed variables
            axis = iter(axes)
            factors = [next(axis) if k in active else (float(bounds[k].lo),) for k in ids]
        vertices = list(itertools.product(*factors))
        sums: dict = {}
        for t, row, cols in members:
            value = values[t] = terms[t].on(
                vertices if cols is None else [[v[c] for c in cols] for v in vertices])
            sums[row] = [a + b for a, b in zip(sums[row], value)] if row in sums else value
        stage.append((axes, vertices, sums))
    return stage, values


def build_iteration_model(spec: ProblemSpec, bounds: list[Interval], pieces: int,
                          models: Optional[dict] = None) -> milp.LpProblem:
    """The MILP for one iteration.

    Linear parts are copied verbatim; each block of ``_block_stage`` gets a
    lambda block (one weight per vertex of its grid) carrying its summed
    values per target (``mcmodel.encode_term``, on the block's vertices),
    and each constant term its value.  A new shape is made in one pass:
    the model at its final shape, every block's lattice set
    ``(range(j, j + size), vertex counts)`` handed to its constructor, then
    by slices each block's weights, linking rows and lattice set row, and
    the linear rows after them; its shape stays fixed, and its values are
    rewritten at every later call.
    ``models``, which belongs to one ``spec`` and to windows that keep
    their fixed variables, holds the ``_layout`` under the key None and
    each shape (each block's vertex counts) built so far with its model and
    blocks; every call fills the model of its shape in place.  A new
    shape's model carries a crash start (Bixby 1992) for its first root,
    read off this call's stage: per block, its set row holds the weight of
    its pick (``_pick``), and each linking row its variable or, when an
    earlier block's linking row holds that, the weight one grid step from
    the pick along the variable's axis (one step down at the upper edge);
    every other row holds its slack.  The start carries no bound statuses:
    the simplex rests its nonbasic columns by its one rule.
    """
    models = {} if models is None else models
    if None not in models:
        models[None] = _layout(spec, bounds)
    layout = models[None]
    stage, values = _block_stage(spec, layout, bounds, pieces)
    shape = tuple(tuple(map(len, axes)) for axes, _, _ in stage)
    first_row = len(shape) + sum(len(active) for _, active, _ in layout[0])  # the blocks' rows
    built = shape not in models
    if built:
        import sppa.milp as milp
        n, rows = spec.n_vars, spec.linear_constraints
        edges = list(itertools.accumulate(map(math.prod, shape), initial=n))  # the blocks' weights
        sets = [(range(j, end), lattice) for j, end, lattice in zip(edges, edges[1:], shape)]
        model = milp.LpProblem(
            edges[-1], [EQ] * first_row + [row.sense for row in rows], sets)
        model.ub[n:] = 1.0  # the weights
        model.is_int[:n] = [is_int for _, _, is_int in spec.variables]
        model.c[list(spec.linear_objective)] = list(spec.linear_objective.values())
        model.sense = spec.sense
        # the crash basis is block lower-triangular, the blocks' rows and
        # columns in block order and then the other rows and their slacks: a
        # block's columns have no coefficient in an earlier block's rows.  Each
        # diagonal block is nonsingular: less the pick's column, a neighbour's
        # column holds only its grid step, in its own linking row, as a
        # variable's column holds its -1, and the pick's column alone reaches
        # the set row.
        basis = np.arange(model.n_vars, model.n_vars + len(model.senses))  # the slacks
        blocks, r = [], 0
        for (ids, active, _), (_, vertices, sums), (weights, lattice) in zip(
                layout[0], stage, sets):
            model.A[range(r, r + len(active)), active] = -1.0  # its linking rows
            pick = _pick(spec, ids, active, vertices, sums)
            for i, k in enumerate(active):
                step = math.prod(lattice[i + 1:])  # active variable i's stride, row-major
                basis[r + i] = k if k not in basis else weights[pick + (
                    step if (pick // step + 1) % lattice[i] else -step)]
            r += len(active)
            cols = slice(weights.start, weights.stop)
            model.A[r, cols] = model.rhs[r] = 1.0  # its lattice set's row
            basis[r] = weights[pick]
            blocks.append((cols, slice(r - len(active), r)))
            r += 1
        for i, row in enumerate(rows, first_row):
            model.A[i, list(row.coeffs)] = list(row.coeffs.values())
        model._start = milp._Start(basis)
        models[shape] = model, blocks
    model, blocks = models[shape]
    model.lb[:spec.n_vars] = [iv.lo for iv in bounds]
    model.ub[:spec.n_vars] = [iv.hi for iv in bounds]
    for (ids, active, _), (_, vertices, sums), block in zip(layout[0], stage, blocks):
        coords = np.array(vertices)[:, [ids.index(k) for k in active]]
        mcmodel.encode_term(model, block, coords, {
            None if row is None else first_row + row: s for row, s in sums.items()})
    shift = [0.0] * (len(spec.linear_constraints) + 1)  # the constants per row, then objective
    for t in layout[1]:
        row = spec.nonlinear_terms[t].row
        shift[-1 if row is None else row] += values[t]
    model.rhs[first_row:] = [row.rhs - s for row, s in zip(spec.linear_constraints, shift)]
    model.obj_constant = spec.objective_constant + shift[-1]
    return model


def _pick(spec: ProblemSpec, ids: tuple, active: list, vertices: list, sums: dict) -> int:
    """The index of a block's first vertex row-major with the best sum of
    its objective terms' values (0 for a block of row terms only) and its
    linear part; the block's ``ids`` and ``active`` variables are
    ``_layout``'s, its ``vertices`` and ``sums`` ``_block_stage``'s."""
    lin = spec.linear_objective
    # the linear part summed left to right from 0, as Python's sum; a
    # zero coefficient would add only a signed zero, which moves no minimum
    linear = None
    for i, k in enumerate(ids):
        if k in active and lin.get(k, 0.0) != 0.0:
            linear = [s + lin[k] * v[i] for s, v in zip(linear or [0] * len(vertices), vertices)]
    keys = sums[None] if None in sums else [0] * len(vertices)
    if linear is not None:
        keys = [v + s for v, s in zip(keys, linear)]
    return keys.index(min(keys) if spec.sense == "min" else max(keys))


def _solve_at_vertices(spec: ProblemSpec, bounds: list[Interval], pieces: int,
                       layout: Optional[tuple] = None) -> tuple:
    """The piecewise-linear optimum of a spec without rows whose blocks
    (``_layout``'s, made if None) share no variable, as a list of Python
    floats and its objective, exact at a vertex: per block of
    ``_block_stage``, its vertex ``_pick`` takes; every other variable at
    the bound its objective coefficient favours (if 0, the bound nearest
    zero, lower on a tie, as the simplex rests a column from every start)."""
    layout = _layout(spec, bounds) if layout is None else layout
    stage, values = _block_stage(spec, layout, bounds, pieces)
    sign = 1.0 if spec.sense == "min" else -1.0
    lin = spec.linear_objective
    z = []
    for j, iv in enumerate(bounds):
        c = sign * lin.get(j, 0.0)
        z.append(float(iv.lo if c > 0.0 or (c == 0.0 and abs(iv.lo) <= abs(iv.hi)) else iv.hi))
    for (ids, active, members), (_, vertices, sums) in zip(layout[0], stage):
        best = _pick(spec, ids, active, vertices, sums)
        for k, x in zip(ids, vertices[best]):
            z[k] = x
        for t, _, _ in members:
            values[t] = values[t][best]
    # summed in the order of ProblemSpec.objective_value
    return z, sum(values, spec.objective_constant + sum(c * z[j] for j, c in lin.items()))


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
    ``problems.ROW_TOL`` is feasible.  Feasible points rank first, by exact
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
    windows = [(j, spec.variables[j][2], _FLOOR_REL * current[j].width) for j in nl_vars]
    names = spec.var_names()

    sign = 1.0 if spec.sense == "min" else -1.0
    models: dict = {None: _layout(spec, current)}  # each model shape met so far, refilled in place
    ids = [k for _, active, _ in models[None][0] for k in active]
    vertex_solvable = not spec.linear_constraints and len(ids) == len(set(ids))
    trace: list[IterationRecord] = []
    best_point = best_obj = best_rank = best_list = None
    stall_run = 0
    prev_obj = None
    prev_z = None
    termination = "max_iters"
    if not vertex_solvable:  # the vertex path never loads the solver
        import sppa.milp as milp

    for it in range(config.max_iters):
        if deadline is not None and time.perf_counter() >= deadline:
            termination = "time_limit"
            break
        pieces = config.initial_n_pieces if it == 0 else config.n_pieces
        iter_start = time.perf_counter()
        if vertex_solvable:
            z_list, true_obj = _solve_at_vertices(spec, current, pieces, models[None])
            z = np.array(z_list)
            surrogate, violation, stats = true_obj, 0.0, _VERTEX_STATS  # exact, no rows
        else:
            res = milp.solve_milp(build_iteration_model(spec, current, pieces, models), deadline)
            if res.x is None:  # the run ends under the solver's status
                termination = res.status
                break
            z = res.x[: spec.n_vars].copy()
            z_list = z.tolist()  # on a few coordinates, Python floats beat numpy
            true_obj, violation = spec.objective_value(z), spec.row_violation(z)
            surrogate, stats = res.objective, {"status": res.status, **res.counters, "gap": res.gap}
        record = IterationRecord(
            iteration=it,
            incumbent=z,
            objective=true_obj,
            surrogate_objective=surrogate,
            row_violation=violation,
            bounds=dict(zip(names, current)),
            milp_stats={**stats, "seconds": time.perf_counter() - iter_start},
        )
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)

        feasible = violation <= ROW_TOL
        rank = (0, sign * true_obj) if feasible else (1, violation)
        if best_rank is None or rank <= best_rank:
            best_rank, best_obj, best_point, best_list = rank, true_obj, z.copy(), z_list
        centre = best_list if feasible else z_list

        # stall evidence needs a tiny objective delta from an incumbent that
        # actually moved; a re-found identical vertex just means the grid is
        # still refining around it (the width criterion covers convergence)
        if prev_obj is not None:
            moved = z_list != prev_z and any(abs(a - b) > 1e-9 * (1.0 + abs(b))
                                             for a, b in zip(z_list, prev_z))
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
        for j, integer, rel_floor in windows:
            iv = current[j]
            if integer:
                new = _contract_integer(iv, centre[j], config.contract_frac)
            else:
                new = contract_bounds(iv, centre[j], config.contract_frac)
                if new.width <= _floor(new, rel_floor, config.n_pieces):
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
