"""Outer solve loop: piecewise model, MILP solve, geometric bound contraction.

Each iteration approximates every nonlinear term on a fresh grid over the
current variable boxes, solves the resulting MILP, then shrinks the box of
every variable that appears in a nonlinear term by ``contract_frac``,
centered on the incumbent (translated to stay inside the previous box).
Variables outside all nonlinear terms keep their bounds untouched.  The
best point is tracked by exact objective value, which guards against
surrogate underestimation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from sppa import mcmodel, milp
from sppa.problems import ProblemSpec
from sppa.pwl import Grid, Interval, axis_breakpoints

__all__ = [
    "SppaConfig",
    "IterationRecord",
    "IterationModel",
    "SppaResult",
    "contract_bounds",
    "build_iteration_model",
    "run",
]

# a run stalls when the exact objective moves by at most _STALL_TOL in
# _STALL_ITERS consecutive iterations whose incumbent moved
_STALL_TOL = 1e-9
_STALL_ITERS = 3


@dataclass
class SppaConfig:
    initial_n_pieces: int = 4
    n_pieces: int = 4
    contract_frac: float = 0.5
    max_iters: int = 60
    width_tol: Optional[float] = None  # None: 1e-8 of each variable's initial width
    time_limit: Optional[float] = None

    def __post_init__(self):
        if self.initial_n_pieces < 1 or self.n_pieces < 1:
            raise ValueError("piece counts must be >= 1")
        if not 0.0 < self.contract_frac < 1.0:
            raise ValueError("contract_frac must lie strictly between 0 and 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.width_tol is not None and self.width_tol <= 0.0:
            raise ValueError("width_tol must be positive")
        if self.time_limit is not None and self.time_limit <= 0.0:
            raise ValueError("time_limit must be positive")


@dataclass
class IterationRecord:
    iteration: int
    incumbent: np.ndarray
    objective: float            # exact objective at the incumbent
    surrogate_objective: float  # piecewise model optimum reported by the MILP
    bounds: dict[str, Interval]  # boxes in effect for this iteration's model
    milp_stats: dict


@dataclass
class SppaResult:
    best_point: Optional[np.ndarray]
    best_objective: Optional[float]
    trace: list[IterationRecord]
    # width | stall | max_iters | infeasible | time_limit | numerical | iteration_limit
    termination: str
    seconds: float = 0.0


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
    # round the contracted window outward; keep at least unit width so the
    # MILP can still decide the variable, but never leave the old interval
    inner = contract_bounds(interval, value, frac)
    lo, hi = math.floor(inner.lo), math.ceil(inner.hi)
    if hi - lo < 1:
        lo = math.floor(min(max(value, interval.lo), interval.hi))
        hi = lo + 1
    lo = max(lo, interval.lo)
    hi = min(hi, interval.hi)
    if lo > hi:
        return interval
    return Interval(lo, hi)


@dataclass
class IterationModel:
    lp: milp.LpProblem
    encodings: list  # (term, McEncoding | None, grid | None)


def build_iteration_model(spec: ProblemSpec, bounds: list[Interval], pieces: int) -> IterationModel:
    """Assemble the MILP for one iteration.

    Linear parts are copied verbatim; every nonlinear term gets its own
    multiple-choice encoding on a fresh grid over the current boxes
    (``pieces`` segments per involved variable).  Degenerate (fixed)
    variables are excluded from grids and substituted as constants; a term
    whose variables are all fixed contributes a constant.
    """
    model = milp.LpProblem()
    z_ids = [model.add_var(bounds[j].lo, bounds[j].hi, integer=is_int)
             for j, (_name, _iv, is_int) in enumerate(spec.variables)]

    obj_extra: dict[int, float] = {}
    row_extra: dict[int, dict[int, float]] = {}
    row_shift: dict[int, float] = {}
    const_extra = 0.0
    encodings = []

    for t, term in enumerate(spec.nonlinear_terms):
        label = term.label or f"t{t}"
        active = [k for k in term.var_ids if bounds[k].width > 0.0]
        fixed = {k: bounds[k].lo for k in term.var_ids if bounds[k].width == 0.0}

        if not active:
            value = term.coef * float(term.fn(np.array([fixed[k] for k in term.var_ids])))
            if term.row is None:
                const_extra += value
            else:
                row_shift[term.row] = row_shift.get(term.row, 0.0) + value
            encodings.append((term, None, None))
            continue

        if fixed:
            positions = {k: i for i, k in enumerate(term.var_ids)}
            base_fn = term.fn

            def fn(v, base_fn=base_fn, term=term, fixed=fixed, positions=positions,
                   active=active):
                full = np.empty(len(term.var_ids))
                for i, k in enumerate(active):
                    full[positions[k]] = v[i]
                for k, val in fixed.items():
                    full[positions[k]] = val
                return base_fn(full)
        else:
            fn = term.fn

        bps = [axis_breakpoints(bounds[k], pieces, spec.variables[k][2]) for k in active]
        grid = Grid(bps)
        enc = mcmodel.encode_term(model, grid, [z_ids[k] for k in active], fn, label=label)
        encodings.append((term, enc, grid))

        target = obj_extra if term.row is None else row_extra.setdefault(term.row, {})
        for var, coef in enc.objective.items():
            target[var] = target.get(var, 0.0) + term.coef * coef

    for i, row in enumerate(spec.linear_constraints):
        coeffs = {z_ids[j]: c for j, c in row.coeffs.items()}
        for var, coef in row_extra.get(i, {}).items():
            coeffs[var] = coeffs.get(var, 0.0) + coef
        model.add_row(coeffs, row.sense, row.rhs - row_shift.get(i, 0.0))

    objective = {z_ids[j]: c for j, c in spec.linear_objective.items()}
    for var, coef in obj_extra.items():
        objective[var] = objective.get(var, 0.0) + coef
    model.set_objective(objective, spec.objective_constant + const_extra, spec.sense)
    return IterationModel(model, encodings)


def run(
    spec: ProblemSpec,
    config: SppaConfig,
    on_iteration: Optional[Callable[[IterationRecord], None]] = None,
) -> SppaResult:
    """Iterate solve/contract/rebuild until a termination criterion fires.

    Stops when (a) every contracted box is narrower than the width
    tolerance, (b) the exact objective moved at most ``_STALL_TOL``
    for ``_STALL_ITERS`` consecutive iterations, (c) ``max_iters`` is
    reached, (d) the MILP is infeasible, (e) the time budget runs out, or
    (f) the MILP solver fails with status ``numerical`` or
    ``iteration_limit``; the best point found before stopping is kept.
    """
    t0 = time.perf_counter()
    deadline = t0 + config.time_limit if config.time_limit is not None else None

    nl_vars = sorted({k for term in spec.nonlinear_terms for k in term.var_ids})
    current = list(spec.bounds())
    if config.width_tol is not None:
        wtol = {j: config.width_tol for j in nl_vars}
    else:
        wtol = {j: 1e-8 * max(current[j].width, 1e-30) for j in nl_vars}

    minimize = spec.sense == "min"
    trace: list[IterationRecord] = []
    best_point = None
    best_obj = math.inf if minimize else -math.inf
    stall_run = 0
    prev_obj = None
    prev_z = None
    termination = "max_iters"

    for it in range(config.max_iters):
        if deadline is not None and time.perf_counter() >= deadline:
            termination = "time_limit"
            break
        pieces = config.initial_n_pieces if it == 0 else config.n_pieces
        iter_start = time.perf_counter()
        model = build_iteration_model(spec, current, pieces)

        solver = None
        if deadline is not None:
            solver = milp.SolverConfig(time_limit=max(deadline - time.perf_counter(), 0.01))
        res = milp.solve_milp(model.lp, solver)

        if res.x is None:
            if res.status == "infeasible":
                termination = "infeasible"
            elif res.status in ("no_incumbent", "time_limit", "node_limit"):
                termination = "time_limit"
            elif res.status in ("numerical", "iteration_limit"):
                termination = res.status
            else:
                raise RuntimeError(f"MILP solve failed with status {res.status!r}")
            break

        z = res.x[: spec.n_vars].copy()
        true_obj = spec.objective_value(z)
        record = IterationRecord(
            iteration=it,
            incumbent=z,
            objective=true_obj,
            surrogate_objective=res.objective,
            bounds={name: current[j] for j, (name, _, _) in enumerate(spec.variables)},
            milp_stats={
                "status": res.status,
                "nodes": res.nodes,
                "iterations": res.iterations,
                "gap": res.gap,
                "seconds": time.perf_counter() - iter_start,
            },
        )
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)

        if (true_obj < best_obj) if minimize else (true_obj > best_obj):
            best_obj = true_obj
            best_point = z.copy()

        # stall evidence needs a tiny objective delta from an incumbent that
        # actually moved; a re-found identical vertex just means the grid is
        # still refining around it (the width criterion covers convergence)
        if prev_obj is not None:
            moved = bool(np.any(np.abs(z - prev_z) > 1e-9 * (1.0 + np.abs(prev_z))))
            if moved and abs(true_obj - prev_obj) <= _STALL_TOL:
                stall_run += 1
            else:
                stall_run = 0
        prev_obj = true_obj
        prev_z = z
        if stall_run >= _STALL_ITERS:
            termination = "stall"
            break

        for j in nl_vars:
            if current[j].width == 0.0:
                continue
            if spec.variables[j][2]:
                current[j] = _contract_integer(current[j], float(z[j]), config.contract_frac)
            else:
                current[j] = contract_bounds(current[j], float(z[j]), config.contract_frac)

        if all(current[j].width <= wtol[j] for j in nl_vars):
            termination = "width"
            break

    return SppaResult(
        best_point=best_point,
        best_objective=None if best_point is None else best_obj,
        trace=trace,
        termination=termination,
        seconds=time.perf_counter() - t0,
    )
