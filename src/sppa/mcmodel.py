"""Multiple-choice MILP encoding of a piecewise-linear term.

One binary selector per simplex and one disaggregated copy of every term
variable per simplex.  Chain rows tie each copy to the copy of the
variable stepping just before it on the simplex vertex path, which (a)
forces the copies of an unselected simplex to zero and (b) restricts the
selected simplex's copies to points whose fractional coordinates decrease
along the step order, i.e. exactly the simplex.

The first-step variable spans its whole subinterval (upper bound at the
next breakpoint); every later variable is bounded by the previous step's
scaled offset.  The term value is the selector-weighted vertex value plus
the per-variable slope times the copy offset, matching the direct
geometric interpolation on every feasible point (``tests/properties.py``
holds that reference and checks the two against each other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from sppa import pwl
from sppa.milp import EQ, GE, LE, LpProblem

__all__ = ["McEncoding", "encode_term"]

SimplexKey = tuple[tuple[int, ...], tuple[int, ...]]  # (cell, perm)


@dataclass
class McEncoding:
    """Variable ids and cached vertex values for one encoded term."""

    grid: pwl.Grid
    z_ids: tuple[int, ...]
    selector_ids: dict[SimplexKey, int] = field(default_factory=dict)
    copy_ids: dict[tuple[SimplexKey, int], int] = field(default_factory=dict)
    values: dict[tuple[int, ...], float] = field(default_factory=dict)
    objective: dict[int, float] = field(default_factory=dict)


def encode_term(model: LpProblem, grid: pwl.Grid, z_ids, f: Callable, label: str = "t") -> McEncoding:
    """Create selector/copy variables and all rows for one term.

    ``z_ids`` are the model ids of the shared variables the term reads, in
    grid-dimension order.  ``f`` is evaluated once per grid vertex and
    cached; a non-finite value aborts with ``label`` and the offending
    coordinates.
    """
    z_ids = tuple(z_ids)
    if len(z_ids) != grid.dims:
        raise ValueError("one shared variable per grid dimension required")
    enc = McEncoding(grid, z_ids)

    for vidx in grid.vertex_indices():
        coords = grid.vertex(vidx)
        try:
            val = float(f(coords))
        except ArithmeticError as exc:
            raise ValueError(
                f"term '{label}' failed at grid vertex {coords.tolist()}: {exc}"
            ) from exc
        if not math.isfinite(val):
            raise ValueError(f"term '{label}' is not finite at grid vertex {coords.tolist()}")
        enc.values[vidx] = val

    for sid in pwl.enumerate_simplices(grid):
        cell, perm = sid.cell, sid.perm
        key = (cell, perm)
        enc.selector_ids[key] = model.add_var(0.0, 1.0, integer=True)
        for k in range(grid.dims):
            b = grid.breakpoints[k]
            lo, hi = b[cell[k]], b[cell[k] + 1]
            enc.copy_ids[key, k] = model.add_var(min(0.0, lo), max(0.0, hi))

    _encode_selection(model, enc)
    _encode_chain(model, enc)
    enc.objective = _encode_term_value(enc)
    return enc


def _encode_selection(model: LpProblem, enc: McEncoding):
    """Linking rows (copies sum to the shared variable) plus the cardinality row."""
    for k in range(enc.grid.dims):
        coeffs = {enc.copy_ids[key, k]: 1.0 for key in enc.selector_ids}
        coeffs[enc.z_ids[k]] = -1.0
        model.add_row(coeffs, EQ, 0.0)
    model.add_row({j: 1.0 for j in enc.selector_ids.values()}, EQ, 1.0)


def _encode_chain(model: LpProblem, enc: McEncoding):
    """Per-simplex ordering rows between copies.

    With the selector at one they pin the copies inside the simplex; with
    the selector at zero both sides collapse and every copy is forced to
    zero.
    """
    grid = enc.grid
    for key in enc.selector_ids:
        cell, perm = key
        mu = enc.selector_ids[key]
        kappa = {k: s for s, k in enumerate(perm)}
        for k in range(grid.dims):
            b = grid.breakpoints[k]
            lo, hi = b[cell[k]], b[cell[k] + 1]
            ck = enc.copy_ids[key, k]
            model.add_row({ck: 1.0, mu: -lo}, GE, 0.0)
            if kappa[k] == 0:
                model.add_row({ck: 1.0, mu: -hi}, LE, 0.0)
            else:
                prev = perm[kappa[k] - 1]
                bp = grid.breakpoints[prev]
                plo = bp[cell[prev]]
                ratio = (hi - lo) / (bp[cell[prev] + 1] - plo)
                model.add_row(
                    {ck: 1.0, enc.copy_ids[key, prev]: -ratio, mu: -lo + ratio * plo},
                    LE, 0.0)


def _encode_term_value(enc: McEncoding) -> dict[int, float]:
    """Linear expression over selectors and copies equal to the term value.

    For each simplex the contribution is the origin-vertex value carried by
    the selector plus, per variable, the path slope times the copy offset
    from the cell's lower corner.  On any feasible assignment with one
    selector active this equals the geometric interpolation at the
    recovered point.
    """
    grid = enc.grid
    expr: dict[int, float] = {}
    for key in enc.selector_ids:
        cell, perm = key
        path = pwl.vertex_path(pwl.SimplexId(cell, perm), grid.dims)
        vals = [enc.values[v] for v in path]
        mu_coef = vals[0]
        for step, k in enumerate(perm):
            b = grid.breakpoints[k]
            lo = b[cell[k]]
            slope = (vals[step + 1] - vals[step]) / (b[cell[k] + 1] - lo)
            expr[enc.copy_ids[key, k]] = expr.get(enc.copy_ids[key, k], 0.0) + slope
            mu_coef -= slope * lo
        expr[enc.selector_ids[key]] = expr.get(enc.selector_ids[key], 0.0) + mu_coef
    return expr
