"""Multiple-choice MILP encoding of a piecewise-linear term.

One binary selector per simplex and one disaggregated copy of every term
variable per simplex.  The selection row (the selectors sum to 1) is
declared on the model as a choice set, each selector with its grid cell,
so that :func:`sppa.milp.solve_milp` branches on the term's choice of
simplex as a whole.  Chain rows tie each copy to the copy of the
variable stepping just before it on the simplex vertex path, which (a)
forces the copies of an unselected simplex to zero and (b) restricts the
selected simplex's copies to points whose fractional coordinates decrease
along the step order, i.e. exactly the simplex.

The first-step variable spans its whole subinterval (upper bound at the
next breakpoint); every later variable is bounded by the previous step's
scaled offset.  The term value is the selector-weighted vertex value plus
the per-variable slope times the copy offset, matching the direct
geometric interpolation on every feasible point (``tests/properties.py``
holds that reference and checks the two against each other).  The term's
vertex values come from the caller, in one array shaped like the vertex
lattice; nothing here evaluates a function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from sppa import pwl
from sppa.milp import EQ, GE, LE, LpProblem

__all__ = ["McEncoding", "encode_term"]

SimplexKey = tuple[tuple[int, ...], tuple[int, ...]]  # (cell, perm)


@dataclass
class McEncoding:
    """Variable ids of one encoded term and its value as a linear
    expression over them."""

    selector_ids: dict[SimplexKey, int] = field(default_factory=dict)
    copy_ids: dict[tuple[SimplexKey, int], int] = field(default_factory=dict)
    objective: dict[int, float] = field(default_factory=dict)


def encode_term(model: LpProblem, grid: pwl.Grid, z_ids, values) -> McEncoding:
    """Create selector/copy variables and all rows for one term.

    ``z_ids`` are the model ids of the shared variables the term reads, in
    grid-dimension order; ``values[i]`` is the term's value at the grid
    vertex of multi-index ``i`` (:func:`pwl.vertex_values`).  Columns come
    first, then the linking rows, the selection row and, simplex by simplex,
    the chain rows; ``objective`` is the term value.
    """
    z_ids = tuple(z_ids)
    if len(z_ids) != grid.dims:
        raise ValueError("one shared variable per grid dimension required")
    enc = McEncoding()
    simplices = list(pwl.enumerate_simplices(grid))
    for sid in simplices:
        key = (sid.cell, sid.perm)
        enc.selector_ids[key] = model.add_var(0.0, 1.0, integer=True)
        for k in range(grid.dims):
            b = grid.breakpoints[k]
            enc.copy_ids[key, k] = model.add_var(min(0.0, b[sid.cell[k]]),
                                                 max(0.0, b[sid.cell[k] + 1]))

    # linking rows: the copies of each variable sum to the shared variable
    for k in range(grid.dims):
        coeffs = {enc.copy_ids[key, k]: 1.0 for key in enc.selector_ids}
        coeffs[z_ids[k]] = -1.0
        model.add_row(coeffs, EQ, 0.0)
    model.add_choice_set(list(enc.selector_ids.values()), [sid.cell for sid in simplices])

    for sid in simplices:
        cell, perm = sid.cell, sid.perm
        key = (cell, perm)
        mu = enc.selector_ids[key]
        # chain rows: with the selector at one they pin the copies inside the
        # simplex; with it at zero every copy is held at zero
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
        # term value: the origin vertex's value carried by the selector plus,
        # per step, the path slope times the copy's offset from the cell's
        # lower corner
        vals = [values[v] for v in pwl.vertex_path(sid)]
        mu_coef = vals[0]
        for step, k in enumerate(perm):
            b = grid.breakpoints[k]
            lo = b[cell[k]]
            slope = (vals[step + 1] - vals[step]) / (b[cell[k] + 1] - lo)
            enc.objective[enc.copy_ids[key, k]] = slope
            mu_coef -= slope * lo
        enc.objective[mu] = mu_coef
    return enc
