"""Convex-combination ("lambda") MILP encoding of a piecewise-linear term.

One weight in [0, 1] per grid vertex, in row-major order, and one linking
row per term variable, ``sum(w_v * b_k[v_k]) - z_k = 0``.  The row that
makes the weights sum to 1 is declared on the model as a lattice set over
the whole vertex grid, by its shape, so that :func:`sppa.milp.solve_milp`
restricts the weights above tolerance to one Kuhn simplex by branching
(Lee & Wilson 2001; Vielma, Ahmed & Nemhauser 2010).  On one simplex the
weights are the point's barycentric coordinates, so the term value
``sum(w_v * f(v))`` is the simplicial interpolant; ``tests/properties.py``
holds the geometric reference and checks the two against each other.  The
LP relaxation is the convex hull of the graph points.  The term's vertex
values come from the caller, in one array shaped like the vertex lattice;
nothing here evaluates a function.
"""

from __future__ import annotations

import numpy as np

from sppa import pwl
from sppa.milp import EQ, LpProblem

__all__ = ["encode_term"]


def encode_term(model: LpProblem, grid: pwl.Grid, z_ids, values) -> dict[int, float]:
    """Add one term's weights and rows to ``model`` and return the term
    value as ``{weight id: vertex value}``.

    ``z_ids`` are the model ids of the shared variables the term reads, in
    grid-dimension order; ``values`` holds the term's value at every grid
    vertex, shaped like ``grid.points()`` without its last axis
    (:func:`pwl.vertex_values`).  Columns come first, one per vertex in
    row-major order, then the linking rows and the lattice set's row.
    """
    z_ids = tuple(z_ids)
    if len(z_ids) != grid.dims:
        raise ValueError("one shared variable per grid dimension required")
    ids = [model.add_var(0.0, 1.0) for _ in range(values.size)]
    coords = grid.points().reshape(-1, grid.dims)  # row-major, as the weights
    for k, z in enumerate(z_ids):
        model.add_row({**dict(zip(ids, coords[:, k].tolist())), z: -1.0}, EQ, 0.0)
    model.add_lattice_set(ids, values.shape)
    return dict(zip(ids, np.ravel(values).tolist()))
