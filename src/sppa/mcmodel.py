"""Convex-combination ("lambda") MILP encoding of a piecewise-linear term.

One weight in [0, 1] per grid vertex, in row-major order, and one linking
row per grid variable, ``sum(w_v * (b_k[v_k] - lo_k)) - z_k = -lo_k``, its
coefficients window-sized as taken from the grid's lower corner ``lo``.
The row that makes the weights sum to 1 is declared on the model as a
lattice set over the whole vertex grid, by its shape, so that
:func:`sppa.milp.solve_milp` restricts the weights above tolerance to one
Kuhn simplex by branching (Lee & Wilson 2001; Vielma, Ahmed & Nemhauser
2010).  On one simplex the weights are the point's barycentric
coordinates, so the term value ``sum(w_v * f(v))`` is the simplicial
interpolant; ``tests/properties.py`` holds the geometric reference and
checks the two against each other.  The LP relaxation is the convex hull
of the graph points.  On the Kuhn grid a function of some of the grid's
variables interpolates as on its own axes, so one block carries every
term of those variables.  ``loop.build_iteration_model`` lays out every
block of a model in one pass, its weight columns and its rows (each
linking row's -1 on its variable, and the set row), and ``encode_term``
writes a grid's vertices and the terms' values into them as often as the
grid moves; nothing here evaluates a function or tests a value.
"""

from __future__ import annotations

import numpy as np

from sppa.milp import LpProblem

__all__ = ["encode_term"]


def encode_term(model: LpProblem, block: tuple[slice, slice], points: np.ndarray,
                targets: dict):
    """Write a grid's vertex coordinates ``points``, one vertex per row in
    row-major order (or shaped like the vertex lattice, coordinates last),
    less its lower corner into a block's linking rows, minus that corner
    into their right-hand sides, and each ``targets`` value sequence, one
    value per vertex in the same order (or an array shaped like the
    lattice), onto the block's weights: in the objective for the key None,
    else in that row, as given (``solve_milp`` tests that each is finite)."""
    cols, rows = block
    coords = points.reshape(-1, points.shape[-1])
    values = np.array(list(targets.values()), dtype=float).reshape(len(targets), len(coords))
    lo = coords[0]
    model.A[rows, cols] = (coords - lo).T
    model.rhs[rows] = 0.0 - lo  # +0.0 at a corner of 0, as a fresh row
    for row, v in zip(targets, values):
        (model.c if row is None else model.A[row])[cols] = v
