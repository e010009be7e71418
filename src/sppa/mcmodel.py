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
term of those variables: ``add_term`` gives a block its columns and rows,
and ``encode_term`` writes a grid's vertices and the terms' values there
into them, as often as the grid moves; nothing here evaluates a function.
"""

from __future__ import annotations

import math

import numpy as np

from sppa.milp import EQ, LpProblem

__all__ = ["add_term", "encode_term"]


def add_term(model: LpProblem, z_ids, shape) -> tuple[slice, slice]:
    """Append a block's weights, one per vertex of a grid of ``shape`` in
    row-major order, its linking rows over the shared variables ``z_ids``
    (weight coefficients 0 until ``encode_term``) and its lattice set's row;
    returns its block, ``(weight columns, linking rows)``."""
    if len(z_ids) != len(shape):
        raise ValueError("one shared variable per grid dimension required")
    j = model.add_var(0.0, 1.0, count=math.prod(shape))
    rows = [model.add_row({z: -1.0}, EQ, 0.0) for z in z_ids]
    model.add_lattice_set(range(j, model.n_vars), shape)
    return slice(j, model.n_vars), slice(rows[0], rows[-1] + 1)


def encode_term(model: LpProblem, block: tuple[slice, slice], points: np.ndarray,
                targets: dict):
    """Write a grid's vertex coordinates ``points`` (``pwl.Grid.points``)
    less its lower corner into a block's linking rows, minus that corner
    into their right-hand sides, and each ``targets`` value array, shaped
    like the vertex lattice, onto the block's weights: in the objective for
    the key None, else in that row."""
    cols, rows = block
    if not all(np.isfinite(values).all() for values in targets.values()):
        raise ValueError("non-finite term value")
    coords = points.reshape(-1, points.shape[-1])  # row-major, as the weights
    lo = coords[0]
    model.A[rows, cols] = (coords - lo).T
    model.rhs[rows] = 0.0 - lo  # +0.0 at a corner of 0, as a fresh row
    for row, values in targets.items():
        (model.c if row is None else model.A[row])[cols] = np.ravel(values)
