"""Breakpoint grids and their simplicial (Kuhn) triangulation.

A bounded box is partitioned by per-variable breakpoints into cells, and
each cell is split into ``d!`` simplices, one per ordering of the
coordinate steps on the path from the cell's lower corner to its upper
corner.  A point belongs to the simplex whose step order sorts its
fractional coordinates in descending order.  On each simplex the
interpolant is the unique affine function matching ``f`` at the d+1 path
vertices, so the global surface is continuous and exact at every grid
vertex; :mod:`sppa.mcmodel` encodes that interpolant as a MILP.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Grid",
    "SimplexId",
    "axis_breakpoints",
    "enumerate_simplices",
    "vertex_path",
]


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SimplexId:
    """One simplex: the cell's multi-index plus the coordinate step order.

    ``perm[s]`` is the (0-based) variable taking the s-th step on the
    vertex path from the cell's lower corner to its upper corner.
    """

    cell: tuple[int, ...]
    perm: tuple[int, ...]


class Grid:
    """Per-variable breakpoint arrays partitioning a box into cells."""

    def __init__(self, breakpoints: Sequence[np.ndarray]):
        bps = tuple(np.asarray(b, dtype=float) for b in breakpoints)
        if not bps:
            raise ValueError("grid needs at least one dimension")
        for k, b in enumerate(bps):
            if b.ndim != 1 or b.size < 2:
                raise ValueError(f"dimension {k}: need at least two breakpoints")
            if not np.all(np.isfinite(b)):
                raise ValueError(f"dimension {k}: non-finite breakpoint")
            if np.any(np.diff(b) <= 0.0):
                raise ValueError(f"dimension {k}: breakpoints must be strictly increasing")
            b.setflags(write=False)
        self.breakpoints = bps
        self.dims = len(bps)
        self.pieces = tuple(b.size - 1 for b in bps)

    def vertex(self, index: Sequence[int]) -> np.ndarray:
        """Coordinates of the grid vertex with the given per-axis index."""
        return np.array([self.breakpoints[k][i] for k, i in enumerate(index)])

    def vertex_indices(self) -> Iterator[tuple[int, ...]]:
        """All lattice-vertex multi-indices, row-major."""
        return itertools.product(*(range(L + 1) for L in self.pieces))

    def __repr__(self):
        return f"Grid(dims={self.dims}, pieces={self.pieces})"


def axis_breakpoints(iv: Interval, pieces: int, integer: bool = False) -> np.ndarray:
    """``pieces`` equal segments over ``iv`` with the endpoints kept exact.

    For an integer variable the inner points are rounded and deduplicated,
    so the axis may end up with fewer segments.
    """
    pts = np.linspace(iv.lo, iv.hi, pieces + 1)
    pts[0], pts[-1] = iv.lo, iv.hi
    if integer:
        snapped = np.round(pts)
        keep = (snapped >= iv.lo) & (snapped <= iv.hi)
        pts = np.unique(np.concatenate([[iv.lo, iv.hi], snapped[keep]]))
    return pts


def enumerate_simplices(grid: Grid) -> Iterator[SimplexId]:
    """All simplex ids, cells row-major and step orders lexicographic."""
    dims = range(grid.dims)
    for cell in itertools.product(*(range(L) for L in grid.pieces)):
        for perm in itertools.permutations(dims):
            yield SimplexId(cell, perm)


def vertex_path(sid: SimplexId, dims: int) -> list[tuple[int, ...]]:
    """Lattice multi-indices of the d+1 path vertices, origin first."""
    idx = list(sid.cell)
    path = [tuple(idx)]
    for k in sid.perm:
        idx[k] += 1
        path.append(tuple(idx))
    return path
