"""Breakpoint grids and simplicial piecewise-linear interpolation.

A bounded box is partitioned by per-variable breakpoints into cells, and
each cell is split into ``d!`` simplices, one per ordering of the
coordinate steps on the path from the cell's lower corner to its upper
corner.  A point belongs to the simplex whose step order sorts its
fractional coordinates in descending order.  On each simplex the
interpolant is the unique affine function matching ``f`` at the d+1 path
vertices, so the global surface is continuous and exact at every grid
vertex.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Grid",
    "SimplexId",
    "Hyperplane",
    "build_grid",
    "count_simplices",
    "enumerate_simplices",
    "locate",
    "simplex_vertices",
    "hyperplane_coeffs",
    "eval_pwl",
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


@dataclass(frozen=True)
class Hyperplane:
    """Affine function ``z -> intercept + slopes @ z``."""

    intercept: float
    slopes: np.ndarray

    def value(self, z) -> float:
        return self.intercept + float(np.dot(self.slopes, np.asarray(z, dtype=float)))


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

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.pieces))

    def lower(self) -> np.ndarray:
        return np.array([b[0] for b in self.breakpoints])

    def upper(self) -> np.ndarray:
        return np.array([b[-1] for b in self.breakpoints])

    def vertex(self, index: Sequence[int]) -> np.ndarray:
        """Coordinates of the grid vertex with the given per-axis index."""
        return np.array([self.breakpoints[k][i] for k, i in enumerate(index)])

    def vertex_indices(self) -> Iterator[tuple[int, ...]]:
        """All lattice-vertex multi-indices, row-major."""
        return itertools.product(*(range(L + 1) for L in self.pieces))

    def __repr__(self):
        return f"Grid(dims={self.dims}, pieces={self.pieces})"


def build_grid(bounds: Sequence[Interval], pieces: Sequence[int] | int) -> Grid:
    """Equally spaced grid over ``bounds`` with ``pieces[k]`` segments per axis.

    Endpoints are kept exact; ``pieces`` may be a single count applied to
    every axis.  Degenerate intervals (``lo == hi``) are rejected here;
    callers are expected to drop fixed variables before building.
    """
    bounds = [b if isinstance(b, Interval) else Interval(*b) for b in bounds]
    if isinstance(pieces, int):
        pieces = [pieces] * len(bounds)
    if len(pieces) != len(bounds):
        raise ValueError("pieces and bounds length mismatch")
    bps = []
    for k, (iv, L) in enumerate(zip(bounds, pieces)):
        if L < 1:
            raise ValueError(f"dimension {k}: piece count must be >= 1, got {L}")
        if iv.hi <= iv.lo:
            raise ValueError(f"dimension {k}: degenerate interval [{iv.lo}, {iv.hi}]")
        b = np.linspace(iv.lo, iv.hi, L + 1)
        b[0], b[-1] = iv.lo, iv.hi
        bps.append(b)
    return Grid(bps)


def count_simplices(grid: Grid) -> int:
    """Total number of simplices: d! per cell times the number of cells."""
    return math.factorial(grid.dims) * grid.cell_count


def enumerate_simplices(grid: Grid) -> Iterator[SimplexId]:
    """All simplex ids, cells row-major and step orders lexicographic."""
    dims = range(grid.dims)
    for cell in itertools.product(*(range(L) for L in grid.pieces)):
        for perm in itertools.permutations(dims):
            yield SimplexId(cell, perm)


def _cell_and_fractions(grid: Grid, z: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    cell = []
    frac = np.empty(grid.dims)
    for k in range(grid.dims):
        b = grid.breakpoints[k]
        if z[k] < b[0] or z[k] > b[-1]:
            raise ValueError(f"point coordinate {k} = {z[k]} outside grid range [{b[0]}, {b[-1]}]")
        # right-bisection; a point exactly on the top breakpoint stays in the last cell
        i = min(int(np.searchsorted(b, z[k], side="right")) - 1, b.size - 2)
        i = max(i, 0)
        cell.append(i)
        frac[k] = (z[k] - b[i]) / (b[i + 1] - b[i])
    return tuple(cell), frac


def locate(grid: Grid, z) -> SimplexId:
    """Simplex whose closed region contains ``z``.

    The step order sorts the fractional coordinates descending, ties broken
    by ascending variable index, which is deterministic and agrees with any
    other containing simplex by continuity of the interpolant.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (grid.dims,):
        raise ValueError(f"expected point of dimension {grid.dims}, got shape {z.shape}")
    cell, frac = _cell_and_fractions(grid, z)
    perm = tuple(sorted(range(grid.dims), key=lambda k: (-frac[k], k)))
    return SimplexId(cell, perm)


def vertex_path(sid: SimplexId, dims: int) -> list[tuple[int, ...]]:
    """Lattice multi-indices of the d+1 path vertices, origin first."""
    idx = list(sid.cell)
    path = [tuple(idx)]
    for k in sid.perm:
        idx[k] += 1
        path.append(tuple(idx))
    return path


def simplex_vertices(grid: Grid, sid: SimplexId) -> np.ndarray:
    """Coordinates of the d+1 simplex vertices, one row per vertex."""
    return np.array([grid.vertex(v) for v in vertex_path(sid, grid.dims)])


def hyperplane_coeffs(grid: Grid, sid: SimplexId, f: Callable[[np.ndarray], float]) -> Hyperplane:
    """Affine interpolant of ``f`` on the simplex.

    Each slope is the divided difference of ``f`` between the two
    consecutive path vertices that differ in that coordinate; the
    intercept anchors the plane at the origin vertex.  This plane passes
    through all d+1 vertices (telescoping along the path).
    """
    path = vertex_path(sid, grid.dims)
    vals = []
    for v in path:
        fv = float(f(grid.vertex(v)))
        if not math.isfinite(fv):
            raise ValueError(f"function value not finite at grid vertex {grid.vertex(v)}")
        vals.append(fv)
    slopes = np.zeros(grid.dims)
    for step, k in enumerate(sid.perm):
        b = grid.breakpoints[k]
        l = sid.cell[k]
        slopes[k] = (vals[step + 1] - vals[step]) / (b[l + 1] - b[l])
    origin = grid.vertex(path[0])
    intercept = vals[0] - float(np.dot(slopes, origin))
    return Hyperplane(intercept, slopes)


def eval_pwl(grid: Grid, f: Callable[[np.ndarray], float], z) -> float:
    """Piecewise-linear value at ``z``: locate, interpolate, evaluate."""
    z = np.asarray(z, dtype=float)
    sid = locate(grid, z)
    return hyperplane_coeffs(grid, sid, f).value(z)
