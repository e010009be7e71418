"""Breakpoint grids of the simplicial (Kuhn) triangulation.

A bounded box is partitioned by per-variable breakpoints into cells, and
each cell is split into ``d!`` simplices, one per ordering of the
coordinate steps on the path from the cell's lower corner to its upper
corner.  A point belongs to the simplex whose step order sorts its
fractional coordinates in descending order.  On each simplex the
interpolant is the unique affine function matching ``f`` at the d+1 path
vertices, so the global surface is continuous and exact at every grid
vertex; :mod:`sppa.mcmodel` encodes that interpolant as a MILP over the
grid vertices, and ``tests/properties.py`` holds the simplices themselves
as the geometric reference.
``Grid.points`` holds every vertex's coordinates in one row-major array,
on which ``problems.NonlinearTerm.on`` evaluates a term.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Interval", "Grid", "axis_breakpoints"]


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


class Grid:
    """Per-variable breakpoint arrays partitioning a box into cells."""

    def __init__(self, breakpoints: Sequence[np.ndarray]):
        bps = tuple(np.asarray(b, dtype=float) for b in breakpoints)
        if not bps:
            raise ValueError("grid needs at least one dimension")
        for k, b in enumerate(bps):
            if b.ndim != 1 or b.size < 2:
                raise ValueError(f"dimension {k}: need at least two breakpoints")
            # on a few breakpoints, checking Python floats beats numpy reductions
            values = b.tolist()
            if not all(map(math.isfinite, values)):
                raise ValueError(f"dimension {k}: non-finite breakpoint")
            if not all(map(operator.lt, values, values[1:])):
                raise ValueError(f"dimension {k}: breakpoints must be strictly increasing")
            b.setflags(write=False)
        self.breakpoints = bps
        self.dims = len(bps)
        self.pieces = tuple(b.size - 1 for b in bps)

    def points(self) -> np.ndarray:
        """Every vertex's coordinates, shape ``(L1+1, ..., Ld+1, d)``: the
        vertex with multi-index ``i`` is ``points()[i]``."""
        pts = np.empty(tuple(L + 1 for L in self.pieces) + (self.dims,))
        for k, b in enumerate(self.breakpoints):
            pts[..., k] = b.reshape((-1,) + (1,) * (self.dims - 1 - k))
        return pts


def axis_breakpoints(iv: Interval, pieces: int, integer: bool = False) -> np.ndarray:
    """``pieces`` equal segments over ``iv`` with the endpoints kept exact.

    The points are ``np.linspace``'s, bit for bit, outside its branch for a
    step that underflows to zero, whose grid has equal breakpoints either
    way.  For an integer variable the inner points are rounded and
    deduplicated, so the axis may end up with fewer segments.
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    pts = np.arange(pieces + 1.0) * ((iv.hi - iv.lo) / pieces) + iv.lo
    pts[0], pts[-1] = iv.lo, iv.hi
    if integer:
        snapped = np.round(pts)
        keep = (snapped >= iv.lo) & (snapped <= iv.hi)
        pts = np.unique(np.concatenate([[iv.lo, iv.hi], snapped[keep]]))
    return pts
