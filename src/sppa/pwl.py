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
A ``Grid`` holds each axis as a tuple of Python floats: ``loop`` takes the
vertices of a row-free term's grid row-major from their product, and
``Grid.points`` holds them in one array for the MILP encoding.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from sppa.expr import _Frozen

__all__ = ["Interval", "Grid", "axis_breakpoints"]


class Interval(_Frozen):
    """Closed bounded interval ``[lo, hi]`` of real numbers, immutable."""
    __hash__ = _Frozen.__hash__  # kept beside the __eq__ below

    def __init__(self, lo: float, hi: float):
        try:
            finite = math.isfinite(lo) and math.isfinite(hi)
        except TypeError:  # not a real number
            finite = None
        if finite is None or lo.__class__ is bool or hi.__class__ is bool:
            raise ValueError(f"interval bounds must be real numbers, got [{lo!r}, {hi!r}]")
        if not finite:
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"interval lower bound {lo} exceeds upper bound {hi}")
        # set and compared without building the instance dict, whose reads are slower
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


class Grid:
    """Per-variable breakpoint tuples partitioning a box into cells."""

    def __init__(self, breakpoints: Sequence[Sequence[float]]):
        axes = []
        for k, b in enumerate(breakpoints):
            try:
                values = tuple(map(float, b))
            except TypeError:  # a scalar, or a sequence of sequences
                values = ()
            if len(values) < 2:
                raise ValueError(f"dimension {k}: need at least two breakpoints")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"dimension {k}: non-finite breakpoint")
            if not all(map(operator.lt, values, values[1:])):
                raise ValueError(f"dimension {k}: breakpoints must be strictly increasing")
            axes.append(values)
        if not axes:
            raise ValueError("grid needs at least one dimension")
        self.breakpoints = tuple(axes)
        self.dims = len(axes)
        self.pieces = tuple(len(b) - 1 for b in axes)

    def points(self) -> np.ndarray:
        """Every vertex's coordinates, shape ``(L1+1, ..., Ld+1, d)``: the
        vertex with multi-index ``i`` is ``points()[i]``."""
        pts = np.empty(tuple(L + 1 for L in self.pieces) + (self.dims,))
        for k, b in enumerate(self.breakpoints):
            pts[..., k] = np.array(b).reshape((-1,) + (1,) * (self.dims - 1 - k))
        return pts


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
