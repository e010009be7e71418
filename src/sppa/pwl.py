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
as the geometric reference, on its own ``Grid``.
An axis is a tuple of Python floats (``axis_breakpoints``), checked by
``check_axis``; ``loop``'s block stage takes a grid's vertices from its
axes, row-major, for both solve paths.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from sppa.expr import _Frozen

__all__ = ["Interval", "axis_breakpoints", "check_axis"]


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


def check_axis(k: int, values: tuple) -> tuple:
    """Axis ``k``, a tuple of floats, returned once it has two breakpoints or
    more, all finite and strictly increasing; else a ``ValueError`` naming it."""
    if len(values) < 2:
        raise ValueError(f"dimension {k}: need at least two breakpoints")
    # a strictly increasing axis holds no NaN, and an infinity only at an
    # end; the full scan only chooses the error, non-finite first
    if not (all(map(operator.lt, values, values[1:]))
            and math.isfinite(values[0]) and math.isfinite(values[-1])):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"dimension {k}: non-finite breakpoint")
        raise ValueError(f"dimension {k}: breakpoints must be strictly increasing")
    return values


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
