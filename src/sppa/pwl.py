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
and ``vertex_values`` evaluates a term on such an array of points, in one
array pass when the term carries one.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Grid",
    "axis_breakpoints",
    "term_value",
    "vertex_values",
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

    def points(self) -> np.ndarray:
        """Every vertex's coordinates, shape ``(L1+1, ..., Ld+1, d)``: the
        vertex with multi-index ``i`` is ``points()[i]``."""
        pts = np.empty(tuple(L + 1 for L in self.pieces) + (self.dims,))
        for k, b in enumerate(self.breakpoints):
            pts[..., k] = b.reshape((-1,) + (1,) * (self.dims - 1 - k))
        return pts


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


def term_value(f: Callable, point: np.ndarray, label: str, where: str = "grid vertex") -> float:
    """``f`` at ``point`` as a float; an ``ArithmeticError`` or a non-finite
    value raises a ``ValueError`` that names ``label``, ``where`` and the
    point and carries the point as its ``point`` attribute."""
    try:
        val = float(f(point))
        if not math.isfinite(val):
            raise ArithmeticError(f"value {val} is not finite")
    except ArithmeticError as exc:
        error = ValueError(f"term '{label}' failed at {where} {point.tolist()}: {exc}")
        error.point = point.tolist()
        raise error from exc
    return val


def vertex_values(points: np.ndarray, f: Callable, label: str) -> np.ndarray:
    """``f`` at every point of a ``(..., n)`` array, shaped ``points.shape[:-1]``:
    in one call to ``f.array_fn`` (``expr.compile_sum``) if ``f`` has one,
    else, or if that pass flags a point or raises, by calling ``f`` on each
    point in row-major order, so the first failing point raises the
    ``ValueError`` of ``term_value``."""
    rows = points.reshape(-1, points.shape[-1])
    array_fn = getattr(f, "array_fn", None)
    if array_fn is not None:
        # the mask replaces numpy's warnings, which the tests turn into errors
        with np.errstate(all="ignore"):
            try:
                values, flagged = array_fn(rows)
            except (ValueError, ArithmeticError):  # a libm domain or range error
                flagged = None
        if flagged is not None and not flagged.any():
            return values.reshape(points.shape[:-1])
    return np.array([term_value(f, p, label) for p in rows]).reshape(points.shape[:-1])
