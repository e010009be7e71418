"""Seeded property suites shared by the module tests and the acceptance gate.

Each check function is deterministic (fixed RNG seed), raises AssertionError
on failure, and returns a short human-readable summary string.

The geometric reference lives here too: the simplices of the Kuhn
triangulation, locating a point's simplex and evaluating the simplicial
interpolant directly, with no MILP.  The solver never uses it; the lambda
encoding and its lattice branching are checked against it.  So does
``LpProblem``, a model grown a column, a row or a lattice set at a time,
each checked as it is added, in which the tests write their models.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from sppa import expr, loop, milp
from sppa.mcmodel import encode_term
from sppa.problems import (Interval, NonlinearTerm, ProblemSpec, _term_fn, from_expressions,
                           group_leads)


# ---------------------------------------------------------------------------
# models grown a column, a row or a lattice set at a time


class LpProblem(milp.LpProblem):
    """A ``milp.LpProblem`` grown from no column and no row, each column,
    row, lattice set and the objective checked as it is added: how the
    tests write small models, and the reference that
    ``loop.build_iteration_model``'s one-pass build is checked against
    (``sequential_model``)."""

    def add_var(self, lo: float, hi: float, *, integer: bool = False, count: int = 1) -> int:
        """Append ``count`` columns bounded in [lo, hi]; returns the first one's id."""
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"count must be an integer >= 1, got {count!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"variable bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"variable lower bound {lo} exceeds upper bound {hi}")
        j = self.n_vars
        self.lb = np.concatenate((self.lb, np.full(count, float(lo))))
        self.ub = np.concatenate((self.ub, np.full(count, float(hi))))
        self.is_int = np.concatenate((self.is_int, np.full(count, bool(integer))))
        self.c = np.concatenate((self.c, np.zeros(count)))
        self.A = np.concatenate((self.A, np.zeros((len(self.senses), count))), axis=1)
        self._canon = None
        return j

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        row = milp.LinearConstraint({j: float(c) for j, c in coeffs.items()}, sense, float(rhs))
        a = np.zeros(n := self.n_vars)
        for j, c in row.coeffs.items():
            if not 0 <= j < n:
                raise ValueError(f"row references unknown variable {j}")
            a[j] = c
        self.A = np.concatenate((self.A, a[None]))
        self.senses.append(sense)
        self.rhs = np.concatenate((self.rhs, (row.rhs,)))
        self._canon = None
        return len(self.senses) - 1

    def add_lattice_set(self, ids, shape) -> int:
        """Append the row ``sum(x_j for j in ids) = 1`` over variables bounded
        in [0, 1], the vertices of a grid of ``shape`` in row-major order,
        and declare them a lattice set for branching.  Returns the row index."""
        ids = np.asarray(ids, dtype=np.intp)
        if (ids.ndim != 1 or len(set(ids.tolist())) != ids.size or not shape
                or min(shape) < 1 or ids.size != math.prod(shape)):
            raise ValueError("a lattice set needs one distinct id per vertex of its grid")
        if not (0 <= ids.min() and ids.max() < self.n_vars
                and (self.lb[ids] >= 0.0).all() and (self.ub[ids] <= 1.0).all()):
            raise ValueError("every lattice set member must be a variable bounded in [0, 1]")
        row = self.add_row(dict.fromkeys(ids.tolist(), 1.0), milp.EQ, 1.0)
        self.lattice_sets.append((ids, np.indices(shape).reshape(len(shape), -1).T))
        return row

    def set_objective(self, coeffs: dict[int, float], constant: float = 0.0,
                      sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not math.isfinite(constant):
            raise ValueError("objective constant must be finite")
        for j, c in coeffs.items():
            if not 0 <= j < self.n_vars:
                raise ValueError(f"objective references unknown variable {j}")
            if not math.isfinite(c):
                raise ValueError(f"non-finite objective coefficient on variable {j}")
        self.c[:] = 0.0
        self.c[list(coeffs)] = list(coeffs.values())
        self.obj_constant = float(constant)
        self.sense = sense


# ---------------------------------------------------------------------------
# geometric reference: direct simplicial interpolation


class Grid:
    """Per-variable breakpoint tuples partitioning a box into cells, each
    axis read once and checked as the solver checks its axes
    (``loop.check_axis``)."""

    def __init__(self, breakpoints: Sequence[Sequence[float]]):
        axes = []
        for k, b in enumerate(breakpoints):
            try:
                items = tuple(b)  # read once: b may be an iterator
                values = tuple(map(float, items))
                # float() reads text, and a bytes-like axis as byte values: reject
                # both; a tuple of floats, as axis_breakpoints returns, equals its values
                if (b.__class__ is not tuple or values != b) and any(
                        isinstance(x, (str, bytes, bytearray, memoryview)) for x in (b, *items)):
                    raise ValueError
            except TypeError:  # a scalar, or a sequence of sequences
                values = ()
            except ValueError:
                raise ValueError(f"dimension {k}: breakpoints must be real numbers, "
                                 f"got {b!r}") from None
            axes.append(loop.check_axis(k, values))
        if not axes:
            raise ValueError("grid needs at least one dimension")
        self.breakpoints = tuple(axes)
        self.dims = len(axes)

    def points(self) -> np.ndarray:
        """Every vertex's coordinates, shape ``(L1+1, ..., Ld+1, d)``: the
        vertex with multi-index ``i`` is ``points()[i]``."""
        pts = np.empty(tuple(map(len, self.breakpoints)) + (self.dims,))
        for k, b in enumerate(self.breakpoints):
            pts[..., k] = np.array(b).reshape((-1,) + (1,) * (self.dims - 1 - k))
        return pts


@dataclass(frozen=True)
class Hyperplane:
    """Affine function ``z -> intercept + slopes @ z``."""

    intercept: float
    slopes: np.ndarray

    def value(self, z) -> float:
        return self.intercept + float(np.dot(self.slopes, np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class SimplexId:
    """One simplex: the cell's multi-index plus the coordinate step order.

    ``perm[s]`` is the (0-based) variable taking the s-th step on the
    vertex path from the cell's lower corner to its upper corner.
    """

    cell: tuple[int, ...]
    perm: tuple[int, ...]


def enumerate_simplices(grid: Grid) -> Iterator[SimplexId]:
    """All simplex ids, cells row-major and step orders lexicographic."""
    dims = range(grid.dims)
    for cell in itertools.product(*(range(len(b) - 1) for b in grid.breakpoints)):
        for perm in itertools.permutations(dims):
            yield SimplexId(cell, perm)


def vertex_path(sid: SimplexId) -> list[tuple[int, ...]]:
    """Lattice multi-indices of the d+1 path vertices, origin first."""
    idx = list(sid.cell)
    path = [tuple(idx)]
    for k in sid.perm:
        idx[k] += 1
        path.append(tuple(idx))
    return path


def build_grid(bounds: Sequence, pieces: Sequence[int]) -> Grid:
    """Equally spaced grid over ``bounds`` with ``pieces[k]`` segments on axis k,
    built by the same breakpoint routine as the solve loop."""
    ivs = [b if isinstance(b, Interval) else Interval(*b) for b in bounds]
    return Grid([loop.axis_breakpoints(iv, L) for iv, L in zip(ivs, pieces)])


def lower(grid: Grid) -> np.ndarray:
    return np.array([b[0] for b in grid.breakpoints])


def upper(grid: Grid) -> np.ndarray:
    return np.array([b[-1] for b in grid.breakpoints])


def cell_count(grid: Grid) -> int:
    return math.prod(len(b) - 1 for b in grid.breakpoints)


def count_simplices(grid: Grid) -> int:
    """Total number of simplices: d! per cell times the number of cells."""
    return math.factorial(grid.dims) * cell_count(grid)


def _cell_and_fractions(grid: Grid, z: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    cell = []
    frac = np.empty(grid.dims)
    for k in range(grid.dims):
        b = grid.breakpoints[k]
        if z[k] < b[0] or z[k] > b[-1]:
            raise ValueError(f"point coordinate {k} = {z[k]} outside grid range [{b[0]}, {b[-1]}]")
        # right-bisection; a point exactly on the top breakpoint stays in the last cell
        i = min(int(np.searchsorted(b, z[k], side="right")) - 1, len(b) - 2)
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


def simplex_vertices(grid: Grid, sid: SimplexId) -> np.ndarray:
    """Coordinates of the d+1 simplex vertices, one row per vertex."""
    points = grid.points()
    return np.array([points[v] for v in vertex_path(sid)])


def hyperplane_coeffs(grid: Grid, sid: SimplexId,
                      f: Callable[[np.ndarray], float]) -> Hyperplane:
    """Affine interpolant of ``f`` on the simplex.

    Each slope is the divided difference of ``f`` between the two
    consecutive path vertices that differ in that coordinate; the
    intercept anchors the plane at the origin vertex.  This plane passes
    through all d+1 vertices (telescoping along the path).
    """
    path = vertex_path(sid)
    points = grid.points()
    vals = []
    for v in path:
        fv = float(f(points[v]))
        if not math.isfinite(fv):
            raise ValueError(f"function value not finite at grid vertex {points[v]}")
        vals.append(fv)
    slopes = np.zeros(grid.dims)
    for step, k in enumerate(sid.perm):
        b = grid.breakpoints[k]
        l = sid.cell[k]
        slopes[k] = (vals[step + 1] - vals[step]) / (b[l + 1] - b[l])
    origin = points[path[0]]
    intercept = vals[0] - float(np.dot(slopes, origin))
    return Hyperplane(intercept, slopes)


def eval_pwl(grid: Grid, f: Callable[[np.ndarray], float], z) -> float:
    """Piecewise-linear value at ``z``: locate, interpolate, evaluate."""
    z = np.asarray(z, dtype=float)
    return hyperplane_coeffs(grid, locate(grid, z), f).value(z)


# ---------------------------------------------------------------------------
# independent oracles


def barycentric(vertices: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of z w.r.t. a d-simplex given as (d+1, d) rows."""
    d = vertices.shape[1]
    A = np.vstack([vertices.T, np.ones(d + 1)])
    rhs = np.concatenate([z, [1.0]])
    return np.linalg.solve(A, rhs)


def containing_simplices(grid: Grid, z: np.ndarray, tol: float = 1e-12):
    """All simplices whose closed region contains z (brute-force enumeration)."""
    out = []
    for sid in enumerate_simplices(grid):
        w = barycentric(simplex_vertices(grid, sid), z)
        if w.min() >= -tol:
            out.append(sid)
    return out


def grid_values(grid: Grid, f: Callable) -> np.ndarray:
    """``f`` at every vertex of ``grid``, shaped like its vertex lattice, as
    a term of coefficient 1 over the grid's variables evaluates it
    (``NonlinearTerm.on``)."""
    points = grid.points()
    rows = points.reshape(-1, grid.dims).tolist()
    return np.array(NonlinearTerm(tuple(range(grid.dims)), f, label="t").on(rows)).reshape(
        points.shape[:-1])


def add_term(model: LpProblem, z_ids, shape) -> tuple[slice, slice]:
    """A lambda block appended column by column and row by row: the weights
    of a grid of ``shape``, one per vertex in row-major order, a linking row
    per shared variable of ``z_ids`` (weight coefficients 0 until
    ``encode_term``) and its lattice set's row; returns ``(weight columns,
    linking rows)``.  With ``sequential_model``, the reference that
    ``loop.build_iteration_model``'s one-pass layout is checked against."""
    j = model.add_var(0.0, 1.0, count=math.prod(shape))
    rows = [model.add_row({z: -1.0}, milp.EQ, 0.0) for z in z_ids]
    model.add_lattice_set(range(j, model.n_vars), shape)
    return slice(j, model.n_vars), slice(rows[0], rows[-1] + 1)


def sequential_model(spec: ProblemSpec, bounds: list, pieces: int) -> milp.LpProblem:
    """``loop.build_iteration_model``'s model with its shape built by one
    ``add_var`` per variable, ``add_term`` per block and ``add_row`` per
    linear row, then ``set_objective``, and filled by
    ``build_iteration_model`` itself, handed that shape."""
    layout = loop._layout(spec, bounds)
    stage, _ = loop._block_stage(spec, layout, bounds, pieces)
    shape = tuple(tuple(map(len, axes)) for axes, _, _ in stage)
    model = LpProblem()
    for _name, _iv, is_int in spec.variables:
        model.add_var(0.0, 0.0, integer=is_int)
    blocks = [add_term(model, active, lattice) for (_, active, _), lattice in zip(layout[0], shape)]
    for row in spec.linear_constraints:
        model.add_row(row.coeffs, row.sense, 0.0)
    model.set_objective(spec.linear_objective, sense=spec.sense)
    return loop.build_iteration_model(spec, bounds, pieces, {None: layout, shape: (model, blocks)})


def encode_objective_term(prob: LpProblem, grid: Grid, z_ids,
                          values: np.ndarray) -> dict[int, float]:
    """One term of vertex ``values`` on ``grid`` over the variables ``z_ids``
    put into ``prob`` (``add_term``, then ``encode_term`` into the
    objective); returns the term value as ``{weight id: vertex value}``."""
    block = add_term(prob, z_ids, values.shape)
    encode_term(prob, block, grid.points(), {None: values})
    cols = block[0]
    return dict(zip(range(cols.start, cols.stop), prob.c[cols].tolist()))


def solve_relaxation(problem: milp.LpProblem) -> milp.MilpResult:
    """LP relaxation: ``solve_milp`` on a copy with every variable continuous
    and no lattice set, which is one simplex solve at the root."""
    relaxed = copy.copy(problem)
    relaxed.is_int = np.zeros(problem.n_vars, dtype=bool)
    relaxed.lattice_sets = []
    return milp.solve_milp(relaxed)


def term_grid_values(spec: ProblemSpec, term: NonlinearTerm, bounds: list, pieces: int):
    """``(active, grid, values)`` of ``term`` on a grid of its own: its
    variables of positive width, their grid (``pieces`` segments each) and
    its values (``coef * fn``) at the vertices, the other variables at their
    values; with no active variable, no grid and its value at its one point.
    Built term by term, apart from ``loop``'s one grid per lambda block."""
    active = [k for k in term.var_ids if bounds[k].width > 0.0]
    fixed = np.array([bounds[k].lo for k in term.var_ids], dtype=float)
    if not active:
        return active, None, term.at(fixed)
    grid = Grid([loop.axis_breakpoints(bounds[k], pieces, spec.variables[k][2])
                     for k in active])
    points = np.full(tuple(map(len, grid.breakpoints)) + fixed.shape, fixed)
    points[..., [term.var_ids.index(k) for k in active]] = grid.points()
    values = term.on(points.reshape(-1, len(term.var_ids)).tolist())
    return active, grid, np.array(values).reshape(points.shape[:-1])


def per_term_model(spec: ProblemSpec, bounds: list, pieces: int, models=None) -> milp.LpProblem:
    """The iteration model with one lambda block per term, ``add_term`` and
    ``encode_term`` on each term's own active variables, built fresh on
    every call (``models`` is ignored): the reference that
    ``loop.build_iteration_model``'s shared blocks are checked against.
    Each term is evaluated on its own grid (``term_grid_values``).  The
    columns and rows are laid out as there, and a term whose variables are
    all fixed is a constant in the objective or the row's right side."""
    model = LpProblem()
    for _name, _iv, is_int in spec.variables:
        model.add_var(0.0, 0.0, integer=is_int)
    model.lb[:], model.ub[:] = [iv.lo for iv in bounds], [iv.hi for iv in bounds]
    prepared = [term_grid_values(spec, term, bounds, pieces) for term in spec.nonlinear_terms]
    blocks = [add_term(model, active, np.shape(values)) if active else None
              for active, _, values in prepared]
    first_row = len(model.senses)
    for row in spec.linear_constraints:
        model.add_row(row.coeffs, row.sense, row.rhs)
    model.set_objective(spec.linear_objective, spec.objective_constant, spec.sense)
    for term, (_, grid, value), block in zip(spec.nonlinear_terms, prepared, blocks):
        if block is not None:
            encode_term(model, block, grid.points(),
                        {None if term.row is None else first_row + term.row: value})
        elif term.row is None:
            model.obj_constant += value
        else:
            model.rhs[first_row + term.row] -= value
    return model


# ---------------------------------------------------------------------------
# property suites


def check_triangulation(n_points: int = 1000) -> str:
    """Coverage, count, vertex exactness, continuity, affine exactness."""
    rng = np.random.default_rng(20260810)

    grids = [
        build_grid([Interval(0.0, 1.0)], [5]),
        build_grid([Interval(-1.0, 2.0), Interval(0.0, 4.0)], [3, 2]),
        build_grid([Interval(-2.0, 2.0)] * 3, [2, 2, 2]),
    ]
    funcs = [
        lambda v: float(np.sum(v**2)),
        lambda v: float(np.prod(np.cos(v)) + 0.25 * np.sum(v)),
        lambda v: float(np.sum(np.abs(v) ** 1.5)),
    ]

    # count: enumeration yields exactly d! * prod(L) distinct ids
    for grid in grids:
        ids = list(enumerate_simplices(grid))
        assert len(ids) == count_simplices(grid)
        assert len(set(ids)) == len(ids)

    # coverage: located simplex contains the point (barycentric oracle)
    per_grid = max(1, n_points // len(grids))
    for grid, f in zip(grids, funcs):
        lo, hi = lower(grid), upper(grid)
        pts = lo + rng.random((per_grid, grid.dims)) * (hi - lo)
        for z in pts:
            sid = locate(grid, z)
            w = barycentric(simplex_vertices(grid, sid), z)
            assert w.min() >= -1e-12, f"locate returned non-containing simplex at {z}"

        # vertex exactness
        for v in grid.points().reshape(-1, grid.dims):
            fv = f(v)
            assert abs(eval_pwl(grid, f, v) - fv) <= 1e-9 * (1.0 + abs(fv))

        # continuity across shared faces: every containing simplex agrees
        for _ in range(40):
            sid = locate(grid, lo + rng.random(grid.dims) * (hi - lo))
            verts = simplex_vertices(grid, sid)
            face = rng.choice(grid.dims + 1, size=rng.integers(1, grid.dims + 2), replace=False)
            wts = rng.random(face.size)
            wts /= wts.sum()
            z = wts @ verts[face]
            z = np.clip(z, lo, hi)
            vals = [
                hyperplane_coeffs(grid, s, f).value(z)
                for s in containing_simplices(grid, z, tol=1e-9)
            ]
            assert vals, "no containing simplex found for face point"
            ref = vals[0]
            for v in vals[1:]:
                assert abs(v - ref) <= 1e-9 * (1.0 + abs(ref))

    # affine exactness
    for grid in grids:
        lo, hi = lower(grid), upper(grid)
        for _ in range(20):
            a = rng.normal(size=grid.dims)
            b = float(rng.normal())
            f_aff = lambda v, a=a, b=b: float(a @ v + b)
            z = lo + rng.random(grid.dims) * (hi - lo)
            want = f_aff(z)
            assert abs(eval_pwl(grid, f_aff, z) - want) <= 1e-9 * (1.0 + abs(want))
    return f"triangulation invariants ok ({n_points} coverage points, {len(grids)} grids)"


def check_lambda_equivalence(n_points: int = 200) -> str:
    """MILP value of an encoded term at a pinned point == direct
    interpolation, with the weights above ``_INT_TOL`` on the vertices of
    one simplex that contains the point."""
    rng = np.random.default_rng(31337)
    cases = [
        (build_grid([Interval(-1.0, 3.0)], [3]), lambda v: float(v[0] ** 2)),
        (
            build_grid([Interval(0.0, 1.0), Interval(0.0, 1.0)], [2, 2]),
            lambda v: float(v[0] * v[1]),
        ),
        (
            build_grid([Interval(-2.0, 2.0), Interval(-1.0, 1.0)], [2, 2]),
            lambda v: float(np.sin(v[0]) + v[1] ** 3),
        ),
    ]
    checked = 0
    per_case = -(-n_points // len(cases))  # ceil: at least n_points total
    for grid, f in cases:
        lo, hi = lower(grid), upper(grid)
        for _ in range(per_case):
            z0 = lo + rng.random(grid.dims) * (hi - lo)
            prob = LpProblem()
            z_ids = [prob.add_var(lo[k], hi[k]) for k in range(grid.dims)]
            value = encode_objective_term(prob, grid, z_ids, grid_values(grid, f))
            for k, zid in enumerate(z_ids):
                prob.add_row({zid: 1.0}, "=", float(z0[k]))
            prob.set_objective(value)
            res = milp.solve_milp(prob)
            assert res.status == "optimal", f"MILP not optimal at {z0}: {res.status}"
            want = eval_pwl(grid, f, z0)
            assert abs(res.objective - want) <= 1e-7 * (1.0 + abs(want)), (
                f"MILP {res.objective} != pwl {want} at {z0}"
            )
            [(ids, index)] = prob.lattice_sets
            support = {tuple(v) for v in index[res.x[ids] > milp._INT_TOL].tolist()}
            assert any(support <= set(vertex_path(sid))
                       for sid in containing_simplices(grid, z0, tol=1e-9)), (z0, support)
            checked += 1
    return f"lambda/geometric equivalence ok ({checked} pinned points)"


def _simplex_members(index: np.ndarray) -> list[np.ndarray]:
    """For a lattice set's vertex indices (all vertices of a grid, in any
    order), the positions of each simplex's vertices, simplices in
    ``enumerate_simplices`` order."""
    shape = tuple(int(n) for n in index.max(axis=0) + 1)
    pos = np.empty(shape, dtype=np.intp)
    pos[tuple(index.T)] = np.arange(len(index))
    grid = Grid([np.arange(n, dtype=float) for n in shape])
    return [np.array([pos[v] for v in vertex_path(sid)]) for sid in enumerate_simplices(grid)]


def _per_set_cut(lattice_sets: list, x: np.ndarray):
    """The lattice split as ``milp._balanced_cut`` made it set by set, its
    keys rebuilt at every call: the reference for the one-pass cut."""
    chosen, top = None, math.inf
    for ids, index in lattice_sets:
        v = x[ids]
        on = v > milp._INT_TOL
        pairs = [(i, j) for i in range(index.shape[1]) for j in range(i + 1, index.shape[1])]
        diagonals = index[:, [i for i, _ in pairs]] - index[:, [j for _, j in pairs]]
        for keys in (index, diagonals):
            span = keys[on].max(axis=0) - keys[on].min(axis=0)
            if span.max(initial=0) >= 2:
                if v.max() < top:
                    chosen, top = (ids, keys[:, span == span.max()], v, on), float(v.max())
                break
    if chosen is None:
        return None
    ids, keys, v, on = chosen
    best = None
    for key in keys.T:
        lo = int(key[on].min())
        total = np.cumsum(np.bincount(key[on] - lo, weights=v[on]))
        imbalance = np.abs(total[:-2] - (total[-1] - total[1:-1]))
        t = int(np.argmin(imbalance))
        if best is None or imbalance[t] < best[0]:
            best = (imbalance[t], key, lo + 1 + t)
    _, key, s = best
    return ids[key > s], ids[key < s]


def check_lattice_branch(n_cases: int = 400, n_multi: int = 300) -> str:
    """``milp._balanced_cut`` against the geometric reference on random
    weights over the vertices of 1-3-D grids of 1-4 pieces per axis: it
    returns None exactly when the weights above ``_INT_TOL`` lie on one
    simplex; otherwise each child drops positive support weight, and every
    simplex of the grid keeps all its vertices in at least one child, so no
    branch cuts off a valid support.

    A case spreads weight over 1-6 random vertices, or over a random face
    of one simplex, and puts weight below ``_INT_TOL`` on a few other
    vertices; a second set, whose support is one vertex, is declared first
    at another id offset and never branched on.
    """
    rng = np.random.default_rng(97531)
    n_valid = n_split = 0
    for _ in range(n_cases):
        pieces = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        index = np.array(list(np.ndindex(*(pieces + 1))), dtype=np.intp)
        members = _simplex_members(index)
        n = len(index)
        w = np.zeros(n)
        if rng.random() < 0.3:
            face = members[int(rng.integers(0, len(members)))]
            w[rng.choice(face, size=int(rng.integers(1, face.size + 1)), replace=False)] = 1.0
        else:
            w[rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)] = 1.0
        w *= rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
        w[(w == 0.0) & (rng.random(n) < 0.2)] = 0.5 * milp._INT_TOL
        x = np.concatenate([[1.0, 0.0, 0.0], w])
        sets = [(np.arange(3), np.array([[0], [1], [2]])), (3 + np.arange(n), index)]
        split = milp._balanced_cut(milp._Lattice(sets), x)
        on = w > milp._INT_TOL
        valid = any(set(np.flatnonzero(on)) <= set(m.tolist()) for m in members)
        assert (split is None) == valid, (index.tolist(), w.tolist(), split)
        if valid:
            n_valid += 1
            continue
        n_split += 1
        drops = [side - 3 for side in split]
        for side in drops:
            assert np.all(side >= 0) and on[side].any(), (w.tolist(), drops)
        for m in members:
            assert any(not np.isin(m, side).any() for side in drops), (
                f"simplex {m.tolist()} cut off by both children {drops}")
    assert n_valid and n_split, (n_valid, n_split)

    n_several = n_tied = 0
    for _ in range(n_multi):
        shapes = [rng.integers(1, 5, size=int(rng.integers(1, 4))) + 1
                  for _ in range(int(rng.integers(2, 6)))]
        indices = [np.array(list(np.ndindex(*shape)), dtype=np.intp) for shape in shapes]
        ids = rng.permutation(sum(len(index) for index in indices))
        x = np.zeros(ids.size)
        sets, tops = [], []
        for index in indices:
            set_ids, ids = ids[:len(index)], ids[len(index):]
            members = _simplex_members(index)
            if rng.random() < 0.4:
                on = members[int(rng.integers(0, len(members)))]
            else:
                on = rng.choice(len(index), size=int(rng.integers(2, min(len(index), 6) + 1)),
                                replace=False)
            x[set_ids[on]] = rng.choice([0.1, 0.2, 0.25, 0.4, 0.5], size=on.size)
            sets.append((set_ids, index))
            if not any(set(on.tolist()) <= set(m.tolist()) for m in members):
                tops.append(float(x[set_ids].max()))
        want = _per_set_cut(sets, x)
        got = milp._balanced_cut(milp._Lattice(sets), x)
        assert (got is None) == (want is None) == (not tops), (tops, got, want)
        if want is not None:
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (got, want)
        n_several += len(tops) >= 2
        n_tied += len(tops) >= 2 and tops.count(min(tops)) >= 2
    assert n_several and n_tied, (n_several, n_tied)
    return (f"lattice branch keeps every simplex ({n_split} splits, {n_valid} valid supports); "
            f"one-pass cut matches the per-set cut ({n_multi} calls, {n_several} with several "
            f"invalid sets, {n_tied} tied)")


def check_lattice_oracle(n_specs: int = 30) -> str:
    """``solve_milp`` on ``loop.build_iteration_model``'s model matches brute
    force over the simplices: each choice of one simplex per lattice set,
    the weights off it bounded to 0, solved on its own (its sets are then
    valid, so it branches on integers only), the best of them.

    Each seeded spec has a 1- or 2-D objective term, a 1-D term in a ``<=``
    row and a linear ``>=`` row, both through a random point of the box;
    a term variable is integer in about half of them, its axis snapped by
    ``axis_breakpoints``.  Piece counts 2-3; either sense.
    """
    rng = np.random.default_rng(24680)
    n_int = n_branched = 0
    for _ in range(n_specs):
        d = int(rng.integers(1, 3))
        integer = [bool(rng.random() < 0.5)] + [False] * (d - 1)
        variables = []
        for k in range(d):
            lo = float(rng.integers(-3, 0)) if integer[k] else float(rng.uniform(-2.0, 0.0))
            hi = lo + (float(rng.integers(2, 6)) if integer[k] else float(rng.uniform(1.0, 3.0)))
            variables.append((f"x{k}", Interval(lo, hi), integer[k]))
        point = np.array([rng.uniform(iv.lo, iv.hi) for _, iv, _ in variables])
        shape, a = _SHAPES[int(rng.integers(0, 3))], rng.uniform(-1.0, 1.0, size=d)
        r = int(rng.integers(0, d))
        c = rng.uniform(-1.0, 1.0, size=d)
        rows = [milp.LinearConstraint({}, "<=", float((point[r] - 0.3) ** 2) + 0.5),
                milp.LinearConstraint({k: float(c[k]) for k in range(d)}, ">=",
                                      float(c @ point) - 0.5)]
        terms = [NonlinearTerm(tuple(range(d)), lambda v, shape=shape, a=a: shape(v, a)),
                 NonlinearTerm((r,), lambda v: float((v[0] - 0.3) ** 2), row=0)]
        sense = "max" if rng.random() < 0.5 else "min"
        spec = ProblemSpec(variables, {}, 0.0, rows, terms, sense=sense)
        lp = loop.build_iteration_model(spec, spec.bounds(), int(rng.integers(2, 4)))
        res = milp.solve_milp(lp)
        sgn = 1.0 if sense == "min" else -1.0
        best = math.inf
        sets = [(ids, _simplex_members(index)) for ids, index in lp.lattice_sets]
        for combo in itertools.product(*(members for _, members in sets)):
            sub = copy.copy(lp)
            sub.ub = lp.ub.copy()
            for (ids, _), keep in zip(sets, combo):
                for j in np.delete(ids, keep).tolist():
                    sub.ub[j] = 0.0
            got = milp.solve_milp(sub)
            assert got.counters["nodes_set_branched"] == 0, got.counters
            if got.status == "optimal":
                best = min(best, sgn * got.objective)
        if best == math.inf:
            assert res.status == "infeasible", res.status
        else:
            assert res.status == "optimal", res.status
            assert abs(sgn * res.objective - best) <= 2.0 * milp._REL_GAP * max(1.0, abs(best)), (
                f"bnb {res.objective} != brute force {sgn * best}")
        n_int += any(integer)
        n_branched += res.counters["nodes_set_branched"] > 0
    assert n_int and n_branched, (n_int, n_branched)
    return (f"lattice model matches brute force over simplices ({n_specs} specs, {n_int} with "
            f"an integer axis, {n_branched} set-branched)")


def _refill_spec(rng: np.random.Generator) -> ProblemSpec:
    """Variables: an integer n, continuous x and y, and w fixed at a random
    value.  Terms: a 2-D objective term over n and x that also reads w, a
    1-D objective and a 1-D row term whose vertex values are mostly 0 under
    a negative coefficient, a term of w alone in the row, and an objective
    term of w and x, in that order, against the lead's n, x, w.  Rows: that
    row (``<=``) and a linear ``>=`` row, both through a random point."""
    lo = float(rng.integers(-4, 0))
    variables = [("n", Interval(lo, lo + float(rng.integers(3, 9))), True),
                 ("x", Interval(-1.0, float(rng.uniform(0.5, 2.0))), False),
                 ("y", Interval(float(rng.uniform(-2.0, 0.0)), 1.0), False),
                 ("w", Interval(*[float(rng.uniform(-1.0, 1.0))] * 2), False)]
    point = np.array([rng.uniform(iv.lo, iv.hi) for _, iv, _ in variables])
    shape, a = _SHAPES[int(rng.integers(0, 3))], rng.uniform(-1.0, 1.0, size=3)
    # 0 wherever the coordinate is at most its cut, and a negative coef times 0.0 is -0.0
    ramp = [lambda v, t=float(t): float(max(0.0, v[0] - t) ** 2)
            for t in rng.uniform(-0.5, 0.5, size=2)]
    terms = [NonlinearTerm((0, 1, 3), lambda v: shape(v, a)),
             NonlinearTerm((2,), ramp[0], coef=-float(rng.uniform(0.5, 2.0))),
             NonlinearTerm((1,), ramp[1], coef=-float(rng.uniform(0.5, 2.0)), row=0),
             NonlinearTerm((3,), lambda v: float(v[0] ** 2), row=0),
             NonlinearTerm((3, 1), lambda v: float(v[0] * v[1] ** 2 - v[1]))]
    row_at = (-terms[2].coef * ramp[1](point[1:2]) + point[3] ** 2 + 0.5 * point[2])
    c = rng.uniform(-1.0, 1.0, size=3)
    rows = [milp.LinearConstraint({2: 0.5}, "<=", float(row_at) + 0.3),
            milp.LinearConstraint({k: float(c[k]) for k in range(3)}, ">=",
                                  float(c @ point[:3]) - 0.3)]
    sense = "max" if rng.random() < 0.5 else "min"
    return ProblemSpec(variables, {2: float(rng.uniform(-1.0, 1.0))}, 0.5, rows, terms,
                       sense=sense)


def _canon_bytes(canon: milp._Canon) -> list[bytes]:
    lattice = canon.lattice
    return [a.tobytes() for a in (canon.A, canon.b, canon.l, canon.u, canon.c, lattice.ids,
                                  lattice.keys)] + [repr((canon.dtol, canon.infeasible))]


def check_model_refill(n_specs: int = 40, n_windows: int = 6) -> str:
    """A model refilled in place (``build_iteration_model`` with the run's
    ``models``, which keeps the terms' layout from the first call) equals
    one built from a fresh dict for the same windows: the model's ``A``,
    ``c``, ``rhs``, ``lb`` and ``ub`` and the canonical arrays ``A``, ``b``,
    ``l``, ``u`` and ``c`` and the lattice keys byte for byte, no ``-0.0``
    among the canonical coefficients (an absent one is +0.0), and
    ``solve_milp``'s results bit for bit.

    Each seeded ``_refill_spec`` goes through ``n_windows`` windows at one
    piece count (2 or 3), each contracted about the last incumbent (a random
    point when there is none) by 0.5-0.7, integer windows rounded outward as
    in ``run``.  The model of a shape already met is refilled; an integer
    axis that loses breakpoints makes a new shape, built once.
    """
    rng = np.random.default_rng(97)
    n_refilled = n_rebuilt = n_negzero = n_optimal = 0
    for _ in range(n_specs):
        spec = _refill_spec(rng)
        pieces, frac = int(rng.integers(2, 4)), float(rng.uniform(0.5, 0.7))
        bounds, models, canons, layout = spec.bounds(), {}, {}, None
        for _ in range(n_windows):
            refilled = loop.build_iteration_model(spec, bounds, pieces, models)
            fresh = loop.build_iteration_model(spec, bounds, pieces, {})
            layout = models[None] if layout is None else layout
            assert models[None] is layout, "the terms' layout was recomputed"
            for name in ("A", "c", "rhs", "lb", "ub"):
                assert getattr(refilled, name).tobytes() == getattr(fresh, name).tobytes(), name
            n_negzero += int(np.signbit(refilled.c[refilled.c == 0.0]).sum()
                             + np.signbit(refilled.A[refilled.A == 0.0]).sum())
            got, want = milp.solve_milp(refilled), milp.solve_milp(fresh)
            canon = refilled._canon
            n_refilled += id(refilled) in canons
            assert canons.setdefault(id(refilled), canon) is canon, (
                "the canonical form of a known shape was rebuilt")
            assert _canon_bytes(canon) == _canon_bytes(fresh._canon), "refill != fresh build"
            for a in (canon.A, canon.c):
                assert not np.signbit(a[a == 0.0]).any(), "a canonical coefficient is -0.0"
            assert (got.status, got.objective, got.bound, got.gap, got.counters) == (
                want.status, want.objective, want.bound, want.gap, want.counters), (got, want)
            assert (got.x is want.x is None) or got.x.tobytes() == want.x.tobytes()
            n_optimal += got.status == "optimal"
            centre = got.x if got.x is not None else [rng.uniform(iv.lo, iv.hi) for iv in bounds]
            bounds = [iv if iv.width == 0.0
                      else (loop._contract_integer if spec.variables[j][2]
                            else loop.contract_bounds)(iv, float(centre[j]), frac)
                      for j, iv in enumerate(bounds)]
        n_rebuilt += len(models) - 2  # the shapes, less the layout and the last crash start
    assert n_refilled and n_rebuilt > n_specs and n_negzero and n_optimal, (
        n_refilled, n_rebuilt, n_negzero, n_optimal)
    return (f"refilled models match fresh builds ({n_specs} specs, {n_specs * n_windows} "
            f"windows: {n_rebuilt} shapes built, {n_refilled} refills reusing their canonical "
            f"form, {n_optimal} optimal, {n_negzero} -0.0 coefficients written)")


def _model_bytes(model: milp.LpProblem) -> list:
    arrays = [model.lb, model.ub, model.is_int, model.c, model.A, model.rhs]
    arrays += [a for lattice_set in model.lattice_sets for a in lattice_set]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays] + [
        model.senses, len(model.lattice_sets), model.sense, repr(model.obj_constant)]


def check_one_pass_build(n_specs: int = 60) -> str:
    """``loop.build_iteration_model``, which builds a new shape in one pass,
    against ``sequential_model``, column by column and row by row: the
    models' ``lb``, ``ub``, ``is_int``, ``c``, ``A``, ``rhs``, ``senses``,
    lattice sets, sense and objective constant equal byte for byte, and so
    do their solves.  Specs alternate between ``_nested_spec`` (nested and
    overlapping terms, a row with and a row without nonlinear terms, an
    integer and a fixed variable in some) and ``_refill_spec`` (two blocks,
    an integer, a fixed variable, terms in a row), each at 2 to 5 pieces,
    under a random sense."""
    rng = np.random.default_rng(3131)
    n_blocks = n_max = n_int = n_fixed = 0
    for k in range(n_specs):
        spec = (_nested_spec if k % 2 else _refill_spec)(rng)
        bounds, pieces = spec.bounds(), int(rng.integers(2, 6))
        got = loop.build_iteration_model(spec, bounds, pieces)
        want = sequential_model(spec, bounds, pieces)
        assert _model_bytes(got) == _model_bytes(want), (k, spec)
        a, b = milp.solve_milp(got), milp.solve_milp(want)
        assert (a.status, a.objective, a.bound, a.counters) == (
            b.status, b.objective, b.bound, b.counters), (a, b)
        n_blocks += len(got.lattice_sets) > 1
        n_max += spec.sense == "max"
        n_int += bool(got.is_int.any())
        n_fixed += any(iv.width == 0.0 for iv in bounds)
    assert n_blocks and n_max and n_int and n_fixed, (n_blocks, n_max, n_int, n_fixed)
    return (f"one-pass models match sequential builds byte for byte ({n_specs} specs: "
            f"{n_blocks} with several blocks, {n_int} with an integer, {n_fixed} with a fixed "
            f"variable, {n_max} under max)")


def _nested_spec(rng: np.random.Generator) -> ProblemSpec:
    """Two or three variables, the first integer in about a third of the
    specs and a later one fixed in about a quarter; an objective term of all
    of them or of all but the last, objective and ``<=``-row terms on random
    smaller subsets (so most nest in another term, some overlap one, and
    some share a row), in about half the specs a row term on the last two
    variables, and a linear ``>=`` row.  Each term lists its variables in a
    random order.  Both rows pass through a random point of the box."""
    d = int(rng.integers(2, 4))
    variables = []
    for k in range(d):
        integer = k == 0 and rng.random() < 1.0 / 3.0
        lo = float(rng.integers(-3, 0)) if integer else float(rng.uniform(-2.0, 0.0))
        hi = lo + (float(rng.integers(2, 5)) if integer else float(rng.uniform(1.0, 3.0)))
        if k and rng.random() < 0.25:
            hi = lo
        variables.append((f"x{k}", Interval(lo, hi), integer))
    point = np.array([rng.uniform(iv.lo, iv.hi) for _, iv, _ in variables])
    terms = []
    for targets in ([None], [None, 0, 0, 0][:int(rng.integers(2, 5))]):
        for row in targets:
            size = d - int(rng.random() < 0.5) if not terms else int(rng.integers(1, d))
            axes = tuple(int(k) for k in rng.choice(size if not terms else d, size, False))
            shape, a = _SHAPES[int(rng.integers(0, 3))], rng.uniform(-1.0, 1.0, size=len(axes))
            terms.append(NonlinearTerm(axes, lambda v, shape=shape, a=a: shape(v, a),
                                       coef=float(rng.choice([-1.5, 0.5, 1.0])), row=row))
    if rng.random() < 0.5:
        terms.append(NonlinearTerm((d - 1, d - 2), lambda v: float(np.sin(v[0] - v[1])), row=0))
    row_at = sum(t.coef * t.fn(point[list(t.var_ids)]) for t in terms if t.row == 0)
    c = rng.uniform(-1.0, 1.0, size=d)
    rows = [milp.LinearConstraint({}, "<=", float(row_at) + 0.3),
            milp.LinearConstraint({k: float(c[k]) for k in range(d)}, ">=",
                                  float(c @ point) - 0.3)]
    sense = "max" if rng.random() < 0.5 else "min"
    return ProblemSpec(variables, {0: float(rng.uniform(-1.0, 1.0))}, 0.5, rows, terms,
                       sense=sense)


def check_grouped_model(n_specs: int = 120) -> str:
    """``loop.build_iteration_model``, whose terms share one lambda block
    per variable group, against ``per_term_model``, one block per term: on
    each ``_nested_spec`` at 2 or 3 pieces, the same status and, when
    optimal, objectives within twice the MILP's relative gap (both solve
    the same interpolant).  The grouped model has a block per group that
    has an active variable, and no more sets than the reference."""
    rng = np.random.default_rng(4242)
    n_shared = n_optimal = n_fixed = n_blocks = 0
    for _ in range(n_specs):
        spec = _nested_spec(rng)
        bounds, pieces = spec.bounds(), int(rng.integers(2, 4))
        grouped = loop.build_iteration_model(spec, bounds, pieces)
        reference = per_term_model(spec, bounds, pieces)
        leads = group_leads([term.var_ids for term in spec.nonlinear_terms])
        active_leads = {g for g in leads if any(bounds[k].width > 0.0
                                                 for k in spec.nonlinear_terms[g].var_ids)}
        assert len(grouped.lattice_sets) == len(active_leads), (leads, active_leads)
        assert len(grouped.lattice_sets) <= len(reference.lattice_sets)
        got, want = milp.solve_milp(grouped), milp.solve_milp(reference)
        assert got.status == want.status, (got.status, want.status)
        if want.status == "optimal":
            assert abs(got.objective - want.objective) <= 2.0 * milp._REL_GAP * max(
                1.0, abs(want.objective)), (got.objective, want.objective)
            n_optimal += 1
        n_shared += len(grouped.lattice_sets) < len(reference.lattice_sets)
        n_fixed += any(iv.width == 0.0 for iv in bounds)
        n_blocks += len(grouped.lattice_sets) > 1
    assert n_shared and n_optimal and n_fixed and n_blocks, (n_shared, n_optimal, n_fixed,
                                                               n_blocks)
    return (f"grouped model matches one block per term ({n_specs} specs: {n_shared} sharing a "
            f"block, {n_blocks} with more than one block, {n_fixed} with a fixed variable, "
            f"{n_optimal} optimal)")


_PAIR_TEXTS = ("{a}*{u}*{v}", "sin({u} - {a}*{v})", "({u} - {a}*{v}^2)^2", "exp({a}*{u})*{v}")


def _overlapping_text(rng: np.random.Generator, names: Sequence[str]) -> str:
    """A sum over ``names`` (three of them) of summands on two pairs that
    share one variable, so neither pair holds the other, a summand on one
    variable in about half the sums, and a linear part."""
    shared = int(rng.integers(0, 3))
    pairs = [(shared, k) for k in range(3) if k != shared]
    parts = [_PAIR_TEXTS[int(rng.integers(0, 4))].format(
        a=repr(round(float(rng.uniform(-1.5, 1.5)), 3)),
        **dict(zip("uv", (names[k] for k in rng.permutation(pair))))) for pair in pairs]
    if rng.random() < 0.5:
        parts.insert(int(rng.integers(0, 3)), f"cos({names[int(rng.integers(0, 3))]})")
    return " + ".join(parts + [f"({round(float(rng.uniform(-1.0, 1.0)), 3)!r})*{names[0]}"])


def _merged_terms(terms: Sequence[NonlinearTerm]) -> list[NonlinearTerm]:
    """One term per connected component of the terms that share a variable
    and a target, on the component's variables: the reference that
    ``check_split_terms`` solves the split terms against."""
    parts: list[tuple] = []  # (row, variable ids, member terms)
    for term in terms:
        hit = [p for p in parts if p[0] == term.row and not p[1].isdisjoint(term.var_ids)]
        parts = [p for p in parts if all(p is not h for h in hit)]
        parts.append((term.row, set(term.var_ids).union(*(h[1] for h in hit)),
                      [m for h in hit for m in h[2]] + [term]))
    merged = []
    for row, ids, members in parts:
        ids = tuple(sorted(ids))
        at = [[ids.index(k) for k in m.var_ids] for m in members]
        merged.append(NonlinearTerm(ids, lambda v, members=members, at=at: sum(
            m.coef * m.fn(v[p]) for m, p in zip(members, at)), row=row))
    return merged


def check_split_terms(n_specs: int = 40) -> str:
    """``from_expressions`` gives summands on overlapping variable sets that
    do not nest one term each; on the Kuhn grid the interpolant of a sum is
    the sum of its summands' interpolants, so the split model solves to the
    optimum of the model with one term per connected component
    (``_merged_terms``).  On random specs in three variables, the objective
    and a ``<=`` row each such a sum, plus a linear ``>=`` row, both rows
    passing through a random point of the box, at 2 or 3 pieces: the same
    status and, when optimal, objectives within twice the MILP's relative
    gap."""
    rng = np.random.default_rng(26)
    names = ("x", "y", "z")
    n_optimal = 0
    for _ in range(n_specs):
        variables = [(n, Interval(lo, lo + float(rng.uniform(1.0, 3.0))), False)
                     for n, lo in zip(names, rng.uniform(-2.0, 0.0, size=3))]
        point = {n: float(rng.uniform(iv.lo, iv.hi)) for n, iv, _ in variables}
        lhs = _overlapping_text(rng, names)
        row_at = expr.eval_expr(expr.parse_expr(lhs, var_names=list(names)), point)
        c = rng.uniform(-1.0, 1.0, size=3)
        spec = from_expressions(
            variables, _overlapping_text(rng, names),
            [(lhs, "<=", row_at + 0.3),
             (" + ".join(f"({k!r})*{n}" for k, n in zip(c.tolist(), names)), ">=",
              float(c @ [point[n] for n in names]) - 0.3)],
            sense="max" if rng.random() < 0.5 else "min")
        merged = ProblemSpec(spec.variables, spec.linear_objective, spec.objective_constant,
                             spec.linear_constraints, _merged_terms(spec.nonlinear_terms),
                             spec.sense)
        assert len(merged.nonlinear_terms) == 2 < len(spec.nonlinear_terms), spec.nonlinear_terms
        pieces = int(rng.integers(2, 4))
        got = milp.solve_milp(loop.build_iteration_model(spec, spec.bounds(), pieces))
        want = milp.solve_milp(loop.build_iteration_model(merged, merged.bounds(), pieces))
        assert got.status == want.status, (got.status, want.status)
        if want.status == "optimal":
            assert abs(got.objective - want.objective) <= 2.0 * milp._REL_GAP * max(
                1.0, abs(want.objective)), (got.objective, want.objective)
            n_optimal += 1
    assert n_optimal, n_optimal
    return (f"split overlapping summands match one term per component ({n_specs} specs, "
            f"{n_optimal} optimal)")


def _enumerate_milp(prob: milp.LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Every integer point of an all-integer problem's box, and a mask of
    those that satisfy every row."""
    points = np.array(list(itertools.product(
        *[np.arange(lo, hi + 1.0) for lo, hi in zip(prob.lb, prob.ub)])), dtype=float)
    ok = np.ones(len(points), dtype=bool)
    for a, sense, rhs in zip(prob.A, prob.senses, prob.rhs):
        lhs = points @ a
        if sense == "<=":
            ok &= lhs <= rhs + 1e-9
        elif sense == ">=":
            ok &= lhs >= rhs - 1e-9
        else:
            ok &= np.abs(lhs - rhs) <= 1e-9
    return points, ok


def check_milp_oracle(n_instances: int = 100, n_general: int = 60, n_sets: int = 60) -> str:
    """Branch and bound matches exhaustive enumeration: ``n_instances``
    all-binary problems, then ``n_general`` with general integers over
    small ranges such as [-2, 3], then ``n_sets`` that declare lattice sets:
    1-3 groups of 1-4 binaries, each group's ``= 1`` row added by
    ``add_lattice_set`` as a whole grid, k binaries of shape (k,) or, for
    k = 4, (4,) or (2, 2), plus one general integer outside every set.  A binary set's
    integral points each put all weight on one vertex, a valid support, so
    the lattice branching must cut none of them off."""
    rng = np.random.default_rng(777)
    senses = np.array(["<=", "<=", ">=", ">=", "="])  # equalities kept rare
    n_infeasible = [0, 0, 0]  # binary, general, with lattice sets
    set_branched = 0
    for inst in range(n_instances + n_general + n_sets):
        kind = 0 if inst < n_instances else 1 if inst < n_instances + n_general else 2
        groups = []
        if kind == 0:
            n = int(rng.integers(1, 13))
            bounds = [(0.0, 1.0)] * n
        elif kind == 1:
            n = int(rng.integers(1, 6))
            lo = rng.integers(-3, 1, size=n)
            bounds = [(float(a), float(a + w)) for a, w in zip(lo, rng.integers(1, 6, size=n))]
        else:
            sizes = rng.integers(1, 5, size=int(rng.integers(1, 4)))
            first = np.concatenate([[0], np.cumsum(sizes)])
            groups = [range(a, b) for a, b in zip(first[:-1], first[1:])]
            n = int(first[-1]) + 1  # the general integer last
            lo = float(rng.integers(-2, 1))
            bounds = [(0.0, 1.0)] * (n - 1) + [(lo, lo + float(rng.integers(1, 5)))]
        m = int(rng.integers(0, 9 if kind == 0 else 5))
        c = rng.integers(-9, 10, size=n).astype(float)
        A = rng.integers(-9, 10, size=(m, n)).astype(float)
        sn = senses[rng.integers(0, 5, size=m)]
        rhs = rng.integers(-12, 13, size=m).astype(float)

        prob = LpProblem()
        ids = [prob.add_var(lo, hi, integer=True) for lo, hi in bounds]
        for group in groups:
            square = len(group) == 4 and rng.random() < 0.5
            prob.add_lattice_set([ids[j] for j in group], (2, 2) if square else (len(group),))
        for i in range(m):
            coeffs = {ids[j]: A[i, j] for j in range(n) if A[i, j] != 0.0}
            if not coeffs:
                continue
            prob.add_row(coeffs, str(sn[i]), float(rhs[i]))
        prob.set_objective({ids[j]: c[j] for j in range(n)})

        points, ok = _enumerate_milp(prob)
        res = milp.solve_milp(prob)
        if not ok.any():
            assert res.status == "infeasible", f"expected infeasible, got {res.status}"
            n_infeasible[kind] += 1
        else:
            best = float(np.min(points[ok] @ c))
            assert res.status == "optimal", f"expected optimal, got {res.status}"
            assert abs(res.objective - best) <= 1e-6, (
                f"bnb {res.objective} != brute force {best}"
            )
        outcomes = {k: v for k, v in res.counters.items() if k.startswith("nodes_")}
        assert sum(outcomes.values()) == res.nodes, (outcomes, res.nodes)
        if kind < 2:
            assert outcomes["nodes_set_branched"] == 0, outcomes
        set_branched += outcomes["nodes_set_branched"]
    assert n_infeasible[2] > 0 and set_branched > 0, (n_infeasible, set_branched)
    return (f"milp brute-force oracle ok ({n_instances} binary instances, {n_infeasible[0]} "
            f"infeasible; {n_general} with general integers, {n_infeasible[1]} infeasible; "
            f"{n_sets} with lattice sets, {n_infeasible[2]} infeasible, "
            f"{set_branched} set-branched nodes)")


def _random_boxed_lp(rng: np.random.Generator) -> milp.LpProblem:
    """2-9 boxed variables and 1-7 rows of every sense, made feasible by a
    random point of the box; either sense of a random objective."""
    n = int(rng.integers(2, 10))
    prob = LpProblem()
    lo = rng.uniform(-5.0, 2.0, size=n)
    hi = lo + rng.uniform(0.5, 6.0, size=n)
    for j in range(n):
        prob.add_var(float(lo[j]), float(hi[j]))
    point = rng.uniform(lo, hi)
    for _ in range(int(rng.integers(1, 8))):
        coeffs = {j: float(rng.normal()) for j in range(n) if rng.random() < 0.7}
        if not coeffs:
            continue
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        slack = 0.0 if sense == "=" else abs(float(rng.normal()))
        activity = sum(c * point[j] for j, c in coeffs.items())
        prob.add_row(coeffs, sense, activity + slack if sense == "<=" else activity - slack)
    prob.set_objective({j: float(rng.normal()) for j in range(n)},
                       sense="max" if rng.random() < 0.5 else "min")
    return prob


def check_warm_child(n_lps: int = 150) -> str:
    """A child LP re-solved warm from its parent's optimal basis matches the
    same LP solved cold from the slack basis, and a cutoff above the
    child's optimum does not stop the warm solve.

    Each seeded random LP has 2-9 boxed variables and 1-7 rows of every
    sense, made feasible by a random point of the box.  After the parent
    solve, one bound of a basic structural is tightened past its value, as
    branch and bound does; some tightenings leave the child infeasible.
    """
    rng = np.random.default_rng(4242)
    n_children = n_infeasible = n_warm_pivots = n_cold_pivots = 0
    for _ in range(n_lps):
        prob = _random_boxed_lp(rng)
        n = prob.n_vars
        canon = milp._Canon(prob)
        parent = milp._simplex(canon, canon.l, canon.u)
        assert parent.status == "optimal", parent.status
        basic = [int(j) for j in parent.start.basis if j < n and parent.x[j] > canon.l[j] + 1e-6
                 and parent.x[j] < canon.u[j] - 1e-6]
        if not basic:
            continue
        j = basic[int(rng.integers(0, len(basic)))]
        l, u = canon.l.copy(), canon.u.copy()
        if rng.random() < 0.5:
            u[j] = l[j] + float(rng.uniform(0.0, 1.0)) * (parent.x[j] - l[j])
        else:
            l[j] = u[j] - float(rng.uniform(0.0, 1.0)) * (u[j] - parent.x[j])
        cold = milp._simplex(canon, l, u)
        # every basis the warm solve visits bounds the optimum from below, so
        # a cutoff just above the optimum never stops it
        optimal = cold.status == "optimal"
        tol = 1e-9 * (1.0 + abs(cold.objective)) if optimal else 0.0
        cutoff = cold.objective + tol if optimal else math.inf
        warm = milp._simplex(canon, l, u, parent.start, cutoff=cutoff)
        assert warm.status == cold.status, f"warm {warm.status} != cold {cold.status}"
        if optimal:
            assert abs(warm.objective - cold.objective) <= tol, (
                f"warm {warm.objective} != cold {cold.objective}")
        else:
            assert cold.status == "infeasible", cold.status
            n_infeasible += 1
        n_children += 1
        n_warm_pivots += warm.iterations
        n_cold_pivots += cold.iterations
    assert n_infeasible > 0 and n_children - n_infeasible > 0, (n_children, n_infeasible)
    return (f"warm children match cold solves ({n_children} children, {n_infeasible} "
            f"infeasible; {n_warm_pivots} warm vs {n_cold_pivots} cold pivots)")


def _concave_term_model(rng: np.random.Generator) -> milp.LpProblem:
    """One lambda-encoded term of 1 or 2 variables on a grid of 3-5 pieces
    per axis, of a random concave quadratic whose LP relaxation spreads the
    weights over several simplices, plus a random linear equality on the
    term variables through a point of the box; the term is minimised."""
    dims = int(rng.integers(1, 3))
    lo = rng.uniform(-2.0, 0.0, size=dims)
    hi = lo + rng.uniform(1.0, 3.0, size=dims)
    grid = Grid([np.linspace(lo[k], hi[k], int(rng.integers(3, 6)) + 1)
                     for k in range(dims)])
    Q = rng.normal(size=(dims, dims))
    Q = -(Q @ Q.T) - 0.5 * np.eye(dims)  # concave: the relaxation mixes simplices
    b = rng.normal(size=dims)
    prob = LpProblem()
    z = [prob.add_var(float(lo[k]), float(hi[k])) for k in range(dims)]
    value = encode_objective_term(prob, grid, z, grid_values(
        grid, lambda v, Q=Q, b=b: float(v @ Q @ v + b @ v)))
    a = rng.normal(size=dims)
    point = rng.uniform(lo, hi)
    prob.add_row({z[k]: float(a[k]) for k in range(dims)}, "=", float(a @ point))
    prob.set_objective(value)
    return prob


def check_set_branch_warm(n_models: int = 30) -> str:
    """A child of a lattice-set split re-solved warm from its parent's
    optimal basis and bound statuses (``_Start``) matches the same LP
    solved cold from the slack basis: same status, and the same objective
    within 1e-9 (1 + |objective|).  Every column the split sets to 0 was
    basic or at 0 in the parent.

    Each seeded model is a ``_concave_term_model``.  From the root, the
    walk descends through up to four splits, into the first child that
    stays feasible.
    """
    rng = np.random.default_rng(1357)
    n_children = n_infeasible = most_zeroed = 0
    for _ in range(n_models):
        prob = _concave_term_model(rng)
        canon = milp._Canon(prob)
        l, u = canon.l, canon.u.copy()
        parent = milp._simplex(canon, l, u)
        assert parent.status == "optimal", parent.status
        lattice = milp._Lattice(prob.lattice_sets)
        for _depth in range(4):
            split = milp._balanced_cut(lattice, parent.x)
            if split is None:
                break
            descend = None
            for side in split:
                basic = parent.start.vstat[side] == milp._BASIC
                assert np.all(basic | (parent.x[side] == 0.0)), "zeroed a column away from 0"
                child_u = u.copy()
                child_u[side] = 0.0
                warm = milp._simplex(canon, l, child_u, parent.start)
                cold = milp._simplex(canon, l, child_u)
                assert warm.status == cold.status, f"warm {warm.status} != cold {cold.status}"
                if cold.status == "optimal":
                    tol = 1e-9 * (1.0 + abs(cold.objective))
                    assert abs(warm.objective - cold.objective) <= tol, (
                        f"warm {warm.objective} != cold {cold.objective}")
                    if descend is None:
                        descend = (child_u, warm)
                else:
                    assert cold.status == "infeasible", cold.status
                    n_infeasible += 1
                n_children += 1
                most_zeroed = max(most_zeroed, int(side.size))
            if descend is None:
                break
            u, parent = descend
    assert n_children >= 2 * n_models and most_zeroed >= 10, (n_children, most_zeroed)
    return (f"set-branch children warm match cold ({n_children} children, {n_infeasible} "
            f"infeasible, up to {most_zeroed} weights zeroed at once)")


def _counting_solves(run: Callable[[], milp._SxResult]) -> tuple[milp._SxResult, int, int]:
    """``run()``, and the ftran and the btran calls it made."""
    counts = [0, 0]
    ftran, btran = milp._Basis.ftran, milp._Basis.btran

    def counted(k, fn):
        def solve(self, v):
            counts[k] += 1
            return fn(self, v)
        return solve

    milp._Basis.ftran, milp._Basis.btran = counted(0, ftran), counted(1, btran)
    try:
        return run(), counts[0], counts[1]
    finally:
        milp._Basis.ftran, milp._Basis.btran = ftran, btran


def _same_child(canon: milp._Canon, l: np.ndarray, u: np.ndarray,
                start: milp._Start) -> tuple[milp._SxResult, bool]:
    """The child solved from ``start``, and whether it reused the start's
    primal values; asserts that it ends bit for bit as the child solved
    from ``start``'s basis and bound statuses alone."""
    full, full_ftran, full_btran = _counting_solves(lambda: milp._simplex(canon, l, u, start))
    bare, bare_ftran, bare_btran = _counting_solves(
        lambda: milp._simplex(canon, l, u, milp._Start(start.basis, start.vstat)))
    assert (full.status, full.iterations, full.factorizations, full.objective) == (
        bare.status, bare.iterations, bare.factorizations, bare.objective), (full, bare)
    assert (full.x is None and bare.x is None) or full.x.tobytes() == bare.x.tobytes(), (
        full.x, bare.x)
    assert bare_btran - full_btran == 1, (full_btran, bare_btran)  # the reduced costs
    assert bare_ftran - full_ftran in (0, 1), (full_ftran, bare_ftran)  # the primal values
    return full, bare_ftran > full_ftran


def check_child_reuse(n_lps: int = 150, n_models: int = 30) -> str:
    """A child solved from its parent's full optimal start, which carries
    the basis's reduced costs and primal values, ends exactly as the same
    child solved from the basis and bound statuses alone: same status,
    pivots, bases and objective, and ``x`` equal bit for bit.  The full
    start saves the btran of the reduced costs on every child, and the
    ftran of the primal values exactly when no nonbasic value moved.

    The parents are ``check_warm_child``'s random LPs and
    ``check_set_branch_warm``'s lattice models.  An LP parent has one child
    that tightens a basic structural's bound past its value, which moves no
    nonbasic value, and one that tightens the bound a nonbasic structural
    sits at, which moves it.  A lattice model descends through up to three
    splits, both children of each solved from the full start.  Both the
    reuse and the recomputation of the primal values must occur.
    """
    rng = np.random.default_rng(8642)
    n_children = n_reused = n_moved = 0
    for _ in range(n_lps):
        prob = _random_boxed_lp(rng)
        canon = milp._Canon(prob)
        parent = milp._simplex(canon, canon.l, canon.u)
        assert parent.status == "optimal", parent.status
        n = prob.n_vars
        vstat = parent.start.vstat[:n]
        for status in (milp._BASIC, milp._NB_UPPER, milp._NB_LOWER):
            movable = np.flatnonzero((vstat == status) & (canon.u[:n] > canon.l[:n]))
            if not movable.size:
                continue
            j = int(movable[int(rng.integers(0, movable.size))])
            l, u = canon.l.copy(), canon.u.copy()
            t = float(rng.uniform(0.1, 0.9))
            if status == milp._NB_UPPER or (status == milp._BASIC and rng.random() < 0.5):
                u[j] = l[j] + t * (parent.x[j] - l[j])
            else:
                l[j] = u[j] - t * (u[j] - parent.x[j])
            _, reused = _same_child(canon, l, u, parent.start)
            assert reused == (status == milp._BASIC), (status, reused)
            n_children += 1
            n_reused += reused
            n_moved += not reused
    for _ in range(n_models):
        prob = _concave_term_model(rng)
        canon = milp._Canon(prob)
        lattice = milp._Lattice(prob.lattice_sets)
        u = canon.u
        parent = milp._simplex(canon, canon.l, u)
        for _depth in range(3):
            split = milp._balanced_cut(lattice, parent.x)
            if split is None:
                break
            descend = None
            for side in split:
                child_u = u.copy()
                child_u[side] = 0.0
                child, reused = _same_child(canon, canon.l, child_u, parent.start)
                n_children += 1
                n_reused += reused
                n_moved += not reused
                if descend is None and child.status == "optimal":
                    descend = (child_u, child)
            if descend is None:
                break
            u, parent = descend
    assert n_reused and n_moved, (n_reused, n_moved)
    return (f"children reuse their parent's solved state ({n_children} children, "
            f"{n_reused} reused the primal values, {n_moved} recomputed them)")


def check_warm_root(n_pairs: int = 80) -> str:
    """A root started from a same-shaped predecessor's optimal root basis
    (``MilpResult.start``) reaches the cold solve's status and objective.

    Each seeded pair is two boxed problems of 2-9 variables and 2-7 rows of
    every sense, the second the first with perturbed coefficients, bounds,
    objective and right-hand sides, as consecutive outer iterations build
    them; a third of the pairs have integer variables.  Both are feasible at
    a random point of their box, except every eighth second problem, which
    gets two contradictory rows.  Edge cases: a warm basis made singular by
    zeroing a basic column's coefficients restarts from the slack basis
    (the cold solve exactly, with one more factorization), a start whose
    shape differs from the canonical form (a row more or a variable more)
    is ignored, and a start on the second problem with a coefficient-free
    row in place of its first row is a warm root like the others.
    """
    rng = np.random.default_rng(8080)
    senses = np.array(["<=", "<=", ">=", ">=", "="])

    def build(lo, hi, is_int, A, sn, c, sense):
        """The problem with rows ``A sn rhs``, feasible at a random point of the box."""
        point = rng.uniform(lo, hi)
        point[is_int] = np.round(point[is_int])
        act = A @ point
        slack = np.abs(rng.normal(size=act.size))
        rhs = np.where(sn == "<=", act + slack, np.where(sn == ">=", act - slack, act))
        prob = LpProblem()
        for j in range(lo.size):
            prob.add_var(float(lo[j]), float(hi[j]), integer=bool(is_int[j]))
        for i in range(act.size):
            prob.add_row({j: float(a) for j, a in enumerate(A[i])}, str(sn[i]), float(rhs[i]))
        prob.set_objective({j: float(v) for j, v in enumerate(c)}, sense=sense)
        return prob

    def same(a, b, refactorizations=0):
        ca, cb = a.counters, b.counters
        return (a.status, ca["pivots"], ca["factorizations"], a.nodes) == (
            b.status, cb["pivots"], cb["factorizations"] + refactorizations, b.nodes) and (
            a.x is b.x is None or np.array_equal(a.x, b.x))

    def agree(warm, cold):
        assert warm.status == cold.status, f"warm {warm.status} != cold {cold.status}"
        if cold.status == "optimal":
            assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective)), (
                f"warm {warm.objective} != cold {cold.objective}")

    n_int = n_infeasible = n_singular = n_shape = warm_root = cold_root = 0
    for k in range(n_pairs):
        n, m = int(rng.integers(2, 10)), int(rng.integers(2, 8))
        is_int = rng.random(n) < (0.4 if k % 3 == 0 else 0.0)
        lo = np.where(is_int, rng.integers(-3, 1, size=n), rng.uniform(-5.0, 2.0, size=n))
        hi = lo + np.where(is_int, rng.integers(1, 5, size=n), rng.uniform(0.5, 6.0, size=n))
        mask = rng.random((m, n)) < 0.7
        mask[np.arange(m), rng.integers(0, n, size=m)] = True  # no coefficient-free row
        A = np.where(mask, rng.normal(size=(m, n)), 0.0)
        sn = senses[rng.integers(0, 5, size=m)]
        c = rng.normal(size=n)
        sense = "max" if rng.random() < 0.5 else "min"
        first = milp.solve_milp(build(lo, hi, is_int, A, sn, c, sense))
        assert first.status == "optimal", first.status
        assert first.start is not None

        # the next iteration's problem: same shape, everything moved a little
        shift = 0.2 * (hi - lo) * rng.uniform(-1.0, 1.0, size=n)
        lo2 = np.where(is_int, lo, lo + shift)
        hi2 = np.where(is_int, hi, np.maximum(hi + shift * rng.uniform(0.0, 2.0, size=n),
                                              lo2 + 0.1))
        A2 = A * (1.0 + 0.2 * rng.normal(size=(m, n)))
        c2 = c + 0.2 * rng.normal(size=n)
        second = build(lo2, hi2, is_int, A2, sn, c2, sense)
        if k % 8 == 7:  # rows 0 and 1 cannot both hold
            r0 = float(second.A[0] @ rng.uniform(lo2, hi2))
            second.A[1] = second.A[0]
            second.senses[:2] = [">=", "<="]
            second.rhs[:2] = [r0, r0 - 0.5]
        cold = milp.solve_milp(second)
        warm = milp.solve_milp(second, start=first.start)
        agree(warm, cold)
        if cold.status != "optimal":
            assert cold.status == "infeasible" and k % 8 == 7, cold.status
            n_infeasible += 1
        n_int += bool(is_int.any())
        warm_root += warm.counters["root_pivots"]
        cold_root += cold.counters["root_pivots"]

        # a basic structural column zeroed wherever another coefficient
        # keeps its row: the start's basis is singular for this problem
        basic = [int(j) for j in first.start.basis if j < n
                 and all(np.count_nonzero(mask[i]) > 1 for i in np.flatnonzero(mask[:, j]))]
        if basic and not is_int.any():
            A3 = A2.copy()
            A3[:, basic[0]] = 0.0
            third = build(lo2, hi2, is_int, A3, sn, c2, sense)
            try:  # under the error state _simplex enters, in which a singular basis raises
                milp._lapack_errors(milp._Basis(milp._Canon(third), first.start.basis).ftran)(
                    np.zeros(m))
            except np.linalg.LinAlgError:
                cold = milp.solve_milp(third)
                warm = milp.solve_milp(third, start=first.start)
                assert same(warm, cold, refactorizations=1), (warm, cold)
                n_singular += 1

        # a start of another shape is ignored: the solve is the cold one
        wider = copy.deepcopy(second)
        wider.add_var(0.0, 1.0)
        taller = copy.deepcopy(second)
        taller.add_row({0: 1.0}, "<=", second.ub[0])
        for other in (wider, taller):
            assert same(milp.solve_milp(other, start=first.start), milp.solve_milp(other))
            n_shape += 1
        # as many rows as the start's basis, one of them coefficient-free: a same-shaped start
        shorter = build(lo2, hi2, is_int, A2[1:], sn[1:], c2, sense)
        shorter.add_row({}, "<=", 1.0)
        agree(milp.solve_milp(shorter, start=first.start), milp.solve_milp(shorter))

    assert n_infeasible > 0 and n_singular > 0 and n_int > 0, (n_infeasible, n_singular, n_int)
    assert warm_root < cold_root, (warm_root, cold_root)
    return (f"warm roots match cold solves ({n_pairs} pairs, {n_int} with integers, "
            f"{n_infeasible} infeasible; root pivots {warm_root} warm vs {cold_root} cold; "
            f"{n_singular} singular starts restarted, {n_shape} other shapes ignored)")


def _chained_spec(rng: np.random.Generator) -> ProblemSpec:
    """Three to five variables, the first integer (1 to 4 units wide) in
    about a third of the specs and a middle one fixed in about a quarter;
    an objective term on each consecutive pair, so that the pairs' blocks
    share variables; a ``<=`` row of a square of each variable, a linear
    ``>=`` row and a row with no coefficient at a random place among them,
    both other rows through a random point;
    a random sense and linear objective coefficients on some variables."""
    d = int(rng.integers(3, 6))
    variables = []
    for k in range(d):
        integer = k == 0 and rng.random() < 1.0 / 3.0
        lo = float(rng.integers(-3, 0)) if integer else float(rng.uniform(-2.0, 0.0))
        hi = lo + (float(rng.integers(1, 5)) if integer else float(rng.uniform(1.0, 3.0)))
        if 0 < k < d - 1 and rng.random() < 0.25:
            hi = lo
        variables.append((f"x{k}", Interval(lo, hi), integer))
    point = np.array([rng.uniform(iv.lo, iv.hi) for _, iv, _ in variables])
    if variables[0][2]:
        point[0] = round(point[0])
    terms = []
    for k in range(d - 1):
        shape, a = _SHAPES[int(rng.integers(0, 3))], rng.uniform(-1.0, 1.0, size=2)
        terms.append(NonlinearTerm((k, k + 1), lambda v, shape=shape, a=a: shape(v, a),
                                   coef=float(rng.choice([-1.5, 0.5, 1.0]))))
    free = int(rng.integers(0, 3))  # the place of the coefficient-free row
    squares = [0, 1, 2][:free] + [0, 1, 2][free + 1:]
    terms += [NonlinearTerm((k,), lambda v: float(v[0] ** 2), row=squares[0]) for k in range(d)]
    c = rng.uniform(-1.0, 1.0, size=d)
    rows = [None] * 3
    rows[squares[0]] = milp.LinearConstraint({}, "<=", float(point @ point) + 0.3)
    rows[squares[1]] = milp.LinearConstraint({k: float(c[k]) for k in range(d)}, ">=",
                                             float(c @ point) - 0.3)
    rows[free] = milp.LinearConstraint({}, "<=", 1.0)
    linear = {k: float(rng.uniform(-1.0, 1.0)) for k in range(d) if rng.random() < 0.5}
    sense = "max" if rng.random() < 0.5 else "min"
    return ProblemSpec(variables, linear, 0.5, rows, terms, sense=sense)


def check_crash_basis(n_specs: int = 60) -> str:
    """The crash start ``loop.build_iteration_model`` makes for a new shape
    (``loop._crash_start``) is a basis of the canonical form: one column per
    row, the coefficient-free row's slack in it, no bound statuses carried,
    and LU factorizes it; the root started from it reaches the status and,
    within the relative gap, the objective of the root started from the
    slack basis.

    Specs are ``_chained_spec``'s, whose blocks share variables, at 2 to 4
    pieces; each has a coefficient-free row, some an integer axis
    or a fixed variable, under either sense.  Some crash bases must hold a
    neighbour's weight, and the roots from the crash bases must take fewer
    pivots in all than those from the slack basis."""
    rng = np.random.default_rng(5150)
    n_shared = n_fixed = n_int = n_max = n_optimal = crash_root = slack_root = 0
    for _ in range(n_specs):
        spec = _chained_spec(rng)
        bounds, pieces, models = spec.bounds(), int(rng.integers(2, 5)), {}
        model = loop.build_iteration_model(spec, bounds, pieces, models)
        crash = models.pop("crash")
        canon = milp._Canon(model)
        n, m = canon.nstruct, canon.m
        free = np.flatnonzero(~model.A.any(axis=1))
        assert free.size == 1 and crash.basis.size == m, (free, crash.basis)
        assert crash.basis[free[0]] == n + free[0], "the coefficient-free row holds no slack"
        assert sorted(set(crash.basis.tolist())) == sorted(crash.basis.tolist())
        assert crash.vstat is None, "the crash start carries bound statuses"
        milp._lapack_errors(milp._Basis(canon, crash.basis).ftran)(np.ones(m))  # raises if singular
        # a neighbour's weight stands in for a variable an earlier block holds
        weights = (spec.n_vars <= crash.basis) & (crash.basis < n)
        n_shared += int(weights.sum() > len(model.lattice_sets))
        got, want = milp.solve_milp(model, start=crash), milp.solve_milp(model)
        assert got.status == want.status, (got.status, want.status)
        if want.status == "optimal":
            assert abs(got.objective - want.objective) <= 2.0 * milp._REL_GAP * max(
                1.0, abs(want.objective)), (got.objective, want.objective)
            n_optimal += 1
        crash_root += got.counters["root_pivots"]
        slack_root += want.counters["root_pivots"]
        n_fixed += any(iv.width == 0.0 for iv in bounds)
        n_int += spec.variables[0][2]
        n_max += spec.sense == "max"
    assert n_shared and n_fixed and n_int and n_max and n_optimal, (
        n_shared, n_fixed, n_int, n_max, n_optimal)
    assert crash_root < slack_root, (crash_root, slack_root)
    return (f"crash bases factorize and their roots match the slack starts' ({n_specs} specs: "
            f"{n_shared} with a neighbour's weight, {n_int} with an integer, {n_fixed} with a "
            f"fixed variable, {n_max} under max, {n_optimal} optimal; root pivots "
            f"{crash_root} from the crash vs {slack_root} from the slack basis)")


def check_sppa_invariants(n_problems: int = 50) -> str:
    """Bound nesting, width law and incumbent containment on random problems."""
    rng = np.random.default_rng(2468)
    checked_iters = 0
    for _ in range(n_problems):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(-4.0, 0.0, size=d)
        hi = lo + rng.uniform(1.0, 6.0, size=d)
        kind = int(rng.integers(0, 3))
        a = rng.uniform(-2.0, 2.0, size=d)
        c0 = float(rng.uniform(-1.0, 1.0))

        if kind == 0:
            fn = lambda v, a=a: float(np.sum((v - a) ** 2))
        elif kind == 1:
            fn = lambda v, a=a: float(np.sum(np.cos(v * (1.0 + np.abs(a)))) + 0.1 * np.sum(v**2))
        else:
            fn = lambda v, a=a, c0=c0: float(np.prod(v + a) + c0 * np.sum(np.abs(v)))

        variables = [(f"x{k}", Interval(float(lo[k]), float(hi[k])), False) for k in range(d)]
        # one untouched linear-only variable to verify it is never contracted
        variables.append(("w", Interval(-1.0, 1.0), False))
        spec = ProblemSpec(
            variables=variables,
            linear_objective={d: 0.01},
            objective_constant=0.0,
            linear_constraints=[],
            nonlinear_terms=[NonlinearTerm(tuple(range(d)), fn)],
            sense="min",
        )
        cfg = loop.SppaConfig(
            initial_n_pieces=int(rng.integers(2, 4)),
            n_pieces=2,
            contract_frac=float(rng.uniform(0.3, 0.8)),
            max_iters=4,
        )
        result = loop.run(spec, cfg)
        assert result.trace, "empty trace"

        prev = best = None
        for rec in result.trace:
            for k in range(d):
                iv = rec.bounds[f"x{k}"]
                x = rec.incumbent[k]
                assert iv.lo - 1e-9 <= x <= iv.hi + 1e-9, "incumbent outside its bounds"
                if prev is not None:
                    piv = prev.bounds[f"x{k}"]
                    assert iv.lo >= piv.lo - 1e-12 and iv.hi <= piv.hi + 1e-12, "bounds not nested"
                    # width law: equality without clipping, never wider than the factor
                    assert iv.width <= cfg.contract_frac * piv.width + 1e-12
                    interior = (
                        best.incumbent[k] - iv.width / 2.0 >= piv.lo - 1e-12
                        and best.incumbent[k] + iv.width / 2.0 <= piv.hi + 1e-12
                    )
                    if interior:
                        assert abs(iv.width - cfg.contract_frac * piv.width) <= 1e-12 * (
                            1.0 + piv.width
                        )
                    # the best point so far feeds the next window
                    assert iv.lo - 1e-9 <= best.incumbent[k] <= iv.hi + 1e-9
            # the linear-only variable keeps bit-identical bounds
            assert rec.bounds["w"] == Interval(-1.0, 1.0)
            # a row-free spec is solved at the grid vertices, where the
            # surrogate is the exact objective
            assert abs(rec.surrogate_objective - rec.objective) <= 1e-12 * (
                1.0 + abs(rec.objective)), "surrogate differs from the exact objective"
            prev = rec
            if best is None or rec.objective <= best.objective:  # every point is feasible
                best = rec
            checked_iters += 1
    return f"sppa contraction invariants ok ({n_problems} problems, {checked_iters} iterations)"


_SHAPES = (
    lambda v, a: float(np.sum((v - a) ** 2)),
    lambda v, a: float(np.sum(np.sin(3.0 * v + a))),
    lambda v, a: float(np.prod(v + a)),
)


def _row_free_spec(rng: np.random.Generator) -> tuple[ProblemSpec, int]:
    """A random spec without rows and a piece count small enough for its MILP.

    It has 1-3 terms on disjoint supports of 1-3 variables, one or two
    variables outside every term, one zero-width variable, integer variables
    (declared with fractional bounds, which the spec rounds inward) and
    linear objective coefficients on term and non-term variables.  Terms
    nest in them: on a random subset of a term's variables, in a random
    order, with its own ``coef``, and on the zero-width variable alone (in
    its term's block, or a constant when it lies outside every term).
    """
    sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
    n = sum(sizes) + int(rng.integers(1, 3))
    fixed = int(rng.integers(0, n))
    variables = []
    for j in range(n):
        integer = bool(rng.random() < 0.3)
        lo = float(rng.uniform(-3.0, 1.0))
        if j == fixed:
            lo = float(round(lo)) if integer else lo
            iv = Interval(lo, lo)
        else:
            iv = Interval(lo, lo + float(rng.uniform(1.5 if integer else 0.5, 6.0)))
        variables.append((f"v{j}", iv, integer))
    perm = [int(k) for k in rng.permutation(n)]
    terms, start = [], 0
    for size in sizes:
        shape, a = _SHAPES[int(rng.integers(0, 3))], rng.uniform(-1.0, 1.0, size=size)
        terms.append(NonlinearTerm(tuple(perm[start:start + size]),
                                   lambda v, shape=shape, a=a: shape(v, a),
                                   coef=float(rng.choice([-2.0, 0.5, 1.0]))))
        start += size
    for _ in range(int(rng.integers(1, 3))):
        ids = terms[int(rng.integers(0, len(terms)))].var_ids
        sub = tuple(int(k) for k in rng.permutation(ids)[:int(rng.integers(1, len(ids) + 1))])
        shape, a = _SHAPES[int(rng.integers(0, 3))], rng.uniform(-1.0, 1.0, size=len(sub))
        terms.append(NonlinearTerm(sub, lambda v, shape=shape, a=a: shape(v, a),
                                   coef=float(rng.choice([-1.5, 0.25, 3.0]))))
    terms.insert(int(rng.integers(0, len(terms) + 1)),
                 NonlinearTerm((fixed,), lambda v: float(np.cos(v[0])), coef=0.5))
    linear = {j: float(rng.uniform(-1.0, 1.0)) for j in range(n) if rng.random() < 0.6}
    sense = "max" if rng.random() < 0.5 else "min"
    spec = ProblemSpec(variables, linear, float(rng.uniform(-1.0, 1.0)), [], terms, sense=sense)
    return spec, int(rng.integers(2, 6 if max(sizes) < 3 else 4))  # keeps each MILP small


def _scalar_vertex_optimum(spec: ProblemSpec, pieces: int) -> tuple[list[float], float]:
    """The vertex shortcut's point and surrogate on the declared bounds, by
    the scalar rule: per block, the terms of one ``group_leads`` group,
    walk the grid vertices of its leading term's active variables
    row-major, call each member term on its variables of the full point and
    keep the first vertex of least key ``sign * (s + sum(c * x))``, ``s``
    the members' ``coef * v`` summed in source order, over its active
    variables; every other variable at the bound its cost favours (the
    nearest zero if 0).  The surrogate adds each term's value at its
    block's vertex, in source order (a block without an active variable
    has its one point)."""
    sign = 1.0 if spec.sense == "min" else -1.0
    lin, bounds, terms = spec.linear_objective, spec.bounds(), spec.nonlinear_terms
    z = []
    for j, iv in enumerate(bounds):
        c = sign * lin.get(j, 0.0)
        z.append(iv.lo if c > 0.0 or (c == 0.0 and abs(iv.lo) <= abs(iv.hi)) else iv.hi)
    leads = group_leads([term.var_ids for term in terms])
    term_values = [0.0] * len(terms)
    for g in dict.fromkeys(leads):
        members = [t for t, lead in enumerate(leads) if lead == g]
        ids = terms[g].var_ids
        active = [k for k in ids if bounds[k].width > 0.0]
        axes = [loop.axis_breakpoints(bounds[k], pieces, spec.variables[k][2]) for k in active]
        candidates = []
        for coords in itertools.product(*axes):
            full = dict(zip(ids, (bounds[k].lo for k in ids)))
            full.update(zip(active, coords))
            values = [terms[t].coef * float(terms[t].fn(
                np.array([full[k] for k in terms[t].var_ids], dtype=float))) for t in members]
            candidates.append((coords, values))
        costs = [lin.get(k, 0.0) for k in active]

        def key(cv):
            total = cv[1][0]
            for v in cv[1][1:]:
                total = total + v
            return sign * (total + sum(c * x for c, x in zip(costs, cv[0])))

        coords, values = min(candidates, key=key)
        for k, x in zip(active, coords):
            z[k] = float(x)
        for t, v in zip(members, values):
            term_values[t] = v
    return z, sum(term_values, spec.objective_constant + sum(c * z[j] for j, c in lin.items()))


def check_vertex_optimum(n_specs: int = 60) -> str:
    """The vertex shortcut against two references on row-free specs.

    On each spec of ``_row_free_spec``, the shortcut's first iteration must
    give the same point and a bit-identical surrogate as
    ``_scalar_vertex_optimum``, match ``solve_milp`` on the model the MILP
    path builds within the MILP's gap, and return a grid vertex.  Every
    iteration of a short run must report as its objective the exact
    objective at its incumbent, bit for bit, and no row violation.
    """
    rng = np.random.default_rng(1357)
    rel_gap = milp._REL_GAP
    n_max = 0
    # and exact ties, where the first best vertex row-major wins: x = -1
    # (not 1) for -x^2, and (y, w) = (-1, 1) (not (1, -1)) for y*w
    ties = ProblemSpec([(v, Interval(-1.0, 1.0), False) for v in "xyw"], {}, 0.0, [],
                       [NonlinearTerm((0,), lambda v: float(v[0] ** 2), coef=-1.0),
                        NonlinearTerm((1, 2), lambda v: float(v[0] * v[1]))])
    assert _scalar_vertex_optimum(ties, 2)[0] == [-1.0, -1.0, 1.0]
    # and a near-tie that the order of the linear sum decides: at (1, 1, 1)
    # it is 0.1 + 0.2 + 0.3 = 0.6000000000000001 summed left to right, above
    # the origin's 0.6, but 0.6 summed right to left, a tie the origin wins
    near = ProblemSpec([(v, Interval(0.0, 1.0), False) for v in "xyw"],
                       {0: 0.1, 1: 0.2, 2: 0.3}, 0.0, [],
                       [NonlinearTerm((0, 1, 2), lambda v: 0.0 if v.any() else 0.6)], sense="max")
    assert _scalar_vertex_optimum(near, 1)[0] == [1.0, 1.0, 1.0]
    # and terms that nest in one block, one of them in another order
    nested = ProblemSpec([(v, Interval(-1.0, 1.0), False) for v in "xy"], {0: 0.25}, 0.0, [],
                         [NonlinearTerm((1,), lambda v: float(v[0] ** 2), coef=-0.5),
                          NonlinearTerm((0, 1), lambda v: float((v[0] - v[1] - 0.5) ** 2)),
                          NonlinearTerm((1, 0), lambda v: float(v[0] * v[1] ** 3))])
    specs = [_row_free_spec(rng) for _ in range(n_specs)] + [(ties, 2), (near, 1), (nested, 3)]
    for spec, pieces in specs:
        terms, sense = spec.nonlinear_terms, spec.sense
        n_max += sense == "max"
        trace = loop.run(spec, loop.SppaConfig(pieces, pieces, 0.5, max_iters=4)).trace
        for rec in trace:
            want = float(spec.objective_value(rec.incumbent)).hex()
            assert float(rec.objective).hex() == want, (rec.iteration, rec.objective, want)
            assert rec.row_violation == 0.0, rec.row_violation
        rec = trace[0]
        ref = milp.solve_milp(loop.build_iteration_model(spec, spec.bounds(), pieces))
        assert ref.status == "optimal", ref.status
        assert rec.milp_stats["nodes"] == 0, "row-free spec went through branch and bound"
        point, surrogate = _scalar_vertex_optimum(spec, pieces)
        assert rec.incumbent.tolist() == point, (rec.incumbent.tolist(), point)
        assert rec.surrogate_objective == surrogate, (rec.surrogate_objective, surrogate)
        sgn = 1.0 if sense == "min" else -1.0
        got, want = rec.surrogate_objective, ref.objective
        assert sgn * (got - want) <= 1e-9 * (1.0 + abs(want)), f"shortcut {got} worse than {want}"
        assert sgn * (want - got) <= rel_gap * max(1.0, abs(want)), (
            f"milp {want} outside its gap of the shortcut {got}")
        in_terms = {k for t in terms for k in t.var_ids}
        for j, (_, iv, integer) in enumerate(spec.variables):
            x = rec.incumbent[j]
            assert iv.lo <= x <= iv.hi, "incumbent outside the bounds"
            assert not integer or x == round(x), "integer variable not integral"
            if j in in_terms:
                assert x in loop.axis_breakpoints(iv, pieces, integer), "not a grid vertex"
            else:  # at a bound, the one the simplex picks
                assert x == ref.x[j], f"variable {j} at {x}, the milp's at {ref.x[j]}"

    # ties between signed zeros and, under max, between equal values of a
    # term with no linear part: the first best vertex row-major wins, with
    # the bits of the scalar rule in the point and the surrogate
    def zeros(first: float, last: float, sense: str) -> ProblemSpec:
        # x = -1 and x = 1 tie at first and last; x = 0 is worse either way
        worse = 1.0 if sense == "min" else -1.0
        return ProblemSpec([("x", Interval(-1.0, 1.0), False)], {}, 0.0, [],
                           [NonlinearTerm((0,), lambda v: first if v[0] < -0.5
                                          else worse if v[0] < 0.5 else last)], sense=sense)

    line = [Interval(-1.0, 1.0), False]
    tied = [(zeros(a, b, sense), 2, [-1.0])
            for a, b in ((0.0, -0.0), (-0.0, 0.0)) for sense in ("min", "max")]
    square = NonlinearTerm((0,), lambda v: float(v[0] ** 2))
    product = NonlinearTerm((0, 1), lambda v: float(v[0] * v[1]))
    tied += [(ProblemSpec([("x", *line)], {}, 0.0, [], [square], sense="max"), 2, [-1.0]),
             (ProblemSpec([("y", *line), ("w", *line)], {}, 0.0, [], [product], sense="max"),
              1, [-1.0, -1.0])]
    for spec, pieces, want in tied:
        rec = loop.run(spec, loop.SppaConfig(pieces, pieces, 0.5, max_iters=1)).trace[0]
        point, surrogate = _scalar_vertex_optimum(spec, pieces)
        assert point == want and rec.milp_stats["nodes"] == 0, (point, want)
        assert rec.incumbent.tobytes() == np.array(point).tobytes(), (rec.incumbent, point)
        assert float(rec.surrogate_objective).hex() == float(surrogate).hex(), (
            rec.surrogate_objective, surrogate)

    # blocks sharing a variable, which nest in no one block, still go
    # through the MILP
    shared = ProblemSpec(
        [(v, Interval(-1.0, 1.0), False) for v in "xyw"], {}, 0.0, [],
        [NonlinearTerm((0, 1), lambda v: float(v[0] * v[1])),
         NonlinearTerm((1, 2), lambda v: float((v[0] - v[1] - 0.5) ** 2))],
    )
    calls = []
    original = milp.solve_milp
    milp.solve_milp = lambda lp, deadline=None, start=None: (calls.append(lp)
                                                             or original(lp, deadline, start))
    try:
        rec = loop.run(shared, loop.SppaConfig(2, 2, 0.5, max_iters=1)).trace[0]
    finally:
        milp.solve_milp = original
    assert len(calls) == 1 and rec.milp_stats["nodes"] >= 1, "overlapping terms skipped the MILP"
    return f"vertex shortcut matches the milp ({n_specs} specs, {n_max} maximising)"


def _top_ranked(spec: ProblemSpec, trace) -> int:
    """The index of the record ``run`` reports, ranked here from scratch:
    points whose exact rows hold within ``milp.ROW_TOL * (1 + |rhs|)`` first,
    by objective, then the others by their largest scaled row violation;
    the later point wins a tie."""
    sgn = 1.0 if spec.sense == "min" else -1.0
    ranks = []
    for rec in trace:
        x = rec.incumbent
        worst = 0.0
        for i, row in enumerate(spec.linear_constraints):
            a = sum(c * x[j] for j, c in row.coeffs.items()) + sum(
                t.coef * t.fn(x[list(t.var_ids)]) for t in spec.nonlinear_terms if t.row == i)
            gap = {"<=": a - row.rhs, ">=": row.rhs - a}.get(row.sense, abs(a - row.rhs))
            worst = max(worst, gap / (1.0 + abs(row.rhs)))
        assert abs(rec.row_violation - worst) <= 1e-12, (rec.row_violation, worst)
        ranks.append((0, sgn * rec.objective) if worst <= milp.ROW_TOL else (1, worst))
    return max(range(len(ranks)), key=lambda k: (tuple(-v for v in ranks[k]), k))


def check_best_point(n_row_free: int = 40, n_with_rows: int = 20) -> str:
    """Windows follow the best point; the reported point is the top-ranked one.

    On row-free specs (``_row_free_spec``) every point is feasible: each
    window from iteration 1 on contains the best point of the iterations
    before it, and ``best_objective`` is the best objective of the trace.
    On specs with a nonlinear row, which the surrogate can satisfy where
    the exact row does not hold, the reported point is ``_top_ranked``.
    """
    rng = np.random.default_rng(8642)
    for _ in range(n_row_free):
        spec, pieces = _row_free_spec(rng)
        result = loop.run(spec, loop.SppaConfig(pieces, 3, 0.5, max_iters=8))
        sgn = 1.0 if spec.sense == "min" else -1.0
        best = None
        for rec in result.trace:
            assert rec.row_violation == 0.0
            if best is not None:
                for j, (name, _, _) in enumerate(spec.variables):
                    iv = rec.bounds[name]
                    assert iv.lo <= best.incumbent[j] <= iv.hi, "best point outside the window"
            if best is None or sgn * rec.objective <= sgn * best.objective:
                best = rec
        assert result.best_objective == best.objective
        assert result.best_objective == sgn * min(sgn * rec.objective for rec in result.trace)
        np.testing.assert_array_equal(result.best_point, best.incumbent)

    # on a flat minimum, iterates of equal objective move: the later one wins
    flat = ProblemSpec([("x", Interval(-1.0, 3.0), False)], {}, 0.0, [],
                       [NonlinearTerm((0,), lambda v: max(0.0, abs(float(v[0])) - 0.5) ** 2)])
    result = loop.run(flat, loop.SppaConfig(3, 3, 0.5, max_iters=8))
    zeros = [rec.incumbent for rec in result.trace if rec.objective == 0.0]
    assert len({float(x[0]) for x in zeros}) > 1, "no tie between distinct points"
    np.testing.assert_array_equal(result.best_point, zeros[-1])

    infeasible = not_best_objective = 0
    for _ in range(n_with_rows):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(-2.0, -0.5, size=d)
        hi = rng.uniform(0.5, 2.0, size=d)
        a, b = rng.uniform(-0.3, 0.3, size=d), rng.uniform(-0.5, 0.5, size=d)
        sense = ">=" if rng.random() < 0.7 else "<="
        radius = float(rng.uniform(0.3, 1.0))
        rows = [milp.LinearConstraint({0: float(rng.uniform(-0.2, 0.2))}, sense, radius)]
        terms = [NonlinearTerm(tuple(range(d)), lambda v, b=b: float(np.sum((v - b) ** 2))),
                 NonlinearTerm(tuple(range(d)), lambda v, a=a: float(np.sum((v - a) ** 2)),
                               row=0)]
        spec = ProblemSpec([(f"x{k}", Interval(float(lo[k]), float(hi[k])), False)
                            for k in range(d)], {}, 0.0, rows, terms,
                           sense="min" if rng.random() < 0.8 else "max")
        result = loop.run(spec, loop.SppaConfig(int(rng.integers(2, 4)), 2, 0.5, max_iters=8))
        if not result.trace:
            continue
        top = result.trace[_top_ranked(spec, result.trace)]
        np.testing.assert_array_equal(result.best_point, top.incumbent)
        assert result.best_objective == top.objective
        infeasible += any(rec.row_violation > milp.ROW_TOL for rec in result.trace)
        not_best_objective += any(rec.objective != top.objective and (
            (rec.objective < top.objective) == (spec.sense == "min")) for rec in result.trace)
    assert infeasible and not_best_objective, "no run put feasibility before the objective"
    return (f"best-point windows and ranking ok ({n_row_free} row-free specs, "
            f"{n_with_rows} with rows: {infeasible} with an infeasible point, "
            f"{not_best_objective} reporting a point of worse objective)")


def check_separable_interpolant(n_sums: int = 60, n_points: int = 25) -> str:
    """On the simplicial grid, a sum of summands interpolates to the sum of
    the summands' own interpolants: ``eval_pwl`` of the sum on the joint
    grid equals the sum of each summand's ``eval_pwl`` on its own axes.  So
    terms on nested variable sets can share one lambda block.  The sums
    cycle through disjoint supports that partition the variables, nested
    ones (each a subset of the one before) and overlapping ones (each
    support two neighbours in a random order, as in a chained sum)."""
    rng = np.random.default_rng(20261018)
    for i in range(n_sums):
        kind = ("disjoint", "nested", "overlapping")[i % 3]
        d = int(rng.integers(3 if kind == "overlapping" else 2, 5))
        order = [int(k) for k in rng.permutation(d)]
        if kind == "disjoint":
            cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=rng.integers(1, d),
                                                      replace=False))
            blocks = np.split(order, cuts)
        elif kind == "nested":
            blocks = [order[:int(n)] for n in sorted(rng.integers(1, d + 1, size=3))[::-1]]
        else:
            blocks = [order[k:k + 2] for k in range(d - 1)]
        supports = [sorted(int(k) for k in block) for block in blocks]
        bounds = [(lo, lo + w) for lo, w in zip(rng.uniform(-3, 1, d), rng.uniform(0.5, 4, d))]
        grid = build_grid(bounds, [int(L) for L in rng.integers(1, 5, size=d)])
        summands = []
        for axes in supports:
            a, b = rng.normal(size=len(axes)), rng.normal(size=len(axes))
            summands.append((axes, lambda v, a=a, b=b: float(
                np.sin(a @ v) * np.exp(0.3 * (b @ v)) + np.prod(v) ** 2)))
        sub_grids = [Grid([grid.breakpoints[k] for k in axes]) for axes, _ in summands]

        def total(v):
            return sum(f(v[axes]) for axes, f in summands)

        lo, hi = lower(grid), upper(grid)
        for z in lo + rng.random((n_points, d)) * (hi - lo):
            want = sum(eval_pwl(g, f, z[axes]) for g, (axes, f) in zip(sub_grids, summands))
            got = eval_pwl(grid, total, z)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (kind, supports, z, got, want)
    return (f"separable interpolant ok ({n_sums} sums on disjoint, nested and overlapping "
            f"supports, {n_points} points each)")


_TREE_NUMS = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e3)
_TREE_EXPONENTS = (0.0, 0.5, 1.5, 2.0, 3.0, -1.0)
_TREE_KINDS = ("neg", "add", "sub", "mul", "div", "pow", "sin", "cos", "exp", "sqrt", "abs")


def _random_tree(rng: np.random.Generator, names: Sequence[str], depth: int) -> expr.Node:
    """A random expression over ``names`` of at most ``depth`` levels, with
    every node kind."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.7:
            return expr.Var(str(rng.choice(names)))
        return expr.Num(float(rng.choice(_TREE_NUMS)))
    kind = str(rng.choice(_TREE_KINDS))
    sub = _random_tree(rng, names, depth - 1)
    if kind == "neg":
        return expr.Neg(sub)
    if kind in ("sin", "cos", "exp", "sqrt", "abs"):
        return expr.Call(kind, sub)
    if kind == "pow":
        exponent = (expr.Num(float(rng.choice(_TREE_EXPONENTS))) if rng.random() < 0.7
                    else _random_tree(rng, names, depth - 1))
        return expr.BinOp("^", sub, exponent)
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return expr.BinOp(op, sub, _random_tree(rng, names, depth - 1))


def _compare_row_pass(nodes: list[expr.Node], names: tuple[str, ...], points: np.ndarray,
                      coef: float) -> str:
    """Check the row pass of ``nodes`` against their scalar evaluation on
    every row of ``points``, and a term of them with coefficient ``coef``
    evaluated on ``points`` (``NonlinearTerm.on``) with and without the
    row pass against its ``at`` on each row; return how the row pass
    ended: ``clean``, ``non-finite`` (some rows' sums) or ``raised`` (a
    zero divisor or a ``math`` error, or a constant part that fails, which
    fails the term's build)."""
    try:
        fn, compiled = _term_fn(nodes, names)
    except expr.DomainError:  # a constant part fails: so must every point's scalar evaluation
        for row in points.tolist():
            env = dict(zip(names, row))
            try:
                [expr.eval_expr(node, env) for node in nodes]
            except expr.DomainError:
                continue
            raise AssertionError(([expr.to_text(node) for node in nodes], row))
        return "raised"
    unit = NonlinearTerm(tuple(range(len(names))), fn, label="t", rows_fn=compiled)
    term = replace(unit, coef=coef)
    rows = points.tolist()

    def outcome(evaluate, *args):  # the value, or the error message
        try:
            return evaluate(*args)
        except ValueError as exc:
            return str(exc)

    scalar = [outcome(unit.at, row, "grid vertex") for row in points]
    text = " + ".join(expr.to_text(node) for node in nodes)
    # the term at each row, then on all rows with the row pass and without it
    expected = [outcome(term.at, row, "grid vertex") for row in points]
    failed = [v for v in expected if isinstance(v, str)]
    for got in (outcome(term.on, rows), outcome(replace(term, rows_fn=None).on, rows)):
        if failed:
            assert got == failed[0], (text, coef, got, failed[0])
        else:
            assert isinstance(got, list) and got == expected and (
                np.array_equal(np.signbit(got), np.signbit(expected))), (text, coef, got, expected)

    try:
        values = compiled(rows)
    except (ValueError, ArithmeticError):  # fails only where some row's scalar evaluation does
        assert any(isinstance(v, str) for v in scalar), text
        return "raised"
    # a row's sum is non-finite exactly where the scalar evaluation raises,
    # and otherwise has its bits, sign of zero included
    for i, want in enumerate(scalar):
        got = values[i]
        assert type(got) is float and math.isfinite(got) != isinstance(want, str), (
            text, rows[i], want, got)
        if math.isfinite(got):
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
                text, rows[i], got, want)
    return "clean" if all(map(math.isfinite, values)) else "non-finite"


def check_row_evaluator(n_sums: int = 250, n_points: int = 24) -> str:
    """The row pass of an expression term (``expr.compile_sum``) against
    its scalar evaluation (``expr.eval_expr`` per summand, summed from 0).

    Random sums of random trees with every node kind, on points from a
    half-integer lattice (exact zero divisors and square roots of exact
    zeros) and from a wide normal (overflow), plus fixed cases for a zero
    divisor, a negative square root argument, a negative base with a
    fractional exponent, an overflowing ``exp`` and ``^``, an overflowing
    product and finite values whose sum overflows.  The pass raises only
    where some row's scalar evaluation raises; otherwise each row's sum has
    the scalar value's bits, sign of zero included, or is non-finite
    exactly where the scalar evaluation raises.  A term of the sum with a
    drawn coefficient gives from ``NonlinearTerm.on``, with and without the
    row pass, the bits of its ``at`` on each row or the first failing row's
    message."""
    rng = np.random.default_rng(20261019)
    # a generator of their own keeps the trees and points of the seed above
    coefs = iter(np.random.default_rng(7).choice([-2.5, 0.5, 1.0, 3.0],
                                                 size=2 * n_sums + 9).tolist())
    ends = {"clean": 0, "non-finite": 0, "raised": 0}
    for _ in range(n_sums):
        names = ("x", "y", "z")[:int(rng.integers(1, 4))]
        nodes = [_random_tree(rng, names, int(rng.integers(1, 5)))
                 for _ in range(int(rng.integers(1, 4)))]
        lattice = rng.integers(-4, 5, size=(n_points, len(names))) / 2.0
        wide = rng.normal(0.0, 300.0, size=(n_points, len(names)))
        for points in (lattice, wide):
            ends[_compare_row_pass(nodes, names, points, next(coefs))] += 1

    points = np.array([[1.0, 2.0], [0.5, 0.5], [2.0, 1.0], [800.0, 3.0]])
    for text, end in (("1/(x - y)", "raised"), ("1/(x/0)", "raised"),
                      ("sqrt(x - y)^0", "raised"), ("(x - y)^0.5", "raised"),
                      ("0*exp(x)", "raised"), ("x^(100*y)", "raised"),
                      ("1e306*x*y", "non-finite"), ("x*y - y/4", "clean"),
                      ("1e308 + x*y", "clean")):  # finite values, an overflowing sum
        got = _compare_row_pass([expr.parse_expr(text, ["x", "y"])], ("x", "y"), points,
                                next(coefs))
        assert got == end, (text, got, end)
    assert ends["clean"] and ends["raised"], ends
    return (f"row evaluator ok ({n_sums} sums, 2 x {n_points} points: "
            f"{ends['clean']} clean, {ends['non-finite']} non-finite, {ends['raised']} raised)")


def check_parser(n_fixtures_expected: int = 20) -> str:
    """Round-trip stability plus the hand-checked evaluation fixture table."""
    fixtures = [
        ("2+3*4", {}, 14.0),
        ("(2+3)*4", {}, 20.0),
        ("2^3^2", {}, 512.0),
        ("-2^2", {}, -4.0),
        ("2^-2", {}, 0.25),
        ("5-3-1", {}, 1.0),
        ("12/3/2", {}, 2.0),
        ("1/(2+2)", {}, 0.25),
        ("-(1+2)^2", {}, -9.0),
        ("sqrt(16)", {}, 4.0),
        ("abs(-3.5)", {}, 3.5),
        ("sin(0)", {}, 0.0),
        ("cos(0)", {}, 1.0),
        ("cos(pi)", {}, -1.0),
        ("exp(0)", {}, 1.0),
        ("exp(1)", {}, math.e),
        ("2*pi", {}, 2.0 * math.pi),
        ("x^2+y", {"x": 2.0, "y": 1.0}, 5.0),
        ("x*y - y/4", {"x": 1.5, "y": 2.0}, 2.5),
        ("10/4", {}, 2.5),
    ]
    assert len(fixtures) == n_fixtures_expected
    for text, env, want in fixtures:
        ast = expr.parse_expr(text, var_names=sorted(env))
        got = expr.eval_expr(ast, env)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), f"{text}: {got} != {want}"
        # round-trip: printing and re-parsing gives a structurally identical tree
        printed = expr.to_text(ast)
        again = expr.parse_expr(printed, var_names=sorted(env))
        assert again == ast, f"round-trip changed {text!r} -> {printed!r}"
    return f"parser fixtures and round-trip ok ({len(fixtures)} fixtures)"


ALL_CHECKS = (
    check_triangulation,
    check_lambda_equivalence,
    check_lattice_branch,
    check_lattice_oracle,
    check_model_refill,
    check_one_pass_build,
    check_grouped_model,
    check_split_terms,
    check_milp_oracle,
    check_warm_child,
    check_set_branch_warm,
    check_child_reuse,
    check_warm_root,
    check_crash_basis,
    check_sppa_invariants,
    check_vertex_optimum,
    check_best_point,
    check_separable_interpolant,
    check_row_evaluator,
    check_parser,
)
