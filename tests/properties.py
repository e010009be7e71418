"""Seeded property suites shared by the module tests and the acceptance gate.

Each check function is deterministic (fixed RNG seed), raises AssertionError
on failure, and returns a short human-readable summary string.

The geometric reference lives here too: locating a point's simplex and
evaluating the simplicial interpolant directly, with no MILP.  The solver
never uses it; the MC encoding is checked against it.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from sppa import expr, loop, milp, pwl
from sppa.mcmodel import encode_term
from sppa.problems import NonlinearTerm, ProblemSpec


# ---------------------------------------------------------------------------
# geometric reference: direct simplicial interpolation


@dataclass(frozen=True)
class Hyperplane:
    """Affine function ``z -> intercept + slopes @ z``."""

    intercept: float
    slopes: np.ndarray

    def value(self, z) -> float:
        return self.intercept + float(np.dot(self.slopes, np.asarray(z, dtype=float)))


def build_grid(bounds: Sequence, pieces: Sequence[int]) -> pwl.Grid:
    """Equally spaced grid over ``bounds`` with ``pieces[k]`` segments on axis k,
    built by the same breakpoint routine as the solve loop."""
    ivs = [b if isinstance(b, pwl.Interval) else pwl.Interval(*b) for b in bounds]
    return pwl.Grid([pwl.axis_breakpoints(iv, L) for iv, L in zip(ivs, pieces)])


def lower(grid: pwl.Grid) -> np.ndarray:
    return np.array([b[0] for b in grid.breakpoints])


def upper(grid: pwl.Grid) -> np.ndarray:
    return np.array([b[-1] for b in grid.breakpoints])


def cell_count(grid: pwl.Grid) -> int:
    return int(np.prod(grid.pieces))


def count_simplices(grid: pwl.Grid) -> int:
    """Total number of simplices: d! per cell times the number of cells."""
    return math.factorial(grid.dims) * cell_count(grid)


def _cell_and_fractions(grid: pwl.Grid, z: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
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


def locate(grid: pwl.Grid, z) -> pwl.SimplexId:
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
    return pwl.SimplexId(cell, perm)


def simplex_vertices(grid: pwl.Grid, sid: pwl.SimplexId) -> np.ndarray:
    """Coordinates of the d+1 simplex vertices, one row per vertex."""
    return np.array([grid.vertex(v) for v in pwl.vertex_path(sid, grid.dims)])


def hyperplane_coeffs(grid: pwl.Grid, sid: pwl.SimplexId,
                      f: Callable[[np.ndarray], float]) -> Hyperplane:
    """Affine interpolant of ``f`` on the simplex.

    Each slope is the divided difference of ``f`` between the two
    consecutive path vertices that differ in that coordinate; the
    intercept anchors the plane at the origin vertex.  This plane passes
    through all d+1 vertices (telescoping along the path).
    """
    path = pwl.vertex_path(sid, grid.dims)
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


def eval_pwl(grid: pwl.Grid, f: Callable[[np.ndarray], float], z) -> float:
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


def containing_simplices(grid: pwl.Grid, z: np.ndarray, tol: float = 1e-12):
    """All simplices whose closed region contains z (brute-force enumeration)."""
    out = []
    for sid in pwl.enumerate_simplices(grid):
        w = barycentric(simplex_vertices(grid, sid), z)
        if w.min() >= -tol:
            out.append(sid)
    return out


def solve_relaxation(problem: milp.LpProblem) -> milp.MilpResult:
    """LP relaxation: ``solve_milp`` on a copy with every variable continuous,
    which is one simplex solve at the root."""
    relaxed = copy.copy(problem)
    relaxed.is_int = [False] * problem.n_vars
    return milp.solve_milp(relaxed)


# ---------------------------------------------------------------------------
# property suites


def check_triangulation(n_points: int = 1000) -> str:
    """Coverage, count, vertex exactness, continuity, affine exactness."""
    rng = np.random.default_rng(20260810)

    grids = [
        build_grid([pwl.Interval(0.0, 1.0)], [5]),
        build_grid([pwl.Interval(-1.0, 2.0), pwl.Interval(0.0, 4.0)], [3, 2]),
        build_grid([pwl.Interval(-2.0, 2.0)] * 3, [2, 2, 2]),
    ]
    funcs = [
        lambda v: float(np.sum(v**2)),
        lambda v: float(np.prod(np.cos(v)) + 0.25 * np.sum(v)),
        lambda v: float(np.sum(np.abs(v) ** 1.5)),
    ]

    # count: enumeration yields exactly d! * prod(L) distinct ids
    for grid in grids:
        ids = list(pwl.enumerate_simplices(grid))
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
        for vidx in grid.vertex_indices():
            v = grid.vertex(vidx)
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


def check_mc_equivalence(n_points: int = 200) -> str:
    """MILP value of an encoded term at a pinned point == direct interpolation."""
    rng = np.random.default_rng(31337)
    cases = [
        (build_grid([pwl.Interval(-1.0, 3.0)], [3]), lambda v: float(v[0] ** 2)),
        (
            build_grid([pwl.Interval(0.0, 1.0), pwl.Interval(0.0, 1.0)], [2, 2]),
            lambda v: float(v[0] * v[1]),
        ),
        (
            build_grid([pwl.Interval(-2.0, 2.0), pwl.Interval(-1.0, 1.0)], [2, 2]),
            lambda v: float(np.sin(v[0]) + v[1] ** 3),
        ),
    ]
    checked = 0
    per_case = -(-n_points // len(cases))  # ceil: at least n_points total
    for grid, f in cases:
        lo, hi = lower(grid), upper(grid)
        for _ in range(per_case):
            z0 = lo + rng.random(grid.dims) * (hi - lo)
            prob = milp.LpProblem()
            z_ids = [prob.add_var(lo[k], hi[k]) for k in range(grid.dims)]
            enc = encode_term(prob, grid, z_ids, f, label="t")
            for k, zid in enumerate(z_ids):
                prob.add_row({zid: 1.0}, "=", float(z0[k]))
            prob.set_objective(enc.objective)
            res = milp.solve_milp(prob)
            assert res.status == "optimal", f"MILP not optimal at {z0}: {res.status}"
            want = eval_pwl(grid, f, z0)
            assert abs(res.objective - want) <= 1e-7 * (1.0 + abs(want)), (
                f"MILP {res.objective} != pwl {want} at {z0}"
            )
            # exactly one selector active, all other copies at zero
            mu_vals = np.array([res.x[i] for i in enc.selector_ids.values()])
            assert np.sum(np.abs(mu_vals - 1.0) <= 1e-6) == 1
            assert np.sum(mu_vals >= 1e-6) == 1
            chosen = {
                key for key, i in enc.selector_ids.items() if res.x[i] > 0.5
            }
            for (key, k), i in enc.copy_ids.items():
                if key not in chosen:
                    assert abs(res.x[i]) <= 1e-6
            checked += 1
    return f"mc/geometric equivalence ok ({checked} pinned points)"


def check_milp_oracle(n_instances: int = 100) -> str:
    """Branch and bound matches exhaustive binary enumeration."""
    rng = np.random.default_rng(777)
    senses = np.array(["<=", "<=", ">=", ">=", "="])  # equalities kept rare
    n_done = 0
    n_infeasible = 0
    for _ in range(n_instances):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, 9))
        c = rng.integers(-9, 10, size=n).astype(float)
        A = rng.integers(-9, 10, size=(m, n)).astype(float)
        sn = senses[rng.integers(0, 5, size=m)]
        rhs = rng.integers(-12, 13, size=m).astype(float)

        prob = milp.LpProblem()
        ids = [prob.add_var(0.0, 1.0, integer=True) for _ in range(n)]
        for i in range(m):
            coeffs = {ids[j]: A[i, j] for j in range(n) if A[i, j] != 0.0}
            if not coeffs:
                continue
            prob.add_row(coeffs, str(sn[i]), float(rhs[i]))
        prob.set_objective({ids[j]: c[j] for j in range(n)})

        # oracle: enumerate all 2^n assignments
        bits = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
        ok = np.ones(len(bits), dtype=bool)
        for row in prob.rows:
            a = np.zeros(n)
            for j, coef in row.coeffs.items():
                a[j] = coef
            lhs = bits @ a
            if row.sense == "<=":
                ok &= lhs <= row.rhs + 1e-9
            elif row.sense == ">=":
                ok &= lhs >= row.rhs - 1e-9
            else:
                ok &= np.abs(lhs - row.rhs) <= 1e-9
        res = milp.solve_milp(prob)
        if not ok.any():
            assert res.status == "infeasible", f"expected infeasible, got {res.status}"
            n_infeasible += 1
        else:
            best = float(np.min(bits[ok] @ c))
            assert res.status == "optimal", f"expected optimal, got {res.status}"
            assert abs(res.objective - best) <= 1e-6, (
                f"bnb {res.objective} != brute force {best}"
            )
        n_done += 1
    return f"milp brute-force oracle ok ({n_done} instances, {n_infeasible} infeasible)"


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

        variables = [(f"x{k}", pwl.Interval(float(lo[k]), float(hi[k])), False) for k in range(d)]
        # one untouched linear-only variable to verify it is never contracted
        variables.append(("w", pwl.Interval(-1.0, 1.0), False))
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
            width_tol=1e-12,
        )
        result = loop.run(spec, cfg)
        assert result.trace, "empty trace"

        prev = None
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
                        prev.incumbent[k] - iv.width / 2.0 >= piv.lo - 1e-12
                        and prev.incumbent[k] + iv.width / 2.0 <= piv.hi + 1e-12
                    )
                    if interior:
                        assert abs(iv.width - cfg.contract_frac * piv.width) <= 1e-12 * (
                            1.0 + piv.width
                        )
                    # incumbent feeds the next window
                    assert iv.lo - 1e-9 <= prev.incumbent[k] <= iv.hi + 1e-9
            # the linear-only variable keeps bit-identical bounds
            assert rec.bounds["w"] == pwl.Interval(-1.0, 1.0)
            prev = rec
            checked_iters += 1
    return f"sppa contraction invariants ok ({n_problems} problems, {checked_iters} iterations)"


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
    check_mc_equivalence,
    check_milp_oracle,
    check_sppa_invariants,
    check_parser,
)
