import numpy as np
import pytest

from sppa.mcmodel import encode_term
from sppa.milp import solve_milp

from properties import (LpProblem, add_term, build_grid, check_lambda_equivalence,
                        check_lattice_oracle, encode_objective_term, eval_pwl, grid_values,
                        hyperplane_coeffs, locate, lower, solve_relaxation, upper, vertex_index,
                        vertex_path)


def build(grid, f):
    model = LpProblem()
    lo, hi = lower(grid), upper(grid)
    z_ids = [model.add_var(lo[k], hi[k]) for k in range(grid.dims)]
    value = encode_objective_term(model, grid, z_ids, grid_values(grid, f))
    return model, z_ids, value


def test_cardinalities():
    # one continuous weight per grid vertex, (L+1)^d, and no integer column
    for bounds, pieces, n in (([(0.0, 2.0)], [2], 3), ([(0.0, 1.0)] * 2, [2, 2], 9),
                              ([(-1.0, 1.0)] * 3, [3, 1, 2], 4 * 2 * 3)):
        model, z_ids, value = build(build_grid(bounds, pieces), lambda v: 0.0)
        assert model.n_vars == len(z_ids) + n and len(value) == n
        assert not any(model.is_int)
        [(ids, shape)] = model.lattice_sets
        assert sorted(value) == ids.tolist() and shape == tuple(L + 1 for L in pieces)


def test_selection_rows_shape():
    # d linking rows relative to the grid's lower corner lo,
    # sum(w_v * (b_k[v_k] - lo_k)) - z_k = -lo_k, then the set's = 1 row
    g = build_grid([(1.0, 2.0), (-1.0, 3.0)], [2, 2])
    model, z_ids, value = build(g, lambda v: 0.0)
    [(ids, shape)] = model.lattice_sets
    assert model.senses == ("=",) * 3 and model.rhs.tolist() == [-1.0, 1.0, 1.0]
    for k in range(2):
        want = np.zeros(model.n_vars)
        want[z_ids[k]] = -1.0
        want[ids] = [g.breakpoints[k][i[k]] - g.breakpoints[k][0] for i in np.ndindex(*shape)]
        assert model.A[k].tolist() == want.tolist()
    assert model.A[2, ids].tolist() == [1.0] * len(ids) and not model.A[2, z_ids].any()
    # a corner at 0 leaves the right-hand side +0.0, as a fresh row's
    model, _, _ = build(build_grid([(0.0, 1.0)], [2]), lambda v: 0.0)
    assert not np.signbit(model.rhs).any()


def test_one_block_carries_the_objective_and_two_rows():
    # encode_term writes each target's values onto the same weights: the
    # objective (key None) and two rows; the linking rows' rhs is -lo
    g = build_grid([(2.0, 3.0), (-4.0, -1.0)], [1, 2])
    model = LpProblem()
    z_ids = [model.add_var(2.0, 3.0), model.add_var(-4.0, -1.0)]
    cols, rows = block = add_term(model, z_ids, (2, 3))
    r1, r2 = (model.add_row({z_ids[0]: 1.0}, "<=", 5.0) for _ in range(2))
    targets = {None: np.arange(6.0).reshape(2, 3), r1: np.full((2, 3), 2.0),
               r2: -np.arange(6.0).reshape(2, 3)}
    encode_term(model, block, g.points(), targets)
    assert model.c[cols].tolist() == list(range(6))
    assert model.A[r1, cols].tolist() == [2.0] * 6
    assert model.A[r2, cols].tolist() == [-float(k) for k in range(6)]
    assert model.rhs[rows].tolist() == [-2.0, 4.0]
    assert model.rhs[[r1, r2]].tolist() == [5.0, 5.0]  # encode_term leaves other rows' rhs
    assert model.A[rows, cols].tolist() == [[0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                                            [0.0, 1.5, 3.0, 0.0, 1.5, 3.0]]


def test_value_exact_at_every_vertex():
    # the term value is f(v) on each weight, and a weight at 1 pins z to its vertex
    g = build_grid([(-1.0, 2.0), (0.0, 3.0)], [3, 2])
    f = lambda v: float(np.sin(v[0]) * v[1] + v[0] ** 2)
    points = g.points()
    model, z_ids, value = build(g, f)
    [(ids, shape)] = model.lattice_sets
    index = vertex_index(shape).tolist()
    assert value == {j: f(points[tuple(i)]) for j, i in zip(ids.tolist(), index)}
    for j, i in zip(ids.tolist()[::4], index[::4]):
        m2, z2, v2 = build(g, f)
        m2.lb[j] = 1.0
        m2.set_objective(v2)
        res = solve_milp(m2)
        assert res.objective == pytest.approx(f(points[tuple(i)]), abs=1e-9)
        np.testing.assert_allclose(res.x[z2], points[tuple(i)], atol=1e-9)


def test_pinned_support_gives_the_simplex_plane():
    # with the weights off the simplex that locate finds bounded to 0, the
    # LP's value at a pinned point is that simplex's interpolating plane
    rng = np.random.default_rng(5)
    g = build_grid([(-2.0, 1.0), (0.0, 2.0), (1.0, 2.0)], [2, 3, 2])
    f = lambda v: float(np.cos(v[0] * v[1]) + v[2] ** 3 - v[0] * v[2])
    lo, hi = lower(g), upper(g)
    for _ in range(25):
        z0 = lo + rng.random(g.dims) * (hi - lo)
        model, z_ids, value = build(g, f)
        [(ids, shape)] = model.lattice_sets
        keep = set(vertex_path(locate(g, z0)))
        for j, i in zip(ids.tolist(), np.ndindex(*shape)):
            if tuple(i) not in keep:
                model.ub[j] = 0.0
        for k, zid in enumerate(z_ids):
            model.add_row({zid: 1.0}, "=", float(z0[k]))
        model.set_objective(value)
        res = solve_relaxation(model)
        assert res.status == "optimal"
        want = hyperplane_coeffs(g, locate(g, z0), f).value(z0)
        assert res.objective == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_term_value_affine_exact():
    g = build_grid([(-1.0, 2.0), (0.0, 3.0)], [2, 2])
    f = lambda v: float(2.0 * v[0] - 0.5 * v[1] + 1.25)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z0 = lower(g) + rng.random(2) * (upper(g) - lower(g))
        m2, z2, v2 = build(g, f)
        for k, zid in enumerate(z2):
            m2.add_row({zid: 1.0}, "=", float(z0[k]))
        m2.set_objective(v2)
        res = solve_milp(m2)
        assert res.objective == pytest.approx(f(z0), rel=1e-7, abs=1e-7)


def test_term_value_examples():
    # chord interpolation of z^2 on {0,1,2} at a pinned point
    g = build_grid([(0.0, 2.0)], [2])
    f = lambda v: float(v[0] ** 2)
    for z0, want in [(0.5, 0.5), (1.5, 2.5)]:
        model, z_ids, value = build(g, f)
        model.add_row({z_ids[0]: 1.0}, "=", z0)
        model.set_objective(value)
        res = solve_milp(model)
        assert res.objective == pytest.approx(want, abs=1e-7)
        assert res.objective == pytest.approx(eval_pwl(g, f, [z0]), abs=1e-7)

    g = build_grid([(0.0, 1.0), (0.0, 1.0)], [1, 1])
    f = lambda v: float(v[0] * v[1])
    model, z_ids, value = build(g, f)
    for zid in z_ids:
        model.add_row({zid: 1.0}, "=", 0.5)
    model.set_objective(value)
    # the relaxation mixes (0, 1) and (1, 0) at value 0; one simplex gives 0.5
    assert solve_relaxation(model).objective == pytest.approx(0.0, abs=1e-7)
    assert solve_milp(model).objective == pytest.approx(0.5, abs=1e-7)


def test_relaxation_soundness():
    # LP relaxation never exceeds the integer optimum on minimization
    rng = np.random.default_rng(17)
    g = build_grid([(-2.0, 2.0)], [3])
    f = lambda v: float(np.cos(2.0 * v[0]) + 0.3 * v[0] ** 2)
    for _ in range(10):
        z0 = float(rng.uniform(-2.0, 2.0))
        model, z_ids, value = build(g, f)
        model.add_row({z_ids[0]: 1.0}, "=", z0)
        model.set_objective(value)
        lp = solve_relaxation(model)
        ip = solve_milp(model)
        assert lp.objective <= ip.objective + 1e-9


def test_equivalence_property_suite():
    print(check_lambda_equivalence())


def test_lattice_oracle_property_suite():
    print(check_lattice_oracle())
