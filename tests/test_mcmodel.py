import numpy as np
import pytest

from sppa.mcmodel import encode_term
from sppa.milp import LpProblem, solve_milp

from properties import (build_grid, check_mc_equivalence, eval_pwl, lower,
                        solve_relaxation, upper)


def build(grid, f):
    model = LpProblem()
    lo, hi = lower(grid), upper(grid)
    z_ids = [model.add_var(lo[k], hi[k]) for k in range(grid.dims)]
    enc = encode_term(model, grid, z_ids, f)
    return model, z_ids, enc


def test_cardinalities():
    # one binary per simplex, one copy per simplex and variable
    g1 = build_grid([(0.0, 2.0)], [2])
    _, _, enc = build(g1, lambda v: 0.0)
    assert len(enc.selector_ids) == 2
    assert len(enc.copy_ids) == 2

    g2 = build_grid([(0.0, 1.0), (0.0, 1.0)], [2, 2])
    model, z_ids, enc = build(g2, lambda v: 0.0)
    assert len(enc.selector_ids) == 8   # d! * prod(L) = 2*4
    assert len(enc.copy_ids) == 16      # times d


def test_selection_rows_shape():
    g = build_grid([(0.0, 1.0), (0.0, 1.0)], [2, 2])
    model, z_ids, enc = build(g, lambda v: 0.0)
    # linking rows are the only rows that read a shared variable, and the
    # cardinality row the only one over every selector
    link = [r for r in model.rows if set(r.coeffs) & set(z_ids)]
    card = [r for r in model.rows if set(r.coeffs) == set(enc.selector_ids.values())]
    assert len(link) == 2 and len(card) == 1
    for k, row in enumerate(link):
        copies = [j for j in row.coeffs if j != z_ids[k]]
        assert len(copies) == 8
        assert row.coeffs[z_ids[k]] == -1.0
        assert row.sense == "=" and row.rhs == 0.0
    assert len(card[0].coeffs) == 8
    assert card[0].rhs == 1.0


def test_selection_links_shared_variable_when_selector_fixed():
    # with one selector pinned to 1 the linking row reduces to z = its copy
    g = build_grid([(0.0, 2.0)], [2])
    model, z_ids, enc = build(g, lambda v: float(v[0]))
    key = ((1,), (0,))  # cell [1,2]
    mu = enc.selector_ids[key]
    model.lb[mu] = model.ub[mu] = 1.0
    model.set_objective({z_ids[0]: 1.0}, sense="max")
    res = solve_relaxation(model)
    assert res.status == "optimal"
    assert res.x[z_ids[0]] == pytest.approx(res.x[enc.copy_ids[key, 0]], abs=1e-9)
    assert res.objective == pytest.approx(2.0)
    # the unselected simplex's copy collapses to zero
    other = ((0,), (0,))
    assert res.x[enc.copy_ids[other, 0]] == pytest.approx(0.0, abs=1e-9)


def test_chain_rows_reduce_to_simplex_unit_square():
    # selector at 1 restricts the copies to 0 <= z2 <= z1 <= 1
    g = build_grid([(0.0, 1.0), (0.0, 1.0)], [1, 1])
    model, z_ids, enc = build(g, lambda v: 0.0)
    key = ((0, 0), (0, 1))  # variable 0 steps first
    mu = enc.selector_ids[key]
    model.lb[mu] = model.ub[mu] = 1.0
    c0, c1 = enc.copy_ids[key, 0], enc.copy_ids[key, 1]
    for want, obj in [(1.0, {c0: 1.0}), (0.0, {c0: -1.0}), (1.0, {c1: 1.0})]:
        model.set_objective(obj, sense="max")
        res = solve_relaxation(model)
        assert res.status == "optimal"
        assert abs(res.objective) == pytest.approx(want, abs=1e-9)
    # z2 can never exceed z1 inside this simplex
    model.set_objective({c1: 1.0, c0: -1.0}, sense="max")
    res = solve_relaxation(model)
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_chain_rows_coefficients_rectangular_cell():
    # cell [1,2] x [3,5], variable 2 stepping first:
    # 3 mu <= c1 <= 5 mu  and  1 mu <= c0 <= 1 mu + (1/2) (c1 - 3 mu)
    g = build_grid([(0.0, 2.0), (1.0, 5.0)], [2, 2])
    model, z_ids, enc = build(g, lambda v: 0.0)
    key = ((1, 1), (1, 0))
    mu = enc.selector_ids[key]
    c0, c1 = enc.copy_ids[key, 0], enc.copy_ids[key, 1]
    rows = {}
    for r in model.rows:
        if mu in r.coeffs and set(r.coeffs) <= {mu, c0, c1} and len(r.coeffs) > 1:
            rows[(r.sense, frozenset(r.coeffs))] = r
    lo1 = rows[(">=", frozenset({c1, mu}))]
    assert lo1.coeffs == {c1: 1.0, mu: -3.0}
    hi1 = rows[("<=", frozenset({c1, mu}))]
    assert hi1.coeffs == {c1: 1.0, mu: -5.0}
    lo0 = rows[(">=", frozenset({c0, mu}))]
    assert lo0.coeffs == {c0: 1.0, mu: -1.0}
    hi0 = rows[("<=", frozenset({c0, c1, mu}))]
    assert hi0.coeffs == {c0: 1.0, c1: -0.5, mu: 0.5}


def test_unselected_simplex_copies_collapse():
    g = build_grid([(-1.0, 1.0), (0.0, 2.0)], [2, 1])
    model, z_ids, enc = build(g, lambda v: 0.0)
    key = next(iter(enc.selector_ids))
    mu = enc.selector_ids[key]
    model.lb[mu] = model.ub[mu] = 0.0  # selector forced off
    for k in range(2):
        model.set_objective({enc.copy_ids[key, k]: 1.0}, sense="max")
        assert abs(solve_relaxation(model).objective) <= 1e-9
        model.set_objective({enc.copy_ids[key, k]: 1.0}, sense="min")
        assert abs(solve_relaxation(model).objective) <= 1e-9


def test_term_value_affine_exact():
    g = build_grid([(-1.0, 2.0), (0.0, 3.0)], [2, 2])
    f = lambda v: float(2.0 * v[0] - 0.5 * v[1] + 1.25)
    model, z_ids, enc = build(g, f)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z0 = lower(g) + rng.random(2) * (upper(g) - lower(g))
        m2, z2, e2 = build(g, f)
        for k, zid in enumerate(z2):
            m2.add_row({zid: 1.0}, "=", float(z0[k]))
        m2.set_objective(e2.objective)
        res = solve_milp(m2)
        assert res.objective == pytest.approx(f(z0), rel=1e-7, abs=1e-7)


def test_term_value_examples():
    # chord interpolation of z^2 on {0,1,2} at a pinned point
    g = build_grid([(0.0, 2.0)], [2])
    f = lambda v: float(v[0] ** 2)
    for z0, want in [(0.5, 0.5), (1.5, 2.5)]:
        model, z_ids, enc = build(g, f)
        model.add_row({z_ids[0]: 1.0}, "=", z0)
        model.set_objective(enc.objective)
        res = solve_milp(model)
        assert res.objective == pytest.approx(want, abs=1e-7)
        assert res.objective == pytest.approx(eval_pwl(g, f, [z0]), abs=1e-7)

    g = build_grid([(0.0, 1.0), (0.0, 1.0)], [1, 1])
    f = lambda v: float(v[0] * v[1])
    model, z_ids, enc = build(g, f)
    for zid in z_ids:
        model.add_row({zid: 1.0}, "=", 0.5)
    model.set_objective(enc.objective)
    assert solve_milp(model).objective == pytest.approx(0.5, abs=1e-7)


def test_relaxation_soundness():
    # LP relaxation never exceeds the integer optimum on minimization
    rng = np.random.default_rng(17)
    g = build_grid([(-2.0, 2.0)], [3])
    f = lambda v: float(np.cos(2.0 * v[0]) + 0.3 * v[0] ** 2)
    for _ in range(10):
        z0 = float(rng.uniform(-2.0, 2.0))
        model, z_ids, enc = build(g, f)
        model.add_row({z_ids[0]: 1.0}, "=", z0)
        model.set_objective(enc.objective)
        lp = solve_relaxation(model)
        ip = solve_milp(model)
        assert lp.objective <= ip.objective + 1e-9


def test_evaluator_failure_reports_vertex():
    g = build_grid([(-1.0, 1.0)], [2])
    model = LpProblem()
    zid = model.add_var(-1.0, 1.0)
    with pytest.raises(ValueError) as exc:
        encode_term(model, g, [zid], lambda v: float("nan"), label="bad")
    assert "bad" in str(exc.value) and "vertex" in str(exc.value)


def test_equivalence_property_suite():
    print(check_mc_equivalence())
