import itertools

import numpy as np
import pytest

from sppa.milp import BIG_BOUND, LpProblem, SolverConfig, solve_milp

from properties import check_milp_oracle


def knapsack(values, weights, cap):
    p = LpProblem()
    ids = [p.add_var(0, 1, integer=True) for _ in values]
    p.add_row({i: w for i, w in zip(ids, weights)}, "<=", cap)
    p.set_objective({i: v for i, v in zip(ids, values)}, sense="max")
    return p


def test_lp_tight_row():
    p = LpProblem()
    x = p.add_var(0, 1)
    y = p.add_var(0, 1)
    p.add_row({x: 1, y: 1}, "<=", 1)
    p.set_objective({x: 1, y: 1}, sense="max")
    res = solve_milp(p)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_lp_infeasible():
    p = LpProblem()
    x = p.add_var(0, 10)
    p.add_row({x: 1}, ">=", 2)
    p.add_row({x: 1}, "<=", 1)
    assert solve_milp(p).status == "infeasible"


def test_lp_unbounded_gets_capped_with_warning():
    p = LpProblem()
    x = p.add_var(0)  # no upper bound
    p.set_objective({x: -1})
    with pytest.warns(UserWarning):
        res = solve_milp(p)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-BIG_BOUND)


def test_lp_equality_and_negative_bounds():
    p = LpProblem()
    x = p.add_var(-5, 5)
    y = p.add_var(-5, 5)
    p.add_row({x: 1, y: 2}, "=", 3)
    p.set_objective({x: 1, y: -1})
    res = solve_milp(p)
    assert res.status == "optimal"
    # min x - y with x + 2y = 3: x = -5, y = 4
    assert res.objective == pytest.approx(-9.0)
    np.testing.assert_allclose(res.x, [-5.0, 4.0], atol=1e-7)


def test_lp_objective_constant_and_sense():
    p = LpProblem()
    x = p.add_var(0, 2)
    p.set_objective({x: 3}, constant=7.0, sense="max")
    res = solve_milp(p)
    assert res.objective == pytest.approx(13.0)


def test_integer_variable_needs_finite_bounds():
    p = LpProblem()
    with pytest.raises(ValueError):
        p.add_var(0, integer=True)


def test_empty_row_consistency():
    p = LpProblem()
    x = p.add_var(0, 1)
    p.add_row({x: 0.0}, "<=", -1.0)  # all-zero coefficients, impossible rhs
    p.set_objective({x: 1})
    assert solve_milp(p).status == "infeasible"
    q = LpProblem()
    x = q.add_var(0, 1)
    q.add_row({x: 0.0}, "<=", 1.0)  # trivially true, dropped
    q.set_objective({x: 1})
    assert solve_milp(q).status == "optimal"


def test_milp_integral_relaxation_no_branching():
    p = LpProblem()
    x = p.add_var(0, 3, integer=True)
    y = p.add_var(0, 3, integer=True)
    p.add_row({x: 1, y: 1}, "<=", 4)
    p.set_objective({x: -1, y: -2})
    res = solve_milp(p)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-7.0)  # y=3, x=1
    assert res.nodes == 1


def test_milp_knapsack_vs_enumeration():
    rng = np.random.default_rng(99)
    values = rng.integers(1, 20, size=12)
    weights = rng.integers(1, 15, size=12)
    cap = int(weights.sum() // 2)
    p = knapsack(values.astype(float), weights.astype(float), float(cap))
    res = solve_milp(p)
    bits = np.array(list(itertools.product([0, 1], repeat=12)))
    ok = bits @ weights <= cap
    best = (bits[ok] @ values).max()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(float(best), abs=1e-6)
    assert res.bound == pytest.approx(float(best), abs=1e-6)


def test_milp_infeasible():
    p = LpProblem()
    x = p.add_var(0, 1, integer=True)
    y = p.add_var(0, 1, integer=True)
    p.add_row({x: 1, y: 1}, ">=", 3)
    p.set_objective({x: 1, y: 1})
    assert solve_milp(p).status == "infeasible"


def test_milp_incumbent_feasibility_and_integrality():
    rng = np.random.default_rng(3)
    cfg = SolverConfig()
    for _ in range(20):
        n = int(rng.integers(2, 9))
        p = LpProblem()
        ids = [p.add_var(0, 1, integer=True) for _ in range(n)]
        for _ in range(int(rng.integers(1, 5))):
            coeffs = {j: float(rng.integers(-5, 6)) for j in ids}
            p.add_row(coeffs, "<=", float(rng.integers(0, 10)))
        p.set_objective({j: float(rng.integers(-5, 6)) for j in ids})
        res = solve_milp(p, cfg)
        if res.status != "optimal":
            continue
        for row in p.rows:
            assert row.violation(res.x) <= cfg.feas_tol * (1 + abs(row.rhs)) * 10
        assert np.all(np.abs(res.x - np.round(res.x)) <= cfg.int_tol)


def test_milp_node_limit_reports_bound():
    p = knapsack([5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0], 9.0)
    res = solve_milp(p, SolverConfig(node_limit=1))
    assert res.status in ("node_limit", "no_incumbent", "optimal")
    assert res.bound is not None


def test_milp_determinism():
    p = knapsack([5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0], 9.0)
    a = solve_milp(p)
    b = solve_milp(p)
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)


def test_config_rejects_nonpositive_time_limit():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            SolverConfig(time_limit=bad)
    assert SolverConfig(time_limit=1e-9).time_limit == 1e-9


def test_oracle_property_suite():
    print(check_milp_oracle())
