import copy
import itertools
import math
import time
import types
import warnings

import numpy as np
import pytest

from sppa import loop, milp
from sppa.milp import solve_milp
from sppa.problems import Interval, from_expressions

from properties import (LpProblem, check_child_reuse, check_lattice_branch, check_milp_oracle,
                        check_set_branch_warm, check_warm_child, check_warm_root, filled_canon,
                        per_term_model)


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


def test_infinite_bounds_rejected():
    # every column must be boxed: the simplex bounds each slack by its row's
    # activity range over the variable box
    p = LpProblem()
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            p.add_var(lo, hi)
    assert p.n_vars == 0


@pytest.mark.parametrize("count", [0, -1, 2.0, True, "2", None])
def test_add_var_rejects_a_count_that_is_not_a_positive_integer(count):
    # -1 used to raise numpy's "negative dimensions", and 0 returned the id
    # of a column that was never added
    p = LpProblem()
    with pytest.raises(ValueError, match=f"^count must be an integer >= 1, got {count!r}$"):
        p.add_var(0.0, 1.0, count=count)
    assert p.n_vars == 0 and p.A.shape == (0, 0)
    assert p.add_var(0.0, 1.0, count=np.int64(2)) == 0 and p.n_vars == 2


def test_results_and_rows_are_plain_records():
    row = milp.LinearConstraint(coeffs={0: 2.0}, sense="<=", rhs=1.0)
    assert (row.coeffs, row.sense, row.rhs) == ({0: 2.0}, "<=", 1.0)
    assert row.activity(np.array([0.25])) == 0.5
    a, b = milp.MilpResult("optimal", None, 1.0, 1.0, 0.0), milp.MilpResult(
        status="infeasible", x=None, objective=None, bound=None, gap=math.inf)
    # each result counts from zero in a dict of its own
    assert a.counters == dict.fromkeys(milp.COUNTERS, 0) and a.counters is not b.counters
    a.counters["nodes"] += 3
    assert (a.nodes, b.nodes, b.status) == (3, 0, "infeasible")
    counters = {"nodes": 5}
    c = milp.MilpResult("optimal", None, 0.0, 0.0, 0.0, counters)
    assert c.counters is counters and c.nodes == 5


def test_rows_reject_unknown_senses_ids_and_non_finite_values():
    for coeffs, sense, rhs in (({0: 1.0}, "<", 1.0), ({0: 1.0}, "<=", math.inf),
                               ({0: math.nan}, "=", 1.0)):
        with pytest.raises(ValueError):
            milp.LinearConstraint(coeffs, sense, rhs)
    p = LpProblem()
    x = p.add_var(0, 1)
    for coeffs, sense, rhs in (({x: 1.0}, "==", 1.0), ({x: 1.0}, ">=", math.nan),
                               ({x: math.inf}, "<=", 1.0), ({x: 1.0, 1: 1.0}, "<=", 1.0)):
        with pytest.raises(ValueError):
            p.add_row(coeffs, sense, rhs)
    assert not p.senses and p.A.shape == (0, 1)


def test_row_violation_of_each_sense():
    # max(0, excess) / (1 + |rhs|): an = row misses on either side
    assert milp.row_violation([0.5], ["="], [-1.5]) == 0.8
    assert milp.row_violation([-3.5], ["="], [-1.5]) == 0.8
    assert milp.row_violation([3.0, 1.0, 0.5], ["<=", ">=", "="], [2.0, 2.0, -1.5]) == 0.8
    assert milp.row_violation([3.0, 1.0], ["<=", ">="], [2.0, 2.0]) == 1.0 / 3.0
    held = milp.row_violation([1.0, 3.0, -1.5], ["<=", ">=", "="], [2.0, 2.0, -1.5])
    assert held == 0.0 and math.copysign(1.0, held) == 1.0
    assert milp.row_violation([], [], []) == 0.0
    assert milp.row_violation([0.0, 0.0], ["<=", "="], [-1e-7, 2e-6]) == 2e-6 / (1.0 + 2e-6)


def test_objective_rejects_unknown_ids_and_non_finite_coefficients():
    # id 2 is no variable here; in the canonical form it would be row 0's slack
    p = LpProblem()
    x, y = p.add_var(0, 1), p.add_var(0, 1)
    p.add_row({x: 1.0, y: 2.0}, "<=", 2.0)
    for bad in ({x: -1.0, 2: 5.0}, {7: 1.0}, {-1: 1.0}, {x: math.nan}, {y: math.inf}):
        with pytest.raises(ValueError):
            p.set_objective(bad)
    with pytest.raises(ValueError):
        p.set_objective({x: 1.0}, constant=math.nan)
    with pytest.raises(ValueError):
        p.set_objective({x: 1.0}, sense="maximize")
    assert not p.c.any()  # a rejected objective leaves the old one
    p.set_objective({x: -1.0})
    res = solve_milp(p)
    assert res.status == "optimal" and res.x.tolist() == [1.0, 0.0]


def test_row_free_lp():
    # no rows: each variable sits at the bound its cost favours, and a
    # zero-cost variable at the bound nearest zero (lower on a tie)
    p = LpProblem()
    ids = [p.add_var(-2, 3), p.add_var(-2, 3), p.add_var(-3, 1), p.add_var(-1, 1)]
    p.set_objective({ids[0]: 1.0, ids[1]: -2.0}, constant=0.5)
    res = solve_milp(p)
    assert res.status == "optimal"
    assert res.x.tolist() == [-2.0, 3.0, 1.0, -1.0]
    assert res.objective == -2.0 - 6.0 + 0.5
    assert res.counters["pivots"] == 0


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
        p.add_var(0, math.inf, integer=True)


def test_empty_row_consistency():
    p = LpProblem()
    x = p.add_var(0, 1)
    p.add_row({x: 0.0}, "<=", -1.0)  # all-zero coefficients, impossible rhs
    p.set_objective({x: 1})
    assert solve_milp(p).status == "infeasible"
    q = LpProblem()
    x = q.add_var(0, 1)
    q.add_row({x: 0.0}, "<=", 1.0)  # trivially true
    q.add_row({}, "<=", -0.9e-6)  # off by less than ROW_TOL * (1 + |rhs|): holds
    q.set_objective({x: 1})
    assert solve_milp(q).status == "optimal"
    q.add_row({}, "<=", -1.1e-6)  # off by more
    assert solve_milp(q).status == "infeasible"


def test_canonical_form_of_coefficient_free_rows_of_each_sense():
    # every row is kept in the model's order and sense: canonical row i is
    # model row i; a coefficient-free row's slack is fixed at its rhs and
    # the row is judged at 0, whatever its sense; each slack's own limits
    # follow its row's sense, and the slacks' columns are an identity
    inf = math.inf
    p = LpProblem()
    x, y = p.add_var(0, 1), p.add_var(-1, 2)
    p.add_row({x: 1.0}, ">=", 0.5)
    p.add_row({}, "<=", 1.0)
    p.add_row({x: 0.0, y: 0.0}, ">=", -1.0)
    p.add_row({y: 2.0}, "<=", 3.0)
    p.add_row({}, "=", 0.0)
    p.add_row({x: 1.0, y: -1.0}, "=", 0.25)
    canon = filled_canon(p)
    assert (canon.m, p.senses) == (6, (">=", "<=", ">=", "<=", "=", "="))
    assert canon.slack_lo.tolist() == [-inf, 0.0, -inf, 0.0, 0.0, 0.0]
    assert canon.slack_hi.tolist() == [0.0, inf, 0.0, inf, 0.0, 0.0]
    assert canon.slack_lo.dtype == canon.slack_hi.dtype == float
    assert canon.A.tobytes() == np.hstack([p.A, np.eye(6)]).tobytes()
    assert canon.b.tolist() == p.rhs.tolist() and not canon.infeasible
    free = [2 + i for i in (1, 2, 4)]  # the coefficient-free rows' slacks
    assert canon.l[free].tolist() == canon.u[free].tolist() == [1.0, -1.0, 0.0]
    # a coefficient-free row that fails at 0 makes the model infeasible,
    # for each sense, its slack still fixed at its rhs
    for row, rhs in ((1, -1.0), (2, 1.0), (4, 1e-3), (4, -1e-3)):
        q = copy.deepcopy(p)
        q.rhs[row] = rhs
        canon = filled_canon(q)
        assert canon.infeasible and canon.l[2 + row] == canon.u[2 + row] == rhs
        assert solve_milp(q).status == "infeasible"
    # a row that gains its first coefficient is refilled, not rebuilt
    assert solve_milp(p).status == "optimal"
    canon = p._canon
    p.A[1, y] = 1.0
    assert solve_milp(p).status == "optimal" and p._canon is canon
    assert (canon.l[3], canon.u[3]) == (0.0, 2.0)
    # a model without rows has an empty canonical row block
    q = LpProblem()
    q.add_var(0, 1, count=2)
    canon = filled_canon(q)
    assert (canon.m, q.senses, canon.infeasible) == (0, (), False)
    assert canon.slack_lo.shape == canon.slack_hi.shape == (0,)
    assert canon.slack_lo.dtype == canon.slack_hi.dtype == float
    assert canon.A.shape == (0, 2) and canon.l.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("name, index, value", [
    ("lb", 0, -math.inf), ("ub", 0, math.inf), ("A", (0, 1), math.nan), ("rhs", 0, math.inf),
    ("c", 1, math.nan)])
def test_a_non_finite_value_is_rejected_by_array_and_index(name, index, value):
    # the caller writes the arrays, so each solve checks them, on a fresh
    # model and on one refilled in place
    def model():
        p = milp.LpProblem(2, ["<="])
        p.ub[:], p.A[0], p.rhs[0], p.c[:] = 1.0, [1.0, 1.0], 1.5, [1.0, -1.0]
        return p

    refilled, fresh = model(), model()
    assert solve_milp(refilled).status == "optimal"
    want = f"^non-finite {name}\\[{str(index).strip('()')}\\]$"
    for p in (refilled, fresh):
        getattr(p, name)[index] = value
        with pytest.raises(ValueError, match=want):
            solve_milp(p)


def test_integer_bounds_rounded_inward():
    # x in [0.5, 3.5] is x in [1, 3]: no integer column sits nonbasic at a
    # fractional bound
    p = LpProblem()
    x = p.add_var(0.5, 3.5, integer=True)
    y = p.add_var(0.0, 0.25)
    p.add_row({x: 1, y: 1}, "<=", 10)
    p.set_objective({x: 1, y: 1}, sense="max")
    res = solve_milp(p)
    assert res.status == "optimal"
    assert res.x.tolist() == [3.0, 0.25]
    q = LpProblem()
    z = q.add_var(0.2, 0.8, integer=True)
    q.add_row({z: 1}, "<=", 1)
    q.set_objective({z: 1})
    assert solve_milp(q).status == "infeasible"


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
    for _ in range(20):
        n = int(rng.integers(2, 9))
        p = LpProblem()
        ids = [p.add_var(0, 1, integer=True) for _ in range(n)]
        for _ in range(int(rng.integers(1, 5))):
            coeffs = {j: float(rng.integers(-5, 6)) for j in ids}
            p.add_row(coeffs, "<=", float(rng.integers(0, 10)))
        p.set_objective({j: float(rng.integers(-5, 6)) for j in ids})
        res = solve_milp(p)
        if res.status != "optimal":
            continue
        assert (p.A @ res.x - p.rhs <= milp._FEAS_TOL * (1 + np.abs(p.rhs)) * 10).all()
        np.testing.assert_array_equal(res.x, np.round(res.x))


def test_milp_incumbent_integers_are_rounded():
    # n = 1 + x is integral within the integrality tolerance, so the LP
    # optimum is accepted; the incumbent reports n rounded, and the
    # objective at the rounded point, not 1.0000005 above the integer optimum
    p = LpProblem()
    n = p.add_var(0, 4, integer=True)
    x = p.add_var(0, 5e-7)
    p.add_row({n: 1.0, x: -1.0}, "<=", 1.0)
    p.set_objective({n: 1.0}, sense="max")
    res = solve_milp(p)
    assert res.status == "optimal"
    assert res.x[n] == 1.0 and res.objective == 1.0


def test_milp_time_limit_reports_bound(monkeypatch):
    # the clock passes the deadline as soon as the root node is solved: the
    # search stops with the root's children open and reports their bound,
    # which bounds the optimum from above (a maximisation)
    p = knapsack([5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0], 9.0)
    full = solve_milp(p)
    assert full.nodes > 1
    solved = []
    simplex = milp._simplex

    def counting(*args, **kwargs):
        res = simplex(*args, **kwargs)
        solved.append(res)
        return res

    monkeypatch.setattr(milp, "_simplex", counting)
    monkeypatch.setattr(milp.time, "perf_counter", lambda: 100.0 if solved else 0.0)
    res = solve_milp(p, deadline=10.0)
    assert res.status == "time_limit" and res.x is None
    assert res.nodes == 1
    assert res.bound is not None and res.bound >= full.objective - 1e-9


def test_milp_stop_inside_a_node_keeps_its_bound(monkeypatch):
    # the third simplex solve stops on the time limit: the node it was
    # solving stays open, so the reported bound still bounds the optimum
    # from above (a maximisation); dropping it reported 68.375
    p = knapsack([19, 1, 13, 6, 4, 13, 13, 15], [2, 8, 4, 1, 1, 1, 1, 6], 13)
    assert solve_milp(p).objective == pytest.approx(70.0)
    calls = []
    simplex = milp._simplex

    def stopping(*args, **kwargs):
        res = simplex(*args, **kwargs)
        calls.append(res)
        if len(calls) == 3:
            return milp._SxResult("time_limit", res.iterations, res.factorizations,
                                  start=res.start)
        return res

    monkeypatch.setattr(milp, "_simplex", stopping)
    res = solve_milp(p)
    assert len(calls) == 3
    assert res.status == "time_limit" and res.x is None
    assert res.bound >= 70.0 - 1e-9


def test_milp_determinism():
    # two identical fresh problems: the second solve of one problem starts
    # from the first's root basis, see the next test
    a, b = (solve_milp(knapsack([5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0],
                                9.0)) for _ in range(2))
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert a.counters == b.counters
    np.testing.assert_array_equal(a.x, b.x)


def test_a_re_solve_starts_from_the_last_root_basis():
    # a problem keeps its root's optimal basis: solved again unchanged, its
    # root takes no pivot and the search ends at the same point
    p = knapsack([5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0], 9.0)
    first = solve_milp(p)
    assert first.counters["root_pivots"] > 0 and p._start is not None
    again = solve_milp(p)
    assert again.counters["root_pivots"] == 0
    assert (again.status, again.objective) == (first.status, first.objective)
    assert again.x.tobytes() == first.x.tobytes()


def test_is_int_rewritten_between_solves_is_read():
    # the integer columns are read at every solve, as the other values are
    p = milp.LpProblem(1, [])
    p.ub[0], p.c[0], p.is_int[0] = 2.5, -1.0, True
    assert solve_milp(p).x.tolist() == [2.0]
    p.is_int[0] = False
    assert solve_milp(p).x.tolist() == [2.5]
    p.is_int[0] = True
    assert solve_milp(p).x.tolist() == [2.0]


def test_an_unknown_sense_is_rejected():
    # a sense other than 'min' or 'max' once maximised; it is rejected at
    # the first solve and at a later one alike
    p = milp.LpProblem(1, [])
    p.ub[0], p.c[0] = 1.0, 1.0
    p.sense = "minimize"
    with pytest.raises(ValueError, match="^sense must be 'min' or 'max'$"):
        solve_milp(p)
    p.sense = "min"
    assert solve_milp(p).x.tolist() == [0.0]
    p.sense = "minimize"
    with pytest.raises(ValueError, match="^sense must be 'min' or 'max'$"):
        solve_milp(p)


def test_passed_deadline_stops_before_the_root():
    p = knapsack([5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0], 9.0)
    res = solve_milp(p, deadline=time.perf_counter() - 1.0)
    assert res.status == "time_limit" and res.x is None
    assert res.nodes == 0 and res.bound is None


def test_simplex_stops_at_a_passed_deadline():
    # the simplex reads the clock every 16 pivots, from the first: given a
    # deadline already past it stops before any pivot, with no point
    p = LpProblem()
    x, y = p.add_var(0, 4), p.add_var(0, 4)
    p.add_row({x: 1, y: 2}, ">=", 2)
    p.add_row({x: 3, y: 1}, ">=", 3)
    p.set_objective({x: 1, y: 1})
    canon = filled_canon(p)
    res = milp._simplex(canon, canon.l, canon.u, deadline=time.perf_counter() - 1.0)
    assert res.status == "time_limit" and res.x is None and res.iterations == 0
    assert milp._simplex(canon, canon.l, canon.u).status == "optimal"


def test_rounded_incumbent_that_breaks_a_row_is_numerical():
    # the LP puts x at 2.9999995, integral within _INT_TOL; rounded to 3, the
    # incumbent breaks the row 1e8*x - 1e8*y = -50 by 50 / 51 > ROW_TOL, so
    # the solve says 'numerical' and still reports the rounded incumbent
    p = LpProblem()
    x = p.add_var(0, 10, integer=True)
    y = p.add_var(3, 3)
    p.add_row({x: 1e8, y: -1e8}, "=", -50)
    p.set_objective({x: 1})
    canon = filled_canon(p)
    assert 0.0 < 3.0 - milp._simplex(canon, canon.l, canon.u).x[0] <= milp._INT_TOL
    res = solve_milp(p)
    assert res.status == "numerical"
    assert res.x.tolist() == [3.0, 3.0] and res.objective == 3.0


@pytest.mark.parametrize("failing_calls, status", [({2}, "optimal"), ({2, 3}, "numerical")])
def test_singular_refactorization_restarts_from_the_slack_basis(monkeypatch, failing_calls,
                                                                status):
    # a warm-started LP solve factorizes its start and then every basis it
    # pivots to; when one is singular (in the 4/4 run of constrained (b),
    # iteration 21's root once reached one, cond 5.8e17) the solve starts
    # again from the slack basis and ends where a cold solve ends; a second
    # singular basis ends it as 'numerical'
    def lp(c):
        p = LpProblem()
        ids = [p.add_var(0, 1) for _ in range(4)]
        p.add_row(dict(zip(ids, [4.0, 3.0, 2.0, 5.0])), "<=", 7.0)
        p.add_row(dict(zip(ids, [1.0, 1.0, 1.0, 1.0])), "<=", 2.5)
        p.set_objective(dict(zip(ids, c)), sense="max")
        return p

    first = lp([5.0, 4.0, 3.0, 6.0])
    solve_milp(first)
    problem = lp([1.0, 4.0, 6.0, 2.0])
    cold = solve_milp(problem)
    calls = []
    basis_init = milp._Basis.__init__

    def failing(self, canon, basis):
        calls.append(len(calls) + 1)
        if calls[-1] in failing_calls:
            raise np.linalg.LinAlgError("Singular matrix")
        basis_init(self, canon, basis)

    monkeypatch.setattr(milp._Basis, "__init__", failing)
    problem._start = first._start
    warm = solve_milp(problem)
    assert len(calls) >= 3 and warm.status == status
    if status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)


def test_singular_start_restarts_from_the_slack_basis_without_a_warning():
    # _simplex enters the LAPACK error state once per call, in which the LU
    # solve of an exactly singular basis raises instead of warning: a start
    # on two parallel columns restarts from the slack basis and ends as the
    # cold solve, with one more factorization, and no warning escapes
    p = LpProblem()
    ids = [p.add_var(0, 1) for _ in range(3)]
    p.add_row(dict(zip(ids, [1.0, 2.0, 1.0])), "<=", 2.0)
    p.add_row(dict(zip(ids, [2.0, 4.0, 0.5])), "<=", 3.0)
    p.set_objective(dict(zip(ids, [1.0, 1.0, 2.0])), sense="max")
    canon = filled_canon(p)
    vstat = np.array([milp._BASIC, milp._BASIC, 0, 0, 0], dtype=np.int8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = milp._simplex(canon, canon.l, canon.u, milp._Start(np.array([0, 1]), vstat))
        cold = milp._simplex(canon, canon.l, canon.u)
        p._start = milp._Start(np.array([0, 1]), vstat)
        assert solve_milp(p).status == "optimal"
    assert (warm.status, warm.iterations, warm.factorizations, warm.objective) == (
        "optimal", cold.iterations, cold.factorizations + 1, cold.objective)
    assert warm.x.tobytes() == cold.x.tobytes()


@milp._lapack_errors
def test_basis_solves_are_np_linalg_solve_bit_for_bit():
    # _Basis calls the LAPACK gufunc behind np.linalg.solve directly: the
    # same bits on B and on B.T (a non-contiguous view) for random and
    # ill-conditioned bases of 1 to 60 rows, and LinAlgError on a singular
    # one under the error state _simplex enters, as this test does; a numpy
    # that moves or changes the gufunc fails here (or at import)
    rng = np.random.default_rng(5)
    n_ill = 0
    for m in list(range(1, 61)) * 3:
        A = rng.standard_normal((m, m + 4))
        if rng.random() < 0.4:  # singular values from 1 down to 1e-14
            u, _, vt = np.linalg.svd(rng.standard_normal((m, m)))
            A[:, :m] = (u * np.logspace(0, -14, m)) @ vt
            n_ill += m > 1
        basis = rng.permutation(m + 4)[:m]
        factors = milp._Basis(types.SimpleNamespace(A=A), basis)
        assert not factors.B.T.flags.c_contiguous or m == 1
        v = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4)
        for solve, B in ((factors.ftran, A[:, basis]), (factors.btran, A[:, basis].T)):
            got, want = solve(v), np.linalg.solve(B, v)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (m, solve)
    assert n_ill > 40
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [3.0, 1.0, 0.0]])
    for B in (singular, singular[:, [0, 1, 1]], np.zeros((1, 1))):
        factors = milp._Basis(types.SimpleNamespace(A=B), np.arange(len(B)))
        for solve in (factors.ftran, factors.btran):
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                solve(np.ones(len(B)))


def test_oracle_property_suite():
    print(check_milp_oracle())


def test_warm_child_property_suite():
    print(check_warm_child())


def test_set_branch_warm_property_suite():
    print(check_set_branch_warm())


def test_child_reuse_property_suite():
    print(check_child_reuse())


def test_lattice_set_declaration_adds_its_row():
    # a set is a whole grid, its ids the vertices in row-major order; the
    # model's constructor checks each set (see
    # test_lattice_sets_are_checked_when_the_model_is_made), the grown model
    # that its members lie in [0, 1]
    p = LpProblem()
    ids = [p.add_var(0, 1) for _ in range(4)]
    assert p.add_lattice_set(ids, (2, 2)) == 0
    assert p.A.tolist() == [[1.0] * 4] and p.senses == ("=",)
    assert p.rhs.tolist() == [1.0] and len(p.lattice_sets) == 1
    np.testing.assert_array_equal(p.lattice_sets[0][0], ids)
    assert p.lattice_sets[0][1] == (2, 2)
    wide = p.add_var(0, 2)
    below = p.add_var(-1, 1)
    binary = p.add_var(0, 1, integer=True)
    assert p.add_lattice_set([ids[0], binary], (2,)) == 1  # a binary weight is fine
    for bad_ids, bad_shape in (([ids[0], ids[0]], (2,)),  # duplicate ids
                               (ids, (3,)), (ids[:3], (2, 2)), ([], (0,)),  # count != prod
                               ([], (2, 0)), (ids[:2], (2, 1, 0)),  # an extent of 0
                               ([ids[0], wide], (2,)), ([ids[0], below], (2,)),
                               ([ids[0], 99], (2,))):  # a member outside [0, 1] or the model
        with pytest.raises(ValueError):
            p.add_lattice_set(bad_ids, bad_shape)
    assert len(p.senses) == 2 and len(p.lattice_sets) == 2


@pytest.mark.parametrize("ids, shape, message", [
    ([0, 0, 1], (3,), "lattice set 1 repeats an id"),
    ([0, 1, 3], (3,), r"lattice set 1 has an id outside \[0, 3\)"),  # 3: the row's slack
    ([0, 1, 5], (3,), r"lattice set 1 has an id outside \[0, 3\)"),
    ([-1, 0, 1], (3,), r"lattice set 1 has an id outside \[0, 3\)"),
    ([0, 1], (3,), r"lattice set 1 has 2 ids for a grid of shape \(3,\)"),
    ([0, 1, 2], (2, 2), r"lattice set 1 has 3 ids for a grid of shape \(2, 2\)"),
    ([[0, 1], [2, 0]], (2, 2), r"lattice set 1 has 4 ids for a grid of shape \(2, 2\)"),
    ([0.0, 1.0, 2.0], (3,), "lattice set 1 has an id that is not an integer"),
    ([False, True, True], (3,), "lattice set 1 has an id that is not an integer"),
    ([], (3, 0), r"lattice set 1 has shape \(3, 0\): a grid's sides must be >= 1"),
    ([0], (), r"lattice set 1 has shape \(\): a grid's sides must be >= 1")],
    ids=["repeated", "slack", "past_the_end", "negative", "short", "short_2d", "nested",
         "float", "bool", "empty_side", "no_side"])
def test_lattice_sets_are_checked_when_the_model_is_made(ids, shape, message):
    # each such set used to pass silently: ids [0, 1, 3] and [0, 0, 1]
    # solved 'optimal', the first with the row's slack as a weight, and
    # [0, 1, 5] raised a bare IndexError at the first solve
    with pytest.raises(ValueError, match=f"^{message}$"):
        milp.LpProblem(3, ["="], [([1, 2], (2,)), (ids, shape)])
    # sets may share a weight; each set's ids are kept read-only, its shape a tuple
    p = milp.LpProblem(3, ["=", "="], [([0, 1], [2]), (range(3), (3,))])
    assert [shape for _, shape in p.lattice_sets] == [(2,), (3,)]
    p.A[:], p.rhs[:], p.ub[:], p.c[:] = [[1, 1, 0], [1, 1, 1]], 1.0, 1.0, [0.0, 1.0, -1.0]
    assert solve_milp(p).x.tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        p.lattice_sets[0][0][0] = 2


def test_the_shape_is_fixed_when_the_model_is_made():
    # senses and lattice sets are tuples, so a rewrite after a solve raises;
    # the senses rewrite was silently ignored, x staying at 0.0 where a
    # model made with ">=" solves to 2.0
    def model(sense):
        p = milp.LpProblem(1, [sense])
        p.ub[0], p.c[0], p.A[0, 0], p.rhs[0] = 5.0, 1.0, 1.0, 2.0
        return p

    p = model("<=")
    assert isinstance(p.senses, tuple) and isinstance(p.lattice_sets, tuple)
    assert solve_milp(p).x.tolist() == [0.0]
    with pytest.raises(TypeError):
        p.senses[0] = ">="
    with pytest.raises(AttributeError):
        p.lattice_sets.append((np.arange(1), (1,)))
    assert solve_milp(p).x.tolist() == [0.0]
    assert solve_milp(model(">=")).x.tolist() == [2.0]
    # the canonical form is built with the model, and each solve refills it
    canon = p._canon
    assert not hasattr(canon, "problem")
    p.rhs[0] = 1.0
    p.sense = "max"
    assert solve_milp(p).x.tolist() == [1.0] and p._canon is canon


def test_a_copy_with_other_values_solves_on_its_own():
    # a shallow copy shares its original's canonical form and start, and
    # each solve fills the form from the problem it is handed: the copy,
    # given other bounds and objective, solves to its own optimum, and the
    # original's next solve is the one it would have made without the copy
    values, weights, cap = [5.0, 4.0, 3.0, 6.0, 7.0, 2.0], [4.0, 3.0, 2.0, 5.0, 6.0, 1.0], 9.0
    original, twin = knapsack(values, weights, cap), knapsack(values, weights, cap)
    solve_milp(original), solve_milp(twin)
    other = copy.copy(original)
    assert other._canon is original._canon and other._start is original._start
    other.ub = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    other.c = np.array([1.0, 6.0, 8.0, 2.0, 3.0, 5.0])
    fresh = knapsack([1.0, 6.0, 8.0, 2.0, 3.0, 5.0], weights, cap)
    fresh.ub[2] = 0.0
    got, want = solve_milp(other), solve_milp(fresh)
    assert (got.status, got.objective) == (want.status, want.objective) == ("optimal", 13.0)
    assert got.x.tolist() == want.x.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert other._start is not original._start
    a, b = solve_milp(original), solve_milp(twin)
    assert (a.status, a.objective, a.bound, a.gap, a.counters) == (
        b.status, b.objective, b.bound, b.gap, b.counters)
    assert a.x.tobytes() == b.x.tobytes()


def test_lattice_branch_property_suite():
    print(check_lattice_branch())


def test_set_branching_keeps_constrained_b_trees_small(monkeypatch):
    # the constrained (b) benchmark model at 3/3 with one lattice set per
    # term (per_term_model): a 3-D term of 64 vertex weights, and the 1-D
    # terms of a nonlinear row in sets of their own, plus a linear row.  (The
    # run's own model puts every term in the 3-D set and solves at the
    # root.)  Branching on one simplex selector at a time took 111 and 84
    # nodes in the first two iterations; splitting the 3-D set along the
    # grid stays small
    box = Interval(0.0, 2.0)
    spec = from_expressions(
        [("x", box, False), ("y", box, False), ("z", box, False)],
        "(x - 1.2)^2 + (y - 0.8)^2 + (z - 1)^2 - x*y*z",
        constraints=[("x^2 + y^2 + z^2", "<=", 3.5), ("x + 2*y - z", ">=", 1.0)])
    monkeypatch.setattr(loop, "build_iteration_model", per_term_model)
    result = loop.run(spec, loop.SppaConfig(3, 3, max_iters=2))
    assert len(result.trace) == 2
    for rec in result.trace:
        stats = rec.milp_stats
        assert stats["status"] == "optimal"
        assert stats["nodes"] <= 40, stats
        assert stats["nodes_set_branched"] >= 1 and stats["nodes_var_branched"] == 0, stats


def test_warm_root_property_suite():
    print(check_warm_root())


def test_blands_rule_keeps_the_oracle(monkeypatch):
    # at a stall limit of 0, Bland's rule engages after the first pivot that
    # does not raise the dual objective; every instance must still match
    # enumeration, and a changed pivot count shows that the rule ran
    pivots = []
    plain = milp.solve_milp

    def counting(*args, **kwargs):
        res = plain(*args, **kwargs)
        pivots.append(res.counters["pivots"])
        return res

    monkeypatch.setattr(milp, "solve_milp", counting)
    check_milp_oracle()
    default, pivots[:] = list(pivots), []
    monkeypatch.setattr(milp, "_STALL_LIMIT", 0)
    print(check_milp_oracle())
    assert len(pivots) == len(default)
    assert pivots != default  # the rule ran: some pivot sequence changed



@pytest.mark.xfail(strict=True, reason=(
    "absolute tolerances: the row and objective coefficients are 2.54e12 and "
    "differ by 76, the linking rows' 8.7e5 and differ by 1.3e-5, so every "
    "basis leaves a bound violation above _FEAS_TOL = 1e-7 and the dual "
    "simplex pivots to its iteration limit (20 250 pivots)"))
def test_narrow_window_lp_with_large_row_values_solves():
    # one variable on a window 2.6e-8 wide at 8.7e5, two lambda terms of
    # (1.8233*x)^2 on 2 pieces, one maximized, one in a <= row through its
    # middle vertex.  It solves in 5 pivots with 2543811173259.6714 taken off
    # every vertex value and the rhs, and in 8 with the linking rows written
    # relative to the window's lower end (z = lo + t)
    lo, mid, hi = 874732.6734556529, 874732.6734687921, 874732.6734819313
    f = [2543811173183.2515, 2543811173259.6714, 2543811173336.0923]
    p = LpProblem()
    x = p.add_var(lo, hi)
    sets = []
    for _ in range(2):
        ids = [p.add_var(0.0, 1.0) for _ in range(3)]
        p.add_row({**dict(zip(ids, [lo, mid, hi])), x: -1.0}, milp.EQ, 0.0)
        p.add_lattice_set(ids, (3,))
        sets.append(ids)
    p.add_row(dict(zip(sets[1], f)), "<=", 2543811173259.672)
    p.set_objective(dict(zip(sets[0], f)), sense="max")
    res = solve_milp(p)
    assert res.status == "optimal", (res.status, res.counters)
