import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppa import loop, milp
from sppa.loop import SppaConfig, build_iteration_model, contract_bounds, run
from sppa.problems import (NonlinearTerm, ProblemSpec, builtin, builtin_info,
                           from_expressions)
from sppa.pwl import Interval

from properties import check_sppa_invariants


def test_contract_examples():
    assert contract_bounds(Interval(0, 10), 5.0, 0.5) == Interval(2.5, 7.5)
    assert contract_bounds(Interval(0, 10), 9.5, 0.5) == Interval(5.0, 10.0)
    assert contract_bounds(Interval(0, 10), 0.1, 0.5) == Interval(0.0, 5.0)


def test_contract_validation():
    with pytest.raises(ValueError):
        contract_bounds(Interval(0, 1), 0.5, 1.0)
    with pytest.raises(ValueError):
        contract_bounds(Interval(0, 1), 0.5, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-100, 100),
    width=st.floats(1e-6, 200),
    t=st.floats(0, 1),
    frac=st.floats(0.01, 0.99),
)
def test_contract_properties(lo, width, t, frac):
    iv = Interval(lo, lo + width)
    v = lo + t * width
    out = contract_bounds(iv, v, frac)
    assert out.lo >= iv.lo - 1e-12 and out.hi <= iv.hi + 1e-12  # nested
    assert out.lo - 1e-12 <= v <= out.hi + 1e-12                # keeps the value
    assert out.width <= frac * iv.width + 1e-12                 # width law
    interior = (v - frac * width / 2 >= lo) and (v + frac * width / 2 <= lo + width)
    if interior:
        assert abs(out.width - frac * iv.width) <= 1e-12 * (1 + width)


def test_integer_contraction_keeps_unit_width():
    iv = Interval(0, 10)
    out = loop._contract_integer(iv, 4.2, 0.5)
    assert out.lo == math.floor(out.lo) and out.hi == math.ceil(out.hi)
    assert out.width >= 1.0
    # tight windows widen back to one unit around the value
    tiny = loop._contract_integer(Interval(3, 5), 4.0, 0.1)
    assert tiny.width >= 1.0 and tiny.lo <= 4.0 <= tiny.hi
    # but never escape the old interval
    edge = loop._contract_integer(Interval(3, 5), 5.0, 0.1)
    assert edge.lo >= 3.0 and edge.hi <= 5.0 and edge.width >= 1.0


def _quad_spec():
    return ProblemSpec(
        [("z", Interval(-1.0, 1.0), False)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float(v[0] ** 2))],
    )


def test_run_quadratic_geometric_widths():
    result = run(_quad_spec(), SppaConfig(2, 2, 0.5, max_iters=40))
    assert result.termination == "width"
    assert result.best_objective == pytest.approx(0.0, abs=1e-12)
    widths = [rec.bounds["z"].width for rec in result.trace]
    for k, w in enumerate(widths):
        assert w == pytest.approx(2.0 * 0.5**k, rel=1e-12)
    assert abs(result.best_point[0]) <= 1e-8 * 2.0


def test_model_counts_rosenbrock():
    spec = builtin("rosenbrock")
    m = build_iteration_model(spec, spec.bounds(), 4)
    n_bin = sum(m.lp.is_int)
    assert n_bin == 32  # one 2-D term: 2 * 4 * 4 simplices
    term, enc, grid = m.encodings[0]
    assert grid.pieces == (4, 4)
    assert len(enc.copy_ids) == 64


def test_model_counts_rastrigin():
    spec = builtin("rastrigin")
    m = build_iteration_model(spec, spec.bounds(), 6)
    assert sum(m.lp.is_int) == 12  # two 1-D terms of 6 simplices each
    for _, enc, _ in m.encodings:
        assert len(enc.selector_ids) == 6


def test_no_nonlinear_terms_single_solve():
    spec = ProblemSpec(
        [("a", Interval(0, 4), False), ("b", Interval(0, 4), False)],
        {0: 1.0, 1: 2.0}, 0.0,
        [milp.LinearConstraint({0: 1.0, 1: 1.0}, ">=", 3.0)],
        [],
    )
    m = build_iteration_model(spec, spec.bounds(), 4)
    assert m.lp.n_vars == 2 and len(m.lp.rows) == 1  # untouched linear model
    result = run(spec, SppaConfig(4, 4, 0.5, max_iters=10))
    assert len(result.trace) == 1
    assert result.best_objective == pytest.approx(3.0)


def test_degenerate_variable_becomes_constant():
    spec = ProblemSpec(
        [("x", Interval(2.0, 2.0), False), ("y", Interval(0.0, 1.0), False)],
        {}, 0.0, [],
        [NonlinearTerm((0, 1), lambda v: float(v[0] * v[1] ** 2))],
    )
    m = build_iteration_model(spec, spec.bounds(), 2)
    _, enc, grid = m.encodings[0]
    assert grid.dims == 1  # x dropped from the grid
    result = run(spec, SppaConfig(2, 2, 0.5, max_iters=25))
    assert result.best_objective == pytest.approx(0.0, abs=1e-10)


def test_all_fixed_term_is_constant():
    spec = ProblemSpec(
        [("x", Interval(3.0, 3.0), False)], {}, 1.0, [],
        [NonlinearTerm((0,), lambda v: float(v[0] ** 2))],
    )
    m = build_iteration_model(spec, spec.bounds(), 2)
    assert m.lp.obj_constant == pytest.approx(10.0)  # 1 + 3^2
    result = run(spec, SppaConfig(2, 2, 0.5, max_iters=3))
    assert result.best_objective == pytest.approx(10.0)


def test_infeasible_first_iteration():
    spec = from_expressions(
        [("x", Interval(0.0, 1.0), False)],
        "x^2",
        constraints=[("x", ">=", 2.0)],
    )
    result = run(spec, SppaConfig(2, 2, 0.5))
    assert result.termination == "infeasible"
    assert result.best_point is None
    assert result.trace == []


def test_integer_variable_in_term():
    # minimize (n - 2.3)^2 over integers: optimum n=2
    spec = ProblemSpec(
        [("n", Interval(0.0, 5.0), True)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float((v[0] - 2.3) ** 2))],
    )
    result = run(spec, SppaConfig(5, 2, 0.5, max_iters=15))
    assert result.best_point[0] == pytest.approx(2.0, abs=1e-6)
    assert result.best_objective == pytest.approx(0.09, abs=1e-9)
    for rec in result.trace:
        iv = rec.bounds["n"]
        assert iv.lo == math.floor(iv.lo) and iv.hi == math.ceil(iv.hi)
        assert iv.width >= 1.0


def test_nonlinear_constraint_term():
    # min y subject to y >= x^2 and x >= 0.5: optimum 0.25, approached from above
    spec = from_expressions(
        [("x", Interval(-1.0, 1.0), False), ("y", Interval(0.0, 2.0), False)],
        "y",
        constraints=[("x^2 - y", "<=", 0.0), ("x", ">=", 0.5)],
    )
    result = run(spec, SppaConfig(4, 4, 0.5, max_iters=30))
    assert result.best_objective == pytest.approx(0.25, abs=1e-3)
    # convex chords overestimate, so y undercuts 0.25 by at most the solver's
    # row feasibility tolerance
    assert result.best_objective >= 0.25 - 1e-6
    # y has no nonlinear term of its own, so its bounds never move
    for rec in result.trace:
        assert rec.bounds["y"] == Interval(0.0, 2.0)


def test_maximization():
    spec = ProblemSpec(
        [("z", Interval(-2.0, 2.0), False)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float(-((v[0] - 1.0) ** 2)))],
        sense="max",
    )
    result = run(spec, SppaConfig(4, 2, 0.5, max_iters=30))
    assert result.best_objective == pytest.approx(0.0, abs=1e-9)
    assert result.best_point[0] == pytest.approx(1.0, abs=1e-4)


def test_max_iters_termination():
    result = run(_quad_spec(), SppaConfig(2, 2, 0.5, max_iters=3))
    assert result.termination == "max_iters"
    assert len(result.trace) == 3


def test_time_limit_termination():
    result = run(builtin("rastrigin"), SppaConfig(6, 3, 0.5, time_limit=1e-9))
    assert result.termination == "time_limit"


@pytest.mark.parametrize("status", ["numerical", "iteration_limit"])
def test_solver_failure_keeps_best_point(monkeypatch, status):
    # the MILP fails from the third solve on: the run ends with the solver's
    # status and keeps the better of the two incumbents found before it
    spec = ProblemSpec(
        [("z", Interval(-1.0, 1.0), False)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float((v[0] - 0.3) ** 2))],
    )
    solve_milp = milp.solve_milp
    calls = []

    def failing(lp, config=None):
        calls.append(lp)
        if len(calls) >= 3:
            return milp.MilpResult(status, None, None, None, math.inf, 0, 0, 0.0)
        return solve_milp(lp, config)

    monkeypatch.setattr(loop.milp, "solve_milp", failing)
    result = run(spec, SppaConfig(2, 2, 0.5, max_iters=10))
    assert result.termination == status
    assert len(result.trace) == 2
    first, second = result.trace
    assert second.objective < first.objective  # iteration 1 improves: 0.04 < 0.09
    assert result.best_objective == second.objective
    np.testing.assert_array_equal(result.best_point, second.incumbent)


def test_config_validation():
    with pytest.raises(ValueError):
        SppaConfig(0, 2, 0.5)
    with pytest.raises(ValueError):
        SppaConfig(2, 2, 1.5)
    with pytest.raises(ValueError):
        SppaConfig(2, 2, 0.5, max_iters=0)
    with pytest.raises(ValueError):
        SppaConfig(2, 2, 0.5, width_tol=-1.0)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            SppaConfig(2, 2, 0.5, time_limit=bad)


# Pinned trajectories at the registry settings.  They check that a change
# meant to leave the arithmetic alone really does: a deliberate change of
# trajectory must update these numbers and record the change in CHANGES.md.
@pytest.mark.parametrize("name, pieces, termination, iterations, best_objective, best_point, "
                         "pivots", [
    ("rastrigin", (6, 3), "stall", 23, 0.0, [-0.0, -0.0], 282),
    ("ackley", (3, 3), "width", 27, 3.552713678800501e-15,
     [1.3322676295501878e-15, 1.3322676295501878e-15], 1265),
])
def test_pinned_trajectory(name, pieces, termination, iterations, best_objective, best_point,
                           pivots):
    info = builtin_info(name)
    assert (info["initial_n_pieces"], info["n_pieces"]) == pieces
    config = SppaConfig(*pieces, info["contract_frac"], info["max_iters"])
    result = run(builtin(name), config)
    assert result.termination == termination
    assert len(result.trace) == iterations
    assert result.best_objective == best_objective
    assert result.best_point.tolist() == best_point
    assert sum(rec.milp_stats["iterations"] for rec in result.trace) == pivots


def test_invariant_property_suite():
    print(check_sppa_invariants())
