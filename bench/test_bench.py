"""Tests of the benchmark itself: instance lists, checks, failure accounting
and tracing.  Run from the root of a checkout:

    python3 -m pytest bench
"""

import json
import math

import numpy as np
import pytest

import run as bench
import tracing
import workloads
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def sppa():
    return bench.import_sppa()


def _benchmark_json():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _load(sppa, name):
    return sppa.load_problem(str(workloads.PROBLEM_DIR / name))


def test_instance_lists():
    got = {
        name: [(i.source, i.initial_n_pieces, i.n_pieces, i.contract_frac, i.max_iters)
               for i in w.instances]
        for name, w in WORKLOADS.items()
    }
    assert got == {
        "refine": [("rosenbrock", 4, 4, 0.92, 150), ("rastrigin", 6, 3, 0.5, 60),
                   ("ackley", 3, 3, 0.5, 60), ("eggholder", 20, 4, 0.5, 60)],
        "big_milp": [("eggholder", 35, 3, 0.5, 60)],
        "constrained": [("constrained_a.prob", 3, 3, 0.5, 60),
                        ("constrained_b.prob", 2, 2, 0.5, 60)],
        "numerical": [("numerical.prob", 3, 3, 0.5, 60)],
    }
    assert [n for n, w in WORKLOADS.items() if w.probe] == ["numerical"]


@pytest.mark.parametrize("name, variables, senses, point, value", [
    ("constrained_a.prob", [("x", -1, 2, False), ("y", -1, 2, False), ("n", 0, 4, True)],
     [">=", "<=", ">="], (0.3, 1.1, 2.0),
     (0.3 - 0.7) ** 2 * (1.1 + 1) + math.sin(2 * 0.3 * 1.1) + 0.5 * 2.0),
    ("constrained_b.prob", [("x", 0, 2, False), ("y", 0, 2, False), ("z", 0, 2, False)],
     ["<=", ">="], (0.5, 1.5, 1.2),
     (0.5 - 1.2) ** 2 + (1.5 - 0.8) ** 2 + (1.2 - 1) ** 2 - 0.5 * 1.5 * 1.2),
    ("numerical.prob", [("x", 0, 3, False), ("y", 0, 3, False), ("z", 0, 3, False)],
     [">=", "<=", "<="], (0.5, 1.5, 1.2),
     0.5 * 1.5 * 1.2 - 2 * 0.5 - 1.5 + math.exp(-1.2) * math.cos(0.5 + 1.5)),
])
def test_problem_files(sppa, name, variables, senses, point, value):
    spec = _load(sppa, name)
    assert [(n, iv.lo, iv.hi, i) for n, iv, i in spec.variables] == variables
    assert [row.sense for row in spec.linear_constraints] == senses
    assert spec.objective_value(point) == pytest.approx(value, rel=1e-12)


def test_seed_only_reorders():
    w = WORKLOADS["refine"]
    assert w.ordered(0) == list(w.instances)
    assert w.ordered(7) == w.ordered(7)
    assert sorted(w.ordered(7), key=lambda i: i.name) == sorted(w.instances, key=lambda i: i.name)


def test_passes_fixed_by_run_length():
    assert [WORKLOADS[n].passes(32) for n in ("refine", "big_milp", "constrained")] == [4, 2, 3]
    assert WORKLOADS["big_milp"].passes(1) == 1


def test_check_reasons(sppa):
    spec = _load(sppa, "constrained_b.prob")
    inst = WORKLOADS["constrained"].instances[1]

    def result(x, obj=None):
        x = None if x is None else np.array(x, dtype=float)
        if obj is None and x is not None:
            obj = spec.objective_value(x)
        return sppa.SppaResult(x, obj, [], "width")

    best = (1.17770386, 0.97804678, 1.07537815)
    assert workloads.check(spec, inst, result(best)) is None
    assert "no incumbent" in workloads.check(spec, inst, result(None))
    assert "reported objective" in workloads.check(
        spec, inst, result(best, spec.objective_value(best) + 1e-3))
    assert "row violation" in workloads.check(spec, inst, result((2.0, 2.0, 2.0)))
    assert "misses target" in workloads.check(spec, inst, result((1.0, 1.0, 1.0)))

    rastrigin = sppa.builtin("rastrigin")
    near = workloads.Instance("near", "rastrigin", 6, 3, target=math.inf,
                              argmin=(0.0, 0.0), argmin_tol=1e-3)
    assert "from [0.0, 0.0]" in workloads.check(
        rastrigin, near, sppa.SppaResult(np.array([0.1, 0.0]), rastrigin.objective_value([0.1, 0.0]),
                                         [], "width"))


def test_raising_instance_fails_and_pass_continues(sppa):
    bad = workloads.Instance("bad", "-", 2, 2, target=0.0)
    bad_spec = sppa.problems.from_expressions(
        [("x", sppa.Interval(-1.0, 1.0), False)], "1/x", name="bad")  # 1/0 at a vertex
    good = WORKLOADS["refine"].instances[1]
    solves, _ = bench.solve_pass(sppa, [(bad, bad_spec), (good, sppa.builtin(good.source))])
    assert solves[0].error.startswith("run() raised ValueError")
    assert solves[0].iteration_s == []
    assert solves[1].error is None and len(solves[1].iteration_s) == 23


def _traced(sppa, workload):
    tracer = tracing.Tracer()
    cases = bench.build_cases(sppa, workload, 0, tracer)
    tracer.install()
    try:
        solves, wall = bench.solve_pass(sppa, cases, tracer)
    finally:
        tracer.uninstall()
    assert all(s.error is None for s in solves)
    return bench.per_layer(tracer, solves, wall, wall)


def test_traced_counts_repeat_and_self_times_cover_wall(sppa):
    # ackley branches at three iterations; constrained (a) has infeasible nodes
    insts = (WORKLOADS["refine"].instances[2], WORKLOADS["constrained"].instances[0])
    workload = workloads.Workload("mix", insts, pass_s=5.0)
    runs = [_traced(sppa, workload) for _ in range(2)]
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in runs]
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["trace.absent_layers"] == 0
    assert c["milp.simplex_calls"] == c["milp.nodes"] > c["loop.iterations"]
    assert c["milp.infeasible_nodes"] > 0 and c["milp.pivots"] > 0
    assert c["milp.ftran_calls"] >= c["milp.pivots"] and c["expr.evals"] > 0
    for m in runs:
        assert abs(m["trace.self_sum_frac"][0] - 1.0) <= 0.05
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: unit for k, (_, unit) in runs[0].items()} == declared
    # uninstall put the originals back
    assert not hasattr(sppa.milp._simplex, "__wrapped__")
    assert not hasattr(sppa.milp._Basis.ftran, "__wrapped__")


def test_end_to_end_metrics_match_benchmark_json():
    ref = bench.calibrate.REFERENCE_S

    def solve(iteration_s, return_s, hit, speed=1.0):
        # the host ran 1/speed times as fast as the machine of record
        refs = [ref / speed] * (len(iteration_s) + 2)
        return bench.Solve("i", 0.0, [t / speed for t in iteration_s], return_s / speed,
                           hit, 1, None, refs)

    # pass 1: instance a meets its target at its second iteration, b never
    pass1 = [solve([0.5, 1.5], 1.0, 1), solve([1.0], 0.0, None)]
    pass2 = [solve([0.5, 1.5], 1.0, 1, speed=0.5), solve([1.0], 0.5, None, speed=0.5)]
    metrics = bench.end_to_end([pass1, pass2, pass2], [0.4, 0.6, 0.5])
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert metrics["wall_s"][0] == pytest.approx(4.5)
    assert metrics["first_incumbent_s"][0] == pytest.approx(0.5 + 1.0)
    assert metrics["time_to_target_s"][0] == pytest.approx(0.5 + 1.5 + 1.5)
    assert metrics["setup_s"][0] == 0.5
    assert all(value > 0 for value, _ in metrics.values())


def test_reference_scales_each_piece_by_its_neighbours():
    window = bench.REFERENCE_WINDOW
    # the host is twice as slow for the last piece and the runs around it
    n = 4 * window
    refs = [1.0] * (n - window) + [2.0] * (window + 1)
    s = bench.Solve("i", 0.0, [1.0] * (n - 1), 2.0, None, 1, None, refs)
    pieces = bench.scaled_pieces(s)
    unit = bench.calibrate.REFERENCE_S
    assert pieces[0] == pytest.approx(unit) and pieces[-1] == pytest.approx(unit)


def test_absent_layer_is_reported(sppa, monkeypatch):
    monkeypatch.delattr(sppa.milp, "_Basis")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["milp.factor", "milp.ftran", "milp.btran"]


@pytest.mark.parametrize("n, pct", [(217, 95.0), (54, 75.0), (27, 50.0), (5, 50.0)])
def test_tail_percentile_keeps_ten_beyond(n, pct):
    got_pct, value = bench.tail([float(k) for k in range(n)])
    assert got_pct == pct
    assert n - 1 - value >= min(10, n // 2)
