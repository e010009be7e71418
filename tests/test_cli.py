import copy
import csv
import importlib.util
import json
import pathlib
import subprocess

import numpy as np
import pytest

from sppa import cli, loop, milp
from sppa.cli import main
from sppa.problems import builtin_info, builtin_names, load_problem


def run_cli(args):
    return main(args)


def test_solve_rastrigin_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(["solve", "--problem", "rastrigin", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "termination:" in text and "best objective:" in text
    report = json.loads(out.read_text())
    assert report["problem"] == "rastrigin"
    assert report["final_objective"] == 0.0
    assert report["termination"] in ("width", "stall", "max_iters")
    rows = report["rows"]
    assert [r["iter"] for r in rows] == list(range(len(rows)))
    assert report["final_objective"] == min(r["objective"] for r in rows)


def test_json_report_keys_in_order(tmp_path):
    # the report and its config echo keep their keys and order
    out = tmp_path / "r.json"
    assert run_cli(["solve", "--problem", "ackley", "--max-iters", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert list(report) == ["problem", "config", "rows", "final_objective", "best_point",
                            "termination", "seconds"]
    assert report["config"] == {"problem": "ackley", "initial_n_pieces": 3, "n_pieces": 3,
                                "contract_frac": 0.5, "max_iters": 2, "time_limit": None,
                                "format": "json"}
    assert list(report["config"]) == ["problem", "initial_n_pieces", "n_pieces",
                                      "contract_frac", "max_iters", "time_limit", "format"]


def test_json_and_csv_numeric_content_match(tmp_path):
    j = tmp_path / "a.json"
    c = tmp_path / "a.csv"
    assert run_cli(["solve", "--problem", "ackley", "--out", str(j)]) == 0
    assert run_cli(["solve", "--problem", "ackley", "--out", str(c),
                    "--format", "csv"]) == 0
    report = json.loads(j.read_text())
    with open(c) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "objective", "x1", "x2", "max_width", "row_violation", "nodes",
                       "pivots", "root_pivots", "factorizations", "nodes_set_branched",
                       "nodes_var_branched", "nodes_integral", "nodes_infeasible",
                       "nodes_cutoff", "seconds"]
    assert len(rows) - 1 == len(report["rows"])
    for csv_row, jrow in zip(rows[1:], report["rows"]):
        assert int(csv_row[0]) == jrow["iter"]
        assert float(csv_row[1]) == jrow["objective"]
        assert [float(csv_row[2]), float(csv_row[3])] == jrow["incumbent"]
        assert float(csv_row[4]) == jrow["max_width"]
        assert float(csv_row[5]) == jrow["row_violation"] == 0.0  # ackley has no rows
        assert int(csv_row[6]) == jrow["nodes"]
        assert int(csv_row[7]) == jrow["pivots"]
        assert int(csv_row[8]) == jrow["root_pivots"]
        assert int(csv_row[9]) == jrow["factorizations"]
        for k, name in enumerate(rows[0][10:15], start=10):
            assert int(csv_row[k]) == jrow[name]


def test_csv_columns_and_cells_are_the_json_rows(tmp_path):
    # one run both ways, through branch and bound so that every counter
    # moves: the CSV columns are the JSON row keys in order, the incumbent
    # spread over x1..xn, and each cell but seconds is the text of its value
    model = tmp_path / "parabola.prob"
    model.write_text("[variables]\nx -1 1\ny 0 2\nz 0 3 int\n[objective]\nmin y - z\n"
                     "[constraints]\nx^2 - y <= 0\nx + z >= 0.5\n")
    flags = ["solve", "--problem", str(model), "--max-iters", "6"]
    j, c = tmp_path / "a.json", tmp_path / "a.csv"
    assert run_cli(flags + ["--out", str(j)]) == 0
    assert run_cli(flags + ["--out", str(c), "--format", "csv"]) == 0
    rows = json.loads(j.read_text())["rows"]
    with open(c, newline="") as fh:
        header, *cells = list(csv.reader(fh))
    assert rows and len(cells) == len(rows)
    assert header == [col for key in rows[0] for col in (
        [f"x{k + 1}" for k in range(3)] if key == "incumbent" else [key])]
    assert sum(row["nodes"] for row in rows) > 0
    for row, line in zip(rows, cells):
        values = [v for key, value in row.items()
                  for v in (value if key == "incumbent" else [value])]
        for col, value, text in zip(header, values, line):
            if col != "seconds":
                assert text == (str(value) if isinstance(value, int) else repr(value)), col


def test_csv_of_a_run_without_iterations_is_its_header(tmp_path, capsys):
    # a run stopped before its first iteration still writes the header row,
    # with the columns of a run that has iterations
    flags = ["solve", "--problem", "rosenbrock", "--format", "csv", "--out"]
    empty, full = tmp_path / "empty.csv", tmp_path / "full.csv"
    assert run_cli(flags + [str(empty), "--time-limit", "1e-12"]) == 4
    assert run_cli(flags + [str(full), "--max-iters", "1"]) == 0
    with open(empty, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(full, newline="") as fh:
        header = next(csv.reader(fh))
    assert rows == [header] == [["iter", "objective", "x1", "x2", "max_width", "row_violation",
                                 *milp.COUNTERS, "seconds"]]


def _strip_timing(report: dict) -> dict:
    out = copy.deepcopy(report)
    out["seconds"] = None
    for row in out["rows"]:
        row["seconds"] = None
    return out


def test_deterministic_reruns(tmp_path):
    # rastrigin is solved at the grid vertices; the parabola model's rows
    # send it through branch and bound, so its reruns also compare the
    # simplex counters, the nodes by outcome (a root warm-started from the
    # previous iteration's optimal basis may take no pivot) and the exact
    # row violation of each incumbent
    parabola = tmp_path / "parabola.prob"
    parabola.write_text("[variables]\nx -1 1\ny 0 2\n[objective]\nmin y\n"
                        "[constraints]\nx^2 - y <= 0\nx >= 0.5\n")
    cases = (
        (["rastrigin", "--initial-n-pieces", "6", "--n-pieces", "3"], False),
        ([str(parabola), "--max-iters", "30"], True),
    )
    for problem, through_milp in cases:
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        flags = ["solve", "--problem"] + problem + ["--contract-frac", "0.5"]
        assert run_cli(flags + ["--out", str(a)]) == 0
        assert run_cli(flags + ["--out", str(b)]) == 0
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert _strip_timing(ra) == _strip_timing(rb)
        for row in ra["rows"]:
            by_outcome = [row[name] for name in milp.COUNTERS if name.startswith("nodes_")]
            assert sum(by_outcome) == row["nodes"]  # no deadline: every node solved
            assert row["row_violation"] >= 0.0
            if through_milp:
                assert row["nodes"] >= 1 and row["factorizations"] >= 1
                assert 0 <= row["root_pivots"] <= row["pivots"]
                assert row["nodes_integral"] >= 1
            else:
                assert row["nodes"] == row["pivots"] == row["root_pivots"] == 0
                assert row["factorizations"] == 0 and row["row_violation"] == 0.0
        if through_milp:
            assert ra["rows"][0]["root_pivots"] > 0  # iteration 0 starts from the slack basis


def test_every_config_field_has_a_solve_flag():
    # _make_config reads SppaConfig fields from the parsed flags by name, so
    # a field without a flag would silently keep its registry or default value
    args = cli.build_parser().parse_args(["solve", "--problem", "rastrigin"])
    assert cli._CONFIG_FIELDS <= set(vars(args)), cli._CONFIG_FIELDS - set(vars(args))


def test_unknown_problem_exits_2(capsys):
    assert run_cli(["solve", "--problem", "nosuch"]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_directory_as_problem_exits_2(tmp_path, capsys):
    assert run_cli(["solve", "--problem", str(tmp_path)]) == 2
    assert "unknown problem" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["nosuch/r.json", "."])
def test_unusable_out_path_exits_2_before_solving(tmp_path, monkeypatch, capsys, out):
    monkeypatch.setattr(loop, "run", lambda *args, **kwargs: pytest.fail("solved"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["solve", "--problem", "rastrigin", "--out", out]) == 2
    assert "not a file in an existing directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_flag_value_exits_2(capsys):
    assert run_cli(["solve", "--problem", "rastrigin", "--contract-frac", "1.5"]) == 2


def test_problem_file_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("[variables]\nx 0 1\n[objective]\nmin sin(x\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line 4" in err and "position" in err


def test_later_sense_word_is_expression_text_and_exits_3(tmp_path, capsys):
    # a second sense word must not flip the first: "min" here is no variable
    bad = tmp_path / "sense.prob"
    bad.write_text("[variables]\nx -1 1\ny -1 1\n[objective]\nmax x^2 +\nmin y^2\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: line 6: objective: unknown identifier 'min' at position 0\n")


def test_problem_file_domain_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "div.prob"
    bad.write_text("[variables]\nx 0 1\ny 0 1\n[objective]\nmin x^2\n"
                   "[constraints]\nx + y/0 <= 1\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    assert "line 7" in capsys.readouterr().err


@pytest.mark.parametrize("objective, rows, message", [
    ("1e308*x*10 + y^2 + x*y", "[constraints]\nx + y <= 1\n", "non-finite coefficient on 'x'"),
    ("1e308*x*10 + y^2 + x*y", "", "non-finite coefficient on 'x'"),
    ("1e308 + 1e308 + x^2 + y^2", "", "non-finite constant"),
])
def test_non_finite_affine_objective_exits_3(tmp_path, capsys, objective, rows, message):
    bad = tmp_path / "big.prob"
    bad.write_text(f"[variables]\nx 0 1\ny 0 1\n[objective]\nmin {objective}\n{rows}")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    assert capsys.readouterr().err == f"error: {bad}: line 5: objective: {message}\n"


def test_term_failing_at_a_grid_vertex_exits_3(tmp_path, capsys):
    bad = tmp_path / "sqrt.prob"
    bad.write_text("[variables]\nx -1 1\n[objective]\nmin sqrt(x) + x^2\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: term 'g0' failed at grid vertex [-1.0]: ")
    assert err.count("\n") == 1


def test_term_failing_at_an_iterate_exits_3(tmp_path, capsys):
    # every grid vertex is fine, but the row puts the iterate on the pole
    bad = tmp_path / "pole.prob"
    bad.write_text("[variables]\nx 0 1\n[objective]\nmin 1/(x - 0.3)\n"
                   "[constraints]\nx = 0.3\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: term 'g0' failed at point [0.3]: division by zero")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    # solved at the grid vertices
    ("[objective]\nmin 1/x + y^2\n", "term 'g0' failed at point [0.0]: division by zero"),
    # through the MILP
    ("[objective]\nmin y^2\n[constraints]\nsqrt(x - 1) + y <= 3\n",
     "term 'r0g0' failed at point [0.0]: square root of a negative number"),
], ids=["vertex", "milp"])
def test_term_failing_with_every_variable_fixed_exits_3(tmp_path, capsys, text, message):
    # x is fixed, so the term has no grid: it fails at its one point
    bad = tmp_path / "fixed.prob"
    bad.write_text("[variables]\nx 0 0\ny -1 1\n" + text)
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count("\n") == 1


def test_integer_variable_in_term_ends_by_width(tmp_path, capsys):
    prob = tmp_path / "int.prob"
    prob.write_text("[variables]\nn 0 10 integer\nx -1 1\n[objective]\n"
                    "min (n-2.3)^2 + x^2 + n*x\n")
    assert run_cli(["solve", "--problem", str(prob)]) == 0
    assert "termination: width" in capsys.readouterr().out


def test_window_narrower_than_its_first_grid_is_held_fixed(tmp_path):
    # x's window is one float spacing at 1e9 (1.2e-7), too narrow for the
    # 4 pieces of the first grid: it is held fixed at its midpoint from the
    # start, so the run ends by width after one iteration instead of
    # raising on colliding breakpoints
    prob = tmp_path / "narrow.prob"
    prob.write_text("[variables]\nx 1000000000 1000000000.0000001\n"
                    "[objective]\nmin (x-1000000000)^2\n")
    out = tmp_path / "narrow.json"
    assert run_cli(["solve", "--problem", str(prob), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["termination"] == "width" and len(report["rows"]) == 1
    (x,) = report["best_point"]
    assert 1e9 <= x <= 1000000000.0000001
    assert report["final_objective"] == (x - 1e9) ** 2


def test_integer_variable_without_integer_exits_3(tmp_path, capsys):
    bad = tmp_path / "empty.prob"
    bad.write_text("[variables]\nn 0.2 0.8 integer\n[objective]\nmin n\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "no integer" in err


@pytest.mark.parametrize("flags", [
    ["solve", "--problem", "rastrigin", "--time-limit", "0"],
    ["solve", "--problem", "rastrigin", "--time-limit", "-1"],
    ["solve", "--problem", "ackley", "--time-limit", "nan"],
])
def test_nonpositive_time_limit_exits_2(flags, capsys):
    assert run_cli(flags) == 2
    assert "time_limit must be positive" in capsys.readouterr().err


def test_config_echo_lists_the_set_fields(capsys):
    assert run_cli(["solve", "--problem", "rastrigin"]) == 0
    assert ("config: initial_n_pieces=6 n_pieces=3 contract_frac=0.5 max_iters=60\n"
            in capsys.readouterr().out)
    assert run_cli(["solve", "--problem", "rastrigin", "--time-limit", "30"]) == 0
    assert ("config: initial_n_pieces=6 n_pieces=3 contract_frac=0.5 max_iters=60 "
            "time_limit=30.0\n" in capsys.readouterr().out)


def test_infeasible_problem_exits_4(tmp_path, capsys):
    prob = tmp_path / "inf.prob"
    prob.write_text(
        "[variables]\nx 0 1\n[objective]\nmin x^2\n[constraints]\nx >= 2\n")
    assert run_cli(["solve", "--problem", str(prob)]) == 4
    assert "no incumbent" in capsys.readouterr().out


def test_no_incumbent_exits_4(monkeypatch, capsys):
    # exit 4 means no incumbent, whatever ended the run
    monkeypatch.setattr(loop, "run", lambda spec, config, on_iteration=None: loop.SppaResult(
        None, None, [], "time_limit", 0.5))
    assert run_cli(["solve", "--problem", "rastrigin"]) == 4
    out = capsys.readouterr().out
    assert "termination: time_limit" in out and "no incumbent" in out


def test_problem_file_end_to_end(tmp_path, capsys):
    prob = tmp_path / "quad.prob"
    prob.write_text(
        "[variables]\nx -1 1\n[objective]\nmin (x - 0.25)^2\n")
    out = tmp_path / "quad.json"
    assert run_cli(["solve", "--problem", str(prob), "--out", str(out),
                    "--max-iters", "30"]) == 0
    report = json.loads(out.read_text())
    assert report["final_objective"] == pytest.approx(0.0, abs=1e-10)
    assert report["best_point"][0] == pytest.approx(0.25, abs=1e-5)


_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    path = _SCRIPTS / f"{name}.py"
    module_spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    return script


def test_chain_script_writes_both_forms(tmp_path, capsys):
    # chain.py 5 is scripts/chain5.prob byte for byte; --free drops the row,
    # and each form loads as the chain, 0 at (1, ..., 1), which only the row
    # sum(x_i^2) <= n - 0.5 cuts off
    chain = _script("chain")
    assert chain.main(["5"]) == 0
    assert capsys.readouterr().out == (_SCRIPTS / "chain5.prob").read_text()
    for n, free in ((3, True), (7, False)):
        path = tmp_path / "chain.prob"
        assert chain.main([str(n), "--out", str(path)] + ["--free"] * free) == 0
        spec = load_problem(str(path))
        assert spec.n_vars == n and len(spec.linear_constraints) == (0 if free else 1)
        assert spec.objective_value(np.ones(n)) == 0.0
        assert (spec.row_violation(np.ones(n)) > 0.0) != free
    with pytest.raises(SystemExit):
        chain.main(["1"])


def test_table_small_budget(tmp_path, capsys):
    # a row for every builtin under a per-problem budget, exit 0
    code = _script("reproduce_table").run(["--outdir", str(tmp_path), "--budget", "60"])
    summary = capsys.readouterr().out.split("=== summary ===\n", 1)[1]
    assert code == 0
    lines = summary.strip().splitlines()
    assert lines[0].startswith("problem")
    assert [l.split()[0] for l in lines[1:]] == builtin_names()
    assert lines[2].split()[1:4] == ["0", "0", "6/3"]  # rastrigin
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in builtin_names())


def test_src_size_counts_modules_and_compares_checkouts(tmp_path, capsys):
    # per module and in total, lines and ast.walk nodes; --against prints
    # each change, a module that one side lacks counting as 0 and 0 there
    def checkout(name, modules):
        for module, text in modules.items():
            path = tmp_path / name / "src" / "sppa" / module
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return str(tmp_path / name)

    # x = 1: Module, Assign, Name, Store, Constant; a def adds arguments and
    # Return; a line with a comment adds no node
    new = checkout("new", {"a.py": "x = 1\n", "b.py": "# f\ndef f():\n    return 2\n"})
    old = checkout("old", {"a.py": "x = 1\ny = 2\nz = 3\n", "c.py": "x = 1\n"})
    script = _script("src_size")
    assert script.main([new]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "1", "lines", "5", "nodes"], ["b.py", "3", "lines", "5", "nodes"],
        ["total", "4", "lines", "10", "nodes"]]
    assert script.main([new, "--against", old]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "1", "lines", "5", "nodes", "-2", "lines", "-8", "nodes"],
        ["b.py", "3", "lines", "5", "nodes", "+3", "lines", "+5", "nodes"],
        ["c.py", "0", "lines", "0", "nodes", "-1", "lines", "-5", "nodes"],
        ["total", "4", "lines", "10", "nodes", "+0", "lines", "-8", "nodes"]]
    with pytest.raises(SystemExit):
        script.main([new, "--against", str(tmp_path)])
    assert "holds no src/sppa" in capsys.readouterr().err


def test_bench_pairs_summary_applies_the_gain_rule():
    # canned bench/run.py result lines for ten pairs, parent then change:
    # wall_s is lower in 9 of 10 pairs by more than the parent's quartile
    # spread, setup_s is lower in 10 of 10 by less than it, and score, the
    # higher the better, is higher in 9 of 10 by more than it
    def line(wall, setup, score, failed=0):
        return json.dumps({"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": {
            "wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"},
            "score": {"value": score, "unit": "count"}}})

    parent = [line(1.0 + k / 10, 0.5 + k / 100, 10.0 + k) for k in range(10)]
    change = [line(2.0 if k == 0 else 0.4 + k / 10, 0.49 + k / 100, 5.0 if k == 0 else 20.0 + k)
              for k in range(10)]
    metrics = [("wall_s", "lower"), ("setup_s", "lower"), ("score", "higher")]
    pairs = [(json.loads(p), json.loads(c)) for p, c in zip(parent, change)]
    summary = _script("bench_pairs").summarize(pairs, metrics)
    assert summary == [
        "10 pairs; failed solves: parent 0, change 0",
        "wall_s: parent 1.45 (1.225-1.675), change 0.95 (0.725-1.175), -34.5%; "
        "change lower in 9/10; gain",
        "setup_s: parent 0.545 (0.5225-0.5675), change 0.535 (0.5125-0.5575), -1.8%; "
        "change lower in 10/10; no gain",
        "score: parent 14.5 (12.25-16.75), change 24.5 (22.25-26.75), +69.0%; "
        "change higher in 9/10; gain"]
    # one more failed solve on the change side withholds every gain
    pairs[3] = (pairs[3][0], json.loads(line(0.8, 0.52, 23.0, failed=1)))
    summary = _script("bench_pairs").summarize(pairs, metrics)
    assert summary[0] == "10 pairs; failed solves: parent 0, change 1"
    assert all(row.endswith("; no gain") for row in summary[1:])


def test_bench_pairs_runs_read_no_bytecode(tmp_path, monkeypatch):
    # a checkout's __pycache__ must not reach a run: each one gets a fresh
    # empty bytecode prefix, and writes none
    script = _script("bench_pairs")
    seen = []

    def fake_run(args, cwd, env, **kwargs):
        prefix = pathlib.Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], prefix, prefix.is_dir(),
                     list(prefix.iterdir()) if prefix.is_dir() else None))
        doc = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        return subprocess.CompletedProcess(args, 0, stdout=f"log line\n{json.dumps(doc)}\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    for _ in range(2):
        assert script.run_once(str(tmp_path), "constrained", 1, 2.0)["failed"] == 0
    (cwd, no_write, first, is_dir, content), second = seen[0], seen[1]
    assert (cwd, no_write, is_dir, content) == (str(tmp_path), "1", True, [])
    assert second[2] != first and second[3:] == (True, [])
    assert not first.exists() and not second[2].exists()  # removed after each run


def test_table_nonpositive_budget_exits_2(tmp_path, capsys):
    assert _script("reproduce_table").run(["--outdir", str(tmp_path), "--budget", "0"]) == 2
    assert "time_limit must be positive" in capsys.readouterr().err


def test_reproduce_table_solves_each_builtin_once(tmp_path, monkeypatch, capsys):
    # the summary comes from the traces the script just wrote, not from
    # solving every builtin a second time
    script = _script("reproduce_table")
    calls = []

    def stub(spec, config, on_iteration=None):
        calls.append(spec.name)
        return loop.SppaResult(np.zeros(spec.n_vars), 1.5, [], "width", 0.5)

    monkeypatch.setattr(loop, "run", stub)
    assert script.run(["--outdir", str(tmp_path)]) == 0
    assert calls == builtin_names()
    summary = capsys.readouterr().out.split("=== summary ===\n", 1)[1]
    lines = summary.strip().splitlines()
    assert len(lines) == 5 and lines[0].startswith("problem")
    assert lines[4].split() == ["eggholder", "1.5", "-959.641", "35/3", "0.5s", "width"]


def test_strip_traces_writes_each_case_without_seconds(tmp_path, monkeypatch):
    calls = []

    def stub(spec, config, on_iteration=None):
        calls.append((spec.name, config.initial_n_pieces, config.n_pieces))
        record = loop.IterationRecord(
            0, np.zeros(spec.n_vars), 1.5, 1.5, 0.0, dict(zip(spec.var_names(), spec.bounds())),
            {"status": "optimal", **dict.fromkeys(milp.COUNTERS, 0), "gap": 0.0,
             "seconds": 0.25})
        return loop.SppaResult(np.zeros(spec.n_vars), 1.5, [record], "width", 0.5)

    def keys(doc):
        if isinstance(doc, dict):
            return set(doc).union(*map(keys, doc.values()))
        return set().union(*map(keys, doc)) if isinstance(doc, list) else set()

    monkeypatch.setattr(loop, "run", stub)
    assert _script("strip_traces").run([str(tmp_path)]) == 0
    cases = [(name, builtin_info(name)["initial_n_pieces"], builtin_info(name)["n_pieces"])
             for name in builtin_names()] + [
        ("eggholder", 20, 4), ("constrained_a", 3, 3), ("constrained_b", 2, 2),
        ("numerical", 3, 3), ("chain5", 3, 3), ("fixed_row", 3, 3)]
    assert calls == [case for case in cases for _fmt in ("json", "csv")]
    stems = builtin_names() + ["eggholder_20_4", "constrained_a", "constrained_b", "numerical",
                               "chain5", "fixed_row"]
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(f"{stem}.{fmt}" for stem in stems for fmt in ("json", "csv"))
    for stem in stems:
        doc = json.loads((tmp_path / f"{stem}.json").read_text())
        assert len(doc["rows"]) == 1 and "iter" in keys(doc)
        assert "seconds" not in keys(doc), stem
        with open(tmp_path / f"{stem}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 1 and header[0] == "iter" and header[-1] == "nodes_cutoff", stem
        assert "seconds" not in header and len(rows[0]) == len(header), stem


def test_strip_traces_against_names_where_each_case_splits(tmp_path, monkeypatch, capsys):
    # two stubbed runs that differ in one counter of one case, and a case
    # missing from the other directory: each trace, JSON and CSV, gets its line
    def stub_with(nodes):
        def stub(spec, config, on_iteration=None):
            record = loop.IterationRecord(
                0, np.zeros(spec.n_vars), 1.5, 1.5, 0.0,
                dict(zip(spec.var_names(), spec.bounds())),
                {"status": "optimal", **dict.fromkeys(milp.COUNTERS, 0),
                 "nodes": nodes if spec.name == "ackley" else 0, "gap": 0.0, "seconds": 0.25})
            return loop.SppaResult(np.zeros(spec.n_vars), 1.5, [record], "width", 0.5)
        return stub

    before, after = tmp_path / "before", tmp_path / "after"
    script = _script("strip_traces")
    monkeypatch.setattr(loop, "run", stub_with(0))
    assert script.run([str(before)]) == 0
    capsys.readouterr()
    assert script.run([str(after), "--against", str(before)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"all 10 traces identical to {before}, in JSON and CSV")
    (before / "rastrigin.json").unlink()
    (before / "rastrigin.csv").unlink()
    assert script.run([str(after), "--against", str(before)]) == 1
    monkeypatch.setattr(loop, "run", stub_with(3))
    capsys.readouterr()
    assert script.run([str(after), "--against", str(before)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5] == (f"differ from {before}: rastrigin.json, rastrigin.csv, "
                         "ackley.json, ackley.csv")
    assert lines[-4:] == [f"  rastrigin.json: no trace in {before}",
                          f"  rastrigin.csv: no trace in {before}",
                          "  ackley.json: iteration 0, key nodes",
                          "  ackley.csv: iteration 0, key nodes"]
