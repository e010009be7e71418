import copy
import csv
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from sppa import loop
from sppa.cli import main
from sppa.problems import builtin_names


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


def test_json_and_csv_numeric_content_match(tmp_path):
    j = tmp_path / "a.json"
    c = tmp_path / "a.csv"
    assert run_cli(["solve", "--problem", "ackley", "--out", str(j)]) == 0
    assert run_cli(["solve", "--problem", "ackley", "--out", str(c),
                    "--format", "csv"]) == 0
    report = json.loads(j.read_text())
    with open(c) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "objective", "x1", "x2", "max_width", "nodes", "seconds"]
    assert len(rows) - 1 == len(report["rows"])
    for csv_row, jrow in zip(rows[1:], report["rows"]):
        assert int(csv_row[0]) == jrow["iter"]
        assert float(csv_row[1]) == jrow["objective"]
        assert [float(csv_row[2]), float(csv_row[3])] == jrow["incumbent"]
        assert float(csv_row[4]) == jrow["max_width"]
        assert int(csv_row[5]) == jrow["nodes"]


def _strip_timing(report: dict) -> dict:
    out = copy.deepcopy(report)
    out["seconds"] = None
    for row in out["rows"]:
        row["seconds"] = None
    return out


def test_deterministic_reruns(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    flags = ["solve", "--problem", "rastrigin", "--initial-n-pieces", "6",
             "--n-pieces", "3", "--contract-frac", "0.5"]
    assert run_cli(flags + ["--out", str(a)]) == 0
    assert run_cli(flags + ["--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert _strip_timing(ra) == _strip_timing(rb)


def test_unknown_problem_exits_2(capsys):
    assert run_cli(["solve", "--problem", "nosuch"]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_bad_flag_value_exits_2(capsys):
    assert run_cli(["solve", "--problem", "rastrigin", "--contract-frac", "1.5"]) == 2


def test_problem_file_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("[variables]\nx 0 1\n[objective]\nmin sin(x\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line 4" in err and "position" in err


def test_problem_file_domain_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "div.prob"
    bad.write_text("[variables]\nx 0 1\ny 0 1\n[objective]\nmin x^2\n"
                   "[constraints]\nx + y/0 <= 1\n")
    assert run_cli(["solve", "--problem", str(bad)]) == 3
    assert "line 7" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["solve", "--problem", "rastrigin", "--time-limit", "0"],
    ["solve", "--problem", "rastrigin", "--time-limit", "-1"],
    ["table", "--budget", "0"],
])
def test_nonpositive_time_limit_exits_2(flags, capsys):
    assert run_cli(flags) == 2
    assert "time_limit must be positive" in capsys.readouterr().err


def test_infeasible_problem_exits_4(tmp_path, capsys):
    prob = tmp_path / "inf.prob"
    prob.write_text(
        "[variables]\nx 0 1\n[objective]\nmin x^2\n[constraints]\nx >= 2\n")
    assert run_cli(["solve", "--problem", str(prob)]) == 4
    assert "no incumbent" in capsys.readouterr().out


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


def test_table_small_budget(capsys):
    # rows for every builtin; failures are recorded in-row, exit stays 0
    code = run_cli(["table", "--budget", "60"])
    text = capsys.readouterr().out
    assert code == 0
    lines = [l for l in text.strip().splitlines() if l]
    assert lines[0].startswith("problem")
    assert len(lines) == 5
    assert any(l.startswith("rastrigin") for l in lines)


def test_reproduce_table_solves_each_builtin_once(tmp_path, monkeypatch, capsys):
    # the summary comes from the traces the script just wrote, not from
    # solving every builtin a second time
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_table.py"
    module_spec = importlib.util.spec_from_file_location("reproduce_table", path)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
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
    assert lines[4].split() == ["eggholder", "1.5", "-959.641", "20/4", "0.5s", "width"]
