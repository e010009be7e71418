"""Command line front end: run benchmarks or problem files, emit traces.

Exit codes: 0 on any terminated run with an incumbent, 2 on bad flags or an
unknown problem, 3 on problem-file parse errors, 4 when the very first
piecewise model is infeasible.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from sppa import loop, milp
from sppa.problems import (ProblemFormatError, ProblemSpec, builtin,
                           builtin_info, builtin_names, load_problem)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(loop.SppaConfig)}


@dataclasses.dataclass
class RunReport:
    problem: str
    config: dict
    rows: list[dict]       # iter, objective, incumbent, max_width, nodes, seconds
    final_objective: Optional[float]
    best_point: Optional[list[float]]
    termination: str
    seconds: float


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sppa",
        description="Sequential piecewise planar approximation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one benchmark or problem file")
    s.add_argument("--problem", required=True,
                   help="builtin name (%s) or a problem file path" % ", ".join(builtin_names()))
    s.add_argument("--initial-n-pieces", type=int, default=None)
    s.add_argument("--n-pieces", type=int, default=None)
    s.add_argument("--contract-frac", type=float, default=None)
    s.add_argument("--max-iters", type=int, default=None)
    s.add_argument("--width-tol", type=float, default=None)
    s.add_argument("--out", default=None, help="write the trace report here")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--time-limit", type=float, default=None, help="seconds")

    t = sub.add_parser("table", help="run every builtin and print a summary table")
    t.add_argument("--budget", type=float, default=None, help="seconds per problem")
    return parser


def _resolve(problem_arg: str):
    """Problem spec plus its registry entry (empty for a problem file)."""
    if problem_arg in builtin_names():
        return builtin(problem_arg), builtin_info(problem_arg)
    if os.path.exists(problem_arg):
        return load_problem(problem_arg), {}
    raise ValueError(
        f"unknown problem {problem_arg!r}: not a builtin ({', '.join(builtin_names())}) "
        "and no such file"
    )


def _make_config(registry: dict, flags: dict) -> loop.SppaConfig:
    """Registry settings overridden by every flag that was given; the
    ``SppaConfig`` defaults fill in the rest."""
    settings = {k: v for k, v in registry.items() if k in _CONFIG_FIELDS}
    settings.update({k: v for k, v in flags.items() if k in _CONFIG_FIELDS and v is not None})
    return loop.SppaConfig(**settings)


def _max_width(record: loop.IterationRecord, nl_names: list[str]) -> float:
    if not nl_names:
        return 0.0
    return max(record.bounds[name].width for name in nl_names)


def _report_rows(spec: ProblemSpec, result: loop.SppaResult) -> list[dict]:
    nl_names = [spec.variables[j][0]
                for j in sorted({k for t in spec.nonlinear_terms for k in t.var_ids})]
    rows = []
    for rec in result.trace:
        rows.append({
            "iter": rec.iteration,
            "objective": float(rec.objective),
            "incumbent": [float(v) for v in rec.incumbent],
            "max_width": float(_max_width(rec, nl_names)),
            "nodes": int(rec.milp_stats["nodes"]),
            "seconds": float(rec.milp_stats["seconds"]),
        })
    return rows


def _write_report(report: RunReport, path: str, fmt: str, n_vars: int):
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective"] + [f"x{k + 1}" for k in range(n_vars)]
                        + ["max_width", "nodes", "seconds"])
        for row in report.rows:
            writer.writerow([row["iter"], repr(row["objective"])]
                            + [repr(v) for v in row["incumbent"]]
                            + [repr(row["max_width"]), row["nodes"], repr(row["seconds"])])


def cmd_solve(args) -> int:
    try:
        spec, registry = _resolve(args.problem)
    except ProblemFormatError as exc:
        print(f"error: {args.problem}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        config = _make_config(registry, vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    names = spec.var_names()
    print(f"problem: {spec.name}  ({spec.n_vars} variables, "
          f"{len(spec.nonlinear_terms)} nonlinear terms, "
          f"{len(spec.linear_constraints)} linear rows)")
    print(f"config: initial_n_pieces={config.initial_n_pieces} n_pieces={config.n_pieces} "
          f"contract_frac={config.contract_frac} max_iters={config.max_iters}"
          + (f" time_limit={config.time_limit}" if config.time_limit else ""))
    header = f"{'iter':>4}  {'objective':>14}  {'max_width':>10}  {'nodes':>6}  {'sec':>7}"
    print(header)

    nl_names = [names[j] for j in sorted({k for t in spec.nonlinear_terms for k in t.var_ids})]

    def live(rec: loop.IterationRecord):
        print(f"{rec.iteration:>4}  {rec.objective:>14.6e}  "
              f"{_max_width(rec, nl_names):>10.3e}  {rec.milp_stats['nodes']:>6}  "
              f"{rec.milp_stats['seconds']:>7.2f}")

    result = loop.run(spec, config, on_iteration=live)

    report = RunReport(
        problem=spec.name,
        config={
            "problem": args.problem,
            "initial_n_pieces": config.initial_n_pieces,
            "n_pieces": config.n_pieces,
            "contract_frac": config.contract_frac,
            "max_iters": config.max_iters,
            "width_tol": config.width_tol,
            "time_limit": config.time_limit,
            "format": args.format,
        },
        rows=_report_rows(spec, result),
        final_objective=None if result.best_objective is None else float(result.best_objective),
        best_point=None if result.best_point is None else [float(v) for v in result.best_point],
        termination=result.termination,
        seconds=result.seconds,
    )
    if args.out:
        _write_report(report, args.out, args.format, spec.n_vars)

    print(f"termination: {result.termination}")
    if result.best_point is None:
        print("no incumbent found")
        return EXIT_INFEASIBLE
    point = ", ".join(f"{name}={v + 0.0:.6g}" for name, v in zip(names, result.best_point))
    print(f"best objective: {result.best_objective:.6e} at ({point})")
    print(f"total: {result.seconds:.2f} s, {len(result.trace)} iterations")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = []
    any_ok = False
    for name in builtin_names():
        info = builtin_info(name)
        if "desk_pieces" in info:
            info["initial_n_pieces"], info["n_pieces"] = info["desk_pieces"]
        config = _make_config(info, {"time_limit": args.budget})
        t0 = time.perf_counter()
        try:
            result = loop.run(builtin(name), config)
            err = None
        except Exception as exc:  # record the failure in-row, keep going
            result = None
            err = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if result is not None and result.best_objective is not None:
            any_ok = True
            rows.append((name, f"{result.best_objective:.6g}", f"{info['optimum']:.6g}",
                         f"{config.initial_n_pieces}/{config.n_pieces}",
                         f"{elapsed:.1f}s", result.termination))
        else:
            note = err if err else (result.termination if result else "failed")
            rows.append((name, "-", f"{info['optimum']:.6g}",
                         f"{config.initial_n_pieces}/{config.n_pieces}",
                         f"{elapsed:.1f}s", note))

    widths = [max(len(r[i]) for r in rows + [_TABLE_HEADER]) for i in range(6)]
    for r in [_TABLE_HEADER] + rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    return EXIT_OK if any_ok else 1


_TABLE_HEADER = ("problem", "found", "optimal", "pieces", "time", "termination")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    return cmd_table(args)


if __name__ == "__main__":
    sys.exit(main())
