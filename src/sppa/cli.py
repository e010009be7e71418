"""Command line front end: solve a builtin or a problem file, emit its trace.

Exit codes: 0 on any terminated run with an incumbent, 2 on bad flags, an
unknown problem, or an ``--out`` path that is a directory or lies in a
missing one (all found before solving), 3 on a problem-file error (a parse
or domain error, reported with its line, or a term that fails at a grid
vertex, at an iterate or at its value when every variable of the term is
fixed, reported with the point), 4 when the run ends with no incumbent (the
printed ``termination`` names the cause).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from sppa import loop
from sppa.problems import (COUNTERS, ProblemFormatError, builtin, builtin_info, builtin_names,
                           load_problem)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NO_INCUMBENT = 4

_CONFIG_FIELDS = set(vars(loop.SppaConfig()))
# a trace row's keys in order; the CSV spreads the incumbent over x1..xn
_ROW_KEYS = ("iter", "objective", "incumbent", "max_width", "row_violation", *COUNTERS,
             "seconds")


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
    s.add_argument("--out", default=None, help="write the trace report here")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--time-limit", type=float, default=None, help="seconds")
    return parser


def _resolve(problem_arg: str):
    """Problem spec plus its registry entry (empty for a problem file)."""
    if problem_arg in builtin_names():
        return builtin(problem_arg), builtin_info(problem_arg)
    if os.path.isfile(problem_arg):
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
    return max((record.bounds[name].width for name in nl_names), default=0.0)


def _report_rows(result: loop.SppaResult, nl_names: list[str]) -> list[dict]:
    return [dict(zip(_ROW_KEYS, (
        rec.iteration, float(rec.objective), [float(v) for v in rec.incumbent],
        float(_max_width(rec, nl_names)), float(rec.row_violation),
        *(int(rec.milp_stats[name]) for name in COUNTERS), float(rec.milp_stats["seconds"]),
    ), strict=True)) for rec in result.trace]


def _write_report(report: dict, path: str, fmt: str, n_vars: int):
    """The report as JSON, or as CSV: the header row (``_ROW_KEYS``, with
    x1..xn), even with no iteration, then each row's values by ``repr``."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        return
    header = [col for key in _ROW_KEYS for col in (
        [f"x{k + 1}" for k in range(n_vars)] if key == "incumbent" else [key])]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [
            [repr(v) for key, value in row.items()
             for v in (value if key == "incumbent" else [value])] for row in report["rows"]])


def cmd_solve(args) -> int:
    try:
        spec, registry = _resolve(args.problem)
        config = _make_config(registry, vars(args))
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ValueError(f"--out {args.out}: not a file in an existing directory")
    except ProblemFormatError as exc:
        print(f"error: {args.problem}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    names = spec.var_names()
    print(f"problem: {spec.name}  ({spec.n_vars} variables, "
          f"{len(spec.nonlinear_terms)} nonlinear terms, "
          f"{len(spec.linear_constraints)} linear rows)")
    print("config: " + " ".join(f"{k}={v}" for k, v in vars(config).items() if v is not None))
    print(f"{'iter':>4}  {'objective':>14}  {'max_width':>10}  {'nodes':>6}  {'sec':>7}")

    nl_names = [names[j] for j in sorted({k for t in spec.nonlinear_terms for k in t.var_ids})]

    def live(rec: loop.IterationRecord):
        print(f"{rec.iteration:>4}  {rec.objective:>14.6e}  "
              f"{_max_width(rec, nl_names):>10.3e}  {rec.milp_stats['nodes']:>6}  "
              f"{rec.milp_stats['seconds']:>7.2f}")

    try:
        result = loop.run(spec, config, on_iteration=live)
    except ValueError as exc:
        if not hasattr(exc, "point"):  # only a term failing at a point
            raise                      # is the problem file's fault
        print(f"error: {args.problem}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    report = {
        "problem": spec.name,
        "config": {"problem": args.problem, **vars(config), "format": args.format},
        "rows": _report_rows(result, nl_names),
        "final_objective": None if result.best_objective is None else float(result.best_objective),
        "best_point": None if result.best_point is None else [float(v) for v in result.best_point],
        "termination": result.termination,
        "seconds": result.seconds,
    }
    if args.out:
        _write_report(report, args.out, args.format, spec.n_vars)

    print(f"termination: {result.termination}")
    if result.best_point is None:
        print("no incumbent found")
        return EXIT_NO_INCUMBENT
    point = ", ".join(f"{name}={v + 0.0:.6g}" for name, v in zip(names, result.best_point))
    print(f"best objective: {result.best_objective:.6e} at ({point})")
    print(f"total: {result.seconds:.2f} s, {len(result.trace)} iterations")
    return EXIT_OK


def main(argv=None) -> int:
    return cmd_solve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
