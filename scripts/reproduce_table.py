#!/usr/bin/env python3
"""Run the four built-in benchmarks, save traces, and print the summary table.

Each problem runs once through ``sppa solve`` at its registry settings.
Traces land in ``--outdir`` as JSON, and the summary is built from them.
"""

import argparse
import json
import pathlib
import sys

from sppa.cli import EXIT_USAGE, main as cli_main
from sppa.problems import builtin_info, builtin_names


def _table_row(name: str, report: dict) -> tuple[str, ...]:
    """One summary-table row from a builtin's JSON trace report."""
    best, config = report["final_objective"], report["config"]
    return (name, "-" if best is None else f"{best:.6g}",
            f"{builtin_info(name)['optimum']:.6g}",
            f"{config['initial_n_pieces']}/{config['n_pieces']}",
            f"{report['seconds']:.1f}s", report["termination"])


def _print_table(rows: list[tuple[str, ...]]):
    header = ("problem", "found", "optimal", "pieces", "time", "termination")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="trace output directory")
    ap.add_argument("--budget", type=float, default=None, help="seconds per problem")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    rows = []
    for name in builtin_names():
        out = outdir / f"{name}.json"
        flags = ["solve", "--problem", name, "--out", str(out)]
        if args.budget is not None:
            flags += ["--time-limit", str(args.budget)]
        print(f"=== {name} ===")
        code = cli_main(flags)
        if code == EXIT_USAGE:
            return code
        worst = max(worst, code)
        print()
        rows.append(_table_row(name, json.loads(out.read_text())))

    print("=== summary ===")
    _print_table(rows)
    return worst


if __name__ == "__main__":
    sys.exit(run())
