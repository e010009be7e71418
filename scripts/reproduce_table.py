#!/usr/bin/env python3
"""Run the four built-in benchmarks, save traces, and print the summary table.

Each problem runs at its registry settings, with the registry's desk pieces
where it has them (eggholder: 20 initial pieces, 4 afterwards), so the first
MILP stays small while still reaching the known optimum.  Traces land in
``--outdir`` as JSON; the summary is built from them and printed by the
same code as ``sppa table``.
"""

import argparse
import json
import pathlib
import sys

from sppa.cli import EXIT_USAGE, main as cli_main, print_table, table_row
from sppa.problems import builtin_info, builtin_names


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
        desk = builtin_info(name).get("desk_pieces")
        if desk:
            flags += ["--initial-n-pieces", str(desk[0]), "--n-pieces", str(desk[1])]
        if args.budget is not None:
            flags += ["--time-limit", str(args.budget)]
        print(f"=== {name} ===")
        code = cli_main(flags)
        if code == EXIT_USAGE:
            return code
        worst = max(worst, code)
        print()
        report = json.loads(out.read_text())
        config = report["config"]
        rows.append(table_row(name, report["final_objective"], config["initial_n_pieces"],
                              config["n_pieces"], report["seconds"], report["termination"]))

    print("=== summary ===")
    print_table(rows)
    return worst


if __name__ == "__main__":
    sys.exit(run())
