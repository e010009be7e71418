#!/usr/bin/env python3
"""Run the four built-in benchmarks, save traces, and print the summary table.

Each problem runs at its registry settings, with the registry's desk pieces
where it has them (eggholder: 20 initial pieces, 4 afterwards), so the first
MILP stays small while still reaching the known optimum.  Traces land in
``--outdir`` as JSON.
"""

import argparse
import pathlib
import sys

from sppa.cli import main as cli_main
from sppa.problems import builtin_info, builtin_names


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="trace output directory")
    ap.add_argument("--budget", type=float, default=None, help="seconds per problem")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for name in builtin_names():
        flags = ["solve", "--problem", name, "--out", str(outdir / f"{name}.json")]
        desk = builtin_info(name).get("desk_pieces")
        if desk:
            flags += ["--initial-n-pieces", str(desk[0]), "--n-pieces", str(desk[1])]
        if args.budget:
            flags += ["--time-limit", str(args.budget)]
        print(f"=== {name} ===")
        worst = max(worst, cli_main(flags))
        print()

    print("=== summary ===")
    table_flags = ["table"] + (["--budget", str(args.budget)] if args.budget else [])
    cli_main(table_flags)
    return worst


if __name__ == "__main__":
    sys.exit(run())
