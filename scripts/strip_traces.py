#!/usr/bin/env python3
"""Write ``sppa solve --out`` traces with every ``seconds`` field stripped.

Ten cases, each solved twice, always in both formats: to
``OUTDIR/<case>.json`` without its ``seconds`` keys and to
``OUTDIR/<case>.csv`` without its ``seconds`` column.  The cases are
the four builtins at their registry settings, eggholder at 20/4, the
problem files of ``bench/problems`` (``constrained_a`` at 3/3,
``constrained_b`` at 2/2 and ``numerical`` at 3/3), the constrained
chained Rosenbrock at n = 5 (``scripts/chain5.prob`` at 3/3), the one case
whose models have several lambda blocks with member terms, and
``scripts/fixed_row.prob`` at 3/3, the one case whose model has a
coefficient-free row and a zero-cost variable in no term.  Run it in two
checkouts and compare the two directories: identical output means the same
runs, timings aside.  ``--against DIR`` makes the comparison: each trace
written is compared byte for byte with the file of the same name in
``DIR``, the traces that differ are printed, each with where the two runs
split (the first iteration and key or column that differ, or the side that
has no trace), and the exit status is 1 on any difference.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 scripts/strip_traces.py OUTDIR [--against DIR]
"""

import argparse
import csv
import json
import os
import pathlib
import sys

from sppa.cli import main as cli_main

_SCRIPTS = pathlib.Path(__file__).resolve().parent
_PROBLEMS = _SCRIPTS.parent / "bench" / "problems"


def _cases() -> dict[str, list[str]]:
    cases = {name: ["--problem", name]
             for name in ("rosenbrock", "rastrigin", "ackley", "eggholder")}
    cases["eggholder_20_4"] = ["--problem", "eggholder",
                               "--initial-n-pieces", "20", "--n-pieces", "4"]
    for path, pieces in ((_PROBLEMS / "constrained_a.prob", "3"),
                         (_PROBLEMS / "constrained_b.prob", "2"),
                         (_PROBLEMS / "numerical.prob", "3"), (_SCRIPTS / "chain5.prob", "3"),
                         (_SCRIPTS / "fixed_row.prob", "3")):
        # relative, so that checkouts in different places write the same
        cases[path.stem] = ["--problem", os.path.relpath(path),
                            "--initial-n-pieces", pieces, "--n-pieces", pieces]
    return cases


def strip(doc):
    """``doc`` without any ``seconds`` key, at any depth."""
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k != "seconds"}
    return [strip(v) for v in doc] if isinstance(doc, list) else doc


def strip_csv(path: pathlib.Path):
    """Rewrite the CSV trace at ``path`` without its ``seconds`` column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [k for k, name in enumerate(rows[0] if rows else []) if name != "seconds"]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([row[k] for k in keep] for row in rows)


def _load(path: pathlib.Path) -> dict:
    """A trace as a document with its per-iteration ``rows``."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return {"rows": list(csv.DictReader(fh))}
    return json.loads(path.read_text())


def split(ours: pathlib.Path, theirs: pathlib.Path) -> str:
    """Where the stripped trace ``ours`` first differs from ``theirs``: the
    first iteration and key (or CSV column) in row order, then the first
    other key, or the side that has no trace."""
    if not ours.exists() or not theirs.exists():
        return f"no trace in {(theirs if ours.exists() else ours).parent}"
    a, b = _load(ours), _load(theirs)

    def first_key(x: dict, y: dict, skip=()):
        return next((key for key in dict.fromkeys([*x, *y]) if key not in skip
                     and json.dumps(x.get(key)) != json.dumps(y.get(key))), None)

    rows_a, rows_b = a.get("rows", []), b.get("rows", [])
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        key = first_key(row_a, row_b)
        if key is not None:
            return f"iteration {row_a.get('iter', i)}, key {key}"
    if len(rows_a) != len(rows_b):
        return (f"iteration {min(len(rows_a), len(rows_b))}: only in "
                f"{(ours if len(rows_a) > len(rows_b) else theirs).parent}")
    key = first_key(a, b, skip=("rows",))
    return "the same values, other bytes" if key is None else f"key {key}"


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", help="directory for the stripped traces")
    ap.add_argument("--against", metavar="DIR",
                    help="compare each trace with the one of the same name in DIR; "
                         "exit 1 on any difference")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    differ = []
    for name, flags in _cases().items():
        for fmt in ("json", "csv"):
            path = out / f"{name}.{fmt}"
            path.unlink(missing_ok=True)  # a failed run leaves no stale trace
            worst = max(worst, cli_main(["solve", *flags, "--out", str(path), "--format", fmt]))
            if path.exists() and fmt == "json":
                path.write_text(json.dumps(strip(json.loads(path.read_text())), indent=1) + "\n")
            elif path.exists():
                strip_csv(path)
            if args.against is not None:
                other = pathlib.Path(args.against) / path.name
                if not (path.exists() and other.exists()
                        and path.read_bytes() == other.read_bytes()):
                    differ.append((path.name, split(path, other)))
    if args.against is not None:
        print(f"differ from {args.against}: {', '.join(name for name, _ in differ)}" if differ
              else f"all {len(_cases())} traces identical to {args.against}, in JSON and CSV")
        for name, where in differ:
            print(f"  {name}: {where}")
        if differ:
            return max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(run())
