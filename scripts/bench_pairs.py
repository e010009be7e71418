#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs.

Each pair runs ``bench/run.py --workload W --trace 0`` once in each
checkout, the parent first in odd pairs and the change first in even ones,
and reads the JSON object on the last line of each run's output.  For every
end-to-end metric of ``BENCHMARK.json`` the summary prints, per side, the
median and the quartiles over the pairs; then in how many pairs the change
read better, and the gain rule's verdict: a gain when the change is better
in at least nine tenths of the pairs (ties count for neither side), its
median is better by more than the parent's quartile spread, and no more of
its solves failed than the parent's.

Usage, from anywhere:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload refine [--pairs 10] [--seed 0]

Each run lasts ``BENCHMARK.json``'s ``run_seconds``, and runs with
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPYCACHEPREFIX`` set to a fresh
empty directory, so that neither side imports bytecode, whether an earlier
run compiled it or it already lies in a checkout's ``__pycache__``: both
sides compile their sources at every start.  The prefix hides the
installed packages' bytecode too, so each run also compiles numpy and the
standard library modules it imports; ``setup_s`` is timed after numpy is
loaded.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

_BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def benchmark() -> tuple[float, list[tuple[str, str]]]:
    """The run length in seconds, and ``(name, better)`` of each end-to-end
    metric, ``better`` lower or higher."""
    doc = json.loads(_BENCHMARK.read_text())
    return doc["run_seconds"], [(m["name"], m["better"]) for m in doc["end_to_end"]]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one ``bench/run.py`` run in ``checkout``."""
    with tempfile.TemporaryDirectory() as no_bytecode:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                                   PYTHONPYCACHEPREFIX=no_bytecode),
            capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, ``(median, q1, q3)``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """The summary lines of ``(parent, change)`` result objects, one pair
    per entry, for the ``(name, better)`` metrics."""
    failed = [sum(doc["failed"] for doc in side) for side in zip(*pairs)]
    lines = [f"{len(pairs)} pairs; failed solves: parent {failed[0]}, change {failed[1]}"]
    for name, better in metrics:
        sign = 1.0 if better == "lower" else -1.0
        parent, change = ([doc["metrics"][name]["value"] for doc in side] for side in zip(*pairs))
        (p_med, p_q1, p_q3), (c_med, c_q1, c_q3) = _spread(parent), _spread(change)
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        gain = (wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > p_q3 - p_q1
                and failed[1] <= failed[0])
        lines.append(f"{name}: parent {p_med:.6g} ({p_q1:.6g}-{p_q3:.6g}), change {c_med:.6g} "
                     f"({c_q1:.6g}-{c_q3:.6g}), {(c_med - p_med) / p_med:+.1%}; change "
                     f"{better} in {wins}/{len(pairs)}; {'gain' if gain else 'no gain'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    (seconds, metrics), pairs = benchmark(), []
    for i in range(args.pairs):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        docs = [run_once(checkout, args.workload, args.seed, seconds) for checkout in order]
        pairs.append((docs[0], docs[1]) if i % 2 == 0 else (docs[1], docs[0]))
        print(f"pair {i + 1} ({'parent' if i % 2 == 0 else 'change'} first): " + ", ".join(
            f"{name} {pairs[-1][0]['metrics'][name]['value']:.6g} -> "
            f"{pairs[-1][1]['metrics'][name]['value']:.6g}" for name, _ in metrics), flush=True)
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
