#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs.

Each pair runs ``bench/run.py --workload W --trace 0`` once in each
checkout, the parent first in odd pairs and the change first in even ones,
and reads the JSON object on the last line of each run's output, and the
unscaled ``wall_s`` and reference kernel median of its log line.  For every
end-to-end metric of ``BENCHMARK.json`` the summary prints, per side, the
median and the quartiles over the pairs; then in how many pairs the change
read better, and the gain rule's verdict: a gain when the change is better
in at least nine tenths of the pairs (ties count for neither side), its
median is better by more than the parent's quartile spread, and no more of
its solves failed than the parent's.  Last, for every metric, the
no-regression verdict against the metric's ``bound`` in ``BENCHMARK.json``,
a share of the parent's median: ``worse`` when the change's median is worse
than the parent's by more than that share, ``unresolved`` when the parent's
quartile spread is wider than it (unless every change run beats every
parent run), else ``held``.  Then each side's median of the unscaled
``wall_s`` and of the reference kernel's median: ``wall_s`` is scaled by the
kernel's time on the host, so a move in it that the kernel's speed explains
shows there as a kernel move, not as an unscaled one.

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
import re
import statistics
import subprocess
import sys
import tempfile

_BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# bench/run.py's log line of an untraced run
_HOST_LINE = re.compile(r"unscaled wall_s ([0-9.]+) s .* reference kernel median ([0-9.]+) ms")


def benchmark() -> tuple[float, list[tuple[str, str, float]]]:
    """The run length in seconds, and ``(name, better, bound)`` of each
    end-to-end metric, ``better`` lower or higher."""
    doc = json.loads(_BENCHMARK.read_text())
    return doc["run_seconds"], [(m["name"], m["better"], m["bound"]) for m in doc["end_to_end"]]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one ``bench/run.py`` run in ``checkout``, with
    ``host``: the unscaled ``wall_s`` in seconds and the reference kernel's
    median in milliseconds that its log line reads, or None without one."""
    with tempfile.TemporaryDirectory() as no_bytecode:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                                   PYTHONPYCACHEPREFIX=no_bytecode),
            capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    found = next(filter(None, map(_HOST_LINE.search, lines[:-1])), None)
    return {**json.loads(lines[-1]), "host": found and tuple(map(float, found.groups()))}


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


def verdicts(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str, float]]) -> list[str]:
    """The no-regression verdict lines of ``(parent, change)`` result
    objects, one pair per entry, for the ``(name, better, bound)``
    metrics."""
    lines = []
    for name, better, bound in metrics:
        sign = 1.0 if better == "lower" else -1.0
        parent, change = ([doc["metrics"][name]["value"] for doc in side] for side in zip(*pairs))
        (p_med, p_q1, p_q3), c_med = _spread(parent), statistics.median(change)
        margin = bound * abs(p_med)
        beats = max(sign * c for c in change) < min(sign * p for p in parent)  # in every pairing
        if sign * (c_med - p_med) > margin:
            verdict = "worse"
        elif p_q3 - p_q1 > margin and not beats:
            verdict = "unresolved"
        else:
            verdict = "held"
        lines.append(f"{name}: change {(c_med - p_med) / p_med:+.1%}, parent spread "
                     f"{(p_q3 - p_q1) / abs(p_med):.1%}, bound {bound:.0%}; {verdict}")
    return lines


def host_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Each side's medians of the unscaled ``wall_s`` and of the reference
    kernel's median over the runs of ``(parent, change)`` result objects
    that read them; no line unless both sides have some."""
    sides = [[doc["host"] for doc in side if doc.get("host")] for side in zip(*pairs)]
    if not all(sides):
        return []
    (p_wall, p_ref), (c_wall, c_ref) = ([statistics.median(col) for col in zip(*side)]
                                        for side in sides)
    return [f"unscaled wall_s: parent {p_wall:.6g} s, change {c_wall:.6g} s, "
            f"{(c_wall - p_wall) / p_wall:+.1%}",
            f"reference kernel median: parent {p_ref:.6g} ms, change {c_ref:.6g} ms, "
            f"{(c_ref - p_ref) / p_ref:+.1%}"]


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
            f"{pairs[-1][1]['metrics'][name]['value']:.6g}" for name, _, _ in metrics), flush=True)
    print("\n".join(summarize(pairs, [(name, better) for name, better, _ in metrics])))
    print("\n".join(verdicts(pairs, metrics) + host_lines(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
