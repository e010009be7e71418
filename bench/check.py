#!/usr/bin/env python3
"""Check the benchmark: spread of the end-to-end metrics, the traced runs,
and the numerical probe.  Run from the root of a checkout:

    python3 bench/check.py --seeds 10          # every workload, seeds 1..10
    python3 bench/check.py --workloads refine --seeds 5 --no-traced

For each workload, ``run.py`` runs once per seed with ``--trace 0``.  Each
end-to-end metric gets its median and its spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  A spread above a third of the metric's bound in
BENCHMARK.json is flagged ``noisy``; above the bound (``setup_s`` excepted)
it fails.  Then two traced runs per workload must repeat every count and
have self times summing to within 5 % of traced wall.  Last, each probe
(the numerical one) runs once and reports as failed, with its reason.
Exit status 1 means a check failed.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_SUM_TOL = 0.05


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    for line in lines[:-1]:
        if "FAILED" in line:
            print("  " + line)
    return json.loads(lines[-1])


def spreads(spec: dict, workload: str, seeds: int) -> bool:
    runs = []
    for seed in range(1, seeds + 1):
        runs.append(bench(workload, seed, spec["run_seconds"], 0))
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    ok = all(r["correct"] for r in runs)
    if not ok:
        print(f"{workload}: a run reported correct=false")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if spread > bound and name != "setup_s":
            verdict, ok = "FAIL", False
        else:
            verdict = "noisy" if spread > bound / 3.0 else "ok"
        print(f"{workload:12s} {name:18s} median {med:10.4f} {metric['unit']:3s} "
              f"spread {spread:6.3f} (bound {bound}) {verdict}")
    return ok


def traced(workload: str) -> bool:
    a, b = (bench(workload, 0, 1, 1)["metrics"] for _ in range(2))
    counts = sorted(k for k, v in a.items() if v["unit"] == "count")
    differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
    fracs = [m["trace.self_sum_frac"]["value"] for m in (a, b)]
    ok = not differ and all(abs(f - 1.0) <= SELF_SUM_TOL for f in fracs)
    print(f"{workload:12s} traced twice: {len(counts)} counts "
          f"{'differ: ' + ', '.join(differ) if differ else 'repeat'}; self-time sums "
          f"{fracs[0]:.4f}, {fracs[1]:.4f} of traced wall; overhead "
          f"{a['trace.overhead_s']['value']:.3f} s, {b['trace.overhead_s']['value']:.3f} s "
          f"{'ok' if ok else 'FAIL'}")
    return ok


def probe(name: str):
    """Run a probe once; it is expected to fail, and passing is news, not an error."""
    if bench(name, 0, 1, 0)["failed"]:
        print(f"probe {name}: reports failed, as expected")
    else:
        print(f"probe {name}: passes now; the defect is fixed, make it a workload")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--no-traced", action="store_true", help="skip the traced runs")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]

    ok = True
    for name in names:
        ok = spreads(spec, name, args.seeds) and ok
        if not args.no_traced:
            ok = traced(name) and ok
    for name, workload in WORKLOADS.items():
        if workload.probe:
            probe(name)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
