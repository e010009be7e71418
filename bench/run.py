#!/usr/bin/env python3
"""sppa benchmark: time to solution on fixed workloads, traced layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload refine --seed 0 --seconds 32 --trace 0

Every instance of the workload is solved through ``sppa.loop.run`` in this
one process, with no threads and no time limit, and checked for
correctness.  ``--trace 0`` repeats the pass to fill ``--seconds`` and
reports the end-to-end metrics (medians over the passes, scaled by a
reference kernel timed between the iterations; see ``calibrate.py``), plus
set-up timed in fresh processes.  ``--trace 1`` makes one untraced and one
traced pass and reports the per-layer metrics of the traced one; its spans are
written to ``.bench_out/spans-<workload>.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# one BLAS thread in this process and in the set-up children; this must
# happen before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Optional  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_REFERENCES = 9  # reference kernel runs timed after each set-up
WARM_UP_REFERENCES = 20
REFERENCE_WINDOW = 5  # reference kernel runs on either side that scale a piece
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_sppa():
    """Import sppa from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "sppa" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"run.py: no sppa sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import sppa
    if pathlib.Path(sppa.__file__).resolve() != init.resolve():
        raise SystemExit(f"run.py: imported sppa from {sppa.__file__}, not {SRC}")
    return sppa


@dataclass
class Solve:
    instance: str
    seconds: float  # run() entry to return, reference kernel runs excluded
    iteration_s: list[float]  # run() entry, then each on_iteration callback: the gaps
    return_s: float  # last callback (or run() entry) to return
    hit: Optional[int]  # index of the iteration whose best objective met the target
    improving: int  # iterations that improved the best exact objective
    error: Optional[str]  # why the solve is wrong; None when correct
    # reference kernel seconds before run(), at each callback and after the
    # return: the pieces of ``segments`` lie between successive entries
    reference_s: list[float] = field(default_factory=list)

    @property
    def segments(self) -> list[float]:
        """The solve cut at its callbacks; the pieces sum to ``seconds``."""
        return self.iteration_s + [self.return_s]


def solve(run, config, inst, spec, run_spec=None, reference=None) -> Solve:
    """Solve one instance and check it; a failure never raises.

    ``run_spec`` is the spec handed to ``run`` (a traced copy), ``spec`` the
    one the result is checked against.  Given ``reference``, it runs before
    ``run()``, at each callback and after the return, off the clock.
    """
    pieces: list[float] = []
    refs: list[float] = []
    hit = None
    best = None
    improving = 0
    start = 0.0  # when the current piece began

    def on_iteration(record):
        nonlocal hit, best, improving, start
        pieces.append(time.perf_counter() - start)
        obj = record.objective
        if best is None or (obj < best if spec.sense == "min" else obj > best):
            best = obj
            improving += 1
            if hit is None and inst.meets(obj, spec.sense):
                hit = len(pieces) - 1
        if reference is not None:
            refs.append(reference())
        start = time.perf_counter()

    if reference is not None:
        refs.append(reference())
    start = time.perf_counter()
    try:
        result = run(spec if run_spec is None else run_spec, config,
                     on_iteration=on_iteration)
    except Exception as exc:  # a raising solve fails its instance, the pass goes on
        pieces.append(time.perf_counter() - start)
        traceback.print_exc(file=sys.stderr)
        error = f"run() raised {type(exc).__name__}: {exc}"
    else:
        pieces.append(time.perf_counter() - start)
        error = workloads.check(spec, inst, result)
    if reference is not None:
        refs.append(reference())
    return Solve(
        instance=inst.name,
        seconds=sum(pieces),
        iteration_s=pieces[:-1],
        return_s=pieces[-1],
        hit=hit,
        improving=improving,
        error=error,
        reference_s=refs,
    )


def solve_pass(sppa, cases, tracer=None, reference=None) -> tuple[list[Solve], float]:
    """Solve every (instance, spec) once; returns the solves and the
    pass's elapsed seconds, checks included."""
    run = sppa.loop.run if tracer is None else tracer.wrap("loop.run", sppa.loop.run)
    solves = []
    t0 = time.perf_counter()
    for inst, spec in cases:
        config = sppa.SppaConfig(**inst.config_kwargs())
        if tracer is None:
            solves.append(solve(run, config, inst, spec, reference=reference))
        else:
            tracer.instance = inst.name
            solves.append(solve(run, config, inst, spec, tracer.traced_spec(spec)))
    return solves, time.perf_counter() - t0


def build_cases(sppa, workload, seed, tracer=None):
    builtin, load_problem = sppa.builtin, sppa.load_problem
    if tracer is not None:
        builtin = tracer.wrap("problems.build", builtin)
        load_problem = tracer.wrap("problems.build", load_problem)
    cases = []
    for inst in workload.ordered(seed):
        if tracer is not None:
            tracer.instance = inst.name
        cases.append((inst, workloads.build_spec(inst, builtin, load_problem)))
    return cases


def setup_once(workload) -> tuple[float, float]:
    """Seconds to import sppa and build every spec of the workload, and the
    reference kernel's median seconds right after."""
    t0 = time.perf_counter()
    sppa = import_sppa()
    for inst in workload.instances:
        workloads.build_spec(inst, sppa.builtin, sppa.load_problem)
    seconds = time.perf_counter() - t0
    calibrate.reference()  # warm-up
    return seconds, statistics.median(calibrate.reference() for _ in range(SETUP_REFERENCES))


def measure_setup(workload) -> list[float]:
    """``setup_once`` in ``SETUP_REPEATS`` fresh processes, one at a time;
    each time is scaled by its reference kernel time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--measure-setup"]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        child = json.loads(out.stdout.splitlines()[-1])
        times.append(child["setup_s"] * calibrate.REFERENCE_S / child["reference_s"])
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of TAIL_PERCENTILES with
    at least ten samples beyond it, else the median; nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    rank = max(1, -int(-pct * n // 100.0))  # ceil(pct/100 * n)
    return pct, ordered[rank - 1]


def scaled_pieces(s: Solve) -> list[float]:
    """The pieces of a solve in seconds of the machine of record: each over
    the median of the reference kernel runs nearest it, up to
    ``REFERENCE_WINDOW`` on either side."""
    refs = s.reference_s
    return [piece * calibrate.REFERENCE_S
            / statistics.median(refs[max(0, k - REFERENCE_WINDOW + 1):k + REFERENCE_WINDOW + 1])
            for k, piece in enumerate(s.segments)]


def pass_times(solves: list[Solve]) -> tuple[float, float, float]:
    """wall, first-incumbent and time-to-target seconds of one pass, scaled."""
    wall = first = target = 0.0
    for s in solves:
        pieces = scaled_pieces(s)
        wall += sum(pieces)
        first += pieces[0] if s.iteration_s else sum(pieces)
        target += sum(pieces[:s.hit + 1]) if s.hit is not None else sum(pieces)
    return wall, first, target


def end_to_end(passes: list[list[Solve]], setup: list[float]) -> dict:
    wall, first, target = (statistics.median(t) for t in zip(*map(pass_times, passes)))
    return {
        "wall_s": (wall, "s"),
        "first_incumbent_s": (first, "s"),
        "time_to_target_s": (target, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, solves, traced_wall, untraced_wall) -> dict:
    incl, own, calls = tracer.totals()
    pivots = tracer.counts["milp.pivots"]
    nodes = tracer.counts["milp.nodes"]
    iters = [t for s in solves for t in s.iteration_s]
    tail_s = tail(iters)[1] if iters else 0.0
    in_pass = sum(v for name, v in own.items() if name != "problems.build")
    metrics = {
        "milp.factor_s": (incl["milp.factor"], "s"),
        "milp.factor_calls": (calls["milp.factor"], "count"),
        "milp.ftran_s": (incl["milp.ftran"], "s"),
        "milp.ftran_calls": (calls["milp.ftran"], "count"),
        "milp.btran_s": (incl["milp.btran"], "s"),
        "milp.btran_calls": (calls["milp.btran"], "count"),
        "milp.simplex_self_s": (own["milp.simplex"], "s"),
        "milp.pivots": (pivots, "count"),
        "milp.nodes": (nodes, "count"),
        "milp.simplex_calls": (calls["milp.simplex"], "count"),
        "milp.infeasible_nodes": (tracer.counts["milp.infeasible_nodes"], "count"),
        "milp.pivots_per_node": (pivots / nodes if nodes else 0.0, "pivots/node"),
        "milp.bnb_self_s": (own["milp.solve"], "s"),
        "milp.solve_s": (incl["milp.solve"], "s"),
        "milp.first_solve_s": (tracer.first_per_instance("milp.solve"), "s"),
        "milp.canon_s": (incl["milp.canon"], "s"),
        "loop.build_s": (incl["loop.build"], "s"),
        "mcmodel.encode_s": (incl["mcmodel.encode"], "s"),
        "mcmodel.encode_calls": (calls["mcmodel.encode"], "count"),
        "loop.self_s": (own["loop.run"], "s"),
        "loop.iterations": (len(iters), "count"),
        "loop.iter_p50_s": (statistics.median(iters) if iters else 0.0, "s"),
        "loop.iter_tail_s": (tail_s, "s"),
        "loop.improving_frac": (sum(s.improving for s in solves) / len(iters)
                                if iters else 0.0, "ratio"),
    }
    for key in ("loop.model_vars_max", "loop.model_rows_max", "loop.model_nnz_max",
                "loop.model_binaries_max"):
        metrics[key] = (tracer.maxima[key], "count")
    metrics.update({
        "expr.evals": (calls["expr.eval"], "count"),
        "expr.eval_s": (incl["expr.eval"], "s"),
        "problems.build_s": (incl["problems.build"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.self_sum_frac": (in_pass / traced_wall, "ratio"),
        "trace.absent_layers": (len(tracer.absent), "count"),
    })
    return metrics


def report(workload, solves: list[Solve], metrics: dict):
    for s in solves:
        verdict = "ok" if s.error is None else f"FAILED: {s.error}"
        print(f"{workload.name}: {s.instance} {s.seconds:.3f} s, "
              f"{len(s.iteration_s)} iterations, {verdict}")
    failed = sum(s.error is not None for s in solves)
    print(f"{workload.name}: failed_frac {failed}/{len(solves)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="solve order; seed 0 keeps the listed order (instances never change)")
    ap.add_argument("--seconds", type=float, default=32.0,
                    help="untraced run length; sets the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.measure_setup:
        seconds, reference_s = setup_once(workload)
        print(json.dumps({"setup_s": seconds, "reference_s": reference_s}))
        return 0

    sppa = import_sppa()
    if not args.trace:
        cases = build_cases(sppa, workload, args.seed)
        setup = measure_setup(workload)
        for _ in range(WARM_UP_REFERENCES):
            calibrate.reference()
        passes = [solve_pass(sppa, cases, reference=calibrate.reference)[0]
                  for _ in range(workload.passes(args.seconds))]
        raw = statistics.median(sum(s.seconds for s in p) for p in passes)
        refs = [r for p in passes for s in p for r in s.reference_s]
        print(f"{workload.name}: unscaled wall_s {raw:.4f} s (median of {len(passes)} passes); "
              f"reference kernel median {statistics.median(refs) * 1e3:.4f} ms over "
              f"{len(refs)} runs, {calibrate.REFERENCE_S * 1e3:g} ms on the machine of record")
        report(workload, [s for p in passes for s in p], end_to_end(passes, setup))
        return 0

    tracer = tracing.Tracer()
    cases = build_cases(sppa, workload, args.seed, tracer)
    untraced, untraced_wall = solve_pass(sppa, cases)
    tracer.install()
    try:
        traced, traced_wall = solve_pass(sppa, cases, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, traced, traced_wall, untraced_wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload.name}.json"
    tracer.dump(spans)
    iters = [t for s in traced for t in s.iteration_s]
    print(f"{workload.name}: {len(tracer.names)} spans written to {spans}; "
          f"absent layers: {', '.join(tracer.absent) or 'none'}; "
          "no layer waits on another (one process, no threads)")
    if iters:
        print(f"{workload.name}: loop.iter_tail_s is p{tail(iters)[0]:g} "
              f"of {len(iters)} iterations")
    report(workload, untraced + traced, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
