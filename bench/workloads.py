"""Workloads of the sppa benchmark: fixed instance lists, targets and checks.

Every workload is a list of instances solved one after the other in one
process.  An instance names its problem (a builtin, or a problem file under
``problems/``), the loop settings it is solved at, and the target its best
exact objective must reach.  ``check`` decides whether one solve is correct.

This module does not import ``sppa``: the benchmark times that import as
part of set-up.
"""

from __future__ import annotations

import math
import pathlib
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

PROBLEM_DIR = pathlib.Path(__file__).resolve().parent / "problems"

OBJ_TOL = 1e-9   # reported vs re-evaluated objective, times 1 + |objective|
ROW_TOL = 1e-6   # exact row violation, times 1 + |rhs|
REACHED_TOL = 1e-5  # slack on a value reached before, times max(1, |value|)


def reached(value: float) -> float:
    """Target for an instance with no known optimum: the value reached when
    this benchmark was written, loosened by ``REACHED_TOL``, so any better
    end point passes."""
    return value + REACHED_TOL * max(1.0, abs(value))


@dataclass(frozen=True)
class Instance:
    name: str
    source: str  # builtin name, or a file name under PROBLEM_DIR
    initial_n_pieces: int
    n_pieces: int
    target: float  # a minimisation must reach <= target, a maximisation >=
    contract_frac: float = 0.5
    max_iters: int = 60
    argmin: Optional[tuple[float, ...]] = None
    argmin_tol: float = math.inf  # max-norm distance of the best point to argmin

    def config_kwargs(self) -> dict:
        """Keyword arguments for ``sppa.loop.SppaConfig``; never a time limit,
        which would make the trajectory depend on the clock."""
        return {
            "initial_n_pieces": self.initial_n_pieces,
            "n_pieces": self.n_pieces,
            "contract_frac": self.contract_frac,
            "max_iters": self.max_iters,
        }

    def meets(self, value: float, sense: str) -> bool:
        return value <= self.target if sense == "min" else value >= self.target


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    pass_s: float  # rough seconds of one pass here; sets passes per run
    probe: bool = False  # a probe expects to fail; check.py runs it once

    def passes(self, seconds: float) -> int:
        """Passes in a run of ``seconds``: a fixed count for a given run
        length, so the work per run does not depend on machine noise."""
        return max(1, round(seconds / self.pass_s))

    def ordered(self, seed: int) -> list[Instance]:
        """The instances in solve order: as listed for seed 0, otherwise a
        permutation drawn from the seed.  The instances never change."""
        order = list(self.instances)
        if seed:
            random.Random(seed).shuffle(order)
        return order


# Targets of the builtins are the known optima within the acceptance-gate
# tolerances (tests/test_acceptance.py).
_REFINE = (
    Instance("rosenbrock-4/4", "rosenbrock", 4, 4, target=1e-4, contract_frac=0.92,
             max_iters=150, argmin=(1.0, 1.0), argmin_tol=1e-2),
    Instance("rastrigin-6/3", "rastrigin", 6, 3, target=1e-6,
             argmin=(0.0, 0.0), argmin_tol=1e-3),
    Instance("ackley-3/3", "ackley", 3, 3, target=1e-4),
    Instance("eggholder-20/4", "eggholder", 20, 4, target=-959.6407 + 1e-2),
)

# The published 35/3 eggholder ends at -935.338, short of -959.6407, because
# the window contracts around the latest MILP point; a fix still passes.
_BIG_MILP = (
    Instance("eggholder-35/3", "eggholder", 35, 3, target=reached(-935.338)),
)

_CONSTRAINED = (
    Instance("constrained_a-3/3", "constrained_a.prob", 3, 3,
             target=reached(-0.1780503)),
    Instance("constrained_b-2/2", "constrained_b.prob", 2, 2,
             target=reached(-1.2007941)),
)

# run() raises RuntimeError(... 'numerical') at iteration 12 here; with no
# known value to aim at, any incumbent meets the target once that is fixed.
_NUMERICAL = (
    Instance("numerical-3/3", "numerical.prob", 3, 3, target=math.inf),
)

WORKLOADS = {
    w.name: w
    for w in (
        # why each workload exists: NOTES.md
        Workload("refine", _REFINE, pass_s=8.0),
        Workload("big_milp", _BIG_MILP, pass_s=19.0),
        Workload("constrained", _CONSTRAINED, pass_s=12.5),
        Workload("numerical", _NUMERICAL, pass_s=20.0, probe=True),
    )
}


def build_spec(inst: Instance, builtin, load_problem):
    """The ProblemSpec of an instance, built with the given sppa functions."""
    if inst.source.endswith(".prob"):
        return load_problem(str(PROBLEM_DIR / inst.source))
    return builtin(inst.source)


def row_violation(spec, x: np.ndarray) -> float:
    """Largest exact row violation at ``x``, each scaled by 1 + |rhs|.

    Nonlinear row terms are evaluated, not their piecewise surrogate.
    """
    worst = 0.0
    for i, row in enumerate(spec.linear_constraints):
        activity = row.activity(x)
        for term in spec.nonlinear_terms:
            if term.row == i:
                activity += term.coef * float(term.fn(x[list(term.var_ids)]))
        if row.sense == "<=":
            excess = activity - row.rhs
        elif row.sense == ">=":
            excess = row.rhs - activity
        else:
            excess = abs(activity - row.rhs)
        worst = max(worst, excess / (1.0 + abs(row.rhs)))
    return worst


def check(spec, inst: Instance, result) -> Optional[str]:
    """Why the solve of ``inst`` is wrong, or None when it is correct."""
    if result.best_point is None or result.best_objective is None:
        return f"no incumbent (termination {result.termination!r})"
    x = np.asarray(result.best_point, dtype=float)
    exact = spec.objective_value(x)
    if not abs(exact - result.best_objective) <= OBJ_TOL * (1.0 + abs(exact)):
        return f"reported objective {result.best_objective!r} but exact {exact!r}"
    violation = row_violation(spec, x)
    if not violation <= ROW_TOL:
        return f"exact row violation {violation:.3g} above {ROW_TOL:g}"
    if not inst.meets(exact, spec.sense):
        return f"objective {exact!r} misses target {inst.target!r}"
    if inst.argmin is not None:
        dist = float(np.max(np.abs(x - np.asarray(inst.argmin))))
        if not dist <= inst.argmin_tol:
            return f"best point {x.tolist()} is {dist:.3g} from {list(inst.argmin)}"
    return None
