"""Sequential piecewise planar approximation solver.

Bounded non-convex problems are approximated by piecewise-linear MILPs
built on a simplicial grid decomposition, solved with an embedded
branch-and-bound solver, and the variable domains are contracted
geometrically about each incumbent until convergence.  The solver,
``sppa.milp``, loads with a run's first model or on first access here.
"""

from sppa.loop import SppaConfig, SppaResult, contract_bounds, run
from sppa.problems import Interval, ProblemSpec, NonlinearTerm, builtin, load_problem

__version__ = "0.1.0"

__all__ = [
    "SppaConfig",
    "SppaResult",
    "contract_bounds",
    "run",
    "LpProblem",
    "solve_milp",
    "ProblemSpec",
    "NonlinearTerm",
    "builtin",
    "load_problem",
    "Interval",
]


def __getattr__(name: str):
    if name not in ("milp", "LpProblem", "solve_milp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sppa.milp as milp
    return milp if name == "milp" else getattr(milp, name)
