"""Sequential piecewise planar approximation solver.

Bounded non-convex problems are approximated by piecewise-linear MILPs
built on a simplicial grid decomposition, solved with an embedded
branch-and-bound solver, and the variable domains are contracted
geometrically about each incumbent until convergence.
"""

from sppa.loop import SppaConfig, SppaResult, contract_bounds, run
from sppa.milp import LpProblem, solve_milp
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
