"""Sequential piecewise planar approximation solver.

Bounded non-convex problems are approximated by piecewise-linear MILPs
built on a simplicial grid decomposition, solved with an embedded
branch-and-bound solver, and the variable domains are contracted
geometrically about each incumbent until convergence.
"""

from sppa.loop import SppaConfig, SppaResult, contract_bounds, run
from sppa.milp import LpProblem, SolverConfig, solve_milp
from sppa.problems import ProblemSpec, NonlinearTerm, builtin, load_problem
from sppa.pwl import Grid, Interval

__version__ = "0.1.0"

__all__ = [
    "SppaConfig",
    "SppaResult",
    "contract_bounds",
    "run",
    "LpProblem",
    "SolverConfig",
    "solve_milp",
    "ProblemSpec",
    "NonlinearTerm",
    "builtin",
    "load_problem",
    "Grid",
    "Interval",
]
