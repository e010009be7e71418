"""Self-contained mixed-integer linear solver.

LP relaxations are solved with a bounded-variable primal simplex (revised
form, sparse LU factorization of the basis refreshed every 64 pivots with
product-form updates in between).  Infeasible starting bases are repaired
by a composite phase 1 that minimizes the total bound violation, which
also lets branch-and-bound children warm-start from the parent basis.
Integer variables are handled by best-bound branch and bound, branching
on the most fractional variable.

Deliberately no cutting planes and no presolve beyond treating fixed
variables as permanently nonbasic and validating coefficient-free rows,
so behaviour stays easy to reason about and to test against brute force.
All tie-breaks are index-based; results are deterministic for identical
inputs (only ``time_limit`` consults the clock).
"""

from __future__ import annotations

import heapq
import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = [
    "LE",
    "EQ",
    "GE",
    "BIG_BOUND",
    "LinearConstraint",
    "LpProblem",
    "SolverConfig",
    "MilpResult",
    "solve_milp",
]

LE, EQ, GE = "<=", "=", ">="
BIG_BOUND = 1e9

_REFACTOR_EVERY = 64
_PIVOT_TOL = 1e-9
_STALL_LIMIT = 200  # consecutive non-improving pivots before Bland's rule kicks in

# variable status codes
_NB_LOWER, _NB_UPPER, _BASIC = 0, 1, 2


@dataclass
class LinearConstraint:
    """Sparse row ``sum(coeffs[j] * x_j) sense rhs``."""

    coeffs: dict[int, float]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in (LE, EQ, GE):
            raise ValueError(f"unknown sense {self.sense!r}")
        if not math.isfinite(self.rhs):
            raise ValueError("row rhs must be finite")
        for j, c in self.coeffs.items():
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient on variable {j}")

    def activity(self, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in self.coeffs.items()))

    def violation(self, x: np.ndarray) -> float:
        a = self.activity(x)
        if self.sense == LE:
            return max(0.0, a - self.rhs)
        if self.sense == GE:
            return max(0.0, self.rhs - a)
        return abs(a - self.rhs)


class LpProblem:
    """Growable MILP: variables with bounds/integrality, rows, linear objective."""

    def __init__(self):
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_int: list[bool] = []
        self.rows: list[LinearConstraint] = []
        self.objective: dict[int, float] = {}
        self.obj_constant = 0.0
        self.sense = "min"

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    def add_var(self, lo: float = 0.0, hi: float = math.inf, *, integer: bool = False) -> int:
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("variable bounds must not be NaN")
        if lo > hi:
            raise ValueError(f"variable lower bound {lo} exceeds upper bound {hi}")
        if integer and not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("integer variables need finite bounds")
        j = len(self.lb)
        self.lb.append(float(lo))
        self.ub.append(float(hi))
        self.is_int.append(bool(integer))
        return j

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        coeffs = {j: float(c) for j, c in coeffs.items() if c != 0.0}
        for j in coeffs:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row references unknown variable {j}")
        self.rows.append(LinearConstraint(coeffs, sense, float(rhs)))
        return len(self.rows) - 1

    def set_objective(self, coeffs: dict[int, float], constant: float = 0.0,
                      sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.objective = {j: float(c) for j, c in coeffs.items() if c != 0.0}
        self.obj_constant = float(constant)
        self.sense = sense


@dataclass
class SolverConfig:
    feas_tol: float = 1e-7
    int_tol: float = 1e-6
    rel_gap: float = 1e-6
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self):
        if min(self.feas_tol, self.int_tol, self.rel_gap) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.time_limit is not None and self.time_limit <= 0.0:
            raise ValueError("time_limit must be positive")


@dataclass
class MilpResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    bound: Optional[float]
    gap: float
    nodes: int
    iterations: int
    seconds: float


# ---------------------------------------------------------------------------
# canonical form


class _Canon:
    """Equality form: structurals then one slack per row, A x = b, l <= x <= u."""

    def __init__(self, problem: LpProblem, config: SolverConfig):
        self.problem = problem
        n = problem.n_vars
        lb = np.array(problem.lb, dtype=float)
        ub = np.array(problem.ub, dtype=float)
        capped = (~np.isfinite(lb)) | (~np.isfinite(ub))
        if capped.any():
            warnings.warn(
                f"{int(capped.sum())} variable bound(s) are infinite; capped at +/-{BIG_BOUND:g}",
                stacklevel=3,
            )
            lb = np.maximum(lb, -BIG_BOUND)
            ub = np.minimum(ub, BIG_BOUND)

        self.infeasible = False
        rows = []
        for row in problem.rows:
            if not row.coeffs:  # coefficient-free row: validate and drop
                if row.violation(np.zeros(n)) > config.feas_tol:
                    self.infeasible = True
                continue
            rows.append(row)

        m = len(rows)
        self.nstruct = n
        self.m = m
        slack_lb = np.empty(m)
        slack_ub = np.empty(m)
        b = np.empty(m)
        coo_r, coo_c, coo_v = [], [], []
        for i, row in enumerate(rows):
            b[i] = row.rhs
            for j, c in row.coeffs.items():
                coo_r.append(i)
                coo_c.append(j)
                coo_v.append(c)
            coo_r.append(i)
            coo_c.append(n + i)
            coo_v.append(1.0)
            if row.sense == LE:
                slack_lb[i], slack_ub[i] = 0.0, math.inf
            elif row.sense == GE:
                slack_lb[i], slack_ub[i] = -math.inf, 0.0
            else:
                slack_lb[i], slack_ub[i] = 0.0, 0.0

        ncols = n + m
        self.A = sp.coo_matrix((coo_v, (coo_r, coo_c)), shape=(m, ncols)).tocsc()
        self.AT = self.A.T.tocsr()
        self.b = b
        self.l = np.concatenate([lb, slack_lb])
        self.u = np.concatenate([ub, slack_ub])
        self.sign = 1.0 if problem.sense == "min" else -1.0
        c = np.zeros(ncols)
        for j, coef in problem.objective.items():
            c[j] = self.sign * coef
        self.c = c

    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        s, e = self.A.indptr[j], self.A.indptr[j + 1]
        col[self.A.indices[s:e]] = self.A.data[s:e]
        return col

    def user_objective(self, internal_value: float) -> float:
        return self.sign * internal_value + self.problem.obj_constant


# ---------------------------------------------------------------------------
# basis factorization with product-form updates


class _Basis:
    def __init__(self, canon: _Canon, basis: np.ndarray):
        B = canon.A[:, basis].tocsc()
        self.lu = splu(B)
        self.etas: list[tuple[int, np.ndarray, float]] = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        y = self.lu.solve(v)
        for r, d, dr in self.etas:
            t = y[r] / dr
            if t != 0.0:
                y = y - d * t
            y[r] = t
        return y

    def btran(self, v: np.ndarray) -> np.ndarray:
        w = v.copy()
        for r, d, dr in reversed(self.etas):
            w[r] = (w[r] * (1.0 + dr) - w @ d) / dr
        return self.lu.solve(w, trans="T")

    def push(self, r: int, d: np.ndarray):
        self.etas.append((r, d.copy(), d[r]))

    @property
    def age(self) -> int:
        return len(self.etas)


@dataclass
class _SxResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]  # internal (minimization) value, no constant
    basis: Optional[np.ndarray]
    vstat: Optional[np.ndarray]
    iterations: int


def _simplex(canon: _Canon, l: np.ndarray, u: np.ndarray, config: SolverConfig,
             basis: Optional[np.ndarray] = None, vstat: Optional[np.ndarray] = None,
             deadline: Optional[float] = None) -> _SxResult:
    """Bounded-variable primal simplex on the canonical equality form."""
    m, n, ncols = canon.m, canon.nstruct, canon.nstruct + canon.m
    feas_tol = config.feas_tol

    if np.any(l > u + feas_tol):
        return _SxResult("infeasible", None, None, None, None, 0)

    c = canon.c
    dtol = 1e-9 * (1.0 + (float(np.max(np.abs(c))) if c.size else 0.0))

    if m == 0:
        x = np.where(c > 0.0, l, np.where(c < 0.0, u, np.where(np.abs(l) <= np.abs(u), l, u)))
        if not np.all(np.isfinite(x)):
            return _SxResult("unbounded", None, None, None, None, 0)
        return _SxResult("optimal", x, float(c @ x), np.empty(0, dtype=int),
                         np.full(ncols, _NB_LOWER, dtype=np.int8), 0)

    if basis is None:
        basis = np.arange(n, n + m)
        vstat = np.full(ncols, _NB_LOWER, dtype=np.int8)
        vstat[basis] = _BASIC
        # nonbasic structurals sit on the finite bound nearest zero
        for j in range(n):
            if not math.isfinite(l[j]):
                vstat[j] = _NB_UPPER
            elif math.isfinite(u[j]) and abs(u[j]) < abs(l[j]):
                vstat[j] = _NB_UPPER
    else:
        basis = basis.copy()
        vstat = vstat.copy()

    def nonbasic_values() -> np.ndarray:
        x = np.where(vstat == _NB_UPPER, u, l)
        x[basis] = 0.0
        return x

    def recompute_basics(x: np.ndarray, fac: _Basis):
        x[basis] = 0.0
        x[basis] = fac.ftran(canon.b - canon.A @ x)

    try:
        factors = _Basis(canon, basis)
    except RuntimeError:
        return _SxResult("numerical", None, None, None, None, 0)
    x = nonbasic_values()
    recompute_basics(x, factors)

    iter_limit = 20_000 + 50 * m
    iters = 0
    bland = False
    stall = 0
    last_obj = math.inf
    concluding_refresh = False

    while True:
        if iters >= iter_limit:
            return _SxResult("iteration_limit", None, None, None, None, iters)
        if deadline is not None and iters % 16 == 0 and time.perf_counter() > deadline:
            return _SxResult("time_limit", None, None, None, None, iters)

        xb = x[basis]
        lB, uB = l[basis], u[basis]
        below = lB - xb > feas_tol
        above = xb - uB > feas_tol
        phase1 = bool(below.any() or above.any())

        if phase1:
            cB = np.where(below, -1.0, 0.0) + np.where(above, 1.0, 0.0)
            obj = float(np.sum((lB - xb)[below]) + np.sum((xb - uB)[above]))
            cvec = None
        else:
            cB = c[basis]
            obj = float(c @ x)
            cvec = c

        # pricing
        y = factors.btran(cB)
        d = (cvec if cvec is not None else 0.0) - canon.AT @ y
        open_bounds = u - l > 0.0
        cand_lo = (vstat == _NB_LOWER) & open_bounds & (d < -dtol)
        cand_up = (vstat == _NB_UPPER) & open_bounds & (d > dtol)
        cand = cand_lo | cand_up

        if not cand.any():
            # before concluding, refresh the factorization once to kill drift
            if not concluding_refresh:
                try:
                    factors = _Basis(canon, basis)
                except RuntimeError:
                    return _SxResult("numerical", None, None, None, None, iters)
                recompute_basics(x, factors)
                concluding_refresh = True
                continue
            if phase1:
                return _SxResult("infeasible", None, None, None, None, iters)
            return _SxResult("optimal", x, float(c @ x), basis, vstat, iters)
        concluding_refresh = False

        if bland:
            q = int(np.flatnonzero(cand)[0])
        else:
            scores = np.where(cand, np.abs(d), -1.0)
            q = int(np.argmax(scores))
        sigma = 1.0 if cand_lo[q] else -1.0

        w = factors.ftran(canon.column(q))
        rate = -sigma * w

        # ratio test (two passes; infeasible basics block when they reach the
        # violated bound, feasible basics at the bound they move towards)
        usable = np.abs(w) > _PIVOT_TOL
        theta = np.full(m, math.inf)
        relaxed = np.full(m, math.inf)
        pos = usable & (rate > 0.0)
        neg = usable & (rate < 0.0)

        tgt_pos = np.where(below, lB, uB)       # rising: violated-lower vars stop at l
        tgt_neg = np.where(above, uB, lB)       # falling: violated-upper vars stop at u
        blk_pos = pos & ~above                  # rising basics above u never block tighter
        blk_neg = neg & ~below
        with np.errstate(invalid="ignore", divide="ignore"):
            theta[blk_pos] = (tgt_pos[blk_pos] - xb[blk_pos]) / rate[blk_pos]
            relaxed[blk_pos] = (tgt_pos[blk_pos] - xb[blk_pos] + feas_tol) / rate[blk_pos]
            theta[blk_neg] = (xb[blk_neg] - tgt_neg[blk_neg]) / (-rate[blk_neg])
            relaxed[blk_neg] = (xb[blk_neg] - tgt_neg[blk_neg] + feas_tol) / (-rate[blk_neg])
        theta = np.maximum(theta, 0.0)
        relaxed = np.maximum(relaxed, 0.0)

        theta_own = u[q] - l[q]  # entering variable may flip to its other bound
        theta_max = float(np.min(relaxed))

        if not math.isfinite(theta_max) and not math.isfinite(theta_own):
            if phase1:
                return _SxResult("numerical", None, None, None, None, iters)
            return _SxResult("unbounded", None, None, None, None, iters)

        if theta_own <= theta_max:
            # bound flip, no basis change
            x[basis] = xb + rate * theta_own
            x[q] = u[q] if vstat[q] == _NB_LOWER else l[q]
            vstat[q] = _NB_UPPER if vstat[q] == _NB_LOWER else _NB_LOWER
            iters += 1
            continue

        ties = np.flatnonzero(theta <= theta_max)
        if ties.size == 0:
            # numerical corner: relaxed pass found a blocker but exact pass did not
            ties = np.array([int(np.argmin(relaxed))])
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[np.argmax(np.abs(w[ties]))])
        step = float(theta[r])

        leaving = int(basis[r])
        x[basis] = xb + rate * step
        x[q] = (l[q] if vstat[q] == _NB_LOWER else u[q]) + sigma * step
        # snap the leaving variable onto the bound that blocked
        if rate[r] > 0.0:
            to_upper = not below[r]
            x[leaving] = tgt_pos[r]
        else:
            to_upper = bool(above[r])
            x[leaving] = tgt_neg[r]
        vstat[leaving] = _NB_UPPER if to_upper else _NB_LOWER
        vstat[q] = _BASIC
        basis[r] = q
        factors.push(r, w)
        iters += 1

        if factors.age >= _REFACTOR_EVERY:
            try:
                factors = _Basis(canon, basis)
            except RuntimeError:
                return _SxResult("numerical", None, None, None, None, iters)
            recompute_basics(x, factors)

        # cycling watch: engage Bland's rule after a run of non-improving pivots
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        last_obj = obj


# ---------------------------------------------------------------------------
# public entry point


def _check_solution(problem: LpProblem, x: np.ndarray, feas_tol: float) -> bool:
    for row in problem.rows:
        scale = 1.0 + abs(row.rhs)
        if row.violation(x) > feas_tol * scale * 10.0:
            return False
    return True


def _fractional(x: np.ndarray, int_idx: np.ndarray, int_tol: float) -> np.ndarray:
    vals = x[int_idx]
    return int_idx[np.abs(vals - np.round(vals)) > int_tol]


def solve_milp(problem: LpProblem, config: Optional[SolverConfig] = None) -> MilpResult:
    """Best-bound branch and bound over the integer variables.

    Returns an incumbent with relative gap <= ``rel_gap``, or the best
    incumbent plus the proven dual bound when a node/time limit stops the
    search ('no_incumbent' if nothing integer-feasible was found).  A model
    without integer variables is one simplex solve at the root.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + config.time_limit if config.time_limit is not None else None
    canon = _Canon(problem, config)
    if canon.infeasible:
        return MilpResult("infeasible", None, None, None, math.inf, 0, 0,
                          time.perf_counter() - t0)

    n = problem.n_vars
    int_idx = np.flatnonzero(np.array(problem.is_int, dtype=bool))
    sign = canon.sign

    def user_val(internal: Optional[float]) -> Optional[float]:
        return None if internal is None else canon.user_objective(internal)

    incumbent_x = None
    incumbent_obj = math.inf  # internal minimization value
    total_iters = 0
    nodes = 0
    stop_status = None

    def gap_of(inc: float, bnd: float) -> float:
        if not math.isfinite(inc):
            return math.inf
        return max(0.0, inc - bnd) / max(1.0, abs(inc))

    # heap entries: (bound, -depth, seq, l_over, u_over, basis, vstat);
    # best bound first, deeper node on ties, insertion order last (seq is
    # unique, so dicts/arrays never get compared)
    seq = 0
    heap: list = [(-math.inf, 0, seq, {}, {}, None, None)]
    while heap:
        peek_bound = heap[0][0]
        if incumbent_x is not None and gap_of(incumbent_obj, peek_bound) <= config.rel_gap:
            break
        if config.node_limit is not None and nodes >= config.node_limit:
            stop_status = "node_limit"
            break
        if deadline is not None and time.perf_counter() > deadline:
            stop_status = "time_limit"
            break
        _, negdepth, _, l_over, u_over, basis, vstat = heapq.heappop(heap)

        nodes += 1
        l = canon.l.copy()
        u = canon.u.copy()
        for j, v in l_over.items():
            l[j] = max(l[j], v)
        for j, v in u_over.items():
            u[j] = min(u[j], v)

        res = _simplex(canon, l, u, config, basis=basis, vstat=vstat, deadline=deadline)
        total_iters += res.iterations
        if res.status == "infeasible":
            continue
        if res.status in ("time_limit", "iteration_limit", "numerical"):
            stop_status = "time_limit" if res.status == "time_limit" else res.status
            break
        if res.status == "unbounded":
            return MilpResult("unbounded", None, None, None, math.inf, nodes,
                              total_iters, time.perf_counter() - t0)

        node_bound = res.objective
        if node_bound >= incumbent_obj - config.rel_gap * max(1.0, abs(incumbent_obj)):
            continue

        frac = _fractional(res.x, int_idx, config.int_tol)
        if frac.size == 0:
            if node_bound < incumbent_obj:
                incumbent_obj = node_bound
                incumbent_x = res.x[:n].copy()
            continue

        # branch on the most fractional variable, ties by lowest id
        fr = res.x[frac] - np.floor(res.x[frac])
        scores = np.abs(fr - 0.5)
        j = int(frac[np.argmin(scores)])
        xj = float(res.x[j])
        for child_l, child_u in (
            (dict(l_over), {**u_over, j: math.floor(xj)}),
            ({**l_over, j: math.ceil(xj)}, dict(u_over)),
        ):
            seq += 1
            heapq.heappush(heap, (node_bound, negdepth - 1, seq,
                                  child_l, child_u, res.basis, res.vstat))

    elapsed = time.perf_counter() - t0
    open_bounds = [entry[0] for entry in heap]
    best_bound = min(open_bounds) if open_bounds else incumbent_obj
    best_bound = min(best_bound, incumbent_obj)

    if incumbent_x is None:
        if stop_status is not None:
            # searches cut off by a limit report 'no_incumbent' with the dual
            # bound; genuine solver failures keep their own status
            status = ("no_incumbent" if stop_status in ("time_limit", "node_limit")
                      else stop_status)
            bound_u = user_val(best_bound) if open_bounds else None
            return MilpResult(status, None, None, bound_u, math.inf, nodes,
                              total_iters, elapsed)
        return MilpResult("infeasible", None, None, None, math.inf, nodes,
                          total_iters, elapsed)

    gap = gap_of(incumbent_obj, best_bound)
    status = stop_status if (stop_status is not None and gap > config.rel_gap) else "optimal"
    if not _check_solution(problem, incumbent_x, config.feas_tol):
        status = "numerical"
    return MilpResult(status, incumbent_x, user_val(incumbent_obj), user_val(best_bound),
                      gap, nodes, total_iters, elapsed)
