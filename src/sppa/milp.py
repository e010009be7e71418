"""Self-contained mixed-integer linear solver.

Every column is boxed: variable bounds must be finite, and each row's
slack is bounded by the row's activity range over the variable box.  LP
relaxations are solved by one bounded dual simplex (revised form over the
dense basis matrix, solved by LU with partial pivoting and refreshed after
every pivot; largest-violation pricing and the bound-flipping ratio test).
With every column boxed, a basis is dual feasible once each nonbasic column
sits at the bound its reduced cost favours, so with no phase 1 the root
starts from a given basis (the previous outer iteration's) or the slack
basis, and each branch-and-bound child from its parent's optimal basis and
bound statuses.

Integer variables are handled by best-bound branch and bound.  A problem
may also declare lattice sets: weights in [0, 1] that sum to 1, one per
vertex of a whole grid in row-major order, such as the weights of one
piecewise-linear term.  A set's weights above ``_INT_TOL`` must lie on one
Kuhn simplex of the grid; a node whose LP solution leaves them spread wider
branches on one integer key of the vertex index, an axis index or the
difference of two, and each child sets the upper bounds of the weights on
one side of the split to 0 (see ``_balanced_cut``).  Integers are branched
on singly, most fractional first, once every set is valid.

Deliberately no cutting planes and no presolve beyond rounding integer
bounds inward, treating fixed variables as permanently nonbasic and
validating coefficient-free rows, so behaviour stays easy to reason about
and to test against brute force.
All tie-breaks are index-based; results are deterministic for identical
inputs (only the ``deadline`` of ``solve_milp`` consults the clock).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "LE",
    "EQ",
    "GE",
    "LinearConstraint",
    "LpProblem",
    "MilpResult",
    "NODE_OUTCOMES",
    "ROW_TOL",
    "solve_milp",
]

LE, EQ, GE = "<=", "=", ">="

_FEAS_TOL = 1e-7  # primal feasibility
# the largest row violation an accepted point may have, relative to 1 + |rhs|
ROW_TOL = 10.0 * _FEAS_TOL
_INT_TOL = 1e-6  # integrality
_REL_GAP = 1e-6  # relative optimality gap that ends the search
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

    def violation(self, x: np.ndarray, shift: float = 0.0) -> float:
        """How far the row is from holding at ``x``, ``shift`` added to its activity."""
        a = self.activity(x) + shift
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
        self.lattice_sets: list[tuple[np.ndarray, np.ndarray]] = []  # (ids, vertex index)

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    def add_var(self, lo: float, hi: float, *, integer: bool = False) -> int:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"variable bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"variable lower bound {lo} exceeds upper bound {hi}")
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

    def add_lattice_set(self, ids, shape) -> int:
        """Append the row ``sum(x_j for j in ids) = 1`` over variables bounded
        in [0, 1], the vertices of a grid of ``shape`` in row-major order,
        and declare them a lattice set for branching.  Returns the row index."""
        ids = np.asarray(ids, dtype=np.intp)
        if (ids.ndim != 1 or np.unique(ids).size != ids.size or not shape
                or min(shape) < 1 or ids.size != math.prod(shape)):
            raise ValueError("a lattice set needs one distinct id per vertex of its grid")
        if not all(0 <= j < self.n_vars and self.lb[j] >= 0.0 and self.ub[j] <= 1.0
                   for j in ids.tolist()):
            raise ValueError("every lattice set member must be a variable bounded in [0, 1]")
        row = self.add_row(dict.fromkeys(ids.tolist(), 1.0), EQ, 1.0)
        self.lattice_sets.append((ids, np.indices(shape).reshape(len(shape), -1).T))
        return row

    def set_objective(self, coeffs: dict[int, float], constant: float = 0.0,
                      sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not math.isfinite(constant):
            raise ValueError("objective constant must be finite")
        for j, c in coeffs.items():
            if not 0 <= j < self.n_vars:
                raise ValueError(f"objective references unknown variable {j}")
            if not math.isfinite(c):
                raise ValueError(f"non-finite objective coefficient on variable {j}")
        self.objective = {j: float(c) for j, c in coeffs.items() if c != 0.0}
        self.obj_constant = float(constant)
        self.sense = sense


# how a solved node ends: split on a lattice set, branched on one integer,
# integral, infeasible, or cut off by the incumbent
NODE_OUTCOMES = ("set_branched", "var_branched", "integral", "infeasible", "cutoff")


@dataclass
class MilpResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]
    bound: Optional[float]
    gap: float
    nodes: int
    iterations: int
    factorizations: int = 0
    root_pivots: int = 0
    start: Optional[_Start] = None  # the root's optimal basis, for a same-shaped model
    # nodes per NODE_OUTCOMES entry; a node the deadline stops counts in none
    outcomes: dict[str, int] = field(default_factory=lambda: dict.fromkeys(NODE_OUTCOMES, 0))


# ---------------------------------------------------------------------------
# canonical form


class _Canon:
    """Equality form: structurals then one slack per row, A x = b, l <= x <= u.

    Every column is boxed.  Structural bounds are finite by construction,
    and the slack of row i, ``b_i - a_i x``, is bounded by ``b_i`` minus the
    row's activity range over the box; a branch-and-bound child's box lies
    inside the root's, so these slack bounds hold at every node.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        n = problem.n_vars
        lb = np.array(problem.lb, dtype=float)
        ub = np.array(problem.ub, dtype=float)
        # integer bounds rounded inward, so a nonbasic column is never fractional
        is_int = np.array(problem.is_int, dtype=bool)
        lb[is_int], ub[is_int] = np.ceil(lb[is_int]), np.floor(ub[is_int])

        # coefficient-free rows are dropped, judged as an incumbent's rows are
        rows = [row for row in problem.rows if row.coeffs]
        self.infeasible = not _rows_hold([r for r in problem.rows if not r.coeffs], np.zeros(n))

        m = len(rows)
        self.nstruct = n
        self.m = m
        b = np.array([row.rhs for row in rows], dtype=float)
        A = np.zeros((m, n + m))
        for i, row in enumerate(rows):
            A[i, list(row.coeffs)] = list(row.coeffs.values())
        A[:, n:] = np.eye(m)
        self.A = A
        self.b = b
        S = A[:, :n]
        pos, neg = np.maximum(S, 0.0), np.minimum(S, 0.0)
        slack_lb = b - (pos @ ub + neg @ lb)
        slack_ub = b - (pos @ lb + neg @ ub)
        ge = np.array([row.sense == GE for row in rows], dtype=bool)
        le = np.array([row.sense == LE for row in rows], dtype=bool)
        slack_lb = np.where(ge, slack_lb, np.maximum(slack_lb, 0.0))  # <= and = rows
        slack_ub = np.where(le, slack_ub, np.minimum(slack_ub, 0.0))  # >= and = rows
        self.l = np.concatenate([lb, slack_lb])
        self.u = np.concatenate([ub, slack_ub])
        self.sign = 1.0 if problem.sense == "min" else -1.0
        c = np.zeros(n + m)
        for j, coef in problem.objective.items():
            c[j] = self.sign * coef
        self.c = c

    def user_objective(self, internal_value: float) -> float:
        return self.sign * internal_value + self.problem.obj_constant


# ---------------------------------------------------------------------------
# the basis


class _Basis:
    """The basis matrix; each solve factorizes it by LU with partial
    pivoting (``np.linalg.solve``, never an explicit inverse) and raises
    ``np.linalg.LinAlgError`` when it is singular."""

    def __init__(self, canon: _Canon, basis: np.ndarray):
        self.B = canon.A[:, basis]

    def ftran(self, v: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.B, v)

    def btran(self, v: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.B.T, v)


@dataclass
class _Start:
    """A basis and its nonbasic bound statuses."""

    basis: np.ndarray
    vstat: np.ndarray


@dataclass
class _SxResult:
    status: str
    x: Optional[np.ndarray]
    objective: Optional[float]  # internal (minimization) value, no constant
    start: Optional[_Start]  # the optimal state, for the children
    iterations: int
    factorizations: int


def _simplex(canon: _Canon, l: np.ndarray, u: np.ndarray, start: Optional[_Start] = None,
             deadline: Optional[float] = None, cutoff: float = math.inf) -> _SxResult:
    """Bounded dual simplex on the canonical equality form.

    Starts from ``start`` (the slack basis when None), which is dual
    feasible once every nonbasic column sits at the bound its reduced cost
    favours; a column whose reduced cost is within tolerance of zero keeps
    its bound.  Every basis, the start's and each one a pivot reaches, is
    factorized afresh, and its reduced costs and primal values are
    recomputed from the bound statuses.  A singular basis sends the solve
    back to the slack basis once; a second one ends it with status
    'numerical'.  Each pivot removes the basic variable with the largest
    bound violation.  The ratio test passes every breakpoint the dual
    objective still rises through, flipping those columns to their other
    bound, and enters the column at the next one (largest |alpha| on ties,
    then the lowest index).  The objective of every basis visited is a
    lower bound on the optimum, so the solve stops with status 'cutoff'
    once it reaches ``cutoff``.  ``iterations`` counts basis changes and
    ``factorizations`` the bases factorized.
    """
    m, n = canon.m, canon.nstruct
    iters = n_factor = 0

    def stop(status: str) -> _SxResult:
        return _SxResult(status, None, None, None, iters, n_factor)

    if np.any(l > u + _FEAS_TOL):
        return stop("infeasible")

    A, c = canon.A, canon.c
    dtol = 1e-9 * (1.0 + (float(np.max(np.abs(c))) if c.size else 0.0))
    movable = u > l
    range_ = u - l

    def slack_start():
        basis = np.arange(n, n + m)
        # nonbasic columns start on the bound nearest zero
        vstat = np.where(np.abs(u) < np.abs(l), _NB_UPPER, _NB_LOWER).astype(np.int8)
        vstat[basis] = _BASIC
        return basis, vstat

    basis, vstat = slack_start() if start is None else (start.basis.copy(), start.vstat.copy())
    iter_limit = 20_000 + 50 * m
    bland = False
    stall = 0
    last_obj = -math.inf
    from_slack = start is None

    while True:
        # factorize, recompute the reduced costs, move each nonbasic column
        # whose reduced cost has the wrong sign to its other bound, and
        # recompute the primal values
        n_factor += 1
        try:
            factors = _Basis(canon, basis)
            d = c - factors.btran(c[basis]) @ A
            d[basis] = 0.0
            vstat[(vstat == _NB_LOWER) & movable & (d < -dtol)] = _NB_UPPER
            vstat[(vstat == _NB_UPPER) & movable & (d > dtol)] = _NB_LOWER
            x = np.where(vstat == _NB_UPPER, u, l)
            x[basis] = 0.0
            x[basis] = factors.ftran(canon.b - A @ x)
        except np.linalg.LinAlgError:  # a singular basis: start again from the slack basis, once
            if from_slack:
                return stop("numerical")
            basis, vstat = slack_start()
            from_slack, last_obj = True, -math.inf
            continue

        obj = float(c @ x)  # the basis is dual feasible: a lower bound on the optimum
        if obj >= cutoff:
            return stop("cutoff")
        # cycling watch: engage Bland's rule after a run of pivots that do not
        # raise the dual objective
        if obj - last_obj > 1e-12 * (1.0 + abs(obj)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        last_obj = obj
        if iters >= iter_limit:
            return stop("iteration_limit")
        if deadline is not None and iters % 16 == 0 and time.perf_counter() > deadline:
            return stop("time_limit")

        xb = x[basis]
        viol = np.maximum(l[basis] - xb, xb - u[basis])
        infeasible_rows = np.flatnonzero(viol > _FEAS_TOL)
        if not infeasible_rows.size:
            return _SxResult("optimal", x, obj, _Start(basis, vstat), iters, n_factor)

        # pricing: the basic variable with the largest bound violation
        # (Bland: the one with the lowest column index)
        if bland:
            r = int(infeasible_rows[np.argmin(basis[infeasible_rows])])
        else:
            r = int(np.argmax(viol))
        p = int(basis[r])
        s = 1.0 if xb[r] > u[p] else -1.0  # the leaving variable goes to u (s=1) or l
        e = np.zeros(m)
        e[r] = 1.0
        alpha = factors.btran(e) @ A  # row r of B^-1 A

        # bound-flipping ratio test over the columns whose reduced cost moves
        # towards zero as the dual step t grows
        sa = s * alpha
        at_lower = vstat == _NB_LOWER
        cand = np.flatnonzero(movable & ((at_lower & (sa > _PIVOT_TOL))
                                         | ((vstat == _NB_UPPER) & (sa < -_PIVOT_TOL))))
        a = np.abs(alpha[cand])
        dual_slack = np.where(at_lower[cand], d[cand], -d[cand])
        ratio = np.maximum(dual_slack, 0.0) / a
        slope = float(viol[r])  # the dual objective's rate of increase in t
        open_ = np.ones(cand.size, dtype=bool)
        flipped = []
        k = -1
        while open_.any():
            group = np.flatnonzero(open_ & (ratio <= ratio[open_].min()))
            slope -= float(a[group] @ range_[cand[group]])
            if slope <= _FEAS_TOL:  # x_p reaches its bound inside this group
                k = int(group[np.argmin(cand[group])] if bland else group[np.argmax(a[group])])
                break
            flipped.append(group)
            open_[group] = False

        if k < 0:  # the dual rises without bound: the primal is infeasible
            return stop("infeasible")
        if flipped:
            fl = cand[np.concatenate(flipped)]
            vstat[fl] = np.where(at_lower[fl], _NB_UPPER, _NB_LOWER)
        vstat[p] = _NB_UPPER if s > 0.0 else _NB_LOWER
        q = int(cand[k])
        vstat[q] = _BASIC
        basis[r] = q
        iters += 1


# ---------------------------------------------------------------------------
# public entry point


def _rows_hold(rows: list[LinearConstraint], x: np.ndarray) -> bool:
    return all(row.violation(x) <= ROW_TOL * (1.0 + abs(row.rhs)) for row in rows)


def _fractional(x: np.ndarray, int_idx: np.ndarray) -> np.ndarray:
    vals = x[int_idx]
    return int_idx[np.abs(vals - np.round(vals)) > _INT_TOL]


def _balanced_cut(lattice_sets: list, x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The ids each child sets to 0 when branching on a lattice set, or None
    when every set's support lies in one Kuhn simplex.

    A set's support is its weights above ``_INT_TOL``; it lies in one
    simplex exactly when each integer key of the vertex index, every axis
    index ``idx_k`` and every diagonal ``idx_i - idx_j`` (i < j), spans at
    most 1 over it.  The set is the invalid one whose largest weight is
    smallest, the lowest index on ties.  Its key is the axis, or failing
    that the diagonal, whose support spans widest, and among those the one
    that balances best, the lowest key on ties.  The split ``s`` lies
    strictly inside the key's span, where the support weight with key below
    ``s`` and the one with key above it are closest, the lowest ``s`` on
    ties.  One child drops every weight with key above ``s``, the other
    every weight with key below it; a simplex spans at most 1 in the key,
    so each one survives in a child, and each child drops support weight.
    """
    chosen, top = None, math.inf
    for ids, index in lattice_sets:
        v = x[ids]
        on = v > _INT_TOL
        pairs = [(i, j) for i in range(index.shape[1]) for j in range(i + 1, index.shape[1])]
        diagonals = index[:, [i for i, _ in pairs]] - index[:, [j for _, j in pairs]]
        for keys in (index, diagonals):
            span = keys[on].max(axis=0) - keys[on].min(axis=0)
            if span.max(initial=0) >= 2:
                if v.max() < top:
                    chosen, top = (ids, keys[:, span == span.max()], v, on), float(v.max())
                break
    if chosen is None:
        return None
    ids, keys, v, on = chosen
    best = None
    for key in keys.T:
        lo = int(key[on].min())
        total = np.cumsum(np.bincount(key[on] - lo, weights=v[on]))
        # the support weight with key below and above s, for s = lo+1 .. max-1
        imbalance = np.abs(total[:-2] - (total[-1] - total[1:-1]))
        t = int(np.argmin(imbalance))
        if best is None or imbalance[t] < best[0]:
            best = (imbalance[t], key, lo + 1 + t)
    _, key, s = best
    return ids[key > s], ids[key < s]


def solve_milp(problem: LpProblem, deadline: Optional[float] = None,
               start: Optional[_Start] = None) -> MilpResult:
    """Best-bound branch and bound over the integer variables.

    A node splits a lattice set whose support spans more than one simplex
    when it has one (see ``_balanced_cut``), and otherwise branches on the
    most fractional integer, the lowest id on ties.  The root starts from
    ``start`` (a ``MilpResult.start``) when its shape matches this model's
    canonical form, else from the slack basis.
    Returns an incumbent, with its integer components rounded, whose
    relative gap is at most ``_REL_GAP``.  When the ``time.perf_counter()``
    ``deadline`` passes, the search stops with status 'time_limit' and the
    proven dual bound, plus the best incumbent if it has one (``x`` is None
    otherwise).  A model without integer variables or lattice sets is one
    simplex solve at the root.
    """
    canon = _Canon(problem)
    n = problem.n_vars
    int_idx = np.flatnonzero(np.array(problem.is_int, dtype=bool))
    outcomes = dict.fromkeys(NODE_OUTCOMES, 0)

    if start is not None and (start.basis.size != canon.m
                              or start.vstat.size != canon.nstruct + canon.m):
        start = None
    incumbent_x = None
    incumbent_obj = math.inf  # internal minimization value
    total_iters = total_factor = root_iters = 0
    root_start = None
    nodes = 0
    stop_status = None

    def gap_of(inc: float, bnd: float) -> float:
        if not math.isfinite(inc):
            return math.inf
        return max(0.0, inc - bnd) / max(1.0, abs(inc))

    # heap entries: (bound, -depth, seq, l_over, u_over, start), both children
    # sharing their parent's start; best bound first, deeper node on ties,
    # insertion order last (seq is unique, so dicts/arrays never get compared)
    seq = 0
    heap: list = [] if canon.infeasible else [(-math.inf, 0, seq, {}, {}, start)]
    while heap:
        peek_bound = heap[0][0]
        if incumbent_x is not None and gap_of(incumbent_obj, peek_bound) <= _REL_GAP:
            break
        if deadline is not None and time.perf_counter() > deadline:
            stop_status = "time_limit"
            break
        _, negdepth, _, l_over, u_over, start = node = heapq.heappop(heap)

        nodes += 1
        l = canon.l.copy()
        u = canon.u.copy()
        for j, v in l_over.items():
            l[j] = max(l[j], v)
        for j, v in u_over.items():
            u[j] = min(u[j], v)

        # a node whose bound cannot improve the incumbent by the gap is pruned
        cutoff = (math.inf if incumbent_x is None
                  else incumbent_obj - _REL_GAP * max(1.0, abs(incumbent_obj)))
        res = _simplex(canon, l, u, start, deadline=deadline, cutoff=cutoff)
        total_iters += res.iterations
        total_factor += res.factorizations
        if nodes == 1:
            root_iters, root_start = res.iterations, res.start
        if res.status in ("time_limit", "iteration_limit", "numerical"):
            stop_status = res.status
            heapq.heappush(heap, node)  # unsolved, so its bound still counts
            break
        if res.status == "infeasible":
            outcomes["infeasible"] += 1
            continue
        node_bound = res.objective
        if res.status == "cutoff" or node_bound >= cutoff:
            outcomes["cutoff"] += 1
            continue

        split = _balanced_cut(problem.lattice_sets, res.x)
        frac = _fractional(res.x, int_idx)
        if split is None and not frac.size:
            outcomes["integral"] += 1
            x = res.x.copy()  # integral within _INT_TOL: report the integers
            x[int_idx] = np.round(x[int_idx])
            obj = float(canon.c @ x)
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent_x = x[:n]
            continue
        if split is not None:
            outcomes["set_branched"] += 1
            children = [(l_over, {**u_over, **dict.fromkeys(side.tolist(), 0.0)})
                        for side in split]
        else:  # the most fractional integer, ties by lowest id
            outcomes["var_branched"] += 1
            fr = res.x[frac] - np.floor(res.x[frac])
            j = int(frac[np.argmin(np.abs(fr - 0.5))])
            xj = float(res.x[j])
            children = [(l_over, {**u_over, j: math.floor(xj)}),
                        ({**l_over, j: math.ceil(xj)}, u_over)]
        for child_l, child_u in children:
            seq += 1
            heapq.heappush(heap, (node_bound, negdepth - 1, seq, child_l, child_u, res.start))

    # the incumbent's or the best open node's; infinite (no bound) after an exhausted tree
    best_bound = min([incumbent_obj] + [entry[0] for entry in heap])
    gap = gap_of(incumbent_obj, best_bound)
    if stop_status is not None and gap > _REL_GAP:
        status = stop_status
    else:
        status = "infeasible" if incumbent_x is None else "optimal"
    if incumbent_x is not None and not _rows_hold(problem.rows, incumbent_x):
        status = "numerical"
    return MilpResult(status, incumbent_x,
                      None if incumbent_x is None else canon.user_objective(incumbent_obj),
                      canon.user_objective(best_bound) if math.isfinite(best_bound) else None,
                      gap, nodes, total_iters, total_factor, root_iters, root_start, outcomes)
