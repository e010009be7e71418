"""Self-contained mixed-integer linear solver.

Every column is boxed: variable bounds must be finite, and each row's
slack is bounded by the row's activity range over the variable box.  LP
relaxations are solved by one bounded dual simplex (revised form over the
dense basis matrix, solved by LU with partial pivoting, LAPACK ``gesv``
through the gufunc behind ``np.linalg.solve`` under one floating-point
error state per solve, and refreshed after every pivot; largest-violation
pricing and the bound-flipping ratio test).
With every column boxed, a basis is dual feasible once each nonbasic column
sits at the bound its reduced cost favours, so with no phase 1 the root
starts from a given basis (the previous outer iteration's, or for a model
of a new shape a crash basis its builder reads off the model's structure)
or the slack basis, and each branch-and-bound child from its parent's
optimal basis and bound statuses.  A start that carries no bound statuses
rests each nonbasic column on its bound nearest zero, the lower one on a
tie (``_rest``), until its reduced cost favours the other.

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

import bisect
import itertools
import math
import time
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "LE",
    "EQ",
    "GE",
    "COUNTERS",
    "LinearConstraint",
    "LpProblem",
    "MilpResult",
    "ROW_TOL",
    "row_violation",
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

# variable status codes, and by status the sign of a column's move away
# from its bound (0: a basic column is no ratio-test candidate)
_NB_LOWER, _NB_UPPER, _BASIC = 0, 1, 2
_SIGN = np.array([1.0, -1.0, 0.0])
_FAR = np.iinfo(np.intp).max // 4  # a lattice key no set reaches: an empty support spans below 0


class LinearConstraint:
    """Sparse row ``sum(coeffs[j] * x_j) sense rhs``."""

    def __init__(self, coeffs: dict[int, float], sense: str, rhs: float):
        if sense not in (LE, EQ, GE):
            raise ValueError(f"unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError("row rhs must be finite")
        for j, c in coeffs.items():
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient on variable {j}")
        self.coeffs, self.sense, self.rhs = coeffs, sense, rhs

    def activity(self, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in self.coeffs.items()))


def row_violation(activity, senses, rhs) -> float:
    """The largest ``max(0, excess) / (1 + |rhs|)`` over rows of these ``senses``
    and ``rhs`` at ``activity``, ``excess`` being how far it lies on the wrong
    side of the rhs; 0.0 with no rows.  Rows hold when it is at most ``ROW_TOL``."""
    worst = 0.0
    for a, sense, b in zip(activity, senses, rhs):
        r = a - b
        excess = r if sense == LE else -r if sense == GE else abs(r)
        worst = max(worst, excess / (1.0 + abs(b)))
    return float(worst)


class LpProblem:
    """A MILP as arrays, ``lb <= x <= ub``, ``A x (senses) rhs``, objective ``c x +
    obj_constant``, made at its final shape: ``n_vars`` columns and a row
    per entry of ``senses``, every bound, coefficient and right-hand side 0,
    no integer column, minimized.  The caller writes the values by slices,
    ``is_int`` and ``sense`` included, every bound finite, and may rewrite
    them in place between solves (see ``solve_milp``).  A lattice set goes
    into ``lattice_sets`` as ``(ids, index)``: the ids of weights bounded in
    [0, 1], one per vertex of a whole grid in row-major order, whose row
    ``sum(x_j for j in ids) = 1`` the model holds, and each weight's vertex
    multi-index, a row of ``index``."""

    def __init__(self, n_vars: int = 0, senses: Sequence[str] = ()):
        if not set(senses) <= {LE, EQ, GE}:
            raise ValueError(f"unknown sense in {senses!r}")
        self.lb, self.ub, self.c = np.zeros(n_vars), np.zeros(n_vars), np.zeros(n_vars)
        self.is_int = np.zeros(n_vars, dtype=bool)
        self.A, self.rhs = np.zeros((len(senses), n_vars)), np.zeros(len(senses))
        self.senses = list(senses)
        self.obj_constant = 0.0
        self.sense = "min"
        self.lattice_sets: list[tuple[np.ndarray, np.ndarray]] = []  # (ids, vertex index)
        self._canon: Optional[_Canon] = None  # built by solve_milp for this problem

    @property
    def n_vars(self) -> int:
        return self.lb.size


# the solver's counters, in trace order; nodes_<outcome> counts the nodes that end
# that way, and a node the deadline stops counts in none of them
COUNTERS = ("nodes", "pivots", "root_pivots", "factorizations", "nodes_set_branched",
            "nodes_var_branched", "nodes_integral", "nodes_infeasible", "nodes_cutoff")


class MilpResult:
    """A solve's outcome; ``start`` is the root's optimal basis, for a same-shaped model."""

    def __init__(self, status: str, x: Optional[np.ndarray], objective: Optional[float],
                 bound: Optional[float], gap: float, counters: Optional[dict[str, int]] = None,
                 start: Optional[_Start] = None):
        self.status, self.x, self.objective, self.bound, self.gap = status, x, objective, bound, gap
        self.counters = dict.fromkeys(COUNTERS, 0) if counters is None else counters
        self.start = start

    @property
    def nodes(self) -> int:
        return self.counters["nodes"]


# ---------------------------------------------------------------------------
# canonical form


class _Canon:
    """Equality form: structurals then one slack per row, A x = b, l <= x <= u.

    Every column is boxed.  Structural bounds are finite, as ``fill``
    checks, and the slack of row i, ``b_i - a_i x``, is bounded by ``b_i``
    minus the row's activity range over the box; a branch-and-bound child's
    box lies inside the root's, so these slack bounds hold at every node.
    Row i is the problem's row i.  Built once per problem and refilled in
    place from its arrays (``fill``).
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        n = self.nstruct = problem.n_vars
        self.senses = list(problem.senses)
        m = self.m = len(self.senses)
        # the slack bounds' own limits: a <= or = row's slack is >= 0, a >= or = row's <= 0
        self.slack_lo = np.array([-np.inf if s == GE else 0.0 for s in self.senses])
        self.slack_hi = np.array([np.inf if s == LE else 0.0 for s in self.senses])
        self.int_idx = problem.is_int.nonzero()[0]
        self.lattice = _Lattice(problem.lattice_sets) if problem.lattice_sets else None
        self.A = np.zeros((m, n + m))
        self.A.flat[n::n + m + 1] = 1.0  # the slacks' identity
        self.l, self.u, self.c = np.empty(n + m), np.empty(n + m), np.zeros(n + m)
        self.fill()

    def fill(self):
        """Copy the problem's values, once each is checked finite, integer
        bounds rounded inward (a nonbasic column is never fractional) and
        each zero coefficient +0.0 as in a fresh array, then recompute the
        slack bounds and ``dtol``.  A coefficient-free row's slack is fixed
        at its rhs, and the row is judged at activity 0, as an incumbent's
        rows are: ``infeasible`` when one fails."""
        p, n = self.problem, self.nstruct
        # one test of all five arrays; only a failing model is scanned again, to name it
        if not np.isfinite(np.concatenate((p.lb, p.ub, p.A.ravel(), p.rhs, p.c))).all():
            for name in ("lb", "ub", "A", "rhs", "c"):
                bad = np.argwhere(~np.isfinite(getattr(p, name)))
                if bad.size:
                    raise ValueError(f"non-finite {name}[{', '.join(map(str, bad[0]))}]")
        S = self.A[:, :n]
        np.add(p.A, 0.0, out=S)
        b = self.b = p.rhs.copy()
        lb, ub = self.l[:n], self.u[:n]
        lb[:], ub[:] = p.lb, p.ub
        idx = self.int_idx
        if idx.size:
            lb[idx], ub[idx] = np.ceil(lb[idx]), np.floor(ub[idx])
        pos, neg = np.maximum(S, 0.0), np.minimum(S, 0.0)
        np.maximum(b - (pos @ ub + neg @ lb), self.slack_lo, out=self.l[n:])
        np.minimum(b - (pos @ lb + neg @ ub), self.slack_hi, out=self.u[n:])
        held = S.any(axis=1)  # False for a coefficient-free row
        self.infeasible = False
        if not held.all():
            free = ~held
            np.copyto(self.l[n:], b, where=free)
            np.copyto(self.u[n:], b, where=free)
            excess = np.maximum(self.slack_lo - b, b - self.slack_hi)[free]  # at activity 0
            self.infeasible = bool((excess / (1.0 + np.abs(b[free])) > ROW_TOL).any())
        self.sign = 1.0 if p.sense == "min" else -1.0
        self.c[:n] = self.sign * p.c + 0.0
        self.dtol = 1e-9 * (1.0 + (float(np.abs(self.c).max()) if self.c.size else 0.0))

    def user_objective(self, internal_value: float) -> float:
        return self.sign * internal_value + self.problem.obj_constant


# ---------------------------------------------------------------------------
# the basis


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# the error state np.linalg.solve sets around its LAPACK call: a singular
# matrix raises, and no other floating-point flag warns; used as a
# decorator, as one errstate object cannot enter a with block twice
_lapack_errors = np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                             under="ignore")


class _Basis:
    """The basis matrix; each solve factorizes it by LU with partial
    pivoting (LAPACK ``gesv``, never an explicit inverse).  The solves call
    the gufunc behind ``np.linalg.solve``, ``_umath_linalg.solve1``: its
    bits without its argument checks.  They raise ``np.linalg.LinAlgError``
    on a singular basis under ``_lapack_errors``, which ``_simplex`` enters
    once per call; a caller outside it enters the state itself."""

    def __init__(self, canon: _Canon, basis: np.ndarray):
        self.B = canon.A.take(basis, axis=1)

    def ftran(self, v: np.ndarray) -> np.ndarray:
        return _umath_linalg.solve1(self.B, v, signature="dd->d")

    def btran(self, v: np.ndarray) -> np.ndarray:
        return _umath_linalg.solve1(self.B.T, v, signature="dd->d")


class _Start:
    """A basis, one column per row, and its nonbasic bound statuses (None:
    ``_rest``'s); a solve's optimal start also carries the basis's reduced
    costs ``d`` and primal values ``x``."""

    __slots__ = ("basis", "vstat", "d", "x")

    def __init__(self, basis: np.ndarray, vstat: Optional[np.ndarray] = None,
                 d: Optional[np.ndarray] = None, x: Optional[np.ndarray] = None):
        self.basis, self.vstat, self.d, self.x = basis, vstat, d, x


class _SxResult:
    """A simplex solve's status, its pivots and bases, and when optimal its
    point, its internal (minimization) objective without the constant and
    its optimal state, for the children."""

    __slots__ = ("status", "iterations", "factorizations", "x", "objective", "start")

    def __init__(self, status: str, iterations: int, factorizations: int,
                 x: Optional[np.ndarray] = None, objective: Optional[float] = None,
                 start: Optional[_Start] = None):
        self.status, self.iterations, self.factorizations = status, iterations, factorizations
        self.x, self.objective, self.start = x, objective, start


def _rest(basis: np.ndarray, l: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The bound statuses of a start on ``basis`` that carries none: each
    nonbasic column on its bound nearest zero, the lower one on a tie."""
    vstat = np.where(np.abs(u) < np.abs(l), _NB_UPPER, _NB_LOWER).astype(np.int8)
    vstat[basis] = _BASIC
    return vstat


@_lapack_errors
def _simplex(canon: _Canon, l: np.ndarray, u: np.ndarray, start: Optional[_Start] = None,
             deadline: Optional[float] = None, cutoff: float = math.inf) -> _SxResult:
    """Bounded dual simplex on the canonical equality form.

    Starts from ``start`` (the slack basis when None), which is dual
    feasible once every nonbasic column sits at the bound its reduced cost
    favours; a column whose reduced cost is within tolerance of zero keeps
    its bound, the start's or, for a start without statuses, ``_rest``'s.
    Every basis, the start's and each one a pivot reaches, is factorized
    afresh, and its reduced costs and primal values are recomputed from the
    bound statuses; a start that carries its vectors (a parent's optimal
    start on this canonical form) keeps its reduced costs, and its basic
    values when no nonbasic value changes a bit.  A singular basis sends
    the solve back to the slack basis once; a second one ends it with
    status 'numerical'.  The solve runs under ``_lapack_errors``,
    entered once per call, not once per LU solve, so an invalid value met
    while a basis's vectors and objective are computed also counts as a
    singular basis.  Each pivot removes the basic variable with the
    largest bound violation.  The ratio test passes every breakpoint the
    dual objective still rises through, flipping those columns to their
    other bound, and enters the column at the next one (largest |alpha| on
    ties, then the lowest index).  The objective of every basis visited is a
    lower bound on the optimum, so the solve stops with status 'cutoff' once
    it reaches ``cutoff``.  ``iterations`` counts basis changes and
    ``factorizations`` the bases the solve visits, the start's included even
    when it reuses its vectors and makes no LU solve.
    """
    m, n = canon.m, canon.nstruct
    iters = n_factor = 0
    if (l > u + _FEAS_TOL).any():
        return _SxResult("infeasible", iters, n_factor)

    A, c, dtol = canon.A, canon.c, canon.dtol
    movable = u > l
    range_ = u - l
    basis = np.arange(n, n + m) if start is None else start.basis.copy()
    vstat = _rest(basis, l, u) if start is None or start.vstat is None else start.vstat
    parent = start if start is not None and start.d is not None else None
    iter_limit = 20_000 + 50 * m
    bland = False
    stall = 0
    last_obj = -math.inf
    from_slack = start is None

    while True:
        # factorize, recompute the reduced costs, move each nonbasic column
        # whose reduced cost has the wrong sign to its other bound, and
        # recompute the primal values (see above for a parent's start)
        n_factor += 1
        inherited, parent = parent, None
        try:
            factors = _Basis(canon, basis)
            d = c - factors.btran(c[basis]) @ A if inherited is None else inherited.d
            d[basis] = 0.0  # already 0 in an inherited d
            # a basic column has d = 0, so only nonbasic columns move
            vstat = np.where(movable & (np.abs(d) > dtol), d < 0.0, vstat)
            x = np.where(vstat, u, l)  # a basic column's value is set below
            if inherited is not None:
                x[basis] = inherited.x[basis]
            if inherited is None or x.tobytes() != inherited.x.tobytes():
                x[basis] = 0.0
                x[basis] = factors.ftran(canon.b - A @ x)
            obj = float(c @ x)  # the basis is dual feasible: a lower bound on the optimum
        except np.linalg.LinAlgError:  # a singular basis: start again from the slack basis, once
            if from_slack:
                return _SxResult("numerical", iters, n_factor)
            basis = np.arange(n, n + m)
            vstat = _rest(basis, l, u)
            from_slack, last_obj = True, -math.inf
            continue

        if obj >= cutoff:
            return _SxResult("cutoff", iters, n_factor)
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
            return _SxResult("iteration_limit", iters, n_factor)
        if deadline is not None and iters % 16 == 0 and time.perf_counter() > deadline:
            return _SxResult("time_limit", iters, n_factor)

        viol = np.maximum(l - x, x - u)[basis]  # of the basic variables
        infeasible = viol > _FEAS_TOL
        if not infeasible.any():
            return _SxResult("optimal", iters, n_factor, x, obj, _Start(basis, vstat, d, x))

        # pricing: the basic variable with the largest bound violation
        # (Bland: the one with the lowest column index)
        if bland:
            rows = infeasible.nonzero()[0]
            r = int(rows[basis[rows].argmin()])
        else:
            r = int(viol.argmax())
        p = int(basis[r])
        s = 1.0 if x[p] > u[p] else -1.0  # the leaving variable goes to u (s=1) or l
        alpha = factors.btran(A[:, n + r]) @ A  # row r of B^-1 A, from e_r in the slacks' identity

        # bound-flipping ratio test over the columns whose reduced cost moves
        # towards zero as the dual step t grows
        sign = np.where(movable, _SIGN[vstat], 0.0)
        cand = (sign * (s * alpha) > _PIVOT_TOL).nonzero()[0]
        a = np.abs(alpha[cand])
        ratio = np.maximum(sign[cand] * d[cand], 0.0) / a
        # pass the breakpoints one group of equal ratios at a time, in
        # increasing order, ties in index order
        order = ratio.argsort(kind="stable")
        ratios = ratio[order].tolist()
        cand, a = cand[order], a[order]  # in the order passed
        width = range_[cand]
        slope = float(viol[r])  # the dual objective's rate of increase in t
        passed, q = 0, -1
        while passed < len(ratios):
            end = bisect.bisect_right(ratios, ratios[passed])
            slope -= float(a[passed:end] @ width[passed:end])
            if slope <= _FEAS_TOL:  # x_p reaches its bound inside this group
                q = int(cand[passed if bland else passed + a[passed:end].argmax()])
                break
            passed = end

        if q < 0:  # the dual rises without bound: the primal is infeasible
            return _SxResult("infeasible", iters, n_factor)
        if passed:  # the columns passed flip between their bounds
            vstat[cand[:passed]] ^= 1
        vstat[p] = _NB_UPPER if s > 0.0 else _NB_LOWER
        vstat[q] = _BASIC
        basis[r] = q
        iters += 1


# ---------------------------------------------------------------------------
# public entry point


class _Lattice:
    """The lattice sets' members and integer keys, built once per problem: row
    p of ``keys`` belongs to member ``ids[p]``, its axis indices and then,
    from column ``n_axes`` on, its diagonals ``idx_i - idx_j`` (i < j, in
    ``itertools.combinations`` order), and ``signed`` holds ``keys`` and then
    ``-keys``.  A set of fewer dimensions reads 0 on its missing axes, so a
    diagonal over one is an axis index of the set, or 0, and spans widest
    only where an axis does.  Set k holds the rows ``edges[k]`` to
    ``edges[k + 1]``."""

    def __init__(self, lattice_sets: list):
        self.ids = np.concatenate([ids for ids, _ in lattice_sets])
        self.edges = list(itertools.accumulate([len(ids) for ids, _ in lattice_sets], initial=0))
        self.starts = np.array(self.edges[:-1])
        dims = self.n_axes = max(index.shape[1] for _, index in lattice_sets)
        axes = np.zeros((self.ids.size, dims), dtype=np.intp)
        for (_, index), start in zip(lattice_sets, self.edges):
            axes[start:start + len(index), :index.shape[1]] = index
        pairs = list(itertools.combinations(range(dims), 2))
        self.keys = np.concatenate(
            (axes, axes[:, [i for i, _ in pairs]] - axes[:, [j for _, j in pairs]]), axis=1)
        self.signed = np.concatenate((self.keys, -self.keys), axis=1)


def _balanced_cut(lattice: _Lattice, x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
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
    v = x[lattice.ids]
    on = v > _INT_TOL
    keys, n = lattice.keys, lattice.n_axes
    # every set's span in every key over its support, in one pass: the least
    # key and the least negated key
    least = np.minimum.reduceat(np.where(on[:, None], lattice.signed, _FAR), lattice.starts)
    lo = least[:, :keys.shape[1]]
    span = -least[:, keys.shape[1]:] - lo
    if span.max() < 2:
        return None
    axial = span[:, :n].max(axis=1) >= 2
    invalid = (axial | (span[:, n:].max(axis=1, initial=0) >= 2)).nonzero()[0]
    k = int(invalid[np.maximum.reduceat(v, lattice.starts)[invalid].argmin()])
    cols = slice(0, n) if axial[k] else slice(n, None)
    family = span[k, cols]
    seg = slice(lattice.edges[k], lattice.edges[k + 1])
    ids, v, on = lattice.ids[seg], v[seg], on[seg]
    best = None
    for col in (cols.start + (family == family.max()).nonzero()[0]).tolist():
        key = keys[seg, col]
        total = np.bincount(key[on] - lo[k, col], weights=v[on]).cumsum()
        # the support weight with key below and above s, for s = lo+1 .. max-1
        imbalance = np.abs(total[:-2] - (total[-1] - total[1:-1]))
        t = int(imbalance.argmin())
        if best is None or imbalance[t] < best[0]:
            best = (imbalance[t], key, int(lo[k, col]) + 1 + t)
    _, key, s = best
    return ids[key > s], ids[key < s]


def _tightened(bounds: np.ndarray, idx, value: float) -> np.ndarray:
    """A copy of ``bounds`` with ``bounds[idx] = value``: a child's bounds."""
    bounds = bounds.copy()
    bounds[idx] = value
    return bounds


def solve_milp(problem: LpProblem, deadline: Optional[float] = None,
               start: Optional[_Start] = None) -> MilpResult:
    """Best-bound branch and bound over the integer variables.

    A node splits a lattice set whose support spans more than one simplex
    when it has one (see ``_balanced_cut``), and otherwise branches on the
    most fractional integer, the lowest id on ties.  The root starts from
    ``start`` (a ``MilpResult.start``, or a basis alone) when its shape
    matches this model's canonical form, else from the slack basis.
    Returns an incumbent, with its integer components rounded, whose
    relative gap is at most ``_REL_GAP``.  When the ``time.perf_counter()``
    ``deadline`` passes, the search stops with status 'time_limit' and the
    proven dual bound, plus the best incumbent if it has one (``x`` is None
    otherwise).  A model without integer variables or lattice sets is one
    simplex solve at the root.  The canonical form and its lattice keys are
    built once per ``problem`` and refilled at each later solve; a
    non-finite value in its arrays raises a ``ValueError`` naming it.
    """
    canon = problem._canon
    if canon is None or canon.problem is not problem:
        canon = problem._canon = _Canon(problem)
    else:
        canon.fill()
    n = problem.n_vars
    int_idx, lattice = canon.int_idx, canon.lattice
    counters = dict.fromkeys(COUNTERS, 0)

    if start is not None and (start.basis.size != canon.m or start.vstat is not None
                              and start.vstat.size != canon.nstruct + canon.m):
        start = None
    incumbent_x = None
    incumbent_obj = math.inf  # internal minimization value
    root_start = stop_status = None

    def gap_of(inc: float, bnd: float) -> float:
        if not math.isfinite(inc):
            return math.inf
        return max(0.0, inc - bnd) / max(1.0, abs(inc))

    # the open nodes, sorted: (bound, -depth, seq, l, u, start), both children
    # sharing their parent's start; best bound first, deeper node on ties,
    # insertion order last (seq is unique, so arrays never get compared)
    seq = 0
    queue: list = [] if canon.infeasible else [(-math.inf, 0, seq, canon.l, canon.u, start)]
    while queue:
        if incumbent_x is not None and gap_of(incumbent_obj, queue[0][0]) <= _REL_GAP:
            break
        if deadline is not None and time.perf_counter() > deadline:
            stop_status = "time_limit"
            break
        _, negdepth, _, l, u, start = node = queue.pop(0)

        counters["nodes"] += 1
        # a node whose bound cannot improve the incumbent by the gap is pruned
        cutoff = (math.inf if incumbent_x is None
                  else incumbent_obj - _REL_GAP * max(1.0, abs(incumbent_obj)))
        res = _simplex(canon, l, u, start, deadline=deadline, cutoff=cutoff)
        counters["pivots"] += res.iterations
        counters["factorizations"] += res.factorizations
        if counters["nodes"] == 1:
            counters["root_pivots"], root_start = res.iterations, res.start
        if res.status in ("time_limit", "iteration_limit", "numerical"):
            stop_status = res.status
            bisect.insort(queue, node)  # unsolved, so its bound still counts
            break
        if res.status == "infeasible":
            counters["nodes_infeasible"] += 1
            continue
        node_bound = res.objective
        if res.status == "cutoff" or node_bound >= cutoff:
            counters["nodes_cutoff"] += 1
            continue

        split = None if lattice is None else _balanced_cut(lattice, res.x)
        if split is not None:
            counters["nodes_set_branched"] += 1
            children = [(l, _tightened(u, side, 0.0)) for side in split]
        else:
            vals = res.x[int_idx]
            frac = int_idx[np.abs(vals - vals.round()) > _INT_TOL] if int_idx.size else int_idx
            if not frac.size:
                counters["nodes_integral"] += 1
                x = res.x.copy()  # integral within _INT_TOL: report the integers
                x[int_idx] = vals.round()
                obj = float(canon.c @ x)
                if obj < incumbent_obj:
                    incumbent_obj = obj
                    incumbent_x = x[:n]
                continue
            # the most fractional integer, ties by lowest id
            counters["nodes_var_branched"] += 1
            fr = res.x[frac] - np.floor(res.x[frac])
            j = int(frac[np.abs(fr - 0.5).argmin()])
            xj = float(res.x[j])
            children = [(l, _tightened(u, j, math.floor(xj))), (_tightened(l, j, math.ceil(xj)), u)]
        for child_l, child_u in children:
            seq += 1
            bisect.insort(queue, (node_bound, negdepth - 1, seq, child_l, child_u, res.start))

    # the incumbent's or the best open node's; infinite (no bound) after an exhausted tree
    best_bound = min([incumbent_obj] + [entry[0] for entry in queue])
    gap = gap_of(incumbent_obj, best_bound)
    if stop_status is not None and gap > _REL_GAP:
        status = stop_status
    else:
        status = "infeasible" if incumbent_x is None else "optimal"
    if incumbent_x is not None and row_violation(
            (canon.A[:, :n] @ incumbent_x).tolist(), canon.senses, canon.b.tolist()) > ROW_TOL:
        status = "numerical"
    if root_start is not None:  # for another model: the basis and statuses, not the vectors
        root_start = _Start(root_start.basis, root_start.vstat)
    return MilpResult(status, incumbent_x,
                      None if incumbent_x is None else canon.user_objective(incumbent_obj),
                      canon.user_objective(best_bound) if math.isfinite(best_bound) else None,
                      gap, counters, root_start)
