import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sppa import loop, milp
from sppa.loop import SppaConfig, axis_breakpoints, build_iteration_model, contract_bounds, run
from sppa.problems import (Interval, NonlinearTerm, ProblemSpec, builtin, builtin_info,
                           from_expressions, group_leads, load_problem)

from properties import (Grid, check_best_point, check_crash_basis, check_grouped_model,
                        check_model_refill, check_one_pass_build, check_sppa_invariants,
                        check_vertex_optimum, term_grid_values)


def test_contract_examples():
    assert contract_bounds(Interval(0, 10), 5.0, 0.5) == Interval(2.5, 7.5)
    assert contract_bounds(Interval(0, 10), 9.5, 0.5) == Interval(5.0, 10.0)
    assert contract_bounds(Interval(0, 10), 0.1, 0.5) == Interval(0.0, 5.0)


def test_contract_validation():
    with pytest.raises(ValueError):
        contract_bounds(Interval(0, 1), 0.5, 1.0)
    with pytest.raises(ValueError):
        contract_bounds(Interval(0, 1), 0.5, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-100, 100),
    width=st.floats(1e-6, 200),
    t=st.floats(0, 1),
    frac=st.floats(0.01, 0.99),
)
def test_contract_properties(lo, width, t, frac):
    iv = Interval(lo, lo + width)
    v = lo + t * width
    out = contract_bounds(iv, v, frac)
    assert out.lo >= iv.lo - 1e-12 and out.hi <= iv.hi + 1e-12  # nested
    assert out.lo - 1e-12 <= v <= out.hi + 1e-12                # keeps the value
    assert out.width <= frac * iv.width + 1e-12                 # width law
    interior = (v - frac * width / 2 >= lo) and (v + frac * width / 2 <= lo + width)
    if interior:
        assert abs(out.width - frac * iv.width) <= 1e-12 * (1 + width)


@given(top=st.floats(min_value=0.0, allow_infinity=False), pieces=st.integers(1, 64),
       rel_floor=st.sampled_from([0.0, 1e-8, 2.5]), negative=st.booleans())
@example(top=0.0, pieces=4, rel_floor=0.0, negative=False)
@example(top=5e-324, pieces=4, rel_floor=0.0, negative=False)  # the smallest subnormal
@example(top=1.0, pieces=4, rel_floor=0.0, negative=False)
@example(top=2.0 ** -1022, pieces=4, rel_floor=0.0, negative=False)
@example(top=2.0 ** 30, pieces=4, rel_floor=0.0, negative=True)
@example(top=2.048, pieces=4, rel_floor=0.0, negative=False)
@example(top=512.0, pieces=4, rel_floor=0.0, negative=True)
@example(top=1e300, pieces=4, rel_floor=0.0, negative=False)
@example(top=1.7976931348623157e308, pieces=4, rel_floor=0.0, negative=False)
def test_floor_has_the_bits_of_numpy_spacing(top, pieces, rel_floor, negative):
    # the spacing is the gap to the next float up, np.spacing's, also at the
    # largest finite float, where it is infinite
    iv = Interval(-top, 0.0) if negative else Interval(0.0, top)
    with np.errstate(over="ignore"):
        want = max(rel_floor, loop._FLOOR_SPACINGS * pieces * np.spacing(top))
    assert float(loop._floor(iv, rel_floor, pieces)).hex() == float(want).hex()


def test_integer_contraction_keeps_unit_width():
    iv = Interval(0, 10)
    out = loop._contract_integer(iv, 4.2, 0.5)
    assert out.lo == math.floor(out.lo) and out.hi == math.ceil(out.hi)
    assert out.width >= 1.0
    # tight windows widen back to one unit around the value
    tiny = loop._contract_integer(Interval(3, 5), 4.0, 0.1)
    assert tiny.width >= 1.0 and tiny.lo <= 4.0 <= tiny.hi
    # but never escape the old interval
    edge = loop._contract_integer(Interval(3, 5), 5.0, 0.1)
    assert edge.lo >= 3.0 and edge.hi <= 5.0 and edge.width >= 1.0


def _quad_spec():
    return ProblemSpec(
        [("z", Interval(-1.0, 1.0), False)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float(v[0] ** 2))],
    )


def test_run_quadratic_geometric_widths():
    result = run(_quad_spec(), SppaConfig(2, 2, 0.5, max_iters=40))
    assert result.termination == "width"
    assert result.best_objective == pytest.approx(0.0, abs=1e-12)
    widths = [rec.bounds["z"].width for rec in result.trace]
    for k, w in enumerate(widths):
        assert w == pytest.approx(2.0 * 0.5**k, rel=1e-12)
    assert abs(result.best_point[0]) <= 1e-8 * 2.0


def test_model_counts_rosenbrock():
    spec = builtin("rosenbrock")
    m = build_iteration_model(spec, spec.bounds(), 4)
    assert sum(m.is_int) == 0  # the weights are continuous
    [(ids, index)] = m.lattice_sets
    assert len(ids) == 25 and index.shape[1] == 2  # one 2-D term: 5 * 5 vertices
    assert (index.max(axis=0)).tolist() == [4, 4]  # the grid's pieces
    # beside x and y, one weight per vertex; two linking rows and the set's row
    assert m.n_vars == 2 + 25 and len(m.senses) == 3


def test_model_counts_rastrigin():
    spec = builtin("rastrigin")
    m = build_iteration_model(spec, spec.bounds(), 6)
    assert sum(m.is_int) == 0
    assert [len(ids) for ids, _ in m.lattice_sets] == [7, 7]  # two 1-D terms, 7 vertices each


@pytest.mark.parametrize("name, pieces, n_vars, n_rows", [("constrained_a", 3, 19, 6),
                                                        ("constrained_b", 2, 30, 6)])
def test_shipped_row_terms_share_the_objective_block(name, pieces, n_vars, n_rows):
    # every row term's variables lie inside the objective term's, so each
    # model has one lattice set: its vertex weights, one linking row per
    # objective variable, the set's row and the file's three rows
    problems = pathlib.Path(__file__).resolve().parents[1] / "bench" / "problems"
    spec = load_problem(str(problems / f"{name}.prob"))
    m = build_iteration_model(spec, spec.bounds(), pieces)
    [(ids, index)] = m.lattice_sets
    assert m.n_vars == n_vars and len(m.senses) == n_rows
    assert len(ids) == n_vars - spec.n_vars == (pieces + 1) ** index.shape[1]


def test_groups_follow_the_largest_variable_set_first():
    # largest set first, source order on ties; each set joins the first
    # group whose variables contain its own: the rule of the model's lambda
    # blocks and of _decompose's terms
    sets = [(0,), (1, 2), (0, 1), (2,), (0, 1, 3), (1, 2, 4), (5,)]
    assert group_leads(sets) == [4, 5, 4, 5, 4, 5, 6]
    assert group_leads([(0, 1), (1, 0), (1,)]) == [0, 0, 0]
    assert group_leads([]) == []
    # the summands' sets, as _decompose passes them: rosenbrock's (1 - x)^2
    # joins 100*(y - x^2)^2, and a chain's pairs overlap without nesting
    assert group_leads([frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]) == [1, 1, 2]


def test_fixed_term_stays_a_constant_inside_a_group():
    # y is fixed: the row term y^2 stays in the rhs although its variables
    # lie inside the objective term's, which keeps its block over x
    spec = ProblemSpec(
        [("x", Interval(0.0, 1.0), False), ("y", Interval(0.5, 0.5), False)], {}, 0.0,
        [milp.LinearConstraint({0: 1.0}, "<=", 2.0)],
        [NonlinearTerm((0, 1), lambda v: float(v[0] * v[1])),
         NonlinearTerm((1,), lambda v: float(v[0] ** 2), row=0),
         NonlinearTerm((0,), lambda v: float(v[0] ** 3), row=0)])
    m = build_iteration_model(spec, spec.bounds(), 2)
    [(ids, index)] = m.lattice_sets
    assert index.shape[1] == 1 and m.rhs[-1] == 2.0 - 0.25
    assert m.A[-1, ids].tolist() == [0.0, 0.125, 1.0]  # x^3 on the block's weights
    assert m.c[ids].tolist() == [0.0, 0.25, 0.5]


def test_no_nonlinear_terms_single_solve():
    spec = ProblemSpec(
        [("a", Interval(0, 4), False), ("b", Interval(0, 4), False)],
        {0: 1.0, 1: 2.0}, 0.0,
        [milp.LinearConstraint({0: 1.0, 1: 1.0}, ">=", 3.0)],
        [],
    )
    m = build_iteration_model(spec, spec.bounds(), 4)
    assert m.n_vars == 2 and len(m.senses) == 1  # untouched linear model
    result = run(spec, SppaConfig(4, 4, 0.5, max_iters=10))
    assert len(result.trace) == 1
    assert result.best_objective == pytest.approx(3.0)


def test_degenerate_variable_becomes_constant():
    spec = ProblemSpec(
        [("x", Interval(2.0, 2.0), False), ("y", Interval(0.0, 1.0), False)],
        {}, 0.0, [],
        [NonlinearTerm((0, 1), lambda v: float(v[0] * v[1] ** 2))],
    )
    m = build_iteration_model(spec, spec.bounds(), 2)
    [(ids, index)] = m.lattice_sets
    assert index.shape[1] == 1  # x dropped from the grid
    result = run(spec, SppaConfig(2, 2, 0.5, max_iters=25))
    assert result.best_objective == pytest.approx(0.0, abs=1e-10)


def test_evaluator_failure_reports_vertex():
    # both paths read their term values from one evaluation, which names the
    # term (unlabelled ones after their position) and the failing vertex
    spec = ProblemSpec([("x", Interval(-1.0, 1.0), False), ("y", Interval(0.0, 1.0), False)],
                       {}, 0.0, [],
                       [NonlinearTerm((1,), lambda v: float(v[0] ** 2), label="fine"),
                        NonlinearTerm((0,), lambda v: float("nan"))])
    assert [t.label for t in spec.nonlinear_terms] == ["fine", "t1"]
    # a term with a fixed variable names its full point, y at its value
    partial = from_expressions([("x", Interval(-1.0, 1.0), False),
                                ("y", Interval(0.5, 0.5), False)], "sqrt(x)*y + x*y")
    for solve in (build_iteration_model, loop._solve_at_vertices):
        with pytest.raises(ValueError) as exc:
            solve(spec, spec.bounds(), 2)
        assert str(exc.value).startswith("term 't1' failed at grid vertex [-1.0]: ")
        with pytest.raises(ValueError) as exc:
            solve(partial, partial.bounds(), 2)
        assert str(exc.value).startswith("term 'g0' failed at grid vertex [-1.0, 0.5]: ")


def test_term_coefficients_must_be_finite():
    # a non-finite coef is rejected with the spec, under the term's label;
    # a finite one whose product with a value overflows fails the term at
    # the first vertex, on either path, through at and through a rows_fn
    def spec(coef, with_row, rows_fn=None):
        rows = [milp.LinearConstraint({0: 1.0, 1: 1.0}, "<=", 2.0)] if with_row else []
        return ProblemSpec([("x", Interval(-1.0, 2.0), False), ("y", Interval(0.0, 1.0), False)],
                           {1: 1.0}, 0.0, rows,
                           [NonlinearTerm((0,), lambda v: float(v[0] ** 2 + 2.0), coef=coef,
                                          rows_fn=rows_fn)])

    for coef in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^term 't0' has a non-finite coefficient"):
            spec(coef, False)
    def squares(rows):
        return [x * x + 2.0 for x, in rows]

    for with_row in (False, True):
        for rows_fn in (None, squares):
            with pytest.raises(ValueError, match=re.escape(
                    "term 't0' failed at grid vertex [-1.0]: value inf is not finite")):
                run(spec(1e308, with_row, rows_fn), SppaConfig(3, 3))
            assert run(spec(1e300, with_row, rows_fn), SppaConfig(3, 3)).best_point is not None


@pytest.mark.parametrize("text, message", [
    # no grid coordinate is 0, so x/0 is +-inf, and 1/inf a finite 0
    ("1/(x/0) + x*y", "[-1.5, -1.5]: division by zero in 'x/0.0'"),
    # sqrt(-1.5) is nan, and nan^0 is 1
    ("sqrt(x)^0 + x*y", "[-1.5, -1.5]: square root of a negative number in 'sqrt(x)'"),
    ("sqrt(x - y)^0*y", "[-1.5, -0.5]: square root of a negative number in 'sqrt(x - y)'"),
    # exp overflows first at x + y = 1, and 0*inf is nan
    ("0*exp(1000*(x + y)) + x*y", "[-0.5, 1.5]: exp overflows in 'exp(1000.0*(x + y))'"),
])
def test_array_pass_reports_errors_later_arithmetic_hides(text, message):
    # each failure is hidden from the sum by the arithmetic after it, so the
    # row pass must raise and leave the message to the point-by-point call
    spec = from_expressions([(v, Interval(-1.5, 1.5), False) for v in "xy"], text)
    for solve in (build_iteration_model, loop._solve_at_vertices):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                solve(spec, spec.bounds(), 3)
        assert str(exc.value) == f"term 'g0' failed at grid vertex {message}"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vertex_rows_are_the_milp_grid_points(data):
    # one block stage, two consumers: its vertex rows, whose active columns
    # the MILP path encodes, are the vertices of the reference grid on the
    # active axes (Grid(axes).points()), row-major, bit for bit, in the
    # term's own variable order, with fixed variables at their values,
    # integer axes and continuous bounds given as Python ints
    d = data.draw(st.integers(1, 3))
    variables = []
    for k in range(d):
        if data.draw(st.booleans()):
            lo = data.draw(st.integers(-50, 50))
            variables.append((f"x{k}", Interval(lo, lo + data.draw(st.integers(0, 12))), True))
            continue
        lo = data.draw(st.sampled_from([-0.0, 0.0]) | st.integers(-5, 5) | st.floats(-1e3, 1e3))
        width = data.draw(st.sampled_from([0.0]) | st.floats(1e-3, 1e3))
        variables.append((f"x{k}", Interval(lo, lo + width), False))
    ids = tuple(data.draw(st.permutations(range(d))))
    pieces = data.draw(st.integers(1, 8))
    spec = ProblemSpec(variables, {}, 0.0, [], [NonlinearTerm(ids, lambda v: 0.0)])
    bounds = spec.bounds()
    active = [k for k in ids if bounds[k].width > 0.0]
    assume(active)
    [(axes, rows, _)], _ = loop._block_stage(spec, loop._layout(spec, bounds), bounds, pieces)
    grid = Grid([loop.axis_breakpoints(bounds[k], pieces, spec.variables[k][2]) for k in active])
    assert axes == list(grid.breakpoints)
    # float: an int bound must not make the array integer and truncate the grid
    points = np.full((len(rows), d), [bounds[k].lo for k in ids], dtype=float)
    points[:, [ids.index(k) for k in active]] = grid.points().reshape(-1, len(active))
    assert all(type(x) is float for row in rows for x in row)
    assert [list(row) for row in rows] == points.tolist()
    assert np.array(rows).tobytes() == points.tobytes()  # the sign of zero too


def test_objectives_are_python_floats():
    # with a linear objective part, both paths once reported numpy scalars
    problem = pathlib.Path(__file__).resolve().parents[1] / "bench" / "problems" / "numerical.prob"
    row_free = from_expressions([(v, Interval(-2.0, 2.0), False) for v in "xy"],
                                "x^2 + sin(y) + 2*x - y")
    for spec, nodes in ((load_problem(str(problem)), True), (row_free, False)):
        assert spec.linear_objective
        result = run(spec, SppaConfig(3, 3, 0.5, max_iters=6))
        assert all((rec.milp_stats["nodes"] > 0) == nodes for rec in result.trace)
        assert type(result.best_objective) is float
        assert all(type(rec.objective) is float for rec in result.trace)
        assert type(spec.objective_value(result.best_point)) is float


@pytest.mark.parametrize("constraints", [(), [("x^2 + y^2", "<=", 1.5)]],
                         ids=["vertex", "milp"])
def test_integer_valued_bounds_solve_as_float_bounds(constraints):
    # continuous bounds given as Python ints (Interval(-1, 1)) must not make
    # a term's point array integer and truncate the grid's coordinates
    def spec(lo, hi):
        return from_expressions([(v, Interval(lo, hi), False) for v in "xy"],
                                "x^2*y + sin(x*y) - x", constraints)
    ints, floats = spec(-1, 1), spec(-1.0, 1.0)
    a, b = (build_iteration_model(s, s.bounds(), 4) for s in (ints, floats))
    assert a.c.tobytes() == b.c.tobytes() and a.A.tobytes() == b.A.tobytes()
    config = SppaConfig(4, 4, 0.5, max_iters=8)
    runs = [[(r.incumbent.tolist(), r.objective, r.surrogate_objective)
             for r in run(s, config).trace] for s in (ints, floats)]
    assert runs[0] == runs[1]


def test_all_fixed_term_is_constant():
    spec = ProblemSpec(
        [("x", Interval(3.0, 3.0), False)], {}, 1.0, [],
        [NonlinearTerm((0,), lambda v: float(v[0] ** 2))],
    )
    m = build_iteration_model(spec, spec.bounds(), 2)
    assert m.obj_constant == pytest.approx(10.0)  # 1 + 3^2
    result = run(spec, SppaConfig(2, 2, 0.5, max_iters=3))
    assert result.best_objective == pytest.approx(10.0)


def test_fixed_row_term_is_judged_by_the_row_tolerance():
    # x is fixed just above 2, so the row x^2 <= 4 keeps no coefficient and
    # misses by 4e-7: within milp.ROW_TOL * (1 + |rhs|), as row_violation says
    spec = from_expressions(
        [("x", Interval(2.0000001, 2.0000001), False), ("y", Interval(0.0, 1.0), False)],
        "(y - 0.5)^2 + y*x", constraints=[("x^2", "<=", 4.0)])
    assert spec.row_violation([2.0000001, 0.0]) <= milp.ROW_TOL
    result = run(spec, SppaConfig())
    assert result.termination == "width"
    assert result.best_objective == pytest.approx(0.25)
    assert list(result.best_point) == pytest.approx([2.0000001, 0.0])


def test_a_zero_cost_variable_rests_at_its_bound_nearest_zero_on_both_paths():
    # v is in no term and costs nothing: the vertex path puts it at its bound
    # nearest zero, and the MILP path leaves it nonbasic there from every start
    variables = [("x", Interval(-1.0, 1.0), False), ("v", Interval(-3.0, 1.0), False)]
    for rows in ([("x^2", "<=", 0.5)], []):
        result = run(from_expressions(variables, "(x - 0.3)^2", rows),
                     SppaConfig(3, 3, 0.5, max_iters=5))
        assert len(result.trace) == 5
        assert [rec.incumbent[1] for rec in result.trace] == [1.0] * 5, rows


def test_infeasible_first_iteration():
    spec = from_expressions(
        [("x", Interval(0.0, 1.0), False)],
        "x^2",
        constraints=[("x", ">=", 2.0)],
    )
    result = run(spec, SppaConfig(2, 2, 0.5))
    assert result.termination == "infeasible"
    assert result.best_point is None
    assert result.trace == []


def test_integer_variable_in_term():
    # minimize (n - 2.3)^2 over integers: optimum n=2
    spec = ProblemSpec(
        [("n", Interval(0.0, 5.0), True)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float((v[0] - 2.3) ** 2))],
    )
    result = run(spec, SppaConfig(5, 2, 0.5, max_iters=15))
    assert result.best_point[0] == pytest.approx(2.0, abs=1e-6)
    assert result.best_objective == pytest.approx(0.09, abs=1e-9)
    for rec in result.trace:
        iv = rec.bounds["n"]
        assert iv.lo == math.floor(iv.lo) and iv.hi == math.ceil(iv.hi)
        assert iv.width >= 1.0

    # n inside a nonlinear term with a continuous partner: n's window stops
    # contracting at [2, 4] around n = 3, so the run ends by width once x's
    # window is at its floor too, on the vertex path and (with a row that
    # never binds) on the MILP path; without a floor for x, the default cap
    # lets its window halve until its breakpoints collide
    for rows in ([], [("x + n", ">=", -5.0)]):
        spec = from_expressions(
            [("n", Interval(0.0, 10.0), True), ("x", Interval(-1.0, 1.0), False)],
            "(n - 2.3)^2 + x^2 + n*x", constraints=rows)
        result = run(spec, SppaConfig())
        assert result.termination == "width", rows
        assert result.best_point.tolist() == [3.0, -1.0]
        assert result.best_objective == pytest.approx(-1.51, abs=1e-9)
        last = result.trace[-1].bounds
        assert last["n"] == Interval(2.0, 4.0)
        assert last["x"].width > 1e-8 * 2.0


@pytest.mark.parametrize("pieces", [(4, 4), (35, 3)])
@pytest.mark.parametrize("with_y", [False, True])
def test_far_from_zero_window_ends_by_width(pieces, with_y):
    # float spacing at 1e9 is 1.2e-7, above 1e-8 of x's unit width: x's
    # window stops at a floor of float spacings, where its grid breakpoints
    # stay strictly increasing; y then contracts alone down to its own floor
    variables = [("x", Interval(1e9, 1e9 + 1.0), False)]
    text = "(x - 1000000000.3)^2"
    if with_y:
        variables.append(("y", Interval(0.0, 1.0), False))
        text += " + y^2"
    result = run(from_expressions(variables, text), SppaConfig(*pieces))
    assert result.termination == "width"
    assert abs(result.best_point[0] - (1e9 + 0.3)) <= 1e-5
    x_floor = loop._FLOOR_SPACINGS * pieces[1] * np.spacing(1e9 + 1.0)
    widths = [rec.bounds["x"].width for rec in result.trace]
    assert min(widths) > x_floor
    if with_y:
        # x reached its floor first and kept its window while y contracted
        assert widths[-1] == widths[-2]
        assert result.trace[-1].bounds["y"].width <= 1e-8 / 0.5
        assert result.best_point[1] == pytest.approx(0.0, abs=1e-7)


_NARROW_SHAPES = [
    lambda v, a: float(np.sum(np.sin(a * v))),
    lambda v, a: float(np.prod(np.cos(a * v))),
    lambda v, a: float(np.sum(a * v) ** 2),
    lambda v, a: float(np.sum(np.sin(1e3 * a * v) * v)),
]


def _narrow_window_spec(rng):
    """1-3 variables on windows 1e-6 to 1e-2 wide, centred up to +-1e6, a
    term of all of them in the objective and a 1-D term in a ``<=`` row
    whose right side lies between its smallest and largest vertex value."""
    d, pieces = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    centre = rng.uniform(-1e6, 1e6, size=d)
    half = 0.5 * 10.0 ** rng.uniform(-6.0, -2.0, size=d)
    variables = [(f"x{k}", Interval(centre[k] - half[k], centre[k] + half[k]), False)
                 for k in range(d)]
    f, g = (_NARROW_SHAPES[i] for i in rng.integers(0, len(_NARROW_SHAPES), size=2))
    a, r = rng.uniform(0.5, 2.0, size=d), int(rng.integers(0, d))
    row_values = [g(np.array([b]), a[r]) for b in axis_breakpoints(variables[r][1], pieces)]
    rows = [milp.LinearConstraint({}, "<=", 0.5 * (min(row_values) + max(row_values)))]
    terms = [NonlinearTerm(tuple(range(d)), lambda v: f(v, a)),
             NonlinearTerm((r,), lambda v: g(v, a[r]), row=0)]
    sense = "max" if rng.random() < 0.5 else "min"
    return ProblemSpec(variables, {}, 0.0, rows, terms, sense=sense), pieces


def test_surrogate_stays_within_vertex_values_on_narrow_windows():
    # far from zero a window's coordinates carry few significant digits;
    # still the weights of every lattice set of the solved model sum to 1,
    # and each term the set carries (the row term shares the objective
    # term's set) takes a convex combination of its own vertex values
    rng = np.random.default_rng(97531)
    for _ in range(150):
        spec, pieces = _narrow_window_spec(rng)
        bounds = spec.bounds()
        lp = build_iteration_model(spec, bounds, pieces)
        res = milp.solve_milp(lp)
        assert res.status == "optimal", res.status
        prepared = [term_grid_values(spec, term, bounds, pieces)
                    for term in spec.nonlinear_terms]
        leads = group_leads([term.var_ids for term in spec.nonlinear_terms])
        assert len(lp.lattice_sets) == len(set(leads)) == 1
        for lead, (ids, index) in zip(dict.fromkeys(leads), lp.lattice_sets):
            w = res.x[ids]
            assert abs(w.sum() - 1.0) <= 2.0 * milp.ROW_TOL, w.sum()
            active = prepared[lead][0]
            for (axes, _, term_values), g in zip(prepared, leads):
                if g != lead:
                    continue
                values = term_values[tuple(index[:, [active.index(k) for k in axes]].T)]
                tol = milp.ROW_TOL * (1.0 + np.max(np.abs(values)))
                assert values.min() - tol <= w @ values <= values.max() + tol, (
                    w @ values, values.min(), values.max())


def _parabola_spec(x_min: float = 0.5):
    # min y subject to y >= x^2 and x >= 0.5: optimum 0.25, approached from above
    return from_expressions(
        [("x", Interval(-1.0, 1.0), False), ("y", Interval(0.0, 2.0), False)],
        "y",
        constraints=[("x^2 - y", "<=", 0.0), ("x", ">=", x_min)],
    )


def test_nonlinear_constraint_term():
    result = run(_parabola_spec(), SppaConfig(4, 4, 0.5, max_iters=30))
    assert result.best_objective == pytest.approx(0.25, abs=1e-3)
    # convex chords overestimate, so y undercuts 0.25 by at most the solver's
    # row feasibility tolerance
    assert result.best_objective >= 0.25 - 1e-6
    # y has no nonlinear term of its own, so its bounds never move
    for rec in result.trace:
        assert rec.bounds["y"] == Interval(0.0, 2.0)


def test_reported_point_satisfies_a_nonlinear_ge_row(tmp_path):
    # the surrogate of x^2 + y^2 overestimates between grid vertices, so the
    # MILP point of iteration 1, (0.5, 0.8333), has the lowest objective of
    # the run (0.3244) but x^2 + y^2 = 0.944 < 1; the reported point is the
    # best exactly feasible one, the projection of (0.3, 0.3) on the circle
    prob = tmp_path / "ring.prob"
    prob.write_text("[variables]\nx -2 2\ny -2 2\n[objective]\n"
                    "min (x - 0.3)^2 + (y - 0.3)^2\n[constraints]\nx^2 + y^2 >= 1\n")
    result = run(load_problem(str(prob)), SppaConfig())  # the `sppa solve` defaults
    x, y = result.best_point
    assert 1.0 - (x * x + y * y) <= 1e-6 * (1.0 + 1.0)
    assert result.best_objective == pytest.approx(0.3314719, abs=1e-6)
    assert result.trace[1].row_violation > 1e-6  # the infeasible point left behind
    assert result.trace[1].objective < result.best_objective


def test_maximization():
    spec = ProblemSpec(
        [("z", Interval(-2.0, 2.0), False)], {}, 0.0, [],
        [NonlinearTerm((0,), lambda v: float(-((v[0] - 1.0) ** 2)))],
        sense="max",
    )
    result = run(spec, SppaConfig(4, 2, 0.5, max_iters=30))
    assert result.best_objective == pytest.approx(0.0, abs=1e-9)
    assert result.best_point[0] == pytest.approx(1.0, abs=1e-4)


def test_max_iters_termination():
    result = run(_quad_spec(), SppaConfig(2, 2, 0.5, max_iters=3))
    assert result.termination == "max_iters"
    assert len(result.trace) == 3


def test_time_limit_termination():
    result = run(builtin("rastrigin"), SppaConfig(6, 3, 0.5, time_limit=1e-9))
    assert result.termination == "time_limit"


@pytest.mark.parametrize("status", ["numerical", "iteration_limit", "infeasible", "time_limit"])
def test_solver_failure_keeps_best_point(monkeypatch, status):
    # the MILP returns no incumbent from the third solve on: the run ends
    # with the solver's status as its termination and keeps the better of
    # the two incumbents found before it; the row z <= 1 never binds, but it
    # keeps the run on the MILP path
    spec = ProblemSpec(
        [("z", Interval(-1.0, 1.0), False)], {}, 0.0,
        [milp.LinearConstraint({0: 1.0}, "<=", 1.0)],
        [NonlinearTerm((0,), lambda v: float((v[0] - 0.3) ** 2))],
    )
    solve_milp = milp.solve_milp
    calls = []

    def failing(lp, deadline=None, start=None):
        calls.append(lp)
        if len(calls) >= 3:
            return milp.MilpResult(status, None, None, None, math.inf)
        return solve_milp(lp, deadline, start)

    monkeypatch.setattr(loop.milp, "solve_milp", failing)
    result = run(spec, SppaConfig(2, 2, 0.5, max_iters=10))
    assert result.termination == status
    assert len(calls) == 3
    assert len(result.trace) == 2
    first, second = result.trace
    assert second.objective < first.objective  # iteration 1 improves: 0.04 < 0.09
    assert result.best_objective == second.objective
    np.testing.assert_array_equal(result.best_point, second.incumbent)


def test_config_validation():
    with pytest.raises(ValueError):
        SppaConfig(0, 2, 0.5)
    with pytest.raises(ValueError):
        SppaConfig(2, 2, 1.5)
    with pytest.raises(ValueError):
        SppaConfig(2, 2, 0.5, max_iters=0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            SppaConfig(2, 2, 0.5, time_limit=bad)


def test_config_and_results_are_plain_records():
    config = SppaConfig()
    assert config == SppaConfig(4, 4, 0.5, 60, None) and config != SppaConfig(n_pieces=3)
    assert config != (4, 4, 0.5, 60, None)
    assert repr(SppaConfig(2, time_limit=1.5)) == (
        "SppaConfig(initial_n_pieces=2, n_pieces=4, contract_frac=0.5, max_iters=60, "
        "time_limit=1.5)")
    config.max_iters = 5  # a config is mutable, and checked only when built
    assert config.max_iters == 5
    record = loop.IterationRecord(0, np.zeros(1), 1.0, 0.5, 0.0, {"x": Interval(0.0, 1.0)},
                                  {"nodes": 1})
    assert (record.iteration, record.objective, record.surrogate_objective,
            record.row_violation, record.milp_stats) == (0, 1.0, 0.5, 0.0, {"nodes": 1})
    assert record.bounds == {"x": Interval(0.0, 1.0)}
    result = loop.SppaResult(best_point=None, best_objective=None, trace=[record],
                             termination="stall")
    assert (result.trace, result.termination, result.seconds) == ([record], "stall", 0.0)


@pytest.mark.parametrize("field", ["initial_n_pieces", "n_pieces", "max_iters"])
@pytest.mark.parametrize("bad", [3.0, 2.5, "3", True])
def test_config_rejects_a_count_that_is_not_an_integer(field, bad):
    # a float count used to pass and fail later in numpy or range with a
    # bare TypeError, and True passed as 1; an integer of another type is
    # still a count
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SppaConfig(**{field: bad})
    assert getattr(SppaConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("field", ["contract_frac", "time_limit"])
@pytest.mark.parametrize("bad", ["0.5", complex(0.5), [0.5], True],
                         ids=["str", "complex", "list", "bool"])
def test_config_rejects_a_fraction_or_limit_that_is_not_a_number(field, bad):
    # these used to reach a bare comparison and raise a TypeError, and a
    # time_limit of True ran for one second; a real number of another type
    # still passes
    with pytest.raises(ValueError, match=f"^{field} must .*, got {re.escape(repr(bad))}$"):
        SppaConfig(**{field: bad})
    assert getattr(SppaConfig(**{field: np.float64(0.5)}), field) == 0.5


# Pinned trajectories: rastrigin and ackley at the registry settings (solved
# at the grid vertices, so no pivots), the parabola model of
# test_nonlinear_constraint_term (its rows keep it on the MILP path),
# bench/problems/constrained_b.prob at 2/2 (a 3-D term under a nonlinear
# and a linear row, whose 1-D row terms share its lattice set),
# bench/problems/constrained_a.prob at 3/3 (an integer variable and 2-D
# terms, all in one lattice set: the MILP case with the most
# branch-and-bound nodes), and a 3-D term with y fixed
# on each path (_PARTIAL_FIXED: the term is called on points that hold y
# at its value), and the MILP case of test_integer_variable_in_term (its
# model changes shape once, when the integer axis of n loses breakpoints
# and the model is built anew).  They check that a change meant to leave the arithmetic
# alone really does: a deliberate change of trajectory must update these
# numbers and record the change in CHANGES.md.  Each new shape's first root
# starts from its crash basis (loop._crash_start): partial_fixed_milp then
# takes no pivot at all, and from iteration 14 on its warm root keeps the
# last incumbent, whose neighbour on the grid is better by less than the
# simplex's reduced-cost tolerance, so the run never sees a moved incumbent
# to call a stall and ends at its width floor, 7e-10 above the slack start's.
_PARTIAL_FIXED = {
    "partial_fixed_vertex": ("(x - y)^2 + x*y*z + 3*x - z", []),
    "partial_fixed_milp": ("(x - y)^2 + x*y*z - z", [("x^2 + z^2", "<=", 2.0)]),
}


@pytest.mark.parametrize("name, pieces, termination, iterations, best_objective, best_point, "
                         "pivots", [
    pytest.param("rastrigin", (6, 3), "stall", 24, 0.0, [0.0, 0.0], 0, id="rastrigin"),
    pytest.param("ackley", (3, 3), "width", 27, 3.552713678800501e-15,
                 [2.220446049250313e-16, 3.3306690738754696e-16], 0, id="ackley"),
    pytest.param("parabola", (4, 4), "width", 27, 0.25, [0.5, 0.25], 4, id="parabola"),
    pytest.param("constrained_b", (2, 2), "width", 27, -1.200794087111432,
                 [1.1776977636729171, 0.9780395543617976, 1.0753913741255259], 25,
                 id="constrained_b"),
    pytest.param("constrained_a", (3, 3), "stall", 19, -0.17805012210678184,
                 [1.5089855194091797, -0.5089855194091797, 1.0], 67, id="constrained_a"),
    pytest.param("partial_fixed_vertex", (4, 4), "width", 27, -2.25, [-1.0, 0.5, 1.0], 0,
                 id="partial_fixed_vertex"),
    pytest.param("partial_fixed_milp", (4, 4), "width", 27, -0.8124999990686774,
                 [0.249969482421875, 0.5, 1.0], 0, id="partial_fixed_milp"),
    pytest.param("integer_axis_milp", (4, 4), "width", 27, -1.5099999999999998, [3.0, -1.0],
                 4, id="integer_axis_milp"),
])
def test_pinned_trajectory(name, pieces, termination, iterations, best_objective, best_point,
                           pivots):
    if name == "parabola":
        spec, config = _parabola_spec(), SppaConfig(*pieces, 0.5, 30)
    elif name == "constrained_b":
        spec = from_expressions(
            [(v, Interval(0.0, 2.0), False) for v in "xyz"],
            "(x - 1.2)^2 + (y - 0.8)^2 + (z - 1)^2 - x*y*z",
            constraints=[("x^2 + y^2 + z^2", "<=", 3.5), ("x + 2*y - z", ">=", 1.0)])
        config = SppaConfig(*pieces)
    elif name == "constrained_a":
        problems = pathlib.Path(__file__).resolve().parents[1] / "bench" / "problems"
        spec, config = load_problem(str(problems / "constrained_a.prob")), SppaConfig(*pieces)
    elif name == "integer_axis_milp":
        spec = from_expressions(
            [("n", Interval(0.0, 10.0), True), ("x", Interval(-1.0, 1.0), False)],
            "(n - 2.3)^2 + x^2 + n*x", constraints=[("x + n", ">=", -5.0)])
        config = SppaConfig(*pieces)
    elif name in _PARTIAL_FIXED:
        text, rows = _PARTIAL_FIXED[name]
        variables = [("x", Interval(-1.0, 2.0), False), ("y", Interval(0.5, 0.5), False),
                     ("z", Interval(-1.0, 1.0), False)]
        spec = from_expressions(variables, text, constraints=rows)
        config = SppaConfig(*pieces)
    else:
        info = builtin_info(name)
        assert (info["initial_n_pieces"], info["n_pieces"]) == pieces
        spec, config = builtin(name), SppaConfig(*pieces, info["contract_frac"], info["max_iters"])
    result = run(spec, config)
    assert result.termination == termination
    assert len(result.trace) == iterations
    assert result.best_objective == best_objective
    assert result.best_point.tolist() == best_point
    assert sum(rec.milp_stats["pivots"] for rec in result.trace) == pivots


def _chain_spec(n: int):
    # the constrained chained Rosenbrock: its summands on (x_i, x_i+1)
    # overlap without nesting, so each pair is one objective term, and each
    # row term x_i^2 joins the first pair holding x_i in the model
    names = [f"x{i}" for i in range(n)]
    return from_expressions(
        [(v, Interval(-2.0, 2.0), False) for v in names],
        " + ".join(f"100*({b} - {a}^2)^2 + (1 - {a})^2" for a, b in zip(names, names[1:])),
        constraints=[(" + ".join(f"{v}^2" for v in names), "<=", n - 0.5)])


def test_chain_trajectory():
    # pinned as in test_pinned_trajectory, with the node count.  One 5-D
    # term holding every summand takes 28 nodes and 31 pivots to
    # 0.009290448886112145, the split pairs 103 and 205 to a slightly lower best
    spec = _chain_spec(5)
    assert [t.var_ids for t in spec.nonlinear_terms if t.row is None] == [
        (0, 1), (1, 2), (2, 3), (3, 4)]
    result = run(spec, SppaConfig(3, 3))
    assert result.termination == "stall"
    assert len(result.trace) == 22
    assert sum(rec.milp_stats["nodes"] for rec in result.trace) == 103
    assert sum(rec.milp_stats["pivots"] for rec in result.trace) == 205
    assert result.trace[0].milp_stats["root_pivots"] == 0  # the crash basis is optimal
    assert result.best_objective == 0.009290448416158819
    assert result.best_point.tolist() == [0.9893160651469868, 0.9786914974793436,
                                          0.957736729616388, 0.9169868618592265,
                                          0.840263763104344]


def test_chain_of_twenty_builds_one_lattice_set_per_pair():
    # merged into one term, the chain would need 4^20 weights at 3 pieces;
    # split, it has 19 sets of 4^2 weights, each with its set row and two
    # linking rows, plus the chain's row
    spec = _chain_spec(20)
    m = build_iteration_model(spec, spec.bounds(), 3)
    assert m.n_vars == 20 + 19 * 16 == 324 and len(m.senses) == 19 * 3 + 1 == 58
    assert [len(ids) for ids, _ in m.lattice_sets] == [16] * 19


def test_build_makes_one_grid_per_lattice_set(monkeypatch):
    # each lambda block's terms are evaluated at the vertices of its one
    # grid: constrained_a's four terms share one grid, and the n = 5 chain's
    # nine terms (a pair and its row squares per block) make one per pair;
    # the build and each refill encode each block once, at those vertices
    stages, encoded = [], []
    block_stage, encode_term = loop._block_stage, loop.mcmodel.encode_term
    monkeypatch.setattr(loop, "_block_stage",
                        lambda *args: stages.append(block_stage(*args)) or stages[-1])
    monkeypatch.setattr(loop.mcmodel, "encode_term",
                        lambda model, block, points, targets: encoded.append(points)
                        or encode_term(model, block, points, targets))
    problem = pathlib.Path(__file__).resolve().parents[1] / "bench" / "problems" / "constrained_a.prob"
    for spec, pieces, sets in ((load_problem(str(problem)), 3, 1), (_chain_spec(5), 3, 4)):
        models: dict = {}
        for _ in range(2):  # builds the shape, then refills it
            stages.clear()
            encoded.clear()
            lp = build_iteration_model(spec, spec.bounds(), pieces, models)
            [(stage, _)] = stages
            assert len(lp.lattice_sets) == len(stage) == len(encoded) == sets
            for (ids, active, _), (axes, vertices, _), points in zip(models[None][0], stage,
                                                                      encoded):
                assert len(vertices) == math.prod(map(len, axes)) == len(points)
                columns = [ids.index(k) for k in active]
                assert points.tobytes() == np.array(vertices)[:, columns].tobytes()


def test_vertex_iteration_evaluates_each_term_once(monkeypatch):
    # per vertex-path iteration, each term with an active variable gets one
    # row pass and one axis check (Grid's, with no Grid) per active variable,
    # here one; a term of fixed variables gets one call at its point, and the
    # exact objective is the solve's own value
    counts = dict.fromkeys(("axis", "rows", "point", "objective"), 0)

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(loop, "check_axis", counted("axis", loop.check_axis))
    monkeypatch.setattr(ProblemSpec, "objective_value",
                        counted("objective", ProblemSpec.objective_value))
    # y is fixed, so x alone spans the first term's grid; w is fixed, so
    # cos(w) is a constant; v has a linear part
    boxes = {"x": (-1.0, 1.0), "y": (0.5, 0.5), "w": (2.0, 2.0), "v": (0.0, 3.0)}
    partial = from_expressions([(v, Interval(*box), False) for v, box in boxes.items()],
                               "x^2*y + sin(x*y) + cos(w) + v^3 - 2*v")
    assert [t.var_ids for t in partial.nonlinear_terms] == [(0, 1), (2,), (3,)]
    for spec, config, fixed in ((builtin("rastrigin"), SppaConfig(6, 3), 0),
                                (partial, SppaConfig(3, 3, 0.5, 12), 1)):
        for term in spec.nonlinear_terms:
            term.rows_fn, term.fn = counted("rows", term.rows_fn), counted("point", term.fn)
        per_iteration = []

        def snapshot(rec):
            per_iteration.append(dict(counts))
            counts.update(dict.fromkeys(counts, 0))

        counts.update(dict.fromkeys(counts, 0))
        trace = run(spec, config, on_iteration=snapshot).trace
        assert len(trace) > 3 and all(rec.milp_stats["nodes"] == 0 for rec in trace)
        active = len(spec.nonlinear_terms) - fixed
        want = {"axis": active, "rows": active, "point": fixed, "objective": 0}
        assert per_iteration == [want] * len(trace)


def test_vertex_records_read_as_a_milp_without_nodes():
    # the vertex solve returns floats, not a MilpResult; each record still
    # holds its own float array and the stats of a MILP that needed no node
    result = run(builtin("rastrigin"), SppaConfig(6, 3, max_iters=5))
    keys = ["status", *milp.COUNTERS, "gap", "seconds"]
    for rec in result.trace:
        assert list(rec.milp_stats) == keys
        assert {k: rec.milp_stats[k] for k in keys[:-1]} == {
            "status": "optimal", **dict.fromkeys(milp.COUNTERS, 0), "gap": 0.0}
        assert rec.milp_stats["gap"].__class__ is float
        assert rec.incumbent.dtype == float and rec.incumbent.shape == (2,)
        assert rec.objective == rec.surrogate_objective and rec.row_violation == 0.0
    ids = {id(rec.incumbent) for rec in result.trace} | {id(result.best_point)}
    assert len(result.trace) == 5 and len(ids) == 6


def test_both_paths_check_each_grid_axis(monkeypatch):
    # the vertex path builds no Grid, but its axes pass Grid's own check: a
    # window too wide for float arithmetic has an infinite step on either
    # path, and an axis is named by its place among the active ones
    built = []
    monkeypatch.setattr(loop, "build_iteration_model",
                        lambda *args: built.append(args) or build_iteration_model(*args))
    wide = Interval(-1e308, 1e308)
    for boxes, text, rows, milp_path in (
            ({"x": wide}, "x^2/1e300", (), False),
            ({"x": Interval(0.5, 0.5), "y": wide}, "x*y", (), False),
            ({"x": wide, "y": wide}, "x*y", [("x + y", "<=", 1.0)], True)):
        spec = from_expressions([(v, iv, False) for v, iv in boxes.items()], text, rows)
        built.clear()
        with pytest.raises(ValueError, match="^dimension 0: non-finite breakpoint$"):
            run(spec, SppaConfig(3, 3))
        assert bool(built) == milp_path
    # axes that axis_breakpoints never returns still meet the check
    spec = from_expressions([("x", Interval(-1.0, 1.0), False)], "x^4")
    built.clear()
    for axis, reason in ((lambda iv, pieces, integer: (iv.lo, iv.lo, iv.hi),
                          "breakpoints must be strictly increasing"),
                         (lambda iv, pieces, integer: (iv.lo,),
                          "need at least two breakpoints")):
        monkeypatch.setattr(loop, "axis_breakpoints", axis)
        with pytest.raises(ValueError, match=f"^dimension 0: {reason}$"):
            run(spec, SppaConfig(3, 3))
    assert not built


def test_vertex_solve_takes_a_rows_fn_that_returns_an_array():
    # rows_fn may return any sequence of values: an array gives the trace of
    # the same values as a list, under either sense, with or without a
    # linear part
    def spec(rows_fn, sense, lin):
        return ProblemSpec([("x", Interval(-1.0, 2.0), False), ("y", Interval(0.0, 1.0), False)],
                           lin, 0.0, [],
                           [NonlinearTerm((0, 1), lambda v: float(v[0] ** 2 - v[0] * v[1]),
                                          rows_fn=rows_fn)], sense=sense)

    def rows(points):
        return [x * x - x * y for x, y in points]

    for sense in ("min", "max"):
        for lin in ({}, {0: 0.5}):
            want, got = (run(spec(fn, sense, lin), SppaConfig(3, 3, 0.5, 8)).trace
                         for fn in (rows, lambda points: np.array(rows(points))))
            assert all(rec.milp_stats["nodes"] == 0 for rec in got)
            assert [(r.incumbent.tolist(), r.objective) for r in got] == [
                (r.incumbent.tolist(), r.objective) for r in want]


def _short_rows_spec(rows_fn, with_row):
    # (x - 1)^2 on [-1, 1], whose row pass may drop its last value, the
    # vertex x = 1 at the minimum
    rows = [milp.LinearConstraint({0: 1.0}, "<=", 5.0)] if with_row else []
    return ProblemSpec([("x", Interval(-1.0, 1.0), False)], {}, 0.0, rows,
                       [NonlinearTerm((0,), lambda v: float((v[0] - 1.0) ** 2), rows_fn=rows_fn)])


def _short_rows(points):
    return [(x - 1.0) ** 2 for x, in points][:-1]


def _short_rows_trace(spec):
    return [(rec.iteration, rec.incumbent.tolist(), rec.objective, rec.surrogate_objective,
             rec.bounds, {k: v for k, v in rec.milp_stats.items() if k != "seconds"})
            for rec in run(spec, SppaConfig(4, 4, max_iters=2)).trace]


def test_vertex_solve_evaluates_a_short_row_pass_row_by_row():
    # a row pass that gives fewer values than rows is not used: zipped with
    # the vertices, it would leave the last, the minimum x = 1, unvalued
    want = _short_rows_trace(_short_rows_spec(None, False))
    assert [(rec[1], rec[2]) for rec in want] == [([1.0], 0.0), ([1.0], 0.0)]
    assert _short_rows_trace(_short_rows_spec(_short_rows, False)) == want


def test_milp_build_evaluates_a_short_row_pass_row_by_row():
    # under a row the values reach the model, whose block a short pass
    # cannot fill: its four values do not cover the five weights
    want = _short_rows_trace(_short_rows_spec(None, True))
    assert [(rec[1], rec[2]) for rec in want] == [([1.0], 0.0), ([1.0], 0.0)]
    assert want[0][5]["nodes"] > 0 or want[0][5]["pivots"] > 0  # solved as a MILP
    assert _short_rows_trace(_short_rows_spec(_short_rows, True)) == want


def test_overflowing_summed_term_values_fail_the_milp_solve():
    # each objective term is finite at every vertex, but on the row term's
    # block (x*y) their values are summed and overflow: solve_milp names the
    # block's weight that carries the sum
    spec = from_expressions([("x", Interval(-1, 1), False), ("y", Interval(-1, 1), False)],
                            "1e308*x^2 + 1e308*y^2", [("x*y", "<=", 1.0)])
    with pytest.raises(ValueError, match=r"^non-finite c\[2\]$"):
        run(spec, SppaConfig(3, 3))


def test_runs_share_no_solver_state():
    # each run carries its root basis from iteration to iteration, and only
    # within itself: the runs in between (one of another shape, one of the
    # same shape) leave the parabola's trace unchanged
    def trace(spec, config):
        return [(rec.iteration, rec.incumbent.tolist(), rec.objective, rec.surrogate_objective,
                 rec.bounds, {k: v for k, v in rec.milp_stats.items() if k != "seconds"})
                for rec in run(spec, config).trace]

    config = SppaConfig(4, 4, 0.5, 30)
    first = trace(_parabola_spec(), config)
    problem = pathlib.Path(__file__).resolve().parents[1] / "bench" / "problems" / "constrained_a.prob"
    trace(load_problem(str(problem)), SppaConfig(3, 3))
    trace(_parabola_spec(x_min=0.3), config)
    assert trace(_parabola_spec(), config) == first


def test_constrained_b_runs_to_its_end_at_the_default_settings():
    # the largest MILP shipped: a 3-D term of 125 vertex weights at 4/4
    # under a nonlinear and a linear row.  With every basis solved through
    # an explicit inverse instead of LU, this run ended 'iteration_limit'
    problem = pathlib.Path(__file__).resolve().parents[1] / "bench" / "problems" / "constrained_b.prob"
    spec = load_problem(str(problem))
    result = run(spec, SppaConfig())
    assert result.termination in ("stall", "width")
    assert result.best_objective <= -1.2007940
    assert spec.row_violation(result.best_point) <= milp.ROW_TOL


@pytest.mark.parametrize("name", ["rosenbrock", "rastrigin", "ackley", "eggholder"])
def test_builtin_surrogate_is_exact(name):
    # every builtin iteration is solved at the grid vertices, so the
    # surrogate is the exact objective at the incumbent, bit for bit: the
    # grid pass and the single-point evaluation give the same bits, and the
    # run reports the vertex solve's value as the objective.  Through the
    # MILP, ackley's iteration 24 reported -1.6e-12 where the objective is
    # 1.59e-6
    info = builtin_info(name)
    config = SppaConfig(info["initial_n_pieces"], info["n_pieces"], info["contract_frac"],
                        info["max_iters"])
    spec = builtin(name)
    result = run(spec, config)
    if name == "ackley":
        assert len(result.trace) == 27
    for rec in result.trace:
        want = float(spec.objective_value(rec.incumbent)).hex()
        got = [float(rec.objective).hex(), float(rec.surrogate_objective).hex()]
        assert got == [want, want], (rec.iteration, got, want)
    assert all(rec.milp_stats["nodes"] == 0 for rec in result.trace)


def test_invariant_property_suite():
    print(check_sppa_invariants())


def test_vertex_optimum_property_suite():
    print(check_vertex_optimum())


def test_best_point_property_suite():
    print(check_best_point())


def test_model_refill_property_suite():
    print(check_model_refill())


def test_grouped_model_property_suite():
    print(check_grouped_model())


def test_one_pass_build_property_suite():
    print(check_one_pass_build())


def test_crash_basis_property_suite():
    print(check_crash_basis())


def test_each_new_shape_starts_from_its_crash_basis(monkeypatch):
    # the integer axis of n loses breakpoints at iteration 3, so the run
    # builds two shapes: the first root of each starts from the shape's
    # crash start, and every other root from the previous root's basis
    spec = from_expressions(
        [("n", Interval(0.0, 10.0), True), ("x", Interval(-1.0, 1.0), False)],
        "(n - 2.3)^2 + x^2 + n*x", constraints=[("x + n", ">=", -5.0)])
    calls = []
    solve = milp.solve_milp
    monkeypatch.setattr(loop.milp, "solve_milp", lambda model, deadline, start: calls.append(
        (model, start, solve(model, deadline, start))) or calls[-1][2])
    run(spec, SppaConfig(4, 4))
    new = [i for i, (model, _, _) in enumerate(calls) if i == 0 or model is not calls[i - 1][0]]
    assert new == [0, 3]
    for i, (model, start, res) in enumerate(calls):
        if i in new:
            assert start is not None and start.d is None and start.basis.size == model._canon.m
            assert i == 0 or start is not calls[i - 1][2].start
        else:
            assert start is calls[i - 1][2].start
