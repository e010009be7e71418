import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sppa import pwl
from sppa.pwl import Interval

from properties import (SimplexId, barycentric, build_grid, cell_count, check_triangulation,
                        count_simplices, enumerate_simplices, eval_pwl, hyperplane_coeffs,
                        locate, simplex_vertices)

UNIT_SQUARE = build_grid([Interval(0.0, 1.0), Interval(0.0, 1.0)], [1, 1])


def test_build_grid_equal_spacing():
    g = build_grid([Interval(0.0, 2.0)], [2])
    np.testing.assert_allclose(g.breakpoints[0], [0.0, 1.0, 2.0])
    g = build_grid([Interval(-1.0, 1.0)], [4])
    np.testing.assert_allclose(g.breakpoints[0], [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.breakpoints[0][0] == -1.0 and g.breakpoints[0][-1] == 1.0


def test_build_grid_cell_count_3d():
    g = build_grid([Interval(0.0, 1.0)] * 3, [3, 3, 3])
    assert cell_count(g) == 27


def test_build_grid_errors():
    with pytest.raises(ValueError):
        build_grid([Interval(0.0, 1.0)], [0])
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError):
        Interval(float("-inf"), 0.0)
    with pytest.raises(ValueError, match="^dimension 0: breakpoints must be strictly increasing$"):
        build_grid([(2.0, 2.0)], [1])  # degenerate axis rejected here
    with pytest.raises(ValueError, match="^grid needs at least one dimension$"):
        pwl.Grid([])
    # each rejection names its axis and reason, whatever the axis holds
    for bad, reason in (([[0.0, 1.0]], "need at least two breakpoints"),
                        (np.array([[0.0], [1.0]]), "need at least two breakpoints"),
                        (1.0, "need at least two breakpoints"),
                        ([1.0], "need at least two breakpoints"),
                        ([np.nan, 1.0], "non-finite breakpoint"),
                        ([0.0, np.nan], "non-finite breakpoint"),
                        ([0.0, np.inf], "non-finite breakpoint"),
                        ([-np.inf, 0.0], "non-finite breakpoint"),
                        ([0.0, 1.0, 1.0], "breakpoints must be strictly increasing"),
                        ([0.0, 2.0, 1.0], "breakpoints must be strictly increasing"),
                        ([1.0, 0.0], "breakpoints must be strictly increasing")):
        with pytest.raises(ValueError, match=f"^dimension 1: {reason}$"):
            pwl.Grid([[0.0, 1.0], bad])


def test_count_simplices():
    assert count_simplices(build_grid([(0, 1), (0, 1)], [2, 2])) == 8
    assert count_simplices(build_grid([(0, 1)], [5])) == 5
    assert count_simplices(build_grid([(0, 1)] * 3, [3, 3, 3])) == 162


def test_locate_basic():
    sid = locate(UNIT_SQUARE, [0.25, 0.75])
    assert sid.cell == (0, 0)
    assert sid.perm == (1, 0)  # larger fractional coordinate steps first
    w = barycentric(simplex_vertices(UNIT_SQUARE, sid), np.array([0.25, 0.75]))
    assert w.min() >= -1e-12
    # the other simplex of the cell does not contain the point
    other = SimplexId((0, 0), (0, 1))
    w2 = barycentric(simplex_vertices(UNIT_SQUARE, other), np.array([0.25, 0.75]))
    assert w2.min() < -1e-6


def test_locate_diagonal_tie_break():
    sid = locate(UNIT_SQUARE, [0.5, 0.5])
    assert sid.perm == (0, 1)  # equal fractions: ascending variable index
    f = lambda v: float(v[0] * v[1])
    v1 = hyperplane_coeffs(UNIT_SQUARE, SimplexId((0, 0), (0, 1)), f).value([0.5, 0.5])
    v2 = hyperplane_coeffs(UNIT_SQUARE, SimplexId((0, 0), (1, 0)), f).value([0.5, 0.5])
    assert abs(v1 - v2) <= 1e-12


def test_locate_grid_vertex_and_upper_edge():
    g = build_grid([(0.0, 2.0)], [2])
    f = lambda v: float(v[0] ** 2)
    for x in g.breakpoints[0]:
        assert eval_pwl(g, f, [x]) == pytest.approx(x**2, abs=1e-12)
    # exact upper breakpoint stays in the last cell
    assert locate(g, [2.0]).cell == (1,)


def test_locate_outside_raises():
    with pytest.raises(ValueError):
        locate(UNIT_SQUARE, [1.5, 0.5])


def test_simplex_vertices_paths():
    v = simplex_vertices(UNIT_SQUARE, SimplexId((0, 0), (0, 1)))
    np.testing.assert_allclose(v, [[0, 0], [1, 0], [1, 1]])
    v = simplex_vertices(UNIT_SQUARE, SimplexId((0, 0), (1, 0)))
    np.testing.assert_allclose(v, [[0, 0], [0, 1], [1, 1]])
    cube = build_grid([(0.0, 1.0)] * 3, [1, 1, 1])
    v = simplex_vertices(cube, SimplexId((0, 0, 0), (0, 1, 2)))
    np.testing.assert_allclose(v, [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]])


def test_hyperplane_affine_exact():
    f = lambda v: float(v[0] + v[1])
    for sid in enumerate_simplices(UNIT_SQUARE):
        h = hyperplane_coeffs(UNIT_SQUARE, sid, f)
        np.testing.assert_allclose(h.slopes, [1.0, 1.0], atol=1e-12)
        assert h.intercept == pytest.approx(0.0, abs=1e-12)


def test_hyperplane_chord_1d():
    g = build_grid([(0.0, 1.0)], [1])
    h = hyperplane_coeffs(g, SimplexId((0,), (0,)), lambda v: float(v[0] ** 2))
    assert h.slopes[0] == pytest.approx(1.0)
    assert h.intercept == pytest.approx(0.0)


def test_hyperplane_bilinear_vs_linear_system():
    f = lambda v: float(v[0] * v[1])
    sid = SimplexId((0, 0), (0, 1))
    h = hyperplane_coeffs(UNIT_SQUARE, sid, f)
    np.testing.assert_allclose(h.slopes, [0.0, 1.0], atol=1e-12)
    assert h.intercept == pytest.approx(0.0, abs=1e-12)
    # oracle: solve the 3x3 vertex interpolation system directly
    V = simplex_vertices(UNIT_SQUARE, sid)
    A = np.hstack([np.ones((3, 1)), V])
    coef = np.linalg.solve(A, np.array([f(v) for v in V]))
    assert h.intercept == pytest.approx(coef[0], abs=1e-12)
    np.testing.assert_allclose(h.slopes, coef[1:], atol=1e-12)


def test_hyperplane_interpolates_all_vertices():
    g = build_grid([(-1.0, 2.0), (0.0, 3.0)], [2, 3])
    f = lambda v: float(np.exp(0.3 * v[0]) * np.cos(v[1]))
    for sid in enumerate_simplices(g):
        h = hyperplane_coeffs(g, sid, f)
        for v in simplex_vertices(g, sid):
            assert h.value(v) == pytest.approx(f(v), rel=1e-9, abs=1e-9)


def test_eval_pwl_examples():
    g = build_grid([(0.0, 2.0)], [2])
    assert eval_pwl(g, lambda v: float(v[0] ** 2), [0.5]) == pytest.approx(0.5)
    f = lambda v: float(v[0] * v[1])
    assert eval_pwl(UNIT_SQUARE, f, [0.5, 0.5]) == pytest.approx(0.5)


def test_eval_pwl_nonfinite_vertex_value():
    g = build_grid([(-1.0, 1.0)], [2])
    f = lambda v: float("nan") if v[0] == 0.0 else float(1.0 / v[0])
    with pytest.raises(ValueError):
        eval_pwl(g, f, [0.5])


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    b=st.floats(-5, 5),
    z=st.lists(st.floats(0, 1), min_size=2, max_size=2),
)
def test_affine_exactness_property(a, b, z):
    g = build_grid([(0.0, 1.0), (0.0, 1.0)], [2, 3])
    f = lambda v: float(a[0] * v[0] + a[1] * v[1] + b)
    want = f(np.asarray(z))
    assert abs(eval_pwl(g, f, z) - want) <= 1e-9 * (1.0 + abs(want))


def test_property_suite():
    print(check_triangulation())


@settings(max_examples=400, deadline=None)
@given(
    centre=st.sampled_from([0.0, 1.0, -3.0, 1e4, -2.5e6, 1e9]),
    offset=st.floats(-1.0, 1.0),
    log_width=st.floats(-12.0, 3.0),
    pieces=st.integers(1, 40),
)
def test_axis_breakpoints_are_linspace_with_exact_endpoints(centre, offset, log_width, pieces):
    # the affine fill writes np.linspace's bits, so grids, models and traces
    # are the ones linspace gave; narrow windows far from zero round most
    width = 10.0 ** log_width
    lo = centre + offset * width
    hi = lo + width
    assume(lo < hi)
    iv = Interval(lo, hi)
    want = np.linspace(lo, hi, pieces + 1)
    want[0], want[-1] = lo, hi
    # an axis is a tuple of Python floats, as the vertex solve takes it
    axis = pwl.axis_breakpoints(iv, pieces)
    assert type(axis) is tuple and all(type(b) is float for b in axis)
    assert np.array(axis).tobytes() == want.tobytes()
    # an integer axis snaps those points as before
    ilo, ihi = math.floor(lo), math.floor(lo) + max(1, math.ceil(width))
    snapped = np.round(np.linspace(ilo, ihi, pieces + 1))
    axis = pwl.axis_breakpoints(Interval(ilo, ihi), pieces, integer=True)
    assert type(axis) is tuple and all(type(b) is float for b in axis)
    assert np.array(axis).tobytes() == \
        np.unique(np.concatenate([[ilo, ihi], snapped])).astype(float).tobytes()


def test_axis_breakpoints_need_a_piece():
    for pieces in (0, -1):
        with pytest.raises(ValueError, match="^need at least one piece"):
            pwl.axis_breakpoints(Interval(0.0, 1.0), pieces)


def test_axis_breakpoints_integer_snapping():
    np.testing.assert_array_equal(pwl.axis_breakpoints(Interval(0.0, 5.0), 2, integer=True),
                                  [0.0, 2.0, 5.0])
    # inner points snap to integers, fractional endpoints stay
    np.testing.assert_array_equal(pwl.axis_breakpoints(Interval(0.5, 3.5), 4, integer=True),
                                  [0.5, 1.0, 2.0, 3.0, 3.5])


def test_interval_is_an_immutable_record():
    iv = Interval(0.0, 1.0)
    assert iv == Interval(lo=0.0, hi=1.0) and iv.width == 1.0
    assert repr(iv) == "Interval(lo=0.0, hi=1.0)"
    assert hash(iv) == hash(Interval(0.0, 1.0)) and len({iv, Interval(0.0, 1.0)}) == 1
    assert iv != Interval(0.0, 2.0) and iv != (0.0, 1.0)
    assert Interval(0, 10) == Interval(0.0, 10.0)  # integer bounds compare by value
    assert Interval(np.float64(-1.0), 1).lo == -1.0
    with pytest.raises(AttributeError, match="^cannot assign to or delete field 'lo'$"):
        iv.lo = 0.5
    with pytest.raises(AttributeError):
        del iv.hi
    assert (iv.lo, iv.hi) == (0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [("0", "1"), (0.0, "1"), (True, 2.0), (0.0, False),
                                    (0j, 1.0), (None, 1.0), ([0.0], 1.0)])
def test_interval_rejects_a_bound_that_is_not_a_real_number(lo, hi):
    # a string used to raise a bare TypeError from math.isfinite, and True
    # was taken as the bound 1
    with pytest.raises(ValueError, match=re.escape(
            f"interval bounds must be real numbers, got [{lo!r}, {hi!r}]")):
        Interval(lo, hi)
