import math
import textwrap

import numpy as np
import pytest

from sppa.problems import (ProblemFormatError, ProblemSpec, NonlinearTerm,
                           builtin, builtin_info, builtin_names,
                           from_expressions, load_problem)
from sppa.pwl import Interval


def test_builtin_names():
    assert builtin_names() == ["rosenbrock", "rastrigin", "ackley", "eggholder"]
    with pytest.raises(ValueError):
        builtin_info("nosuch")
    with pytest.raises(ValueError):
        builtin("nosuch")


def test_builtin_decomposition_shapes():
    # the whole of rosenbrock couples through x, so it stays one 2-D term
    spec = builtin("rosenbrock")
    assert [t.var_ids for t in spec.nonlinear_terms] == [(0, 1)]
    assert spec.linear_objective == {}
    # rastrigin splits into one quadratic-plus-cosine term per variable
    spec = builtin("rastrigin")
    assert sorted(t.var_ids for t in spec.nonlinear_terms) == [(0,), (1,)]
    assert spec.objective_constant == pytest.approx(20.0)
    # ackley's two exponentials share both variables: a single 2-D term
    spec = builtin("ackley")
    assert [t.var_ids for t in spec.nonlinear_terms] == [(0, 1)]
    assert spec.objective_constant == pytest.approx(20.0 + math.e)
    spec = builtin("eggholder")
    assert [t.var_ids for t in spec.nonlinear_terms] == [(0, 1)]


def test_builtin_reference_optima():
    assert builtin("rosenbrock").objective_value([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert builtin("rastrigin").objective_value([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert builtin("ackley").objective_value([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert builtin("eggholder").objective_value([512.0, 404.2319]) == pytest.approx(
        -959.6407, abs=1e-3)


def _textbook(name):
    if name == "rosenbrock":
        return lambda x, y: (1 - x) ** 2 + 100 * (y - x**2) ** 2
    if name == "rastrigin":
        return lambda x, y: (20 + x * x + y * y
                             - 10 * np.cos(2 * np.pi * x) - 10 * np.cos(2 * np.pi * y))
    if name == "ackley":
        return lambda x, y: (-20 * np.exp(-0.2 * np.sqrt(0.5 * (x * x + y * y)))
                             - np.exp(0.5 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y)))
                             + 20 + np.e)
    return lambda x, y: (-(y + 47) * np.sin(np.sqrt(abs(x / 2 + y + 47)))
                         - x * np.sin(np.sqrt(abs(x - y - 47))))


@pytest.mark.parametrize("name", ["rosenbrock", "rastrigin", "ackley", "eggholder"])
def test_builtin_terms_reproduce_function(name):
    spec = builtin(name)
    f = _textbook(name)
    lo, hi = builtin_info(name)["box"]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(100):
        x, y = rng.uniform(lo, hi, size=2)
        want = float(f(x, y))
        assert spec.objective_value([x, y]) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_affine_parts_go_linear():
    spec = from_expressions(
        [("x", Interval(0, 1), False), ("y", Interval(0, 2), False)],
        "3*x - y/2 + 5 + sin(x)",
    )
    assert spec.linear_objective == {0: 3.0, 1: -0.5}
    assert spec.objective_constant == pytest.approx(5.0)
    assert [t.var_ids for t in spec.nonlinear_terms] == [(0,)]


def test_constraint_terms_target_rows():
    spec = from_expressions(
        [("x", Interval(-1, 1), False), ("y", Interval(-1, 1), False)],
        "x + y",
        constraints=[("x^2 + y", "<=", 0.5), ("x - y", ">=", -1.0)],
    )
    assert len(spec.linear_constraints) == 2
    assert spec.linear_constraints[0].coeffs == {1: 1.0}
    terms = [t for t in spec.nonlinear_terms if t.row == 0]
    assert len(terms) == 1 and terms[0].var_ids == (0,)
    assert not any(t.row == 1 for t in spec.nonlinear_terms)


def test_forced_groups_merge_terms():
    variables = [("x", Interval(-1, 1), False), ("y", Interval(-1, 1), False)]
    auto = from_expressions(variables, "sin(x) + cos(y)")
    assert sorted(t.var_ids for t in auto.nonlinear_terms) == [(0,), (1,)]
    forced = from_expressions(variables, "sin(x) + cos(y)", groups=[["x", "y"]])
    assert [t.var_ids for t in forced.nonlinear_terms] == [(0, 1)]


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError):
        ProblemSpec([("x", Interval(0, 1), False), ("x", Interval(0, 1), False)],
                    {}, 0.0, [], [])


def test_unknown_identifier_in_objective():
    with pytest.raises(Exception):
        from_expressions([("x", Interval(0, 1), False)], "x + zz")


def test_load_problem(tmp_path):
    text = textwrap.dedent("""
        # toy model
        [variables]
        x  -1  2
        n   0  5  integer

        [objective]
        min (x - 0.5)^2 + n

        [constraints]
        x + n <= 4            # linear row
        x^2 - n <= 2*2 - 3.5  # rhs is a constant expression

        [groups]
        x
    """)
    path = tmp_path / "toy.prob"
    path.write_text(text)
    spec = load_problem(str(path))
    assert spec.name == "toy"
    assert spec.variables[0] == ("x", Interval(-1.0, 2.0), False)
    assert spec.variables[1] == ("n", Interval(0.0, 5.0), True)
    assert len(spec.linear_constraints) == 2
    assert spec.linear_constraints[1].rhs == pytest.approx(0.5)
    assert spec.sense == "min"
    assert spec.objective_value([0.5, 0.0]) == pytest.approx(0.0)


def test_load_problem_syntax_error_line(tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text("[variables]\nx 0 1\n\n[objective]\nmin sin(x\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert exc.value.line == 5
    assert "position" in str(exc.value)


def test_load_problem_structure_errors(tmp_path):
    p = tmp_path / "a.prob"
    p.write_text("[objective]\nmin x\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # no variables
    p.write_text("[variables]\nx 0 1\nx 0 2\n[objective]\nmin x\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # duplicate
    p.write_text("[nope]\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # unknown section
    p.write_text("[variables]\nx 0 1\n[objective]\nmin x\n[constraints]\nx < 1\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # bad sense token
    p.write_text("[variables]\nx 1 0\n[objective]\nmin x\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # inverted bounds


@pytest.mark.parametrize("body, line, message", [
    ("[objective]\nmin x^2 + 1/0\n", 5, "division by zero"),
    ("[objective]\nmin x^2 + y^2\n[constraints]\nx + y <= 3\nx + y/0 <= 1\n", 8,
     "division by zero"),
    ("[objective]\nmin x^2\n[constraints]\nx*1e308*10 <= 1\n", 7, "non-finite coefficient"),
])
def test_load_problem_decomposition_error_line(tmp_path, body, line, message):
    # an error found while decomposing an expression names that expression's line
    path = tmp_path / "bad.prob"
    path.write_text("[variables]\nx 0 1\ny 0 1\n" + body)
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert exc.value.line == line
    assert message in str(exc.value)
