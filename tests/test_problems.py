import math
import pathlib
import textwrap

import numpy as np
import pytest

from properties import check_separable_interpolant, check_split_terms
from sppa import expr
from sppa.loop import SppaConfig, run
from sppa.problems import (ProblemFormatError, ProblemSpec, NonlinearTerm,
                           builtin, builtin_info, builtin_names,
                           from_expressions, load_problem)
from sppa.milp import LinearConstraint
from sppa.problems import Interval


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


def test_term_rejects_points_of_the_wrong_width():
    # a one-variable term once read each row of two values by its first one
    term = builtin("rastrigin").nonlinear_terms[0]
    assert term.var_ids == (0,)
    assert term.on([(1.0,), (0.0,)]) == [term.at(np.array([1.0])), term.at(np.array([0.0]))]
    calls = {"(2,)": [lambda: term.on([(1.0, 2.0), (0.0, 5.0)]),
                      lambda: term.at(np.array([1.0, 2.0]))],
             "(0,)": [lambda: term.on([()])], "(1, 1)": [lambda: term.at(np.array([[1.0]]))]}
    for shape, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError) as exc:
                fn()
            assert str(exc.value) == f"expected a point of width 1, got shape {shape}"


def test_affine_parts_go_linear():
    spec = from_expressions(
        [("x", Interval(0, 1), False), ("y", Interval(0, 2), False)],
        "3*x - y/2 + 5 + sin(x)",
    )
    assert spec.linear_objective == {0: 3.0, 1: -0.5}
    assert spec.objective_constant == pytest.approx(5.0)
    assert [t.var_ids for t in spec.nonlinear_terms] == [(0,)]


@pytest.mark.parametrize("text, constant, linear, at_3", [
    ("2*(x - 3*y)", 0.0, {0: 2.0, 1: -6.0}, []),      # * over a constant, then -
    ("-(x + 1)/4", -0.25, {0: -0.25}, []),             # affine /, of a negation
    ("(y + 1)^1", 1.0, {1: 1.0}, []),                  # ^1 keeps its base affine
    ("-(x - 2*y) + 3", 3.0, {0: -1.0, 1: 2.0}, []),    # a negated sum is flattened
    ("x^2/2", 0.0, {}, [4.5]),                         # / of a nonlinear numerator
    ("-x^2", 0.0, {}, [-9.0]),                         # a negated nonlinear summand
    ("2*(-(x^2))", 0.0, {}, [-18.0]),                  # a negation of a nonlinear part
])
def test_decomposition_constants_and_coefficients(text, constant, linear, at_3):
    spec = from_expressions([("x", Interval(-4, 4), False), ("y", Interval(-4, 4), False)], text)
    assert spec.objective_constant == constant
    assert spec.linear_objective == linear
    assert [t.var_ids for t in spec.nonlinear_terms] == [(0,)] * len(at_3)
    assert [t.fn(np.array([3.0])) for t in spec.nonlinear_terms] == at_3


def test_non_finite_affine_parts_rejected(tmp_path):
    variables = [("x", Interval(0, 1), False), ("y", Interval(0, 1), False)]
    for text, message in (("1e308*x*10 + y^2 + x*y", "non-finite coefficient on 'x'"),
                          ("1e308*x - 1e308*x*10 + y^2", "non-finite coefficient on 'x'"),
                          ("1e308 + 1e308 + x^2 + y^2", "non-finite constant")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_expressions(variables, text)
        path = tmp_path / "big.prob"
        path.write_text(f"[variables]\nx 0 1\ny 0 1\n[objective]\nmin {text}\n"
                        "[constraints]\nx + y <= 1\n")
        with pytest.raises(ProblemFormatError) as exc:
            load_problem(str(path))
        assert str(exc.value) == f"line 5: objective: {message}"
    for objective, constant in (({0: math.inf}, 0.0), ({0: 1.0}, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            ProblemSpec(variables, objective, constant, [], [])
    with pytest.raises(ValueError, match="objective references unknown variable 2"):
        ProblemSpec(variables, {2: 1.0}, 0.0, [], [])  # before, run() raised IndexError


def test_problem_spec_rejects_a_bad_sense_and_unknown_references():
    variables = [("x", Interval(0, 1), False), ("y", Interval(0, 1), False)]
    row = LinearConstraint({0: 1.0}, "<=", 1.0)
    for args, kwargs, message in (
            (([], []), {"sense": "maximize"}, "sense must be"),
            (([], [NonlinearTerm((0, 2), math.sin)]), {}, "term references unknown variable 2"),
            (([row], [NonlinearTerm((0,), math.sin, row=1)]), {}, "term references unknown row 1"),
            (([LinearConstraint({3: 1.0}, ">=", 0.0)], []), {},
             "row references unknown variable 3")):
        with pytest.raises(ValueError, match=message):
            ProblemSpec(variables, {}, 0.0, *args, **kwargs)


def test_nonlinear_parts_nested_in_a_product_make_one_term():
    # a sum holding a nonlinear summand, under a constant factor, is one term
    spec = from_expressions([("x", Interval(-4, 4), False), ("y", Interval(-4, 4), False)],
                            "(x + y^2)*2")
    assert (spec.objective_constant, spec.linear_objective) == (0.0, {})
    [term] = spec.nonlinear_terms
    assert term.var_ids == (0, 1) and term.fn(np.array([3.0, 2.0])) == 14.0


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


def test_summands_group_by_nested_variable_sets():
    # taken largest variable set first, a summand joins the first group
    # whose variables contain its own, or leads a term of its own: x*y and
    # y*z overlap without nesting, so each is a term, and y^2 joins x*y.
    # Terms are ordered by their smallest variable id, then by their
    # leading summand's position (x*z before x*y), and each adds its
    # summands left to right from 0.0 (z^3 before y*z, which leads)
    variables = [(n, Interval(-1, 1), False) for n in ("x", "y", "z", "w")]
    cases = [("x*y + y*z + sin(w)", [(0, 1), (1, 2), (3,)],
              lambda x, y, z, w: [0.0 + x * y, 0.0 + y * z, 0.0 + math.sin(w)]),
             ("x*y + z^3 + sin(w) + y*z", [(0, 1), (1, 2), (3,)],
              lambda x, y, z, w: [0.0 + x * y, 0.0 + math.pow(z, 3.0) + y * z,
                                  0.0 + math.sin(w)]),
             ("sin(w) + x*y + cos(w)*w + y^2", [(0, 1), (3,)],
              lambda x, y, z, w: [0.0 + x * y + math.pow(y, 2.0),
                                  0.0 + math.sin(w) + math.cos(w) * w]),
             ("x*z + x*y", [(0, 2), (0, 1)], lambda x, y, z, w: [0.0 + x * z, 0.0 + x * y])]
    rng = np.random.default_rng(7)
    for text, ids, sums in cases:
        spec = from_expressions(variables, text)
        assert [(t.var_ids, t.label) for t in spec.nonlinear_terms] == [
            (i, f"g{g}") for g, i in enumerate(ids)], text
        for _ in range(20):
            v = rng.uniform(-1, 1, size=4)
            assert [t.fn(v[list(t.var_ids)]) for t in spec.nonlinear_terms] == sums(
                *v.tolist()), text


def test_split_terms_property_suite():
    print(check_split_terms())


def test_separable_interpolant_property_suite():
    print(check_separable_interpolant())


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


def test_load_problem_parses_each_expression_once(tmp_path, monkeypatch):
    path = tmp_path / "toy.prob"
    path.write_text("[variables]\nx -1 2\ny 0 1\n[objective]\nmin sin(x) + x*y\n"
                    "[constraints]\nx^2 + y <= 2*2\nx - y >= -1\n")
    parsed = []
    plain = expr.parse_expr
    monkeypatch.setattr(expr, "parse_expr",
                        lambda text, var_names: parsed.append(text) or plain(text, var_names))
    load_problem(str(path))
    # the objective and each row's lhs and rhs, once each
    assert sorted(text.strip() for text in parsed) == sorted(
        ["sin(x) + x*y", "x^2 + y", "2*2", "x - y", "-1"])


def test_load_problem_syntax_error_line(tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text("[variables]\nx 0 1\n\n[objective]\nmin sin(x\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert exc.value.line == 5
    assert "position" in str(exc.value)


def test_objective_error_names_its_continuation_line(tmp_path):
    # the objective spans lines 5 and 6; the stray ")" is at position 8 of
    # line 6's expression (position 12 of the joined text)
    path = tmp_path / "bad.prob"
    path.write_text("[variables]\nx -1 1\ny 0 1\n[objective]\nmin x^2\n  + y^2 + )\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == "line 6: objective: expected a value, got ')' at position 8"
    # an error on the first line keeps its position there
    path.write_text("[variables]\nx -1 1\ny 0 1\n[objective]\nmin x^2 + )\n  + y^2\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == "line 5: objective: expected a value, got ')' at position 6"
    # the end of the input lies on the last line
    path.write_text("[variables]\nx -1 1\n[objective]\nmin x^2 +\n  x *\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == "line 5: objective: unexpected end of input at position 3"
    # an error without a position names the objective's first line
    path.write_text("[variables]\nx -1 1\n[objective]\nmin x^2\n  + sqrt(-1)\n")
    with pytest.raises(ProblemFormatError, match=r"^line 4: objective: "):
        load_problem(str(path))


def test_constraint_rhs_error_names_its_line_position(tmp_path):
    # the stray ")" is at position 15 of the line, 5 of the text after "<="
    path = tmp_path / "bad.prob"
    path.write_text("[variables]\nx -1 1\n[objective]\nmin x\n[constraints]\n"
                    "x + x^2 <= 1 + )\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == "line 6: constraint: expected a value, got ')' at position 15"
    # an error in the left-hand side keeps its position there
    path.write_text("[variables]\nx -1 1\n[objective]\nmin x\n[constraints]\nx + ) >= 1\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == "line 6: constraint: expected a value, got ')' at position 4"


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
    p.write_text("[variables]\nx 0 1\ny 0 1\n[objective]\nmin sin(x) + cos(y)\n"
                 "[groups]\nx y\n")
    with pytest.raises(ProblemFormatError, match=r"^line 6: unknown section \[groups\]$"):
        load_problem(str(p))  # terms are grouped by shared variables only
    p.write_text("[variables]\nx 0 1\n[objective]\nmin x\n[constraints]\nx < 1\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # bad sense token
    p.write_text("[variables]\nx 1 0\n[objective]\nmin x\n")
    with pytest.raises(ProblemFormatError):
        load_problem(str(p))  # inverted bounds


@pytest.mark.parametrize("text, line, message", [
    ("# a model\n\nx 0 1\n[variables]\n", 3, "content before the first section header"),
    ("[variables]\nx 0\n", 2, "expected: name lo hi [integer]"),
    ("[variables]\nx 0 1\ny 0 1 integer 2\n", 3, "expected: name lo hi [integer]"),
    ("[variables]\nx 0 1 real\n", 2, "unexpected token 'real'"),
    # an empty section names its header, a missing one the file's last line
    ("[variables]\nx 0 1\n[objective]\nmin\n[constraints]\nx <= 1\n", 3, "no objective"),
    ("[variables]\n[objective]\nmin x\n", 1, "no variables declared"),
    ("[variables]\nx 0 1\n\n", 3, "no objective"),
    ("[objective]\nmin x\n", 2, "no variables declared"),
    ("", 1, "no variables declared"),
    ("# nothing\n", 1, "no variables declared"),
    # a sense word is read once, before the expression; a later one is text
    ("[variables]\nx -1 1\ny -1 1\n[objective]\nmax x^2 +\nmin y^2\n", 6,
     "objective: unknown identifier 'min' at position 0"),
    ("[variables]\nx 0 1\n[objective]\nmax\nmin x\n", 5,
     "objective: unknown identifier 'min' at position 0"),
])
def test_load_problem_format_error_lines(tmp_path, text, line, message):
    path = tmp_path / "bad.prob"
    path.write_text(text)
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == f"line {line}: {message}"


def test_bare_sense_line_takes_the_next_line(tmp_path):
    path = tmp_path / "toy.prob"
    path.write_text("[variables]\nx -1 2\ny 0 1\n[objective]\nmax\n  x^2 - y\n")
    spec = load_problem(str(path))
    assert spec.sense == "max"
    assert spec.linear_objective == {1: -1.0}
    assert spec.objective_value([2.0, 1.0]) == 3.0


def test_readme_problem_file_example_solves(tmp_path):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.prob"
    path.write_text(readme.split("## Problem files", 1)[1].split("```")[1])
    spec = load_problem(str(path))
    assert [name for name, _, _ in spec.variables] == ["x", "n"]
    result = run(spec, SppaConfig())
    # the linking rows give x back as lo + (b - lo), a few float spacings off 0.5
    assert result.termination == "width"
    assert result.best_objective == 1.1093356479670479e-31
    assert result.best_point.tolist() == [0.5000000000000003, 0.0]


def test_integer_bounds_round_inward(tmp_path):
    spec = ProblemSpec([("n", Interval(-2.5, 3.7), True), ("m", Interval(0.0, 4.0), True),
                        ("x", Interval(-2.5, 3.7), False)], {}, 0.0, [], [])
    assert spec.bounds() == [Interval(-2.0, 3.0), Interval(0.0, 4.0), Interval(-2.5, 3.7)]
    with pytest.raises(ValueError, match="no integer"):
        ProblemSpec([("n", Interval(0.2, 0.8), True)], {}, 0.0, [], [])
    path = tmp_path / "empty.prob"
    path.write_text("[variables]\nx 0 1\nn 0.2 0.8 integer\n[objective]\nmin x + n\n")
    with pytest.raises(ProblemFormatError, match="no integer") as exc:
        load_problem(str(path))
    assert exc.value.line == 3


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


def test_a_constant_part_that_fails_fails_the_build(tmp_path):
    # sqrt(-1) fails wherever x is, so the spec fails as it is built, as a
    # failing affine summand does, and a problem file names the objective's
    # first line before any solve
    with pytest.raises(expr.DomainError, match=r"^square root of a negative number in "
                                               r"'sqrt\(-1\.0\)'$"):
        from_expressions([("x", Interval(-1, 1), False)], "sin(x + sqrt(-1))")
    path = tmp_path / "const.prob"
    path.write_text("[variables]\nx -1 1\n[objective]\nmin x^2\n  + sin(x + sqrt(-1))\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(str(path))
    assert str(exc.value) == "line 4: objective: square root of a negative number in 'sqrt(-1.0)'"


def test_problem_spec_rejects_a_term_that_repeats_a_variable():
    # both axes of a term on (0, 0) would be placed at x's position, and the
    # second never linked to x: x*x read as x*z with z free in [-1, 1]
    with pytest.raises(ValueError, match=r"^term 't0' repeats a variable in \(0, 0\)$"):
        ProblemSpec([("x", Interval(-1, 1), False)], {}, 0.0, [],
                    [NonlinearTerm((0, 0), lambda v: float(v[0] * v[1]))])
    with pytest.raises(ValueError, match=r"^term 'sq' repeats a variable in \(1, 0, 1\)$"):
        ProblemSpec([("x", Interval(-1, 1), False), ("y", Interval(-1, 1), False)], {}, 0.0,
                    [], [NonlinearTerm((1, 0, 1), lambda v: float(v[0] * v[1]), label="sq")])
