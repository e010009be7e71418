import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppa import expr
from sppa.expr import (Add, Call, DomainError, Mul, Neg, Num, ParseError, Pow,
                       Sub, Var, eval_expr, free_vars, parse_expr, to_text)

from properties import check_parser


def test_parse_basic_shape():
    ast = parse_expr("x^2 + 100*(y - x^2)^2", var_names=["x", "y"])
    assert free_vars(ast) == {"x", "y"}
    assert isinstance(ast, Add)
    assert isinstance(ast.right, Mul)


def test_unbalanced_paren_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("sin(x", var_names=["x"])
    assert exc.value.position == 5


def test_unary_minus_binds_looser_than_power():
    ast = parse_expr("-x^2", var_names=["x"])
    assert ast == Neg(Pow(Var("x"), Num(2.0)))
    # but tighter than multiplication
    ast = parse_expr("-x*y", var_names=["x", "y"])
    assert ast == Mul(Neg(Var("x")), Var("y"))


def test_power_right_associative():
    ast = parse_expr("2^3^2", var_names=[])
    assert ast == Pow(Num(2.0), Pow(Num(3.0), Num(2.0)))
    assert eval_expr(ast, {}) == 512.0


def test_negative_exponent():
    assert eval_expr(parse_expr("2^-2", var_names=[]), {}) == 0.25


def test_empty_and_garbage():
    with pytest.raises(ParseError):
        parse_expr("", var_names=[])
    with pytest.raises(ParseError):
        parse_expr("   ", var_names=[])
    with pytest.raises(ParseError) as exc:
        parse_expr("x + ?", var_names=["x"])
    assert exc.value.position == 4


def test_unknown_identifier():
    with pytest.raises(ParseError) as exc:
        parse_expr("x + bogus", var_names=["x"])
    assert "bogus" in str(exc.value)


def test_unknown_function():
    with pytest.raises(ParseError):
        parse_expr("tan(x)", var_names=["x"])


def test_constants_fold():
    assert eval_expr(parse_expr("2*pi", var_names=[]), {}) == pytest.approx(2 * math.pi)
    assert eval_expr(parse_expr("e", var_names=[]), {}) == pytest.approx(math.e)
    # a declared variable shadows the constant
    assert parse_expr("e", var_names=["e"]) == Var("e")


def test_eval_examples():
    ast = parse_expr("x^2 + y", var_names=["x", "y"])
    assert eval_expr(ast, {"x": 2.0, "y": 1.0}) == 5.0
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(-1)", var_names=[]), {})
    with pytest.raises(DomainError):
        eval_expr(parse_expr("1/(x - x)", var_names=["x"]), {"x": 3.0})
    with pytest.raises(DomainError):  # overflow is reported, not propagated
        eval_expr(parse_expr("exp(x)", var_names=["x"]), {"x": 1e9})


def test_eggholder_reference_value():
    text = "-(y + 47)*sin(sqrt(abs(x/2 + y + 47))) - x*sin(sqrt(abs(x - y - 47)))"
    ast = parse_expr(text, var_names=["x", "y"])
    assert eval_expr(ast, {"x": 512.0, "y": 404.2319}) == pytest.approx(-959.6407, abs=1e-3)


def test_domain_error_names_subexpression():
    with pytest.raises(DomainError) as exc:
        eval_expr(parse_expr("1 + sqrt(0 - 2)", var_names=[]), {})
    assert "sqrt" in str(exc.value)


_leaf = st.one_of(
    st.floats(0.0, 9.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Var("x"), Var("y")]),
)


def _tree(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        children.map(Neg),
        st.tuples(children, st.sampled_from([Num(2.0), Num(3.0)])).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(expr.FUNCTIONS[:3]), children).map(lambda t: Call(*t)),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaf, _tree, max_leaves=12))
def test_roundtrip_random_trees(ast):
    printed = to_text(ast)
    assert parse_expr(printed, var_names=["x", "y"]) == ast


def test_fixture_table_and_roundtrip():
    print(check_parser())
