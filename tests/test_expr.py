import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppa import expr
from sppa.expr import (BinOp, Call, DomainError, Neg, Num, ParseError, Var, eval_expr,
                       free_vars, parse_expr, to_text)

from properties import check_parser, check_row_evaluator


def test_parse_basic_shape():
    ast = parse_expr("x^2 + 100*(y - x^2)^2", var_names=["x", "y"])
    assert free_vars(ast) == {"x", "y"}
    assert isinstance(ast, BinOp) and ast.op == "+"
    assert isinstance(ast.right, BinOp) and ast.right.op == "*"


def test_unbalanced_paren_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("sin(x", var_names=["x"])
    assert exc.value.position == 5


def test_unary_minus_binds_looser_than_power():
    ast = parse_expr("-x^2", var_names=["x"])
    assert ast == Neg(BinOp("^", Var("x"), Num(2.0)))
    # but tighter than multiplication
    ast = parse_expr("-x*y", var_names=["x", "y"])
    assert ast == BinOp("*", Neg(Var("x")), Var("y"))


def test_power_right_associative():
    ast = parse_expr("2^3^2", var_names=[])
    assert ast == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
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
    assert parse_expr("pi*e", var_names=["pi"]) == BinOp("*", Var("pi"), Num(math.e))


def test_eval_examples():
    ast = parse_expr("x^2 + y", var_names=["x", "y"])
    assert eval_expr(ast, {"x": 2.0, "y": 1.0}) == 5.0
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(-1)", var_names=[]), {})
    with pytest.raises(DomainError):
        eval_expr(parse_expr("1/(x - x)", var_names=["x"]), {"x": 3.0})
    # overflow is reported, not propagated, and not as a domain error
    with pytest.raises(DomainError, match=r"^exp overflows in 'exp\(x\)'$"):
        eval_expr(parse_expr("exp(x)", var_names=["x"]), {"x": 1e9})
    with pytest.raises(DomainError, match=r"^power overflows in 'x\^2\.0'$"):
        eval_expr(parse_expr("x^2", var_names=["x"]), {"x": 1e300})
    with pytest.raises(DomainError, match=r"^power outside real domain in 'x\^0\.5'$"):
        eval_expr(parse_expr("x^0.5", var_names=["x"]), {"x": -1.0})


def test_eggholder_reference_value():
    text = "-(y + 47)*sin(sqrt(abs(x/2 + y + 47))) - x*sin(sqrt(abs(x - y - 47)))"
    ast = parse_expr(text, var_names=["x", "y"])
    assert eval_expr(ast, {"x": 512.0, "y": 404.2319}) == pytest.approx(-959.6407, abs=1e-3)


def test_domain_error_names_subexpression():
    with pytest.raises(DomainError) as exc:
        eval_expr(parse_expr("1 + sqrt(0 - 2)", var_names=[]), {})
    assert "sqrt" in str(exc.value)


def test_non_finite_result_names_subexpression():
    ast = parse_expr("1 + x*y", var_names=["x", "y"])
    with pytest.raises(DomainError) as exc:
        eval_expr(ast, {"x": 1e200, "y": 1e200})
    assert str(exc.value) == f"non-finite result in '{to_text(ast)}'" == (
        "non-finite result in '1.0 + x*y'")


def test_unassigned_variable_names_subexpression():
    ast = parse_expr("x + sin(y)", var_names=["x", "y"])
    with pytest.raises(DomainError) as exc:
        eval_expr(ast, {"x": 1.0})
    assert exc.value.subexpr == Var("y")
    assert str(exc.value) == f"unassigned variable 'y' in '{to_text(Var('y'))}'" == (
        "unassigned variable 'y' in 'y'")


a, b, c = map(Var, "abc")

# each string with its exact tree, or its ParseError (message, position)
_GOLDEN = [
    ("a-b-c", BinOp("-", BinOp("-", a, b), c)),
    ("a/b/c", BinOp("/", BinOp("/", a, b), c)),
    ("a-b*c", BinOp("-", a, BinOp("*", b, c))),
    ("a*b^c", BinOp("*", a, BinOp("^", b, c))),
    ("a^b^c", BinOp("^", a, BinOp("^", b, c))),
    ("a^-b^c", BinOp("^", a, Neg(BinOp("^", b, c)))),
    ("a^b*c", BinOp("*", BinOp("^", a, b), c)),
    ("-a^b", Neg(BinOp("^", a, b))),
    ("-a*b", BinOp("*", Neg(a), b)),
    ("a*-b", BinOp("*", a, Neg(b))),
    ("--a", Neg(Neg(a))),
    ("(a+b)*c", BinOp("*", BinOp("+", a, b), c)),
    ("sin(-a)^2", BinOp("^", Call("sin", Neg(a)), Num(2.0))),
    ("2^-3", BinOp("^", Num(2.0), Neg(Num(3.0)))),
    ("1.5e3 + .5", BinOp("+", Num(1500.0), Num(0.5))),
    ("a\t+\n b\n", BinOp("+", a, b)),
    ("pi*e", BinOp("*", Num(math.pi), Num(math.e))),
    ("", ("empty expression", 0)),
    ("   ", ("empty expression", 0)),
    ("\t\n", ("empty expression", 0)),
    ("a + ?", ("unexpected character '?'", 4)),
    ("a + b   ?", ("unexpected character '?'", 8)),
    ("a..b", ("unexpected character '.'", 1)),
    ("a + d", ("unknown identifier 'd'", 4)),
    ("tan(a)", ("unknown function 'tan'", 0)),
    ("sin a", ("unknown identifier 'sin'", 0)),
    ("(a + b", ("expected ')'", 6)),
    ("sin(a", ("expected ')'", 5)),
    ("a + *", ("expected a value, got '*'", 4)),
    ("a +", ("unexpected end of input", 3)),
    ("a b", ("unexpected token 'b'", 2)),
    ("a )", ("unexpected token ')'", 2)),
]


@pytest.mark.parametrize("text, want", _GOLDEN)
def test_parser_golden_table(text, want):
    if isinstance(want, tuple):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, var_names=["a", "b", "c"])
        assert (exc.value.message, exc.value.position) == want
    else:
        assert parse_expr(text, var_names=["a", "b", "c"]) == want


_leaf = st.one_of(
    st.floats(0.0, 9.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Var("x"), Var("y")]),
)


def _tree(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(expr.FUNCTIONS), children).map(lambda t: Call(*t)),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaf, _tree, max_leaves=12))
def test_roundtrip_random_trees(ast):
    printed = to_text(ast)
    assert parse_expr(printed, var_names=["x", "y"]) == ast


def test_fixture_table_and_roundtrip():
    print(check_parser())


def test_row_evaluator_property_suite():
    print(check_row_evaluator())


def test_nodes_are_immutable_records():
    # built positionally or by keyword, equal by class and fields, hashed by
    # the fields, shown as the constructor call; assignment and deletion raise
    tree = BinOp("+", Var("x"), Num(1.0))
    assert tree == BinOp(op="+", left=Var(name="x"), right=Num(value=1.0))
    assert repr(tree) == "BinOp(op='+', left=Var(name='x'), right=Num(value=1.0))"
    assert repr(Call("sin", Neg(Var("y")))) == "Call(fn='sin', arg=Neg(arg=Var(name='y')))"
    assert hash(tree) == hash(BinOp("+", Var("x"), Num(1.0)))
    assert len({Num(2.0), Num(2.0), Var("x"), Var("x")}) == 2
    assert tree != BinOp("-", Var("x"), Num(1.0)) and Num(1.0) != 1.0

    class Leaf(Num):
        pass

    assert Leaf(1.0) != Num(1.0) and Neg(Num(1.0)) != Call("abs", Num(1.0))
    for node, field in ((tree, "op"), (Num(1.0), "value"), (Call("exp", Var("x")), "arg")):
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete field '{field}'$"):
            setattr(node, field, Num(0.0))
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert tree.op == "+" and Num(1.0).value == 1.0
    with pytest.raises(TypeError):
        Num()
    with pytest.raises(TypeError):
        Var("x", "y")
