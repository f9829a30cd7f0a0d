import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmlab.exprs import (
    MAX_DEPTH,
    Const,
    EvalError,
    ParseError,
    ScalarExpr,
    Var,
    parse_expr,
)
from apmlab import jetfields
from apmlab.jetfields import JetTensor

# Golden corpus: expression, point, expected value (computed with math.*).
POINT = np.array([0.4, -0.7, 1.3, 2.1])
CORPUS = [
    ("x1", POINT[0]),
    ("x2", POINT[1]),
    ("3", 3.0),
    ("2.5", 2.5),
    ("1e-3", 1e-3),
    ("-x1", -POINT[0]),
    ("x1 + x2", POINT[0] + POINT[1]),
    ("x1 - x2 - x3", POINT[0] - POINT[1] - POINT[2]),
    ("x1 - (x2 - x3)", POINT[0] - (POINT[1] - POINT[2])),
    ("x1*x2", POINT[0] * POINT[1]),
    ("x1/x3", POINT[0] / POINT[2]),
    ("x1/x3/x4", POINT[0] / POINT[2] / POINT[3]),
    ("x1^2", POINT[0] ** 2),
    ("x1^3", POINT[0] ** 3),
    ("x2^2", POINT[1] ** 2),
    ("x3^-2", POINT[2] ** -2),
    ("-x1^2", -(POINT[0] ** 2)),
    ("(x1 + x2)^2", (POINT[0] + POINT[1]) ** 2),
    ("2*x1^2 - 3*x1 + 1", 2 * POINT[0] ** 2 - 3 * POINT[0] + 1),
    ("exp(x1)", math.exp(POINT[0])),
    ("exp(2*x1)", math.exp(2 * POINT[0])),
    ("sin(x1)", math.sin(POINT[0])),
    ("cos(x2)", math.cos(POINT[1])),
    ("ln(x3)", math.log(POINT[2])),
    ("ln(x3 + 2)", math.log(POINT[2] + 2)),
    ("sin(x1)*x2", math.sin(POINT[0]) * POINT[1]),
    ("cos(x1)^2 + sin(x1)^2", 1.0),
    ("exp(sin(x1))", math.exp(math.sin(POINT[0]))),
    ("x1*x3 + x2*x4", POINT[0] * POINT[2] + POINT[1] * POINT[3]),
    ("exp(x1)*sin(x2) - ln(x4)/x3", math.exp(POINT[0]) * math.sin(POINT[1]) - math.log(POINT[3]) / POINT[2]),
]


def fd_gradient(expr, pt, h=1e-6):
    out = np.zeros(pt.shape[0])
    for i in range(pt.shape[0]):
        e = np.zeros(pt.shape[0])
        e[i] = h
        out[i] = (expr(pt + e) - expr(pt - e)) / (2 * h)
    return out


def fd_hessian(expr, pt, h=1e-5):
    out = np.zeros((pt.shape[0],) * 2)
    for i in range(pt.shape[0]):
        e = np.zeros(pt.shape[0])
        e[i] = h
        out[:, i] = (
            expr.eval_jet(pt + e, 1).data[1] - expr.eval_jet(pt - e, 1).data[1]
        ) / (2 * h)
    return out


def test_corpus_has_thirty_expressions():
    assert len(CORPUS) == 30


@pytest.mark.parametrize("src,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_parses_and_evaluates(src, expected):
    expr = parse_expr(src, dim=4)
    assert abs(expr(POINT) - expected) < 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("src,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_jets_match_finite_differences(src, expected):
    expr = parse_expr(src, dim=4)
    jet = expr.eval_jet(POINT, 3)
    grad_fd = fd_gradient(expr, POINT)
    scale = max(1.0, abs(jet.values))
    assert np.abs(jet.data[1] - grad_fd).max() < 1e-6 * scale
    hess_fd = fd_hessian(expr, POINT)
    assert np.abs(jet.data[2] - hess_fd).max() < 1e-6 * max(1.0, np.abs(jet.data[2]).max())


@pytest.mark.parametrize("src,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_round_trips_through_printer(src, expected):
    expr = parse_expr(src, dim=4)
    again = parse_expr(str(expr), dim=4)
    assert again == expr
    assert abs(again(POINT) - expr(POINT)) == 0.0


def test_polynomial_jet_values():
    jet = parse_expr("x1^2").eval_jet(np.array([3.0, 0, 0, 0]), 3)
    assert jet.values == 9.0
    assert np.allclose(jet.data[1], [6, 0, 0, 0])
    assert np.allclose(jet.data[2], np.diag([2.0, 0, 0, 0]))
    assert np.allclose(jet.data[3], 0.0)


def test_exponential_jet_at_origin():
    jet = parse_expr("exp(x1)").eval_jet(np.zeros(4), 3)
    assert jet.values == jet.data[1][0] == jet.data[2][0, 0] == jet.data[3][0, 0, 0] == 1.0


def test_mixed_partial_value():
    jet = parse_expr("sin(x1)*x2").eval_jet(np.array([0.7, 1.3, 0, 0]), 2)
    assert abs(jet.data[2][0, 1] - math.cos(0.7)) < 1e-14


def test_third_derivatives_are_symmetric():
    expr = parse_expr("exp(x1)*sin(x2) + ln(x3 + 2)/x4 - (x1 - x2)^3", dim=4)
    jet = expr.eval_jet(np.array([0.3, -0.4, 0.5, 1.2]), 3)
    third = jet.data[3]
    for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
        assert np.abs(third - third.transpose(perm)).max() == 0.0


@pytest.mark.parametrize(
    "src,offset",
    [
        ("x1*(x2", 6),
        ("x5 + 1", 0),
        ("foo(x1)", 0),
        ("x1 $ x2", 3),
        ("x1 + ", 5),
        ("x1^x2", 3),
        ("2 ^ 1.5", 4),
        ("(x1))", 4),
    ],
)
def test_parse_errors_carry_positions(src, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(src, dim=4)
    assert err.value.position == offset


# Each shape at n levels: a sum of n - 1 terms two levels deep, n unary
# minuses, n parentheses and n nested calls.
DEPTH_SHAPES = {
    "terms": lambda n: " + ".join(["x1*x2/1000"] * (n - 1)),
    "unary_minus": lambda n: "-" * n + "x1",
    "parentheses": lambda n: "(" * n + "x1" + ")" * n,
    "calls": lambda n: "sin(" * n + "x1" + ")" * n,
}


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_an_expression_at_the_depth_bound_parses_hashes_evaluates_and_prints(shape):
    expr = parse_expr(DEPTH_SHAPES[shape](MAX_DEPTH), dim=4)
    assert hash(expr) == hash(parse_expr(str(expr), dim=4))
    assert np.isfinite(expr.eval_jet(POINT, 3).data[3]).all()


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_hashing_a_tree_at_the_depth_bound_does_not_recurse(shape, monkeypatch):
    # Each node hashes (class, fields) once, when it is built; hashing the
    # root afterwards reads that number and visits no child.
    expr = parse_expr(DEPTH_SHAPES[shape](MAX_DEPTH), dim=4)
    hashed = []
    node_hash = ScalarExpr.__hash__
    monkeypatch.setattr(ScalarExpr, "__hash__", lambda node: hashed.append(node) or node_hash(node))
    hash(expr)
    assert hashed == [expr]


def test_separate_parses_of_one_expression_are_equal_and_hash_equal():
    src = "exp(2*x1) + sin(x2)^2 - x3/4 * -ln(x4)"
    a, b = parse_expr(src, dim=4), parse_expr(src, dim=4)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != parse_expr(src.replace("/4", "/5"), dim=4)
    assert repr(parse_expr("x1 + 2")) == "Binary(op='+', left=Var(index=0), right=Const(value=2.0))"


def test_nodes_of_different_classes_are_different_dict_keys():
    # A grid's distinct entries are deduplicated in a dict: a zero constant
    # and the first coordinate must stay two entries.
    assert Const(0.0) != Var(0)
    distinct = {Const(0.0): "zero", Var(0): "x1"}
    assert len(distinct) == 2
    assert distinct[Const(0.0)] == "zero" and distinct[Var(0)] == "x1"


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 1200])
@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_a_deeper_expression_is_a_parse_error(shape, levels):
    # 1200 levels used to crash with a RecursionError: in the parser, or in
    # the hash of the parsed tree.
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_expr(DEPTH_SHAPES[shape](levels), dim=4)


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("   ")


def test_eval_domain_errors():
    with pytest.raises(EvalError, match="ln"):
        parse_expr("ln(x1)").eval_jet(np.array([-1.0, 0, 0, 0]))
    with pytest.raises(EvalError, match="division"):
        parse_expr("1/x1").eval_jet(np.zeros(4))
    with pytest.raises(EvalError, match="division"):
        parse_expr("x1^-1").eval_jet(np.zeros(4))


@pytest.mark.parametrize("src", ["x1*exp(x2) - sin(x3)^2/(2 + x4)", "ln(3 + x1*x4) * cos(x2)", "7"])
def test_point_arrays_evaluate_each_point_bit_for_bit(src):
    # A point array of shape (..., dim) evaluates every point at once; each
    # point's jet is the one that point alone gives.
    expr = parse_expr(src)
    points = np.random.default_rng(5).uniform(-1, 1, size=(2, 3, 4))
    batched = expr.eval_jet(points, order=3)
    for index in np.ndindex(2, 3):
        single = expr.eval_jet(points[index], order=3)
        for level, own in zip(batched.data, single.data):
            assert level[index].tobytes() == own.tobytes()


def test_a_point_array_outside_the_domain_raises_the_per_point_error():
    points = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(EvalError, match="ln of non-positive value"):
        parse_expr("ln(x1)").eval_jet(points)
    with pytest.raises(EvalError, match="division by zero"):
        parse_expr("1/(x1 + 1)").eval_jet(points)


def test_jet_order_limits():
    expr = parse_expr("x1")
    with pytest.raises(ValueError):
        expr.eval_jet(np.zeros(4), order=-1)
    jet = expr.eval_jet(np.zeros(4), order=0)
    assert len(jet.data) == 1 and jet.order == 0


def test_jet_constant_and_variable_seeds():
    c = JetTensor.constant(2.5, 4, 3)
    v = JetTensor.variable(1.5, 2, 4, 3)
    s = c * v
    assert s.values == 3.75
    assert np.allclose(s.data[1], [0, 0, 2.5, 0])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-2, 2).filter(lambda v: abs(v) > 1e-3),
)
def test_division_matches_multiplication_by_reciprocal(seed, denom):
    rng = np.random.default_rng(seed)
    pt = rng.uniform(0.2, 1.5, size=4)
    expr_div = parse_expr(f"(x1 + 2*x2)/{denom!r}", dim=4)
    expr_mul = parse_expr(f"(x1 + 2*x2)*{1.0 / denom!r}", dim=4)
    ja, jb = expr_div.eval_jet(pt, 3), expr_mul.eval_jet(pt, 3)
    assert abs(ja.values - jb.values) < 1e-12 * max(1, abs(ja.values))
    assert np.abs(ja.data[1] - jb.data[1]).max() < 1e-12


@pytest.mark.parametrize("src,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_order4_jets_match_differences_of_order3(src, expected):
    expr = parse_expr(src, dim=4)
    jet4 = expr.eval_jet(POINT, 4)
    jet3 = expr.eval_jet(POINT, 3)
    for lower, same in zip(jet4.data[:4], jet3.data):
        assert np.abs(lower - same).max() < 1e-12 * max(1.0, np.abs(same).max())
    h = 1e-4
    fourth_fd = np.zeros((4,) * 4)
    for m in range(4):
        e = np.zeros(4)
        e[m] = h
        fourth_fd[..., m] = (
            expr.eval_jet(POINT + e, 3).data[3] - expr.eval_jet(POINT - e, 3).data[3]
        ) / (2 * h)
    fourth = jet4.data[4]
    assert np.abs(fourth - fourth_fd).max() < 1e-6 * max(1.0, np.abs(fourth).max())
    for perm in [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 1, 2, 0)]:
        assert np.abs(fourth - fourth.transpose(perm)).max() < 1e-12 * max(
            1.0, np.abs(fourth).max()
        )


# Each form of an operand with no variable, around an expression u.
CONSTANT_OPERANDS = ["2 * ({u})", "({u}) * 2", "({u})/4", "4/({u})", "({u}) + 2", "2 - ({u})",
                     "-2*({u})"]


@pytest.mark.parametrize("u", ["exp(x1)*sin(x3) + x2*x4", "ln(2 + x1^2 + x4^2) - x2/x3", "x1"])
@pytest.mark.parametrize("points", [POINT, np.random.default_rng(3).uniform(0.2, 1, (2, 4))])
def test_a_constant_factor_scales_as_the_leibniz_product_does(u, points):
    # An operand with no variable shifts u's values or scales its levels; jet
    # arithmetic on both operands' jets adds only exact zeros, and np.einsum
    # sums from +0, so the levels are the same floats.
    for src in (form.format(u=u) for form in CONSTANT_OPERANDS):
        expr = parse_expr(src, dim=4)
        a, b = expr.left.eval_jet(points, 4), expr.right.eval_jet(points, 4)
        leibniz = {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[expr.op]
        got = expr.eval_jet(points, 4)
        assert got.order == 4
        for level, expected in zip(got.data, leibniz.data):
            assert level.tobytes() == expected.tobytes(), src


def test_a_constant_factor_takes_no_jet_product(monkeypatch):
    calls = []
    product = jetfields.jt_einsum
    monkeypatch.setattr(jetfields, "jt_einsum", lambda *args: calls.append(args[0]) or product(*args))
    for src in ["2 * 3"] + [form.format(u="x1") for form in CONSTANT_OPERANDS]:
        parse_expr(src, dim=4).eval_jet(POINT, 4)
    assert calls == []
    parse_expr("x1 * x2", dim=4).eval_jet(POINT, 4)
    assert calls == [",->"]
    for src in ("x1/0", "x1/(1 - 1)"):
        with pytest.raises(EvalError, match="division by zero"):
            parse_expr(src, dim=4).eval_jet(POINT, 4)
