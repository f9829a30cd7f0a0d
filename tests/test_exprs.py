import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmlab.exprs import MAX_DEPTH, EvalError, ParseError, eval_jet, parse_expr
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
            eval_jet(expr, pt + e, 1).data[1] - eval_jet(expr, pt - e, 1).data[1]
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
    jet = eval_jet(expr, POINT, 3)
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
    jet = eval_jet(parse_expr("x1^2"), np.array([3.0, 0, 0, 0]), 3)
    assert jet.values == 9.0
    assert np.allclose(jet.data[1], [6, 0, 0, 0])
    assert np.allclose(jet.data[2], np.diag([2.0, 0, 0, 0]))
    assert np.allclose(jet.data[3], 0.0)


def test_exponential_jet_at_origin():
    jet = eval_jet(parse_expr("exp(x1)"), np.zeros(4), 3)
    assert jet.values == jet.data[1][0] == jet.data[2][0, 0] == jet.data[3][0, 0, 0] == 1.0


def test_mixed_partial_value():
    jet = eval_jet(parse_expr("sin(x1)*x2"), np.array([0.7, 1.3, 0, 0]), 2)
    assert abs(jet.data[2][0, 1] - math.cos(0.7)) < 1e-14


def test_third_derivatives_are_symmetric():
    expr = parse_expr("exp(x1)*sin(x2) + ln(x3 + 2)/x4 - (x1 - x2)^3", dim=4)
    jet = eval_jet(expr, np.array([0.3, -0.4, 0.5, 1.2]), 3)
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
    assert np.isfinite(eval_jet(expr, POINT, 3).data[3]).all()


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
        eval_jet(parse_expr("ln(x1)"), np.array([-1.0, 0, 0, 0]))
    with pytest.raises(EvalError, match="division"):
        eval_jet(parse_expr("1/x1"), np.zeros(4))
    with pytest.raises(EvalError, match="division"):
        eval_jet(parse_expr("x1^-1"), np.zeros(4))


@pytest.mark.parametrize("src", ["x1*exp(x2) - sin(x3)^2/(2 + x4)", "ln(3 + x1*x4) * cos(x2)", "7"])
def test_point_arrays_evaluate_each_point_bit_for_bit(src):
    # A point array of shape (..., dim) evaluates every point at once; each
    # point's jet is the one that point alone gives.
    expr = parse_expr(src)
    points = np.random.default_rng(5).uniform(-1, 1, size=(2, 3, 4))
    batched = eval_jet(expr, points, order=3)
    for index in np.ndindex(2, 3):
        single = eval_jet(expr, points[index], order=3)
        for level, own in zip(batched.data, single.data):
            assert level[index].tobytes() == own.tobytes()


def test_a_point_array_outside_the_domain_raises_the_per_point_error():
    points = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(EvalError, match="ln of non-positive value"):
        eval_jet(parse_expr("ln(x1)"), points)
    with pytest.raises(EvalError, match="division by zero"):
        eval_jet(parse_expr("1/(x1 + 1)"), points)


def test_jet_order_limits():
    expr = parse_expr("x1")
    with pytest.raises(ValueError):
        eval_jet(expr, np.zeros(4), order=-1)
    jet = eval_jet(expr, np.zeros(4), order=0)
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
    ja, jb = eval_jet(expr_div, pt, 3), eval_jet(expr_mul, pt, 3)
    assert abs(ja.values - jb.values) < 1e-12 * max(1, abs(ja.values))
    assert np.abs(ja.data[1] - jb.data[1]).max() < 1e-12


@pytest.mark.parametrize("src,expected", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_order4_jets_match_differences_of_order3(src, expected):
    expr = parse_expr(src, dim=4)
    jet4 = eval_jet(expr, POINT, 4)
    jet3 = eval_jet(expr, POINT, 3)
    for lower, same in zip(jet4.data[:4], jet3.data):
        assert np.abs(lower - same).max() < 1e-12 * max(1.0, np.abs(same).max())
    h = 1e-4
    fourth_fd = np.zeros((4,) * 4)
    for m in range(4):
        e = np.zeros(4)
        e[m] = h
        fourth_fd[..., m] = (
            eval_jet(expr, POINT + e, 3).data[3] - eval_jet(expr, POINT - e, 3).data[3]
        ) / (2 * h)
    fourth = jet4.data[4]
    assert np.abs(fourth - fourth_fd).max() < 1e-6 * max(1.0, np.abs(fourth).max())
    for perm in [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 1, 2, 0)]:
        assert np.abs(fourth - fourth.transpose(perm)).max() < 1e-12 * max(
            1.0, np.abs(fourth).max()
        )


@pytest.mark.parametrize("u", ["exp(x1)*sin(x3) + x2*x4", "ln(2 + x1^2 + x4^2) - x2/x3"])
@pytest.mark.parametrize("points", [POINT, np.random.default_rng(3).uniform(0.2, 1, (2, 4))])
def test_a_constant_factor_scales_as_the_leibniz_product_does(u, points):
    # 2 * u and u * 2 scale u's jet; the Leibniz product against the constant's
    # zero levels adds only exact zeros, so the levels are the same floats.
    jet = eval_jet(parse_expr(u, dim=4), points, 4)
    two = JetTensor.constant(np.full(jet.shape, 2.0), 4, 4)
    for src, leibniz in ((f"2 * ({u})", two * jet), (f"({u}) * 2", jet * two)):
        scaled = eval_jet(parse_expr(src, dim=4), points, 4)
        assert scaled.order == 4
        for level, expected in zip(scaled.data, leibniz.data):
            assert level.tobytes() == expected.tobytes(), src


def test_a_constant_factor_takes_no_jet_product(monkeypatch):
    calls = []
    product = jetfields.jt_einsum
    monkeypatch.setattr(jetfields, "jt_einsum", lambda *args: calls.append(args[0]) or product(*args))
    for src in ("2 * x1", "x1 * 2", "2 * 3"):
        eval_jet(parse_expr(src, dim=4), POINT, 4)
    assert calls == []
    eval_jet(parse_expr("x1 * x2", dim=4), POINT, 4)
    assert calls == [",->"]
