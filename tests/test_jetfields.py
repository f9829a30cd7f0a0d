from string import ascii_lowercase

import numpy as np
import pytest

from apmlab import jetfields
from apmlab.exprs import parse_expr
from apmlab.jetfields import JetOrderError, JetTensor, jt_einsum, jt_inverse

DIM = 4
POINT = np.array([0.3, -0.2, 0.5, 0.8])

A_EXPR = [["exp(x1)", "x2*x3"], ["sin(x4)", "x1^2 - x3"]]
B_EXPR = [["x1 + x2", "cos(x3)"], ["ln(x4 + 2)", "x2^3"]]
M_EXPR = [["exp(x1) + 2", "x2*x3"], ["x2*x3", "cos(x4) + 3"]]


def grid_tensor(grid, pt=POINT, order=3):
    jets = [[parse_expr(s, DIM).eval_jet(pt, order) for s in row] for row in grid]
    return JetTensor(
        tuple(np.array([[j.data[k] for j in row] for row in jets]) for k in range(order + 1)),
        DIM,
    )


def grid_values(grid, pt):
    return np.array([[parse_expr(s, DIM)(pt) for s in row] for row in grid])


def test_product_matches_scalar_jets():
    a, b = grid_tensor(A_EXPR), grid_tensor(B_EXPR)
    c = jt_einsum("ab,bc->ac", a, b)
    for i in range(2):
        for k in range(2):
            src = " + ".join(f"({A_EXPR[i][j]})*({B_EXPR[j][k]})" for j in range(2))
            ref = parse_expr(src, DIM).eval_jet(POINT, 3)
            assert abs(c.data[0][i, k] - ref.values) < 1e-12
            assert np.abs(c.data[1][i, k] - ref.data[1]).max() < 1e-12
            assert np.abs(c.data[2][i, k] - ref.data[2]).max() < 1e-11
            assert np.abs(c.data[3][i, k] - ref.data[3]).max() < 1e-11


def test_partial_matches_finite_differences():
    c = jt_einsum("ab,bc->ac", grid_tensor(A_EXPR), grid_tensor(B_EXPR))
    dc = c.partial()
    h = 1e-6
    for m in range(DIM):
        e = np.zeros(DIM)
        e[m] = h
        fd = (
            grid_values(A_EXPR, POINT + e) @ grid_values(B_EXPR, POINT + e)
            - grid_values(A_EXPR, POINT - e) @ grid_values(B_EXPR, POINT - e)
        ) / (2 * h)
        assert np.abs(dc.values[:, :, m] - fd).max() < 1e-8


def test_partial_reduces_order():
    a = grid_tensor(A_EXPR, order=2)
    assert a.order == 2
    assert a.partial().order == 1
    assert a.partial().partial().order == 0
    with pytest.raises(JetOrderError):
        a.partial().partial().partial()


def test_transpose_applies_to_all_orders():
    a = grid_tensor(A_EXPR)
    at = a.transpose("ab->ba")
    assert np.array_equal(at.values, a.values.T)
    assert np.array_equal(at.data[2], a.data[2].transpose(1, 0, 2, 3))


def test_inverse_exact_on_jets():
    m = grid_tensor(M_EXPR)
    m_inv = jt_inverse(m, np.linalg.inv(m.values))
    prod = jt_einsum("ab,bc->ac", m, m_inv)
    eye = JetTensor.constant(np.eye(2), DIM, 3)
    for lhs, rhs in zip(prod.data, eye.data):
        assert np.abs(lhs - rhs).max() < 1e-12


def test_inverse_derivative_matches_fd():
    m = grid_tensor(M_EXPR)
    m_inv = jt_inverse(m, np.linalg.inv(m.values))
    d = m_inv.partial()
    h = 1e-6
    for k in range(DIM):
        e = np.zeros(DIM)
        e[k] = h
        fd = (
            np.linalg.inv(grid_values(M_EXPR, POINT + e))
            - np.linalg.inv(grid_values(M_EXPR, POINT - e))
        ) / (2 * h)
        assert np.abs(d.values[:, :, k] - fd).max() < 1e-7


def test_constant_has_zero_derivatives():
    c = JetTensor.constant(np.arange(4.0).reshape(2, 2), DIM, 3)
    assert all(np.all(part == 0) for part in c.data[1:])


def test_scalar_contraction_shapes():
    a = grid_tensor(A_EXPR)
    s = jt_einsum("ab,ab->", a, a)
    assert s.values.shape == ()
    assert s.data[1].shape == (DIM,)


def test_inverse_exact_at_order_four():
    m = grid_tensor(M_EXPR, order=4)
    m_inv = jt_inverse(m, np.linalg.inv(m.values))
    assert m_inv.order == 4
    prod = jt_einsum("ab,bc->ac", m, m_inv)
    eye = JetTensor.constant(np.eye(2), DIM, 4)
    for lhs, rhs in zip(prod.data, eye.data):
        assert np.abs(lhs - rhs).max() < 1e-12


def recursion_inverse(a, inverse):
    """The inverse by dX = -X dA X, each order from the whole jet one order lower."""
    if a.order == 0:
        return JetTensor((inverse,), a.dim)
    x = recursion_inverse(a.truncated(a.order - 1), inverse)
    rest = -jt_einsum("ab,bcz->acz", x, jt_einsum("abz,bc->acz", a.partial(), x))
    return JetTensor((inverse,) + rest.data, a.dim)


METRIC_6D_POINT = np.array([0.3, -0.2, 0.5, 0.8, -0.4, 0.1])


def metric_jet_6d(order):
    """A non-diagonal, diagonally dominant 6x6 metric jet: 3 + cos(x_i) on, sin(x_i + x_j)/5 off the diagonal."""
    jets = [[parse_expr(f"3 + cos(x{i + 1})" if i == j else f"sin(x{i + 1} + x{j + 1})/5", 6)
             .eval_jet(METRIC_6D_POINT, order)
             for j in range(6)] for i in range(6)]
    return JetTensor(
        tuple(np.array([[e.data[k] for e in row] for row in jets]) for k in range(order + 1)), 6)


@pytest.mark.parametrize("order", range(1, 6))
@pytest.mark.parametrize("case", ["grid_2x2", "metric_6x6"])
def test_level_by_level_inverse_matches_the_recursion(case, order):
    # The per-level inverse adds each split's views in place; a sum that
    # started on a product with several shuffles would read what it writes.
    m = grid_tensor(M_EXPR, order=order) if case == "grid_2x2" else metric_jet_6d(order)
    m_inv = jt_inverse(m, np.linalg.inv(m.values))
    assert m_inv.order == order
    eye = JetTensor.constant(np.eye(m.shape[0]), m.dim, order)
    for lhs, rhs in zip(jt_einsum("ab,bc->ac", m, m_inv).data, eye.data):
        assert np.abs(lhs - rhs).max() < 1e-12
    for k, (got, ref) in enumerate(zip(m_inv.data, recursion_inverse(m, m_inv.values).data)):
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max()), k
        assert np.abs(ref).max() > 1e-3, k  # not a comparison between zeros


def compose(u, value, derivative):
    """The recursion f(u) = (f(u0), the data of f'(u) du one order lower), f' a whole jet."""
    value = np.asarray(value, dtype=float)
    if u.order == 0:
        return JetTensor((value,), u.dim)
    letters = ascii_lowercase[: len(u.shape)]
    slope = derivative(u.truncated(u.order - 1))
    rest = jt_einsum(f"{letters},{letters}z->{letters}z", slope, u.partial())
    return JetTensor((value,) + rest.data, u.dim)


def recursion_exp(u):
    return compose(u, np.exp(u.values), recursion_exp)


def recursion_sin(u):
    return compose(u, np.sin(u.values), recursion_cos)


def recursion_cos(u):
    return compose(u, np.cos(u.values), lambda v: -recursion_sin(v))


def recursion_reciprocal(u):
    def derivative(v):
        r = recursion_reciprocal(v)
        return -(r * r)

    return compose(u, 1.0 / u.values, derivative)


def recursion_ln(u):
    return compose(u, np.log(u.values), recursion_reciprocal)


def recursion_powi(u, k):
    if k == 0:
        return JetTensor.constant(np.ones(u.shape), u.dim, u.order)
    return compose(u, u.values**k, lambda v: recursion_powi(v, k - 1).scaled(k))


# name -> (the level-by-level function, its recursion oracle, byte-equal)
FUNCTIONS = {
    "exp": (JetTensor.exp, recursion_exp, True),
    "sin": (JetTensor.sin, recursion_sin, True),
    "cos": (JetTensor.cos, recursion_cos, True),
    "ln": (JetTensor.ln, recursion_ln, False),
    "reciprocal": (JetTensor.reciprocal, recursion_reciprocal, False),
    **{f"powi({k})": (lambda u, k=k: u.powi(k), lambda u, k=k: recursion_powi(u, k), False)
       for k in range(-3, 6)},
}
# Positive on the sample points, with a nonzero third level.
ARGUMENT = "x1*x2 + x3*x4*x1 + x2 + 0.5"
POINTS = np.random.default_rng(11).uniform(0.2, 1.0, (2, 3, DIM))


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_functions_extend_level_by_level_as_the_recursion_does(name, order):
    function, recursion, exact = FUNCTIONS[name]
    u = parse_expr(ARGUMENT, DIM)
    for points in (POINTS[1, 2], POINTS):
        got, ref = function(u.eval_jet(points, order)), recursion(u.eval_jet(points, order))
        assert got.order == order
        for k, (level, expected) in enumerate(zip(got.data, ref.data)):
            level, expected = np.asarray(level), np.asarray(expected)
            assert level.shape == expected.shape, k
            if exact:
                assert level.tobytes() == expected.tobytes(), k
            else:
                assert np.abs(level - expected).max() <= 1e-13 * np.abs(expected).max(), k
    # Each point's jet is the one that point gives alone, bit for bit.
    whole = function(u.eval_jet(POINTS, order))
    for index in np.ndindex(POINTS.shape[:-1]):
        alone = function(u.eval_jet(POINTS[index], order))
        for level, expected in zip(whole.data, alone.data):
            assert level[index].tobytes() == np.asarray(expected).tobytes(), index


def count_levels(monkeypatch):
    calls = []
    level = jetfields._level
    monkeypatch.setattr(jetfields, "_level", lambda *args: calls.append(args[-1]) or level(*args))
    return calls


@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("name", ["exp", "sin", "cos"])
def test_exp_sin_and_cos_take_one_level_product_per_order(name, order, monkeypatch):
    u = parse_expr(ARGUMENT, DIM).eval_jet(POINT, order)
    calls = count_levels(monkeypatch)
    getattr(u, name)()
    assert calls == list(range(order))  # level k - 1 of f' du for each level k


@pytest.mark.parametrize("k, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (-3, 2),
                                         (1000001, 26)])
def test_an_integer_power_is_repeated_squaring(k, products, monkeypatch):
    # floor(log2 |k|) squarings, then one more product per further set bit of |k|.
    calls = []
    monkeypatch.setattr(jetfields, "jt_einsum",
                        lambda spec, a, b: calls.append(a is b) or jt_einsum(spec, a, b))
    jet = parse_expr(f"x1^{k}", DIM).eval_jet(np.array([1.0, 0.2, 0.3, 0.4]), 4)
    assert jet.values == 1.0
    squarings = abs(k).bit_length() - 1
    assert len(calls) == products == squarings + bin(abs(k)).count("1") - 1
    assert sum(calls) == squarings
