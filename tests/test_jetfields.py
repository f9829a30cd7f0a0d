import numpy as np
import pytest

from apmlab.exprs import eval_jet, parse_expr
from apmlab.jetfields import JetOrderError, JetTensor, jt_einsum, jt_inverse

DIM = 4
POINT = np.array([0.3, -0.2, 0.5, 0.8])

A_EXPR = [["exp(x1)", "x2*x3"], ["sin(x4)", "x1^2 - x3"]]
B_EXPR = [["x1 + x2", "cos(x3)"], ["ln(x4 + 2)", "x2^3"]]
M_EXPR = [["exp(x1) + 2", "x2*x3"], ["x2*x3", "cos(x4) + 3"]]


def grid_tensor(grid, pt=POINT, order=3):
    jets = [[eval_jet(parse_expr(s, DIM), pt, order) for s in row] for row in grid]
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
            ref = eval_jet(parse_expr(src, DIM), POINT, 3)
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
    jets = [[eval_jet(parse_expr(f"3 + cos(x{i + 1})" if i == j
                                 else f"sin(x{i + 1} + x{j + 1})/5", 6), METRIC_6D_POINT, order)
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
