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
