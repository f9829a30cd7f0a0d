import warnings

import numpy as np
import pytest

from apmlab.tensors import (
    PointStructure,
    StructureError,
    canonical_structure,
    frob,
    metric_inverse,
    random_symmetric2,
    random_tensor4,
    split_structure,
)


def test_metric_inverse_identity():
    assert np.allclose(metric_inverse(np.eye(4)), np.eye(4))


def test_metric_inverse_diagonal():
    assert np.allclose(metric_inverse(2 * np.eye(4)), 0.5 * np.eye(4))


def test_metric_inverse_conformal_factor():
    u = np.log(2.0)
    g = np.exp(2 * u) * np.eye(4)
    g_inv = metric_inverse(g)
    assert np.allclose(g_inv, 0.25 * np.eye(4))
    assert frob(g_inv @ g - np.eye(4)) < 1e-12


def test_metric_inverse_rejects_indefinite():
    with pytest.raises(StructureError, match="positive definite"):
        metric_inverse(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(StructureError, match="positive definite"):
        metric_inverse(np.diag([1.0, 0.0, 1.0, 1.0]))


def test_metric_inverse_involution():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    g = a @ a.T + 6 * np.eye(6)
    assert frob(metric_inverse(metric_inverse(g)) - g) < 1e-10 * frob(g)


def test_random_generators_deterministic_and_bounded():
    s1 = random_symmetric2(6, 42)
    s2 = random_symmetric2(6, 42)
    assert np.array_equal(s1, s2)
    assert np.abs(s1).max() <= 1.0
    assert frob(s1 - s1.T) == 0.0
    t1 = random_tensor4(4, 7)
    assert np.array_equal(t1, random_tensor4(4, 7))
    assert not np.array_equal(t1, random_tensor4(4, 8))


def test_point_structure_invariants():
    ps = canonical_structure(4)
    ps.require_valid()
    assert max(ps.invariant_residuals().values()) == 0.0
    conformal = canonical_structure(4, conformal_factor=np.exp(1.4))
    conformal.require_valid()
    split = split_structure(6)
    split.require_valid()
    assert frob(split.g_assoc - split.g_assoc.T) == 0.0


def test_point_structure_rejects_odd_or_small_dims():
    with pytest.raises(StructureError):
        PointStructure(np.eye(3), np.eye(3))
    with pytest.raises(StructureError):
        PointStructure(np.eye(2), np.eye(2))


def test_frob_does_not_overflow_on_finite_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frob(np.full(4, 1e200)) == pytest.approx(2e200, rel=1e-15)
        assert frob(np.array([3.0, -4.0])) == 5.0
        assert frob(np.array([np.inf, 1.0])) == np.inf
        # With a rank, one norm per trailing block, each scaled on its own.
        stacked = np.array([[1e200] * 4, [3.0, -4.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0],
                            [0.0] * 4]).reshape(4, 2, 2)
        norms = frob(stacked, 2)
        assert norms.shape == (4,)
        assert norms[0] == pytest.approx(2e200, rel=1e-15)
        assert norms[1:].tolist() == [5.0, np.inf, 0.0]
        assert frob(stacked[1], 2) == 5.0
