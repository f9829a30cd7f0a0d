import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmlab.structure import (
    CLASS_W0,
    CLASS_W1,
    CLASS_W3BAR,
    CLASS_W6BAR,
    _eigenclass_form,
    adapted_orthonormal_basis,
    classify_f,
    f_symmetry_residuals,
    projectors,
    w1_form,
)
from apmlab.tensors import PointStructure, StructureError, canonical_structure, frob


def adapted_basis_residual(ps, basis):
    """The larger of |B^T g B - I| and |B[:, n:] - P B[:, :n]|: 0 for an adapted orthonormal B."""
    n = ps.n
    return max(frob(basis.T @ ps.g @ basis - np.eye(ps.dim)),
               frob(basis[:, n:] - ps.p @ basis[:, :n]))


def random_theta(ps, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=ps.dim)


def test_validate_canonical_structure():
    ps = canonical_structure(4)
    ps.require_valid()
    assert max(ps.invariant_residuals().values()) == 0.0


def test_validate_flags_nonzero_trace():
    ps = PointStructure(np.eye(4), np.eye(4))
    with pytest.raises(StructureError, match="trace_p"):
        ps.require_valid()
    assert ps.invariant_residuals()["trace_p"] == 4.0


def test_validate_conformal_scaling_preserves_compatibility():
    for u in (-0.7, 0.0, 1.3):
        ps = canonical_structure(4, conformal_factor=np.exp(2 * u))
        ps.require_valid()


def test_projectors_properties():
    ps = canonical_structure(4)
    h, v = projectors(ps)
    eye = np.eye(4)
    assert frob(h + v - eye) < 1e-12
    assert frob(h @ v) < 1e-12
    assert frob(ps.p @ h - h) < 1e-12
    assert frob(ps.p @ v + v) < 1e-12
    assert abs(np.trace(h) - 2) < 1e-12 and abs(np.trace(v) - 2) < 1e-12
    # canonical h maps e1 to (e1+e3)/2
    assert np.allclose(h @ np.eye(4)[0], np.array([0.5, 0, 0.5, 0]))
    # v o h annihilates random vectors
    rng = np.random.default_rng(0)
    assert frob(v @ h @ rng.normal(size=4)) < 1e-12


def test_adapted_basis_postconditions_canonical():
    ps = canonical_structure(4)
    basis = adapted_orthonormal_basis(ps)
    assert adapted_basis_residual(ps, basis) < 1e-12


def test_adapted_basis_split_structure_unchanged():
    # The split coordinate basis is already adapted: e_{n+a} = P e_a fails for
    # diag(+1,-1) P, so this uses the swap structure where it holds exactly.
    ps = canonical_structure(4)
    assert np.allclose(adapted_orthonormal_basis(ps), np.eye(4))


def test_adapted_basis_conformal_scaling():
    ps = canonical_structure(4, conformal_factor=4.0)
    basis = adapted_orthonormal_basis(ps)
    assert adapted_basis_residual(ps, basis) < 1e-12
    # vectors carry the 1/2 normalization of the scaled metric
    assert np.allclose(np.abs(basis[np.nonzero(basis)]), 0.5)


def test_adapted_basis_generic_metric():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) * 0.2
    g = np.eye(4) + 0.5 * (a + a.T)
    p = canonical_structure(4).p
    # make P compatible with g by averaging the metric over the P action
    g = 0.5 * (g + p.T @ g @ p)
    ps = PointStructure(g, p)
    assert max(ps.invariant_residuals().values()) < 1e-8
    basis = adapted_orthonormal_basis(ps)
    assert adapted_basis_residual(ps, basis) < 1e-10


def test_lee_form_of_zero_f():
    ps = canonical_structure(4)
    rep = classify_f(ps, np.zeros((4, 4, 4)))
    assert frob(rep.theta) == 0.0 and frob(rep.theta_p) == 0.0


def test_lee_form_round_trip_through_w1_form():
    ps = canonical_structure(4)
    theta0 = np.array([0.4, -1.1, 0.3, 0.9])
    f = w1_form(ps, theta0)
    assert max(f_symmetry_residuals(ps, f).values()) < 1e-12
    rep = classify_f(ps, f)
    assert frob(rep.theta - theta0) < 1e-10
    assert frob(rep.theta_p - theta0 @ ps.p) < 1e-10


def test_w1_form_component_value():
    # dim 4, identity metric, swap structure, theta dual to e1
    ps = canonical_structure(4)
    theta = np.array([1.0, 0, 0, 0])
    f = w1_form(ps, theta)
    assert abs(f[0, 0, 0] - 0.5) < 1e-15


def test_w1_form_linear_in_theta():
    ps = canonical_structure(4)
    t1, t2 = random_theta(ps, 1), random_theta(ps, 2)
    lhs = w1_form(ps, 2.0 * t1 - 3.0 * t2)
    rhs = 2.0 * w1_form(ps, t1) - 3.0 * w1_form(ps, t2)
    assert frob(lhs - rhs) < 1e-12


def test_eigenclass_forms_require_eigen_theta():
    ps = canonical_structure(4)
    h = 0.5 * (np.eye(4) + ps.p)
    v = 0.5 * (np.eye(4) - ps.p)
    theta = random_theta(ps, 3)
    f3 = _eigenclass_form(ps, v @ theta, +1.0)
    f6 = _eigenclass_form(ps, h @ theta, -1.0)
    assert max(f_symmetry_residuals(ps, f3).values()) < 1e-12
    assert max(f_symmetry_residuals(ps, f6).values()) < 1e-12


def test_classify_zero_is_w0():
    ps = canonical_structure(4)
    assert classify_f(ps, np.zeros((4, 4, 4))).label == CLASS_W0


def test_classify_eigenclasses_round_trip():
    ps = canonical_structure(4)
    h = 0.5 * (np.eye(4) + ps.p)
    v = 0.5 * (np.eye(4) - ps.p)
    theta = random_theta(ps, 4)
    rep3 = classify_f(ps, _eigenclass_form(ps, v @ theta, +1.0))
    assert rep3.label == CLASS_W3BAR and rep3.residual_w3bar < 1e-12
    rep6 = classify_f(ps, _eigenclass_form(ps, h @ theta, -1.0))
    assert rep6.label == CLASS_W6BAR and rep6.residual_w6bar < 1e-12


def test_classify_mixed_theta_is_w1_only():
    ps = canonical_structure(4)
    theta = np.array([0.8, -0.2, 0.5, 0.3])  # both eigenparts nonzero
    rep = classify_f(ps, w1_form(ps, theta))
    assert rep.label == CLASS_W1
    assert rep.residual_w1 < 1e-12
    assert rep.residual_w3bar > 1e-6 and rep.residual_w6bar > 1e-6


def test_classify_outside_w1():
    ps = canonical_structure(4)
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 4, 4))
    # symmetrize [y,z] and project to the F-symmetry class so contraction works
    f = raw + raw.transpose(0, 2, 1)
    p = ps.p
    f = 0.5 * (f - np.einsum("iab,aj,bk->ijk", f, p, p))
    assert max(f_symmetry_residuals(ps, f).values()) < 1e-12
    rep = classify_f(ps, f)
    assert rep.label == "outside_W1"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_class_nesting_of_residuals(seed):
    ps = canonical_structure(4)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4, 4))
    f = raw + raw.transpose(0, 2, 1)
    p = ps.p
    f = 0.5 * (f - np.einsum("iab,aj,bk->ijk", f, p, p))
    rep = classify_f(ps, f)
    slack = 1e-9 * max(1.0, rep.residual_w0)
    assert rep.residual_w1 <= rep.residual_w0 + slack
    assert rep.residual_w1 <= rep.residual_w3bar + slack
    assert rep.residual_w1 <= rep.residual_w6bar + slack


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lee_form_round_trip_property(seed):
    ps = canonical_structure(4, conformal_factor=1.7)
    theta0 = random_theta(ps, seed)
    theta = classify_f(ps, w1_form(ps, theta0)).theta
    assert frob(theta - theta0) < 1e-10 * max(1.0, frob(theta0))


def test_w1_form_of_zero_theta_vanishes():
    ps = canonical_structure(4)
    assert frob(w1_form(ps, np.zeros(4))) == 0.0


def test_gram_schmidt_degenerate_frame_rejected():
    from apmlab.structure import _gram_schmidt

    columns = np.zeros((4, 4))
    columns[:, 0] = [1.0, 0, 0, 0]
    columns[:, 1] = [2.0, 0, 0, 0]  # dependent: only one direction available
    with pytest.raises(StructureError, match="Gram-Schmidt"):
        _gram_schmidt(columns, np.eye(4), 2)


def test_eigenclass_outputs_have_exact_eigen_theta():
    ps = canonical_structure(4)
    h = 0.5 * (np.eye(4) + ps.p)
    v = 0.5 * (np.eye(4) - ps.p)
    theta = random_theta(ps, 6)
    w3 = classify_f(ps, _eigenclass_form(ps, v @ theta, +1.0))
    assert frob(w3.theta_p + w3.theta) < 1e-12
    w6 = classify_f(ps, _eigenclass_form(ps, h @ theta, -1.0))
    assert frob(w6.theta_p - w6.theta) < 1e-12
