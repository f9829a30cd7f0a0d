import gc
import weakref

import numpy as np
import pytest

from apmlab.curvature import (
    _block_factors,
    _curvature_like_basis,
    _curvature_like_projection,
    _pull_back,
    almost_einstein_check,
    curvature_invariants,
    curvature_like_residuals,
    decompose_dim4,
    is_p_tensor,
    p_invariance_residual,
    p_slot_identities,
    p_slot_residuals,
    p_tensor_projection,
    p_twist,
    pi_tensors,
    psi1,
    psi2,
    random_curvature_like,
    random_p_tensor,
    sectional_curvatures,
)
from apmlab.structure import adapted_orthonormal_basis, f_symmetry_residuals
from apmlab.tensors import (
    PointStructure,
    canonical_structure,
    frob,
    random_symmetric2,
    random_tensor2,
    random_tensor4,
    split_structure,
)
from p_tensor_oracle import oracle_random_p_tensor


@pytest.fixture(scope="module")
def ps4():
    return canonical_structure(4)


def tensor_value(t, *vectors):
    letters = "ijkl"[: len(vectors)]
    spec = letters + "," + ",".join(letters) + "->"
    return float(np.einsum(spec, t, *vectors))


def ab_forms(x, y, basis):
    """The two antisymmetric coordinate 2-forms of the dim-4 canonical shape.

    Vectors are re-expressed in the adapted basis (E1, E2, PE1, PE2); then
    a(x,y) = x1 y2 + x3 y4 - x2 y1 - x4 y3 and
    b(x,y) = x1 y4 + x3 y2 - x2 y3 - x4 y1.
    """
    cx = np.linalg.solve(basis, np.asarray(x, dtype=float))
    cy = np.linalg.solve(basis, np.asarray(y, dtype=float))
    a = cx[0] * cy[1] + cx[2] * cy[3] - cx[1] * cy[0] - cx[3] * cy[2]
    b = cx[0] * cy[3] + cx[2] * cy[1] - cx[1] * cy[2] - cx[3] * cy[0]
    return float(a), float(b)


def test_pi1_is_curvature_like(ps4):
    pi1, _, _ = pi_tensors(ps4)
    assert max(curvature_like_residuals(pi1).values()) < 1e-10


def test_coordinate_spike_is_not_curvature_like():
    l = np.zeros((4, 4, 4, 4))
    l[0, :, :, :] = 1.0
    assert curvature_like_residuals(l)["first_pair_skew"] > 1.0


def test_psi1_symmetric_iff_curvature_like(ps4):
    for seed in range(100):
        sym = random_symmetric2(4, seed)
        assert max(curvature_like_residuals(psi1(ps4, sym)).values()) < 1e-12
        raw = random_tensor2(4, seed)
        if frob(raw - raw.T) > 1e-3:
            assert max(curvature_like_residuals(psi1(ps4, raw)).values()) > 1e-6


def test_psi2_twist_identity(ps4):
    for seed in range(20):
        s = random_tensor2(4, seed)
        twisted = np.einsum("ijab,ak,bl->ijkl", psi2(ps4, s), ps4.p, ps4.p)
        assert frob(twisted - psi1(ps4, s)) < 1e-12


def test_psi2_curvature_like_iff_p_compatible(ps4):
    a = random_symmetric2(4, 3)
    compatible = a @ ps4.p
    assert max(curvature_like_residuals(psi2(ps4, compatible)).values()) < 1e-12
    incompatible = random_tensor2(4, 4)
    assert max(curvature_like_residuals(psi2(ps4, incompatible)).values()) > 1e-6


def test_pi_tensor_values_in_adapted_coordinates(ps4):
    pi1, pi2, pi3 = pi_tensors(ps4)
    basis = adapted_orthonormal_basis(ps4)
    e1, e2, pe1, _ = basis.T
    assert abs(tensor_value(pi1, e1, e2, e2, e1) - 1.0) < 1e-14
    assert abs(tensor_value(pi2, e1, e2, e2, e1)) < 1e-14
    assert abs(tensor_value(pi3, e1, e2, e2, pe1) - 1.0) < 1e-14


def test_pi_combinations_are_p_tensors():
    for dim in (4, 6):
        for factor in (1.0, 2.5):
            ps = canonical_structure(dim, conformal_factor=factor)
            pi1, pi2, pi3 = pi_tensors(ps)
            assert is_p_tensor(ps, pi1 + pi2, tol=1e-12 * factor**2).passed
            assert is_p_tensor(ps, pi3, tol=1e-12 * factor**2).passed


def test_pi3_computed_both_ways(ps4):
    _, _, pi3 = pi_tensors(ps4)
    assert frob(pi3 - psi2(ps4, ps4.g_assoc)) < 1e-12


def test_psi1_of_metric_is_twice_pi1(ps4):
    pi1, _, _ = pi_tensors(ps4)
    assert frob(psi1(ps4, ps4.g) - 2 * pi1) < 1e-14


def test_pi1_alone_fails_p_invariance(ps4):
    pi1, _, _ = pi_tensors(ps4)
    report = is_p_tensor(ps4, pi1)
    assert not report.passed
    e = np.eye(4)
    assert abs(tensor_value(pi1, e[0], e[1], e[1], e[0])
               - tensor_value(pi1, e[0], e[1], ps4.p @ e[1], ps4.p @ e[0])) > 0.5


def test_invariants_of_pi1(ps4):
    inv = curvature_invariants(ps4, pi_tensors(ps4)[0])
    assert abs(inv.tau - 12.0) < 1e-12
    assert np.allclose(inv.rho, 3.0 * ps4.g)


def test_invariants_of_zero(ps4):
    inv = curvature_invariants(ps4, np.zeros((4,) * 4))
    assert inv.tau == 0.0 and inv.tau_star == 0.0


def test_scalar_curvatures_of_pi_combination(ps4):
    pi1, pi2, pi3 = pi_tensors(ps4)
    inv = curvature_invariants(ps4, -(pi1 + pi2))
    assert abs(inv.tau + 8.0) < 1e-12
    inv3 = curvature_invariants(ps4, -pi3)
    assert abs(inv3.tau_star + 8.0) < 1e-12


def test_p_slot_identities_for_invariant_tensors(ps4):
    pi1, pi2, pi3 = pi_tensors(ps4)
    assert p_slot_identities(ps4, pi1 + pi2).passed
    assert p_slot_identities(ps4, pi3).passed


def test_p_slot_identities_reject_non_p_tensor(ps4):
    with pytest.raises(ValueError, match="not a Riemannian P-tensor"):
        p_slot_identities(ps4, random_curvature_like(4, 0))


def test_random_p_tensor_deterministic(ps4):
    assert np.array_equal(random_p_tensor(ps4, 5), random_p_tensor(ps4, 5))
    assert not np.array_equal(random_p_tensor(ps4, 5), random_p_tensor(ps4, 6))


def test_random_p_tensor_satisfies_identities():
    for dim in (4, 6):
        ps = canonical_structure(dim)
        for seed in range(5):
            l = random_p_tensor(ps, seed)
            assert is_p_tensor(ps, l, tol=1e-10).passed


def test_random_p_tensor_dim4_equals_own_reconstruction(ps4):
    for seed in range(10):
        l = random_p_tensor(ps4, seed)
        _, _, residual = decompose_dim4(ps4, l)
        assert residual < 1e-9


def test_random_p_tensor_dim6_outside_pi_span():
    ps = canonical_structure(6)
    pi1, pi2, pi3 = pi_tensors(ps)
    basis = np.stack([(pi1 + pi2).ravel(), pi3.ravel()], axis=1)
    l = random_p_tensor(ps, 1)
    coef, *_ = np.linalg.lstsq(basis, l.ravel(), rcond=None)
    best_fit = coef[0] * (pi1 + pi2) + coef[1] * pi3
    assert frob(l - best_fit) > 1e-2


def test_decompose_known_combinations(ps4):
    pi1, pi2, pi3 = pi_tensors(ps4)
    tau, tau_star, residual = decompose_dim4(ps4, -(pi1 + pi2))
    assert abs(tau + 8) < 1e-12 and abs(tau_star) < 1e-12 and residual < 1e-12
    tau, tau_star, residual = decompose_dim4(ps4, -pi3)
    assert abs(tau) < 1e-12 and abs(tau_star + 8) < 1e-12 and residual < 1e-12
    _, _, residual = decompose_dim4(ps4, pi1)
    assert residual > 1e-3


def test_pi_tensors_are_built_once_per_structure(monkeypatch):
    import apmlab.curvature as curvature

    calls = []
    original = curvature.psi1
    monkeypatch.setattr(curvature, "psi1", lambda ps, s: calls.append(s) or original(ps, s))
    ps = canonical_structure(4)
    pis = pi_tensors(ps)
    built = len(calls)
    for seed in range(5):
        decompose_dim4(ps, random_p_tensor(ps, seed))
    assert pi_tensors(ps) is pis and len(calls) == built
    assert not any(t.flags.writeable for t in pis)
    # A new structure gets its own tensors.
    assert pi_tensors(canonical_structure(4, 2.0)) is not pis


def test_decompose_requires_dim4():
    ps = canonical_structure(6)
    with pytest.raises(ValueError, match="dimension 4"):
        decompose_dim4(ps, np.zeros((6,) * 4))


def test_decompose_matches_contraction_path(ps4):
    l = random_p_tensor(ps4, 2)
    tau, tau_star, _ = decompose_dim4(ps4, l)
    inv = curvature_invariants(ps4, l)
    assert abs(tau - inv.tau) < 1e-12
    assert abs(tau_star - inv.tau_star) < 1e-12


def test_sectional_curvatures(ps4):
    pi1, pi2, pi3 = pi_tensors(ps4)
    basis = adapted_orthonormal_basis(ps4)
    nu, nu_star = sectional_curvatures(ps4, -(pi1 + pi2), basis)
    assert abs(nu - 1.0) < 1e-12 and abs(nu_star) < 1e-12
    assert sectional_curvatures(ps4, np.zeros((4,) * 4), basis) == (0.0, 0.0)
    with pytest.raises(ValueError, match="adapted"):
        sectional_curvatures(ps4, pi1, 2 * basis)


def test_invariant_planes_have_zero_curvature(ps4):
    basis = adapted_orthonormal_basis(ps4)
    e1, e2, pe1, pe2 = basis.T
    for seed in range(5):
        l = random_p_tensor(ps4, seed)
        assert abs(tensor_value(l, e1, pe1, e1, pe1)) < 1e-11
        assert abs(tensor_value(l, e2, pe2, e2, pe2)) < 1e-11


def test_totally_real_planes_share_curvature(ps4):
    basis = adapted_orthonormal_basis(ps4)
    e1, e2, pe1, pe2 = basis.T
    l = random_p_tensor(ps4, 8)
    values = [
        tensor_value(l, x, y, x, y)
        for x, y in [(e1, e2), (e1, pe2), (pe1, e2), (pe1, pe2)]
    ]
    assert max(values) - min(values) < 1e-11


def test_almost_einstein_for_random_p_tensors(ps4):
    for seed in range(5):
        report = almost_einstein_check(ps4, random_p_tensor(ps4, seed))
        assert report.passed


def test_almost_einstein_zero_tensor(ps4):
    assert almost_einstein_check(ps4, np.zeros((4,) * 4)).passed


def test_ricci_form_of_pi_combination(ps4):
    # rho of -(pi1+pi2) equals -2 g (the nu = 1, nu* = 0 shape)
    pi1, pi2, _ = pi_tensors(ps4)
    inv = curvature_invariants(ps4, -(pi1 + pi2))
    assert np.allclose(inv.rho, -2.0 * ps4.g, atol=1e-12)


def test_almost_einstein_rejects_non_p_tensor(ps4):
    with pytest.raises(ValueError, match="not a Riemannian P-tensor"):
        almost_einstein_check(ps4, pi_tensors(ps4)[0])


def test_ab_forms_values_and_antisymmetry(ps4):
    basis = adapted_orthonormal_basis(ps4)
    e1, e2 = basis[:, 0], basis[:, 1]
    a, b = ab_forms(e1, e2, basis)
    assert a == 1.0 and b == 0.0
    rng = np.random.default_rng(2)
    x = rng.normal(size=4)
    ax, _ = ab_forms(x, x, basis)
    assert abs(ax) < 1e-12


def test_ab_forms_reproduce_pi_tensors(ps4):
    pi1, pi2, pi3 = pi_tensors(ps4)
    basis = adapted_orthonormal_basis(ps4)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y, z, w = rng.normal(size=(4, 4))
        a_xy, b_xy = ab_forms(x, y, basis)
        a_zw, b_zw = ab_forms(z, w, basis)
        lhs = tensor_value(pi1 + pi2, x, y, z, w)
        assert abs(lhs + a_xy * a_zw + b_xy * b_zw) < 1e-10
        lhs3 = tensor_value(pi3, x, y, z, w)
        assert abs(lhs3 + a_xy * b_zw + b_xy * a_zw) < 1e-10


def test_canonical_shape_reconstruction_via_ab_forms(ps4):
    # every dim-4 P-tensor is nu {aa + bb} + nu* {ab + ba} in adapted coords
    basis = adapted_orthonormal_basis(ps4)
    l = random_p_tensor(ps4, 11)
    nu, nu_star = sectional_curvatures(ps4, l, basis)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x, y, z, w = rng.normal(size=(4, 4))
        a_xy, b_xy = ab_forms(x, y, basis)
        a_zw, b_zw = ab_forms(z, w, basis)
        expected = nu * (a_xy * a_zw + b_xy * b_zw) + nu_star * (a_xy * b_zw + b_xy * a_zw)
        assert abs(tensor_value(l, x, y, z, w) - expected) < 1e-10


def test_split_structure_p_tensors():
    ps = split_structure(4)
    pi1, pi2, pi3 = pi_tensors(ps)
    assert is_p_tensor(ps, pi1 + pi2).passed
    assert is_p_tensor(ps, pi3).passed


def test_zero_tensor_passes_predicates(ps4):
    zero = np.zeros((4,) * 4)
    assert max(curvature_like_residuals(zero).values()) < 1e-10
    assert is_p_tensor(ps4, zero).passed


def oblique_structure(dim, seed, scale=1.0):
    """g = c A^T A and P = A^-1 P0 A: neither g nor P is orthonormal or symmetric."""
    a = np.eye(dim) + 0.3 * random_tensor2(dim, seed)
    return PointStructure(scale * a.T @ a, np.linalg.solve(a, split_structure(dim).p @ a))


STRUCTURES = [
    pytest.param(make, dim, id=f"{name}-{dim}")
    for dim in (4, 6, 8)
    for name, make in [
        ("canonical", canonical_structure),
        ("split", split_structure),
        ("split_c1.7", lambda d: split_structure(d, 1.7)),
        ("oblique", lambda d: oblique_structure(d, 3)),
        ("oblique_1e8", lambda d: oblique_structure(d, 4, 1e8)),
    ]
]


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_random_p_tensor_matches_alternating_projection(make, dim):
    ps = make(dim)
    for seed in (0, 1):
        assert frob(random_p_tensor(ps, seed) - oracle_random_p_tensor(ps, seed)) < 1e-11


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_p_tensor_projection_is_a_projection_fixing_pi(make, dim):
    ps = make(dim)
    t = random_tensor4(dim, 7)
    pt = p_tensor_projection(ps, t)
    assert max(is_p_tensor(ps, pt).residuals.values()) < 1e-12
    assert frob(p_tensor_projection(ps, pt) - pt) < 1e-12 * frob(pt)
    pi1, pi2, pi3 = pi_tensors(ps)
    for pi in (pi1 + pi2, pi3):
        assert frob(p_tensor_projection(ps, pi) - pi) < 1e-12 * frob(pi)


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_p_tensor_projection_is_orthogonal(make, dim):
    # For g's inner product <a, b>_g = a_ijkl b_mnop g^im g^jn g^ko g^lp,
    # which is the Frobenius one only where g is the identity: t - P(t) is
    # orthogonal to every P(s), and P is self-adjoint.
    ps = make(dim)
    gi = ps.g_inv
    inner = lambda a, b: float(np.einsum("ijkl,mnop,im,jn,ko,lp->", a, b, gi, gi, gi, gi,
                                         optimize=True))
    norm = lambda a: np.sqrt(inner(a, a))
    t, s = random_tensor4(dim, 1), random_tensor4(dim, 2)
    pt, p_s = p_tensor_projection(ps, t), p_tensor_projection(ps, s)
    assert abs(inner(t - pt, p_s)) < 1e-13 * norm(t) * norm(p_s)
    assert abs(inner(pt, s) - inner(t, p_s)) < 1e-13 * norm(t) * norm(s)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_p_tensor_space_dimension(n):
    # Curv(H) + Curv(V): two copies of the n^2 (n^2 - 1) / 12 curvature-like
    # tensors of an n-dimensional space.
    for ps in (canonical_structure(2 * n), oblique_structure(2 * n, 5)):
        samples = np.stack([random_p_tensor(ps, seed).ravel() for seed in range(60)])
        assert np.linalg.matrix_rank(samples, tol=1e-9) == 2 * n * n * (n * n - 1) // 12


def assert_close(batched, single):
    assert np.shape(batched) == np.shape(single)
    assert frob(np.asarray(batched) - single) <= 1e-14 * max(1.0, frob(single))


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_helpers_take_leading_sample_axes(make, dim):
    # A stack of samples gives each sample what it gives alone, to rounding.
    ps = make(dim)
    seeds = range(3, 6)
    s, t, l = random_tensor2(dim, seeds), random_tensor4(dim, seeds), random_p_tensor(ps, seeds)
    sym = random_symmetric2(dim, seeds)
    residuals = curvature_like_residuals(t)
    invariants = curvature_invariants(ps, l)
    for k, seed in enumerate(seeds):
        assert s[k].tobytes() == random_tensor2(dim, seed).tobytes()
        assert t[k].tobytes() == random_tensor4(dim, seed).tobytes()
        assert sym[k].tobytes() == random_symmetric2(dim, seed).tobytes()
        assert_close(psi1(ps, s)[k], psi1(ps, s[k]))
        assert_close(psi2(ps, s)[k], psi2(ps, s[k]))
        assert_close(p_tensor_projection(ps, t)[k], p_tensor_projection(ps, t[k]))
        assert_close(l[k], random_p_tensor(ps, seed))
        for key, value in curvature_like_residuals(t[k]).items():
            assert_close(residuals[key][k], value)
        own = curvature_invariants(ps, l[k])
        assert_close(invariants.tau[k], own.tau)
        assert_close(invariants.tau_star[k], own.tau_star)
        assert_close(invariants.rho_star[k], own.rho_star)
        if dim == 4:
            for batched, single in zip(decompose_dim4(ps, l), decompose_dim4(ps, l[k])):
                assert abs(batched[k] - single) <= 1e-14
    # Any number of sample axes.
    stacked = curvature_like_residuals(t.reshape((3, 1) + t.shape[1:]))
    assert all(value.shape == (3, 1) for value in stacked.values())


def test_adapted_basis_is_built_once_per_structure_and_tolerance(monkeypatch):
    import apmlab.structure as structure

    calls = []
    original = structure.projectors
    monkeypatch.setattr(structure, "projectors", lambda ps: calls.append(ps) or original(ps))
    ps = oblique_structure(4, 3)
    basis = adapted_orthonormal_basis(ps)
    assert adapted_orthonormal_basis(ps) is basis and calls == [ps]
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0
    random_p_tensor(ps, 0)
    almost_einstein_check(ps, random_p_tensor(ps, 1))
    assert len(calls) == 1
    # A new structure gets its own basis.
    assert adapted_orthonormal_basis(PointStructure(ps.g, ps.p)) is not basis


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_like_basis_is_orthonormal_and_cached(n):
    basis = _curvature_like_basis(n)
    assert basis.shape == (n * n * (n * n - 1) // 12, n**4)
    assert frob(basis @ basis.T - np.eye(len(basis))) < 1e-14
    residuals = curvature_like_residuals(basis.reshape((-1,) + (n,) * 4))
    assert max(np.max(r) for r in residuals.values()) < 1e-14
    assert _curvature_like_basis(n) is basis and not basis.flags.writeable


def test_block_factors_are_built_once_per_structure(monkeypatch):
    import apmlab.curvature as curvature

    calls = []
    original = curvature.adapted_orthonormal_basis
    monkeypatch.setattr(curvature, "adapted_orthonormal_basis",
                        lambda ps: calls.append(ps) or original(ps))
    ps = oblique_structure(6, 3)
    factors = _block_factors(ps)
    assert calls == [ps] and all(f.flags.c_contiguous for f in factors)
    random_p_tensor(ps, 0)
    random_p_tensor(ps, range(3))
    p_tensor_projection(ps, random_tensor4(6, 1))
    assert _block_factors(ps) is factors and calls == [ps]
    for f in factors:
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 1.0
    # A new structure gets its own factors.
    assert _block_factors(PointStructure(ps.g, ps.p)) is not factors


PER_STRUCTURE = [pi_tensors, adapted_orthonormal_basis, _block_factors]


def arrays(data):
    return data if isinstance(data, tuple) else (data,)


@pytest.mark.parametrize("read", PER_STRUCTURE, ids=lambda read: read.__name__)
def test_per_structure_data_is_shared_read_only_and_rebuilt_for_a_new_structure(read):
    ps = oblique_structure(6, 3)
    data = read(ps)
    assert read(ps) is data
    for t in arrays(data):
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t.flat[0] = 1.0
    # A new structure with the same g and P builds its own, equal, arrays.
    fresh = read(PointStructure(ps.g, ps.p))
    for old, new in zip(arrays(data), arrays(fresh), strict=True):
        assert new is not old and np.array_equal(new, old)


def test_per_structure_memo_keeps_no_structure_alive():
    # With the collector off, only reference counts free the structure: the
    # memo must hold no reference to it, so no cycle keeps it, and what it
    # built, alive.
    gc.disable()
    try:
        ps = oblique_structure(4, 3)
        for read in PER_STRUCTURE:
            read(ps)
        ref = weakref.ref(ps)
        del ps
        assert ref() is None
    finally:
        gc.enable()


def test_structure_residuals_are_relative_to_the_metric():
    # |g| ~ 1e8: the residuals in units of g are measured against |g|, so a
    # valid structure validates and its P-tensors pass the almost-Einstein check.
    ps = oblique_structure(4, 4, 1e8)
    ps.require_valid()
    assert almost_einstein_check(ps, random_p_tensor(ps, 0)).passed


# The matrix forms of the pointwise helpers against the np.einsum specs that
# define them, for one tensor and for a stack.  The oblique structures have
# P != P^T, so a P in place of a P^T, or slots moved in the wrong order,
# shows on them.


def single_and_stacked(make_samples):
    stack = make_samples(range(3))
    return [stack[0], stack]


def assert_spec(value, spec, scale=1.0):
    assert np.shape(value) == np.shape(spec)
    assert np.max(np.abs(np.asarray(value) - spec), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_psi1_psi2_match_einsum_specs(make, dim):
    ps = make(dim)
    for s in single_and_stacked(lambda seeds: random_tensor2(dim, seeds)):
        g = ps.g
        spec1 = (np.einsum("jk,...il->...ijkl", g, s) - np.einsum("ik,...jl->...ijkl", g, s)
                 + np.einsum("...jk,il->...ijkl", s, g) - np.einsum("...ik,jl->...ijkl", s, g))
        spec2 = np.einsum("...ijab,ak,bl->...ijkl", spec1, ps.p, ps.p)
        scale = frob(g)
        assert_spec(psi1(ps, s), spec1, scale)
        assert_spec(psi2(ps, s), spec2, scale * frob(ps.p) ** 2)


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_p_twist_matches_einsum_spec(make, dim):
    ps = make(dim)
    for t in single_and_stacked(lambda seeds: random_tensor4(dim, seeds)):
        spec = np.einsum("...ijab,ak,bl->...ijkl", t, ps.p, ps.p)
        assert_spec(p_twist(ps, t), spec, frob(ps.p) ** 2)
        assert abs(p_invariance_residual(ps, t) - frob(spec - t)) <= 1e-13 * frob(spec)


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_p_slot_residuals_match_einsum_specs(make, dim):
    ps = make(dim)
    p = ps.p
    for t in single_and_stacked(lambda seeds: random_tensor4(dim, seeds)):
        one_p = [
            np.einsum("...ajkl,ai->...ijkl", t, p),
            np.einsum("...ibkl,bj->...ijkl", t, p),
            np.einsum("...ijcl,ck->...ijkl", t, p),
            np.einsum("...ijkd,dl->...ijkl", t, p),
        ]
        spec = {
            "middle_pair_p": np.einsum("...ibcl,bj,ck->...ijkl", t, p, p) - t,
            "first_pair_p": np.einsum("...abkl,ai,bj->...ijkl", t, p, p) - t,
            **{f"single_p_slots_{k + 1}{k + 2}": one_p[k] - one_p[k + 1] for k in range(3)},
        }
        residuals = p_slot_residuals(ps, t)
        assert residuals.keys() == spec.keys()
        for key, value in spec.items():
            assert_spec(residuals[key], frob(value, 4), frob(p) ** 2 * np.max(frob(t, 4)))
    assert p_slot_identities(ps, random_p_tensor(ps, 0)).passed


def permuted(t, spec):
    """t with its last four slots permuted as "...{spec}->...ijkl" says."""
    return np.einsum(f"...{spec}->...ijkl", t)


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_curvature_like_residuals_match_einsum_specs(make, dim):
    ps = make(dim)
    basis = adapted_orthonormal_basis(ps)
    for t in single_and_stacked(lambda seeds: _pull_back(random_tensor4(dim, seeds), basis)):
        spec = {
            "first_pair_skew": t + permuted(t, "jikl"),
            "last_pair_skew": t + permuted(t, "ijlk"),
            "first_bianchi": t + permuted(t, "jkil") + permuted(t, "kijl"),
        }
        residuals = curvature_like_residuals(t)
        assert residuals.keys() == spec.keys()
        for key, value in spec.items():
            assert_spec(residuals[key], frob(value, 4), np.max(frob(t, 4)))


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_curvature_like_projection_matches_einsum_specs(make, dim):
    ps = make(dim)
    basis = adapted_orthonormal_basis(ps)
    for t in single_and_stacked(lambda seeds: _pull_back(random_tensor4(dim, seeds), basis)):
        skew = 0.25 * (t - permuted(t, "jikl") - permuted(t, "ijlk") + permuted(t, "jilk"))
        pair = 0.5 * (skew + permuted(skew, "klij"))
        spec = pair - (pair + permuted(pair, "jkil") + permuted(pair, "kijl")) / 3.0
        assert_spec(_curvature_like_projection(t), spec, np.max(frob(t, 4)))


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_f_symmetry_residuals_match_einsum_specs(make, dim):
    # A random F breaks all three F identities.
    ps = make(dim)
    p = ps.p
    for f in single_and_stacked(
            lambda seeds: np.random.default_rng(dim).uniform(-1.0, 1.0, (len(seeds),) + (dim,) * 3)):
        spec = {
            "last_two_symmetry": f - np.einsum("...ijk->...ikj", f),
            "double_p_skew": f + np.einsum("...iab,aj,bk->...ijk", f, p, p),
            "single_p_skew": (np.einsum("...ija,ak->...ijk", f, p)
                              + np.einsum("...iak,aj->...ijk", f, p)),
        }
        residuals = f_symmetry_residuals(ps, f)
        assert residuals.keys() == spec.keys()
        for key, value in spec.items():
            assert np.all(frob(value, 3) > 1e-3)
            assert_spec(residuals[key], frob(value, 3), frob(p) ** 2 * np.max(frob(f, 3)))


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_curvature_invariants_match_einsum_specs(make, dim):
    ps = make(dim)
    for l in single_and_stacked(lambda seeds: random_tensor4(dim, seeds)):
        rho = np.einsum("il,...ijkl->...jk", ps.g_inv, l)
        rho_star = np.einsum("il,...ijkm,ml->...jk", ps.g_inv, l, ps.p)
        inv = curvature_invariants(ps, l)
        scale = frob(ps.g_inv) * frob(ps.p)
        assert_spec(inv.rho, rho, scale)
        assert_spec(inv.rho_star, rho_star, scale)
        assert_spec(inv.tau, np.einsum("jk,...jk->...", ps.g_inv, rho), scale * frob(ps.g_inv))
        assert_spec(inv.tau_star, np.einsum("jk,...jk->...", ps.g_inv, rho_star),
                    scale * frob(ps.g_inv))


@pytest.mark.parametrize("make,dim", STRUCTURES)
def test_pull_back_matches_einsum_spec(make, dim):
    ps = make(dim)
    for m in (random_tensor2(dim, 9), adapted_orthonormal_basis(ps)):
        for t in single_and_stacked(lambda seeds: random_tensor4(dim, seeds)):
            spec = np.einsum("...abcd,ai,bj,ck,dl->...ijkl", t, m, m, m, m, optimize=True)
            assert_spec(_pull_back(t, m), spec, frob(m) ** 4)


@pytest.mark.parametrize("make,dim", [param for param in STRUCTURES if param.values[1] == 4])
def test_almost_einstein_planes_match_sectional_curvatures(make, dim):
    ps = make(dim)
    basis = adapted_orthonormal_basis(ps)
    e1, e2, pe1, pe2 = basis.T
    scale = frob(basis) ** 4  # of L on four basis vectors, for |L| = 1
    # Any curvature-like L: the sectional curvatures are entries of its pull-back.
    l = random_curvature_like(dim, 5)
    nu, nu_star = sectional_curvatures(ps, l, basis)
    assert abs(nu - tensor_value(l, e1, e2, e1, e2)) < 1e-13 * scale
    assert abs(nu_star - tensor_value(l, e1, e2, e1, pe2)) < 1e-13 * scale
    # A P-tensor: its four totally real planes share nu, its invariant planes are flat.
    l = random_p_tensor(ps, 3)
    report = almost_einstein_check(ps, l)
    assert report.passed
    nu = report.scalars["nu"]
    assert abs(nu - sectional_curvatures(ps, l, basis)[0]) < 1e-14 * scale
    assert abs(nu - tensor_value(l, pe1, pe2, pe1, pe2)) < 1e-13 * scale
    assert abs(nu) > 1e-3 * scale
