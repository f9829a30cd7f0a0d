"""Pointwise rank-4 laboratory: curvature-like tensors and Riemannian P-tensors.

A curvature-like tensor L satisfies the pair antisymmetries and the first
Bianchi identity,

    L(x,y,z,w) = -L(y,x,z,w) = -L(x,y,w,z),
    L(x,y,z,w) + L(y,z,x,w) + L(z,x,y,w) = 0,

and it is a Riemannian P-tensor when additionally L(x,y,Pz,Pw) = L(x,y,z,w).
Those are exactly the curvature-like tensors on H plus those on V, the P = +1
and P = -1 eigenspaces (pair symmetry and Bianchi kill the mixed block): a
space of dimension 2 n^2 (n^2 - 1) / 12.  The orthogonal projection onto it
keeps the HHHH and VVVV blocks of a g-orthonormal eigenframe, each projected
curvature-like, and drops the mixed blocks.  In dimension 4 every Riemannian
P-tensor is a combination of pi1+pi2 and pi3 with coefficients given by its
scalar curvatures; the helpers here build the pi tensors, contract
Ricci-type invariants, and test the identities.

The rank-4 algebra is written as matrix products, in three forms:

- P on a slot pair, L(x,y,Pz,Pw), is P^T L P with L read as a stack of
  matrices over its last slot pair; a pair that is not last is first moved
  there with a transposed view, and P on one slot is L P or P^T L.
- A change of frame m, L(m.,m.,m.,m.), is one pull-back (m x m)^T L (m x m)
  with L read as a dim^2 x dim^2 matrix from its first slot pair to its last.
  The sectional curvatures of the planes of a basis are entries of L pulled
  back to it.  An eigenframe block is the pull-back by the frame's n columns
  that span H, or V: a (dim^2 x n^2)^T L (dim^2 x n^2) product.
- psi1(S) is X minus X with x and y swapped, for the two outer products
  X(x,y,z,w) = g(y,z)S(x,w) + S(y,z)g(x,w).

A fixed permutation of slots -- in the pair skews, the pair exchange and the
first Bianchi sum -- is a ``swapaxes``/``transpose`` view; only traces use
einsum.  The one contraction here, ``curvature_invariants``, goes through
``tensors.einsum``.

The helpers that take a tensor S or L -- psi1, psi2, ``p_twist``, the
curvature-like and P-tensor projections, ``curvature_like_residuals``,
``p_slot_residuals``, ``curvature_invariants`` and ``decompose_dim4`` -- also
take a stack of them over leading sample axes and return their results
stacked the same way, so a sample loop runs once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .report import CheckReport
from .structure import adapted_orthonormal_basis
from .tensors import DEFAULT_TOL, PointStructure, einsum, frob, lead, per_structure, random_tensor4


class CurvatureInvariants:
    """Ricci tensor, scalar curvature and their P-twisted companions.

    The scalars are floats, or arrays over the sample axes of a stacked L.
    """

    def __init__(self, rho: np.ndarray, tau: float | np.ndarray, rho_star: np.ndarray,
                 tau_star: float | np.ndarray):
        self.rho, self.tau, self.rho_star, self.tau_star = rho, tau, rho_star, tau_star


def curvature_like_residuals(l: np.ndarray) -> dict[str, float | np.ndarray]:
    """Pair skews and first Bianchi residuals of L, one value per sample of a stacked L."""
    return {
        "first_pair_skew": frob(l + l.swapaxes(-4, -3), 4),
        "last_pair_skew": frob(l + l.swapaxes(-2, -1), 4),
        "first_bianchi": frob(_cyclic_sum(l), 4),
    }


def _cyclic_sum(t: np.ndarray) -> np.ndarray:
    """t(x,y,z,w) + t(y,z,x,w) + t(z,x,y,w), the first Bianchi sum of t or of each t of a stack."""
    return t + t.swapaxes(-4, -2).swapaxes(-3, -2) + t.swapaxes(-4, -3).swapaxes(-3, -2)


def p_twist(ps: PointStructure, t: np.ndarray) -> np.ndarray:
    """t(x,y,Pz,Pw): P on the trailing slot pair of t, or of each t of a stack, as P^T t P."""
    return ps.p.T @ t @ ps.p


def p_tensor_residuals(ps: PointStructure, l: np.ndarray) -> dict[str, float]:
    """The curvature-like residuals of L plus its ``p_invariance``, |L(x,y,Pz,Pw) - L|."""
    residuals = curvature_like_residuals(l)
    residuals["p_invariance"] = frob(p_twist(ps, l) - l)
    return residuals


def is_p_tensor(ps: PointStructure, l: np.ndarray, tol: float = DEFAULT_TOL) -> CheckReport:
    report = CheckReport(name="p_tensor", tol=tol)
    report.residuals.update(p_tensor_residuals(ps, l))
    return report.finalize()


def _require_p_tensor(ps: PointStructure, l: np.ndarray) -> None:
    """Raise ValueError unless L passes the P-tensor test at 1e-8 max(1, |L|)."""
    if not is_p_tensor(ps, l, tol=1e-8 * max(1.0, frob(l))).passed:
        raise ValueError("prerequisite failed: L is not a Riemannian P-tensor")


def p_slot_identities(ps: PointStructure, l: np.ndarray) -> CheckReport:
    """The five P-slot-moving equalities valid for every Riemannian P-tensor, at DEFAULT_TOL.

    Precondition: L passes the P-tensor test; otherwise raises ValueError.
    """
    _require_p_tensor(ps, l)
    report = CheckReport(name="p_slot_identities", tol=DEFAULT_TOL)
    report.residuals.update(p_slot_residuals(ps, l))
    return report.finalize()


def p_slot_residuals(ps: PointStructure, l: np.ndarray) -> dict[str, float | np.ndarray]:
    """The residuals of ``p_slot_identities``, for any L, one per sample of a stacked L.

    Each identity moves P between two slots.  With those slots last, P on
    the last is L P, on the one before it P^T L, and on both P^T L P.
    """
    p, pt = ps.p, ps.p.T
    first = l.swapaxes(-4, -2).swapaxes(-3, -1)  # slots (z, w, x, y)
    middle = l.swapaxes(-3, -1).swapaxes(-2, -1)  # slots (x, w, y, z)
    p_middle = pt @ middle
    return {
        "middle_pair_p": frob(p_middle @ p - middle, 4),
        "first_pair_p": frob(pt @ first @ p - first, 4),
        "single_p_slots_12": frob(pt @ first - first @ p, 4),
        "single_p_slots_23": frob(p_middle - middle @ p, 4),
        "single_p_slots_34": frob(pt @ l - l @ p, 4),
    }


def psi1(ps: PointStructure, s: np.ndarray) -> np.ndarray:
    """psi1(S)(x,y,z,w) = g(y,z)S(x,w) - g(x,z)S(y,w) + S(y,z)g(x,w) - S(x,z)g(y,w).

    Curvature-like exactly when S is symmetric.
    """
    g = ps.g
    s_xw, s_yz = s[..., :, None, None, :], s[..., None, :, :, None]
    x = g[:, :, None] * s_xw + s_yz * g[:, None, None, :]
    return x - x.swapaxes(-4, -3)


def psi2(ps: PointStructure, s: np.ndarray) -> np.ndarray:
    """psi2(S)(x,y,z,w) = psi1(S)(x,y,Pz,Pw); curvature-like iff S(x,Py) = S(y,Px)."""
    return p_twist(ps, psi1(ps, s))


@per_structure
def pi_tensors(ps: PointStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The invariant tensors pi1 = psi1(g)/2, pi2 = psi2(g)/2, pi3 = psi1(g~), built once per ps."""
    return 0.5 * psi1(ps, ps.g), 0.5 * psi2(ps, ps.g), psi1(ps, ps.g_assoc)


def curvature_invariants(ps: PointStructure, l: np.ndarray) -> CurvatureInvariants:
    """Ricci contractions rho(y,z) = g^{il} L(e_i,y,z,e_l) and their P-twists."""
    b = lead(l, 4)
    rho = einsum(f"il,{b}ijkl->{b}jk", ps.g_inv, l)
    tau = einsum(f"jk,{b}jk->{b}", ps.g_inv, rho)
    rho_star = einsum(f"il,{b}ijkl->{b}jk", ps.g_inv, l @ ps.p)
    tau_star = einsum(f"jk,{b}jk->{b}", ps.g_inv, rho_star)
    if not b:
        tau, tau_star = float(tau), float(tau_star)
    return CurvatureInvariants(rho=rho, tau=tau, rho_star=rho_star, tau_star=tau_star)


def _curvature_like_projection(t: np.ndarray) -> np.ndarray:
    # Antisymmetrize both index pairs, symmetrize pair exchange, then remove
    # the totally antisymmetric (cyclic) part; the result satisfies the pair
    # skews and the first Bianchi identity exactly.
    first = t.swapaxes(-4, -3)
    t = 0.25 * (t - first - t.swapaxes(-2, -1) + first.swapaxes(-2, -1))
    t = 0.5 * (t + t.swapaxes(-4, -2).swapaxes(-3, -1))
    return t - _cyclic_sum(t) / 3.0


def random_curvature_like(dim: int, seed: int) -> np.ndarray:
    """Deterministic random curvature-like tensor (generally not a P-tensor)."""
    l = _curvature_like_projection(random_tensor4(dim, seed))
    norm = frob(l)
    return l / norm if norm > 1e-8 else l


def _pull_back(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """t(m., m., m., m.) for a rank-4 t, or each t of a stack, as (m x m)^T t (m x m).

    t is a matrix from its first slot pair to its last; m x m is built by broadcasting.
    """
    d = m.shape[0]
    mm = (m[:, None, :, None] * m[:, None, :]).reshape(d * d, d * d)
    return (mm.T @ t.reshape(t.shape[:-4] + mm.shape) @ mm).reshape(t.shape)


@lru_cache(maxsize=None)
def _curvature_like_basis(n: int) -> np.ndarray:
    """Orthonormal basis, read-only, of the curvature-like tensors on R^n, raveled, a row each.

    Their Gram matrix (at most 36 x 36) orthonormalises the curvature-like
    parts of the C(n,2)^2 pair tensors e_a^e_b (x) e_c^e_d, which span them.
    The pair tensors are orthogonal, of norm 2, and span every tensor skew in
    both pairs, so the Gram matrix is 4 times a projector: eigenvalues 0 or 4.
    """
    e, (a, b) = np.eye(n), np.triu_indices(n, 1)
    wedges = e[a, :, None] * e[b, None, :] - e[b, :, None] * e[a, None, :]
    span = _curvature_like_projection(
        wedges[:, None, :, :, None, None] * wedges[None, :, None, None, :, :]).reshape(-1, n**4)
    w, u = np.linalg.eigh(span @ span.T)
    basis = u[:, w > 2.0].T @ span / 2.0
    basis.flags.writeable = False
    return basis


@per_structure
def _block_factors(ps: PointStructure) -> tuple[np.ndarray, ...]:
    """Kronecker factors x (x) x of the H and V columns x of q and g q, C-contiguous as read."""
    n, d = ps.n, ps.dim
    e, pe = np.split(adapted_orthonormal_basis(ps), 2, axis=1)
    q = np.stack([e + pe, e - pe]) / np.sqrt(2.0)
    pull, push = [(x[:, :, None, :, None] * x[:, None, :, None, :]).reshape(2, d * d, n * n)
                  for x in (q, ps.g @ q)]
    return (pull.swapaxes(1, 2).reshape(2 * n * n, d * d), pull,
            push.swapaxes(1, 2).copy(), push.swapaxes(0, 1).reshape(d * d, -1))


def p_tensor_projection(ps: PointStructure, t: np.ndarray) -> np.ndarray:
    """One-shot g-orthogonal projection of t onto the Riemannian P-tensors.

    Pull t back to its HHHH and VVVV blocks in the eigenframe
    q = [E + PE | E - PE] / sqrt(2), project each onto the curvature-like
    tensors on R^n, and push both forward with q^-1 = q^T g.
    """
    pull_t, pull, push_t, push = _block_factors(ps)
    basis = _curvature_like_basis(ps.n)
    lead, n2, d2 = t.shape[:-4], ps.n**2, ps.dim**2
    blocks = (pull_t @ t.reshape(lead + (d2, d2))).reshape(lead + (2, n2, d2)) @ pull
    coeffs = blocks.reshape(lead + (2, n2 * n2)) @ basis.T
    l = (coeffs @ basis).reshape(lead + (2, n2, n2)) @ push_t
    return (push @ l.reshape(lead + (2 * n2, d2))).reshape(t.shape)


def random_p_tensor(ps: PointStructure, seed) -> np.ndarray:
    """Seeded random P-tensor of unit norm: ``p_tensor_projection`` of a random tensor.

    Samples span the whole space, of dimension 2 n^2 (n^2 - 1) / 12.  A
    sequence of seeds gives one tensor per seed, stacked on a leading axis.
    """
    l = p_tensor_projection(ps, random_tensor4(ps.dim, seed))
    return l / np.asarray(frob(l, 4))[..., None, None, None, None]


def decompose_dim4(ps: PointStructure, l: np.ndarray) -> tuple[float, float, float]:
    """Reconstruct a 4-dimensional L from its scalar curvatures.

    Returns (tau, tau_star, residual) where the residual measures
    | L - {tau (pi1+pi2) + tau_star pi3} / 8 |; it vanishes exactly when L is
    a Riemannian P-tensor.  A stacked L gives all three per sample.
    """
    if ps.dim != 4:
        raise ValueError("decomposition by scalar curvatures requires dimension 4")
    inv = curvature_invariants(ps, l)
    rebuilt = dim4_from_scalars(pi_tensors(ps), inv.tau, inv.tau_star)
    return inv.tau, inv.tau_star, frob(l - rebuilt, 4)


def dim4_from_scalars(pis, tau, tau_star) -> np.ndarray:
    """{tau (pi1 + pi2) + tau* pi3} / 8: the dim-4 P-tensor with these scalar curvatures.

    Arrays of scalar curvatures give one tensor per entry, stacked on their axes.
    """
    pi1, pi2, pi3 = pis
    return (np.multiply.outer(tau, pi1 + pi2) + np.multiply.outer(tau_star, pi3)) / 8


def almost_einstein_check(ps: PointStructure, l: np.ndarray) -> CheckReport:
    """Einstein-type shape of the Ricci tensor of a dim-4 Riemannian P-tensor, at DEFAULT_TOL.

    Checks rho(L) = {tau g + tau_star g~} / 4, that all totally real basic
    2-planes share one sectional curvature, and that invariant basic 2-planes
    have zero curvature.
    """
    if ps.dim != 4:
        raise ValueError("almost-Einstein check requires dimension 4")
    _require_p_tensor(ps, l)
    inv = curvature_invariants(ps, l)
    expected = 0.25 * (inv.tau * ps.g + inv.tau_star * ps.g_assoc)

    # L(x,y,x,y) on the planes of the adapted basis (E1, E2, PE1, PE2): its
    # entries [a, b, a, b] once L is pulled back to that basis.
    framed = _pull_back(l, adapted_orthonormal_basis(ps))
    plane = lambda a, b: float(framed[a, b, a, b])
    curvatures = [plane(a, b) for a, b in [(0, 1), (0, 3), (2, 1), (2, 3)]]
    invariant = [abs(plane(0, 2)), abs(plane(1, 3))]

    report = CheckReport(name="almost_einstein", tol=DEFAULT_TOL)
    report.residuals["ricci_form"] = frob(inv.rho - expected)
    report.residuals["totally_real_spread"] = max(curvatures) - min(curvatures)
    report.residuals["invariant_plane_curvature"] = max(invariant)
    report.scalars.update(
        {"tau": inv.tau, "tau_star": inv.tau_star, "nu": curvatures[0]}
    )
    return report.finalize()
