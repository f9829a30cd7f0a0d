"""Alternating-projection oracle for Riemannian P-tensors.

Von Neumann's iteration: alternate the curvature-like projection with the
P-average (L + L(.,.,P.,P.))/2 until both constraint residuals vanish.  Both
maps are orthogonal projections for the metric's inner product on rank-4
tensors, so the limit is the orthogonal projection onto their intersection;
it converges linearly.  The projection, the P-average and the residuals are
written out here as plain np.einsum, so the oracle shares no code with the
one-shot block projector it is used to check; only the random input tensor
comes from apmlab.
"""

from __future__ import annotations

import numpy as np

from apmlab.tensors import random_tensor4


def curvature_like_projection(t):
    """Antisymmetrize both slot pairs, symmetrize pair exchange, drop the cyclic part."""
    t = 0.25 * (t - np.einsum("jikl->ijkl", t) - np.einsum("ijlk->ijkl", t)
                + np.einsum("jilk->ijkl", t))
    t = 0.5 * (t + np.einsum("klij->ijkl", t))
    return t - (t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)) / 3.0


def p_average(p, t):
    """(L + L(.,.,P.,P.)) / 2."""
    return 0.5 * (t + np.einsum("ijab,ak,bl->ijkl", t, p, p))


def residuals(p, t):
    """Norms of the pair skews, the first Bianchi sum and L(.,.,P.,P.) - L."""
    return [
        np.linalg.norm(t + np.einsum("jikl->ijkl", t)),
        np.linalg.norm(t + np.einsum("ijlk->ijkl", t)),
        np.linalg.norm(t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)),
        np.linalg.norm(np.einsum("ijab,ak,bl->ijkl", t, p, p) - t),
    ]


def alternating_p_projection(ps, t, max_iter=200, threshold=1e-12):
    """Iterate until every residual is below ``threshold`` * max(1, |L|)."""
    for _ in range(max_iter):
        t = p_average(ps.p, curvature_like_projection(t))
        if max(residuals(ps.p, t)) < threshold * max(1.0, np.linalg.norm(t)):
            return t
    raise AssertionError(f"alternating projection did not converge in {max_iter} sweeps")


def oracle_random_p_tensor(ps, seed):
    """The alternating-projection counterpart of ``random_p_tensor``."""
    t = alternating_p_projection(ps, random_tensor4(ps.dim, seed))
    return t / np.linalg.norm(t)
