"""Alternating-projection oracle for Riemannian P-tensors.

Von Neumann's iteration: alternate the curvature-like projection with the
P-average (L + L(.,.,P.,P.))/2 until both constraint residuals vanish.  Both
maps are orthogonal projections for the metric's inner product on rank-4
tensors, so the limit is the orthogonal projection onto their intersection;
it converges linearly and shares no code with the one-shot block projector
it is used to check, apart from the curvature-like projection itself.
"""

from __future__ import annotations

import numpy as np

from apmlab.curvature import (
    _curvature_like_projection,
    curvature_like_residuals,
    p_invariance_residual,
)
from apmlab.tensors import frob, random_tensor4


def alternating_p_projection(ps, t, max_iter=200, threshold=1e-12):
    """Iterate until every residual is below ``threshold`` * max(1, |L|)."""
    for _ in range(max_iter):
        t = _curvature_like_projection(t)
        t = 0.5 * (t + np.einsum("ijab,ak,bl->ijkl", t, ps.p, ps.p))
        residuals = curvature_like_residuals(t)
        residuals["p_invariance"] = p_invariance_residual(ps, t)
        if max(residuals.values()) < threshold * max(1.0, frob(t)):
            return t
    raise AssertionError(f"alternating projection did not converge in {max_iter} sweeps")


def oracle_random_p_tensor(ps, seed):
    """The alternating-projection counterpart of ``random_p_tensor``."""
    t = alternating_p_projection(ps, random_tensor4(ps.dim, seed))
    return t / frob(t)
