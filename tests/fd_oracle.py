"""Finite-difference oracles for germ pipelines.

Everything here differentiates plain value evaluations of the germ's
component expressions, staying independent of the jet arithmetic it is used
to check.
"""

from __future__ import annotations

import numpy as np


def metric_at(germ, pt):
    return np.array([[e.eval_jet(pt, 0).values for e in row] for row in germ.metric])


def structure_at(germ, pt):
    return np.array([[e.eval_jet(pt, 0).values for e in row] for row in germ.structure])


def _grid_derivative(eval_fn, pt, step):
    dim = pt.shape[0]
    base = eval_fn(pt)
    out = np.zeros(base.shape + (dim,))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = step
        out[..., k] = (eval_fn(pt + e) - eval_fn(pt - e)) / (2 * step)
    return out


def christoffel_fd(germ, pt, step=1e-5):
    pt = np.asarray(pt, dtype=float)
    g = metric_at(germ, pt)
    g_inv = np.linalg.inv(g)
    dg = _grid_derivative(lambda q: metric_at(germ, q), pt, step)  # dg[a,b,c] = d_c g_ab
    first = 0.5 * (
        np.einsum("kji->kij", dg) + dg - np.einsum("ijk->kij", dg)
    )
    return np.einsum("mk,kij->mij", g_inv, first)


def f_tensor_fd(germ, pt, step=1e-5):
    pt = np.asarray(pt, dtype=float)
    g = metric_at(germ, pt)
    p = structure_at(germ, pt)
    gamma = christoffel_fd(germ, pt, step)
    dp = _grid_derivative(lambda q: structure_at(germ, q), pt, step)  # dp[m,j,i]
    nabla_p = (
        np.einsum("mji->imj", dp)
        + np.einsum("mik,kj->imj", gamma, p)
        - np.einsum("kij,mk->imj", gamma, p)
    )
    return np.einsum("imj,mk->ijk", nabla_p, g)


def lee_form_fd(germ, pt, step=1e-5):
    g_inv = np.linalg.inv(metric_at(germ, pt))
    return np.einsum("ij,ijk->k", g_inv, f_tensor_fd(germ, pt, step))


def curvature_fd(germ, pt, inner_step=1e-5, outer_step=1e-3):
    """All-covariant Levi-Civita curvature by differencing FD Christoffels."""
    pt = np.asarray(pt, dtype=float)
    gamma = christoffel_fd(germ, pt, inner_step)
    dgamma = _grid_derivative(
        lambda q: christoffel_fd(germ, q, inner_step), pt, outer_step
    )  # dgamma[l,a,b,c] = d_c Gamma^l_ab
    quad = np.einsum("lim,mjk->lijk", gamma, gamma)
    up = (
        np.einsum("ljki->lijk", dgamma)
        - np.einsum("likj->lijk", dgamma)
        + quad
        - np.einsum("ljik->lijk", quad)
    )
    return np.einsum("mijk,ml->ijkl", up, metric_at(germ, pt))
