"""Direct transcriptions of the natural-connection formulas, on jets.

The torsion is built term by term from the formula in ``apmlab.germs``: five
wedges of a metric with a Lee form, each two outer products.  R' is lowered
at the frame's full order, Ricci' and tau' contract it with g^-1, and tau*'
is traced along the route of its definition, through the rank-4
R'_ijkm P^m_l and the Ricci-like rho*'.  ``ConnectionFrame`` groups the same
products differently (g^a + g~^b, Ricci' as the trace R'^i_ijk, and rho*'
through the g-adjoint of P), which these oracles check to rounding.
Gamma' = Gamma + g^-1 K is written out here, from a Gamma and a g~ built at
the frame's full order - 1 (the frame builds both only to the levels its
Gamma' and R read).  The contorsion K and the curvature dGamma' + Gamma'Gamma'
are transcribed here too, with their own index permutations, so the oracles
share only jet arithmetic with apmlab, not its formulas.
"""

from __future__ import annotations

import numpy as np

from apmlab.jetfields import JetTensor, jt_einsum


def _permuted(levels, spec, dim):
    """The jet whose level k is ``levels[k]`` with its component axes permuted by ``spec``."""
    src, dst = spec.split("->")
    return JetTensor(tuple(np.einsum(f"{src}...->{dst}...", a) for a in levels), dim)


def oracle_contorsion(t):
    """K_ijk = {T_ijk - T_jki + T_kij} / 2."""
    return (t - _permuted(t.data, "jki->ijk", t.dim)
            + _permuted(t.data, "kij->ijk", t.dim)).scaled(0.5)


def oracle_connection_curvature(gamma):
    """R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik.

    The derivative d_c Gamma^l_ab of level k sits in level k + 1 of Gamma,
    its first derivative axis read as the component axis c.
    """
    derivative = gamma.data[1:]
    d_gamma = (_permuted(derivative, "ljki->lijk", gamma.dim)
               - _permuted(derivative, "likj->lijk", gamma.dim))
    lower = gamma.truncated(gamma.order - 1)
    return (d_gamma + jt_einsum("lim,mjk->lijk", lower, lower)
            - jt_einsum("ljm,mik->lijk", lower, lower))


def oracle_christoffel(f):
    """Gamma^m_ij = g^mk Gamma_kij of frame ``f`` at order - 1, from the first kind."""
    return jt_einsum("mk,kij->mij", f.g_inv, f.first_kind)


def oracle_g_assoc(f):
    """g~_ij = g_im P^m_j of frame ``f`` at order - 1."""
    return jt_einsum("im,mj->ij", f.g.truncated(f.order - 1), f.p)


def oracle_torsion(cf, order):
    """The torsion of connection frame ``cf`` from its five wedges, to ``order``."""
    f = cf.frame
    g_assoc = oracle_g_assoc(f)
    lam, mu = cf.params.lam, cf.params.mu
    theta, theta_p = f.theta.truncated(order), f.theta_p.truncated(order)

    def wedge(metric, form):
        return jt_einsum("jk,i->ijk", metric, form) - jt_einsum("ik,j->ijk", metric, form)

    t = wedge(f.g, theta_p).scaled(1.0 / (2 * cf.n))
    t = t + (wedge(f.g, theta) + wedge(g_assoc, theta_p)).scaled(lam)
    t = t + (wedge(g_assoc, theta) + wedge(f.g, theta_p)).scaled(mu)
    return t


def oracle_gamma(cf, order):
    """Gamma'^m_ij = Gamma^m_ij + g^mk K_ijk of ``cf`` to ``order`` from the oracle torsion."""
    f = cf.frame
    contorsion = oracle_contorsion(oracle_torsion(cf, order))
    return oracle_christoffel(f).truncated(order) + jt_einsum("mk,ijk->mij", f.g_inv, contorsion)


def oracle_curvature(cf):
    """R' of ``cf``, all indices down, at the frame's full order."""
    gamma = oracle_gamma(cf, cf.frame.theta.order)
    return jt_einsum("mijk,ml->ijkl", oracle_connection_curvature(gamma), cf.frame.g)


def oracle_ricci(cf, r):
    """Ricci'_jk = g^il R'_ijkl, contracted through g^-1."""
    return jt_einsum("il,ijkl->jk", cf.frame.g_inv, r)


def oracle_tau(cf, r):
    return jt_einsum("jk,jk->", cf.frame.g_inv, oracle_ricci(cf, r))


def oracle_tau_star(cf, r):
    """tau*' = g^jk rho*'_jk with rho*'_jk = g^il R'_ijkm P^m_l."""
    r_p = jt_einsum("ijkm,ml->ijkl", r, cf.frame.p)
    rho_star = jt_einsum("il,ijkl->jk", cf.frame.g_inv, r_p)
    return jt_einsum("jk,jk->", cf.frame.g_inv, rho_star)
