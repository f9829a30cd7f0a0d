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
Gamma' and R read); the contorsion and the curvature of Gamma' are shared
with apmlab: only the regrouped products are under test.
"""

from __future__ import annotations

from apmlab.germs import _contorsion_of, _curvature_of
from apmlab.jetfields import jt_einsum


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
    contorsion = _contorsion_of(oracle_torsion(cf, order))
    return oracle_christoffel(f).truncated(order) + jt_einsum("mk,ijk->mij", f.g_inv, contorsion)


def oracle_curvature(cf):
    """R' of ``cf``, all indices down, at the frame's full order."""
    gamma = oracle_gamma(cf, cf.frame.theta.order)
    return jt_einsum("mijk,ml->ijkl", _curvature_of(gamma), cf.frame.g)


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
