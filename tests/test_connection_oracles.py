"""The Lee form, and torsion, Gamma', R', Ricci', tau' and tau*' of the
natural connections, against the direct transcriptions in
``connection_oracle``, at every derivative level each one keeps or is built
at, and the levels each frame field keeps.  The oracles build Gamma' at full
order and R' from it, so the Hessians of tau' and tau*', which the frames
take from traces instead, are compared with an R' traced at level 2."""

import numpy as np
import pytest

from apmlab import germs, jetfields
from apmlab.germs import KEPT_ORDER, ChartGerm, ConnectionParams
from apmlab.jetfields import jt_einsum
from apmlab.scenarios import load_bundled_scenario
from apmlab.tensors import frob

from connection_oracle import (
    oracle_christoffel,
    oracle_curvature,
    oracle_gamma,
    oracle_ricci,
    oracle_tau,
    oracle_tau_star,
    oracle_torsion,
)

GERMS = {
    "conformal_d4": germs.conformal_flat_product_germ(2, "exp(x1)*sin(2*x3) + x2*x4"),
    "conformal_d6": germs.conformal_flat_product_germ(3, "ln(2 + x1^2 + x4^2) + x2*x5"),
    "conformal_d8": germs.conformal_flat_product_germ(4, "x1^2*x5 + x2*x6 + sin(x3)"),
    # Non-diagonal metric, block-diagonal against P = diag(1, 1, -1, -1).
    "grid_d4": ChartGerm.from_strings(
        4,
        [
            ["2 + sin(x1*x3)", "x2*x4/4", "0", "0"],
            ["x2*x4/4", "exp(x3/3)", "0", "0"],
            ["0", "0", "1 + x2^2", "cos(x1)/4"],
            ["0", "0", "cos(x1)/4", "2 + x1*x4"],
        ],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
        name="grid_d4",
    ),
    # P rotating in the x1-x3 plane: dP != 0 and a Q = g^-1 P^T g that varies.
    "rotating_d4": load_bundled_scenario("rotating_structure_outside_w1_4d").germ,
    # A g-compatible P that is not a symmetric matrix, so Q is not either:
    # P swaps e1, e2 scaled by sqrt(g22/g11) = exp(x1*x3 - x2) and its inverse.
    "skew_q_d4": ChartGerm.from_strings(
        4,
        [["exp(2*x2)", "0", "0", "0"], ["0", "exp(2*x1*x3)", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1 + x4^2"]],
        [["0", "exp(x1*x3 - x2)", "0", "0"], ["exp(x2 - x1*x3)", "0", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
        name="skew_q_d4",
    ),
}


def family(n):
    """D, D_tilde, the generic (1, 0) and a degenerate lam^2 = mu^2 + mu/2n."""
    mu = 0.5
    degenerate = ConnectionParams(float(np.sqrt(mu**2 + mu / (2 * n))), mu)
    assert degenerate.case(n) == "degenerate"
    return [ConnectionParams.d(), ConnectionParams.d_tilde(n), ConnectionParams(1.0, 0.0),
            degenerate]


def assert_levels_match(jet, oracle):
    assert jet.order == oracle.order
    for k, (value, expected) in enumerate(zip(jet.data, oracle.data)):
        assert frob(value - expected) <= 1e-12 * max(1.0, frob(expected)), f"level {k}"


def built_chain(cf, monkeypatch):
    """The T (values) and the Gamma' of R' that the one chain of ``cf`` builds, seen as it builds them."""
    seen = {"torsion": [], "gamma": []}
    contorsion_of, curvature_of = germs._contorsion_of, germs._curvature_of

    def keep(key, fn):
        def kept(jet):
            seen[key].append(jet)
            return fn(jet)
        return kept

    with monkeypatch.context() as patch:
        patch.setattr(germs, "_contorsion_of", keep("torsion", contorsion_of))
        patch.setattr(germs, "_curvature_of", keep("gamma", curvature_of))
        cf.curvature
    [torsion], [gamma] = seen["torsion"], seen["gamma"]
    return torsion, gamma


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name", list(GERMS))
def test_theta_matches_the_trace_of_the_full_order_f(name, order):
    # theta from first-kind traces against g^{ij} F_ijk, with Gamma, grad P
    # and F built at full order by the general covariant derivative.
    fr = GERMS[name].frame(order=order)
    nabla_p = germs._covariant_p(fr.p, oracle_christoffel(fr))
    f_tensor = jt_einsum("imj,mk->ijk", nabla_p, fr.g)
    expected = jt_einsum("ij,ijk->k", fr.g_inv, f_tensor)
    assert expected.order == order - 1
    assert frob(expected.values) > 1e-2  # not a comparison between zeros
    assert_levels_match(fr.theta, expected)


# Order 5 builds Gamma' for the traces above KEPT_ORDER + 1, and tau' and tau*'
# with third derivatives.  conformal_d8 takes seconds there.  On conformal_d4
# D's tau' vanishes, and the oracle's own level 3 is rounding noise of 3e-12,
# above the 1e-12 that the comparison allows a vanishing jet.
ORDER_5 = ("conformal_d6", "grid_d4", "rotating_d4", "skew_q_d4")


@pytest.mark.parametrize("name, order", [(name, order) for name in GERMS for order in (3, 4)]
                         + [(name, 5) for name in ORDER_5])
def test_connection_jets_match_oracles(name, order, monkeypatch):
    fr = GERMS[name].frame(order=order)
    for cp in family(fr.n):
        cf = fr.connection(cp)
        torsion, gamma = built_chain(cf, monkeypatch)
        assert_levels_match(torsion, oracle_torsion(cf, 0))
        assert_levels_match(gamma, oracle_gamma(cf, KEPT_ORDER + 1))
        if order - 2 > KEPT_ORDER + 1:
            assert_levels_match(cf._chain[-1], oracle_gamma(cf, order - 2))
        assert_levels_match(cf.torsion, oracle_torsion(cf, 0))
        assert_levels_match(cf.gamma, oracle_gamma(cf, 0))
        r_prime = oracle_curvature(cf)  # at order - 2, from a full-order Gamma'
        assert r_prime.order == order - 2
        assert_levels_match(cf.curvature, r_prime.truncated(KEPT_ORDER))
        assert_levels_match(cf.ricci, oracle_ricci(cf, r_prime).truncated(KEPT_ORDER))
        tau, tau_star = oracle_tau(cf, r_prime), oracle_tau_star(cf, r_prime)
        assert_levels_match(cf.tau, tau.truncated(KEPT_ORDER))
        assert_levels_match(cf.tau_star, tau_star.truncated(KEPT_ORDER))
        # Full order: on order 4 the Hessians from the traces of the identity.
        assert_levels_match(cf.scalar_curvatures[0], tau)
        assert_levels_match(cf.scalar_curvatures[1], tau_star)


@pytest.mark.parametrize("order", [3, 4])
def test_jets_keep_only_the_levels_their_readers_take(order):
    fr = GERMS["grid_d4"].frame(order=order)
    # Gamma and g~ to the levels Gamma' and R read, min(order - 1,
    # max(KEPT_ORDER + 1, order - 2)); the first kind and the Christoffel
    # traces, which the Lee form and the Hessians differentiate, to order - 1.
    assert fr.christoffel.order == fr.g_assoc.order == 2
    assert fr.first_kind.order == fr.christoffel_trace.order == fr.g_inv_p.order == order - 1
    assert fr.curvature.order == 0
    assert fr.nabla_p.order == fr.f_tensor.order == 0
    assert fr.theta.order == order - 1
    assert fr.nabla_theta.order == 0
    assert fr.omega.order == 0
    for cp in family(fr.n):
        cf = fr.connection(cp)
        assert cf.torsion.order == cf.contorsion.order == cf.gamma.order == 0
        assert cf.curvature.order == KEPT_ORDER
        assert cf.ricci.order == cf.tau.order == cf.tau_star.order == KEPT_ORDER
        tau, tau_star = cf.scalar_curvatures
        assert tau.order == tau_star.order == order - 2
        # Below the Hessians, the levels of tau and tau_star, bit for bit.
        for full, kept in ((tau, cf.tau), (tau_star, cf.tau_star)):
            assert all(a is b for a, b in zip(full.data, kept.data))
        # Gamma' is kept beyond its values only where the Hessians need it.
        traced = cf._chain[-1]
        assert traced is None if order == 3 else traced.order == KEPT_ORDER + 1


@pytest.mark.parametrize("order, levels", [(2, 1), (5, 3)])
def test_gamma_and_g_assoc_follow_the_levels_of_gamma_prime(order, levels):
    # min(order - 1, max(KEPT_ORDER + 1, order - 2)): all the metric carries
    # on order 2, and the levels of the Hessians' Gamma' on order 5.
    fr = GERMS["grid_d4"].frame(order=order)
    assert fr.christoffel.order == fr.g_assoc.order == levels
    assert_levels_match(fr.christoffel, oracle_christoffel(fr).truncated(levels))
    for cp in family(fr.n):
        assert fr.connection(cp)._gamma().order == levels


@pytest.mark.parametrize("name", ["conformal_d6", "rotating_d4", "skew_q_d4"])
def test_no_order_4_product_builds_a_rank_3_level_above_2(name, monkeypatch):
    # Every jet product of an order-4 frame, its three connections and their
    # Hessians: a level above 2 is built only for ranks 0..2.
    built = []
    einsum, level = jetfields.jt_einsum, jetfields.jt_level

    def counted(spec, a, b):
        out = einsum(spec, a, b)
        built.extend((spec, k, x.ndim - k) for k, x in enumerate(out.data))
        return out

    def counted_level(spec, a, b, k):
        out = level(spec, a, b, k)
        built.append((spec, k, out.ndim - k))
        return out

    for module in (germs, jetfields):
        monkeypatch.setattr(module, "jt_einsum", counted)
        monkeypatch.setattr(module, "jt_level", counted_level)
    fr = GERMS[name].frame(order=4)
    for field in ("g_inv", "g_assoc", "p_adjoint", "christoffel", "curvature", "f_tensor",
                  "theta", "theta_p", "omega", "nabla_theta", "trace_pieces"):
        getattr(fr, field)
    for cp in (ConnectionParams.d(), ConnectionParams.d_tilde(fr.n), ConnectionParams(1.0, 0.0)):
        cf = fr.connection(cp)
        cf.torsion_mixed, cf.nabla_curvature, cf.nabla_theta, cf.tau, cf.tau_star
        assert cf.scalar_curvatures[0].order == 2
    assert ("kia,ia->k", 3, 1) in built  # the Lee form's level 3 is built, at rank 1
    assert [entry for entry in built if entry[1] > 2 and entry[2] >= 3] == []


def test_oracles_see_nonzero_curvature():
    # On the non-diagonal grid every preset carries curvature, so the
    # comparisons above are not between zeros.
    fr = GERMS["grid_d4"].frame(order=4)
    for cp in family(fr.n):
        cf = fr.connection(cp)
        assert frob(cf.curvature.values) > 1e-2
        assert abs(float(cf.tau_star.values)) > 1e-3
        assert min(frob(jet.data[2]) for jet in cf.scalar_curvatures) > 1e-2


def test_torsion_takes_two_jet_products(monkeypatch):
    # D and D_tilde each have one wedge with both Lee-form coefficients
    # exactly zero, which is not built; the torsion, built as values, still
    # matches its oracle.  Gamma' takes g^-1 w and m_ij (g^-1 w)^m per wedge,
    # and Q^m_i w_j for the g~ wedge: never the rank-3 product g^-1 K.  The
    # frame's trace pieces take five products, the Christoffel traces from
    # the first kind (g^jk Gamma^a_jk is the one the Lee form has built).
    # The Hessians of tau' and tau*' take two full products whatever the
    # connection, g^jk Gamma'^m_ik and Gamma'^a_jk g^kp Gamma'^j_ip, and six
    # scalar products of which only level 2, the Hessian, is built.
    calls = []
    einsum, level = germs.jt_einsum, germs.jt_level

    def counted(spec, a, b):
        calls.append(spec)
        return einsum(spec, a, b)

    def counted_level(spec, a, b, k):
        calls.append((spec, k))
        return level(spec, a, b, k)

    fr = GERMS["conformal_d6"].frame(order=4)
    # The frame's own fields are not the chain's products.
    fr.theta_p, fr.christoffel, fr.g_assoc, fr.p_adjoint
    monkeypatch.setattr(germs, "jt_einsum", counted)
    fr.trace_pieces  # nor are the pieces every connection shares
    monkeypatch.setattr(germs, "jt_einsum", einsum)
    assert calls == ["ak,k->a", "ak,k->a", "il,lik->k", "il,lik->k", "jk,iaj->kia"], calls
    calls.clear()
    hessian_products = (["mik,jk->mij", "ajk,jik->ai", ("ia,ai->", 2), ("kia,aik->", 2)]
                        + 2 * [("m,m->", 2), ("jk,kj->", 2)])
    for cp, products, gamma_products in zip(family(fr.n), (1, 1, 2, 2), (2, 3, 5, 5)):
        cf = fr.connection(cp)
        monkeypatch.setattr(germs, "jt_einsum", counted)
        torsion = cf._torsion()
        monkeypatch.setattr(germs, "jt_einsum", einsum)
        assert len(calls) == products, (cp, calls)
        assert torsion.order == 0
        assert_levels_match(torsion, oracle_torsion(cf, 0))
        calls.clear()
        monkeypatch.setattr(germs, "jt_einsum", counted)
        gamma = cf._gamma()
        monkeypatch.setattr(germs, "jt_einsum", einsum)
        assert len(calls) == gamma_products, (cp, calls)
        assert "mk,ijk->mij" not in calls
        assert_levels_match(gamma, oracle_gamma(cf, KEPT_ORDER + 1))
        calls.clear()
        cf.tau, cf.tau_star  # the levels below the Hessians, spliced in as they are
        monkeypatch.setattr(germs, "jt_einsum", counted)
        monkeypatch.setattr(germs, "jt_level", counted_level)
        cf.scalar_curvatures
        monkeypatch.setattr(germs, "jt_einsum", einsum)
        monkeypatch.setattr(germs, "jt_level", level)
        assert calls == hessian_products, (cp, calls)
        calls.clear()
