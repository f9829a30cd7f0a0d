"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Tolerances are pinned here and must not be loosened; hypothesis-gated clauses
assert in the direction the bundled inputs fix.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from apmlab.curvature import (
    almost_einstein_check,
    curvature_invariants,
    curvature_like_residuals,
    decompose_dim4,
    is_p_tensor,
    p_invariance_residual,
    p_slot_identities,
    pi_tensors,
    psi1,
    psi2,
    random_curvature_like,
    random_p_tensor,
    sectional_curvatures,
)
from apmlab.exprs import ParseError, parse_expr
from apmlab.germs import ConnectionParams, flat_product_germ
from apmlab.scenarios import load_bundled_scenario
from apmlab.structure import adapted_orthonormal_basis, classify_f
from apmlab.tensors import (
    canonical_structure,
    frob,
    random_symmetric2,
    random_tensor2,
)

from test_exprs import CORPUS, POINT, fd_gradient


def random_vector(dim: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)


@contextmanager
def criterion(num: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num}] {label}: FAIL")
        raise
    print(f"[criterion {num}] {label}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_pointwise_algebra_suite():
    with criterion(1, "pointwise algebra (psi/pi identities, dims 4 and 6, 100 seeds)"):
        started = time.perf_counter()
        for dim in (4, 6):
            ps = canonical_structure(dim)
            pi1, pi2, pi3 = pi_tensors(ps)
            assert max(is_p_tensor(ps, pi1 + pi2).residuals.values()) < 1e-12
            assert max(is_p_tensor(ps, pi3).residuals.values()) < 1e-12
            for seed in range(100):
                sym = random_symmetric2(dim, seed)
                assert max(curvature_like_residuals(psi1(ps, sym)).values()) < 1e-12
                any_s = random_tensor2(dim, seed)
                twisted = np.einsum(
                    "ijab,ak,bl->ijkl", psi2(ps, any_s), ps.p, ps.p
                )
                assert frob(twisted - psi1(ps, any_s)) < 1e-12
                skew = frob(any_s - any_s.T)
                if skew > 1e-3:  # converse direction of the iff
                    assert (
                        max(curvature_like_residuals(psi1(ps, any_s)).values())
                        > 0.1 * skew
                    )
        assert time.perf_counter() - started < 5.0


def test_criterion_2_p_slot_identity_suite():
    with criterion(2, "P-slot identities on 50 random P-tensors per dim"):
        for dim in (4, 6):
            ps = canonical_structure(dim)
            for seed in range(50):
                l = random_p_tensor(ps, seed)
                report = p_slot_identities(ps, l)
                assert max(report.residuals.values()) < 1e-10, (dim, seed)


def test_criterion_3_dim4_decomposition_suite():
    with criterion(3, "dim-4 scalar-curvature decomposition and Einstein shape"):
        ps = canonical_structure(4)
        basis = adapted_orthonormal_basis(ps)
        for seed in range(25):
            l = random_p_tensor(ps, seed)
            tau, tau_star, residual = decompose_dim4(ps, l)
            assert residual < 1e-9
            nu, nu_star = sectional_curvatures(ps, l, basis)
            assert abs(tau + 8 * nu) < 1e-10
            assert abs(tau_star + 8 * nu_star) < 1e-10
            inv = curvature_invariants(ps, l)
            rho_expected = -2 * nu * ps.g - 2 * nu_star * ps.g_assoc
            assert frob(inv.rho - rho_expected) < 1e-10
            assert max(almost_einstein_check(ps, l).residuals.values()) < 1e-10
        for seed in range(25):
            l = random_curvature_like(4, seed)
            if p_invariance_residual(ps, l) > 1e-6:  # generic non-P-tensor
                _, _, residual = decompose_dim4(ps, l)
                assert residual > 1e-3


def test_criterion_4_germ_suite():
    with criterion(4, "germ suite (classification, connections, curvature relation)"):
        started = time.perf_counter()

        flat = flat_product_germ(2).frame()
        assert frob(flat.f_tensor.values) == 0.0
        assert frob(flat.curvature.values) == 0.0
        assert classify_f(flat.structure, flat.f_tensor.values).label == "W0"

        documented = {
            "conformal_w6_4d": "W6bar",
            "conformal_w3_4d": "W3bar",
            "conformal_w1_separable_4d": "W1",
            "conformal_w1_mixed_4d": "W1",
            "conformal_w1_separable_6d": "W1",
        }
        for name, expected in documented.items():
            germ = load_bundled_scenario(name).germ
            fr = germ.frame()
            assert classify_f(fr.structure, fr.f_tensor.values).label == expected, name

            gamma = fr.christoffel.values
            assert frob(gamma - gamma.transpose(0, 2, 1)) < 1e-10
            dg = fr.g.partial().values
            nabla_g = (
                np.einsum("ijk->kij", dg)
                - np.einsum("mki,mj->kij", gamma, fr.g.values)
                - np.einsum("mkj,im->kij", gamma, fr.g.values)
            )
            assert frob(nabla_g) < 1e-10

            ps = fr.structure
            pi1, pi2, pi3 = pi_tensors(ps)
            rng = np.random.default_rng(hash(name) % 2**32)
            for _ in range(5):
                cp = ConnectionParams(*rng.uniform(-1.5, 1.5, size=2))
                cf = fr.connection(cp)
                assert cf.torsion_residual() < 1e-12
                assert cf.metric_parallel_residual() < 1e-10
                assert cf.structure_parallel_residual() < 1e-8
                tr = cf.transfer
                rebuilt = (
                    cf.curvature.values
                    - tr["g_pp"] * pi1
                    - tr["g_qq"] * pi2
                    - tr["g_pq"] * pi3
                    - psi1(ps, tr["s_prime"])
                    - psi2(ps, tr["s_dprime"])
                )
                assert frob(fr.curvature.values - rebuilt) < 1e-7

            cf_d = fr.connection(ConnectionParams.d())
            p_omega = fr.p.values @ fr.omega.values
            explicit = fr.christoffel.values + (
                np.einsum("ij,k->kij", fr.g.values, p_omega)
                - np.einsum("j,ki->kij", fr.theta_p.values, np.eye(germ.dim))
            ) / (2 * fr.n)
            assert frob(cf_d.gamma.values - explicit) < 1e-10

        assert time.perf_counter() - started < 30.0


def test_criterion_5_differential_identity_suite():
    with criterion(5, "second Bianchi / Lee-form recovery on the separable germ"):
        case_iii = ConnectionParams(1.0, 0.0)

        germ = load_bundled_scenario("conformal_w1_separable_4d").germ
        fr = germ.frame()
        cf = fr.connection(case_iii)

        p_residuals = curvature_like_residuals(cf.curvature.values)
        p_residuals["p_invariance"] = p_invariance_residual(
            fr.structure, cf.curvature.values
        )
        assert max(p_residuals.values()) < 1e-7

        nr = cf.nabla_curvature
        b = nr + np.einsum("ami,ajkl->mijkl", cf.torsion_mixed, cf.curvature.values)
        cyc = b + np.einsum("ijmkl->mijkl", b) + np.einsum("jmikl->mijkl", b)
        assert frob(cyc) < 1e-6

        pv = fr.p.values
        theta, theta_p = fr.theta.values, fr.theta_p.values
        tau = float(cf.tau.values)
        tau_star = float(cf.tau_star.values)
        d_tau, d_tau_star = cf.tau.data[1], cf.tau_star.data[1]
        r_direct = d_tau - d_tau_star @ pv + (theta_p * tau - theta * tau_star) / fr.n
        r_swapped = d_tau @ pv - d_tau_star + (theta * tau - theta_p * tau_star) / fr.n
        assert frob(r_direct) < 1e-4
        assert frob(r_swapped) < 1e-4

        delta = tau_star**2 - tau**2
        assert abs(delta) > 1e-6  # recovery branch applies on this germ
        from apmlab.checks import check_lee_recovery, ScenarioContext

        ctx = ScenarioContext(germ=germ, connections=[case_iii])
        (recovery,) = check_lee_recovery(ctx)
        assert recovery.status == "pass"
        assert recovery.residuals["theta_recovery"] < 1e-3
        assert recovery.residuals["theta_p_recovery"] < 1e-3

        mixed = load_bundled_scenario("conformal_w1_mixed_4d").germ
        frm = mixed.frame()
        cfm = frm.connection(case_iii)
        residuals = curvature_like_residuals(cfm.curvature.values)
        residuals["p_invariance"] = p_invariance_residual(
            frm.structure, cfm.curvature.values
        )
        assert max(residuals.values()) > 1e-3  # contrapositive: predicate fails


def test_criterion_6_dim4_suite():
    with criterion(6, "dim-4 trace identities and curvature reconstruction"):
        names = [
            "conformal_w6_4d",
            "conformal_w3_4d",
            "conformal_w1_separable_4d",
            "conformal_w1_mixed_4d",
        ]
        from apmlab.checks import (
            ScenarioContext,
            check_dim4_reconstruction,
            check_dim4_traces,
        )

        connections = [
            ConnectionParams.d(),
            ConnectionParams.d_tilde(2),
            ConnectionParams(1.0, 0.0),
        ]
        reconstruction_ran = 0
        for name in names:
            germ = load_bundled_scenario(name).germ
            ctx = ScenarioContext(germ=germ, connections=connections)
            (traces,) = check_dim4_traces(ctx)
            assert traces.status == "pass", name
            assert max(traces.residuals.values()) < 1e-5
            for rec in check_dim4_reconstruction(ctx):
                if rec.status == "skipped":
                    continue
                reconstruction_ran += 1
                assert rec.residuals["curvature_from_scalars"] < 1e-6, (name, rec.name)
                assert max(rec.residuals.values()) < 1e-5, (name, rec.name)
        assert reconstruction_ran >= 3  # hypothesis holds somewhere in the bundle

        # synthetic two-path round trip at a single point structure
        ps = canonical_structure(4)
        pi1, pi2, pi3 = pi_tensors(ps)
        for seed in range(10):
            l = random_p_tensor(ps, seed)
            p_vec, q_vec = random_vector(4, seed + 50), random_vector(4, seed + 51)
            s_prime = random_symmetric2(4, seed + 52)
            s_dprime = random_tensor2(4, seed + 53) @ ps.p
            corrections = (
                (p_vec @ ps.g @ p_vec) * pi1
                + (q_vec @ ps.g @ q_vec) * pi2
                + (p_vec @ ps.g @ q_vec) * pi3
                + psi1(ps, s_prime)
                + psi2(ps, s_dprime)
            )
            r_synth = l - corrections
            inv = curvature_invariants(ps, l)
            rebuilt = (inv.tau * (pi1 + pi2) + inv.tau_star * pi3) / 8 - corrections
            assert frob(r_synth - rebuilt) < 1e-10


def test_criterion_7_parser_and_jets():
    with criterion(7, "expression parser and derivative jets"):
        assert len(CORPUS) == 30
        for src, expected in CORPUS:
            expr = parse_expr(src, dim=4)
            assert abs(expr(POINT) - expected) < 1e-12 * max(1.0, abs(expected))
            jet = expr.eval_jet(POINT, 3)
            grad_fd = fd_gradient(expr, POINT)
            assert np.abs(jet.data[1] - grad_fd).max() < 1e-6 * max(1.0, abs(jet.values))
        for bad, offset in [("x1*(x2", 6), ("x9 + 1", 0), ("sin(x1", 6), ("", 0)]:
            with pytest.raises(ParseError) as err:
                parse_expr(bad, dim=4)
            assert err.value.position == offset
