import warnings

import numpy as np
import pytest

from apmlab.checks import BASE_ORDER, ScenarioContext, run_checks
from apmlab.exprs import EvalError
from apmlab.curvature import (
    curvature_like_residuals,
    is_p_tensor,
    p_invariance_residual,
    pi_tensors,
    psi1,
    psi2,
)
from apmlab.germs import (
    ChartGerm,
    ConnectionParams,
    conformal_flat_product_germ,
    d_scalar,
    default_base_point,
    flat_product_germ,
    one_form_exterior_fd,
)
from apmlab.scenarios import bundled_scenario_names, load_bundled_scenario
from apmlab.structure import classify_f, f_symmetry_residuals
from apmlab.tensors import PointStructure, StructureError, frob, split_structure

from fd_oracle import curvature_fd, f_tensor_fd, lee_form_fd


def torsion_from_params(ps: PointStructure, theta: np.ndarray,
                        params: ConnectionParams) -> np.ndarray:
    """Pointwise torsion of the natural-connection family, all indices down.

    A plain-numpy oracle for the jet ``ConnectionFrame.torsion``.
    """
    g, gp = ps.g, ps.g_assoc
    th = np.asarray(theta, dtype=float)
    thp = th @ ps.p
    n = ps.n

    def wedge(metric, form):
        return np.einsum("jk,i->ijk", metric, form) - np.einsum("ik,j->ijk", metric, form)

    t = wedge(g, thp) / (2 * n)
    t = t + params.lam * (wedge(g, th) + wedge(gp, thp))
    t = t + params.mu * (wedge(gp, th) + wedge(g, thp))
    return t


def contorsion(torsion: np.ndarray) -> np.ndarray:
    """K(x,y,z) = {T(x,y,z) - T(y,z,x) + T(z,x,y)} / 2, oracle for the jet contorsion."""
    return 0.5 * (
        torsion - np.einsum("jki->ijk", torsion) + np.einsum("kij->ijk", torsion)
    )


@pytest.fixture(scope="module")
def separable():
    return conformal_flat_product_germ(2, "x1^2 + x3^2")


@pytest.fixture(scope="module")
def mixed():
    return conformal_flat_product_germ(2, "x1*x3")


def random_params(seed):
    rng = np.random.default_rng(seed)
    return ConnectionParams(*rng.uniform(-1.5, 1.5, size=2))


def test_flat_product_is_trivial():
    germ = flat_product_germ(2)
    fr = germ.frame()
    assert frob(fr.christoffel.values) == 0.0
    assert frob(fr.curvature.values) == 0.0
    assert frob(fr.f_tensor.values) == 0.0
    assert classify_f(fr.structure, fr.f_tensor.values).label == "W0"


def test_flat_product_6d():
    fr = flat_product_germ(3).frame()
    assert frob(fr.curvature.values) == 0.0
    assert max(fr.structure.invariant_residuals().values()) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conformal_germ_structure_is_the_split_structure(n):
    """The constant grids agree with ``split_structure``'s P, zeros included.

    The builder writes them from shared constant nodes instead of reading a
    ``PointStructure``; their jets must carry the same values and no derivative.
    """
    germ = conformal_flat_product_germ(n, "x1*x2")
    fr = germ.frame(order=2)
    np.testing.assert_array_equal(fr.p.values, split_structure(2 * n).p)
    assert all(not level.any() for level in fr.p.data[1:])
    assert germ.structure[0][1] is germ.metric[0][1]


def test_conformal_germ_of_a_dimension_below_4_is_a_structure_error():
    with pytest.raises(StructureError, match="germ dimension must be an even integer >= 4"):
        conformal_flat_product_germ(1, "x1")


def test_non_finite_metric_or_structure_is_a_structure_error():
    overflowing = conformal_flat_product_germ(2, "400*x1")
    with np.errstate(over="ignore"), pytest.raises(StructureError, match="metric not finite"):
        overflowing.frame((1.0, 0.0, 0.0, 0.0)).structure
    identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    structure = [row[:] for row in identity]
    structure[0][1] = "exp(1000*x1)"
    germ = ChartGerm.from_strings(4, identity, structure)
    with np.errstate(over="ignore"), pytest.raises(StructureError, match="structure P not finite"):
        germ.frame((1.0, 0.2, 0.3, 0.4)).p


def test_a_germ_undefined_near_its_base_point_runs():
    # ln(x1 - 0.06) is defined at the base point, x1 = 0.1, but not 0.04 below
    # it.  Every check reads the jets at the base point only, so all run.
    germ = conformal_flat_product_germ(2, "ln(x1 - 0.06)")
    with pytest.raises(EvalError, match="ln of non-positive value"):
        germ.frame((0.05, 0.2, 0.3, 0.4), order=1).g
    connections = [ConnectionParams.d(), ConnectionParams.d_tilde(2), ConnectionParams(1.0, 0.0)]
    reports = run_checks(ScenarioContext(germ=germ, connections=connections))
    assert [report.name for report in reports if report.status == "fail"] == []


@pytest.mark.parametrize("u, message", [("400*x1", "metric not finite"),
                                        ("-400*x1", "metric not positive definite")])
def test_a_frame_names_its_failing_point(u, message):
    # e^{800 x1} overflows and e^{-800 x1} underflows to a singular metric
    # from x1 = 1 on; the error names the frame's point, with no warning.
    germ = conformal_flat_product_germ(2, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError) as exc:
            germ.frame((1.0, 0.0, 0.0, 0.0), order=1).structure
    assert str(exc.value) == f"{message} at point (1.0, 0.0, 0.0, 0.0)"


def test_a_connection_that_is_not_finite_fails_when_it_is_built(separable):
    # lambda = 1e200 keeps T finite and overflows R': the frame raises as it
    # builds its chain, naming R' and the point, with no warning.
    fr = separable.frame()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError) as exc:
            fr.connection(ConnectionParams(1e200, 0))
    assert str(exc.value) == ("curvature R' of connection lam=1e+200,mu=0 not finite "
                              "at point (0.1, 0.2, 0.30000000000000004, 0.4)")


DIAGONAL_P = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]


@pytest.mark.parametrize("field", ["g_inv", "christoffel", "theta", "structure"])
def test_singular_or_indefinite_metric_is_a_structure_error_naming_the_point(field):
    # e^{-800} underflows to 0, so the metric is singular; diag(1, 1, 1, -1) is indefinite.
    singular = conformal_flat_product_germ(2, "-400*x1").frame((1.0, 0.0, 0.0, 0.0), order=4)
    indefinite = ChartGerm.from_strings(
        4, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
        DIAGONAL_P).frame(order=4)
    for fr in (singular, indefinite):
        point = str(tuple(fr.point.tolist()))
        with pytest.raises(StructureError) as err:
            getattr(fr, field)
        assert str(err.value) == f"metric not positive definite at point {point}"


def test_an_order_4_frame_inverts_its_metric_once(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    germ = ChartGerm.from_strings(
        4, [["2 + sin(x1*x3)", "x2*x4/4", "0", "0"], ["x2*x4/4", "exp(x3/3)", "0", "0"],
            ["0", "0", "1 + x2^2", "cos(x1)/4"], ["0", "0", "cos(x1)/4", "2 + x1*x4"]],
        DIAGONAL_P)
    fr = germ.frame(order=4)
    fr.christoffel, fr.theta, fr.omega, fr.p_adjoint, fr.curvature
    for cp in (ConnectionParams.d(), ConnectionParams.d_tilde(2), ConnectionParams(1.0, 0.0)):
        cf = fr.connection(cp)
        cf.torsion_mixed, cf.tau, cf.tau_star, cf.p_tensor_residual
    assert calls == [(4, 4)]
    assert fr.g_inv.order == 3
    assert fr.g_inv.values is fr.structure.g_inv


def test_default_base_point_offsets():
    assert np.allclose(default_base_point(4), [0.1, 0.2, 0.3, 0.4])


def test_conformal_christoffel_pattern():
    germ = conformal_flat_product_germ(2, "x1")
    gamma = germ.frame().christoffel.values
    assert abs(gamma[0, 0, 0] - 1.0) < 1e-14
    assert abs(gamma[0, 1, 1] + 1.0) < 1e-14
    assert abs(gamma[1, 0, 1] - 1.0) < 1e-14


def test_conformal_metric_parallel_and_torsion_free(separable):
    rng = np.random.default_rng(0)
    for _ in range(10):
        pt = np.asarray(separable.base_point) + rng.uniform(-0.2, 0.2, 4)
        fr = separable.frame(pt, order=2)
        gamma = fr.christoffel.values
        assert frob(gamma - gamma.transpose(0, 2, 1)) < 1e-10
        dg = fr.g.partial().values
        nabla_g = (
            np.einsum("ijk->kij", dg)
            - np.einsum("mki,mj->kij", gamma, fr.g.values)
            - np.einsum("mkj,im->kij", gamma, fr.g.values)
        )
        assert frob(nabla_g) < 1e-10


def test_f_tensor_against_fd_oracle(separable):
    pt = np.asarray(separable.base_point)
    fr = separable.frame(pt)
    f_fd = f_tensor_fd(separable, pt)
    assert frob(fr.f_tensor.values - f_fd) < 1e-6 * max(1, frob(f_fd))
    theta_fd = lee_form_fd(separable, pt)
    assert frob(fr.theta.values - theta_fd) < 1e-6 * max(1, frob(theta_fd))


def test_f_tensor_symmetries_on_germs(separable, mixed):
    for germ in (separable, mixed):
        fr = germ.frame()
        res = f_symmetry_residuals(fr.structure, fr.f_tensor.values)
        assert max(res.values()) < 1e-9


def test_lee_form_matches_conformal_formula(separable):
    # theta = 2n * du o P for the conformal generator
    pt = np.asarray(separable.base_point)
    fr = separable.frame()
    du = np.array([2 * pt[0], 0.0, 2 * pt[2], 0.0])
    expected = 4.0 * du @ fr.p.values
    assert frob(fr.theta.values - expected) < 1e-12


def test_curvature_against_fd_oracle(separable):
    pt = np.asarray(separable.base_point)
    r = separable.frame(pt).curvature.values
    r_fd = curvature_fd(separable, pt)
    assert frob(r - r_fd) < 1e-4 * max(1.0, frob(r))


def test_curvature_properties_on_conformal_germ():
    germ = conformal_flat_product_germ(2, "x1^2")
    r = germ.frame().curvature.values
    assert frob(r) > 0.1
    assert max(curvature_like_residuals(r).values()) < 1e-9
    assert frob(r - np.einsum("klij->ijkl", r)) < 1e-10


def test_sphere_block_curvature():
    germ = ChartGerm.from_strings(
        4,
        [["1", "0", "0", "0"], ["0", "sin(x1)^2", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
        base_point=[0.7, 0.2, 0.3, 0.4],
        name="sphere_block",
    )
    pt = np.asarray(germ.base_point)
    fr = germ.frame()
    # unit sphere block: R(e1,e2,e1,e2) = -g11 g22 = -sin(x1)^2
    assert abs(fr.curvature.values[0, 1, 0, 1] + np.sin(pt[0]) ** 2) < 1e-12
    assert frob(fr.curvature.values - curvature_fd(germ, pt)) < 1e-4
    assert frob(fr.f_tensor.values) < 1e-12  # local product structure


def test_germ_classifications():
    cases = [
        ("0", "W0"),
        ("x1", "W6bar"),
        ("x1 + x2^2", "W6bar"),
        ("x3 + x4^2", "W3bar"),
        ("x1^2 + x3^2", "W1"),
        ("x1*x3", "W1"),
    ]
    for u, expected in cases:
        germ = conformal_flat_product_germ(2, u)
        fr = germ.frame()
        assert classify_f(fr.structure, fr.f_tensor.values).label == expected, u


def test_closedness_profiles():
    separable = ScenarioContext(conformal_flat_product_germ(2, "x1^2 + x3^2")).closedness
    assert separable == {"theta_closed": True, "theta_p_closed": True}
    mixed = ScenarioContext(conformal_flat_product_germ(2, "x1*x3")).closedness
    assert mixed == {"theta_closed": False, "theta_p_closed": True}


def test_torsion_matches_pointwise_builder(separable):
    fr = separable.frame()
    for seed in range(5):
        cp = random_params(seed)
        cf = fr.connection(cp)
        t_pointwise = torsion_from_params(fr.structure, fr.theta.values, cp)
        assert frob(cf.torsion.values - t_pointwise) < 1e-12


def test_torsion_reduces_to_base_term_at_zero_params(separable):
    fr = separable.frame()
    ps = fr.structure
    theta = fr.theta.values
    t = torsion_from_params(ps, theta, ConnectionParams.d())
    theta_p = theta @ ps.p
    expected = (
        np.einsum("jk,i->ijk", ps.g, theta_p) - np.einsum("ik,j->ijk", ps.g, theta_p)
    ) / 4
    assert frob(t - expected) < 1e-14


def test_torsion_zero_when_theta_zero():
    fr = flat_product_germ(2).frame()
    t = torsion_from_params(fr.structure, fr.theta.values, ConnectionParams(0.7, -0.3))
    assert frob(t) == 0.0


def test_torsion_antisymmetry_and_p_identity(separable):
    fr = separable.frame()
    eye = np.eye(4)
    for seed in range(5):
        cp = random_params(seed + 10)
        cf = fr.connection(cp)
        t = cf.torsion.values
        assert frob(t + t.transpose(1, 0, 2)) < 1e-12
        tm = cf.torsion_mixed
        lhs = tm - np.einsum("ma,abj,bi->mij", fr.p.values, tm, fr.p.values)
        rhs = (
            np.einsum("i,mj->mij", fr.theta_p.values, eye)
            - np.einsum("i,mj->mij", fr.theta.values, fr.p.values)
        ) / 4
        assert frob(lhs - rhs) < 1e-12


def test_contorsion_antisymmetry(separable):
    fr = separable.frame()
    for seed in range(5):
        k = fr.connection(random_params(seed + 20)).contorsion.values
        assert frob(k + k.transpose(0, 2, 1)) < 1e-12


@pytest.mark.parametrize("lam, mu", [(1e3, 0.0), (0.0, 1e3), (1e5, 0.0), (0.0, 1e5)])
def test_torsion_match_scales_with_the_torsion(separable, lam, mu):
    # Gamma' is built from the torsion's wedges and T on its own, so their
    # mismatch is rounding that grows with |T|; relative to |T| it stays at
    # rounding (absolute, it reads 1e-12 at lambda = 1e3 and 1e-10 at 1e5).
    cf = separable.frame(order=4).connection(ConnectionParams(lam, mu))
    assert frob(cf.torsion_mixed) > 1e2
    assert cf.torsion_residual() < 1e-14


def test_natural_connection_parallelism(separable):
    fr = separable.frame()
    for seed in range(5):
        cf = fr.connection(random_params(seed + 30))
        assert cf.torsion_residual() < 1e-12
        assert cf.metric_parallel_residual() < 1e-10
        assert cf.structure_parallel_residual() < 1e-8


def test_d_preset_matches_explicit_formula(separable):
    fr = separable.frame()
    cf = fr.connection(ConnectionParams.d())
    p_omega = fr.p.values @ fr.omega.values
    expected = fr.christoffel.values + (
        np.einsum("ij,k->kij", fr.g.values, p_omega)
        - np.einsum("j,ki->kij", fr.theta_p.values, np.eye(4))
    ) / 4
    assert frob(cf.gamma.values - expected) < 1e-10


def test_d_tilde_contorsion_is_transposed_torsion(separable):
    # For the second preset the difference tensor satisfies K(x,y,z) = T(z,y,x).
    fr = separable.frame()
    cf = fr.connection(ConnectionParams.d_tilde(2))
    t = cf.torsion.values
    assert frob(cf.contorsion.values - np.einsum("kji->ijk", t)) < 1e-13


def test_connection_frames_are_cached_per_params(separable):
    # The scenario context keeps the only connection cache; a germ frame
    # builds a new connection frame on every call.
    ctx = ScenarioContext(germ=separable)
    cp = ConnectionParams(1.0, 0.0)
    cf = ctx.connection(cp)
    r_prime = cf.curvature
    assert ctx.connection(ConnectionParams(1.0, 0.0)) is cf
    assert ctx.connection(cp).curvature is r_prime
    assert ctx.connection(ConnectionParams.d()) is not cf
    fr = ctx.frame
    assert fr.connection(cp) is not fr.connection(cp)
    assert fr.connection(cp) is not cf and fr.connection(cp).frame is fr


def test_flat_connection_is_levi_civita():
    fr = flat_product_germ(2).frame()
    cf = fr.connection(ConnectionParams(0.9, 0.4))
    assert frob(cf.gamma.values - fr.christoffel.values) == 0.0


def test_curvature_relation_for_random_params(separable, mixed):
    for germ in (separable, mixed):
        fr = germ.frame()
        ps = fr.structure
        pi1, pi2, pi3 = pi_tensors(ps)
        r = fr.curvature.values
        for seed in range(5):
            cf = fr.connection(random_params(seed + 40))
            tr = cf.transfer
            rebuilt = (
                cf.curvature.values
                - tr["g_pp"] * pi1
                - tr["g_qq"] * pi2
                - tr["g_pq"] * pi3
                - psi1(ps, tr["s_prime"])
                - psi2(ps, tr["s_dprime"])
            )
            assert frob(r - rebuilt) < 1e-7


def test_transfer_components_for_presets(separable):
    fr = separable.frame()
    theta_omega = float(fr.theta.values @ fr.omega.values)
    tr_d = fr.connection(ConnectionParams.d()).transfer
    assert abs(tr_d["g_pp"] - theta_omega / 16) < 1e-12
    assert tr_d["g_qq"] == 0.0 and tr_d["g_pq"] == 0.0
    assert frob(tr_d["s_dprime"]) == 0.0
    tr_t = fr.connection(ConnectionParams.d_tilde(2)).transfer
    assert abs(tr_t["g_qq"] - theta_omega / 16) < 1e-12
    assert tr_t["g_pp"] == 0.0 and tr_t["g_pq"] == 0.0
    assert frob(tr_t["s_prime"] - np.outer(fr.theta.values, fr.theta.values) / 16) < 1e-12


def test_r_prime_p_tensor_on_separable_case_iii(separable):
    fr = separable.frame()
    cf = fr.connection(ConnectionParams(1.0, 0.0))
    assert ConnectionParams(1.0, 0.0).case(2) == "generic"
    report = is_p_tensor(fr.structure, cf.curvature.values, tol=1e-7)
    assert report.passed
    assert frob(cf.curvature.values) > 1.0


@pytest.mark.parametrize("lam,mu,case", [
    (0.0, 0.0, "D"),
    (0.0, -0.25, "D_tilde"),
    (1.0, 0.0, "generic"),
    (1.25 ** 0.5, 1.0, "degenerate"),  # lambda^2 = mu^2 + mu/2n at n = 2
    (1e200, 0.0, "generic"),  # lambda^2 overflows a float
    (0.0, 1e200, "generic"),
    (1e200, 1e200, "degenerate"),  # relative discriminant 1/(4e200)
])
def test_connection_case_is_decided_on_a_relative_discriminant(lam, mu, case):
    assert ConnectionParams(lam, mu).case(2) == case


def test_r_prime_not_p_tensor_on_mixed_case_iii(mixed):
    fr = mixed.frame()
    cf = fr.connection(ConnectionParams(1.0, 0.0))
    res = curvature_like_residuals(cf.curvature.values)
    res["p_invariance"] = p_invariance_residual(fr.structure, cf.curvature.values)
    assert max(res.values()) > 1e-3


def test_r_prime_of_d_vanishes_on_conformal_family(separable, mixed):
    # D is conformally invariant over the flat product, hence flat here.
    for germ in (separable, mixed):
        cf = germ.frame().connection(ConnectionParams.d())
        assert frob(cf.curvature.values) < 1e-12


def test_second_bianchi_identity(separable):
    fr = separable.frame()
    for cp in [ConnectionParams.d(), ConnectionParams.d_tilde(2), ConnectionParams(1.0, 0.0)]:
        cf = fr.connection(cp)
        nr = cf.nabla_curvature
        b = nr + np.einsum("ami,ajkl->mijkl", cf.torsion_mixed, cf.curvature.values)
        cyc = b + np.einsum("ijmkl->mijkl", b) + np.einsum("jmikl->mijkl", b)
        assert frob(cyc) < 1e-6


def test_nabla_curvature_against_fd(separable):
    # exact-jet covariant derivative of R' vs central differences of the pipeline
    cp = ConnectionParams(1.0, 0.0)
    pt = np.asarray(separable.base_point)
    cf = separable.frame(pt).connection(cp)
    gamma = cf.gamma.values

    def r_prime(q):
        return separable.frame(q, order=2).connection(cp).curvature.values

    h = 1e-5
    for m in range(4):
        e = np.zeros(4)
        e[m] = h
        dr_fd = (r_prime(pt + e) - r_prime(pt - e)) / (2 * h)
        rv = cf.curvature.values
        # assemble the covariant derivative from the FD partial
        corr = (
            np.einsum("ai,ajkl->ijkl", gamma[:, m, :], rv)
            + np.einsum("aj,iakl->ijkl", gamma[:, m, :], rv)
            + np.einsum("ak,ijal->ijkl", gamma[:, m, :], rv)
            + np.einsum("al,ijka->ijkl", gamma[:, m, :], rv)
        )
        nabla_fd = dr_fd - corr
        assert frob(cf.nabla_curvature[m] - nabla_fd) < 1e-5 * max(1, frob(nabla_fd))


def test_d_scalar_matches_jet_gradient(separable):
    cp = ConnectionParams(1.0, 0.0)
    pt = np.asarray(separable.base_point)

    def tau_star_pipeline(q):
        return float(separable.frame(q, order=2).connection(cp).tau_star.values)

    grad_fd, err = d_scalar(tau_star_pipeline, pt, step=1e-4)
    exact = separable.frame(pt).connection(cp).tau_star.data[1]
    assert frob(grad_fd - exact) < 1e-6 * max(1.0, frob(exact))
    assert np.all(err < 1e-4 * max(1.0, frob(exact)))


def test_d_scalar_trivial_cases():
    grad, err = d_scalar(lambda pt: 3.5, np.zeros(4))
    assert frob(grad) == 0.0 and frob(err) == 0.0
    grad, _ = d_scalar(lambda pt: pt[0] ** 2, np.array([1.5, 0, 0, 0]))
    assert abs(grad[0] - 3.0) < 1e-9


def test_one_form_exterior_fd_on_gradient_field():
    # d of an exact form vanishes
    def form(pt):
        return np.array([2 * pt[0] * pt[2], 0.0, pt[0] ** 2, 0.0])

    d = one_form_exterior_fd(form, np.array([0.4, 0.1, 0.6, 0.2]), step=1e-4)
    assert frob(d) < 1e-8

    def nonclosed(pt):
        return np.array([pt[2], 0.0, 0.0, 0.0])

    d2 = one_form_exterior_fd(nonclosed, np.array([0.4, 0.1, 0.6, 0.2]), step=1e-4)
    assert abs(d2[0, 2] + 1.0) < 1e-8


def varying_p_germ() -> ChartGerm:
    # g = I and P = [[cos phi, sin phi], [sin phi, -cos phi]] + diag(1, -1), phi = x1*x3:
    # d(theta o P) carries the derivative of P.
    c, s = "cos(x1*x3)", "sin(x1*x3)"
    structure = [[c, s, "0", "0"], [s, f"-{c}", "0", "0"], ["0", "0", "1", "0"],
                 ["0", "0", "0", "-1"]]
    metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    return ChartGerm.from_strings(4, metric, structure)


@pytest.mark.parametrize("name", ["varying_p", *bundled_scenario_names()])
def test_lee_form_exterior_derivatives_on_a_varying_structure(name):
    # The jets of d theta and d(theta o P) that classification's closedness
    # flags read, against central differences (step 1e-4) over order-1 frames.
    germ = varying_p_germ() if name == "varying_p" else load_bundled_scenario(name).germ
    fr = germ.frame(order=BASE_ORDER)
    point = np.asarray(germ.base_point)

    def theta_p(pt):
        f = germ.frame(pt, order=1)
        return f.theta.values @ f.p.values

    fd_d_theta = one_form_exterior_fd(lambda pt: germ.frame(pt, order=1).theta.values,
                                      point, step=1e-4)
    fd_d_theta_p = one_form_exterior_fd(theta_p, point, step=1e-4)
    assert frob(fr.d_theta - fd_d_theta) < 1e-8
    assert frob(fr.d_theta_p - fd_d_theta_p) < 1e-8
    if name == "varying_p":
        # Without the d P term, (d theta) o P misses the oracle by far more.
        jac_p = fr.theta.partial().values.T @ fr.p.values  # [i, k] = d_i theta_j P^j_k
        assert frob(jac_p - jac_p.T - fd_d_theta_p) > 1e-2


def test_contorsion_helper_matches_frame(separable):
    fr = separable.frame()
    cp = ConnectionParams(0.3, -0.6)
    t = torsion_from_params(fr.structure, fr.theta.values, cp)
    assert frob(contorsion(t) - fr.connection(cp).contorsion.values) < 1e-13


def test_germ_validation_detects_incompatibility():
    bad = ChartGerm.from_strings(
        4,
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "1", "0"], ["0", "0", "0", "-1"]],
        name="bad_trace",
    )
    assert bad.frame(order=0).structure.invariant_residuals()["trace_p"] == 2.0


def test_christoffel_coordinate_permutation_equivariance():
    # Relabeling the two h-coordinates permutes the Christoffel indices.
    germ_a = conformal_flat_product_germ(2, "x1^2 + x2")
    germ_b = conformal_flat_product_germ(2, "x2^2 + x1")
    pt = np.array([0.3, 0.7, 0.2, 0.5])
    swapped = pt[[1, 0, 2, 3]]
    gamma_a = germ_a.frame(pt, order=2).christoffel.values
    gamma_b = germ_b.frame(swapped, order=2).christoffel.values
    perm = [1, 0, 2, 3]
    assert frob(gamma_a - gamma_b[np.ix_(perm, perm, perm)]) < 1e-13


def test_flat_r_prime_vanishes():
    fr = flat_product_germ(2).frame()
    cf = fr.connection(ConnectionParams(0.4, -0.2))
    assert frob(cf.curvature.values) == 0.0
    tr = cf.transfer
    assert tr["g_pp"] == tr["g_qq"] == tr["g_pq"] == 0.0
    assert frob(tr["s_prime"]) == 0.0 and frob(tr["s_dprime"]) == 0.0


def test_six_dimensional_conformal_germ():
    germ = conformal_flat_product_germ(3, "x1^2 + x4^2")
    fr = germ.frame()
    assert classify_f(fr.structure, fr.f_tensor.values).label == "W1"
    cf = fr.connection(ConnectionParams(1.0, 0.0))
    assert cf.metric_parallel_residual() < 1e-10
    assert cf.structure_parallel_residual() < 1e-8
    assert is_p_tensor(fr.structure, cf.curvature.values, tol=1e-7).passed
