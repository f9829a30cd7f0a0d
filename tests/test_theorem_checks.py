"""Lee-form theorem checks on exact jets: residual levels, routing and skips."""

import math
import warnings
from functools import cached_property

import numpy as np
import pytest

from apmlab import checks, germs
from apmlab import curvature as curv
from apmlab.checks import (
    ScenarioContext,
    check_eigenclass_lee_recovery,
    check_lee_recovery,
    check_tau_form_closedness,
)
from apmlab.germs import (
    KEPT_ORDER,
    ChartGerm,
    ConnectionFrame,
    ConnectionParams,
    conformal_flat_product_germ,
)
from apmlab.jetfields import JetTensor
from apmlab.scenarios import (
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)
from apmlab.tensors import StructureError, einsum, frob, random_symmetric2, random_tensor2

THEOREM_CHECKS = (check_lee_recovery, check_tau_form_closedness, check_eigenclass_lee_recovery)


def context(name: str) -> ScenarioContext:
    return load_bundled_scenario(name).context()


def run_theorem_checks(ctx: ScenarioContext):
    return [report for check in THEOREM_CHECKS for report in check(ctx)]


def count_frames(monkeypatch) -> list[int]:
    """The order of every GermFrame built from now on, however it is built."""
    orders = []
    init = germs.GermFrame.__init__

    def counted(frame, germ, point, order=3):
        orders.append(order)
        init(frame, germ, point, order)

    monkeypatch.setattr(germs.GermFrame, "__init__", counted)
    return orders


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_theorem_checks_use_no_finite_differences(name, monkeypatch):
    # A full run takes every derivative from jets and differences nothing.
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences inside a check")

    monkeypatch.setattr(checks, "d_scalar", forbidden)
    monkeypatch.setattr(checks, "one_form_exterior_fd", forbidden)
    ctx = context(name)
    reports = checks.run_checks(ctx)
    assert all(report.status != "fail" for report in reports)
    for report in run_theorem_checks(ctx):
        for key, value in report.residuals.items():
            assert value <= 1e-10, (report.name, key, value)


@pytest.mark.parametrize("name", ["conformal_w3_4d", "conformal_w6_4d"])
def test_eigenclass_tau_form_closed_is_exact(name):
    closed = [
        report.residuals["tau_form_closed"]
        for report in check_eigenclass_lee_recovery(context(name))
        if "tau_form_closed" in report.residuals
    ]
    assert len(closed) == 2  # D_tilde and lam=1, mu=0
    assert max(closed) < 1e-10


def test_opposite_scalar_curvatures_take_the_equal_magnitude_branch():
    # On the W3bar germ tau*' = -tau' != 0 for D_tilde and lam=1, mu=0, so
    # ln|tau*' + tau'| must never be formed.
    ctx = context("conformal_w3_4d")
    for cp in ctx.connections[1:]:
        cf = ctx.connection(cp)
        tau, tau_star = float(cf.tau.values), float(cf.tau_star.values)
        assert abs(tau) > 1.0 and abs(tau_star + tau) < 1e-12
    reports = run_theorem_checks(ctx)
    for report in reports:
        assert report.status != "fail", report.name
        if report.status == "skipped":
            assert report.skip_reason
        assert "theta_recovery" not in report.residuals


def twisted_product_context(alpha: str, beta: str, base_point=None,
                            connections=(ConnectionParams.d(),)) -> ScenarioContext:
    """g = e^{2 alpha} (dx1^2 + dx2^2) + e^{2 beta} (dx3^2 + dx4^2), P = diag(1, 1, -1, -1)."""
    a, b = f"exp(2*({alpha}))", f"exp(2*({beta}))"
    metric = [[a, "0", "0", "0"], ["0", a, "0", "0"], ["0", "0", b, "0"], ["0", "0", "0", b]]
    structure = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    germ = ChartGerm.from_strings(4, metric, structure, base_point)
    return ScenarioContext(germ=germ, connections=list(connections))


@pytest.mark.parametrize("eps,alpha,beta", [
    (1.0, "x1*x3", "x1*x3 + x1^2 + x2^2"),
    (-1.0, "x1*x3 + x3^2 + x4^2", "x1*x3"),
])
def test_equal_magnitude_branch_of_d_for_either_sign(eps, alpha, beta):
    # theta o P is closed and R'(D) is a P-tensor with tau*' = eps tau' != 0:
    # the scalar system gives theta o P - eps theta = -n {d ln|tau'| - eps d ln|tau'| o P}.
    ctx = twisted_product_context(alpha, beta)
    cf = ctx.connection(ConnectionParams.d())
    tau, tau_star = float(cf.tau.values), float(cf.tau_star.values)
    assert ctx.w1_outside_eigenclasses and ctx.r_prime_p_tensor(cf)
    assert abs(tau) > 1.0 and abs(tau_star - eps * tau) < 1e-12
    [recovery] = check_lee_recovery(ctx)
    [closedness] = check_tau_form_closedness(ctx)
    assert recovery.residuals["equal_magnitude_combination"] < 1e-12
    assert closedness.residuals["d_theta_match"] < 1e-12
    assert recovery.status == closedness.status == "pass"


PRESETS_4D = [ConnectionParams.d(), ConnectionParams.d_tilde(2), ConnectionParams(1.0, 0.0)]
# Members of the degenerate conic lambda^2 = mu^2 + mu/2n at n = 2 other than D and D_tilde.
DEGENERATE_4D = [ConnectionParams(sign * math.sqrt(mu * mu + mu / 4), mu)
                 for mu in (0.5, 1.0) for sign in (1.0, -1.0)]


def test_degenerate_connections_pass_with_both_lee_forms_closed():
    # Both Lee forms are closed, so every member of the family has P-tensor
    # curvature: a degenerate connection carries no claim, and nothing fails.
    ctx = context("conformal_w1_separable_4d")
    ctx.connections = DEGENERATE_4D
    assert ctx.closedness == {"theta_closed": True, "theta_p_closed": True}
    reports = checks.check_p_tensor_cases(ctx)
    assert [report.notes[-1] for report in reports] == \
        ["degenerate case: necessary condition only"] * len(DEGENERATE_4D)
    for cp, report in zip(DEGENERATE_4D, reports):
        assert ctx.r_prime_p_tensor(ctx.connection(cp))
        assert report.status == "pass" and report.residuals == {}, report.name


@pytest.mark.parametrize("alpha,beta,theta_closed,theta_p_closed", [
    ("-x1*x3 + x3^2", "x1*x3 + x2^2", True, False),
    ("x1*x3 + x3^2", "x1*x3 + x2^2", False, True),
    ("x1*x3", "x2*x4", False, False),
])
def test_p_tensor_cases_pass_on_twisted_grids(alpha, beta, theta_closed, theta_p_closed):
    # With exactly one Lee form closed, D or D_tilde is the only connection
    # with P-tensor curvature, so each degenerate one is refuted; with
    # neither closed a degenerate connection carries no claim.
    ctx = twisted_product_context(alpha, beta, (0.3, 0.1, 0.7, -0.2),
                                  DEGENERATE_4D + PRESETS_4D)
    assert ctx.w1_outside_eigenclasses
    assert ctx.closedness == {"theta_closed": theta_closed, "theta_p_closed": theta_p_closed}
    reports = checks.check_p_tensor_cases(ctx)
    assert [report.status for report in reports] == ["pass"] * len(reports)
    refuted = theta_closed != theta_p_closed
    for report in reports[:len(DEGENERATE_4D)]:
        assert ("p_tensor_refuted_margin" in report.residuals) == refuted, report.name


@pytest.mark.parametrize("eps", ["1e-4", "1e-5", "1e-6", "1e-7", pytest.param(
    "1e-8", marks=pytest.mark.xfail(strict=True, reason=(
        "D_tilde's P-tensor defect 8.5e-8 lies under the 1e-7 gate; "
        "a refutation relative to |d theta| would hold")))])
def test_p_tensor_cases_refute_just_off_a_closed_theta(eps):
    # u = x1^2 + x3^2 + eps x1 x3: theta is no longer closed, and R' of
    # D_tilde and (1, 0) is about 8.5 eps and 34 eps from a P-tensor.
    germ = conformal_flat_product_germ(2, f"x1^2 + x3^2 + {eps}*x1*x3")
    ctx = ScenarioContext(germ, PRESETS_4D)
    assert ctx.closedness == {"theta_closed": False, "theta_p_closed": True}
    reports = checks.check_p_tensor_cases(ctx)
    assert [report.status for report in reports] == ["pass"] * 3


def test_a_forbidden_p_tensor_fails_the_refutation():
    # Neither Lee form is closed, so D may not give a P-tensor: an R' that
    # passes the P-tensor gate fails the refutation.
    ctx = twisted_product_context("x1*x3", "x2*x4", (0.3, 0.1, 0.7, -0.2))
    ctx.connection(ConnectionParams.d()).p_tensor_residual = 0.0
    [report] = checks.check_p_tensor_cases(ctx)
    assert report.status == "fail"
    assert report.residuals == {"p_tensor_refuted_margin": 1.0}


def test_singular_scalar_combination_is_a_named_skip():
    # tau' = 0 and tau*' = 1e-6 are distinct in magnitude, but
    # tau*'^2 - tau'^2 = 1e-12 lies below the ln floor.
    ctx = context("conformal_w1_separable_4d")
    ctx.connections = [ConnectionParams.d_tilde(2), ConnectionParams(1.0, 0.0)]
    dim = ctx.germ.dim
    for cp in ctx.connections:
        cf = ctx.connection(cp)
        order = cf.tau.order
        cf.tau = JetTensor.constant(0.0, dim, order)
        cf.tau_star = JetTensor.constant(1e-6, dim, order)
        cf.scalar_curvatures = (JetTensor.constant(0.0, dim, checks.BASE_ORDER - 2),
                                JetTensor.constant(1e-6, dim, checks.BASE_ORDER - 2))
    reports = {report.name: report for report in run_theorem_checks(ctx)}
    for label in ("D_tilde", "lam=1,mu=0"):
        for name in ("tau_form_closedness", "lee_recovery"):
            report = reports[f"{name}[{label}]"]
            assert report.status == "skipped"
            assert report.skip_reason == "singular scalar combination"


def test_ln_floor_raises_the_singular_error():
    with pytest.raises(checks.Skip, match="singular scalar combination"):
        checks._ln_abs(JetTensor.constant(-5e-11, 4, 2))
    jet = checks._ln_abs(JetTensor.constant(-2.0, 4, 2))
    assert abs(float(jet.values) - np.log(2.0)) < 1e-15


def count_builds(monkeypatch, cls, name: str) -> list:
    """Each instance of ``cls`` whose cached property ``name`` is computed from now on."""
    original = cls.__dict__[name].func
    built = []

    def counted(obj):
        built.append(obj)
        return original(obj)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return built


def connection_builds(monkeypatch, name: str) -> list:
    """Params of each computation of ConnectionFrame.<name> in one scenario run."""
    built = count_builds(monkeypatch, ConnectionFrame, name)
    run_scenario(load_bundled_scenario("conformal_w1_separable_4d"))
    return [cf.params for cf in built]


def test_scenario_builds_each_connection_curvature_once(monkeypatch):
    # The one chain T -> Gamma' -> R', built with its connection frame, is
    # the only producer of R': one frame per connection.
    built = []
    init = ConnectionFrame.__init__

    def counted(cf, frame, params):
        built.append(params)
        init(cf, frame, params)

    monkeypatch.setattr(ConnectionFrame, "__init__", counted)
    run_scenario(load_bundled_scenario("conformal_w1_separable_4d"))
    assert len(built) == 3 and len(set(built)) == 3


def test_scenario_builds_one_torsion_chain_per_connection(monkeypatch):
    # No second, shorter torsion chain: one T per connection, named by the
    # finiteness check each T passes, no contorsion, as no check reads K,
    # and one curvature of a connection per connection besides the Levi-Civita R.
    calls = {"torsion": [], "contorsion": 0, "curvature": 0}
    finite, contorsion_of, curvature_of = germs._finite, germs._contorsion_of, germs._curvature_of

    def counted_finite(jet, label, point):
        if label.startswith("torsion T of "):
            calls["torsion"].append(label)
        return finite(jet, label, point)

    def counted(key, fn):
        def run(jet):
            calls[key] += 1
            return fn(jet)
        return run

    monkeypatch.setattr(germs, "_finite", counted_finite)
    monkeypatch.setattr(germs, "_contorsion_of", counted("contorsion", contorsion_of))
    monkeypatch.setattr(germs, "_curvature_of", counted("curvature", curvature_of))
    scenario = load_bundled_scenario("conformal_w1_separable_4d")
    run_scenario(scenario)
    assert sorted(calls["torsion"]) == sorted(
        f"torsion T of connection {cp.label(2)}" for cp in scenario.connections)
    assert len(set(calls["torsion"])) == 3
    assert calls["contorsion"] == 0
    assert calls["curvature"] == 1 + 3


def test_scenario_gates_each_connection_p_tensor_once(monkeypatch):
    # Seven checks read "R' is a Riemannian P-tensor"; it is computed once.
    built = connection_builds(monkeypatch, "p_tensor_residual")
    assert len(built) == 3 and len(set(built)) == 3


def test_scenario_builds_each_transfer_piece_once(monkeypatch):
    # curvature_relation and dim4_reconstruction both read psi1(S') + psi2(S''),
    # dim4_traces and dim4_reconstruction both read the dim-4 trace scalars:
    # each is built once per connection.
    psi = count_builds(monkeypatch, ConnectionFrame, "transfer_psi")
    scalars = count_builds(monkeypatch, ConnectionFrame, "trace_scalars")
    scenario = load_bundled_scenario("conformal_w1_separable_4d")
    reports = run_scenario(scenario)
    assert sorted(str(cf.params) for cf in psi) == sorted(map(str, scenario.connections))
    assert sorted(str(cf.params) for cf in scalars) == sorted(
        map(str, [ConnectionParams.d(), ConnectionParams.d_tilde(2)]))
    assert sum("preset_reconstruction" in rep.residuals for rep in reports) == 2
    assert sum("curvature_relation" in rep.residuals for rep in reports) == 3


def oblique_chart_germ() -> ChartGerm:
    """conformal_w1_separable_4d's germ in the linear chart x = A y.

    There g = e^{2u} A^T A and P = A^-1 P0 A, so P is not symmetric: a P^T
    read as P, or a P-twist on the wrong slots, shows in its residuals.
    """
    a = np.eye(4) + 0.3 * random_tensor2(4, 3)
    x = ["(" + " + ".join(f"({float(a[i, j])!r})*x{j + 1}" for j in range(4)) + ")"
         for i in range(4)]
    u = f"{x[0]}^2 + {x[2]}^2"
    g0 = a.T @ a
    p = np.linalg.solve(a, np.diag([1.0, 1.0, -1.0, -1.0]) @ a)
    metric = [[f"({float(g0[i, j])!r})*exp(2*({u}))" for j in range(4)] for i in range(4)]
    return ChartGerm.from_strings(4, metric, [[repr(float(v)) for v in row] for row in p])


def test_p_twists_hold_in_an_oblique_chart():
    ctx = ScenarioContext(oblique_chart_germ(), [ConnectionParams.d(), ConnectionParams.d_tilde(2),
                                                 ConnectionParams(1.0, 0.0)])
    assert frob(ctx.frame.p.values - ctx.frame.p.values.T) > 0.1
    assert ctx.class_report.label == "W1"
    reports = [report for name in ("natural_connection", "second_bianchi", "pointwise_algebra")
               for report in checks.CHECKS[name][0](ctx)]
    assert all(report.status == "pass" for report in reports), [r.as_dict() for r in reports]
    assert sum("torsion_p_identity" in report.residuals for report in reports) == 3
    assert sum("p_twisted_identity" in report.residuals for report in reports) == 3


def test_second_bianchi_permutations_match_einsum_specs(monkeypatch):
    # The rank-5 slot permutations of second_bianchi against the einsum specs
    # that define them, in the oblique chart, where P != P^T.  grad' R' and T
    # are replaced by random tensors after the P-tensor gate is read, so both
    # identities are far from holding and a slot moved the wrong way shows in
    # the tensors whose norms the check reports.
    ctx = ScenarioContext(oblique_chart_germ(), [ConnectionParams.d(), ConnectionParams.d_tilde(2)])
    fr = ctx.frame
    p, theta, theta_p = fr.p.values, fr.theta.values, fr.theta_p.values
    rng = np.random.default_rng(7)
    for cp in ctx.connections:
        cf = ctx.connection(cp)
        assert ctx.r_prime_p_tensor(cf)
        cf.nabla_curvature = rng.standard_normal((4,) * 5)
        cf.torsion_mixed = rng.standard_normal((4,) * 3)
    normed = []
    monkeypatch.setattr(checks, "frob", lambda t, *rank: normed.append(t) or frob(t, *rank))
    reports = checks.check_second_bianchi(ctx)
    assert len(normed) == 2 * len(reports)
    for k, (cp, report) in enumerate(zip(ctx.connections, reports)):
        cf = ctx.connection(cp)
        nr, r = cf.nabla_curvature, cf.curvature.values
        b = nr + np.einsum("ami,ajkl->mijkl", cf.torsion_mixed, r)
        cyclic = b + np.einsum("ijmkl->mijkl", b) + np.einsum("jmikl->mijkl", b)
        r_py = np.einsum("iakl,aj->ijkl", r, p)
        twisted = (nr - np.einsum("aijkb,am,bl->mijkl", nr, p, p)
                   + (np.einsum("m,ijkl->mijkl", theta_p, r)
                      - np.einsum("m,ijkl->mijkl", theta, r_py)) / fr.n)
        for key, tensor, spec in (("cyclic_identity", normed[2 * k], cyclic),
                                  ("p_twisted_identity", normed[2 * k + 1], twisted)):
            assert frob(spec) > 1.0
            assert np.max(np.abs(tensor - spec)) <= 1e-13 * frob(spec), key
            assert report.residuals[key] == frob(tensor), key


def test_scenario_computes_the_levi_civita_invariants_once(monkeypatch):
    # curvature_like and both preset dim4_reconstruction reports read tau, tau* of R.
    ctx = context("conformal_w1_separable_4d")
    r = ctx.frame.curvature.values
    original = curv.curvature_invariants
    calls = []

    def counted(ps, l):
        if l is r:
            calls.append(ps)
        return original(ps, l)

    monkeypatch.setattr(curv, "curvature_invariants", counted)
    reports = checks.run_checks(ctx)
    assert len(calls) == 1
    assert sum("preset_reconstruction" in rep.residuals for rep in reports) == 2


def test_outside_w1_gates_structure_parallelism_and_curvature_transfer():
    # P rotates in the x1-x3 plane by x1*x3: a valid structure whose F is
    # outside W1, where the natural family does not keep P parallel.
    ctx = context("rotating_structure_outside_w1_4d")
    assert ctx.class_report.label == "outside_W1" and not ctx.in_w1
    reports = checks.check_natural_connection(ctx)
    for cp, report in zip(ctx.connections, reports):
        assert report.status == "pass", report.name
        assert "structure_parallel" not in report.residuals
        assert f"structure parallelism skipped: {checks.IN_W1_GATE}" in report.notes
        for key in ("torsion_match", "metric_parallel", "torsion_p_identity"):
            assert report.residuals[key] < 1e-12, (report.name, key)
        assert ctx.connection(cp).structure_parallel_residual() > 0.5
    for report in checks.check_curvature_relation(ctx):
        assert report.status == "skipped"
        assert report.skip_reason == checks.IN_W1_GATE


@pytest.mark.parametrize("eps", ["1e-5", "1e-4"])
def test_dim4_reconstruction_skips_a_germ_just_outside_w1(eps):
    # conformal_w1_mixed_4d's germ with g_11 times (1 + eps x3): outside W1,
    # where R'(D) still passes the P-tensor gate, but the R -> R' transfer
    # that dim4_reconstruction reads is derived on W1 only.
    e = "exp(2*x1*x3)"
    metric = [[e if i == j else "0" for j in range(4)] for i in range(4)]
    metric[0][0] = f"{e}*(1 + {eps}*x3)"
    structure = [["0"] * 4 for _ in range(4)]
    structure[0][0] = structure[1][1] = "1"
    structure[2][2] = structure[3][3] = "-1"
    scenario = load_scenario({"germ": {"dim": 4, "metric": metric, "structure": structure}})
    reports = {report.name: report for report in run_scenario(scenario)}
    assert "label=outside_W1" in reports["classification"].notes
    assert [name for name, report in reports.items() if report.status == "fail"] == []
    report = reports["dim4_reconstruction[D]"]
    assert report.hypothesis_flags["r_prime_p_tensor"]
    assert (report.status, report.skip_reason) == ("skipped", checks.IN_W1_GATE)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_run_checks_builds_one_frame(name, monkeypatch):
    # Every check, structure and levi_civita included, reads the base frame.
    orders = count_frames(monkeypatch)
    checks.run_checks(context(name))
    assert orders == [checks.BASE_ORDER]


# The residuals that take the Hessians of tau' and tau*'.
HESSIAN_RESIDUALS = {"ratio_form_closed", "delta_form_closed", "ln_tau_form_closed",
                     "d_theta_match", "d_theta_p_match", "difference_form_closed",
                     "sum_form_closed", "tau_form_closed"}
# How many times each scenario builds the frame's trace pieces, where it is pinned.
TRACE_PIECE_BUILDS = {"flat_product_4d": 0, "conformal_w1_mixed_4d": 0,
                      "conformal_w1_separable_6d": 1}


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_hessians_come_from_trace_pieces_built_on_demand(name, monkeypatch):
    # No connection builds a Gamma' above KEPT_ORDER + 1, so no R' above
    # KEPT_ORDER; the frame builds its trace pieces once, shared by every
    # connection, and only when some report takes a Hessian.
    orders, curvature_of = [], germs._curvature_of
    monkeypatch.setattr(germs, "_curvature_of",
                        lambda gamma: orders.append(gamma.order) or curvature_of(gamma))
    built = count_builds(monkeypatch, germs.GermFrame, "trace_pieces")
    reports = checks.run_checks(context(name))
    assert max(orders) == KEPT_ORDER + 1
    readers = [report.name for report in reports if HESSIAN_RESIDUALS & report.residuals.keys()]
    assert len(built) == (1 if readers else 0), readers
    assert len(built) == TRACE_PIECE_BUILDS.get(name, len(built))
    if name == "conformal_w1_separable_6d":
        assert len(readers) == 2


def test_a_non_finite_hessian_trace_is_the_named_curvature_error():
    # Like an overflowing R', a trace piece that is not finite stops the run
    # with the R' error naming the connection and the point: no NaN residuals,
    # no numpy warning.  The top level of g^jk Gamma^a_jk enters only the
    # Hessian level, through d_a gamma^a.
    ctx = context("conformal_w1_separable_6d")
    raised, traced, sigma, g_dq = ctx.frame.trace_pieces
    top = (np.full_like(traced.data[-1], np.inf),)
    ctx.frame.trace_pieces = (raised, JetTensor(traced.data[:-1] + top, traced.dim), sigma, g_dq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError, match=r"^curvature R' of connection \S+ not finite "
                                                  r"at point \(0\.1, 0\.2, "):
            checks.run_checks(ctx)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_structure_and_levi_civita_read_no_seed(name):
    # Both read jets at the base point, not seeded sample points, and every
    # bundled germ's residuals sit at rounding level.
    scenario = load_bundled_scenario(name)
    runs = [[report.residuals for check in (checks.check_structure, checks.check_levi_civita)
             for report in check(scenario.context(seed=seed))] for seed in (0, 7)]
    assert runs[0] == runs[1]
    assert max(value for residuals in runs[0] for value in residuals.values()) < 1e-14


def test_structure_fails_on_a_p_compatible_only_at_the_base_point():
    # P = diag(1, 1, -1, -1) + (x1 - 0.1) E_13 is an involution of trace 0
    # everywhere, but g-compatible only where x1 = 0.1, as at the base point:
    # d_1 (P^T P)_13 = d_1 (P^T P)_31 = 1, and |g| = 2 divides their norm.
    identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    structure = [row[:] for row in identity]
    structure[2][2] = structure[3][3] = "-1"
    structure[0][2] = "x1 - 0.1"
    ctx = ScenarioContext(germ=ChartGerm.from_strings(4, identity, structure))
    assert max(ctx.frame.structure.invariant_residuals().values()) == 0.0
    [report] = checks.check_structure(ctx)
    assert report.status == "fail"
    assert set(report.failures()) == {"compatibility"}
    assert report.residuals["compatibility"] == pytest.approx(np.sqrt(2.0) / 2, rel=1e-15)


def test_structure_and_levi_civita_fail_on_grids_valid_only_at_the_base_point():
    # g_12 = x1 - 0.1 with g_21 = 0: g is symmetric only where x1 = 0.1, so
    # d_1 (g - g^T) and Gamma - Gamma^T are 1 on two entries each, and
    # P = diag(1 + (x1 - 0.1), 1, -1, -1) has d_1 trace P = 1 there.
    metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    metric[0][1] = "x1 - 0.1"
    structure = [["0"] * 4 for _ in range(4)]
    for i, entry in enumerate(("1 + (x1 - 0.1)", "1", "-1", "-1")):
        structure[i][i] = entry
    ctx = ScenarioContext(germ=ChartGerm.from_strings(4, metric, structure))
    [report] = checks.check_structure(ctx)
    assert {"g_symmetry", "trace_p"} <= set(report.failures())
    assert report.residuals["g_symmetry"] == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert report.residuals["trace_p"] == 1.0
    [report] = checks.check_levi_civita(ctx)
    assert "torsion_free" in report.failures()
    assert report.residuals["torsion_free"] == pytest.approx(np.sqrt(0.5), rel=1e-15)


def per_sample_pointwise_algebra(ps, seed):
    """The psi/pi residuals of ``pointwise_algebra``, one sample at a time."""
    worst_sym = worst_identity = 0.0
    min_asym = np.inf
    for k in range(seed * 100, seed * 100 + 5):
        s_sym = random_symmetric2(ps.dim, k)
        worst_sym = max(worst_sym, *curv.curvature_like_residuals(curv.psi1(ps, s_sym)).values())
        s_any = random_tensor2(ps.dim, k + 7)
        lhs = einsum("ijab,ak,bl->ijkl", curv.psi2(ps, s_any), ps.p, ps.p)
        worst_identity = max(worst_identity, frob(lhs - curv.psi1(ps, s_any)))
        if frob(s_any - s_any.T) > 1e-6:
            min_asym = min(min_asym,
                           max(curv.curvature_like_residuals(curv.psi1(ps, s_any)).values()))
    return worst_sym, worst_identity, min_asym


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("name", ["conformal_w1_mixed_4d", "conformal_w1_separable_6d"])
def test_batched_sample_checks_equal_per_sample_loops(name, seed):
    ctx = load_bundled_scenario(name).context(seed=seed)
    ps = ctx.frame.structure
    [algebra] = checks.check_pointwise_algebra(ctx)
    worst_sym, worst_identity, min_asym = per_sample_pointwise_algebra(ps, seed)
    assert abs(algebra.residuals["psi1_symmetric_curvature_like"] - worst_sym) <= 1e-15
    assert abs(algebra.residuals["psi2_p_twist_identity"] - worst_identity) <= 1e-15
    assert min_asym > 1e-6 and "psi1_asymmetric_detected" not in algebra.residuals
    [trip] = checks.check_dim4_round_trip(ctx)
    if ps.dim == 4:
        loop = max(curv.decompose_dim4(ps, curv.random_p_tensor(ps, seed * 1000 + k))[2]
                   for k in range(5))
        assert abs(trip.residuals["round_trip"] - loop) <= 1e-15
    else:
        assert trip.status == "skipped"


def test_pointwise_algebra_fails_a_wrong_psi1(monkeypatch):
    # pi1 is psi1(g) / 2, so psi1(g) = 2 pi1 is checked against the closed
    # form of pi1: a psi1 that drops its S(y,z) g(x,w) - S(x,z) g(y,w) half
    # gives pi1 itself, off by |pi1| = sqrt(24) for the flat metric of dim 4.
    def half_psi1(ps, s):
        x = ps.g[:, :, None] * s[..., :, None, None, :]
        return x - x.swapaxes(-4, -3)

    monkeypatch.setattr(curv, "psi1", half_psi1)
    [report] = checks.check_pointwise_algebra(context("flat_product_4d"))
    assert "psi1_g_is_two_pi1" in report.failures()
    assert report.residuals["psi1_g_is_two_pi1"] == pytest.approx(np.sqrt(24.0), rel=1e-15)


def test_per_connection_turns_a_skip_into_a_named_skipped_report(monkeypatch):
    ctx = context("conformal_w1_separable_4d")
    monkeypatch.setitem(checks.RESIDUALS, "demo", {"r": None})

    def body(ctx, report, cf):
        report.residuals["r"] = 0.0
        report.scalars["s"] = 1.0
        checks.requires(cf.params.case(ctx.germ.n) == "D", "not D")

    reports = checks.drive(ctx, "demo", 1e-10, body, per_connection=True)
    assert [r.name for r in reports] == ["demo[D]", "demo[D_tilde]", "demo[lam=1,mu=0]"]
    assert [r.status for r in reports] == ["pass", "skipped", "skipped"]
    for report in reports[1:]:
        assert report.skip_reason == "not D"
        assert report.residuals == {} and report.scalars == {"s": 1.0}


def test_run_checks_calls_the_current_checks_entry(monkeypatch):
    # perfbench/tracing.py times each check by swapping its CHECKS entry.
    ctx = context("flat_product_4d")
    fn, description = checks.CHECKS["structure"]
    calls = []

    def wrapped(ctx):
        calls.append(ctx)
        return fn(ctx)

    monkeypatch.setitem(checks.CHECKS, "structure", (wrapped, description))
    assert [r.name for r in checks.run_checks(ctx, ["structure"])] == ["structure"]
    checks.run_checks(ctx)
    assert calls == [ctx, ctx]


def test_run_checks_runs_every_check_only_when_names_is_none():
    ctx = context("flat_product_4d")
    assert checks.run_checks(ctx, []) == []
    assert {r.name.split("[")[0] for r in checks.run_checks(ctx)} == set(checks.CHECKS)


def test_drive_raises_on_a_residual_key_its_check_does_not_declare(monkeypatch):
    ctx = context("flat_product_4d")

    def body(ctx, report):
        report.residuals["torsion_free"] = 0.0
        report.residuals["torsion_fre"] = 0.0

    run = lambda ctx: checks.drive(ctx, "levi_civita", checks.TOL_ALGEBRA, body)
    monkeypatch.setitem(checks.CHECKS, "levi_civita", (run, "misspelt residual"))
    with pytest.raises(RuntimeError, match=r"levi_civita wrote undeclared residuals \['torsion_fre"):
        checks.run_checks(ctx, ["levi_civita"])


def test_natural_connection_declares_its_per_key_tolerances():
    reports = checks.check_natural_connection(context("conformal_w1_separable_4d"))
    own = {"torsion_match": 1e-12, "torsion_p_identity": 1e-12, "structure_parallel": 1e-8}
    assert {k: v for k, v in checks.RESIDUALS["natural_connection"].items() if v} == own
    assert all(r.tolerances == own for r in reports)


def test_degenerate_scalar_curvatures_skip_with_one_reason():
    # On this germ R'(D) is a P-tensor with tau' = tau*' = 0.
    reports = {report.name: report for report in run_theorem_checks(context(
        "conformal_w1_separable_4d"))}
    for name in ("lee_recovery[D]", "tau_form_closedness[D]"):
        assert reports[name].status == "skipped"
        assert reports[name].skip_reason == checks.DEGENERATE_SCALARS


# Valid germs on which some report fails today: rounding beats an absolute
# tolerance.  Each pin asserts the rule that every report passes or skips.
LIVE_FAILS = {
    "large_lambda": (  # natural_connection, curvature_relation, p_tensor_cases, second_bianchi
        {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        [{"lambda": 1e5, "mu": 0}]),
    "large_curvature_scale": (  # scalar_system[D] system_direct 1.9e-5; g(p) = 1e-4 I
        {"generator": "conformal_flat_product", "n": 2, "u": "ln(x1 - 0.09)"},
        ["D", "D_tilde", {"lambda": 1.0, "mu": 0.0}]),
}


@pytest.mark.xfail(strict=True, reason="absolute residuals fail on these valid germs")
@pytest.mark.parametrize("name", sorted(LIVE_FAILS))
def test_valid_germs_pass_or_skip_every_report(name):
    germ, connections = LIVE_FAILS[name]
    reports = run_scenario(load_scenario({"name": name, "germ": germ,
                                          "connections": connections}))
    assert [report.name for report in reports if report.status == "fail"] == []
