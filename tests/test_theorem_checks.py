"""Lee-form theorem checks on exact jets: residual levels, routing and skips."""

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
from apmlab.germs import ChartGerm, ConnectionFrame, ConnectionParams
from apmlab.jetfields import JetTensor
from apmlab.scenarios import bundled_scenario_names, load_bundled_scenario, run_scenario

THEOREM_CHECKS = (check_lee_recovery, check_tau_form_closedness, check_eigenclass_lee_recovery)


def context(name: str) -> ScenarioContext:
    return load_bundled_scenario(name).context()


def run_theorem_checks(ctx: ScenarioContext):
    return [report for check in THEOREM_CHECKS for report in check(ctx)]


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_theorem_checks_use_no_finite_differences(name, monkeypatch):
    # A full run takes every derivative from jets: it builds the base frame
    # and the ten order-1 neighbourhood frames, and differences nothing.
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences inside a check")

    monkeypatch.setattr(checks, "d_scalar", forbidden)
    monkeypatch.setattr(checks, "one_form_exterior_fd", forbidden)
    orders = []
    frame = ChartGerm.frame

    def counted(germ, point=None, order=3):
        orders.append(order)
        return frame(germ, point, order)

    monkeypatch.setattr(ChartGerm, "frame", counted)
    ctx = context(name)
    reports = checks.run_checks(ctx)
    assert sorted(orders) == [1] * 10 + [checks.BASE_ORDER]
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


def twisted_product_context(alpha: str, beta: str) -> ScenarioContext:
    """g = e^{2 alpha} (dx1^2 + dx2^2) + e^{2 beta} (dx3^2 + dx4^2), P = diag(1, 1, -1, -1)."""
    a, b = f"exp(2*({alpha}))", f"exp(2*({beta}))"
    metric = [[a, "0", "0", "0"], ["0", a, "0", "0"], ["0", "0", b, "0"], ["0", "0", "0", b]]
    structure = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                 ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
    germ = ChartGerm.from_strings(4, metric, structure)
    return ScenarioContext(germ=germ, connections=[ConnectionParams.d()])


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
    reports = {report.name: report for report in run_theorem_checks(ctx)}
    for label in ("D_tilde", "lam=1,mu=0"):
        for name in ("tau_form_closedness", "lee_recovery"):
            report = reports[f"{name}[{label}]"]
            assert report.status == "skipped"
            assert report.skip_reason == "singular scalar combination"


def test_ln_floor_raises_the_singular_error():
    with pytest.raises(checks.SingularScalarError, match="singular scalar combination"):
        checks._ln_abs(JetTensor.constant(-5e-11, 4, 2))
    jet = checks._ln_abs(JetTensor.constant(-2.0, 4, 2))
    assert abs(float(jet.values) - np.log(2.0)) < 1e-15


def connection_builds(monkeypatch, name: str) -> list:
    """Params of each computation of ConnectionFrame.<name> in one scenario run."""
    original = ConnectionFrame.__dict__[name].func
    built = []

    def counted(cf):
        built.append(cf.params)
        return original(cf)

    prop = cached_property(counted)
    prop.__set_name__(ConnectionFrame, name)
    monkeypatch.setattr(ConnectionFrame, name, prop)
    run_scenario(load_bundled_scenario("conformal_w1_separable_4d"))
    return built


def test_scenario_builds_each_connection_curvature_once(monkeypatch):
    # The one chain T -> K -> Gamma' -> R' is the only producer of R'.
    built = connection_builds(monkeypatch, "_chain")
    assert len(built) == 3 and len(set(built)) == 3


def test_scenario_builds_one_torsion_chain_per_connection(monkeypatch):
    # No second, shorter torsion chain: one T and one K per connection, and
    # one curvature of a connection per connection besides the Levi-Civita R.
    calls = {"torsion": [], "contorsion": 0, "curvature": 0}
    torsion, contorsion_of, curvature_of = (
        ConnectionFrame._torsion, germs._contorsion_of, germs._curvature_of)

    def counted_torsion(cf):
        calls["torsion"].append(cf.params)
        return torsion(cf)

    def counted(key, fn):
        def run(jet):
            calls[key] += 1
            return fn(jet)
        return run

    monkeypatch.setattr(ConnectionFrame, "_torsion", counted_torsion)
    monkeypatch.setattr(germs, "_contorsion_of", counted("contorsion", contorsion_of))
    monkeypatch.setattr(germs, "_curvature_of", counted("curvature", curvature_of))
    run_scenario(load_bundled_scenario("conformal_w1_separable_4d"))
    assert len(calls["torsion"]) == 3 and len(set(calls["torsion"])) == 3
    assert calls["contorsion"] == 3
    assert calls["curvature"] == 1 + 3


def test_scenario_gates_each_connection_p_tensor_once(monkeypatch):
    # Seven checks read "R' is a Riemannian P-tensor"; it is computed once.
    built = connection_builds(monkeypatch, "p_tensor_residual")
    assert len(built) == 3 and len(set(built)) == 3


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
        for key in ("torsion_match", "metric_parallel", "contorsion_skew", "torsion_p_identity"):
            assert report.residuals[key] < 1e-12, (report.name, key)
        assert ctx.connection(cp).structure_parallel_residual() > 0.5
    for report in checks.check_curvature_relation(ctx):
        assert report.status == "skipped"
        assert report.skip_reason == checks.IN_W1_GATE


def test_levi_civita_builds_one_order_1_frame_per_sample_point(monkeypatch):
    # Gamma and grad g read first derivatives of g only; the structure
    # invariants read the same ten neighbourhood frames.
    ctx = context("conformal_w1_separable_4d")
    orders = []
    frame = ChartGerm.frame

    def counted(germ, point=None, order=3):
        orders.append(order)
        return frame(germ, point, order)

    monkeypatch.setattr(ChartGerm, "frame", counted)
    [structure] = checks.check_structure(ctx)
    [report] = checks.check_levi_civita(ctx)
    assert orders == [1] * 10
    assert structure.status == report.status == "pass"


def test_per_connection_turns_a_skip_into_a_named_skipped_report(monkeypatch):
    ctx = context("conformal_w1_separable_4d")
    monkeypatch.setitem(checks.RESIDUALS, "demo", {"r": None})
    assert issubclass(checks.SingularScalarError, checks.Skip)
    assert issubclass(checks.SingularScalarError, ValueError)

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
    own = {"torsion_match": 1e-12, "contorsion_skew": 1e-12, "torsion_p_identity": 1e-12,
           "structure_parallel": 1e-8}
    assert {k: v for k, v in checks.RESIDUALS["natural_connection"].items() if v} == own
    assert all(r.tolerances == own for r in reports)


def test_degenerate_scalar_curvatures_skip_with_one_reason():
    # On this germ R'(D) is a P-tensor with tau' = tau*' = 0.
    reports = {report.name: report for report in run_theorem_checks(context(
        "conformal_w1_separable_4d"))}
    for name in ("lee_recovery[D]", "tau_form_closedness[D]"):
        assert reports[name].status == "skipped"
        assert reports[name].skip_reason == checks.DEGENERATE_SCALARS
