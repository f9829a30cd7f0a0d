"""Lee-form theorem checks on exact jets: residual levels, routing and skips."""

from functools import cached_property

import numpy as np
import pytest

from apmlab import checks
from apmlab.checks import (
    ScenarioContext,
    check_eigenclass_lee_recovery,
    check_lee_recovery,
    check_tau_form_closedness,
)
from apmlab.germs import ChartGerm, ConnectionFrame, ConnectionParams
from apmlab.jetfields import JetTensor
from apmlab.scenarios import load_bundled_scenario, run_scenario

THEOREM_CHECKS = (check_lee_recovery, check_tau_form_closedness, check_eigenclass_lee_recovery)


def context(name: str) -> ScenarioContext:
    return load_bundled_scenario(name).context()


def run_theorem_checks(ctx: ScenarioContext):
    return [report for check in THEOREM_CHECKS for report in check(ctx)]


@pytest.mark.parametrize(
    "name", ["conformal_w1_separable_4d", "conformal_w3_4d", "conformal_w6_4d"]
)
def test_theorem_checks_use_no_finite_differences(name, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences inside a theorem check")

    monkeypatch.setattr(checks, "d_scalar", forbidden)
    monkeypatch.setattr(checks, "one_form_exterior_fd", forbidden)
    orders = []
    frame = ChartGerm.frame

    def counted(germ, point=None, order=3):
        orders.append(order)
        return frame(germ, point, order)

    monkeypatch.setattr(ChartGerm, "frame", counted)
    reports = run_theorem_checks(context(name))
    assert orders == [checks.BASE_ORDER]  # the base frame is the only frame built
    assert all(report.status != "fail" for report in reports)
    for report in reports:
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
        report = reports[f"tau_form_closedness[{label}]"]
        assert report.status == "skipped"
        assert report.skip_reason == "singular scalar combination"
        assert reports[f"lee_recovery[{label}]"].skip_reason == (
            "degenerate scalar curvatures (delta = tau' = 0)"
        )


def test_ln_floor_raises_the_singular_error():
    with pytest.raises(checks.SingularScalarError, match="singular scalar combination"):
        checks._ln_abs(JetTensor.constant(-5e-11, 4, 2))
    jet = checks._ln_abs(JetTensor.constant(-2.0, 4, 2))
    assert abs(float(jet.values) - np.log(2.0)) < 1e-15


def test_scenario_builds_each_connection_curvature_once(monkeypatch):
    original = ConnectionFrame.__dict__["curvature"].func
    built = []

    def counted(cf):
        built.append(cf.params)
        return original(cf)

    prop = cached_property(counted)
    prop.__set_name__(ConnectionFrame, "curvature")
    monkeypatch.setattr(ConnectionFrame, "curvature", prop)
    run_scenario(load_bundled_scenario("conformal_w1_separable_4d"))
    assert len(built) == 3 and len(set(built)) == 3
