"""Negative controls: every oracle accepts apmlab's output and rejects a wrong one.

    python3 -m pytest perfbench/test_controls.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from apmlab import cli, curvature, tensors  # noqa: E402
from run import Apmlab  # noqa: E402


# ---------------------------------------------------------------------------
# the hand-derived inputs themselves


def _conformal_cases():
    cases = list(inputs.BUNDLED.items()) + list(inputs.SWEEP.items())
    return [(name, c) for name, c in cases if isinstance(c, inputs.Conformal) and c.u]


@pytest.mark.parametrize("name,case", _conformal_cases(), ids=lambda v: getattr(v, "u", v))
def test_closed_forms_match_central_differences(name, case):
    u = inputs.python_expr(case.u, case.dim)
    rng = np.random.default_rng(0)
    h = 1e-3
    for _ in range(3):
        x = inputs.base_point(case.dim) + rng.uniform(-0.05, 0.05, case.dim)
        grad = np.zeros(case.dim)
        lap = 0.0
        for k in range(case.dim):
            e = np.zeros(case.dim)
            e[k] = h
            grad[k] = (-u(x + 2 * e) + 8 * u(x + e) - 8 * u(x - e) + u(x - 2 * e)) / (12 * h)
            lap += (u(x + e) - 2 * u(x) + u(x - e)) / h**2
        assert np.allclose(case.grad(x), grad, atol=1e-9), name
        assert abs(case.lap(x) - lap) < 1e-5, name


def test_bundled_table_matches_scenario_files():
    for name, case in inputs.BUNDLED.items():
        with open(os.path.join(ROOT, "src", "apmlab", "scenarios", f"{name}.json")) as fh:
            germ = json.load(fh)["germ"]
        assert germ["n"] == case.n
        assert germ.get("u") == case.u


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "pass_s", "d4_ms", "d6_ms", "peak_rss_mb"}


# ---------------------------------------------------------------------------
# bundled scenario reports


@pytest.fixture(scope="module")
def w1_report(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("report") / "report.json")
    code = cli.main(["check", "--scenario", "conformal_w1_mixed_4d", "--out", path])
    with open(path) as fh:
        return json.load(fh), code


def _report_refs(name):
    case = inputs.BUNDLED[name]
    x = inputs.base_point(case.dim)
    return case, x, inputs.python_expr(case.u, case.dim)(x)


def _edit(doc, check, fn):
    doc = json.loads(json.dumps(doc))
    fn(next(c for c in doc["checks"] if c["name"] == check))
    return doc


def test_report_oracle_accepts_apmlab(w1_report):
    doc, code = w1_report
    assert oracles.check_report(doc, code, *_report_refs("conformal_w1_mixed_4d")) == []


@pytest.mark.parametrize("control", [
    "theta_norm", "tau_sign", "label", "summary", "skip_reason", "exit_code", "other_germ",
])
def test_report_oracle_rejects(w1_report, control):
    doc, code = w1_report
    refs = _report_refs("conformal_w1_mixed_4d")
    if control == "theta_norm":
        doc = _edit(doc, "classification",
                    lambda c: c["scalars"].update(theta_norm=c["scalars"]["theta_norm"] * 1.001))
    elif control == "tau_sign":
        doc = _edit(doc, "curvature_like", lambda c: c["scalars"].update(tau=-c["scalars"]["tau"]))
    elif control == "label":
        doc = _edit(doc, "classification", lambda c: c.update(notes=["label=W6bar"]))
    elif control == "summary":
        doc = dict(doc, summary=dict(doc["summary"], failed=1))
    elif control == "skip_reason":
        doc = _edit(doc, "lee_recovery[D]", lambda c: c.update(status="skipped", skip_reason=""))
    elif control == "exit_code":
        code = 1
    else:
        refs = _report_refs("conformal_w1_separable_4d")
    assert oracles.check_report(doc, code, *refs)


# ---------------------------------------------------------------------------
# order-3 frames


def _frame(label: str):
    sweep = workloads.FrameSweep(seed=0)
    sweep.setup(Apmlab())
    _, case, refs = next(item for item in sweep.cases if item[0] == label)
    frame, cfs = sweep._run(sweep.germs[label], refs["x"], sweep.connections[case.n])
    out = oracles.FrameOut(frame.christoffel.values.copy(), frame.curvature.values.copy(),
                           frame.theta.values.copy())
    for cf in cfs:
        out.connections.append(oracles.ConnectionOut(
            cf.params.lam, cf.params.mu, cf.gamma.values.copy(), cf.curvature.values.copy(),
            float(cf.tau.values), float(cf.tau_star.values)))
    return out, refs


@pytest.mark.parametrize("label", list(inputs.SWEEP))
def test_frame_oracle_accepts_apmlab(label):
    out, refs = _frame(label)
    assert oracles.check_frame(out, **refs) == []


def _four_form(dim: int) -> np.ndarray:
    """A totally antisymmetric tensor: pair-skew and pair-symmetric, but not Bianchi."""
    t = np.zeros((dim,) * 4)
    for perm in itertools.permutations(range(4)):
        sign = np.linalg.det(np.eye(4)[list(perm)])
        t[perm] = sign
    return t


@pytest.mark.parametrize("label", ["d4_exp_sin", "d6_grid"])
@pytest.mark.parametrize("control", [
    "theta_sign", "christoffel", "bianchi", "torsion_coefficient", "metric_parallel", "tau_prime",
])
def test_frame_oracle_rejects(label, control):
    out, refs = _frame(label)
    dim = out.theta.shape[0]
    if control == "theta_sign":
        out.theta = -out.theta
    elif control == "christoffel":
        out.christoffel[0, 1, 2] += 1e-5
        out.christoffel[0, 2, 1] += 1e-5
    elif control == "bianchi":
        out.curvature = out.curvature + 1e-3 * _four_form(dim)
    elif control == "torsion_coefficient":
        # D's Christoffel symbols reported for the (lambda, mu) = (1, 0) connection.
        out.connections[2].gamma = out.connections[0].gamma
    elif control == "metric_parallel":
        gam = out.connections[0].gamma
        sym = np.zeros_like(gam)
        sym[0, 1, 1] = 1e-4
        out.connections[0].gamma = gam + sym
    else:
        out.connections[1].tau += 1e-6
    assert oracles.check_frame(out, **refs)


# ---------------------------------------------------------------------------
# P-tensors


def _lab(dim: int, seed: int = 5, factor: float = 1.3):
    ps = tensors.canonical_structure(dim, factor)
    return ps, curvature.random_p_tensor(ps, seed)


@pytest.mark.parametrize("dim", [4, 6])
def test_p_tensor_oracle_accepts_apmlab(dim):
    ps, l = _lab(dim)
    assert oracles.check_p_tensor(ps.g, ps.p, l) == []


@pytest.mark.parametrize("dim", [4, 6])
def test_p_tensor_oracle_rejects_non_p_component(dim):
    ps, l = _lab(dim)
    other = curvature.random_curvature_like(dim, 11)  # curvature-like, not a P-tensor
    mixed = l + 1e-4 * other
    mixed /= oracles.frob(mixed)
    problems = oracles.check_p_tensor(ps.g, ps.p, mixed)
    assert any(p.startswith("p_invariance") for p in problems)
    assert not any(p.startswith(("first_", "last_")) for p in problems)


def test_p_tensor_oracle_rejects_broken_symmetries():
    ps, l = _lab(6)
    noisy = l + 1e-6 * np.random.default_rng(1).uniform(-1, 1, l.shape)
    noisy /= oracles.frob(noisy)
    problems = oracles.check_p_tensor(ps.g, ps.p, noisy)
    assert any(p.startswith("first_bianchi") for p in problems)


def test_p_tensor_oracle_rejects_wrong_norm():
    ps, l = _lab(4)
    assert oracles.check_p_tensor(ps.g, ps.p, 1.001 * l)


def test_lab_outputs_oracle():
    ps, l = _lab(4)
    inv = curvature.curvature_invariants(ps, l)
    good = dict(verdicts={"is_p_tensor": True}, invariants=(inv.tau, inv.tau_star),
                decomposition=curvature.decompose_dim4(ps, l))
    assert oracles.check_lab_outputs(ps.g, ps.p, l, **good) == []
    swapped = dict(good, invariants=(inv.tau_star, inv.tau))
    assert oracles.check_lab_outputs(ps.g, ps.p, l, **swapped)
    refused = dict(good, verdicts={"is_p_tensor": False})
    assert oracles.check_lab_outputs(ps.g, ps.p, l, **refused)
    tau, tau_star, _ = good["decomposition"]
    residual = dict(good, decomposition=(tau, tau_star, 1e-6))
    assert oracles.check_lab_outputs(ps.g, ps.p, l, **residual)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_counts_repeat_and_originals_return():
    apm = Apmlab()
    originals = (apm.germs.ChartGerm.frame, apm.germs.GermFrame.__dict__["g_inv"],
                 apm.jetfields.jt_einsum, apm.curvature.random_p_tensor, dict(apm.checks.CHECKS))
    sweep = workloads.FrameSweep(seed=3)
    sweep.setup(apm)
    op = sweep.ops()[0]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install(apm)
        try:
            op.run()
        finally:
            tracer.remove()
        counts.append(dict(tracer.counts))
        assert tracer.stage_s["jetfields.inverse_ms.d4"] > 0
    assert counts[0] == counts[1]
    assert counts[0]["germs.frames.o3"] == 1
    assert counts[0]["jetfields.einsum_calls.d4"] > 0
    assert (apm.germs.ChartGerm.frame, apm.germs.GermFrame.__dict__["g_inv"],
            apm.jetfields.jt_einsum, apm.curvature.random_p_tensor,
            dict(apm.checks.CHECKS)) == originals
