import json
import os
import subprocess
import sys

import pytest

from apmlab.report import CheckReport, emit_report, exit_code, load_report, summarize
from apmlab.scenarios import (
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)

BUNDLED = [
    "flat_product_4d",
    "conformal_w6_4d",
    "conformal_w3_4d",
    "conformal_w1_separable_4d",
    "conformal_w1_mixed_4d",
    "conformal_w1_separable_6d",
]


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "apmlab", *args], capture_output=True, text=True, check=False, **kwargs
    )


def test_bundled_scenario_names():
    assert set(BUNDLED) == set(bundled_scenario_names())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_have_no_failures(name):
    scenario = load_bundled_scenario(name)
    reports = run_scenario(scenario)
    assert summarize(reports)["failed"] == 0
    assert exit_code(reports) == 0
    # skips always carry a reason
    for report in reports:
        if report.status == "skipped":
            assert report.skip_reason


def test_expect_class_mismatch_fails():
    doc = {
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1"},
        "checks": ["classification"],
        "expect_class": "W3bar",  # actually W6bar
    }
    reports = run_scenario(load_scenario(doc))
    assert exit_code(reports) == 1


def test_scenario_schema_errors_carry_paths():
    with pytest.raises(ScenarioError, match=r"\$\.germ"):
        load_scenario({})
    with pytest.raises(ScenarioError, match=r"\$\.germ\.generator"):
        load_scenario({"germ": {"generator": "nope"}})
    with pytest.raises(ScenarioError, match=r"\$\.checks\[0\]"):
        load_scenario(
            {"germ": {"generator": "flat_product", "n": 2}, "checks": ["missing_check"]}
        )
    with pytest.raises(ScenarioError, match=r"\$\.connections\[1\]"):
        load_scenario(
            {"germ": {"generator": "flat_product", "n": 2}, "connections": ["D", "bogus"]}
        )
    with pytest.raises(ScenarioError, match="expression error"):
        load_scenario({"germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1*("}})


def test_reports_deterministic_across_runs():
    scenario = load_bundled_scenario("conformal_w1_separable_4d")
    a = [r.as_dict() for r in run_scenario(scenario)]
    b = [r.as_dict() for r in run_scenario(scenario)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_emit_report_round_trip(tmp_path):
    reports = [
        CheckReport(name="alpha", tol=1e-9, residuals={"r": 1e-12}),
        CheckReport(name="beta", tol=1e-9).skip("hypothesis violated"),
    ]
    path = tmp_path / "report.json"
    doc = emit_report(reports, str(path), scenario="demo", timestamp="2026-01-01T00:00:00Z")
    loaded = load_report(str(path))
    assert loaded == doc
    assert loaded["summary"] == {"passed": 1, "failed": 0, "skipped": 1}
    assert loaded["checks"][1]["skip_reason"] == "hypothesis violated"


def test_emit_empty_report(tmp_path):
    path = tmp_path / "empty.json"
    doc = emit_report([], str(path), scenario="empty", timestamp="2026-01-01T00:00:00Z")
    assert doc["checks"] == []
    assert load_report(str(path))["summary"]["failed"] == 0


def test_report_bytes_stable_with_pinned_epoch(tmp_path):
    env = dict(os.environ, SOURCE_DATE_EPOCH="1700000000")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        proc = run_cli(
            "check", "--scenario", "flat_product_4d", "--out", str(out), env=env
        )
        assert proc.returncode == 0, proc.stderr
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_check_pass_and_output_lines():
    proc = run_cli("check", "--scenario", "conformal_w1_mixed_4d")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS" in proc.stdout
    assert "failed" in proc.stdout.splitlines()[-1]


def test_cli_check_writes_report(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("check", "--scenario", "flat_product_4d", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["scenario"] == "flat_product_4d"
    assert doc["summary"]["failed"] == 0
    assert {c["status"] for c in doc["checks"]} <= {"pass", "skipped"}


def test_cli_malformed_expression_exits_2(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps({"germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1*(x2"}})
    )
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert "expression error" in proc.stderr
    assert "offset" in proc.stderr


def test_cli_unknown_scenario_exits_2():
    proc = run_cli("check", "--scenario", "no_such_scenario")
    assert proc.returncode == 2
    assert "unknown bundled scenario" in proc.stderr


def test_cli_classify(tmp_path):
    germ_file = tmp_path / "germ.json"
    germ_file.write_text(
        json.dumps({"generator": "conformal_flat_product", "n": 2, "u": "x3 + x4^2"})
    )
    proc = run_cli("classify", "--germ", str(germ_file), "--point", "0.1,0.2,0.3,0.4")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["label"] == "W3bar"
    assert set(payload["residuals"]) == {"W0", "W1", "W3bar", "W6bar"}


def test_cli_classify_rejects_wrong_point_length(tmp_path):
    germ_file = tmp_path / "germ.json"
    germ_file.write_text(json.dumps({"generator": "flat_product", "n": 2}))
    proc = run_cli("classify", "--germ", str(germ_file), "--point", "0.1,0.2")
    assert proc.returncode == 2


def test_cli_decompose4(tmp_path):
    from apmlab.curvature import pi_tensors
    from apmlab.tensors import canonical_structure

    ps = canonical_structure(4)
    pi1, pi2, pi3 = pi_tensors(ps)
    tensor = -(pi1 + pi2) - 2.0 * pi3
    doc = {"dim": 4, "components": tensor.tolist()}
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps(doc))
    proc = run_cli("decompose4", "--tensor", str(tensor_file))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert abs(payload["tau"] + 8.0) < 1e-10
    assert abs(payload["tau_star"] + 16.0) < 1e-10
    assert payload["reconstruction_residual"] < 1e-10
    assert payload["is_p_tensor"] is True


def test_cli_decompose4_explicit_structure(tmp_path):
    from apmlab.curvature import pi_tensors
    from apmlab.tensors import split_structure

    ps = split_structure(4)
    pi1, pi2, _ = pi_tensors(ps)
    doc = {
        "dim": 4,
        "components": (3.0 * (pi1 + pi2)).tolist(),
        "g": ps.g.tolist(),
        "p": ps.p.tolist(),
    }
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps(doc))
    payload = json.loads(run_cli("decompose4", "--tensor", str(tensor_file)).stdout)
    assert abs(payload["tau"] - 24.0) < 1e-10
    assert payload["reconstruction_residual"] < 1e-10


def test_cli_list_checks():
    proc = run_cli("list-checks")
    assert proc.returncode == 0
    for token in ("structure", "lee_recovery", "dim4_traces", "flat_product_4d"):
        assert token in proc.stdout


def test_golden_report_snapshot(tmp_path):
    """Pinned snapshot of the flat-product report with a fixed timestamp."""
    env = dict(os.environ, SOURCE_DATE_EPOCH="0")
    out = tmp_path / "flat.json"
    proc = run_cli("check", "--scenario", "flat_product_4d", "--out", str(out), env=env)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["timestamp"] == "1970-01-01T00:00:00Z"
    golden = os.path.join(os.path.dirname(__file__), "golden", "flat_product_4d.json")
    with open(golden) as fh:
        expected = json.load(fh)
    assert doc == expected


def test_tolerance_overrides_apply():
    doc = {
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        "checks": ["lee_closedness"],
        "tolerances": {"lee_closedness": {"d_theta_vs_fd": 1e-30}},
    }
    reports = run_scenario(load_scenario(doc))
    assert exit_code(reports) == 1  # impossible tolerance now fails


def test_tol_scale_loosens():
    doc = {
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        "checks": ["lee_closedness"],
        "tolerances": {"lee_closedness": {"d_theta_vs_fd": 1e-30}},
    }
    reports = run_scenario(load_scenario(doc), tol_scale=1e25)
    assert exit_code(reports) == 0


def test_explicit_component_scenario():
    doc = {
        "germ": {
            "dim": 4,
            "metric": [
                ["exp(2*x1)", "0", "0", "0"],
                ["0", "exp(2*x1)", "0", "0"],
                ["0", "0", "exp(2*x1)", "0"],
                ["0", "0", "0", "exp(2*x1)"],
            ],
            "structure": [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "-1", "0"],
                ["0", "0", "0", "-1"],
            ],
        },
        "checks": ["structure", "classification", "levi_civita"],
        "expect_class": "W6bar",
    }
    reports = run_scenario(load_scenario(doc))
    assert exit_code(reports) == 0


def test_scalar_system_delta_consistent_with_scalars():
    scenario = load_bundled_scenario("conformal_w1_separable_4d")
    for report in run_scenario(scenario):
        if report.name.startswith("scalar_system") and report.status == "pass":
            s = report.scalars
            assert abs(s["delta"] - (s["tau_star_prime"] ** 2 - s["tau_prime"] ** 2)) < 1e-9


def test_seed_determinism_of_run_scenario():
    scenario = load_bundled_scenario("conformal_w1_separable_4d")
    a = [r.as_dict() for r in run_scenario(scenario, seed=7)]
    b = [r.as_dict() for r in run_scenario(scenario, seed=7)]
    c = [r.as_dict() for r in run_scenario(scenario, seed=8)]
    assert a == b
    # different seed still passes but may change sampled residuals
    assert all(x["status"] != "fail" for x in c)


def test_unknown_scenario_keys_are_ignored():
    doc = {"germ": {"generator": "flat_product", "n": 2}, "checks": ["structure"],
           "fd_step": 1e-4}
    assert exit_code(run_scenario(load_scenario(doc))) == 0
