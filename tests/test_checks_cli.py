import json
import os
import subprocess
import sys

import numpy as np
import pytest

import apmlab
from apmlab.report import CheckReport, emit_report, exit_code, summarize
from apmlab.scenarios import (
    ScenarioError,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)
from apmlab.tensors import StructureError

BUNDLED = [
    "flat_product_4d",
    "conformal_w6_4d",
    "conformal_w3_4d",
    "conformal_w1_separable_4d",
    "conformal_w1_mixed_4d",
    "conformal_w1_separable_6d",
    "twisted_equal_tau_plus_4d",
    "twisted_equal_tau_minus_4d",
    "rotating_structure_outside_w1_4d",
]


# The directory this apmlab was imported from, so a child interpreter finds
# the same package without an install.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(apmlab.__file__))


def run_cli(*args, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "apmlab", *args], capture_output=True, text=True, check=False, env=env
    )


def test_bundled_scenario_names():
    assert set(BUNDLED) == set(bundled_scenario_names())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_have_no_failures(name):
    scenario = load_bundled_scenario(name)
    reports = run_scenario(scenario)
    assert summarize(reports)["failed"] == 0
    assert exit_code(reports) == 0
    # skips always carry a reason and never a residual
    for report in reports:
        if report.status == "skipped":
            assert report.skip_reason
            assert report.residuals == {}, report.name


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
    alpha = CheckReport(name="alpha", tol=1e-9)
    alpha.residuals["r"] = 1e-12
    reports = [alpha, CheckReport(name="beta", tol=1e-9).skip("hypothesis violated")]
    path = tmp_path / "report.json"
    doc = emit_report(reports, str(path), scenario="demo", timestamp="2026-01-01T00:00:00Z")
    loaded = json.loads(path.read_text())
    assert loaded == doc
    assert loaded["summary"] == {"passed": 1, "failed": 0, "skipped": 1}
    assert loaded["checks"][1]["skip_reason"] == "hypothesis violated"


def test_emit_empty_report(tmp_path):
    path = tmp_path / "empty.json"
    doc = emit_report([], str(path), scenario="empty", timestamp="2026-01-01T00:00:00Z")
    assert doc["checks"] == []
    assert json.loads(path.read_text())["summary"]["failed"] == 0


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


@pytest.mark.parametrize("epoch", ["abc", "1.5", "-1", " 5", "-99999999999999999",
                                   "99999999999999999"])
def test_cli_rejects_a_malformed_source_date_epoch_before_any_check(tmp_path, epoch):
    # "-99999999999999999" used to surface as "cannot write report ...: Value
    # too large", after every check had run.
    out = tmp_path / "r.json"
    env = dict(os.environ, SOURCE_DATE_EPOCH=epoch)
    proc = run_cli("check", "--scenario", "flat_product_4d", "--out", str(out), env=env)
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: SOURCE_DATE_EPOCH: must be a non-negative decimal integer that "
        f"time.gmtime can represent, got {epoch!r}\n"
    )
    assert proc.stdout == ""
    assert not out.exists()


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


def test_cli_out_in_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "r.json"
    proc = run_cli("check", "--scenario", "flat_product_4d", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write report to {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_cli_out_naming_a_directory_exits_2(tmp_path):
    proc = run_cli("check", "--scenario", "flat_product_4d", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write report to {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", [None, b"\xff{}"], ids=["directory", "not_utf8"])
def test_cli_check_names_a_scenario_file_it_cannot_read(tmp_path, content):
    path = tmp_path / "scenario.json"
    path.mkdir() if content is None else path.write_bytes(content)
    proc = run_cli("check", "--scenario", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: $: cannot read scenario file: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_malformed_expression_exits_2(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps({"germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1*(x2"}})
    )
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert "expression error" in proc.stderr
    assert "offset" in proc.stderr


def test_cli_too_deep_expression_exits_2(tmp_path):
    scenario = tmp_path / "deep.json"
    u = " + ".join(["x1*x2/1000"] * 1500)
    germ = {"generator": "conformal_flat_product", "n": 2, "u": u}
    scenario.write_text(json.dumps({"germ": germ}))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: $.germ: expression error: expression nested deeper "
                                  "than 100 levels (at offset ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", [["x"], "", 5, None])
def test_scenario_name_must_be_a_non_empty_string(name):
    doc = {"name": name, "germ": {"generator": "flat_product", "n": 2}}
    with pytest.raises(ScenarioError) as info:
        load_scenario(doc)
    assert str(info.value) == f"$.name: expected a non-empty string, got {name!r}"


def test_cli_scenario_name_not_a_string_exits_2(tmp_path):
    scenario = tmp_path / "named.json"
    scenario.write_text(json.dumps({"name": ["x"], "germ": {"generator": "flat_product", "n": 2}}))
    out = tmp_path / "report.json"
    proc = run_cli("check", "--scenario", str(scenario), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "error: $.name: expected a non-empty string, got ['x']\n"
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("field,value,path", [
    ("connections", 5, "$.connections"),
    ("connections", "D", "$.connections"),
    ("base_point", ["a", 0, 0, 0], "$.germ.base_point[0]"),
    ("base_point", [0.1, True, 0.3, 0.4], "$.germ.base_point[1]"),
    ("checks", [["structure"]], "$.checks[0]"),
    ("seed", -1, "$.seed"),
    ("n", True, "$.germ.n"),
])
def test_cli_malformed_scenario_field_exits_2(tmp_path, field, value, path):
    doc = {"germ": {"generator": "flat_product", "n": 2}, "checks": ["structure"]}
    if field in ("base_point", "n"):
        doc["germ"][field] = value
    else:
        doc[field] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in proc.stderr


GRID_3D = {"dim": 3, "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
           "structure": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]}


@pytest.mark.parametrize("germ,message", [
    ({"generator": "conformal_flat_product", "n": 1, "u": "x1"},
     "$.germ.n: must be an integer >= 2, got 1"),
    ({"generator": "flat_product", "n": 0}, "$.germ.n: must be an integer >= 2, got 0"),
    (GRID_3D, "$.germ.dim: must be an even integer >= 4, got 3"),
    (dict(GRID_3D, dim=2), "$.germ.dim: must be an even integer >= 4, got 2"),
])
def test_cli_germ_dimension_errors_name_their_field(tmp_path, germ, message):
    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps({"germ": germ, "checks": ["structure"]}))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""
    # classify --germ reads the germ object at the root of its file.
    germ_file = tmp_path / "germ.json"
    germ_file.write_text(json.dumps(germ))
    proc = run_cli("classify", "--germ", str(germ_file), "--point", "0.1,0.2,0.3")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message.replace('$.germ', '$')}\n"
    assert proc.stdout == ""


def test_cli_negative_seed_exits_2():
    proc = run_cli("check", "--scenario", "flat_product_4d", "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stderr == "error: seed: must be an integer >= 0, got -1\n"


def test_cli_evaluation_error_exits_2(tmp_path):
    # Parses, but ln(x1 - 1) is undefined at the base point.
    scenario = tmp_path / "ln.json"
    scenario.write_text(
        json.dumps({"germ": {"generator": "conformal_flat_product", "n": 2, "u": "ln(x1 - 1)"}})
    )
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert "error: ln of non-positive value" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_overflowing_metric_exits_2(tmp_path):
    # e^{800} overflows: the metric is not finite at the base point.
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps({
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "400*x1",
                 "base_point": [1, 0, 0, 0]},
        "checks": ["structure"],
    }))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert "error: metric not finite at point (1.0, 0.0, 0.0, 0.0)" in proc.stderr
    assert "Traceback" not in proc.stderr


SINGULAR_GERM = {"generator": "conformal_flat_product", "n": 2, "u": "-400*x1",
                 "base_point": [1, 0, 0, 0]}
INDEFINITE_GERM = {
    "dim": 4,
    "metric": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
               ["0", "0", "0", "-1"]],
    "structure": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"],
                  ["0", "0", "0", "-1"]],
}


@pytest.mark.parametrize("check", ["levi_civita", "classification"])
@pytest.mark.parametrize("germ", [SINGULAR_GERM, INDEFINITE_GERM], ids=["singular", "indefinite"])
def test_cli_metric_not_positive_definite_exits_2(tmp_path, germ, check):
    # e^{-800} underflows to a zero metric.  The point named is the base
    # point, where the scenario's one frame is evaluated.
    scenario = tmp_path / "metric.json"
    scenario.write_text(json.dumps({"germ": germ, "checks": [check]}))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: metric not positive definite at point (")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("field,value,path", [
    ("lambda", float("nan"), "$.connections[0].lambda"),
    ("mu", float("-inf"), "$.connections[0].mu"),
    ("base_point", [float("inf"), 0, 0, 0], "$.germ.base_point[0]"),
    pytest.param("lambda", 10**400, "$.connections[0].lambda", id="int_beyond_float"),
])
def test_cli_non_finite_scenario_number_exits_2(tmp_path, field, value, path):
    doc = {"germ": {"generator": "flat_product", "n": 2}, "checks": ["structure"],
           "connections": [{"lambda": 1.0, "mu": 0.0}]}
    if field == "base_point":
        doc["germ"][field] = value
    else:
        doc["connections"][0][field] = value
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: must be a finite number, got ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("connections,message", [
    (["D", "D"], "connection D is already listed at $.connections[0]"),
    (["D_tilde", "D", {"lambda": 0, "mu": 0}],
     "connection D is already listed at $.connections[1]"),
    # Both print as lam=1,mu=0, the name their reports would share.
    ([{"lambda": 1.0000001, "mu": 0}, {"lambda": 1.0000002, "mu": 0}],
     "connection lam=1,mu=0 is already listed at $.connections[0]"),
], ids=["preset_twice", "preset_and_its_parameters", "equal_labels"])
def test_cli_rejects_a_repeated_connection_label(tmp_path, connections, message):
    scenario = tmp_path / "repeated.json"
    scenario.write_text(json.dumps({"germ": {"generator": "flat_product", "n": 2},
                                    "checks": ["natural_connection"],
                                    "connections": connections}))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    index = len(connections) - 1
    assert proc.stderr == f"error: $.connections[{index}]: {message}\n"
    assert proc.stdout == ""


def test_cli_huge_connection_parameter_exits_2(tmp_path):
    # The case is generic, and R' overflows: a named error, not NaN residuals.
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps({
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        "connections": [{"lambda": 1e200, "mu": 0}],
    }))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr == ("error: curvature R' of connection lam=1e+200,mu=0 not finite "
                           "at point (0.1, 0.2, 0.30000000000000004, 0.4)\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_cli_rejects_tol_scale_not_finite_positive(scale):
    proc = run_cli("check", "--scenario", "flat_product_4d", "--tol-scale", scale)
    assert proc.returncode == 2
    assert "--tol-scale: must be a finite number > 0" in proc.stderr
    assert proc.stdout == ""


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


# g_13 = (x1 - 0.1) / 2 with P = diag(1, 1, -1, -1): P is g-compatible at the
# default base point only, so F breaks the F symmetries there.
F_ASYMMETRIC_GERM = {
    "dim": 4,
    "metric": [["1", "0", "0.5*(x1-0.1)", "0"], ["0", "1", "0", "0"],
               ["0.5*(x1-0.1)", "0", "1", "0"], ["0", "0", "0", "1"]],
    "structure": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
}


def test_cli_check_reports_an_f_that_breaks_its_symmetries(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "f_asymmetric", "germ": F_ASYMMETRIC_GERM}))
    proc = run_cli("check", "--scenario", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "StructureError" not in proc.stderr and "error:" not in proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL")]
    assert [line.split()[2] for line in failed] == ["structure", "classification"]
    assert "f_last_two_symmetry" in failed[1] and "label=outside_W1" in failed[1]
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps(F_ASYMMETRIC_GERM))
    proc = run_cli("classify", "--germ", str(germ), "--point", "0.1,0.2,0.3,0.4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "outside_W1"


def test_cli_classify_rejects_a_structure_that_is_not_almost_product(tmp_path):
    # g = I with P = 2I: P^2 = 4, P(g) = 4g and trace P = 8, as decompose4 names them.
    diagonal = lambda value: [[value if i == j else "0" for j in range(4)] for i in range(4)]
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps({"dim": 4, "metric": diagonal("1"), "structure": diagonal("2")}))
    proc = run_cli("classify", "--germ", str(germ), "--point", "0.1,0.2,0.3,0.4")
    assert proc.returncode == 2
    assert proc.stderr == ("error: invalid almost product structure: "
                           "p_squared, compatibility, trace_p\n")
    assert proc.stdout == ""


def test_cli_classify_rejects_wrong_point_length(tmp_path):
    germ_file = tmp_path / "germ.json"
    germ_file.write_text(json.dumps({"generator": "flat_product", "n": 2}))
    proc = run_cli("classify", "--germ", str(germ_file), "--point", "0.1,0.2")
    assert proc.returncode == 2


def test_cli_classify_rejects_a_point_that_is_not_finite(tmp_path):
    # A coordinate that is no number at all gets the same error as inf.
    germ_file = tmp_path / "germ.json"
    germ_file.write_text(json.dumps({"generator": "flat_product", "n": 2}))
    for point in ("nan,0,0,0", "0.1,inf,0.3,0.4", "0.1,a,0.3,0.4"):
        proc = run_cli("classify", "--germ", str(germ_file), "--point", point)
        assert proc.returncode == 2
        assert proc.stderr == f"error: --point: must be finite numbers, got {point!r}\n"
        assert proc.stdout == ""


def test_cli_classify_names_an_overflowing_point_once(tmp_path):
    # The metric overflows at the point: one named error, no numpy warning.
    germ_file = tmp_path / "germ.json"
    germ_file.write_text(json.dumps(
        {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"}))
    proc = run_cli("classify", "--germ", str(germ_file), "--point", "1e200,0,0,0")
    assert proc.returncode == 2
    assert proc.stderr == "error: metric not finite at point (1e+200, 0.0, 0.0, 0.0)\n"
    assert proc.stdout == ""


def _diagonal_grid(entries):
    return [[entries[i] if i == j else "0" for j in range(4)] for i in range(4)]


SPLIT_P = _diagonal_grid(["1", "1", "-1", "-1"])


def test_cli_check_names_the_grid_entry_that_cannot_be_evaluated(tmp_path):
    # ln(x2 - 0.5) at the default base point (0.1, 0.2, 0.3, 0.4) takes ln(-0.3).
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "ln_negative", "germ": {
        "dim": 4, "metric": _diagonal_grid(["1", "ln(x2 - 0.5)", "1", "1"]),
        "structure": SPLIT_P}}))
    proc = run_cli("check", "--scenario", str(path))
    assert proc.returncode == 2
    assert proc.stderr == ("error: ln of non-positive value in metric[1][1] "
                           "at point (0.1, 0.2, 0.30000000000000004, 0.4)\n")
    assert proc.stdout == ""


def test_cli_check_names_a_metric_that_is_singular_as_a_full_matrix(tmp_path):
    # Symmetric within 1e-9, with a positive-definite lower triangle, yet the
    # H block [[1, -1 - 1e-9], [-1, 1 + 1e-9]] has determinant 0: a named
    # structure error, not a numpy traceback.
    metric = _diagonal_grid(["1", "1.000000001", "1", "1"])
    metric[0][1], metric[1][0] = "-1.000000001", "-1"
    germ = {"dim": 4, "metric": metric, "structure": SPLIT_P}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"name": "singular_metric", "germ": germ}))
    proc = run_cli("check", "--scenario", str(path))
    assert proc.returncode == 2
    assert proc.stderr == ("error: metric not invertible "
                           "at point (0.1, 0.2, 0.30000000000000004, 0.4)\n")
    assert proc.stdout == ""
    with pytest.raises(StructureError, match="metric not invertible"):
        run_scenario(load_scenario({"germ": germ}))
    path.write_text(json.dumps(germ))
    proc = run_cli("classify", "--germ", str(path), "--point", "0.1,0.2,0.3,0.4")
    assert proc.returncode == 2
    assert proc.stderr == "error: metric not invertible at point (0.1, 0.2, 0.3, 0.4)\n"


def test_cli_classify_names_the_grid_entry_that_cannot_be_evaluated(tmp_path):
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps({"dim": 4, "metric": _diagonal_grid(["1"] * 4),
                                "structure": _diagonal_grid(["1", "1", "1/(x2 - x2)", "-1"])}))
    proc = run_cli("classify", "--germ", str(germ), "--point", "0.1,0.2,0.3,0.4")
    assert proc.returncode == 2
    assert proc.stderr == "error: division by zero in structure P[2][2] at point (0.1, 0.2, 0.3, 0.4)\n"
    assert proc.stdout == ""


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


@pytest.mark.parametrize("keys,message", [
    ({"g": np.eye(4), "p": np.eye(4)}, "invalid almost product structure: trace_p"),
    ({"g": np.eye(4)}, "tensor file has no key 'p'"),
    ({"p": np.diag([1.0, 1.0, -1.0, -1.0])}, "tensor file has no key 'g'"),
    (None, "tensor file must hold a JSON object"),
])
def test_cli_decompose4_rejects_a_bad_structure(tmp_path, keys, message):
    doc = [] if keys is None else {
        "dim": 4, "components": np.zeros((4,) * 4).tolist(),
        **{key: value.tolist() for key, value in keys.items()},
    }
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps(doc))
    proc = run_cli("decompose4", "--tensor", str(tensor_file))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("entries,value", [((0, 1, 0, 1), np.nan), (Ellipsis, np.inf)],
                         ids=["one_nan", "all_inf"])
def test_cli_decompose4_rejects_components_not_finite(tmp_path, entries, value):
    # Rejected before any product: no NaN in the output, no numpy warning.
    components = np.zeros((4,) * 4)
    components[entries] = value
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"dim": 4, "components": components.tolist()}))
    proc = run_cli("decompose4", "--tensor", str(tensor_file))
    assert proc.returncode == 2
    assert proc.stderr == "error: components: entries must be finite numbers\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("key,value", [("components", True), ("components", "1.5"),
                                       ("g", True), ("g", "1"), ("p", "-1")],
                         ids=["components_true", "components_string", "g_true", "g_string",
                              "p_string"])
def test_cli_decompose4_rejects_entries_that_are_not_numbers(tmp_path, key, value):
    # float() would read true as 1.0 and "1.5" as 1.5: each raw entry is checked first.
    doc = {"dim": 4, "components": np.zeros((4,) * 4).tolist(),
           "g": np.eye(4).tolist(), "p": np.diag([1.0, 1.0, -1.0, -1.0]).tolist()}
    entries = doc[key]
    while isinstance(entries[-1], list):
        entries = entries[-1]
    entries[-1] = value
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps(doc))
    proc = run_cli("decompose4", "--tensor", str(tensor_file))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {key}: entries must be finite numbers\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("dim,kind", [(4.7, "float"), ("4", "str"), (True, "bool")])
def test_cli_decompose4_rejects_a_dim_that_is_not_an_integer(tmp_path, dim, kind):
    tensor_file = tmp_path / "t.json"
    tensor_file.write_text(json.dumps({"dim": dim, "components": np.zeros((4,) * 4).tolist()}))
    proc = run_cli("decompose4", "--tensor", str(tensor_file))
    assert proc.returncode == 2
    assert proc.stderr == f"error: dim: expected int, got {kind}\n"
    assert proc.stdout == ""


def test_cli_list_checks():
    proc = run_cli("list-checks")
    assert proc.returncode == 0
    for token in ("structure", "lee_recovery", "dim4_traces", "flat_product_4d"):
        assert token in proc.stdout
    assert "residuals: torsion_match (1e-12), metric_parallel," in proc.stdout
    assert "lee_closedness" not in proc.stdout


def test_cli_rejects_the_removed_lee_closedness_check(tmp_path):
    # Its closedness flags moved to classification; the name is an unknown check.
    scenario = tmp_path / "old.json"
    scenario.write_text(json.dumps({"germ": {"generator": "flat_product", "n": 2},
                                    "checks": ["structure", "lee_closedness"]}))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr == "error: $.checks[1]: unknown check 'lee_closedness'\n"


def test_golden_report_snapshot(tmp_path):
    """Pinned snapshot of the flat-product report with a fixed timestamp."""
    env = dict(os.environ, SOURCE_DATE_EPOCH="0")
    out = tmp_path / "flat.json"
    proc = run_cli("check", "--scenario", "flat_product_4d", "--out", str(out), env=env)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["timestamp"] == "1970-01-01T00:00:00Z"
    golden = os.path.join(os.path.dirname(__file__), "golden", "flat_product_4d.json")
    with open(golden, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_cli_main_runs_repeatedly_in_one_process(tmp_path, monkeypatch, capsys):
    """``cli.main`` builds its parser once; nothing of one call reaches the next.

    A run at another seed and tolerance scale, then a usage error, come before
    the run whose report must equal the golden bytes a fresh process writes.
    """
    from apmlab import cli

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert cli.build_parser() is cli.build_parser()
    first = cli.main(["check", "--scenario", "flat_product_4d", "--seed", "5",
                      "--tol-scale", "2", "--out", str(tmp_path / "a.json")])
    assert first == 0
    with pytest.raises(SystemExit) as usage:
        cli.main(["check"])
    assert usage.value.code == 2
    assert "--scenario" in capsys.readouterr().err
    out = tmp_path / "b.json"
    assert cli.main(["check", "--scenario", "flat_product_4d", "--out", str(out)]) == 0
    golden = os.path.join(os.path.dirname(__file__), "golden", "flat_product_4d.json")
    with open(golden, "rb") as fh:
        assert out.read_bytes() == fh.read()
    assert capsys.readouterr().out.endswith(f"report written to {out}\n")


@pytest.mark.parametrize("checks,first", [
    (["natural_connection", "second_bianchi", "dim4_reconstruction"], "natural_connection"),
    (["structure", "dim4_reconstruction"], "dim4_reconstruction"),
    (None, "natural_connection"),
], ids=["issue_example", "after_a_plain_check", "every_check"])
def test_cli_rejects_per_connection_checks_without_connections(tmp_path, checks, first):
    # Each of these checks writes one report per connection: with none listed
    # the run would print "0 passed, 0 failed, 0 skipped" and exit 0.
    doc = {"germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
           "connections": []}
    if checks is not None:
        doc["checks"] = checks
    scenario = tmp_path / "no_connections.json"
    scenario.write_text(json.dumps(doc))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr == (f"error: $.connections: check {first!r} runs per connection; "
                           "list at least one\n")
    assert proc.stdout == ""


def test_checks_without_connections_run_with_none_listed():
    doc = {"germ": {"generator": "flat_product", "n": 2}, "connections": [],
           "checks": ["structure", "classification"]}
    reports = run_scenario(load_scenario(doc))
    assert [r.name for r in reports] == ["structure", "classification"]
    assert exit_code(reports) == 0


def test_tolerance_overrides_apply():
    doc = {
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        "checks": ["levi_civita"],
        "tolerances": {"levi_civita": {"metric_parallel": 1e-30}},
    }
    reports = run_scenario(load_scenario(doc))
    assert exit_code(reports) == 1  # impossible tolerance now fails


@pytest.mark.parametrize("key,code", [("metric_parallel", 1), ("metric_paralel", 2)])
def test_cli_override_key_must_be_declared(tmp_path, key, code):
    scenario = tmp_path / "override.json"
    scenario.write_text(json.dumps({
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        "checks": ["levi_civita"],
        "tolerances": {"levi_civita": {key: 1e-30}},
    }))
    proc = run_cli("check", "--scenario", str(scenario))
    # The declared key fails the check; the misspelt one is a schema error.
    assert proc.returncode == code
    if code == 2:
        assert proc.stderr == (
            "error: $.tolerances.levi_civita.metric_paralel: not '*' or a residual of "
            "levi_civita (torsion_free, metric_parallel)\n"
        )
        assert proc.stdout == ""
    else:
        assert proc.stderr == ""


def test_cli_rejects_an_undeclared_override_on_a_check_that_skips_every_report(tmp_path):
    # On the flat product every lee_recovery report skips (not W1): a declared
    # key loads and runs, and a misspelt one is rejected all the same.
    scenario = tmp_path / "override.json"
    doc = {
        "germ": {"generator": "flat_product", "n": 2},
        "checks": ["lee_recovery"],
        "tolerances": {"lee_recovery": {"theta_recovery": 0.005}},
    }
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    proc = run_cli("check", "--scenario", str(scenario), "--out", str(out))
    assert proc.returncode == 0 and proc.stderr == ""
    reports = json.loads(out.read_text())["checks"]
    assert {r["status"] for r in reports} == {"skipped"}
    assert all(r["tolerances"] == {"theta_recovery": 0.005} for r in reports)

    doc["tolerances"]["lee_recovery"]["theta_recoveryy"] = 0.005
    scenario.write_text(json.dumps(doc))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: $.tolerances.lee_recovery.theta_recoveryy: ")
    assert "Traceback" not in proc.stderr


def test_undeclared_override_key_is_rejected_at_load():
    doc = {
        "germ": {"generator": "flat_product", "n": 2},
        "checks": ["scalar_system"],
        "tolerances": {"scalar_system": {"*": 1.0, "system_direct": 1.0, "nope": 1.0}},
    }
    with pytest.raises(ScenarioError, match=r"^\$\.tolerances\.scalar_system\.nope: not '\*'"):
        load_scenario(doc)
    del doc["tolerances"]["scalar_system"]["nope"]
    reports = run_scenario(load_scenario(doc))  # "*" and a declared key load
    assert [(r.tol, r.tolerances) for r in reports] == [(1.0, {"system_direct": 1.0})] * 3
    assert all(r.notes == [] for r in reports)
    assert exit_code(reports) == 0


@pytest.mark.parametrize("checks,path,message", [
    ([], "$.checks", "expected a non-empty list of check names"),
    (["structure", "levi_civita", "structure"], "$.checks[2]",
     "check 'structure' is already listed"),
])
def test_checks_must_be_a_non_empty_list_of_distinct_names(checks, path, message):
    doc = {"germ": {"generator": "flat_product", "n": 2}, "checks": checks}
    with pytest.raises(ScenarioError) as info:
        load_scenario(doc)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("value", ["abc", -1, 0, float("nan"), True,
                                   pytest.param(10**400, id="int_beyond_float")])
def test_tolerance_override_must_be_finite_positive(value):
    doc = {
        "germ": {"generator": "flat_product", "n": 2},
        "tolerances": {"scalar_system": {"*": value}},
    }
    with pytest.raises(ScenarioError, match=r"\$\.tolerances\.scalar_system\.\*: must be a finite"):
        load_scenario(doc)


@pytest.mark.parametrize("value", ["abc", -1, 0, float("nan")])
def test_cli_malformed_tolerance_override_exits_2(tmp_path, value):
    scenario = tmp_path / "tol.json"
    # json writes NaN bare, and Python's json reads it back as a float.
    scenario.write_text(json.dumps({
        "germ": {"generator": "flat_product", "n": 2},
        "tolerances": {"lee_recovery": {"theta_recovery": value}},
    }))
    proc = run_cli("check", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert "error: $.tolerances.lee_recovery.theta_recovery: must be a finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
def test_run_scenario_rejects_tol_scale_not_finite_positive(scale):
    scenario = load_scenario({"germ": {"generator": "flat_product", "n": 2},
                              "checks": ["structure"]})
    with pytest.raises(ScenarioError, match="tol_scale: must be a finite number > 0"):
        run_scenario(scenario, tol_scale=scale)


def test_tol_scale_loosens():
    doc = {
        "germ": {"generator": "conformal_flat_product", "n": 2, "u": "x1^2 + x3^2"},
        "checks": ["levi_civita"],
        "tolerances": {"levi_civita": {"metric_parallel": 1e-30}},
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


@pytest.mark.parametrize("name", BUNDLED)
def test_no_cached_state_leaks_into_the_next_run(name):
    # Each run builds a fresh context; frames and connections cached on one
    # must not change the reports of the next, at the same or another seed.
    scenario = load_bundled_scenario(name)
    first, _, third = (
        [r.as_dict() for r in run_scenario(scenario, seed=seed)] for seed in (0, 9001, 0)
    )
    assert first == third


def test_unknown_scenario_keys_are_ignored():
    doc = {"germ": {"generator": "flat_product", "n": 2}, "checks": ["structure"],
           "fd_step": 1e-4}
    assert exit_code(run_scenario(load_scenario(doc))) == 0
