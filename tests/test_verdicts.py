"""Verdict manifest of the bundled scenarios.

``golden/bundled_verdicts.json`` records, for every check of every bundled
scenario, its status, skip reason, sorted residual keys, hypothesis flags and
notes.  Residual values stay out of it, so changes at rounding level pass
while any change of verdict fails.  ``golden/function_germs.json`` records
the same for two germs that evaluate ln, sin, cos, exp, the reciprocal and
constant divisors, which no bundled scenario does, with their residuals and
scalars.  Regenerate both (only for an intended verdict change) with

    python tests/test_verdicts.py --write
"""

import json
import os
import sys

import pytest

from apmlab.checks import DEGENERATE_SCALARS, HYPOTHESES, RESIDUALS
from apmlab.scenarios import (
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    run_scenario,
)

MANIFEST = os.path.join(os.path.dirname(__file__), "golden", "bundled_verdicts.json")
FUNCTION_MANIFEST = os.path.join(os.path.dirname(__file__), "golden", "function_germs.json")
CONNECTIONS = ["D", "D_tilde", {"lambda": 1.0, "mu": 0.0}]
SPLIT_P = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
FUNCTION_GERMS = {
    "conformal_ln_6d": {
        "generator": "conformal_flat_product", "n": 3, "u": "ln(2 + x1^2 + x4^2) - x2/3"},
    # Block-diagonal against P, so (g, P) is an almost product structure.
    "grid_functions_4d": {"dim": 4, "structure": SPLIT_P, "metric": [
        ["2 + sin(x1*x3)/3", "x2*x4/5", "0", "0"],
        ["x2*x4/5", "exp(x3/4)", "0", "0"],
        ["0", "0", "1 + cos(x2)/2", "x1/7"],
        ["0", "0", "x1/7", "3 - x4^2/2"],
    ]},
}


def verdicts(scenario, values: bool = False) -> dict[str, dict]:
    out = {}
    for report in run_scenario(scenario):
        out[report.name] = {
            "status": report.status,
            "skip_reason": report.skip_reason,
            "residual_keys": sorted(report.residuals),
            "hypothesis_flags": dict(report.hypothesis_flags),
            "notes": list(report.notes),
        }
        if values:
            out[report.name].update(residuals=dict(report.residuals), scalars=dict(report.scalars))
    return out


def scenario_verdicts(name: str) -> dict[str, dict]:
    return verdicts(load_bundled_scenario(name))


def function_germ_verdicts(name: str) -> dict[str, dict]:
    doc = {"name": name, "germ": FUNCTION_GERMS[name], "connections": CONNECTIONS}
    return verdicts(load_scenario(doc), values=True)


def load_manifest() -> dict[str, dict]:
    with open(MANIFEST) as fh:
        return json.load(fh)


def test_manifest_covers_the_bundled_scenarios():
    assert sorted(load_manifest()) == sorted(bundled_scenario_names())


def test_every_manifest_residual_key_is_declared_by_its_check():
    for verdicts in load_manifest().values():
        for report_name, verdict in verdicts.items():
            declared = RESIDUALS[report_name.split("[")[0]]
            assert set(verdict["residual_keys"]) <= declared.keys(), report_name


def test_every_manifest_skip_reason_is_declared():
    # A report skips for a hypothesis of the table, for drive's dimension rule,
    # or for one of the four degeneracies a body meets partway through.
    declared = set(HYPOTHESES.values()) | {
        "dimension is not 4", "singular scalar combination", DEGENERATE_SCALARS,
        "refutation vacuous: R' vanishes", "preset refutation degenerate: both Lee forms closed"}
    for path in (MANIFEST, FUNCTION_MANIFEST):
        with open(path) as fh:
            for scenario, reports in json.load(fh).items():
                for report_name, verdict in reports.items():
                    assert verdict["skip_reason"] in declared | {None}, (scenario, report_name)


def test_declared_residual_keys_that_no_bundled_report_writes():
    # Theorem branches that no bundled scenario reaches, and the pointwise
    # sentinel that never fires.  A change that reaches one of them, or stops
    # reaching another, updates this pin.
    written = {(report_name.split("[")[0], key)
               for verdicts in load_manifest().values()
               for report_name, verdict in verdicts.items()
               for key in verdict["residual_keys"]}
    unwritten = {(check, key) for check, keys in RESIDUALS.items() for key in keys} - written
    assert unwritten == {
        ("tau_form_closedness", "ln_tau_form_closed"),
        ("tau_form_closedness", "d_theta_p_match"),
        ("eigenclass_lee_recovery", "theta_recovery"),
        ("eigenclass_lee_recovery", "difference_form_closed"),
        ("eigenclass_lee_recovery", "sum_form_closed"),
        ("pointwise_algebra", "psi1_asymmetric_detected"),
    }


@pytest.mark.parametrize("name", sorted(bundled_scenario_names()))
def test_bundled_verdicts_match_manifest(name):
    assert scenario_verdicts(name) == load_manifest()[name]


@pytest.mark.parametrize("name", sorted(FUNCTION_GERMS))
def test_function_germ_reports_match_manifest(name):
    with open(FUNCTION_MANIFEST) as fh:
        expected = json.load(fh)[name]
    got = function_germ_verdicts(name)
    assert sorted(got) == sorted(expected)
    for report_name, verdict in got.items():
        pinned = expected[report_name]
        for field in ("status", "skip_reason", "residual_keys", "hypothesis_flags", "notes"):
            assert verdict[field] == pinned[field], (report_name, field)
        for field in ("residuals", "scalars"):
            assert sorted(verdict[field]) == sorted(pinned[field]), (report_name, field)
            for key, value in verdict[field].items():
                assert abs(value - pinned[field][key]) <= 1e-12 * max(1.0, abs(pinned[field][key])), (
                    report_name, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_verdicts.py --write")
    for path, manifest in (
        (MANIFEST, {name: scenario_verdicts(name) for name in sorted(bundled_scenario_names())}),
        (FUNCTION_MANIFEST, {name: function_germ_verdicts(name) for name in FUNCTION_GERMS}),
    ):
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
