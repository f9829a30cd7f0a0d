"""Verdict manifest of the bundled scenarios.

``golden/bundled_verdicts.json`` records, for every check of every bundled
scenario, its status, skip reason, sorted residual keys, hypothesis flags and
notes.  Residual values stay out of it, so changes at rounding level pass
while any change of verdict fails.  Regenerate it (only for an intended verdict change) with

    python tests/test_verdicts.py --write
"""

import json
import os
import sys

import pytest

from apmlab.checks import RESIDUALS
from apmlab.scenarios import bundled_scenario_names, load_bundled_scenario, run_scenario

MANIFEST = os.path.join(os.path.dirname(__file__), "golden", "bundled_verdicts.json")


def scenario_verdicts(name: str) -> dict[str, dict]:
    verdicts = {}
    for report in run_scenario(load_bundled_scenario(name)):
        verdicts[report.name] = {
            "status": report.status,
            "skip_reason": report.skip_reason,
            "residual_keys": sorted(report.residuals),
            "hypothesis_flags": dict(report.hypothesis_flags),
            "notes": list(report.notes),
        }
    return verdicts


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


@pytest.mark.parametrize("name", sorted(bundled_scenario_names()))
def test_bundled_verdicts_match_manifest(name):
    assert scenario_verdicts(name) == load_manifest()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_verdicts.py --write")
    manifest = {name: scenario_verdicts(name) for name in sorted(bundled_scenario_names())}
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
