"""The metrics that the CI workflow's perfbench smokes index are ones BENCHMARK.json declares.

CI is the first place those smokes run, so a metric renamed in the harness
would otherwise first show as a KeyError there.  This reads both files only.
"""

import json
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INDEX = re.compile(r"m\[(f?)'([^']+)'\]")


def indexed_metrics(workflow: str) -> set[str]:
    """Every m['name'] in the workflow, with each m[f'...{d}'] read for d = 4, 6 and 8."""
    names = set()
    for formatted, name in INDEX.findall(workflow):
        names.update({name.format(d=d) for d in (4, 6, 8)} if formatted else {name})
    return names


def test_workflow_smokes_index_only_declared_metrics():
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        workflow = fh.read()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    declared = {entry["name"] for kind in ("end_to_end", "per_layer") for entry in benchmark[kind]}
    indexed = indexed_metrics(workflow)
    # Every quoted index is parsed, so none escapes the check.
    quoted = workflow.count("m['") + workflow.count("m[f'")
    assert indexed and len(INDEX.findall(workflow)) == quoted
    assert indexed <= declared, sorted(indexed - declared)

