"""Command-line harness: run scenario check suites and emit JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from .checks import CHECKS, RESIDUALS
from .curvature import decompose_dim4, is_p_tensor
from .exprs import EvalError, ParseError
from .report import CheckReport, emit_report, exit_code, report_timestamp, summarize
from .scenarios import (
    ScenarioError,
    _finite_float,
    bundled_scenario_names,
    finite_positive,
    germ_from_spec,
    resolve_scenario,
    run_scenario,
)
from .structure import classify_f
from .tensors import PointStructure, StructureError, canonical_structure, frob

USAGE_ERROR = 2


def _print_check_lines(reports: list[CheckReport]) -> None:
    for report in reports:
        line = f"[{report.status.upper():7s}] {report.name}"
        if report.status == "fail":
            worst = max(report.residuals.items(), key=lambda kv: kv[1], default=None)
            if report.failures():
                key, value = next(iter(report.failures().items()))
                line += f"  ({key} = {value:.3e} > {report.tolerance_for(key):.1e})"
            elif worst:
                line += f"  ({worst[0]} = {worst[1]:.3e})"
            if report.notes:
                line += f"  [{'; '.join(report.notes)}]"
        elif report.status == "skipped":
            line += f"  ({report.skip_reason})"
        print(line)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        # Read before any check runs: a malformed SOURCE_DATE_EPOCH stops the run.
        timestamp = report_timestamp() if args.out else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        scenario = resolve_scenario(args.scenario)
        reports = run_scenario(scenario, tol_scale=args.tol_scale, seed=args.seed)
    except (ScenarioError, ParseError, EvalError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _print_check_lines(reports)
    counts = summarize(reports)
    print(
        f"{scenario.name}: {counts['passed']} passed, "
        f"{counts['failed']} failed, {counts['skipped']} skipped"
    )
    if args.out:
        try:
            emit_report(reports, args.out, scenario=scenario.name, timestamp=timestamp)
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc.strerror}", file=sys.stderr)
            return USAGE_ERROR
        print(f"report written to {args.out}")
    return exit_code(reports)


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        with open(args.germ) as fh:
            spec = json.load(fh)
        germ = germ_from_spec(spec, path="$", name=args.germ)
        try:
            point = np.array([float(v) for v in args.point.split(",")])
        except ValueError:  # a coordinate that is no number
            point = None
        if point is None or not np.isfinite(point).all():
            raise ScenarioError("--point", f"must be finite numbers, got {args.point!r}")
        if point.shape[0] != germ.dim:
            raise ScenarioError("--point", f"expected {germ.dim} coordinates")
        frame = germ.frame(point, order=1)
        frame.structure.require_valid()
        report = classify_f(frame.structure, frame.f_tensor.values)
    except (OSError, json.JSONDecodeError, ScenarioError, ParseError,
            StructureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _finite_entries(doc: dict, key: str) -> np.ndarray:
    """``doc[key]`` as a float array, or a ScenarioError at ``key`` unless every
    entry is a finite JSON number: checked before the conversion, which would
    take ``true`` as 1.0 and ``"1.5"`` as 1.5.
    """
    entries = np.array(doc[key], dtype=object)
    if any(_finite_float(value) is None for value in entries.flat):
        raise ScenarioError(key, "entries must be finite numbers")
    return entries.astype(float)


def cmd_decompose4(args: argparse.Namespace) -> int:
    try:
        with open(args.tensor) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("tensor file must hold a JSON object")
        dim = doc.get("dim", 4)
        if not isinstance(dim, int) or isinstance(dim, bool):  # 4.7, "4" and true are no dimension
            raise ScenarioError("dim", f"expected int, got {type(dim).__name__}")
        if dim != 4:
            raise ValueError("scalar-curvature decomposition requires dim = 4")
        components = _finite_entries(doc, "components")
        if components.shape != (4, 4, 4, 4):
            raise ValueError("components must form a 4x4x4x4 array")
        if "g" in doc or "p" in doc:
            ps = PointStructure(_finite_entries(doc, "g"), _finite_entries(doc, "p"))
            ps.require_valid()
        else:
            ps = canonical_structure(4)
        tau, tau_star, residual = decompose_dim4(ps, components)
    except KeyError as exc:
        print(f"error: tensor file has no key {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError, ValueError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = {
        "tau": tau,
        "tau_star": tau_star,
        "reconstruction_residual": residual,
        "is_p_tensor": bool(is_p_tensor(ps, components,
                                        tol=1e-9 * max(1.0, frob(components))).passed),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_list_checks(_args: argparse.Namespace) -> int:
    print("checks:")
    for name, (_fn, description) in CHECKS.items():
        print(f"  {name:24s} {description}")
        keys = (key if tol is None else f"{key} ({tol:g})" for key, tol in RESIDUALS[name].items())
        print(f"  {'':24s} residuals: {', '.join(keys)}")
    print("bundled scenarios:")
    for name in bundled_scenario_names():
        print(f"  {name}")
    return 0


def _tol_scale(text: str) -> float:
    try:
        return finite_positive(float(text), "--tol-scale")
    except ValueError:  # not a number, or a ScenarioError
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``apmlab`` parser, built on the first call and shared by later ones:
    building it costs ten times a parse, and a parse leaves nothing on it.
    """
    parser = argparse.ArgumentParser(
        prog="apmlab",
        description="Verification lab for Riemannian almost product manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario's check suite")
    p_check.add_argument("--scenario", required=True,
                         help="scenario file path or bundled scenario name")
    p_check.add_argument("--out", help="write the JSON report here")
    p_check.add_argument("--tol-scale", type=_tol_scale, default=1.0,
                         help="multiply every tolerance by this factor")
    p_check.add_argument("--seed", type=int, default=None,
                         help="override the scenario seed")
    p_check.set_defaults(fn=cmd_check)

    p_classify = sub.add_parser("classify", help="classify a germ's F tensor at a point")
    p_classify.add_argument("--germ", required=True, help="germ spec JSON file")
    p_classify.add_argument("--point", required=True, help="comma-separated coordinates")
    p_classify.set_defaults(fn=cmd_classify)

    p_dec = sub.add_parser("decompose4", help="scalar-curvature decomposition of a rank-4 tensor")
    p_dec.add_argument("--tensor", required=True,
                       help="JSON file with a dim header and nested components")
    p_dec.set_defaults(fn=cmd_decompose4)

    p_list = sub.add_parser("list-checks", help="list available checks and bundled scenarios")
    p_list.set_defaults(fn=cmd_list_checks)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)

