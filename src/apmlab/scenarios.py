"""Scenario files: JSON schema, validation with field paths, bundled set."""

from __future__ import annotations

import json
import math
from importlib import resources

from .checks import CHECKS, PER_CONNECTION, RESIDUALS, ScenarioContext, run_checks
from .exprs import ParseError
from .germs import ChartGerm, ConnectionParams, conformal_flat_product_germ
from .report import CheckReport
from .structure import CLASS_LABELS


class ScenarioError(ValueError):
    """Schema violation; the message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class Scenario:
    """A validated scenario file: a germ, its connections and the checks to run.

    ``tolerances`` left out is a new empty dict.
    """

    def __init__(self, name: str, germ: ChartGerm, connections: list[ConnectionParams],
                 checks: list[str], expect_class: str | None = None,
                 tolerances: dict | None = None, seed: int = 0):
        self.name, self.germ, self.connections, self.checks = name, germ, connections, checks
        self.expect_class, self.seed = expect_class, seed
        self.tolerances = {} if tolerances is None else tolerances

    def context(self, tol_scale: float = 1.0, seed: int | None = None) -> ScenarioContext:
        return ScenarioContext(
            germ=self.germ,
            connections=self.connections,
            seed=self.seed if seed is None else seed,
            expect_class=self.expect_class,
            tolerances=self.tolerances,
            tol_scale=tol_scale,
        )


def _finite_float(value) -> float | None:
    """``value`` as a float if it is a finite number (a bool is not one), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


def finite_positive(value, path: str) -> float:
    """``value`` as a float if it is a finite number > 0, else a ScenarioError at ``path``."""
    number = _finite_float(value)
    if number is None or not number > 0:
        raise ScenarioError(path, f"must be a finite number > 0, got {value!r}")
    return number


def _seed(value, path: str) -> int:
    """``value`` if it is an integer >= 0, as numpy seeds are, else a ScenarioError at ``path``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ScenarioError(path, f"must be an integer >= 0, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(path, f"expected a number, got {type(value).__name__}")
    number = _finite_float(value)
    if number is None:
        raise ScenarioError(path, f"must be a finite number, got {value!r}")
    return number


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    value = doc[key]
    if kind is float:
        return _number(value, f"{path}.{key}")
    # bool is a subclass of int, but true is not a count.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _expr_grid(rows, dim: int, path: str) -> list[list[str]]:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioError(path, f"expected {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{path}[{i}]", f"expected {dim} entries")
    return [[str(v) for v in row] for row in rows]


def germ_from_spec(spec: dict, path: str = "germ", name: str = "germ") -> ChartGerm:
    if not isinstance(spec, dict):
        raise ScenarioError(path, "expected an object")
    generator = spec.get("generator")
    try:
        if generator in ("flat_product", "conformal_flat_product"):
            n = int(_require(spec, "n", int, path))
            if n < 2:
                raise ScenarioError(f"{path}.n", f"must be an integer >= 2, got {n}")
            u = "0" if generator == "flat_product" else _require(spec, "u", str, path)
            germ = conformal_flat_product_germ(n, u, name=name)
        elif generator is None:
            dim = int(_require(spec, "dim", int, path))
            if dim % 2 or dim < 4:
                raise ScenarioError(f"{path}.dim", f"must be an even integer >= 4, got {dim}")
            metric = _expr_grid(_require(spec, "metric", list, path), dim, f"{path}.metric")
            structure = _expr_grid(
                _require(spec, "structure", list, path), dim, f"{path}.structure"
            )
            germ = ChartGerm.from_strings(dim, metric, structure, name=name)
        else:
            raise ScenarioError(f"{path}.generator", f"unknown generator {generator!r}")
    except ParseError as exc:
        raise ScenarioError(f"{path}", f"expression error: {exc}") from exc
    base = spec.get("base_point")
    if base is not None:
        if not isinstance(base, list) or len(base) != germ.dim:
            raise ScenarioError(f"{path}.base_point", f"expected {germ.dim} coordinates")
        point = tuple(_number(v, f"{path}.base_point[{i}]") for i, v in enumerate(base))
        germ = ChartGerm(germ.dim, germ.metric, germ.structure, point, germ.name)
    return germ


def _connection(entry, n: int, path: str) -> ConnectionParams:
    if entry == "D":
        return ConnectionParams.d()
    if entry == "D_tilde":
        return ConnectionParams.d_tilde(n)
    if isinstance(entry, dict):
        lam = _require(entry, "lambda", float, path)
        mu = _require(entry, "mu", float, path)
        return ConnectionParams(lam, mu)
    raise ScenarioError(path, f"expected 'D', 'D_tilde' or an object, got {entry!r}")


def load_scenario(doc: dict, name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "scenario document must be an object")
    name = doc.get("name", name)
    if not isinstance(name, str) or not name:
        raise ScenarioError("$.name", f"expected a non-empty string, got {name!r}")
    germ = germ_from_spec(_require(doc, "germ", dict, "$"), "$.germ", name=name)

    raw_connections = doc.get("connections", ["D", "D_tilde", {"lambda": 1.0, "mu": 0.0}])
    if not isinstance(raw_connections, list):
        raise ScenarioError("$.connections", "expected a list of connections")
    connections, listed = [], {}
    for i, entry in enumerate(raw_connections):
        params = _connection(entry, germ.n, f"$.connections[{i}]")
        # Report names carry the label, so two entries with one label would collide.
        label = params.label(germ.n)
        if label in listed:
            raise ScenarioError(f"$.connections[{i}]", f"connection {label} is already "
                                                       f"listed at $.connections[{listed[label]}]")
        listed[label] = i
        connections.append(params)

    checks = doc.get("checks")
    if checks is None:
        checks = list(CHECKS)
    else:
        if not isinstance(checks, list) or not checks:
            raise ScenarioError("$.checks", "expected a non-empty list of check names")
        for i, check in enumerate(checks):
            if not isinstance(check, str) or check not in CHECKS:
                raise ScenarioError(f"$.checks[{i}]", f"unknown check {check!r}")
            if check in checks[:i]:
                raise ScenarioError(f"$.checks[{i}]", f"check {check!r} is already listed")
    per_connection = [check for check in checks if check in PER_CONNECTION]
    if per_connection and not connections:  # such a check would write no report at all
        raise ScenarioError("$.connections", f"check {per_connection[0]!r} runs per connection; "
                                             "list at least one")

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("$.tolerances", "expected an object")
    for check_name, overrides in tolerances.items():
        if check_name not in CHECKS:
            raise ScenarioError(f"$.tolerances.{check_name}", "unknown check")
        if not isinstance(overrides, dict):
            raise ScenarioError(f"$.tolerances.{check_name}", "expected an object of residual: tol")
        for key, value in overrides.items():
            path = f"$.tolerances.{check_name}.{key}"
            if key != "*" and key not in RESIDUALS[check_name]:
                raise ScenarioError(path, f"not '*' or a residual of {check_name} "
                                          f"({', '.join(RESIDUALS[check_name])})")
            finite_positive(value, path)

    expect_class = doc.get("expect_class")
    if expect_class is not None and expect_class not in CLASS_LABELS:
        raise ScenarioError("$.expect_class", f"unknown class label {expect_class!r}")

    seed = _seed(doc.get("seed", 0), "$.seed")

    return Scenario(
        name=name,
        germ=germ,
        connections=connections,
        checks=checks,
        expect_class=expect_class,
        tolerances=tolerances,
        seed=seed,
    )


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError("$", f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError("$", f"cannot read scenario file: {exc}") from exc
    return load_scenario(doc, name=path)


def bundled_scenario_names() -> list[str]:
    root = resources.files("apmlab").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> Scenario:
    path = resources.files("apmlab").joinpath("scenarios", f"{name}.json")
    if not path.is_file():
        known = ", ".join(bundled_scenario_names())
        raise ScenarioError("$", f"unknown bundled scenario {name!r} (known: {known})")
    return load_scenario(json.loads(path.read_text()), name=name)


def resolve_scenario(ref: str) -> Scenario:
    """Treat ``ref`` as a file path if one exists, else as a bundled name."""
    import os

    if os.path.exists(ref):
        return load_scenario_file(ref)
    return load_bundled_scenario(ref)


def run_scenario(scenario: Scenario, tol_scale: float = 1.0,
                 seed: int | None = None) -> list[CheckReport]:
    ctx = scenario.context(tol_scale=finite_positive(tol_scale, "tol_scale"),
                           seed=None if seed is None else _seed(seed, "seed"))
    return run_checks(ctx, scenario.checks)
