"""Workload inputs, each paired with facts derived by hand.

Every conformal germ ``g = e^{2u} g0`` over the flat product carries its
``u`` twice: as a string in the program's expression grammar, handed to the
program, and as hand-derived closed forms for du and the flat Laplacian of u,
which only the oracles read.  ``python_grid`` turns the same strings into
Python callables through Python's own parser, so the oracles never evaluate
an expression with the program's parser or jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Seeded sample points lie in a cube of this half-width around the base point.
POINT_RADIUS = 0.05


@dataclass(frozen=True)
class Conformal:
    """u for g = e^{2u} g0 with P = diag(+I_n, -I_n); u = None is the flat product."""

    n: int
    u: str | None
    grad: Callable[[np.ndarray], list[float]]
    lap: Callable[[np.ndarray], float]

    @property
    def dim(self) -> int:
        return 2 * self.n

    def metric_strings(self) -> list[list[str]]:
        diag = "1" if self.u is None else f"exp(2*({self.u}))"
        return [[diag if i == j else "0" for j in range(self.dim)] for i in range(self.dim)]


@dataclass(frozen=True)
class Explicit:
    """Germ given by explicit metric strings and P = diag(+I_n, -I_n)."""

    n: int
    metric: tuple[tuple[str, ...], ...]

    @property
    def dim(self) -> int:
        return 2 * self.n

    def metric_strings(self) -> list[list[str]]:
        return [list(row) for row in self.metric]


def _flat(dim: int) -> Conformal:
    return Conformal(dim // 2, None, lambda x: [0.0] * dim, lambda x: 0.0)


def _e(dim: int, **parts: float) -> list[float]:
    """Vector with the named coordinates (x1 = index 0) set."""
    out = [0.0] * dim
    for key, value in parts.items():
        out[int(key[1:]) - 1] = value
    return out


# The six scenarios bundled with apmlab at the time this benchmark was
# written, in a fixed order; their u strings must match the scenario files.
BUNDLED: dict[str, Conformal] = {
    "flat_product_4d": _flat(4),
    "conformal_w6_4d": Conformal(
        2, "x1 + x2^2",
        lambda x: _e(4, x1=1.0, x2=2 * x[1]),
        lambda x: 2.0,
    ),
    "conformal_w3_4d": Conformal(
        2, "x3 + x4^2",
        lambda x: _e(4, x3=1.0, x4=2 * x[3]),
        lambda x: 2.0,
    ),
    "conformal_w1_separable_4d": Conformal(
        2, "x1^2 + x3^2",
        lambda x: _e(4, x1=2 * x[0], x3=2 * x[2]),
        lambda x: 4.0,
    ),
    "conformal_w1_mixed_4d": Conformal(
        2, "x1*x3",
        lambda x: _e(4, x1=x[2], x3=x[0]),
        lambda x: 0.0,
    ),
    "conformal_w1_separable_6d": Conformal(
        3, "x1^2 + x4^2",
        lambda x: _e(6, x1=2 * x[0], x4=2 * x[3]),
        lambda x: 4.0,
    ),
}


def _ln_grad(x):
    s = 2 + x[0] ** 2 + x[3] ** 2
    return _e(6, x1=2 * x[0] / s, x4=2 * x[3] / s)


def _ln_lap(x):
    s = 2 + x[0] ** 2 + x[3] ** 2
    return 4 / s - 4 * (x[0] ** 2 + x[3] ** 2) / s**2


# Germs of the frame sweep: polynomial and non-polynomial u in dims 4, 6, 8,
# plus one explicit grid whose metric is non-diagonal but block-diagonal
# against P, so that (g, P) is still an almost product structure.
SWEEP: dict[str, Conformal | Explicit] = {
    "d4_exp_sin": Conformal(
        2, "exp(x1)*sin(2*x3)",
        lambda x: _e(4, x1=math.exp(x[0]) * math.sin(2 * x[2]),
                     x3=2 * math.exp(x[0]) * math.cos(2 * x[2])),
        lambda x: -3 * math.exp(x[0]) * math.sin(2 * x[2]),
    ),
    "d4_poly": Conformal(
        2, "x1*x3 + x2^2 - x4^3/3",
        lambda x: _e(4, x1=x[2], x2=2 * x[1], x3=x[0], x4=-x[3] ** 2),
        lambda x: 2 - 2 * x[3],
    ),
    "d6_ln": Conformal(3, "ln(2 + x1^2 + x4^2)", _ln_grad, _ln_lap),
    "d6_grid": Explicit(3, (
        ("2 + sin(x1*x4)", "x2*x5/4", "0", "0", "0", "0"),
        ("x2*x5/4", "exp(x3/3)", "x1/5", "0", "0", "0"),
        ("0", "x1/5", "1 + x6^2", "0", "0", "0"),
        ("0", "0", "0", "1 + x3^2", "cos(x1)/4", "0"),
        ("0", "0", "0", "cos(x1)/4", "2 + x2*x4", "x5*x6/3"),
        ("0", "0", "0", "0", "x5*x6/3", "exp(x1 - x2)"),
    )),
    "d8_poly": Conformal(
        4, "x1^2*x5 + x2*x6",
        lambda x: _e(8, x1=2 * x[0] * x[4], x2=x[5], x5=x[0] ** 2, x6=x[1]),
        lambda x: 2 * x[4],
    ),
    "d8_exp_cos": Conformal(
        4, "exp(x2)*cos(x1 + x5)",
        lambda x: _e(8, x1=-math.exp(x[1]) * math.sin(x[0] + x[4]),
                     x2=math.exp(x[1]) * math.cos(x[0] + x[4]),
                     x5=-math.exp(x[1]) * math.sin(x[0] + x[4])),
        lambda x: -math.exp(x[1]) * math.cos(x[0] + x[4]),
    ),
}

# Dimensions and tensors per dimension of the P-tensor lab.
LAB_DIMS = (4, 6, 8)
LAB_TENSORS_PER_DIM = 2


def base_point(dim: int) -> np.ndarray:
    """The apmlab default base point (0.1, 0.2, ..., 0.1 dim)."""
    return 0.1 * np.arange(1, dim + 1)


def split_p(n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)]))


_PY_NAMES = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "ln": math.log}


def python_expr(src: str, dim: int) -> Callable[[np.ndarray], float]:
    """Compile an apmlab expression string with Python's parser.

    The grammars agree on precedence: ``^`` binds tighter than unary minus,
    as ``**`` does in Python.
    """
    code = compile(src.replace("^", "**"), "<expr>", "eval")
    names = [f"x{i + 1}" for i in range(dim)]

    def value(x: np.ndarray) -> float:
        scope = dict(_PY_NAMES)
        scope.update(zip(names, (float(v) for v in x)))
        return float(eval(code, {"__builtins__": {}}, scope))

    return value


def python_grid(rows: list[list[str]], dim: int) -> Callable[[np.ndarray], np.ndarray]:
    cells = [[python_expr(s, dim) for s in row] for row in rows]

    def grid(x: np.ndarray) -> np.ndarray:
        return np.array([[c(x) for c in row] for row in cells])

    return grid
