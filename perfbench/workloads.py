"""The three workloads: what one pass runs and how each output is checked.

A workload is built from the seed alone (``__init__``: sample points, tensor
seeds and oracle references, none of which touch apmlab).  ``setup`` then
does the program-side set-up that ``setup_s`` times: germ parsing and
structure construction through apmlab's public API.  ``ops`` lists one pass;
every pass of a run repeats the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs
import oracles


@dataclass
class Op:
    """One timed call into apmlab and the oracle for its output."""

    label: str
    dim: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, salt])


class BundledSuites:
    """``apmlab check`` on the six bundled scenarios, in-process, stdout captured."""

    name = "bundled_suites"
    per_item = False

    def __init__(self, seed: int, out_dir: str):
        self.cli_seed = seed % 1_000_000
        self.out_dir = out_dir
        self.refs = {}
        for scenario, case in inputs.BUNDLED.items():
            x = inputs.base_point(case.dim)
            u = 0.0 if case.u is None else inputs.python_expr(case.u, case.dim)(x)
            self.refs[scenario] = (case, x, u)

    def setup(self, apm) -> None:
        self.cli = apm.cli

    def _run(self, scenario: str, path: str) -> int:
        argv = ["check", "--scenario", scenario, "--out", path, "--seed", str(self.cli_seed)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def _check(self, scenario: str, path: str, code: int) -> list[str]:
        with open(path) as fh:
            doc = json.load(fh)
        os.remove(path)
        return oracles.check_report(doc, code, *self.refs[scenario])

    def ops(self) -> list[Op]:
        out = []
        for scenario, (case, _x, _u) in self.refs.items():
            path = os.path.join(self.out_dir, f"{scenario}.json")
            out.append(Op(
                scenario, case.dim,
                lambda s=scenario, p=path: self._run(s, p),
                lambda code, s=scenario, p=path: self._check(s, p, code),
            ))
        return out


# Order-3 GermFrame stages forced per frame, then per connection.
FRAME_PROPERTIES = (
    "g", "p", "g_inv", "g_assoc", "structure", "christoffel", "curvature", "nabla_p",
    "f_tensor", "theta", "theta_p", "omega", "nabla_theta", "d_theta", "d_theta_p",
)
CONNECTION_PROPERTIES = ("torsion", "contorsion", "gamma", "curvature", "ricci", "tau", "tau_star")
POINTS_PER_GERM = 2


class FrameSweep:
    """Fully evaluated order-3 frames, with three connections, at seeded points."""

    name = "frame_sweep"
    per_item = True

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        self.cases = []
        for label, case in inputs.SWEEP.items():
            p = inputs.split_p(case.n)
            metric = inputs.python_grid(case.metric_strings(), case.dim)
            for _ in range(POINTS_PER_GERM):
                x = inputs.base_point(case.dim) + rng.uniform(
                    -inputs.POINT_RADIUS, inputs.POINT_RADIUS, case.dim)
                refs = {"metric": metric, "p": p, "x": x}
                if isinstance(case, inputs.Conformal):
                    refs["theta_ref"] = oracles.conformal_theta(case, x, p)
                    refs["tau_ref"] = oracles.conformal_tau(
                        case, x, inputs.python_expr(case.u, case.dim)(x))
                self.cases.append((label, case, refs))

    def setup(self, apm) -> None:
        germs = apm.germs
        self.germs = {}
        for label, case in inputs.SWEEP.items():
            if isinstance(case, inputs.Conformal):
                self.germs[label] = germs.conformal_flat_product_germ(case.n, case.u)
            else:
                structure = [[str(v) for v in row] for row in inputs.split_p(case.n)]
                self.germs[label] = germs.ChartGerm.from_strings(
                    case.dim, case.metric_strings(), structure, name=label)
        self.connections = {
            n: [germs.ConnectionParams.d(), germs.ConnectionParams.d_tilde(n),
                germs.ConnectionParams(1.0, 0.0)]
            for n in {case.n for case in inputs.SWEEP.values()}
        }

    def _run(self, germ, point, connections):
        frame = germ.frame(point, order=3)
        for name in FRAME_PROPERTIES:
            getattr(frame, name)
        connection_frames = []
        for params in connections:
            cf = frame.connection(params)
            for name in CONNECTION_PROPERTIES:
                getattr(cf, name)
            connection_frames.append(cf)
        return frame, connection_frames

    @staticmethod
    def _check(result, refs) -> list[str]:
        frame, connection_frames = result
        out = oracles.FrameOut(
            christoffel=frame.christoffel.values,
            curvature=frame.curvature.values,
            theta=frame.theta.values,
        )
        for cf in connection_frames:
            out.connections.append(oracles.ConnectionOut(
                cf.params.lam, cf.params.mu, cf.gamma.values, cf.curvature.values,
                float(cf.tau.values), float(cf.tau_star.values),
            ))
        return oracles.check_frame(out, **refs)

    def ops(self) -> list[Op]:
        return [
            Op(label, case.dim,
               lambda g=self.germs[label], x=refs["x"], c=self.connections[case.n]:
                   self._run(g, x, c),
               lambda result, r=refs: self._check(result, r))
            for label, case, refs in self.cases
        ]


class PTensorLab:
    """random_p_tensor and the identity checks, in dims 4, 6 and 8."""

    name = "p_tensor_lab"
    per_item = True

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        self.items = []
        for dim in inputs.LAB_DIMS:
            factor = float(rng.uniform(0.5, 2.0))
            for tensor_seed in rng.integers(0, 2**31, size=inputs.LAB_TENSORS_PER_DIM):
                self.items.append((dim, factor, int(tensor_seed)))

    def setup(self, apm) -> None:
        self.curvature = apm.curvature
        self.structures = {
            (dim, factor): apm.tensors.canonical_structure(dim, factor)
            for dim, factor, _ in self.items
        }

    def _run(self, ps, seed: int):
        curv = self.curvature
        l = curv.random_p_tensor(ps, seed)
        verdicts = {
            "is_p_tensor": curv.is_p_tensor(ps, l).passed,
            "p_slot_identities": curv.p_slot_identities(ps, l).passed,
        }
        inv = curv.curvature_invariants(ps, l)
        decomposition = None
        if ps.dim == 4:
            decomposition = curv.decompose_dim4(ps, l)
            verdicts["almost_einstein_check"] = curv.almost_einstein_check(ps, l).passed
        return l, verdicts, (inv.tau, inv.tau_star), decomposition

    @staticmethod
    def _check(result, g: np.ndarray, p: np.ndarray) -> list[str]:
        l, verdicts, invariants, decomposition = result
        return oracles.check_p_tensor(g, p, l) + oracles.check_lab_outputs(
            g, p, l, verdicts, invariants, decomposition)

    def ops(self) -> list[Op]:
        out = []
        for dim, factor, seed in self.items:
            n = dim // 2
            p = np.zeros((dim, dim))
            p[:n, n:] = p[n:, :n] = np.eye(n)
            out.append(Op(
                f"d{dim}_seed{seed}", dim,
                lambda ps=self.structures[(dim, factor)], s=seed: self._run(ps, s),
                lambda result, g=factor * np.eye(dim), p=p: self._check(result, g, p),
            ))
        return out


WORKLOADS = {w.name: w for w in (BundledSuites, FrameSweep, PTensorLab)}
