"""Spans and counts around apmlab's public calls, for the traced run.

``Tracer.install`` swaps each traced public function, method or cached
property for a wrapper that records into the tracer; ``Tracer.remove`` puts
every original back.  Nothing under ``src/`` is edited.

Two kinds of timers:

* stages (germ pipeline layers, P-tensor algebra) keep a span stack and
  record self time, so a stage that forces an earlier one is not charged
  for it, and nested calls into one layer are counted once;
* regions (checks, finite differences, classification, report writing)
  record inclusive time, including the stages they force.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

DIMS = (4, 6, 8)

# GermFrame / ConnectionFrame cached properties -> stage metric prefix.
FRAME_STAGES = {
    "g": "exprs.grid_ms",
    "p": "exprs.grid_ms",
    "g_inv": "jetfields.inverse_ms",
    "christoffel": "germs.christoffel_ms",
    "curvature": "germs.curvature_ms",
    **{name: "germs.lee_ms" for name in (
        "nabla_p", "f_tensor", "theta", "theta_p", "omega", "nabla_theta",
        "d_theta", "d_theta_p",
    )},
    "g_assoc": "germs.torsion_ms",
}
CONNECTION_STAGES = {
    "torsion": "germs.torsion_ms",
    "contorsion": "germs.torsion_ms",
    "gamma": "germs.torsion_ms",
    "curvature": "germs.r_prime_ms",
    "ricci": "germs.tau_ms",
    "tau": "germs.tau_ms",
    "tau_star": "germs.tau_ms",
}
IDENTITIES = (
    "is_p_tensor", "p_slot_identities", "curvature_invariants", "decompose_dim4",
    "almost_einstein_check",
)
# Checks registered in apmlab when this benchmark was written.
CHECK_NAMES = (
    "structure", "classification", "levi_civita", "curvature_like", "lee_closedness",
    "natural_connection", "curvature_relation", "p_tensor_cases", "second_bianchi",
    "scalar_system", "lee_recovery", "tau_form_closedness", "eigenclass_lee_recovery",
    "dim4_traces", "dim4_reconstruction", "dim4_round_trip", "pointwise_algebra",
)

FRAME_LAYERS = (
    "exprs.grid_ms", "jetfields.inverse_ms", "germs.christoffel_ms", "germs.curvature_ms",
    "germs.lee_ms", "germs.torsion_ms", "germs.r_prime_ms", "germs.tau_ms",
)
TENSOR_LAYERS = ("curvature.random_p_tensor_ms", "curvature.identities_ms")


def _per_dim(prefixes):
    return [f"{prefix}.d{d}" for prefix in prefixes for d in DIMS]


# Every per-layer metric, in report order: (name, unit).
PER_LAYER = (
    [(name, "ms") for name in _per_dim(FRAME_LAYERS)]
    + [(name, "count") for name in _per_dim(["jetfields.einsum_calls"])]
    + [(f"germs.frames.o{k}", "count") for k in range(4)]
    + [("germs.fd_ms", "ms")]
    + [(f"checks.{name}_ms", "ms") for name in CHECK_NAMES]
    + [("structure.classify_ms", "ms"), ("report.emit_ms", "ms")]
    + [(name, "ms") for name in _per_dim(TENSOR_LAYERS)]
    + [(name, "count") for name in _per_dim(["curvature.projection_sweeps"])]
    + [("trace.overhead_pct", "%")]
)


class Tracer:
    def __init__(self):
        self.stage_s: dict[str, float] = defaultdict(float)
        self.region_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._projecting = 0

    # -- timers ---------------------------------------------------------------

    def stage(self, key: str, fn, *args, **kwargs):
        child = [0.0]
        self._stack.append(child)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.stage_s[key] += elapsed - child[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def region(self, key: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.region_s[key] += perf_counter() - start

    # -- installation ------------------------------------------------------------

    def _setattr(self, owner, name: str, value) -> None:
        original = getattr(owner, name)
        self._undo.append(lambda: setattr(owner, name, original))
        setattr(owner, name, value)

    def _wrap_cached(self, cls, name: str, prefix: str) -> None:
        original = cls.__dict__.get(name)
        if not isinstance(original, functools.cached_property):
            return
        func = original.func

        def timed(inst):
            return self.stage(f"{prefix}.d{inst.dim}", func, inst)

        prop = functools.cached_property(timed)
        prop.__set_name__(cls, name)
        self._setattr(cls, name, prop)

    def install(self, apm) -> None:
        """Wrap the public entry points of the apmlab modules in ``apm``."""
        germs, jetfields, curvature, checks = apm.germs, apm.jetfields, apm.curvature, apm.checks
        for name, prefix in FRAME_STAGES.items():
            self._wrap_cached(germs.GermFrame, name, prefix)
        for name, prefix in CONNECTION_STAGES.items():
            self._wrap_cached(germs.ConnectionFrame, name, prefix)

        frame = germs.ChartGerm.frame

        def counted_frame(germ, point=None, order=3):
            self.counts[f"germs.frames.o{order}"] += 1
            self.counts[f"frames.d{germ.dim}"] += 1
            return frame(germ, point, order)

        self._setattr(germs.ChartGerm, "frame", counted_frame)

        einsum = jetfields.jt_einsum

        def counted_einsum(spec, a, b):
            self.counts[f"jetfields.einsum_calls.d{a.dim}"] += 1
            return einsum(spec, a, b)

        for module in (germs, jetfields):
            if getattr(module, "jt_einsum", None) is einsum:
                self._setattr(module, "jt_einsum", counted_einsum)

        for name, (fn, description) in list(checks.CHECKS.items()):
            timed = functools.partial(self.region, f"checks.{name}_ms", fn)
            self._undo.append(functools.partial(checks.CHECKS.__setitem__, name, (fn, description)))
            checks.CHECKS[name] = (timed, description)
        for name in ("d_scalar", "one_form_exterior_fd"):
            self._setattr(checks, name,
                          functools.partial(self.region, "germs.fd_ms", getattr(checks, name)))
        self._setattr(apm.structure, "classify_f",
                      functools.partial(self.region, "structure.classify_ms",
                                        apm.structure.classify_f))
        self._setattr(apm.cli, "emit_report",
                      functools.partial(self.region, "report.emit_ms", apm.cli.emit_report))

        random_p_tensor = curvature.random_p_tensor

        def traced_random_p_tensor(ps, seed, *args, **kwargs):
            self.counts[f"tensors.d{ps.dim}"] += 1
            self._projecting += 1
            try:
                return self.stage(f"curvature.random_p_tensor_ms.d{ps.dim}",
                                  random_p_tensor, ps, seed, *args, **kwargs)
            finally:
                self._projecting -= 1

        self._setattr(curvature, "random_p_tensor", traced_random_p_tensor)

        residuals = curvature.curvature_like_residuals

        def counted_residuals(l):
            if self._projecting:
                self.counts[f"curvature.projection_sweeps.d{l.shape[0]}"] += 1
            return residuals(l)

        self._setattr(curvature, "curvature_like_residuals", counted_residuals)

        for name in IDENTITIES:
            self._setattr(curvature, name, self._identity(getattr(curvature, name)))

    def _identity(self, fn):
        @functools.wraps(fn)
        def traced(ps, *args, **kwargs):
            return self.stage(f"curvature.identities_ms.d{ps.dim}", fn, ps, *args, **kwargs)

        return traced

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- metrics ---------------------------------------------------------------

    def metrics(self, passes: int, per_item: bool, scale: float) -> dict[str, float]:
        """Per-layer values over ``passes`` traced passes.

        Counts of einsum calls are per frame and projection sweeps per tensor.
        Stage times are per frame or tensor of their dimension when
        ``per_item``, otherwise per pass; every other value is per pass.
        Times are multiplied by ``scale``, the calibration of the traced passes.
        """
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {}
        for name, _unit in PER_LAYER:
            prefix, _, dim = name.rpartition(".d")
            if prefix == "jetfields.einsum_calls":
                out[name] = ratio(self.counts[name], self.counts[f"frames.d{dim}"])
            elif prefix == "curvature.projection_sweeps":
                out[name] = ratio(self.counts[name], self.counts[f"tensors.d{dim}"])
            elif prefix in FRAME_LAYERS or prefix in TENSOR_LAYERS:
                items = f"frames.d{dim}" if prefix in FRAME_LAYERS else f"tensors.d{dim}"
                den = self.counts[items] if per_item else passes
                out[name] = ratio(1000 * scale * self.stage_s[name], den)
            elif name.startswith("germs.frames."):
                out[name] = ratio(self.counts[name], passes)
            elif name != "trace.overhead_pct":
                out[name] = ratio(1000 * scale * self.region_s[name], passes)
        return out
