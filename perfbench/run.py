"""apmlab benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload <bundled_suites|frame_sweep|p_tensor_lab>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; apmlab is imported from ``src/``.  The
workload runs whole passes of the same operations until ``--seconds`` have
passed, each operation timed alone and its output checked by the oracles in
``oracles.py``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes run under the wrappers of
``tracing.py``, and reports the per-layer metrics.  The line before the result
holds the workload's own named metrics and the run environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter

# Pinned before numpy loads, so BLAS and OpenMP start no worker threads.
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Fresh set-ups per run; setup_s is their median.
SETUPS = 9
APMLAB_MODULES = ("cli", "checks", "curvature", "germs", "jetfields", "structure", "tensors")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Apmlab:
    """Handles on the apmlab modules of one set-up."""

    def __init__(self):
        for name in APMLAB_MODULES:
            setattr(self, name, importlib.import_module(f"apmlab.{name}"))


class Kernel:
    """A fixed calibration kernel: small einsums, inverses and dict work.

    Its mix of interpreter work and small numpy calls resembles apmlab's.  On
    a shared machine whose speed swings by up to 2x, its time and apmlab's
    move together to within 2-9% (see README).  Each operation's wall time is
    scaled by ``REFERENCE_S`` over the kernel's median time in the same pass.
    """

    REFERENCE_S = 0.002

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.uniform(-1, 1, (6, 6, 6, 6))
        self.b = rng.uniform(-1, 1, (6, 6))
        self.m = self.b @ self.b.T + 6 * np.eye(6)
        self.np = np

    def __call__(self) -> float:
        np = self.np
        start = perf_counter()
        acc = 0.0
        for _ in range(60):
            acc += float(np.einsum("ijkl,lm->ijkm", self.a, self.b)[0, 0, 0, 0])
            acc += float(np.linalg.inv(self.m)[0, 0])
            acc += sum({k: 0.5 * k for k in range(100)}.values())
        return perf_counter() - start


@dataclass
class Pass:
    """Wall times (label, dim, seconds) of one pass and the kernel's median time in it."""

    times: list[tuple[str, int, float]]
    kernel_s: float

    @property
    def scale(self) -> float:
        return Kernel.REFERENCE_S / self.kernel_s

    def total(self, calibrated: bool = True) -> float:
        return sum(t for _, _, t in self.times) * (self.scale if calibrated else 1.0)


def fresh_setup(workload, baseline: set[str], kernel: Kernel) -> tuple[float, Apmlab]:
    """Drop every module imported since ``baseline``, re-import apmlab, set up.

    Returns the calibrated set-up time and the apmlab modules.
    """
    for name in [m for m in sys.modules if m not in baseline]:
        del sys.modules[name]
    kernel_s = statistics.median(kernel() for _ in range(3))
    start = perf_counter()
    apm = Apmlab()
    workload.setup(apm)
    return (perf_counter() - start) * Kernel.REFERENCE_S / kernel_s, apm


def run_pass(ops, outcome: dict, kernel: Kernel) -> Pass:
    """Time each operation, with a kernel timing before each, then check its output."""
    times, kernel_s = [], [kernel()]
    for op in ops:
        outcome["attempted"] += 1
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash fails the operation, the run goes on
            outcome["failed"] += 1
            outcome["problems"].append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            elapsed = perf_counter() - start
            kernel_s.append(kernel())
        times.append((op.label, op.dim, elapsed))
        problems = op.check(result)
        if problems:
            outcome["failed"] += 1
            outcome["wrong"] += 1
            outcome["problems"].append(f"{op.label}: {'; '.join(problems)}")
    return Pass(times, statistics.median(kernel_s))


def run_until(ops, seconds: float, outcome: dict, kernel: Kernel) -> list[Pass]:
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        gc.collect()
        passes.append(run_pass(ops, outcome, kernel))
    return passes


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """The BENCHMARK.json end-to-end metrics: calibrated medians, plus peak memory."""
    def dim_mean_ms(dim):
        return median(1000 * p.scale * statistics.fmean(ts) for p in passes
                      if (ts := [t for _, d, t in p.times if d == dim]))

    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (median(p.total() for p in passes), "s"),
        "d4_ms": (dim_mean_ms(4), "ms"),
        "d6_ms": (dim_mean_ms(6), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def named_metrics(workload_name: str, passes: list[Pass]) -> dict:
    """suite_s and scenario_s.*, frame_ms.dN or p_tensor_ms.dN: calibrated medians,
    with the uncalibrated wall-clock median and the sample count beside each."""
    samples: dict[str, list[tuple[float, float]]] = {}
    for p in passes:
        if workload_name == "bundled_suites":
            samples.setdefault("suite_s", []).append((p.total(), p.total(False)))
            for label, _, t in p.times:
                samples.setdefault(f"scenario_s.{label}", []).append((p.scale * t, t))
        else:
            prefix = "frame_ms" if workload_name == "frame_sweep" else "p_tensor_ms"
            for _, dim, t in p.times:
                samples.setdefault(f"{prefix}.d{dim}", []).append(
                    (1000 * p.scale * t, 1000 * t))
    return {
        name: {"value": median(v for v, _ in pairs), "wall": median(w for _, w in pairs),
               "unit": "s" if name.startswith(("suite_s", "scenario_s")) else "ms",
               "samples": len(pairs)}
        for name, pairs in samples.items()
    }


def environment() -> dict:
    import numpy as np

    with open("/proc/self/status") as fh:
        threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python_threads": threading.active_count(),
        "os_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bundled_suites", "frame_sweep", "p_tensor_lab"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "apmlab", "__init__.py")):
        print(f"error: apmlab sources not found under {SRC}", file=sys.stderr)
        return 2
    for key in THREAD_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, SRC)

    import numpy  # noqa: F401  (loaded once, before the set-up baseline)

    import tracing
    import workloads

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.workload == "bundled_suites":
            workload = workloads.BundledSuites(args.seed, out_dir)
        else:
            workload = workloads.WORKLOADS[args.workload](args.seed)
        kernel = Kernel()
        baseline = set(sys.modules)
        setups = [fresh_setup(workload, baseline, kernel) for _ in range(SETUPS)]
        setup_s = median(seconds for seconds, _ in setups)
        apm = setups[-1][1]
        ops = workload.ops()
        outcome = {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}
        run_pass(ops, {"attempted": 0, "failed": 0, "wrong": 0, "problems": []}, kernel)

        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": environment(), "ops_per_pass": len(ops)}
        if args.trace:
            # Untraced and traced passes alternate, so the overhead estimate
            # compares passes run at the same machine speed.
            tracer = tracing.Tracer()
            untraced, traced = [], []
            deadline = perf_counter() + args.seconds
            while not traced or perf_counter() < deadline:
                gc.collect()
                untraced.append(run_pass(ops, outcome, kernel))
                tracer.install(apm)
                try:
                    traced.append(run_pass(ops, outcome, kernel))
                finally:
                    tracer.remove()
            scale = median(p.scale for p in traced)
            layers = tracer.metrics(len(traced), workload.per_item, scale)
            before = median(p.total() for p in untraced)
            layers["trace.overhead_pct"] = 100 * (median(p.total() for p in traced) / before - 1)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in tracing.PER_LAYER}
            detail.update(untraced_passes=len(untraced), traced_passes=len(traced))
        else:
            passes = run_until(ops, args.seconds, outcome, kernel)
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in end_to_end(passes, setup_s).items()}
            detail.update(
                passes=len(passes),
                kernel_ms=median(1000 * p.kernel_s for p in passes),
                wall_pass_s=median(p.total(False) for p in passes),
                metrics=named_metrics(args.workload, passes),
            )
        detail["problems"] = outcome["problems"][:20]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({
        "correct": outcome["wrong"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
