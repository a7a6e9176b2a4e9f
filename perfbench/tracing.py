"""Span tracing of the cmjfluct layers, installed from outside the package.

A :class:`Tracer` replaces public functions of the six modules with thin
wrappers that record one span per call: name, start, end, parent span and
workload id.  Where one module calls another, the wrapper goes on the name
the caller resolves at call time (``cmjfluct.harness.run``,
``cmjfluct.simulate.validate_law``, ...), so nested calls become child
spans.  :meth:`Tracer.restore` puts every original function back; nothing
under ``src/`` is edited.

Counters that the issue names (flagged roots, final grid sizes, unconverged
spectra, non-finite series, capped paths, used replicates) are read from the
return values as they pass through the wrappers.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

#: Traced functions, by defining module.  Each is wrapped in every cmjfluct
#: module whose namespace binds the same function object.
TRACED = {
    "offspring": ("validate_law", "moments"),
    "spectral": ("classify", "malthusian"),
    "limits": (
        "build_spectrum",
        "variance",
        "cov_lagged",
        "sigma2_series",
        "predictor_coeffs",
        "char_variance_full",
        "oscillation_profile",
    ),
    "simulate": (
        "run",
        "fluctuations",
        "innovations",
        "estimate_U",
        "char_total",
        "martingale_qv",
        "verify_recursion",
        "expected_counts",
        "trace_csv",
    ),
    "harness": ("run_experiment", "lag_correlation_check", "oscillation_residual", "predictor_backtest"),
    "cli": ("main",),
}

MODULES = tuple(TRACED)
CAMPAIGNS = TRACED["harness"]


def _count_result(counts: dict, name: str, result) -> None:
    if name == "spectral.classify":
        counts["spectral.flagged_roots"] += len(result.flagged)
    elif name == "limits.build_spectrum":
        if result.kind == "circle":
            counts["limits.build_spectrum.grid_points"] += result.grid_size
        counts["limits.build_spectrum.unconverged"] += not result.converged
    elif name == "limits.sigma2_series":
        counts["limits.sigma2_series.nonfinite"] += not math.isfinite(result)
    elif name == "simulate.run":
        counts["simulate.run.capped"] += result.capped
    elif name.startswith("harness."):
        counts["harness.replicates"] += result.replicates
        counts["harness.used"] += result.used


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            _count_result(self.counts, name, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function in each module namespace that binds it."""
        namespaces = [package] + [getattr(package, mod) for mod in MODULES]
        for mod in MODULES:
            for fname in TRACED[mod]:
                original = getattr(getattr(package, mod), fname)
                wrapper = self._wrap(f"{mod}.{fname}", original)
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        self._saved.append((ns, fname, original))
                        setattr(ns, fname, wrapper)

    def restore(self) -> None:
        for ns, fname, original in reversed(self._saved):
            setattr(ns, fname, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,workload\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{self.workload}\n")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = tracer.self_times()
    counts = tracer.counts
    calls: dict[str, int] = defaultdict(int)
    for name, *_ in tracer.spans:
        calls[name] += 1

    out: dict[str, tuple[float, str]] = {}
    for name in ("offspring.validate_law", "offspring.moments", "spectral.classify", "spectral.malthusian",
                 "limits.build_spectrum", "simulate.run"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (selfs[name], "s")
    run_us = [d * 1e6 for d in tracer.durations("simulate.run")]
    out["simulate.run.p50_us"] = (quantile(run_us, 0.5), "us")
    out["simulate.run.p99_us"] = (quantile(run_us, 0.99), "us")
    out["simulate.run.capped"] = (counts["simulate.run.capped"], "count")
    for fname in ("innovations", "estimate_U", "fluctuations", "char_total", "martingale_qv"):
        out[f"simulate.{fname}.self_s"] = (selfs[f"simulate.{fname}"], "s")
    out["spectral.flagged_roots"] = (counts["spectral.flagged_roots"], "count")
    out["limits.build_spectrum.grid_points"] = (counts["limits.build_spectrum.grid_points"], "count")
    out["limits.build_spectrum.unconverged"] = (counts["limits.build_spectrum.unconverged"], "count")
    for fname in ("sigma2_series", "variance", "cov_lagged", "predictor_coeffs", "char_variance_full"):
        out[f"limits.{fname}.self_s"] = (selfs[f"limits.{fname}"], "s")
    out["limits.sigma2_series.nonfinite"] = (counts["limits.sigma2_series.nonfinite"], "count")
    for campaign in CAMPAIGNS:
        out[f"harness.{campaign}.self_s"] = (selfs[f"harness.{campaign}"], "s")
    attempted = counts["harness.replicates"]
    out["harness.used_frac"] = (counts["harness.used"] / attempted if attempted else 0.0, "frac")
    out["cli.main.self_s"] = (selfs["cli.main"], "s")
    out["cli.bytes_written"] = (bytes_written, "bytes")
    for mod in MODULES:
        out[f"{mod}.self_s"] = (sum(v for k, v in selfs.items() if k.split(".")[0] == mod), "s")
    out["bench.self_s"] = (selfs["bench.pass"], "s")
    out["bench.wall_s"] = (wall_s, "s")
    out["bench.trace_overhead_s"] = (wall_s - untraced_wall_s, "s")
    out["bench.spans"] = (len(tracer.spans), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
