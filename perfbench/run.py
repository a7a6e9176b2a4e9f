#!/usr/bin/env python3
"""cmjfluct benchmark: one workload per process, closed loop, one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload gauss_campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` first measures untraced passes for ``--seconds``,
then runs one traced pass and prints the per-layer metrics; its spans are
written to ``.bench_out/``.  The last line of standard output is the result
object; the line before it records the environment and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
    "t = time.perf_counter(); import cmjfluct.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Cold import of every cmjfluct module in a fresh interpreter that has numpy loaded."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def _environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target is not None and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def _measure(workload, seconds: float) -> list:
    """Closed loop: run passes back to back until ``seconds`` have elapsed.

    At least two passes run, so every operation has a second repetition.
    After that, a pass that would likely end after 1.5 times ``seconds`` is
    not started, which bounds the run time of long passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        end = time.perf_counter()
        if len(passes) >= 2 and (end - start >= seconds or 2 * end - start - t0 > 1.5 * seconds):
            return passes


def _end_to_end(passes, setups, quantile) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes.

    Contention from other processes on a shared machine only ever slows an
    operation, in bursts of seconds to minutes.  So every operation is
    represented by its fastest repetition, and a pass by the sum of those.
    """
    best: dict = {}
    units: dict = {}
    for p in passes:
        for key, (seconds, n) in p.ops.items():
            best[key] = min(best.get(key, seconds), seconds)
            units[key] = n
    unit_keys = [k for k in best if units[k]]
    latencies = [best[k] / units[k] for k in unit_keys]
    attempted = sum(p.attempted for p in passes)
    not_ok = sum(p.defects + p.failed for p in passes)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best.values()), "s"),
        "units_per_s": (sum(units[k] for k in unit_keys) / sum(best[k] for k in unit_keys), "1/s"),
        "unit_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "unit_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "cli_s": (sum(v for k, v in best.items() if k[0] == "cli"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - not_ok / attempted, "frac"),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(passes),
        "units_per_s": len(passes) * len(unit_keys),
        "unit_p50_ms": len(latencies),
        "unit_p90_ms": len(latencies),
        "cli_s": len(passes),
        "peak_rss_mb": 1,
        "ok_frac": attempted,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cmjfluct" / "__init__.py").is_file():
        print(f"perfbench: no cmjfluct sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cmjfluct
    import cmjfluct.cli  # noqa: F401 - pulls in every module

    if pathlib.Path(cmjfluct.__file__).resolve().parent != SRC / "cmjfluct":
        print(f"perfbench: imported cmjfluct from {cmjfluct.__file__}, not {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import Tracer, layer_metrics, quantile
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", RuntimeWarning)  # overflow inside sigma2_series is counted, not printed
    workload = WORKLOADS[args.workload](cmjfluct, args.seed, OUT)

    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(import_s + time.perf_counter() - t0)

    passes = _measure(workload, args.seconds)
    metrics, samples = _end_to_end(passes, setups, quantile)
    problems = [msg for p in passes for msg in p.problems]
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    defects = sum(p.defects for p in passes)

    if args.trace:
        tracer = Tracer(args.workload)
        tracer.install(cmjfluct)
        try:
            root = tracer.open("bench.pass")
            traced = workload.run_pass()
            tracer.close(root)
        finally:
            tracer.restore()
        traced_wall = tracer.spans[root][2] - tracer.spans[root][1]
        metrics = layer_metrics(tracer, traced_wall, metrics["wall_s"]["value"], traced.cli_bytes)
        metrics["bench.fail_frac"] = {"value": (traced.defects + traced.failed) / traced.attempted, "unit": "frac"}
        samples = {"traced_passes": 1, "untraced_passes": len(passes)}
        problems += traced.problems
        failed += traced.failed
        attempted += traced.attempted
        defects += traced.defects
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")

    if hasattr(workload, "final_checks"):
        problems += workload.final_checks()
    correct = not problems and failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "samples": samples,
        "defects": defects,
        "fail_frac": (defects + failed) / attempted,
        "problems": problems[:20],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({k: report[k] for k in ("environment", "samples", "defects", "fail_frac", "problems")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
