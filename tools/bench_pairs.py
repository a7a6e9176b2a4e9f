#!/usr/bin/env python3
"""Before/after benchmark pairs: the working tree against a parent revision, written to ``BENCH_<label>.json``.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --label pr12 --seeds 1001-1010 --seconds 10

The parent revision is unpacked with ``git archive`` into a temporary directory (``.git`` is only read).  For
each workload and seed, ``perfbench/run.py --trace 0`` runs once in each checkout, each with its own
``perfbench/``; the side that runs first alternates from seed to seed.  The output file at the repository root
holds every pair's end-to-end metrics and, per workload and metric, each side's median and quartiles, the
relative change of the medians, the pairs the tree won (ties count for neither side) and a ``verdict`` (see
``_verdict``), with the direction of "better" and the bound taken from ``BENCHMARK.json``.  Each workload's
summary also counts the runs, per side, whose outputs failed the benchmark's correctness checks; if any did, the
file is still written and the script exits 1, naming the workload, seed and side of each.

Each run's record keeps the ``src_sha256`` of the source it measured, and the file's top level the tree's, taken from
the first pair.  If a later tree run measured other source (the working tree changed during the run), the file is
still written and the script exits 1, naming the first such pair.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``1001-1010`` or ``7,9,11`` (or a mix of both)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _unpack(rev: str, dest: pathlib.Path) -> str:
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        try:
            tar.extractall(dest, filter="data")
        except TypeError:  # no extraction filters before Python 3.10.12 / 3.11.4; the archive is this repository's
            tar.extractall(dest)
    return commit


def _run(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr[-2000:]}")
    environment, result = (json.loads(line) for line in out.stdout.strip().split("\n")[-2:])
    return {"correct": result["correct"], "environment": environment["environment"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _verdict(row: dict, parent: list[float], tree: list[float], bound: float) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``within_bound``, the first that holds, for one metric's pairs.

    ``gain``: the tree won at least nine tenths of the pairs and its median is better than the parent's by more
    than the parent's interquartile range.  ``regression``: the tree's median is worse than the parent's by more
    than ``bound`` times the parent's median.  ``unresolved``: the parent's interquartile range is wider than
    ``bound`` times its median, and not every tree run is better than every parent run.
    """
    sign = 1.0 if row["better"] == "higher" else -1.0
    base = row["parent"]["median"]
    gain = sign * (row["tree"]["median"] - base)
    spread = row["parent"]["q3"] - row["parent"]["q1"]
    if 10 * row["tree_wins"] >= 9 * len(parent) and gain > spread:
        return "gain"
    if gain < -bound * abs(base):
        return "regression"
    if spread > bound * abs(base) and not min(sign * t for t in tree) > max(sign * p for p in parent):
        return "unresolved"
    return "within_bound"


def _summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric of ``metrics`` (name -> its ``BENCHMARK.json`` entry): each side's quartiles, the change of the
    medians, the pairs each side won and the verdict."""
    out = {"incorrect_runs": {side: sum(not p[side]["correct"] for p in pairs) for side in ("parent", "tree")}}
    for name, metric in metrics.items():
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "tree")}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        gaps = [sign * (t - p) for p, t in zip(sides["parent"], sides["tree"])]
        row = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            row[side] = {"median": median, "q1": q1, "q3": q3}
        base = row["parent"]["median"]
        row["change"] = (row["tree"]["median"] - base) / base if base else None
        row["tree_wins"] = sum(g > 0 for g in gaps)
        row["parent_wins"] = sum(g < 0 for g in gaps)
        row["better"] = metric["better"]
        row["verdict"] = _verdict(row, sides["parent"], sides["tree"], metric["bound"])
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--label", required=True, help="the output file is BENCH_<label>.json")
    parser.add_argument("--seeds", required=True, type=_seeds, help="workload seeds, one pair each: 1001-1010")
    parser.add_argument("--seconds", required=True, type=float, help="--seconds of every perfbench run")
    parser.add_argument("--workloads", default="gauss_campaign,oscillation_paths,spectral_sweep")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {"label": args.label, "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    incorrect, moved = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = pathlib.Path(tmp)
        report["parent_commit"] = _unpack(args.parent, parent)
        for workload in args.workloads.split(","):
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(parent if side == "parent" else ROOT, workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: units_per_s {pair[side]['metrics']['units_per_s']:.6g}",
                          file=sys.stderr, flush=True)
                environment = {side: pair[side].pop("environment") for side in ("parent", "tree")}
                for side in ("parent", "tree"):
                    pair[side]["src_sha256"] = environment[side].get("src_sha256")
                report.setdefault("environment", environment)
                if report.setdefault("src_sha256", pair["tree"]["src_sha256"]) != pair["tree"]["src_sha256"]:
                    moved.append(f"{workload} seed {seed}")
                pairs.append(pair)
            report["workloads"][workload] = {"summary": _summary(pairs, metrics), "pairs": pairs}
            incorrect += [f"{workload} seed {p['seed']} {side}" for p in pairs for side in ("parent", "tree")
                          if not p[side]["correct"]]
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(path)
    if incorrect:
        print(f"{len(incorrect)} run(s) failed the correctness checks: {', '.join(incorrect)}", file=sys.stderr)
    if moved:
        print(f"the tree's source changed during the run: {moved[0]} measured src_sha256 other than the first "
              f"pair's {report['src_sha256']}", file=sys.stderr)
    return 1 if incorrect or moved else 0


if __name__ == "__main__":
    sys.exit(main())
