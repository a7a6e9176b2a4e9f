#!/usr/bin/env python3
"""One campaign config at master seeds S..S+N-1: the fail fraction and quantiles of each pass clause.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/seed_sweep.py config.json --seeds 1-20

``config.json`` is a CLI run config (see README "Command line") whose command is ``verify`` or ``predict``; its
``seed`` is ignored and each seed of ``--seeds`` is the master seed of one campaign.  ``verify`` runs
``harness.verify``, as CLI ``verify`` does; ``predict`` runs ``predictor_backtest``.  All campaigns run in this one
process.

For every clause the report lists (``report.clauses``) the script prints the share of seeds at which the clause
failed, and the 5%, 50% and 95% quantiles over the seeds of the statistic that the clause bounds.  A
``run_experiment`` report also gets one line per lag, after that lag's clauses, for the variance z-score
``(variance - predicted_variance) / variance_se``: a statistic no clause bounds, so its ``fail_frac`` reads ``-``.

The last line gives the share of seeds whose verdict failed, and lists them.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import pathlib
import sys

import numpy as np

from cmjfluct.cli import _experiment_config, parse_config
from cmjfluct.harness import BacktestReport, OscillationSummary, VerificationReport, predictor_backtest, verify

#: The campaign that gives each report type.
_CAMPAIGNS = {VerificationReport: "run_experiment", OscillationSummary: "oscillation_residual",
              BacktestReport: "predictor_backtest"}


def _seeds(text: str) -> range:
    """``S-E`` (inclusive) or a single seed ``S``."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def clauses(report) -> dict[str, tuple[float, bool | None]]:
    """Each pass clause of a campaign report: its name, the statistic it bounds, and whether it failed.

    The report's verdict holds exactly when no clause failed.  A statistic that no clause bounds (the variance
    z-score of each ``run_experiment`` lag, after that lag's clauses) comes with ``None`` in place of the flag.
    """
    if not isinstance(report, VerificationReport):
        return {name: (statistic, not ok) for name, statistic, ok in report.clauses}
    out = {}
    for r in report.rows:
        out.update((name, (statistic, not ok)) for name, statistic, ok in r.clauses)
        z = (r.variance - r.predicted_variance) / r.variance_se if r.variance_se > 0 else math.nan
        out[f"lag {r.lag} variance z"] = (z, None)
    return out


def sweep(text: str, seeds) -> tuple[str, list[tuple[int, bool, dict[str, tuple[float, bool | None]]]]]:
    """Run the campaign of the CLI run config ``text`` at each master seed: its name, and per seed
    ``(seed, passed, clauses)``."""
    run_config = parse_config(text)
    if run_config.command not in ("verify", "predict"):
        raise ValueError(f"command {run_config.command!r}: a sweep runs 'verify' or 'predict'")
    base = _experiment_config(run_config)
    campaign = verify if run_config.command == "verify" else lambda config: predictor_backtest(config, run_config.K)
    reports = [(seed, campaign(dataclasses.replace(base, master_seed=seed))) for seed in seeds]
    if not reports:
        raise ValueError("no master seeds to sweep")
    return _CAMPAIGNS[type(reports[0][1])], [(seed, out.passed, clauses(out)) for seed, out in reports]


def render(name: str, results) -> str:
    """The sweep's table: one line per clause or statistic, then the verdict."""
    lines = [f"{name}, {len(results)} seeds", f"{'clause':<28} {'fail_frac':>9} {'q05':>11} {'q50':>11} {'q95':>11}"]
    for clause in results[0][2]:
        stats = np.array([r[2][clause][0] for r in results])
        flags = [r[2][clause][1] for r in results]
        fails = "-" if flags[0] is None else f"{sum(flags) / len(results):.3f}"
        q = np.quantile(stats, [0.05, 0.5, 0.95])
        lines.append(f"{clause:<28} {fails:>9} " + " ".join(f"{v:>11.4g}" for v in q))
    failed = [seed for seed, passed, _ in results if not passed]
    lines.append(f"verdict failed at {len(failed) / len(results):.3f} of seeds: {', '.join(map(str, failed)) or '-'}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="path to a CLI run config whose command is verify or predict")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-20"), help="master seeds S-E (default 1-20)")
    args = parser.parse_args(argv)
    name, results = sweep(pathlib.Path(args.config).read_text(), args.seeds)
    sys.stdout.write(render(name, results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
