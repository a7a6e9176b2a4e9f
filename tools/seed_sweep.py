#!/usr/bin/env python3
"""One campaign config at master seeds S..S+N-1: the fail fraction and quantiles of each pass clause.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/seed_sweep.py config.json --seeds 1-20

``config.json`` is a CLI run config (see README "Command line") whose command is ``verify`` or ``predict``; its
``seed`` is ignored and each seed of ``--seeds`` is the master seed of one campaign.  ``verify`` runs
``oscillation_residual`` in regime III and ``run_experiment`` otherwise, as CLI ``verify`` does; ``predict`` runs
``predictor_backtest``.  All campaigns run in this one process, on one analysis of the law.

For every clause of the campaign's verdict the script prints the share of seeds at which the clause failed, and
the 5%, 50% and 95% quantiles over the seeds of the statistic that the clause bounds:

* ``run_experiment``: each lag's ``rel_error``, ``|skewness|`` and ``|ex_kurtosis|``;
* ``oscillation_residual``: ``median_relative_residual``, ``alternation_fraction`` (only where it is defined) and,
  for ``mean_ok``, the largest ``|centered mean| / SE`` over the critical roots (it fails above 3);
* ``predictor_backtest``: for ``beats_naive``, the ratio of the rule's MSE to the naive MSE.

``run_experiment`` also gets one line per lag for the variance z-score
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
from cmjfluct.harness import BacktestReport, VerificationReport, oscillation_residual, predictor_backtest, run_experiment
from cmjfluct.spectral import classify


def _seeds(text: str) -> range:
    """``S-E`` (inclusive) or a single seed ``S``."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def clauses(report, config) -> dict[str, tuple[float, bool | None]]:
    """Each pass clause of a campaign report on ``config``: its name, the statistic it bounds, and whether it failed.

    The report's verdict holds exactly when no clause failed.  A statistic that no clause bounds (the variance
    z-score of ``run_experiment``) comes with ``None`` in place of the flag.
    """
    if isinstance(report, VerificationReport):
        out = {}
        for r in report.rows:
            out[f"lag {r.lag} rel_error"] = (r.rel_error, not r.var_ok)
            # a constant statistic has skewness and excess kurtosis 0, so it is normal here as in the report
            out[f"lag {r.lag} |skewness|"] = (abs(r.skewness), abs(r.skewness) > config.tol_skew)
            out[f"lag {r.lag} |ex_kurtosis|"] = (abs(r.ex_kurtosis), abs(r.ex_kurtosis) > config.tol_kurt)
            z = (r.variance - r.predicted_variance) / r.variance_se if r.variance_se > 0 else math.nan
            out[f"lag {r.lag} variance z"] = (z, None)
        return out
    if isinstance(report, BacktestReport):
        ratio = report.mse_normalized / report.naive_mse_normalized if report.naive_mse_normalized > 0 else math.nan
        return {"beats_naive mse/naive": (ratio, not report.beats_naive)}
    out = {"median_relative_residual": (report.median_relative_residual,
                                        not report.median_relative_residual <= config.tol_residual)}
    if not math.isnan(report.alternation_fraction):
        out["alternation_fraction"] = (report.alternation_fraction,
                                       report.alternation_fraction < config.tol_alternation)
    z = max(abs(mu) / se if se > 0 else 0.0 for mu, se in zip(report.centered_means, report.centered_ses))
    out["mean_ok |mean|/SE"] = (z, not report.mean_ok)
    return out


def sweep(text: str, seeds) -> tuple[str, list[tuple[int, bool, dict[str, tuple[float, bool | None]]]]]:
    """Run the campaign of the CLI run config ``text`` at each master seed: its name, and per seed
    ``(seed, passed, clauses)``."""
    run_config = parse_config(text)
    if run_config.command not in ("verify", "predict"):
        raise ValueError(f"command {run_config.command!r}: a sweep runs 'verify' or 'predict'")
    base = _experiment_config(run_config)
    if run_config.command == "predict":
        name, campaign = "predictor_backtest", lambda config: predictor_backtest(config, run_config.K)
    else:
        report = classify(run_config.law)
        fn = oscillation_residual if report.regime == "III" else run_experiment
        name, campaign = fn.__name__, lambda config: fn(config, report=report)
    results = []
    for seed in seeds:
        config = dataclasses.replace(base, master_seed=seed)
        out = campaign(config)
        results.append((seed, out.beats_naive if isinstance(out, BacktestReport) else out.passed, clauses(out, config)))
    return name, results


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
