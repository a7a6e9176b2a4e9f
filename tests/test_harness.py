"""Tests for the Monte Carlo verification harness.

Fixed master seeds throughout; every tolerance below was sized against a
separately measured true value so the assertions hold with >= 3 sigma of
Monte Carlo margin.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import tracemalloc
import types

import numpy as np
import pytest

from cmjfluct import harness, simulate, spectral
from cmjfluct.cli import parse_config
from cmjfluct.errors import RefusalError
from cmjfluct.harness import (
    ExperimentConfig,
    lag_correlation_check,
    oscillation_residual,
    predictor_backtest,
    run_experiment,
)
from cmjfluct.limits import build_spectrum, oscillation_profile, predictor_coeffs
from cmjfluct.offspring import make_law, moments
from cmjfluct.simulate import Trace, fluctuations, run
from cmjfluct.spectral import classify


# ---------------------------------------------------------------- config


def test_config_rejects_too_few_replicates(gw13):
    with pytest.raises(ValueError):
        ExperimentConfig(law=gw13, horizon=10, replicates=99, master_seed=0)


def test_config_rejects_short_horizon(law_ii):
    # law_ii has max age 2, so the horizon must be at least 4
    with pytest.raises(ValueError):
        ExperimentConfig(law=law_ii, horizon=3, replicates=100, master_seed=0)


def test_config_rejects_bad_lags(gw13):
    with pytest.raises(ValueError):
        ExperimentConfig(law=gw13, horizon=10, replicates=100, master_seed=0, lags=())
    with pytest.raises(ValueError):
        ExperimentConfig(law=gw13, horizon=10, replicates=100, master_seed=0, lags=(1, -1))


def test_config_rejects_a_lag_past_the_horizon(law_ii):
    # a lag-30 statistic at horizon 24 would read Z_{-6} as zero counts
    assert ExperimentConfig(law_ii, 24, 100, 0, lags=(24,)).lags == (24,)
    with pytest.raises(ValueError, match=re.escape("lags[1] = 30 is outside [0, 24]")):
        ExperimentConfig(law_ii, 24, 100, 0, lags=(1, 30))


def test_config_rejects_a_horizon_past_the_engine_bound(gw13):
    # the batch engine allocates its birth schedule for the whole horizon; constructing the config allocates nothing
    assert ExperimentConfig(gw13, simulate._MAX_HORIZON, 100, 0).horizon == simulate._MAX_HORIZON
    for horizon in (simulate._MAX_HORIZON + 1, 10**400):
        with pytest.raises(ValueError, match=f"horizon = {horizon}: exceeds {simulate._MAX_HORIZON}"):
            ExperimentConfig(gw13, horizon, 100, 0)


def test_config_rejects_a_campaign_past_the_cell_budget(gw13, law_ii):
    # a campaign keeps replicates x (horizon + 1) totals; constructing the config allocates nothing
    assert harness._MAX_CELLS == 10**6 * 25
    assert ExperimentConfig(gw13, 24, 10**6, 0).replicates == 10**6
    assert ExperimentConfig(gw13, 12, 200_000, 0).replicates == 200_000  # the largest campaign in this suite
    for horizon, replicates in ((25, 10**6), (24, 10**9)):
        with pytest.raises(ValueError, match=rf"replicates \* \(horizon \+ 1\) = {replicates * (horizon + 1)} exceeds"):
            ExperimentConfig(law_ii, horizon, replicates, 0)


@pytest.fixture
def no_spectrum(monkeypatch):
    """Make building a spectrum fail the test: a campaign refused by its lag or order must fault before it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a campaign refused by its lag or order built a spectrum")

    monkeypatch.setattr(harness, "build_spectrum", refuse)


def test_config_rejects_a_lag_past_the_lag_bound(law_i, no_spectrum):
    # the lag table grows as the square of the largest lag, so a library campaign keeps the CLI's bound
    assert ExperimentConfig(law_i, 300, 100, 0, lags=(spectral._MAX_LAG,)).lags == (spectral._MAX_LAG,)
    with pytest.raises(ValueError, match=re.escape(f"lags[1] = 257 is outside [0, {spectral._MAX_LAG}]")):
        ExperimentConfig(law_i, 300, 100, 0, lags=(1, 257))


def test_backtest_refuses_an_order_past_the_lag_bound(law_i, no_spectrum):
    # K = 257 is within the horizon, but its predictor would need a lag table over lags -1..512
    with pytest.raises(ValueError, match=re.escape(f"K = 257 is outside [0, {spectral._MAX_LAG}]")):
        predictor_backtest(ExperimentConfig(law_i, 300, 100, 0), 257)


def test_lag_check_refuses_a_bad_lag_before_it_analyses_the_law(gw13, law_i, law_ii, no_spectrum):
    # k = -1 once read a total past the horizon (an IndexError); k, an ell or an order K past 256 would ask for a
    # k x k table.  Each campaign argument is probed one past either end of its range, which is refused by name, and
    # at both ends, which get as far as the law's analysis (where no_spectrum stops them).
    long, short = ExperimentConfig(gw13, 300, 200, 0), ExperimentConfig(gw13, 12, 200, 0)
    backtest, short_backtest = ExperimentConfig(law_i, 300, 100, 0), ExperimentConfig(law_ii, 4, 100, 0)
    cases = [
        (lag_correlation_check, (long, -1, [1]), "k = -1 is outside [0, 256]"),
        (lag_correlation_check, (long, 257, [1]), "k = 257 is outside [0, 256]"),
        (lag_correlation_check, (long, 0, [1]), None),
        (lag_correlation_check, (long, 256, [0]), None),
        (lag_correlation_check, (short, 12, [0]), None),
        (lag_correlation_check, (long, 1, [-1]), "ell_list[0] = -1 is outside [0, 256]"),
        (lag_correlation_check, (long, 1, [2, 257]), "ell_list[1] = 257 is outside [0, 256]"),
        (lag_correlation_check, (long, 1, [0, 256]), None),
        (lag_correlation_check, (short, 2, [1, 11]), "ell_list[1] = 11 is outside [0, 10]"),
        (lag_correlation_check, (short, 2, [10]), None),
        (predictor_backtest, (backtest, -1), "K = -1 is outside [0, 256]"),
        (predictor_backtest, (backtest, 257), "K = 257 is outside [0, 256]"),
        (predictor_backtest, (backtest, 0), None),
        (predictor_backtest, (backtest, 256), None),
        (predictor_backtest, (short_backtest, 5), "K = 5 is outside [0, 4]"),
        (predictor_backtest, (short_backtest, 4), None),
    ]
    for campaign, args, message in cases:
        with pytest.raises(ValueError if message else AssertionError, match=re.escape(message or "built a spectrum")):
            campaign(*args)


def test_lag_check_refuses_an_empty_ell_list_by_name(gw13, no_spectrum, monkeypatch):
    # the refusal names the argument, where the largest ell of an empty list would not; classify must not run
    monkeypatch.setattr(harness, "classify", None)
    with pytest.raises(ValueError, match="ell_list is empty: need at least one lag ell"):
        lag_correlation_check(ExperimentConfig(gw13, 12, 200, 0), 1, [])


@pytest.fixture
def sized(gw13, law_i, law_ii, law_iii):
    """Inputs for the range probes below, built before a probe so that it allocates only what its call does."""
    report_iii = classify(law_iii)
    return types.SimpleNamespace(
        gw13=gw13,
        law_i=law_i,
        law_ii=law_ii,
        tab=moments(gw13),
        trace=run(gw13, 12, 0),
        trace25=run(gw13, 25, 0),
        long=Trace(cohort_atoms=((1,),) * 301, litters=((0, 1),), seed=0, cap=1 << 62, capped=False),  # B_n = 1
        estimate_U=functools.partial(
            simulate.estimate_U, run(law_iii, 8, 0), moments(law_iii), report_iii, report_iii.gamma_crit[0]
        ),
        report_iii=report_iii,
        U=np.zeros(len(report_iii.gamma_crit)),
    )


# Each argument one past either end of its range, refused by name, and at both ends, accepted (message None); the
# three windows that once took any size are probed far past their ends too.  A window 0..trunc ends at K + 256: 257 for
# gw13, 258 for law_iii.
_SIZES = {
    "expected_counts": (lambda s: simulate.expected_counts(s.gw13, -1), "horizon = -1 is outside [0, inf]"),
    "expected_counts-horizon=0": (lambda s: simulate.expected_counts(s.gw13, 0), None),
    "ExperimentConfig-lags=-1": (lambda s: ExperimentConfig(s.law_ii, 24, 100, 0, lags=(1, -1)),
                                 "lags[1] = -1 is outside [0, 24]"),
    "ExperimentConfig-lags=25": (lambda s: ExperimentConfig(s.law_ii, 24, 100, 0, lags=(25,)),
                                 "lags[0] = 25 is outside [0, 24]"),
    "ExperimentConfig-lags=0,24": (lambda s: ExperimentConfig(s.law_ii, 24, 100, 0, lags=(0, 24)), None),
    "ExperimentConfig-lags=257": (lambda s: ExperimentConfig(s.law_i, 300, 100, 0, lags=(257,)),
                                  "lags[0] = 257 is outside [0, 256]"),
    "ExperimentConfig-lags=256": (lambda s: ExperimentConfig(s.law_i, 300, 100, 0, lags=(256,)), None),
    "lag_correlation_check": (lambda s: lag_correlation_check(ExperimentConfig(s.gw13, 12, 200, 0), 13, [0]),
                              "k = 13 is outside [0, 12]"),
    "fluctuations-k_min=-13": (lambda s: fluctuations(s.trace, 2.0, -13, 0), "k_min = -13 is outside [-12, 256]"),
    "fluctuations-k_min=-12": (lambda s: fluctuations(s.trace, 2.0, -12, 0), None),
    "fluctuations-k_min=-257": (lambda s: fluctuations(s.long, 1.0, -257, 0), "k_min = -257 is outside [-256, 256]"),
    "fluctuations-k_min=-256": (lambda s: fluctuations(s.long, 1.0, -256, 0), None),
    "fluctuations-k_min=257": (lambda s: fluctuations(s.trace, 2.0, 257, 257), "k_min = 257 is outside [-12, 256]"),
    "fluctuations-k_min=256": (lambda s: fluctuations(s.trace, 2.0, 256, 256), None),
    "fluctuations-k_max=2": (lambda s: fluctuations(s.trace, 2.0, 3, 2), "k_max = 2 is outside [3, 256]"),
    "fluctuations-k_max=3": (lambda s: fluctuations(s.trace, 2.0, 3, 3), None),
    "fluctuations-k_max=257": (lambda s: fluctuations(s.trace, 2.0, 0, 257), "k_max = 257 is outside [0, 256]"),
    "fluctuations-k_max=256": (lambda s: fluctuations(s.trace, 2.0, 0, 256), None),
    "fluctuations-k_max=10**6": (lambda s: fluctuations(s.trace, 2.0, 0, 10**6), "k_max = 1000000 is outside [0, 256]"),
    "estimate_U-n0=-1": (lambda s: s.estimate_U(-1), "n0 = -1 is outside [0, 8]"),
    "estimate_U-n0=9": (lambda s: s.estimate_U(9), "n0 = 9 is outside [0, 8]"),
    "estimate_U-n0=0": (lambda s: s.estimate_U(0), None),
    "estimate_U-n0=8": (lambda s: s.estimate_U(8), None),
    "martingale_qv-n=-1": (lambda s: simulate.martingale_qv(s.trace, s.tab, {1: 1.0}, -1), "n = -1 is outside [0, 12]"),
    "martingale_qv-n=13": (lambda s: simulate.martingale_qv(s.trace, s.tab, {1: 1.0}, 13), "n = 13 is outside [0, 12]"),
    "martingale_qv-n=0": (lambda s: simulate.martingale_qv(s.trace, s.tab, {1: 1.0}, 0), None),
    "martingale_qv-n=12": (lambda s: simulate.martingale_qv(s.trace, s.tab, {1: 1.0}, 12), None),
    "martingale_qv-lag=-1": (lambda s: simulate.martingale_qv(s.trace, s.tab, {-1: 1.0}, 12),
                             "lag = -1 is outside [0, 256]"),
    "martingale_qv-lag=257": (lambda s: simulate.martingale_qv(s.trace, s.tab, {1: 1.0, 257: 1.0}, 12),
                              "lag = 257 is outside [0, 256]"),
    "martingale_qv-lag=0,256": (lambda s: simulate.martingale_qv(s.trace, s.tab, {0: 1.0, 256: 1.0}, 12), None),
    "martingale_qv-zero_at_300": (lambda s: simulate.martingale_qv(s.trace, s.tab, {300: 0.0, 1: 1.0}, 12), None),
    "verify_recursion": (lambda s: simulate.verify_recursion(s.trace, s.tab, 2.0, -1, 8),
                         "n_small = -1 is outside [0, 12]"),
    "verify_recursion-n_small=13": (lambda s: simulate.verify_recursion(s.trace, s.tab, 2.0, 13, 40),
                                    "n_small = 13 is outside [0, 12]"),
    "verify_recursion-n_small=21": (lambda s: simulate.verify_recursion(s.trace25, s.tab, 2.0, 21, 40),
                                    "n_small = 21 is outside [0, 20]"),
    "verify_recursion-n_small=0": (lambda s: simulate.verify_recursion(s.trace25, s.tab, 2.0, 0, 21), None),
    "verify_recursion-n_small=20": (lambda s: simulate.verify_recursion(s.trace25, s.tab, 2.0, 20, 21), None),
    "verify_recursion-trunc=10": (lambda s: simulate.verify_recursion(s.trace, s.tab, 2.0, 10, 10),
                                  "trunc = 10 is outside [11, 257]"),
    "verify_recursion-trunc=258": (lambda s: simulate.verify_recursion(s.trace, s.tab, 2.0, 10, 258),
                                   "trunc = 258 is outside [11, 257]"),
    "verify_recursion-trunc=11": (lambda s: simulate.verify_recursion(s.trace, s.tab, 2.0, 10, 11), None),
    "verify_recursion-trunc=257": (lambda s: simulate.verify_recursion(s.trace, s.tab, 2.0, 10, 257), None),
    "verify_recursion-trunc=10**5": (lambda s: simulate.verify_recursion(s.trace25, s.tab, 2.0, 10, 10**5),
                                     "trunc = 100000 is outside [11, 257]"),
    "oscillation_profile": (lambda s: oscillation_profile(s.report_iii, s.U, 3, -1), "trunc = -1 is outside [0, 258]"),
    "oscillation_profile-trunc=259": (lambda s: oscillation_profile(s.report_iii, s.U, 3, 259),
                                      "trunc = 259 is outside [0, 258]"),
    "oscillation_profile-trunc=0": (lambda s: oscillation_profile(s.report_iii, s.U, 3, 0), None),
    "oscillation_profile-trunc=258": (lambda s: oscillation_profile(s.report_iii, s.U, 3, 258), None),
    "oscillation_profile-trunc=10**6": (lambda s: oscillation_profile(s.report_iii, s.U, 3, 10**6),
                                        "trunc = 1000000 is outside [0, 258]"),
}


@pytest.mark.parametrize("call, message", _SIZES.values(), ids=_SIZES)
def test_bad_sizes_are_refused_by_name(sized, call, message):
    if message is None:
        call(sized)
        return
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            call(sized)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before anything is allocated for the value


def test_config_refuses_a_tolerance_no_campaign_can_meet(gw13):
    names = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name.startswith("tol_")]
    for name in names:
        for value in (-0.1, math.nan):
            with pytest.raises(ValueError, match=f"{name} = {value}: a tolerance must be a number >= 0"):
                ExperimentConfig(gw13, 8, 100, 0, **{name: value})
        assert getattr(ExperimentConfig(gw13, 8, 100, 0, **{name: 0.0}), name) == 0.0
    with pytest.raises(ValueError, match="tol_alternation = 1.01 exceeds 1"):
        ExperimentConfig(gw13, 8, 100, 0, tol_alternation=1.01)
    assert ExperimentConfig(gw13, 8, 100, 0, tol_alternation=1.0).tol_alternation == 1.0


def test_config_regime_three_tolerances_are_the_cli_defaults():
    assert (ExperimentConfig.tol_residual, ExperimentConfig.tol_alternation) == (0.15, 0.90)
    parsed = parse_config(json.dumps({"command": "analyze", "law": {"atoms": [{"prob": 1.0, "births": [2]}]}}))
    tolerances = dict(parsed.tolerances)
    assert (tolerances["residual"], tolerances["alternation"]) == (0.15, 0.90)


# ---------------------------------------------------- run_experiment


def test_regime_one_experiment_matches_prediction(gw13):
    """At n = 18 the lag-1 and lag-2 statistics are close to their normal limits.

    Measured true values at n = 18: skew <= 0.02 and excess kurtosis <= 0.05
    at both lags.  The sample kurtosis is heavy-tailed, so R = 20000 is needed
    for the default tolerances to hold at every seed (checked at master seeds
    1-200 and 5150: worst |skew| 0.067, worst |ex kurt| 0.21).
    """
    config = ExperimentConfig(
        law=gw13, horizon=18, replicates=20000, master_seed=5150, lags=(1, 2)
    )
    report = run_experiment(config)
    assert report.regime == "I"
    assert report.used == 20000
    assert report.excluded_capped == 0
    assert report.rows[0].predicted_variance == pytest.approx(0.125, abs=1e-10)
    assert report.rows[0].rel_error < 0.10
    assert report.passed


def test_regime_one_lag_two_transient_exceeds_normality_tolerance(gw13):
    """At n = 12 the lag-2 statistic is skewed beyond the default tolerance.

    Its true skew is ~0.177 (excess kurtosis ~0.38) against 0.15 (0.30);
    at R = 200000 the sample skew stayed above 0.16 at master seeds 1-30 and 5150.
    The experiment must report the failure rather than mask it.
    """
    config = ExperimentConfig(
        law=gw13, horizon=12, replicates=200000, master_seed=5150, lags=(1, 2)
    )
    report = run_experiment(config)
    row = report.rows[1]
    assert row.lag == 2
    assert row.skewness > config.tol_skew
    assert not row.normal_ok
    assert not report.passed


def test_regime_two_experiment_passes_at_long_horizon(law_ii):
    """At n = 24 the regime-II transient (~1 + 2.3/n) sits inside 25%."""
    config = ExperimentConfig(
        law=law_ii, horizon=24, replicates=2000, master_seed=424, lags=(1,), tol_var=0.25
    )
    report = run_experiment(config)
    assert report.regime == "II"
    assert report.rows[0].predicted_variance == pytest.approx(1.0 / 192.0, rel=1e-10)
    # the finite-n variance approaches the limit from above
    assert report.rows[0].variance > report.rows[0].predicted_variance
    assert report.passed


def test_regime_two_short_horizon_transient_exceeds_tolerance(law_ii):
    """At n = 10 the true normalized variance is ~1.23x the limit.

    This pins the measured fact that no seed brings the n = 10 run inside 15%;
    the experiment must report the failure rather than mask it.
    """
    config = ExperimentConfig(
        law=law_ii, horizon=10, replicates=5000, master_seed=424, lags=(1,), tol_var=0.15
    )
    report = run_experiment(config)
    row = report.rows[0]
    assert row.variance > row.predicted_variance
    assert row.rel_error > 0.15
    assert not row.var_ok
    assert not report.passed


def test_deterministic_law_statistics_vanish(det_gw):
    config = ExperimentConfig(law=det_gw, horizon=8, replicates=100, master_seed=1)
    report = run_experiment(config)
    row = report.rows[0]
    assert row.variance == 0.0
    assert row.skewness == 0.0
    assert row.ex_kurtosis == 0.0
    assert row.predicted_variance == pytest.approx(0.0, abs=1e-12)
    assert row.var_ok and row.normal_ok
    assert report.passed


def test_run_experiment_refuses_regime_three(law_iii):
    config = ExperimentConfig(law=law_iii, horizon=10, replicates=100, master_seed=0)
    with pytest.raises(RefusalError):
        run_experiment(config)


def test_run_experiment_refuses_non_simple_critical_root(nonsimple_ii):
    config = ExperimentConfig(law=nonsimple_ii, horizon=12, replicates=100, master_seed=0)
    with pytest.raises(RefusalError):
        run_experiment(config)


def test_regime_one_double_secondary_root_is_verified():
    """``1 - mu_hat = -(4z - 1)(z + 1)^2``: m = 4 and a double root at -1, off the circle ``|z| = 1/2``.

    Regime I, whatever the multiplicity of a root off the circle, so the Gaussian limit is verified, not
    refused.  Over master seeds 1-20 every campaign passed, with relative variance errors up to 0.033 and
    |skew| or |excess kurtosis| up to 0.118; at R = 2000 one seed in 20 failed at relative error 0.1016.
    """
    law = make_law([(0.5, (1, 7, 4)), (0.5, (3, 7, 4))])
    spectral = classify(law)
    assert spectral.regime == "I" and spectral.non_simple
    for seed in range(1, 4):
        report = run_experiment(
            ExperimentConfig(law=law, horizon=14, replicates=10_000, master_seed=seed, lags=(1, 2, 3))
        )
        assert report.regime == "I" and report.used == 10_000
        assert report.passed


def test_report_serialization_round(det_gw):
    config = ExperimentConfig(law=det_gw, horizon=8, replicates=100, master_seed=1)
    report = run_experiment(config)
    text = report.to_text()
    assert "passed = true" in text
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("lag,mean,")
    assert len(lines) == 1 + len(report.rows)


# ------------------------------------------------ lag correlations


def test_lag_zero_correlation_is_one(gw13):
    config = ExperimentConfig(law=gw13, horizon=8, replicates=200, master_seed=3)
    table = lag_correlation_check(config, 1, [0])
    assert table.rows[0].predicted == 1.0
    assert table.rows[0].empirical == pytest.approx(1.0, abs=1e-12)


def test_regime_two_lag_correlations_alternate(law_ii):
    """Single negative atom: corr at lag ell is exactly (-1)^ell in the limit."""
    config = ExperimentConfig(
        law=law_ii, horizon=24, replicates=2000, master_seed=515, lags=(1,)
    )
    table = lag_correlation_check(config, 1, [1, 2])
    assert table.rows[0].predicted == pytest.approx(-1.0, abs=1e-12)
    assert table.rows[1].predicted == pytest.approx(1.0, abs=1e-12)
    assert abs(table.rows[0].empirical - (-1.0)) < 0.1
    assert abs(table.rows[1].empirical - 1.0) < 0.1


def test_regime_one_long_lag_correlation_decays(gw13):
    config = ExperimentConfig(law=gw13, horizon=14, replicates=5000, master_seed=777, lags=(1,))
    table = lag_correlation_check(config, 1, [12])
    assert abs(table.rows[0].predicted) < 0.05
    assert abs(table.rows[0].empirical) < 0.1


def test_lag_check_input_faults(gw13, law_iii):
    config = ExperimentConfig(law=gw13, horizon=8, replicates=100, master_seed=3)
    with pytest.raises(ValueError):
        lag_correlation_check(config, 1, [-1])
    with pytest.raises(ValueError):
        lag_correlation_check(config, 1, [8])  # n - ell - k < 0
    bad = ExperimentConfig(law=law_iii, horizon=10, replicates=100, master_seed=3)
    with pytest.raises(RefusalError):
        lag_correlation_check(bad, 1, [1])


# ---------------------------------------------------- oscillations


def test_oscillation_summary_tracks_profile(law_iii):
    config = ExperimentConfig(
        law=law_iii, horizon=20, replicates=500, master_seed=62, lags=(1, 2, 3)
    )
    summary = oscillation_residual(config)
    assert summary.regime == "III"
    assert summary.used == 500
    assert summary.median_relative_residual < 0.05
    assert summary.alternation_fraction >= 0.95
    assert summary.mean_ok
    assert not summary.degenerate
    assert summary.passed


def test_oscillation_degenerate_law_flagged():
    # deterministic litters: the litter transform carries no noise at the root
    law = make_law([(1.0, (1, 9))])
    config = ExperimentConfig(law=law, horizon=16, replicates=100, master_seed=7, lags=(1, 2))
    summary = oscillation_residual(config)
    assert summary.degenerate
    assert summary.centered_means == (0.0 + 0.0j,)
    assert summary.centered_ses == (0.0,)
    assert summary.mean_ok
    # the value-profile still tracks the (deterministic) rescaled errors
    assert summary.median_relative_residual < 1e-6


def test_oscillation_refuses_other_regimes(gw13, law_ii, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    monkeypatch.setattr(harness, "_counts", no_simulation)
    for law in (gw13, law_ii):
        config = ExperimentConfig(law=law, horizon=10, replicates=100, master_seed=0)
        with pytest.raises(RefusalError):
            oscillation_residual(config)


def test_oscillation_summary_on_a_complex_critical_pair():
    """m = 3 with critical roots -1/4 +- 0.433i: the profile sums a conjugate pair and nothing alternates.

    Over master seeds 1-20 the median relative residual stays within 0.0126-0.0154 and every coefficient mean
    lies within 3 SE of zero; the bound 0.03 is twice the largest.
    """
    law = make_law([(0.5, (0, 2, 12)), (0.5, (2, 2, 12))])
    assert len(classify(law).gamma_crit) == 2
    for seed in range(1, 6):
        summary = oscillation_residual(
            ExperimentConfig(law=law, horizon=16, replicates=500, master_seed=seed, lags=(1, 2, 3))
        )
        assert summary.used == 500
        assert summary.median_relative_residual < 0.03
        assert summary.mean_ok
        assert math.isnan(summary.alternation_fraction)
        assert not summary.degenerate
        assert summary.passed
    # a nan alternation fraction is not judged, however high the alternation tolerance
    strict = ExperimentConfig(law=law, horizon=16, replicates=500, master_seed=1, lags=(1, 2, 3), tol_alternation=1.0)
    assert oscillation_residual(strict).passed


@pytest.mark.parametrize(
    "atoms, horizon",
    [([(0.5, (0, 9)), (0.5, (2, 9))], 32), ([(0.5, (0, 2, 12)), (0.5, (2, 2, 12))], 36)],
    ids=("law_iii", "complex_pair"),
)
def test_oscillation_campaign_past_float64_integers_completes(atoms, horizon):
    """Births past 2^53, where float64 rounds the counts, must not fault the campaign.

    At master seed 5 every replicate's births reach about 2^56 by these horizons.  A float64 re-check of
    ``W_n = sum_k W_{n-k,k}`` against a cohort matrix once faulted here on rounding alone (at n = 30 and
    n = 36); the campaign now forms ``W`` from births only, and every replicate is used.
    """
    summary = oscillation_residual(ExperimentConfig(make_law(atoms), horizon, 200, 5))
    assert summary.used == 200


# ------------------------------------------------------- backtest


def test_backtest_regime_two_single_atom(law_ii):
    """K = 1 on the two-age coin law projects exactly: predicted residual 0.

    The empirical MSE then carries only the finite-n transient (~1/n), which
    must sit within 20% of the larger of residual and naive target scales.
    """
    config = ExperimentConfig(law=law_ii, horizon=24, replicates=500, master_seed=99, lags=(1,))
    report = predictor_backtest(config, 1)
    assert report.regime == "II"
    assert report.predicted_residual_sq == pytest.approx(0.0, abs=1e-12)
    assert report.predicted_target_sq == pytest.approx(1.0 / 3.0, rel=1e-10)
    scale = max(report.predicted_residual_sq, report.predicted_target_sq)
    assert abs(report.mse_normalized - report.predicted_residual_sq) <= 0.2 * scale
    assert report.beats_naive
    assert not report.regularized


def test_backtest_more_lags_never_hurt(gw13):
    """Paired replicates (same master seed) make the comparison exact."""
    config = ExperimentConfig(law=gw13, horizon=12, replicates=1000, master_seed=33, lags=(1,))
    b3 = predictor_backtest(config, 3)
    b0 = predictor_backtest(config, 0)
    assert b3.mse_normalized <= b0.mse_normalized
    # K = 0 is literally the naive rule
    assert b0.mse_normalized == b0.naive_mse_normalized
    assert b0.predicted_residual_sq == pytest.approx(b0.predicted_target_sq, rel=1e-12)


def test_backtest_refuses_an_order_past_the_horizon(law_ii):
    # lags 5..8 at horizon 4 would read Z before time 0 as zero counts
    config = ExperimentConfig(law_ii, 4, 100, 0)
    assert predictor_backtest(config, 4).K == 4
    with pytest.raises(ValueError, match=re.escape("K = 8 is outside [0, 4]")):
        predictor_backtest(config, 8)


def test_backtest_refuses_deterministic_law(det_gw):
    config = ExperimentConfig(law=det_gw, horizon=10, replicates=100, master_seed=0)
    with pytest.raises(RefusalError):
        predictor_backtest(config, 1)


def test_predicted_residual_monotone_in_k(gw13, law_ii):
    # nested projections: the harness reports limits-side residuals as-is
    for law in (gw13, law_ii):
        spectrum = build_spectrum(classify(law), moments(law))
        residuals = [predictor_coeffs(spectrum, k).residual_sq for k in range(5)]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-12


# ------------------------------------------------------ invariants


def test_normalization_coherence_under_doubled_horizon(gw13):
    """The predicted variance is horizon-free; the empirical one is stable."""
    r1 = run_experiment(
        ExperimentConfig(law=gw13, horizon=12, replicates=2000, master_seed=901, lags=(1,))
    )
    r2 = run_experiment(
        ExperimentConfig(law=gw13, horizon=24, replicates=2000, master_seed=902, lags=(1,))
    )
    a, b = r1.rows[0], r2.rows[0]
    assert a.predicted_variance == b.predicted_variance
    assert abs(a.variance - b.variance) < 3.0 * math.hypot(a.variance_se, b.variance_se)


def test_mixing_statistic_uncorrelated_with_early_counts(gw13):
    """The limit holds conditionally on the first generations."""
    R = 2000
    xs = np.empty(R)
    z1 = np.empty(R)
    for r in range(R):
        trace = run(gw13, 14, seed=(778, 0, r))
        x = fluctuations(trace, 2.0, 1, 1)
        xs[r] = x[14, 0] / math.sqrt(trace.Z[14])
        z1[r] = trace.Z[1]
    corr = float(np.corrcoef(xs, z1)[0, 1])
    assert abs(corr) < 3.0 / math.sqrt(R)


def test_exclusion_accounting(gw13, law_iii):
    config = ExperimentConfig(
        law=gw13, horizon=10, replicates=200, master_seed=61, lags=(1,), cap=500
    )
    report = run_experiment(config)
    assert report.excluded_capped > 0
    assert report.used + report.excluded_capped == config.replicates
    assert report.used >= 2
    # the oscillation check forms innovations of the uncapped rows only, block by block
    config = ExperimentConfig(
        law=law_iii, horizon=16, replicates=500, master_seed=61, lags=(1, 2), cap=400_000_000
    )
    summary = oscillation_residual(config)
    assert 2 <= summary.used < config.replicates
    assert summary.used + summary.excluded_capped == config.replicates
    assert math.isfinite(summary.median_relative_residual)


def test_all_replicates_capped_is_an_error(gw13):
    config = ExperimentConfig(
        law=gw13, horizon=10, replicates=100, master_seed=61, lags=(1,), cap=1
    )
    with pytest.raises(RuntimeError):
        run_experiment(config)



_HEADER_FIELDS = ("regime", "m", "horizon", "replicates", "used", "excluded_capped", "master_seed")


@pytest.mark.parametrize(
    "law_name, cap, campaign",
    [
        ("gw13", 500, lambda config: run_experiment(config)),
        ("gw13", 500, lambda config: lag_correlation_check(config, 1, [1, 2])),
        ("law_iii", 30_000, lambda config: oscillation_residual(config)),
        ("gw13", 500, lambda config: predictor_backtest(config, 2)),
    ],
    ids=["run_experiment", "lag_correlation_check", "oscillation_residual", "predictor_backtest"],
)
def test_every_campaign_report_carries_the_header(law_name, cap, campaign, request):
    # each cap excludes some replicates of its campaign, but not all
    config = ExperimentConfig(law=request.getfixturevalue(law_name), horizon=8, replicates=200, master_seed=11, cap=cap)
    out = campaign(config)
    assert all(hasattr(out, name) for name in _HEADER_FIELDS)
    spectral = classify(config.law)
    assert (out.regime, out.m, out.horizon, out.replicates) == (spectral.regime, spectral.m, 8, 200)
    assert 0 < out.excluded_capped < out.replicates
    assert out.used + out.excluded_capped == out.replicates
    assert out.master_seed == config.master_seed
    assert out.rng_scheme == simulate._RNG_SCHEME


def _clauses_verdict(report) -> bool:
    return all(ok for _, _, ok in report.clauses)


def test_each_report_passes_exactly_when_its_clauses_hold(gw13, law_iii):
    """Each verdict is ``all(ok)`` over its report's ``(name, statistic, ok)`` clauses, in the order they print."""
    verdicts = []
    for tol_var in (0.10, 1e-6):
        config = ExperimentConfig(gw13, 14, 1000, 3, lags=(1, 2), tol_var=tol_var)
        report = run_experiment(config)
        assert [name for name, _, _ in report.clauses] == [
            f"lag {k} {stat}" for k in (1, 2) for stat in ("rel_error", "|skewness|", "|ex_kurtosis|")]
        for r in report.rows:
            (_, rel, var_ok), (_, skew, skew_ok), (_, kurt, kurt_ok) = r.clauses
            assert (rel, skew, kurt) == (r.rel_error, abs(r.skewness), abs(r.ex_kurtosis))
            assert (var_ok, skew_ok and kurt_ok) == (r.var_ok, r.normal_ok)
            assert (skew_ok, kurt_ok) == (skew <= config.tol_skew, kurt <= config.tol_kurt)
        assert report.passed == _clauses_verdict(report)
        verdicts.append(report.passed)
    assert verdicts == [True, False]

    base = ExperimentConfig(law_iii, 12, 200, 0)
    summary = oscillation_residual(base)
    names = [name for name, _, _ in summary.clauses]
    assert names == ["median_relative_residual", "alternation_fraction", "mean_ok |mean|/SE"]
    assert summary.passed and summary.passed == _clauses_verdict(summary)
    strict = oscillation_residual(dataclasses.replace(base, tol_residual=summary.median_relative_residual / 2))
    assert [ok for _, _, ok in strict.clauses] == [False, True, True] and not strict.passed
    assert "passed = false" in strict.to_text()

    back = predictor_backtest(ExperimentConfig(gw13, 10, 200, 0), 2)
    ((name, ratio, ok),) = back.clauses
    assert name == "beats_naive mse/naive"
    assert (ratio, ok) == (back.mse_normalized / back.naive_mse_normalized, back.beats_naive)
    assert back.passed == back.beats_naive == _clauses_verdict(back)
