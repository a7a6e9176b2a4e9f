"""Monte Carlo campaigns confronting empirical fluctuations with the limit theory.

Each campaign simulates R independent replicates in int64 blocks (see
``simulate._simulate_blocks``): replicate ``i``'s path depends only on
``(master_seed, domain, i)`` — domains separate the experiment kinds so
enlarging one campaign never perturbs another — and the campaign reduces the
count matrices to the statistics the theorems speak about:

* ``verify``: the regime's verdict, ``oscillation_residual`` in regime III
  and ``run_experiment`` elsewhere, on one analysis of the law.
* ``run_experiment``: per-lag moments of the normalized prediction error
  (``X/sqrt(Z_n)`` away from criticality, ``X/sqrt(n Z_n)`` at it) against
  the predicted limiting variances, with moment-based normality diagnostics.
* ``lag_correlation_check``: time-lagged correlations against the measure's
  oscillating or decaying predictions.
* ``oscillation_residual``: below criticality there is no limit; instead the
  profile ``limits.oscillation_profile`` builds from the estimated coefficients
  must track the rescaled error window, the statistic must alternate in sign,
  and the centered coefficient estimates must average to zero.
* ``predictor_backtest``: the measure-derived one-step predictor applied to
  fresh replicates, normalized MSE against the predicted residual.

All tolerances here are finite-n engineering slack around exact limits (the
theory provides no rates); they are config fields, not hidden constants.
Each report with a verdict lists its pass clauses, ``(name, statistic, ok)``
in order, where the campaign decides them, and ``passed`` is ``all(ok)``.
Every report extends :class:`CampaignHeader`, which says how it was computed:
regime, growth factor, horizon, replicates (used, and capped: excluded from
the statistics, never silently dropped), master seed and RNG scheme.
``limits`` decides every refusal: ``build_spectrum``, or the regime-III gate
of ``oscillation_profile``.

A caller that has already classified the law hands its report on
(``run_experiment``, ``oscillation_residual``), so one ``verify`` analyses
its law once; ``predictor_backtest`` reports the rule it applies,
so one CLI ``predict`` solves its predictor once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .limits import LimitSpectrum, _cov_matrix, _require_oscillating, build_spectrum, cov_lagged, oscillation_profile, predictor_coeffs
from .offspring import OffspringLaw, moments, sigma_hat
from .simulate import _DEFAULT_CAP, _MAX_HORIZON, _RNG_SCHEME, _births_innovations, _coefficient_estimates, _csv_cell, _csv_text, _prediction_errors, _simulate_blocks
from .spectral import _MAX_LAG, SpectralReport, _require_in, classify

__all__ = [
    "ExperimentConfig",
    "CampaignHeader",
    "LagMomentRow",
    "VerificationReport",
    "LagCorrelationRow",
    "LagCorrelationTable",
    "OscillationSummary",
    "BacktestReport",
    "run_experiment",
    "lag_correlation_check",
    "oscillation_residual",
    "predictor_backtest",
    "verify",
]

_DOMAIN_EXPERIMENT = 0
_DOMAIN_BACKTEST = 1
_DOMAIN_OSCILLATION = 2
_DOMAIN_LAGCHECK = 3

#: Largest ``replicates * (horizon + 1)`` of a campaign: a campaign keeps 8 bytes of totals per replicate and step,
#: 200 MB here, enough for 10^6 x 25 steps.
_MAX_CELLS = 25 * 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """A Monte Carlo campaign: law, sample sizes, seeds, and tolerances.

    ``tol_var`` is the allowed relative error of empirical vs predicted
    variance; ``tol_skew``/``tol_kurt`` bound the normality diagnostics
    (defaults calibrated for R around 10^4).  ``tol_residual`` bounds the
    oscillation summary's median relative residual and ``tol_alternation``
    is the least share of replicates that must alternate in sign.  A horizon
    past the batch engine's bound, more than ``_MAX_CELLS`` totals
    (``replicates * (horizon + 1)``), a lag outside ``[0, min(horizon, _MAX_LAG)]``, or a
    tolerance no campaign can meet (negative, NaN, or ``tol_alternation``
    above 1) is refused.
    """

    law: OffspringLaw
    horizon: int
    replicates: int
    master_seed: int
    lags: tuple[int, ...] = (1,)
    tol_var: float = 0.10
    tol_skew: float = 0.15
    tol_kurt: float = 0.30
    tol_residual: float = 0.15
    tol_alternation: float = 0.90
    cap: int = _DEFAULT_CAP

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError(f"replicates = {self.replicates}: need at least 100 for stable moments")
        if self.horizon < 2 * self.law.max_age:
            raise ValueError(f"horizon = {self.horizon}: need at least 2 K = {2 * self.law.max_age}")
        if self.horizon > _MAX_HORIZON:
            raise ValueError(f"horizon = {self.horizon}: exceeds {_MAX_HORIZON}, the batch engine's bound")
        if self.replicates * (self.horizon + 1) > _MAX_CELLS:
            raise ValueError(f"replicates * (horizon + 1) = {self.replicates * (self.horizon + 1)} exceeds {_MAX_CELLS}")
        if not self.lags:
            raise ValueError("need at least one lag")
        for j, lag in enumerate(self.lags):
            _require_in(f"lags[{j}]", lag, 0, min(self.horizon, _MAX_LAG))
        for name in (f.name for f in fields(self) if f.name.startswith("tol_")):
            if not getattr(self, name) >= 0.0:  # NaN fails too: no statistic meets it
                raise ValueError(f"{name} = {getattr(self, name)}: a tolerance must be a number >= 0")
        if self.tol_alternation > 1.0:
            raise ValueError(f"tol_alternation = {self.tol_alternation} exceeds 1: no share of replicates reaches it")


@dataclass(frozen=True, eq=False)
class CampaignHeader:
    """How a campaign report was computed: ``used + excluded_capped == replicates``, where a replicate whose total
    passed the cap is excluded from the statistics, and ``rng_scheme`` names the block seeding of the replicates."""

    regime: str
    m: float
    horizon: int
    replicates: int
    used: int
    excluded_capped: int
    master_seed: int
    rng_scheme: ClassVar[str] = _RNG_SCHEME


class _Verdict:
    """A report that judges itself: ``passed`` holds when every ``(name, statistic, ok)`` of ``clauses`` is ok."""

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.clauses)


def _header(config: ExperimentConfig, report: SpectralReport, used: int) -> dict:
    """The :class:`CampaignHeader` fields of a campaign on ``config`` that used ``used`` replicates."""
    r = config.replicates
    return dict(regime=report.regime, m=report.m, horizon=config.horizon, replicates=r, used=used,
                excluded_capped=r - used, master_seed=config.master_seed)


@dataclass(frozen=True, eq=False)
class LagMomentRow:
    """One lag's normalized-error moments with their SEs; its clauses give ``var_ok`` (first) and ``normal_ok``."""

    lag: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    skewness: float
    skewness_se: float
    ex_kurtosis: float
    kurtosis_se: float
    predicted_variance: float
    rel_error: float
    var_ok: bool
    normal_ok: bool
    clauses: tuple[tuple[str, float, bool], ...]


@dataclass(frozen=True, eq=False)
class VerificationReport(_Verdict, CampaignHeader):
    """Reduced result of one run_experiment campaign; its clauses are its rows' clauses, lag by lag."""

    rows: tuple[LagMomentRow, ...]

    @property
    def clauses(self) -> tuple[tuple[str, float, bool], ...]:
        return tuple(c for r in self.rows for c in r.clauses)

    def to_text(self) -> str:
        lines = [
            f"regime = {self.regime}",
            f"m = {self.m:.17g}",
            f"horizon = {self.horizon}",
            f"replicates = {self.replicates} (used {self.used}, capped {self.excluded_capped})",
            f"master_seed = {self.master_seed}",
            f"rng_scheme = {self.rng_scheme}",
        ]
        for r in self.rows:
            lines.append(
                f"lag {r.lag}: var = {r.variance:.6g} (predicted {r.predicted_variance:.6g},"
                f" rel err {r.rel_error:.3g}, {'ok' if r.var_ok else 'FAIL'});"
                f" skew = {r.skewness:.3g}, ex kurt = {r.ex_kurtosis:.3g}"
                f" ({'ok' if r.normal_ok else 'FAIL'})"
            )
        lines.append(f"passed = {str(self.passed).lower()}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        names = [f.name for f in fields(LagMomentRow) if f.name != "clauses"]
        return _csv_text(names, [[getattr(r, name) for name in names] for r in self.rows])


def _counts(config: ExperimentConfig, domain: int, horizon: int, purpose: str, mu=None):
    """Simulate the campaign's replicates to ``horizon``: ``(Z, W)`` of the uncapped ones, as floats.

    Rows are the replicates below the population cap, in replicate order
    (``_header`` counts the others).  ``W`` holds the
    innovations of each row for the mean offspring ``mu``, formed from its
    births block by block, or is ``None`` without ``mu``.  Faults if fewer
    than two were usable, naming what they were for.
    """
    Z, W = [], []
    for block in _simulate_blocks(config.law, horizon, config.replicates, config.master_seed, domain, config.cap):
        kept = ~block.capped
        Z.append(block.Z[kept].astype(float))
        if mu is not None:
            W.append(_births_innovations(block.B[kept].astype(float), mu))
    used = sum(len(rows) for rows in Z)
    if used < 2:
        raise RuntimeError(f"only {used} replicates below the cap; cannot {purpose}")
    return np.concatenate(Z), np.concatenate(W) if mu is not None else None


def _scale(regime: str, t, z_t: np.ndarray) -> np.ndarray:
    """``t Z_t`` at criticality, else ``Z_t``: the scale of a squared prediction error at time ``t``, for a time or
    an array of times along ``z_t``'s last axis."""
    return np.asarray(t, dtype=float) * z_t if regime == "II" else z_t


def _spectrum_for(law: OffspringLaw, report: SpectralReport | None = None) -> tuple[SpectralReport, LimitSpectrum]:
    """The law's spectral report (``classify``, unless the caller passes it) and limiting spectrum;
    :func:`~cmjfluct.limits.build_spectrum` alone refuses a law without a Gaussian limit (regime III, or a multiple
    critical root in regime II)."""
    report = classify(law) if report is None else report
    return report, build_spectrum(report, moments(law))


def _moment_row(lag: int, sample: np.ndarray, predicted: float, config: ExperimentConfig) -> LagMomentRow:
    r = len(sample)
    mean = float(sample.mean())
    if np.ptp(sample) == 0.0:
        # an exactly constant sample must not pick up summation-rounding noise
        mean = float(sample[0])
        m2 = m3 = m4 = 0.0
    else:
        centered = sample - mean
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
    var = m2 * r / (r - 1)
    if m2 > 0.0:
        skew = m3 / m2**1.5
        kurt = m4 / m2**2 - 3.0
    else:
        skew = 0.0
        kurt = 0.0
    mean_se = math.sqrt(var / r) if var > 0 else 0.0
    var_se = math.sqrt(max(m4 - m2**2, 0.0) / r)
    if predicted > 0.0:
        rel = abs(var - predicted) / predicted
        var_ok = rel <= config.tol_var
    else:
        rel = 0.0 if var == 0.0 else math.inf
        var_ok = var == 0.0
    clauses = (
        (f"lag {lag} rel_error", rel, var_ok),
        (f"lag {lag} |skewness|", abs(skew), abs(skew) <= config.tol_skew),
        (f"lag {lag} |ex_kurtosis|", abs(kurt), abs(kurt) <= config.tol_kurt),
    )
    return LagMomentRow(
        lag=lag,
        mean=mean,
        mean_se=mean_se,
        variance=var,
        variance_se=var_se,
        skewness=skew,
        skewness_se=math.sqrt(6.0 / r),
        ex_kurtosis=kurt,
        kurtosis_se=math.sqrt(24.0 / r),
        predicted_variance=predicted,
        rel_error=rel,
        var_ok=var_ok,
        normal_ok=all(ok for _, _, ok in clauses[1:]),
        clauses=clauses,
    )


def run_experiment(config: ExperimentConfig, *, report: SpectralReport | None = None) -> VerificationReport:
    """Simulate R replicates and compare normalized-error moments to the limits.

    Refused where ``build_spectrum`` refuses: below criticality (no limit
    exists) and on a multiple critical root in regime II.  Capped replicates
    are excluded from the moments and counted in the report.  ``report`` is
    ``classify(config.law)``, if the caller already has it.
    """
    report, spectrum = _spectrum_for(config.law, report)
    m = report.m
    n = config.horizon
    lags = tuple(config.lags)
    Z, _ = _counts(config, _DOMAIN_EXPERIMENT, n, "form moments")
    errors = _prediction_errors(Z, m, n, lags) / np.sqrt(_scale(report.regime, n, Z[:, n]))[:, None]
    cov = _cov_matrix(spectrum, [{k: 1.0} for k in lags])
    rows = tuple(_moment_row(k, errors[:, j], float(cov[j, j]), config) for j, k in enumerate(lags))
    return VerificationReport(**_header(config, report, len(Z)), rows=rows)


@dataclass(frozen=True, eq=False)
class LagCorrelationRow:
    ell: int
    predicted: float
    empirical: float


@dataclass(frozen=True, eq=False)
class LagCorrelationTable(CampaignHeader):
    """Empirical vs predicted correlation of one lag statistic across time."""

    k: int
    rows: tuple[LagCorrelationRow, ...]


def lag_correlation_check(config: ExperimentConfig, k: int, ell_list) -> LagCorrelationTable:
    """Correlate the normalized statistic at times n-ell and n across replicates.

    The prediction is the ratio ``cov_lagged(k, ell) / cov_lagged(k, 0)`` (the
    two marginals share the same limiting variance); the variance is 0 only
    on a zero measure, where the prediction is 0, as one below float64's
    normal range faults in ``cov_lagged``.  Refused below
    criticality; an empty ``ell_list``, or a ``k`` or ``ell`` out of range
    (:func:`~cmjfluct.spectral._require_in`), faults before the law is analysed.
    """
    ells = [int(e) for e in ell_list]
    if not ells:
        raise ValueError("ell_list is empty: need at least one lag ell")
    n = config.horizon
    _require_in("k", k, 0, min(n, _MAX_LAG))
    for j, e in enumerate(ells):
        _require_in(f"ell_list[{j}]", e, 0, min(n - k, _MAX_LAG))
    report, spectrum = _spectrum_for(config.law)
    m = report.m
    base = cov_lagged(spectrum, k, 0)
    Z, _ = _counts(config, _DOMAIN_LAGCHECK, n, "form correlations")
    times = np.array([n, *(n - e for e in ells)])
    stats = _prediction_errors(Z, m, times, [k])[..., 0] / np.sqrt(_scale(report.regime, times, Z[:, times]))
    a = stats[:, 0]
    rows = []
    for e, b in zip(ells, stats.T[1:]):
        pred = cov_lagged(spectrum, k, e) / base if base > 0 else 0.0
        emp = float(np.corrcoef(b, a)[0, 1]) if a.std() > 0 and b.std() > 0 else 0.0
        rows.append(LagCorrelationRow(ell=e, predicted=pred, empirical=emp))
    return LagCorrelationTable(**_header(config, report, len(Z)), k=k, rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class OscillationSummary(_Verdict, CampaignHeader):
    """Self-consistency of the oscillation expansion below criticality.

    ``median_relative_residual`` compares the rescaled error window at the
    horizon against the profile rebuilt from estimated coefficients;
    ``alternation_fraction`` is the share of replicates whose normalized
    statistic strictly alternates in sign over the last few steps (only
    defined for a single negative real critical root, else nan);
    ``centered_means`` average the seed-free coefficient estimates, which
    have exact mean zero.  ``degenerate`` flags laws whose litter transform
    carries no noise at the critical roots — the coefficients are then
    deterministic and the distributional content of the check is empty.
    Its clauses: ``median_relative_residual <= tol_residual``,
    ``alternation_fraction >= tol_alternation`` (where it is defined), and
    ``mean_ok``, bounding the largest ``|centered mean| / SE`` by 3.
    """

    #: Fields of ``to_csv`` and ``to_text``, in order.
    _columns: ClassVar[tuple[str, ...]] = (
        "regime", "m", "gamma_star", "horizon", "replicates", "used", "excluded_capped", "median_residual",
        "median_profile_norm", "median_relative_residual", "alternation_fraction", "mean_ok", "degenerate", "passed",
    )

    gamma_star: float
    roots: tuple[complex, ...]
    lags: tuple[int, ...]
    median_residual: float
    median_profile_norm: float
    median_relative_residual: float
    alternation_fraction: float
    centered_means: tuple[complex, ...]
    centered_ses: tuple[float, ...]
    mean_ok: bool
    degenerate: bool
    clauses: tuple[tuple[str, float, bool], ...]

    def to_text(self) -> str:
        lines = [f"{name} = {_csv_cell(getattr(self, name))}" for name in self._columns]
        return "\n".join([*lines, f"rng_scheme = {self.rng_scheme}"]) + "\n"

    def to_csv(self) -> str:
        return _csv_text(self._columns, [[getattr(self, name) for name in self._columns]])


def oscillation_residual(config: ExperimentConfig, *, report: SpectralReport | None = None) -> OscillationSummary:
    """Verify that the estimated oscillation profile tracks the rescaled errors.

    Per replicate, each critical root's coefficient is estimated from the
    innovations up to the horizon ``n``, and their
    :func:`~cmjfluct.limits.oscillation_profile` is compared with
    ``gamma_*^n X_n`` over the configured lags.  Refused before simulating
    where ``oscillation_profile`` refuses.  ``report`` is
    ``classify(config.law)``, if the caller already has it.
    """
    report = classify(config.law) if report is None else report
    _require_oscillating(report)
    tab = moments(config.law)
    n = config.horizon
    lags = tuple(sorted(set(config.lags)))
    crits = report.gamma_crit
    degenerate = all(sigma_hat(config.law, g) <= 1e-12 for g in crits)
    gs = report.gamma_star

    Z, W = _counts(config, _DOMAIN_OSCILLATION, n, "summarize", mu=tab.mu)
    used = len(Z)
    values = np.zeros((used, len(crits)), dtype=complex)
    means, ses = [], []
    for p, g in enumerate(crits):
        values[:, p], centered = _coefficient_estimates(W, tab.mu, g, n)
        means.append(complex(centered.mean()))
        ses.append(math.sqrt((centered.real.var(ddof=1) + centered.imag.var(ddof=1)) / used))
    mean_z = max(abs(mu) / se if se > 0 else 0.0 for mu, se in zip(means, ses))
    profile = oscillation_profile(report, values, n, max(lags))[:, list(lags)]
    scaled = gs**n * _prediction_errors(Z, report.m, n, lags)
    med_res = float(np.median(np.linalg.norm(scaled - profile, axis=1)))
    med_prof = float(np.median(np.linalg.norm(profile, axis=1)))
    rel = med_res / med_prof if med_prof > 0 else math.inf

    clauses = [("median_relative_residual", rel, rel <= config.tol_residual)]
    alternation_fraction = math.nan
    if len(crits) == 1 and crits[0].imag == 0.0 and crits[0].real < 0.0:
        # a single negative real root: the statistic must strictly alternate in sign over the last steps
        k = lags[0]
        signs = np.sign(_prediction_errors(Z, report.m, np.arange(max(k, n - 6), n + 1), [k])[..., 0])
        later = signs[:, 1:]
        alternating = np.all(later != 0.0, axis=1) & np.all(later == -signs[:, :-1], axis=1)
        alternation_fraction = float(np.count_nonzero(alternating)) / used
        clauses.append(("alternation_fraction", alternation_fraction, alternation_fraction >= config.tol_alternation))
    clauses.append(("mean_ok |mean|/SE", mean_z, mean_z <= 3.0))
    return OscillationSummary(
        **_header(config, report, used),
        gamma_star=gs,
        roots=crits,
        lags=lags,
        median_residual=med_res,
        median_profile_norm=med_prof,
        median_relative_residual=rel,
        alternation_fraction=alternation_fraction,
        centered_means=tuple(means),
        centered_ses=tuple(ses),
        mean_ok=clauses[-1][2],
        degenerate=degenerate,
        clauses=tuple(clauses),
    )


@dataclass(frozen=True, eq=False)
class BacktestReport(_Verdict, CampaignHeader):
    """One-step prediction quality of the measure-derived rule on fresh paths.

    ``coeffs`` are the rule's lag coefficients (``PredictorRule.coeffs``).
    Its one clause is ``beats_naive``, with the ratio of its MSE to the naive MSE.
    """

    #: Fields of ``to_csv``, in order.
    _columns: ClassVar[tuple[str, ...]] = (
        "K", "horizon", "replicates", "used", "excluded_capped", "mse_normalized", "naive_mse_normalized",
        "predicted_residual_sq", "predicted_target_sq", "regularized", "beats_naive",
    )

    K: int
    coeffs: tuple[float, ...]
    mse_normalized: float
    naive_mse_normalized: float
    predicted_residual_sq: float
    predicted_target_sq: float
    regularized: bool
    beats_naive: bool
    clauses: tuple[tuple[str, float, bool], ...]

    def to_text(self) -> str:
        return (
            f"m {_csv_cell(self.m)}, coefficients [{', '.join(format(c, '.12g') for c in self.coeffs)}], "
            f"residual {_csv_cell(math.sqrt(self.predicted_residual_sq))}, regularized {_csv_cell(self.regularized)}\n"
            f"mse {_csv_cell(self.mse_normalized)} vs naive {_csv_cell(self.naive_mse_normalized)}, "
            f"beats_naive {_csv_cell(self.beats_naive)}\nrng_scheme = {self.rng_scheme}\n"
        )

    def to_csv(self) -> str:
        return _csv_text(self._columns, [[getattr(self, name) for name in self._columns]])


def predictor_backtest(config: ExperimentConfig, K: int) -> BacktestReport:
    """Apply the one-step predictor to fresh replicates and compare MSEs.

    The normalized mean squared error (per ``Z_n``, or ``n Z_n`` at
    criticality) estimates the same quantity the measure predicts as
    ``residual_sq``; the naive rule's error estimates ``target_sq``.
    Refused on deterministic laws (prediction is the exact recurrence) and
    below criticality; an order ``K`` out of range
    (:func:`~cmjfluct.spectral._require_in`) faults before the law is analysed.
    """
    n = config.horizon
    _require_in("K", K, 0, min(n, _MAX_LAG))
    report, spectrum = _spectrum_for(config.law)
    rule = predictor_coeffs(spectrum, K)
    m = report.m
    Z, _ = _counts(config, _DOMAIN_BACKTEST, n + 1, "form MSE")
    z_n = Z[:, n]
    x_lags = _prediction_errors(Z, m, n, range(1, K + 1))
    actual = Z[:, n + 1]
    denom = _scale(report.regime, n, z_n)
    mse = float(np.mean((actual - rule.predict(z_n, x_lags)) ** 2 / denom))
    naive_mse = float(np.mean((actual - m * z_n) ** 2 / denom))
    beats = mse < naive_mse if rule.residual_sq < rule.target_sq else True
    return BacktestReport(
        **_header(config, report, len(Z)),
        K=K,
        coeffs=tuple(map(float, rule.coeffs)),
        mse_normalized=mse,
        naive_mse_normalized=naive_mse,
        predicted_residual_sq=rule.residual_sq,
        predicted_target_sq=rule.target_sq,
        regularized=rule.regularized,
        beats_naive=beats,
        clauses=(("beats_naive mse/naive", mse / naive_mse if naive_mse > 0 else math.nan, beats),),
    )


def verify(config: ExperimentConfig) -> VerificationReport | OscillationSummary:
    """The regime's campaign on ``config``, given the law's one analysis: ``oscillation_residual`` in regime III,
    ``run_experiment`` elsewhere."""
    report = classify(config.law)
    campaign = oscillation_residual if report.regime == "III" else run_experiment
    return campaign(config, report=report)
