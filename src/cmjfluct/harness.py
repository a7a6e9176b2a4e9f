"""Monte Carlo campaigns confronting empirical fluctuations with the limit theory.

Each campaign simulates R independent replicates with derived seeds
``(master_seed, domain, replicate)`` — domains separate the experiment kinds
so enlarging one campaign never perturbs another — and reduces them to the
statistics the theorems speak about:

* ``run_experiment``: per-lag moments of the normalized prediction error
  (``X/sqrt(Z_n)`` away from criticality, ``X/sqrt(n Z_n)`` at it) against
  the predicted limiting variances, with moment-based normality diagnostics.
* ``lag_correlation_check``: time-lagged correlations against the measure's
  oscillating or decaying predictions.
* ``oscillation_residual``: below criticality there is no limit; instead the
  estimated oscillation profile must track the rescaled error window, the
  statistic must alternate in sign, and the centered coefficient estimates
  must average to zero.
* ``predictor_backtest``: the measure-derived one-step predictor applied to
  fresh replicates, normalized MSE against the predicted residual.

All tolerances here are finite-n engineering slack around exact limits (the
theory provides no rates); they are config fields, not hidden constants.
Replicates that hit the population cap are excluded from the statistics and
counted in the report — never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import RefusalError
from .limits import LimitSpectrum, build_spectrum, cov_lagged, predictor_coeffs, variance
from .offspring import OffspringLaw, moments, sigma_hat
from .simulate import _DEFAULT_CAP, estimate_U, run
from .spectral import classify

__all__ = [
    "ExperimentConfig",
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
]

_DOMAIN_EXPERIMENT = 0
_DOMAIN_BACKTEST = 1
_DOMAIN_OSCILLATION = 2
_DOMAIN_LAGCHECK = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """A Monte Carlo campaign: law, sample sizes, seeds, and tolerances.

    ``tol_var`` is the allowed relative error of empirical vs predicted
    variance; ``tol_skew``/``tol_kurt`` bound the normality diagnostics
    (defaults calibrated for R around 10^4).
    """

    law: OffspringLaw
    horizon: int
    replicates: int
    master_seed: int
    lags: tuple[int, ...] = (1,)
    tol_var: float = 0.10
    tol_skew: float = 0.15
    tol_kurt: float = 0.30
    cap: int = _DEFAULT_CAP

    def __post_init__(self):
        if self.replicates < 100:
            raise ValueError(f"replicates = {self.replicates}: need at least 100 for stable moments")
        if self.horizon < 2 * self.law.max_age:
            raise ValueError(f"horizon = {self.horizon}: need at least 2 K = {2 * self.law.max_age}")
        if not self.lags:
            raise ValueError("need at least one lag")
        if any(k < 0 for k in self.lags):
            raise ValueError("lags must be non-negative")


@dataclass(frozen=True, eq=False)
class LagMomentRow:
    """Empirical moments of one normalized lag statistic, with their SEs."""

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


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Reduced result of one run_experiment campaign.

    ``used + excluded_capped == replicates``; every pass flag is a pure
    function of the stored numbers and the configured tolerances.
    """

    regime: str
    m: float
    horizon: int
    replicates: int
    used: int
    excluded_capped: int
    master_seed: int
    rows: tuple[LagMomentRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.var_ok and r.normal_ok for r in self.rows)

    def to_text(self) -> str:
        lines = [
            f"regime = {self.regime}",
            f"m = {self.m:.17g}",
            f"horizon = {self.horizon}",
            f"replicates = {self.replicates} (used {self.used}, capped {self.excluded_capped})",
            f"master_seed = {self.master_seed}",
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
        names = [f.name for f in fields(LagMomentRow)]
        return _csv_text(names, [[getattr(r, name) for name in names] for r in self.rows])


def _csv_cell(value) -> str:
    """One CSV cell: bools lowercase, floats to 17 significant digits, the rest as ``str``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(header, rows) -> str:
    """CSV text: the header line, then one line of formatted cells per row."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _replicates(config: ExperimentConfig, domain: int, horizon: int, purpose: str):
    """Yield the campaign's replicate traces that stay below the population cap.

    Replicate ``i`` is simulated to ``horizon`` from seed
    ``(master_seed, domain, i)``; capped ones are skipped, and the caller
    counts them as ``replicates - used``.  Faults once the replicates are
    exhausted if fewer than two were usable, naming what they were for.
    """
    used = 0
    for i in range(config.replicates):
        trace = run(config.law, horizon, (config.master_seed, domain, i), cap=config.cap)
        if not trace.capped:
            used += 1
            yield trace
    if used < 2:
        raise RuntimeError(f"only {used} replicates below the cap; cannot {purpose}")


def _normalizer(regime: str, n: int, z_n: int) -> float:
    if regime == "II":
        return math.sqrt(float(n) * float(z_n))
    return math.sqrt(float(z_n))


def _spectrum_for(config: ExperimentConfig):
    report = classify(config.law)
    if report.regime == "III":
        raise RefusalError(
            "regime III: normalized errors oscillate without a limit; use oscillation_residual"
        )
    if report.non_simple:
        raise RefusalError("non-simple critical root: the regime-II limit theorem does not apply")
    spectrum = build_spectrum(report, moments(config.law))
    return report, spectrum


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
    normal_ok = abs(skew) <= config.tol_skew and abs(kurt) <= config.tol_kurt
    if m2 == 0.0:
        # a degenerate (deterministic) statistic is vacuously normal
        normal_ok = True
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
        normal_ok=normal_ok,
    )


def run_experiment(config: ExperimentConfig) -> VerificationReport:
    """Simulate R replicates and compare normalized-error moments to the limits.

    Refused below criticality (no limit exists) and on non-simple critical
    roots.  Capped replicates are excluded from the moments and counted in
    the report.
    """
    report, spectrum = _spectrum_for(config)
    m = report.m
    n = config.horizon
    lags = tuple(config.lags)
    predicted = {k: variance(spectrum, {k: 1.0}) for k in lags}
    samples: dict[int, list[float]] = {k: [] for k in lags}
    for trace in _replicates(config, _DOMAIN_EXPERIMENT, n, "form moments"):
        z_n = trace.Z[n]
        norm = _normalizer(report.regime, n, z_n)
        for k in lags:
            past = trace.Z[n - k] if n - k >= 0 else 0
            x = float(past) - m ** (-k) * float(z_n)
            samples[k].append(x / norm)
    used = len(samples[lags[0]])
    rows = tuple(_moment_row(k, np.asarray(samples[k]), predicted[k], config) for k in lags)
    return VerificationReport(
        regime=report.regime,
        m=m,
        horizon=n,
        replicates=config.replicates,
        used=used,
        excluded_capped=config.replicates - used,
        master_seed=config.master_seed,
        rows=rows,
    )


@dataclass(frozen=True, eq=False)
class LagCorrelationRow:
    ell: int
    predicted: float
    empirical: float


@dataclass(frozen=True, eq=False)
class LagCorrelationTable:
    """Empirical vs predicted correlation of one lag statistic across time."""

    regime: str
    k: int
    horizon: int
    replicates: int
    used: int
    excluded_capped: int
    rows: tuple[LagCorrelationRow, ...]


def lag_correlation_check(config: ExperimentConfig, k: int, ell_list) -> LagCorrelationTable:
    """Correlate the normalized statistic at times n-ell and n across replicates.

    The prediction is the ratio ``cov_lagged(k, ell) / cov_lagged(k, 0)`` (the
    two marginals share the same limiting variance).  Refused below
    criticality.
    """
    report, spectrum = _spectrum_for(config)
    ells = [int(e) for e in ell_list]
    if any(e < 0 for e in ells):
        raise ValueError("lags ell must be non-negative")
    m = report.m
    n = config.horizon
    if n - max(ells) - k < 0:
        raise ValueError(f"horizon {n} too short for ell up to {max(ells)}")
    base = cov_lagged(spectrum, k, 0)
    now: list[float] = []
    lagged: dict[int, list[float]] = {e: [] for e in ells}
    for trace in _replicates(config, _DOMAIN_LAGCHECK, n, "form correlations"):
        now.append(
            (float(trace.Z[n - k]) - m ** (-k) * float(trace.Z[n])) / _normalizer(report.regime, n, trace.Z[n])
        )
        for e in ells:
            t = n - e
            x = float(trace.Z[t - k]) - m ** (-k) * float(trace.Z[t])
            lagged[e].append(x / _normalizer(report.regime, t, trace.Z[t]))
    used = len(now)
    a = np.asarray(now)
    rows = []
    for e in ells:
        b = np.asarray(lagged[e])
        pred = cov_lagged(spectrum, k, e) / base if base > 0 else 0.0
        emp = float(np.corrcoef(b, a)[0, 1]) if a.std() > 0 and b.std() > 0 else 0.0
        rows.append(LagCorrelationRow(ell=e, predicted=pred, empirical=emp))
    return LagCorrelationTable(
        regime=report.regime,
        k=k,
        horizon=n,
        replicates=config.replicates,
        used=used,
        excluded_capped=config.replicates - used,
        rows=tuple(rows),
    )


@dataclass(frozen=True, eq=False)
class OscillationSummary:
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
    """

    regime: str
    m: float
    gamma_star: float
    roots: tuple[complex, ...]
    horizon: int
    n0: int
    replicates: int
    used: int
    excluded_capped: int
    lags: tuple[int, ...]
    median_residual: float
    median_profile_norm: float
    median_relative_residual: float
    alternation_fraction: float
    centered_means: tuple[complex, ...]
    centered_ses: tuple[float, ...]
    mean_ok: bool
    degenerate: bool


def oscillation_residual(config: ExperimentConfig, n0_rule: int | None = None) -> OscillationSummary:
    """Verify that the estimated oscillation profile tracks the rescaled errors.

    Per replicate, each critical root's coefficient is estimated from the
    innovations up to ``n0`` (default: the horizon) and the profile
    ``sum_p (conj(gamma_p)/|gamma_p|)^n U_p u_p`` is compared with
    ``gamma_*^n X_n`` over the configured lags at ``n = horizon``.  Refused
    outside the oscillating regime and on non-simple critical roots.
    """
    report = classify(config.law)
    if report.regime != "III":
        raise RefusalError(f"regime {report.regime}: oscillation checks apply only in regime III")
    if report.non_simple:
        raise RefusalError("non-simple critical root: the oscillation expansion does not apply")
    tab = moments(config.law)
    n = config.horizon
    n0 = n if n0_rule is None else int(n0_rule)
    if not 0 <= n0 <= n:
        raise ValueError(f"n0 = {n0} outside horizon {n}")
    lags = tuple(sorted(set(config.lags)))
    if max(lags) > n:
        raise ValueError(f"lag {max(lags)} exceeds horizon {n}")
    crits = report.gamma_crit
    degenerate = all(sigma_hat(config.law, g) <= 1e-12 for g in crits)
    inv_m = 1.0 / report.m
    gs = report.gamma_star

    unit = [g.conjugate() / abs(g) for g in crits]
    u_vecs = [np.array([g**k - inv_m**k for k in lags]) for g in crits]

    k_watch = lags[0]
    single_neg_real = len(crits) == 1 and crits[0].imag == 0.0 and crits[0].real < 0.0
    watch_times = range(max(k_watch, n - 6), n + 1)

    residuals: list[float] = []
    profile_norms: list[float] = []
    alternating_votes = 0
    centered: list[list[complex]] = [[] for _ in crits]
    for trace in _replicates(config, _DOMAIN_OSCILLATION, n, "summarize"):
        ests = [estimate_U(trace, tab, report, g, n0) for g in crits]
        for p, est in enumerate(ests):
            centered[p].append(est.centered)
        profile = np.zeros(len(lags), dtype=complex)
        for p in range(len(crits)):
            profile += (unit[p] ** n) * ests[p].value * u_vecs[p]
        profile = profile.real
        x_n = np.array(
            [float(trace.Z[n - k]) - inv_m**k * float(trace.Z[n]) for k in lags]
        )
        scaled = gs**n * x_n
        residuals.append(float(np.linalg.norm(scaled - profile)))
        profile_norms.append(float(np.linalg.norm(profile)))
        if single_neg_real:
            signs = []
            for t in watch_times:
                x = float(trace.Z[t - k_watch]) - inv_m**k_watch * float(trace.Z[t])
                signs.append(math.copysign(1.0, x) if x != 0.0 else 0.0)
            if all(s != 0.0 and s == -prev for prev, s in zip(signs, signs[1:])):
                alternating_votes += 1
    used = len(residuals)
    med_res = float(np.median(residuals))
    med_prof = float(np.median(profile_norms))
    rel = med_res / med_prof if med_prof > 0 else math.inf
    means = []
    ses = []
    mean_ok = True
    for p in range(len(crits)):
        arr = np.asarray(centered[p])
        mu_hat = complex(arr.mean())
        se = math.sqrt((arr.real.var(ddof=1) + arr.imag.var(ddof=1)) / used)
        means.append(mu_hat)
        ses.append(se)
        if se > 0 and abs(mu_hat) > 3.0 * se:
            mean_ok = False
    return OscillationSummary(
        regime=report.regime,
        m=report.m,
        gamma_star=gs,
        roots=crits,
        horizon=n,
        n0=n0,
        replicates=config.replicates,
        used=used,
        excluded_capped=config.replicates - used,
        lags=lags,
        median_residual=med_res,
        median_profile_norm=med_prof,
        median_relative_residual=rel,
        alternation_fraction=alternating_votes / used if single_neg_real else math.nan,
        centered_means=tuple(means),
        centered_ses=tuple(ses),
        mean_ok=mean_ok,
        degenerate=degenerate,
    )


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """One-step prediction quality of the measure-derived rule on fresh paths."""

    regime: str
    m: float
    K: int
    horizon: int
    replicates: int
    used: int
    excluded_capped: int
    mse_normalized: float
    naive_mse_normalized: float
    predicted_residual_sq: float
    predicted_target_sq: float
    regularized: bool
    beats_naive: bool


def predictor_backtest(config: ExperimentConfig, K: int) -> BacktestReport:
    """Apply the one-step predictor to fresh replicates and compare MSEs.

    The normalized mean squared error (per ``Z_n``, or ``n Z_n`` at
    criticality) estimates the same quantity the measure predicts as
    ``residual_sq``; the naive rule's error estimates ``target_sq``.
    Refused on deterministic laws (prediction is the exact recurrence) and
    below criticality.
    """
    report, spectrum = _spectrum_for(config)
    rule = predictor_coeffs(spectrum, K)
    m = report.m
    n = config.horizon
    sq_errors: list[float] = []
    naive_sq: list[float] = []
    for trace in _replicates(config, _DOMAIN_BACKTEST, n + 1, "form MSE"):
        z_n = float(trace.Z[n])
        x_lags = [float(trace.Z[n - j]) - m ** (-j) * z_n for j in range(1, K + 1)]
        pred = rule.predict(z_n, x_lags)
        naive = m * z_n
        actual = float(trace.Z[n + 1])
        denom = float(n) * z_n if report.regime == "II" else z_n
        sq_errors.append((actual - pred) ** 2 / denom)
        naive_sq.append((actual - naive) ** 2 / denom)
    used = len(sq_errors)
    mse = float(np.mean(sq_errors))
    naive_mse = float(np.mean(naive_sq))
    beats = mse < naive_mse if rule.residual_sq < rule.target_sq else True
    return BacktestReport(
        regime=report.regime,
        m=m,
        K=K,
        horizon=n,
        replicates=config.replicates,
        used=used,
        excluded_capped=config.replicates - used,
        mse_normalized=mse,
        naive_mse_normalized=naive_mse,
        predicted_residual_sq=rule.residual_sq,
        predicted_target_sq=rule.target_sq,
        regularized=rule.regularized,
        beats_naive=beats,
    )
