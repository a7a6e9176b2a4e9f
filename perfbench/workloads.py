"""The three benchmark workloads: generated inputs, one measured pass, checks.

Each workload object builds its inputs from the seed in :meth:`setup` (laws,
experiment configs, CLI config files) and makes one warm-up call per layer.
:meth:`run_pass` then performs the workload's fixed operation mix once and
returns a :class:`PassResult`.  Every call into cmjfluct goes through a module
attribute (``lib.limits.variance``), so wrappers installed by the tracer are
seen.  Correctness checks hold for every seed; none pins a seeded number.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from cmjfluct import make_law
from cmjfluct.harness import ExperimentConfig

_CAMPAIGN_R = 150
_LAW_I = [(0.5, (1, 1)), (0.5, (3, 1))]
_LAW_II = [(0.5, (1, 8)), (0.5, (3, 8))]
_LAW_III = [(0.5, (0, 9)), (0.5, (2, 9))]
_GW13_COIN = [(0.25, (1,), (1.0,)), (0.25, (1,), (-1.0,)), (0.25, (3,), (1.0,)), (0.25, (3,), (-1.0,))]
_GW13_DEATHS = [(0.5, (1,), (1.0, 1.0)), (0.5, (3,), (1.0, 1.0))]
_LAW_I_SCORED = [(0.5, (1, 1), (1.0, 1.0)), (0.5, (3, 1), (1.0, 0.5))]


@dataclass
class PassResult:
    """What one pass did: its timed operations and their outcomes.

    ``ops`` maps a key tuple that is the same on every pass of a run to the
    operation's wall time and the work units it completed (0 for operations
    that are not the workload's unit of work).  Keys start with the kind of
    operation: ``campaign``, ``cli``, ``path_law``, ``path`` or ``law``.
    """

    ops: dict = field(default_factory=dict)
    cli_bytes: int = 0
    attempted: int = 0
    defects: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def early_law(rng, shape_rng, K: int, n_atoms: int = 3, char_len: int = 0):
    """Random law bearing 1-3 children at age 1 and sparse single births up to age K.

    ``shape_rng`` draws the litters and ``rng`` the probabilities and scores.
    """
    p_late = min(0.3, 3.0 / K)
    probs = rng.dirichlet(np.full(n_atoms, 4.0))
    atoms = []
    for a in range(n_atoms):
        births = (shape_rng.random(K) < p_late).astype(int)
        births[0] = shape_rng.integers(1, 4)
        if a == 0:
            births[K - 1] = 1
        entry = (float(probs[a]), tuple(int(x) for x in births))
        if char_len:
            entry += (tuple(float(v) for v in np.round(rng.uniform(-1.0, 1.0, char_len), 3)),)
        atoms.append(entry)
    return make_law(atoms, char_extends=bool(char_len and rng.random() < 0.5))


def two_age_law(rng, s: int, excess: int):
    """Two-age law with mean litters (s^2 - s, s^3 + excess): regime II at excess 0, III above."""
    a, b = s * s - s, s**3 + excess
    d = int(rng.integers(1, a + 1))
    e = int(rng.integers(0, b))
    return make_law([(0.5, (a - d, b - e)), (0.5, (a + d, b + e))])


def ladder_law(eps: float):
    """law_ii with a (3, 7) atom of weight eps mixed in: regime I, margin about 0.31 eps."""
    return make_law([(0.5 - eps / 2, (1, 8)), (0.5 - eps / 2, (3, 8)), (eps, (3, 7))])


def expected_total(law, horizon: int) -> float:
    """E[Z_horizon] from the mean litters, computed independently of cmjfluct."""
    mu = np.zeros(law.max_age + 1)
    for atom in law.atoms:
        mu += atom.prob * np.asarray(atom.births, dtype=float)
    b = np.zeros(horizon + 1)
    b[0] = 1.0
    for n in range(1, horizon + 1):
        b[n] = sum(mu[k] * b[n - k] for k in range(1, min(n, law.max_age) + 1))
    return float(b.sum())


class CliCall:
    """One CLI config file run in-process through ``cli.main``.

    The first invocation's artifacts are kept; every later invocation of the
    same config must reproduce them byte for byte.
    """

    def __init__(self, root, name: str, config: dict, codes: tuple[int, ...]):
        self.dir = root / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out = self.dir / "out"
        self.out.mkdir(parents=True)
        self.path = self.dir / "config.json"
        self.path.write_text(json.dumps({**config, "outdir": str(self.out)}, indent=1))
        self.name = name
        self.codes = codes
        self.reference: dict[str, bytes] | None = None

    def __call__(self, lib, res: PassResult, units: int = 0) -> None:
        """Invoke the CLI once and record it as an operation of ``res``."""
        res.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = lib.cli.main([str(self.path)])
        elapsed = time.perf_counter() - t0
        key = ("cli", self.name)
        if key not in res.ops or elapsed < res.ops[key][0]:  # a pass may repeat a call: keep the fastest
            res.ops[key] = (elapsed, units)
        if code not in self.codes:
            res.failed += 1
            res.problems.append(f"cli {self.name}: exit {code} not in {self.codes}: {sink.getvalue()[-200:]}")
            return
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        res.cli_bytes += sum(len(v) for v in files.values())
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            res.problems.append(f"cli {self.name}: artifacts differ between invocations of one config")


def _op(res: PassResult, label: str, fn, *args):
    """Run one operation; an exception counts it failed and is recorded."""
    res.attempted += 1
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every fault is counted, never hidden
        res.failed += 1
        res.problems.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def _check(res: PassResult, ok: bool, message: str) -> None:
    if not ok:
        res.problems.append(message)


def _replicates_ok(res: PassResult, label: str, summary) -> None:
    _check(
        res,
        summary.used + summary.excluded_capped == summary.replicates,
        f"{label}: used {summary.used} + capped {summary.excluded_capped} != {summary.replicates}",
    )


class GaussCampaign:
    """Gaussian-regime campaigns through harness, plus CLI verify and predict."""

    name = "gauss_campaign"

    def __init__(self, lib, seed: int, outdir):
        self.lib, self.seed, self.outdir = lib, seed, outdir

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        master = int(rng.integers(1 << 31))
        law_i, law_ii = make_law(_LAW_I), make_law(_LAW_II)
        law_k10 = early_law(rng, rng, 10)
        cap = int(1.5 * expected_total(law_k10, 20))
        R = _CAMPAIGN_R
        # (campaign, config, extra arguments, closed-form lag-1 variance)
        self.campaigns = [
            ("run_experiment", ExperimentConfig(law_ii, 24, R, master, lags=(1, 2)), (), 1.0 / 192.0),
            ("lag_correlation_check", ExperimentConfig(law_ii, 24, R, master), (1, [1, 2, 3]), None),
            ("predictor_backtest", ExperimentConfig(law_i, 20, R, master), (3,), None),
            ("run_experiment", ExperimentConfig(law_k10, 20, R, master, cap=cap), (), None),
        ]
        cli_root = self.outdir / "cli" / self.name
        self.cli = [
            CliCall(cli_root, "verify", {"command": "verify", "law": _law_json(law_ii), "horizon": 24,
                                         "replicates": R, "seed": master, "lags": [1, 2]}, (0, 4)),
            CliCall(cli_root, "predict", {"command": "predict", "law": _law_json(law_i), "horizon": 20,
                                          "replicates": R, "seed": master, "K": 3}, (0,)),
        ]
        warm = ExperimentConfig(law_ii, 4, 100, master)
        self.lib.harness.run_experiment(warm)
        self.cli[0](self.lib, PassResult())

    def run_pass(self) -> PassResult:
        res = PassResult()
        for i, (fname, config, extra, closed_form) in enumerate(self.campaigns):
            t0 = time.perf_counter()
            out = _op(res, fname, getattr(self.lib.harness, fname), config, *extra)
            res.ops["campaign", i] = (time.perf_counter() - t0, config.replicates)
            if out is None:
                continue
            _replicates_ok(res, fname, out)
            if closed_form is not None:
                got = out.rows[0].predicted_variance
                _check(res, abs(got - closed_form) <= 1e-10, f"{fname}: lag-1 variance {got!r} != {closed_form!r}")
            elif fname == "lag_correlation_check":
                _check(res, all(abs(r.empirical) <= 1.0 + 1e-12 and math.isfinite(r.predicted) for r in out.rows),
                       "lag correlations out of range")
            elif fname == "predictor_backtest":
                _check(res, math.isfinite(out.mse_normalized), "backtest mse not finite")
        for call in self.cli:
            call(self.lib, res, _CAMPAIGN_R)
        return res


class OscillationPaths:
    """Regime-III residual campaign, CLI verify/simulate, and long scored paths."""

    name = "oscillation_paths"
    paths_per_law = 6
    z_check_time = 10

    def __init__(self, lib, seed: int, outdir):
        self.lib, self.seed, self.outdir = lib, seed, outdir

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.master = int(rng.integers(1 << 31))
        law_iii = make_law(_LAW_III)
        self.osc_config = ExperimentConfig(law_iii, 16, _CAMPAIGN_R, self.master, lags=(1, 2))
        # Horizon 70 reaches the default cap of 2^62 (n of about 61 at m = 2, 49 at m = 1 + sqrt 2).
        self.path_laws = [(make_law(law), 70) for law in (_GW13_COIN, _GW13_DEATHS, _LAW_I_SCORED)]
        self.z_samples = [[] for _ in self.path_laws]
        self.pass_index = 0
        cli_root = self.outdir / "cli" / self.name
        self.cli = [
            CliCall(cli_root, "verify", {"command": "verify", "law": _law_json(law_iii), "horizon": 16,
                                         "replicates": _CAMPAIGN_R, "seed": self.master, "lags": [1, 2]}, (0, 4)),
            CliCall(cli_root, "simulate", {"command": "simulate", "law": _law_json(self.path_laws[1][0]),
                                           "horizon": 40, "seed": self.master}, (0,)),
        ]
        law, _ = self.path_laws[0]
        trace = self.lib.simulate.run(law, 12, (self.master, 0))
        self.lib.simulate.char_total(trace, law)
        self.lib.harness.oscillation_residual(ExperimentConfig(law_iii, 4, 100, self.master))
        self.cli[1](self.lib, PassResult())

    def _path(self, res: PassResult, li: int, j: int, law, horizon: int, m: float, tab) -> None:
        """Simulate one long path and reduce it; each reduction is its own operation.

        The paths end at the cap, where the float64 identity checks inside
        cmjfluct lose to rounding and fault.  Those faults are a known defect
        and are counted as such; :meth:`final_checks` holds the identities on
        short paths, where they must pass.
        """
        sim = self.lib.simulate
        trace = _op(res, f"path law {li}: run", sim.run, law, horizon, (self.master, self.pass_index, li, j))
        if trace is None:
            return
        n = trace.horizon
        K = law.max_age
        n_small = min(10, n)
        calls = [
            ("fluctuations", sim.fluctuations, (trace, m, 0, K + 2)),
            ("innovations", sim.innovations, (trace, tab)),
            ("char_total", sim.char_total, (trace, law)),
            ("martingale_qv", sim.martingale_qv, (trace, tab, {1: 1.0}, n)),
            ("verify_recursion", sim.verify_recursion, (trace, tab, m, n_small, K + n_small + 2)),
        ]
        out = {}
        for name, fn, args in calls:
            res.attempted += 1
            try:
                out[name] = fn(*args)
            except RuntimeError:
                res.defects += 1
            except Exception as exc:  # noqa: BLE001 - anything else is a failure, recorded
                res.failed += 1
                res.problems.append(f"path law {li}: {name}: {type(exc).__name__}: {exc}")
        if "verify_recursion" in out:
            _check(res, out["verify_recursion"] <= 1e-9, f"recursion identity residual {out['verify_recursion']!r}")
        if "martingale_qv" in out:
            _check(res, math.isfinite(out["martingale_qv"]), "martingale_qv not finite")
        if "char_total" in out:
            _check(res, bool(np.all(np.isfinite(out["char_total"]))), "char_total not finite")
        _check(res, all(trace.Z[i] == trace.Z[i - 1] + trace.B[i] for i in range(1, n + 1)), "Z != cumsum B")
        if n >= self.z_check_time:
            self.z_samples[li].append(float(trace.Z[self.z_check_time]))

    def run_pass(self) -> PassResult:
        res = PassResult()
        t0 = time.perf_counter()
        summary = _op(res, "oscillation_residual", self.lib.harness.oscillation_residual, self.osc_config)
        res.ops["campaign", 0] = (time.perf_counter() - t0, 0)
        if summary is not None:
            _replicates_ok(res, "oscillation_residual", summary)
        for call in self.cli:
            call(self.lib, res)
        for li, (law, horizon) in enumerate(self.path_laws):
            t0 = time.perf_counter()
            m = self.lib.spectral.malthusian(law)
            tab = self.lib.offspring.moments(law)
            res.ops["path_law", li] = (time.perf_counter() - t0, 0)
            for j in range(self.paths_per_law):
                t0 = time.perf_counter()
                self._path(res, li, j, law, horizon, m, tab)
                res.ops["path", li, j] = (time.perf_counter() - t0, 1)
        self.pass_index += 1
        return res

    def final_checks(self) -> list[str]:
        """Identities on short paths, and the mean of Z_10 against ``expected_counts``.

        On 20 paths of 10 steps per law, as in the acceptance tests, counts stay
        far below float64 precision: ``innovations`` and ``char_total`` must not
        fault and the ``verify_recursion`` residual must be at most 1e-9.  The mean of Z_10
        over every long path of the run must lie within 5 standard errors of
        ``expected_counts``.
        """
        sim = self.lib.simulate
        problems = []
        for li, (law, _) in enumerate(self.path_laws):
            m = self.lib.spectral.malthusian(law)
            tab = self.lib.offspring.moments(law)
            for j in range(20):
                trace = sim.run(law, 10, (self.master, 1 << 20, li, j))
                try:
                    sim.innovations(trace, tab)
                    sim.char_total(trace, law)
                    worst = sim.verify_recursion(trace, tab, m, 10, law.max_age + 14)
                except RuntimeError as exc:
                    problems.append(f"short path law {li}: {exc}")
                    continue
                if worst > 1e-9:
                    problems.append(f"short path law {li}: recursion identity residual {worst!r}")
            z = np.asarray(self.z_samples[li])
            expected = float(sim.expected_counts(law, self.z_check_time)[1][-1])
            se = float(z.std(ddof=1)) / math.sqrt(len(z))
            if abs(z.mean() - expected) > 5.0 * se:
                problems.append(f"path law {li}: mean Z_10 {z.mean():.6g} vs expected {expected:.6g} (se {se:.3g})")
        return problems


@dataclass
class SweepItem:
    family: str
    law: object
    expect_regime: str | None = None
    closed_form: float | None = None
    ks: tuple[int, ...] = tuple(range(1, 9))


class SpectralSweep:
    """Classification and limit computations over generated laws; no simulation."""

    name = "spectral_sweep"
    k_counts = {2: 14, 5: 14, 10: 12, 20: 10, 40: 6, 80: 4}
    # Mixing weights for the boundary ladder: margins 1e-1, 3e-2, 2.7e-2, 1e-2, 3e-3,
    # 1e-3, 1e-4, 1e-5, 1e-6.  At 2.7e-2 the epoch series runs out its 100000 terms.
    ladder_eps = (0.32, 0.096, 0.0864, 0.032, 0.0096, 0.0032, 3.2e-4, 3.2e-5, 3.2e-6)

    def __init__(self, lib, seed: int, outdir):
        self.lib, self.seed, self.outdir = lib, seed, outdir

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        items = []
        for K, count in self.k_counts.items():
            # Litters are fixed per (K, index), so the cost profile of the sweep does not
            # depend on the seed; the seed draws the probabilities.  The K=40 and K=80
            # laws share one litter shape per K: they form the block of like-cost laws
            # around p90.
            items += [SweepItem(f"K{K}", early_law(rng, np.random.default_rng([K, i if K < 40 else 0]), K))
                      for i in range(count)]
        for s in (2, 3, 4) * 4:
            items.append(SweepItem("regime_II", two_age_law(rng, s, 0), expect_regime="II"))
        for s in (2, 3, 4) * 4:
            items.append(SweepItem("regime_III", two_age_law(rng, s, int(rng.integers(1, s**3 + 1))),
                                   expect_regime="III"))
        items.append(SweepItem("scored", make_law(_GW13_COIN), closed_form=0.125))
        items.append(SweepItem("scored", make_law(_GW13_DEATHS), closed_form=0.125))
        items += [SweepItem("scored", early_law(rng, rng, int(rng.integers(2, 5)), char_len=int(rng.integers(1, 4))))
                  for _ in range(6)]
        # The ladder gets K = 1 only: K = 1..8 on a 2^20 grid costs about 17 s per law.
        items += [SweepItem("ladder", ladder_law(eps), expect_regime="I", ks=(1,)) for eps in self.ladder_eps]
        items.append(SweepItem("ladder", make_law(_LAW_II), expect_regime="II", closed_form=1.0 / 192.0))
        self.items = items
        self.u_rng_seed = int(rng.integers(1 << 31))
        cli_root = self.outdir / "cli" / self.name
        self.cli = [
            CliCall(cli_root, "limits", {"command": "limits", "law": _law_json(make_law(_LAW_I)), "lags": [1, 2, 3]},
                    (0,)),
            CliCall(cli_root, "analyze", {"command": "analyze", "law": _law_json(make_law(_LAW_III))}, (0,)),
        ]
        report = self.lib.spectral.classify(items[0].law)
        spec = self.lib.limits.build_spectrum(report, self.lib.offspring.moments(items[0].law))
        self.lib.limits.predictor_coeffs(spec, 1)
        self.cli[0](self.lib, PassResult())

    def _law(self, res: PassResult, item: SweepItem, u_rng) -> None:
        lib = self.lib
        law = item.law
        report = lib.spectral.classify(law)
        label = f"{item.family} law"
        if item.expect_regime is not None:
            _check(res, report.regime == item.expect_regime,
                   f"{label}: regime {report.regime}, built as {item.expect_regime}")
        defect = False
        if report.regime == "III":
            if report.non_simple:
                return
            U = {}  # conjugate roots carry conjugate coefficients
            for g in report.gamma_crit:
                if g.imag == 0.0:
                    U[g] = complex(u_rng.normal())
                elif g.imag > 0.0:
                    U[g] = complex(u_rng.normal(), u_rng.normal())
                    U[g.conjugate()] = U[g].conjugate()
            profile = lib.limits.oscillation_profile(report, [U[g] for g in report.gamma_crit], 20, law.max_age + 4)
            defect = not bool(np.all(np.isfinite(profile)))
        else:
            spec = lib.limits.build_spectrum(report, lib.offspring.moments(law))
            defect = not spec.converged
            var = [lib.limits.variance(spec, {k: 1.0}) for k in range(1, 5)]
            cov = [lib.limits.cov_lagged(spec, 1, ell) for ell in range(1, 5)]
            defect |= not all(math.isfinite(v) for v in var + cov)
            if item.closed_form is not None:
                _check(res, abs(var[0] - item.closed_form) <= 1e-10,
                       f"{label}: variance {var[0]!r} != closed form {item.closed_form!r}")
            if report.regime == "I":
                try:
                    series = lib.limits.sigma2_series(law, report, {1: 1.0})
                except RuntimeError:  # near the boundary the series can exhaust its term budget
                    series = math.nan
                if not math.isfinite(series):
                    defect = True
                elif report.margin > 1e-2 and spec.converged:
                    _check(res, abs(series - var[0]) <= 1e-8 * max(1.0, abs(var[0])),
                           f"{label}: series {series!r} vs quadrature {var[0]!r} (margin {report.margin:.3g})")
            if spec.total_mass > 0.0:
                for K in item.ks:
                    rule = lib.limits.predictor_coeffs(spec, K)
                    defect |= not (math.isfinite(rule.residual_sq) and bool(np.all(np.isfinite(rule.coeffs))))
            if law.has_char and report.regime == "I":
                defect |= not math.isfinite(lib.limits.char_variance_full(law, report, spec))
        res.defects += defect

    def run_pass(self) -> PassResult:
        res = PassResult()
        u_rng = np.random.default_rng(self.u_rng_seed)
        for i, item in enumerate(self.items):
            t0 = time.perf_counter()
            _op(res, f"{item.family} law", self._law, res, item, u_rng)
            res.ops["law", i] = (time.perf_counter() - t0, 1)
            # A pass takes seconds, so the cheap CLI calls run at ten points of it.
            if i % 10 == 9:
                for call in self.cli:
                    call(self.lib, res)
        return res


def _law_json(law) -> dict:
    atoms = []
    for atom in law.atoms:
        entry = {"prob": atom.prob, "births": list(atom.births[1:])}
        if atom.char_values is not None:
            entry["char"] = list(atom.char_values)
        atoms.append(entry)
    return {"atoms": atoms, "char_extends": law.char_extends}


WORKLOADS = {w.name: w for w in (GaussCampaign, OscillationPaths, SpectralSweep)}
