"""Configuration-driven command line front end.

One JSON config file describes one run: the offspring law, the command
(``analyze``, ``limits``, ``simulate``, ``verify``, ``predict``), and the
command's parameters.  The schema is strict — unknown keys, malformed atoms,
and inconsistent probabilities fail with a diagnostic naming the offending
key path — and every output file starts with a provenance header (package
version, sha256 of the canonical config, seed) so identical configs yield
byte-identical artifacts.

Exit codes: 0 success; 1 usage (bad arguments or config); 2 refusal (the
requested analysis does not apply to the law); 3 fault (precondition or
internal error); 4 verification ran but a pass flag is false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import sys
from dataclasses import dataclass

from . import __version__
from .errors import RefusalError, UsageError
from .harness import (
    ExperimentConfig,
    _csv_cell,
    _csv_text,
    oscillation_residual,
    predictor_backtest,
    run_experiment,
)
from .limits import _DEFAULT_GRID, _centered_symbol, _cov_matrix, build_spectrum, predictor_coeffs, variance
from .offspring import OffspringLaw, make_law, moments
from .simulate import _DEFAULT_CAP, run, trace_csv
from .spectral import classify

__all__ = ["RunConfig", "parse_config", "serialize_config", "dispatch", "main"]

_COMMANDS = ("analyze", "limits", "simulate", "verify", "predict")

#: Largest ``replicates`` and ``K`` a config may ask for: a campaign simulates about 10^5 replicates of
#: 25 steps per second and keeps 8 (horizon + 1) bytes each; ``predictor_coeffs`` takes about 4 s at K = 256.
_MAX_REPLICATES, _MAX_K = 10**6, 256

_TOP_KEYS = {
    "command",
    "law",
    "horizon",
    "replicates",
    "seed",
    "lags",
    "K",
    "tolerances",
    "outdir",
    "M",
    "cap",
}
_LAW_KEYS = {"atoms", "char_extends"}
_ATOM_KEYS = {"prob", "births", "char"}
_TOL_KEYS = {"var", "skew", "kurt", "residual", "alternation"}

#: Summary fields written to ``oscillation.csv`` (followed by the overall ``passed``).
_OSCILLATION_COLUMNS = (
    "regime",
    "m",
    "gamma_star",
    "horizon",
    "n0",
    "replicates",
    "used",
    "excluded_capped",
    "median_residual",
    "median_profile_norm",
    "median_relative_residual",
    "alternation_fraction",
    "mean_ok",
    "degenerate",
)
#: Report fields written to ``backtest.csv``.
_BACKTEST_COLUMNS = (
    "K",
    "horizon",
    "replicates",
    "used",
    "excluded_capped",
    "mse_normalized",
    "naive_mse_normalized",
    "predicted_residual_sq",
    "predicted_target_sq",
    "regularized",
    "beats_naive",
)


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved run: command, law, and materialized parameters."""

    command: str
    law: OffspringLaw
    horizon: int | None
    replicates: int | None
    seed: int
    lags: tuple[int, ...]
    K: int | None
    tol_var: float
    tol_skew: float
    tol_kurt: float
    tol_residual: float
    tol_alternation: float
    outdir: str
    grid: int
    cap: int


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise UsageError(f"{path}: missing required key '{key}'")
    return obj[key]


def _as_object(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise UsageError(f"{path}: expected an object, got {type(x).__name__}")
    return x


def _as_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise UsageError(f"{path}: expected an integer, got {x!r}")
    return x


def _as_number(x, path: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise UsageError(f"{path}: expected a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        raise UsageError(f"{path}: integer is too large for a float") from None
    if not math.isfinite(v):
        raise UsageError(f"{path}: {v} is not finite")
    return v


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise UsageError(f"{path}.{key}: unknown key")


def _parse_law(raw, path: str) -> OffspringLaw:
    obj = _as_object(raw, path)
    _reject_unknown(obj, _LAW_KEYS, path)
    atoms = _need(obj, "atoms", path)
    if not isinstance(atoms, list):
        raise UsageError(f"{path}.atoms: expected a list")
    extends = obj.get("char_extends", False)
    if not isinstance(extends, bool):
        raise UsageError(f"{path}.char_extends: expected true or false")
    entries = []
    for i, atom in enumerate(atoms):
        apath = f"{path}.atoms[{i}]"
        aobj = _as_object(atom, apath)
        _reject_unknown(aobj, _ATOM_KEYS, apath)
        prob = _as_number(_need(aobj, "prob", apath), f"{apath}.prob")
        births = _need(aobj, "births", apath)
        if not isinstance(births, list) or not births:
            raise UsageError(f"{apath}.births: expected a non-empty list of counts by age")
        counts = tuple(_as_int(c, f"{apath}.births[{j}]") for j, c in enumerate(births))
        if "char" in aobj:
            char = aobj["char"]
            if not isinstance(char, list):
                raise UsageError(f"{apath}.char: expected a list of scores by age")
            entries.append((prob, counts, tuple(_as_number(v, f"{apath}.char[{j}]") for j, v in enumerate(char))))
        else:
            entries.append((prob, counts))
    try:
        return make_law(entries, char_extends=extends)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration; strict schema, located diagnostics."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    obj = _as_object(raw, "config")
    _reject_unknown(obj, _TOP_KEYS, "config")
    command = _need(obj, "command", "config")
    if command not in _COMMANDS:
        raise UsageError(f"config.command: {command!r} is not one of {', '.join(_COMMANDS)}")
    law = _parse_law(_need(obj, "law", "config"), "config.law")

    horizon = replicates = k_lags = None
    if "horizon" in obj:
        horizon = _as_int(obj["horizon"], "config.horizon")
        if horizon < 0:
            raise UsageError(f"config.horizon: {horizon} is negative")
    if "replicates" in obj:
        replicates = _as_int(obj["replicates"], "config.replicates")
        if not 1 <= replicates <= _MAX_REPLICATES:
            raise UsageError(f"config.replicates: {replicates} is outside [1, {_MAX_REPLICATES}]")
    if "K" in obj:
        k_lags = _as_int(obj["K"], "config.K")
        if not 0 <= k_lags <= _MAX_K:
            raise UsageError(f"config.K: {k_lags} is outside [0, {_MAX_K}]")
    seed = _as_int(obj.get("seed", 0), "config.seed")
    lags_raw = obj.get("lags", [1])
    if not isinstance(lags_raw, list) or not lags_raw:
        raise UsageError("config.lags: expected a non-empty list of integers")
    lags = tuple(_as_int(e, f"config.lags[{j}]") for j, e in enumerate(lags_raw))
    tol = _as_object(obj.get("tolerances", {}), "config.tolerances")
    _reject_unknown(tol, _TOL_KEYS, "config.tolerances")
    tol_var = _as_number(tol.get("var", ExperimentConfig.tol_var), "config.tolerances.var")
    tol_skew = _as_number(tol.get("skew", ExperimentConfig.tol_skew), "config.tolerances.skew")
    tol_kurt = _as_number(tol.get("kurt", ExperimentConfig.tol_kurt), "config.tolerances.kurt")
    tol_res = _as_number(tol.get("residual", 0.15), "config.tolerances.residual")
    tol_alt = _as_number(tol.get("alternation", 0.90), "config.tolerances.alternation")
    outdir = obj.get("outdir", ".")
    if not isinstance(outdir, str):
        raise UsageError("config.outdir: expected a string")
    grid = _as_int(obj.get("M", _DEFAULT_GRID), "config.M")
    if grid < 8:
        raise UsageError(f"config.M: {grid} is too small")
    cap = _as_int(obj.get("cap", _DEFAULT_CAP), "config.cap")
    if cap < 1:
        raise UsageError(f"config.cap: {cap} is not positive")

    required = {
        "analyze": (),
        "limits": (),
        "simulate": ("horizon",),
        "verify": ("horizon", "replicates"),
        "predict": ("horizon", "replicates", "K"),
    }[command]
    provided = {"horizon": horizon, "replicates": replicates, "K": k_lags}
    for key in required:
        if provided[key] is None:
            raise UsageError(f"config: command '{command}' requires key '{key}'")

    return RunConfig(
        command=command,
        law=law,
        horizon=horizon,
        replicates=replicates,
        seed=seed,
        lags=lags,
        K=k_lags,
        tol_var=tol_var,
        tol_skew=tol_skew,
        tol_kurt=tol_kurt,
        tol_residual=tol_res,
        tol_alternation=tol_alt,
        outdir=outdir,
        grid=grid,
        cap=cap,
    )


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig; ``parse_config`` round-trips it."""
    atoms = []
    for atom in config.law.atoms:
        entry: dict = {"prob": atom.prob, "births": list(atom.births[1:])}
        if atom.char_values is not None:
            entry["char"] = list(atom.char_values)
        atoms.append(entry)
    doc: dict = {
        "command": config.command,
        "law": {"atoms": atoms, "char_extends": config.law.char_extends},
        "seed": config.seed,
        "lags": list(config.lags),
        "tolerances": {
            "var": config.tol_var,
            "skew": config.tol_skew,
            "kurt": config.tol_kurt,
            "residual": config.tol_residual,
            "alternation": config.tol_alternation,
        },
        "outdir": config.outdir,
        "M": config.grid,
        "cap": config.cap,
    }
    if config.horizon is not None:
        doc["horizon"] = config.horizon
    if config.replicates is not None:
        doc["replicates"] = config.replicates
    if config.K is not None:
        doc["K"] = config.K
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Sink:
    """Collects artifact files, prefixing each with the provenance header."""

    def __init__(self, config: RunConfig):
        self.outdir = pathlib.Path(config.outdir)
        sha = hashlib.sha256(serialize_config(config).encode()).hexdigest()
        self.header = (
            f"# cmjfluct {__version__}\n# config-sha256 = {sha}\n# seed = {config.seed}\n"
        )

    def write(self, name: str, body: str) -> pathlib.Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / name
        path.write_text(self.header + body)
        return path


def _experiment_config(config: RunConfig) -> ExperimentConfig:
    return ExperimentConfig(
        law=config.law,
        horizon=config.horizon,
        replicates=config.replicates,
        master_seed=config.seed,
        lags=config.lags,
        tol_var=config.tol_var,
        tol_skew=config.tol_skew,
        tol_kurt=config.tol_kurt,
        cap=config.cap,
    )


def _cmd_analyze(config: RunConfig, sink: _Sink, out) -> int:
    report = classify(config.law)
    sink.write("analysis.txt", report.to_text())
    crit = set(report.gamma_crit)
    header = ("index", "re", "im", "modulus", "multiplicity", "residual", "deriv_re", "deriv_im", "critical")
    rows = [
        (i, root.real, root.imag, abs(root), mult, resid, deriv.real, deriv.imag, root in crit)
        for i, (root, mult, resid, deriv) in enumerate(
            zip(report.roots, report.multiplicities, report.residuals, report.derivs)
        )
    ]
    sink.write("roots.csv", _csv_text(header, rows))
    out.write(report.to_text())
    return 0


def _cmd_limits(config: RunConfig, sink: _Sink, out) -> int:
    report = classify(config.law)
    spectrum = build_spectrum(report, moments(config.law), config.grid)
    variances = [(k, variance(spectrum, {k: 1.0})) for k in config.lags]
    sink.write("variances.csv", _csv_text(("k", "variance"), variances))
    cov = _cov_matrix(spectrum, [_centered_symbol({k: 1.0}, spectrum.m) for k in config.lags])
    covariances = [(j, k, float(cov[a, b])) for a, j in enumerate(config.lags) for b, k in enumerate(config.lags)]
    sink.write("covariances.csv", _csv_text(("j", "k", "covariance"), covariances))
    out.write(f"regime {report.regime}, spectrum {spectrum.kind}, lags {list(config.lags)}\n")
    for k, var in variances:
        out.write(f"{k}: variance {_csv_cell(var)}\n")
    return 0


def _cmd_simulate(config: RunConfig, sink: _Sink, out) -> int:
    trace = run(config.law, config.horizon, config.seed, cap=config.cap)
    sink.write("trace.csv", trace_csv(trace, config.law))
    out.write(
        f"horizon {trace.horizon}, B_n {trace.B[-1]}, Z_n {trace.Z[-1]}, "
        f"capped {str(trace.capped).lower()}\n"
    )
    return 0


def _cmd_verify(config: RunConfig, sink: _Sink, out) -> int:
    regime = classify(config.law).regime
    if regime == "III":
        summary = oscillation_residual(_experiment_config(config))
        alt_ok = math.isnan(summary.alternation_fraction) or (
            summary.alternation_fraction >= config.tol_alternation
        )
        passed = (
            summary.mean_ok
            and summary.median_relative_residual <= config.tol_residual
            and alt_ok
        )
        cols = {name: getattr(summary, name) for name in _OSCILLATION_COLUMNS}
        cols["passed"] = passed
        sink.write("oscillation.csv", _csv_text(cols, [cols.values()]))
        for key, value in cols.items():
            out.write(f"{key} = {_csv_cell(value)}\n")
        out.write(f"rng_scheme = {summary.rng_scheme}\n")
        return 0 if passed else 4
    report = run_experiment(_experiment_config(config))
    sink.write("verification.csv", report.to_csv())
    out.write(report.to_text())
    return 0 if report.passed else 4


def _cmd_predict(config: RunConfig, sink: _Sink, out) -> int:
    spectral = classify(config.law)
    spectrum = build_spectrum(spectral, moments(config.law), config.grid)
    rule = predictor_coeffs(spectrum, config.K)
    sink.write("coefficients.csv", _csv_text(("k", "coefficient"), enumerate(rule.coeffs, start=1)))
    back = predictor_backtest(_experiment_config(config), config.K)
    sink.write("backtest.csv", _csv_text(_BACKTEST_COLUMNS, [[getattr(back, name) for name in _BACKTEST_COLUMNS]]))
    out.write(
        f"m {_csv_cell(rule.m)}, coefficients [{', '.join(format(c, '.12g') for c in rule.coeffs)}], "
        f"residual {_csv_cell(rule.residual_norm)}\n"
        f"mse {_csv_cell(back.mse_normalized)} vs naive {_csv_cell(back.naive_mse_normalized)}, "
        f"beats_naive {str(back.beats_naive).lower()}\n"
        f"rng_scheme = {back.rng_scheme}\n"
    )
    return 0


def dispatch(config: RunConfig, out=None) -> int:
    """Run one parsed configuration; write artifacts; return the exit code."""
    out = sys.stdout if out is None else out
    sink = _Sink(config)
    handler = {
        "analyze": _cmd_analyze,
        "limits": _cmd_limits,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "predict": _cmd_predict,
    }[config.command]
    return handler(config, sink, out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, which we reserve for refusals
        raise UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="cmjfluct",
        description="Analyze, simulate, and verify lattice branching-process fluctuations "
        "from a single JSON run configuration.",
        epilog="Exit codes: 0 success, 1 usage, 2 refusal, 3 fault, "
        "4 verification failed.",
    )
    parser.add_argument("config", help="path to the JSON run configuration")
    try:
        ns = parser.parse_args(argv)
        text = pathlib.Path(ns.config).read_text()
    except UsageError as exc:
        print(f"cmjfluct: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cmjfluct: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except UsageError as exc:
        print(f"cmjfluct: {exc}", file=sys.stderr)
        return 1
    try:
        return dispatch(config)
    except RefusalError as exc:
        print(f"cmjfluct: refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, OverflowError) as exc:
        print(f"cmjfluct: fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
