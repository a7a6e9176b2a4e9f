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
internal error, or an artifact that cannot be written); 4 verification ran
but a pass flag is false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import sys
from dataclasses import dataclass, fields

from . import __version__
from .errors import RefusalError, UsageError
from .harness import _MAX_CELLS, ExperimentConfig, OscillationSummary, _spectrum_for, predictor_backtest, verify
from .limits import _cov_matrix
from .offspring import OffspringLaw, make_law
from .simulate import _DEFAULT_CAP, _MAX_HORIZON, _csv_cell, _csv_text, run, trace_csv
from .spectral import _MAX_LAG, classify

__all__ = ["RunConfig", "parse_config", "serialize_config", "dispatch", "main"]

#: Largest ``replicates`` a config may ask for: a campaign simulates about 10^5 replicates of 25 steps per second
#: and keeps 8 (horizon + 1) bytes each.  ``K`` and ``|lag|`` are bounded by ``_MAX_LAG``, as in the library:
#: ``predictor_coeffs`` takes about 5 ms at K = 256 on a fresh law_i spectrum, and the lag table for lags
#: -256..256, the widest a config can ask for, about 9 ms and an 8.5 MB traced peak (one BLAS thread, 2 vCPU Xeon).
_MAX_REPLICATES = 10**6


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved run: command, law, and materialized parameters; its fields are the config's keys."""

    command: str
    law: OffspringLaw
    horizon: int | None
    replicates: int | None
    seed: int
    lags: tuple[int, ...]
    K: int | None
    tolerances: tuple[tuple[str, float], ...]  # (key, value) in _TOL_KEYS order
    outdir: str
    cap: int


_TOP_KEYS = tuple(f.name for f in fields(RunConfig))
_LAW_KEYS = {"atoms", "char_extends"}
_ATOM_KEYS = {"prob", "births", "char"}
#: The ``tolerances`` keys: each names the ``ExperimentConfig`` field ``tol_<key>``, in field order.
_TOL_KEYS = tuple(f.name.removeprefix("tol_") for f in fields(ExperimentConfig) if f.name.startswith("tol_"))
#: Inclusive bounds of the integer keys that are ``None`` unless given, in the order they are checked.
_BOUNDS = {"horizon": (0, _MAX_HORIZON), "replicates": (1, _MAX_REPLICATES), "K": (0, _MAX_LAG)}


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


def _reject_unknown(obj: dict, allowed: set[str] | tuple[str, ...], path: str) -> None:
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
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit, or nesting past its depth
        raise UsageError(f"config: {exc}") from exc
    obj = _as_object(raw, "config")
    _reject_unknown(obj, _TOP_KEYS, "config")
    command = _need(obj, "command", "config")
    if command not in _COMMANDS:
        raise UsageError(f"config.command: {command!r} is not one of {', '.join(_COMMANDS)}")
    law = _parse_law(_need(obj, "law", "config"), "config.law")

    bounded = {}
    for key, (lo, hi) in _BOUNDS.items():
        value = bounded[key] = _as_int(obj[key], f"config.{key}") if key in obj else None
        if value is not None and not lo <= value <= hi:
            raise UsageError(f"config.{key}: {value} is outside [{lo}, {hi}]")
    seed = _as_int(obj.get("seed", 0), "config.seed")
    lags_raw = obj.get("lags", [1])
    if not isinstance(lags_raw, list) or not lags_raw:
        raise UsageError("config.lags: expected a non-empty list of integers")
    lags = tuple(_as_int(e, f"config.lags[{j}]") for j, e in enumerate(lags_raw))
    for j, lag in enumerate(lags):
        if abs(lag) > _MAX_LAG:
            raise UsageError(f"config.lags[{j}]: {lag} is outside [-{_MAX_LAG}, {_MAX_LAG}]")
        if lag in lags[:j]:  # so at most 2 _MAX_LAG + 1 lags, and the covariance table stays bounded
            raise UsageError(f"config.lags[{j}]: {lag} repeats config.lags[{lags.index(lag)}]")
    tol = _as_object(obj.get("tolerances", {}), "config.tolerances")
    _reject_unknown(tol, _TOL_KEYS, "config.tolerances")
    tolerances = tuple(
        (key, _as_number(tol.get(key, getattr(ExperimentConfig, f"tol_{key}")), f"config.tolerances.{key}"))
        for key in _TOL_KEYS
    )
    outdir = obj.get("outdir", ".")
    if not isinstance(outdir, str):
        raise UsageError("config.outdir: expected a string")
    cap = _as_int(obj.get("cap", _DEFAULT_CAP), "config.cap")
    if cap < 1:
        raise UsageError(f"config.cap: {cap} is not positive")

    required = _COMMANDS[command][1]
    for key in required:
        if bounded[key] is None:
            raise UsageError(f"config: command '{command}' requires key '{key}'")
    if "replicates" in required:
        cells = bounded["replicates"] * (bounded["horizon"] + 1)
        if cells > _MAX_CELLS:
            raise UsageError(f"config: replicates * (horizon + 1) = {cells} exceeds {_MAX_CELLS}")

    return RunConfig(command=command, law=law, seed=seed, lags=lags, tolerances=tolerances, outdir=outdir, cap=cap,
                     **bounded)


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig, one key per field that is not ``None``; ``parse_config`` round-trips it."""
    values = ((f.name, getattr(config, f.name)) for f in fields(config))
    doc = {key: value for key, value in values if value is not None}  # json writes the lags tuple as a list
    atoms = []
    for atom in config.law.atoms:
        entry: dict = {"prob": atom.prob, "births": list(atom.births[1:])}
        if atom.char_values is not None:
            entry["char"] = list(atom.char_values)
        atoms.append(entry)
    doc["law"] = {"atoms": atoms, "char_extends": config.law.char_extends}
    doc["tolerances"] = dict(config.tolerances)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class _Sink:
    """Collects artifact files, prefixing each with the provenance header; made before the command runs, it refuses
    an ``outdir`` whose nearest existing ancestor is not a directory, and creates nothing until the first write."""

    def __init__(self, config: RunConfig):
        self.outdir = ancestor = pathlib.Path(config.outdir)
        while not ancestor.is_dir():
            if ancestor.exists() or ancestor == ancestor.parent:
                raise OSError(f"cannot write {self.outdir}: {ancestor} is not a directory")
            ancestor = ancestor.parent
        sha = hashlib.sha256(serialize_config(config).encode()).hexdigest()
        self.header = (
            f"# cmjfluct {__version__}\n# config-sha256 = {sha}\n# seed = {config.seed}\n"
        )

    def write(self, name: str, body: str) -> pathlib.Path:
        path = self.outdir / name
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
            path.write_text(self.header + body)
        except OSError as exc:  # not every OSError names its file, so name it here
            raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return path


def _experiment_config(config: RunConfig) -> ExperimentConfig:
    return ExperimentConfig(
        law=config.law,
        horizon=config.horizon,
        replicates=config.replicates,
        master_seed=config.seed,
        lags=config.lags,
        cap=config.cap,
        **{f"tol_{key}": value for key, value in config.tolerances},
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
    report, spectrum = _spectrum_for(config.law)
    cov = _cov_matrix(spectrum, [{k: 1.0} for k in config.lags])
    variances = [(k, float(cov[a, a])) for a, k in enumerate(config.lags)]
    sink.write("variances.csv", _csv_text(("k", "variance"), variances))
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
    report = verify(_experiment_config(config))
    sink.write("oscillation.csv" if isinstance(report, OscillationSummary) else "verification.csv", report.to_csv())
    out.write(report.to_text())
    return 0 if report.passed else 4


def _cmd_predict(config: RunConfig, sink: _Sink, out) -> int:
    back = predictor_backtest(_experiment_config(config), config.K)
    sink.write("coefficients.csv", _csv_text(("k", "coefficient"), enumerate(back.coeffs, start=1)))
    sink.write("backtest.csv", back.to_csv())
    out.write(back.to_text())
    return 0


#: Each command: its handler, and the keys its config must give.
_COMMANDS = {
    "analyze": (_cmd_analyze, ()),
    "limits": (_cmd_limits, ()),
    "simulate": (_cmd_simulate, ("horizon",)),
    "verify": (_cmd_verify, ("horizon", "replicates")),
    "predict": (_cmd_predict, ("horizon", "replicates", "K")),
}


def dispatch(config: RunConfig, out=None) -> int:
    """Run one parsed configuration; write artifacts; return the exit code."""
    out = sys.stdout if out is None else out
    return _COMMANDS[config.command][0](config, _Sink(config), out)


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
        config = parse_config(text)
    except UsageError as exc:
        print(f"cmjfluct: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cmjfluct: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        return dispatch(config)
    except RefusalError as exc:
        print(f"cmjfluct: refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:  # OSError: an artifact cannot be written
        print(f"cmjfluct: fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
