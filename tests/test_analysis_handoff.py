"""A campaign given the analysis its caller already made matches one that makes its own.

``run_experiment`` and ``oscillation_residual`` take the law's spectral report
from a caller that already has it; ``verify`` hands its report on to the
regime's campaign, and gives that campaign's report field for field; and
the CLI ``predict`` reads its rule from the backtest's report.  A handed
report must give every field the campaign gives on its own; a refusal must
keep its message and come before any simulation; and the counts of
``classify``, ``build_spectrum`` and ``predictor_coeffs`` calls must show that
one CLI command analyses its law, and solves its predictor, once.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from cmjfluct import cli, harness, make_law
from cmjfluct.errors import RefusalError
from cmjfluct.harness import ExperimentConfig, oscillation_residual, run_experiment, verify
from cmjfluct.spectral import classify

_LAWS = {
    "law_i": [(0.5, (1, 1)), (0.5, (3, 1))],  # circle
    "law_ii": [(0.5, (1, 8)), (0.5, (3, 8))],  # one atom at -1/2
    "pair_ii": [(0.5, (1, 4, 16)), (0.5, (3, 4, 16))],  # a conjugate pair of atoms
    "double_root_i": [(0.5, (1, 7, 4)), (0.5, (3, 7, 4))],  # regime I with a double root -1 off the circle
    "law_iii": [(0.5, (0, 9)), (0.5, (2, 9))],  # oscillating: every Gaussian campaign refuses
}


def _fields(x):
    """Every field of a result, floats by their bits (nan included), so equal means bit-identical."""
    if dataclasses.is_dataclass(x):
        return {f.name: _fields(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (tuple, list)):
        return [_fields(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return float(x).hex() if math.isfinite(x) else repr(float(x))
    if isinstance(x, complex):
        return [_fields(x.real), _fields(x.imag)]
    return x


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", _fields(fn(*args, **kwargs))
    except RefusalError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("name", sorted(_LAWS))
def test_a_handed_report_matches_the_campaigns_own(name):
    law = make_law(_LAWS[name])
    config = ExperimentConfig(law, 24, 300, 11, lags=(1, 2))
    report = classify(law)
    for campaign in (run_experiment, oscillation_residual):
        got = _outcome(campaign, config, report=report)
        assert got == _outcome(campaign, ExperimentConfig(make_law(_LAWS[name]), 24, 300, 11, lags=(1, 2)))
        assert got[0] == ("refused" if (campaign is run_experiment) == (name == "law_iii") else "ok")


@pytest.mark.parametrize("name", ["law_i", "law_ii", "pair_ii", "law_iii"])
def test_verify_is_the_regimes_campaign(name):
    config = ExperimentConfig(make_law(_LAWS[name]), 24, 300, 11, lags=(1, 2))
    campaign = oscillation_residual if name == "law_iii" else run_experiment
    got, want = verify(config), campaign(config)
    assert type(got) is type(want) and _fields(got) == _fields(want)


def test_refusals_on_a_handed_report_come_first_with_their_messages(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before refusing")

    law_iii, law_ii = make_law(_LAWS["law_iii"]), make_law(_LAWS["law_ii"])
    expected = [str(_raises(run_experiment, ExperimentConfig(law_iii, 16, 100, 0))),
                str(_raises(oscillation_residual, ExperimentConfig(law_ii, 16, 100, 0)))]
    monkeypatch.setattr(harness, "_counts", no_simulation)
    got = [str(_raises(run_experiment, ExperimentConfig(law_iii, 16, 100, 0), report=classify(law_iii))),
           str(_raises(oscillation_residual, ExperimentConfig(law_ii, 16, 100, 0), report=classify(law_ii)))]
    assert got == expected
    assert got[0].startswith("regime III: fluctuations oscillate without a limiting covariance")


def _raises(fn, *args, **kwargs) -> RefusalError:
    with pytest.raises(RefusalError) as info:
        fn(*args, **kwargs)
    return info.value


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``classify``, ``build_spectrum`` and ``predictor_coeffs`` calls, by wrappers on every name
    ``harness`` and ``cli`` call."""
    counts = collections.Counter()
    for module in (harness, cli):
        for name in ("classify", "build_spectrum", "predictor_coeffs"):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


def _main(tmp_path, **doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**doc, "outdir": str(tmp_path / "out")}))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(path)])


def test_cli_predict_analyses_its_law_once(calls, tmp_path):
    atoms = [{"prob": p, "births": list(b)} for p, b in _LAWS["law_i"]]
    assert _main(tmp_path, command="predict", law={"atoms": atoms}, horizon=12, replicates=200, K=2) == 0
    assert calls == {"classify": 1, "build_spectrum": 1, "predictor_coeffs": 1}


@pytest.mark.parametrize("name", ["law_ii", "law_iii"])
def test_cli_verify_classifies_its_law_once(calls, tmp_path, name):
    atoms = [{"prob": p, "births": list(b)} for p, b in _LAWS[name]]
    assert _main(tmp_path, command="verify", law={"atoms": atoms}, horizon=12, replicates=200) in (0, 4)
    assert calls["classify"] == 1
    assert calls["build_spectrum"] == (1 if name == "law_ii" else 0)
