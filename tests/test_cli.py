"""Tests for the JSON-config command line front end."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import cmjfluct
from cmjfluct import cli
from cmjfluct.cli import (
    _MAX_CELLS,
    _MAX_HORIZON,
    _MAX_LAG,
    _MAX_REPLICATES,
    _TOL_KEYS,
    _experiment_config,
    main,
    parse_config,
    serialize_config,
)
from cmjfluct.errors import UsageError
from cmjfluct.harness import ExperimentConfig, oscillation_residual

GW13_ATOMS = [{"prob": 0.5, "births": [1]}, {"prob": 0.5, "births": [3]}]
E2B_ATOMS = [{"prob": 0.5, "births": [1, 8]}, {"prob": 0.5, "births": [3, 8]}]
E2C_ATOMS = [{"prob": 0.5, "births": [0, 9]}, {"prob": 0.5, "births": [2, 9]}]


def _config(tmp_path, **kwargs):
    doc = dict(kwargs)
    doc.setdefault("outdir", str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


# --------------------------------------------------------- parsing


def test_parse_minimal_law():
    config = parse_config(json.dumps({"command": "analyze", "law": {"atoms": GW13_ATOMS}}))
    assert config.command == "analyze"
    assert config.law.max_age == 1
    assert len(config.law.atoms) == 2
    # documented defaults
    assert config.seed == 0
    assert config.cap == 1 << 62
    assert not hasattr(config, "grid")


def test_parse_rejects_bad_probability_sum():
    atoms = [{"prob": 0.5, "births": [1]}, {"prob": 0.4, "births": [3]}]
    with pytest.raises(UsageError, match="0.9"):
        parse_config(json.dumps({"command": "analyze", "law": {"atoms": atoms}}))


def test_parse_rejects_ragged_characteristics():
    atoms = [
        {"prob": 0.5, "births": [1], "char": [1.0, 0.0]},
        {"prob": 0.5, "births": [3], "char": [1.0]},
    ]
    with pytest.raises(UsageError, match=r"atoms\[1\]"):
        parse_config(json.dumps({"command": "analyze", "law": {"atoms": atoms}}))


def test_parse_names_offending_atom():
    missing = [{"prob": 0.5, "births": [1], "char": [1.0]}, {"prob": 0.5, "births": [3]}]
    with pytest.raises(UsageError, match=r"config.law: atoms\[1\]: characteristic present"):
        parse_config(json.dumps({"command": "analyze", "law": {"atoms": missing}}))
    negative = [{"prob": 0.5, "births": [1, -2]}, {"prob": 0.5, "births": [3]}]
    with pytest.raises(UsageError, match=r"config.law: atoms\[0\]: birth count -2 at age 2"):
        parse_config(json.dumps({"command": "analyze", "law": {"atoms": negative}}))


def test_oversized_integers_are_usage_errors(tmp_path, capsys):
    huge = 10**400
    cases = [
        ([{"prob": huge, "births": [1]}], r"config.law.atoms\[0\].prob: integer is too large for a float"),
        ([{"prob": 1.0, "births": [1, huge]}], r"config.law: atoms\[0\]: birth count at age 2 is too large for a float"),
    ]
    for atoms, message in cases:
        with pytest.raises(UsageError, match=message):
            parse_config(json.dumps({"command": "analyze", "law": {"atoms": atoms}}))
        path, _ = _config(tmp_path, command="analyze", law={"atoms": atoms})
        assert main([str(path)]) == 1
        assert "too large for a float" in capsys.readouterr().err


def test_unbounded_campaigns_are_usage_errors(tmp_path, capsys):
    # a config asking for 10**400 replicates or predictor lags must be refused at once, not run until killed
    predict = {"command": "predict", "law": {"atoms": E2B_ATOMS}, "horizon": 12, "replicates": 100, "K": 2}
    verify = {"command": "verify", "law": {"atoms": E2B_ATOMS}, "horizon": 12, "replicates": 100}
    for doc, key, limit in ((verify, "replicates", _MAX_REPLICATES), (predict, "replicates", _MAX_REPLICATES), (predict, "K", _MAX_LAG)):
        assert getattr(parse_config(json.dumps({**doc, key: limit})), key) == limit
        with pytest.raises(UsageError, match=f"config.{key}: "):
            parse_config(json.dumps({**doc, key: limit + 1}))
        path, _ = _config(tmp_path, **{**doc, key: 10**400})
        start = time.perf_counter()
        assert main([str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert f"config.{key}: " in capsys.readouterr().err


def test_horizon_and_campaign_size_are_bounded():
    # the engine's birth schedule grows with the horizon and a campaign's totals with replicates x steps;
    # parse_config alone decides, so nothing is allocated here
    law = {"atoms": E2B_ATOMS}
    simulate = {"command": "simulate", "law": law}
    assert parse_config(json.dumps({**simulate, "horizon": _MAX_HORIZON})).horizon == _MAX_HORIZON
    for horizon in (_MAX_HORIZON + 1, 10**400, -1):
        with pytest.raises(UsageError, match=rf"config.horizon: {horizon} is outside \[0, {_MAX_HORIZON}\]"):
            parse_config(json.dumps({**simulate, "horizon": horizon}))
    for doc in ({"command": "verify", "law": law}, {"command": "predict", "law": law, "K": 2}):
        # the documented largest campaign, 10^6 replicates of 25 steps, fits the budget exactly
        assert parse_config(json.dumps({**doc, "horizon": 24, "replicates": 10**6})).replicates == 10**6
        assert 10**6 * 25 == _MAX_CELLS
        for horizon, replicates in ((25, 10**6), (_MAX_HORIZON, _MAX_CELLS // _MAX_HORIZON)):
            with pytest.raises(UsageError, match=rf"replicates \* \(horizon \+ 1\) = {replicates * (horizon + 1)} "):
                parse_config(json.dumps({**doc, "horizon": horizon, "replicates": replicates}))
    # the cell budget binds campaigns only: a simulate config may carry replicates it never runs
    assert parse_config(json.dumps({**simulate, "horizon": _MAX_HORIZON, "replicates": 10**6})).horizon == _MAX_HORIZON


def test_lags_beyond_max_k_are_usage_errors(tmp_path, capsys):
    # the lag table grows with the largest |lag|, so an unbounded lag could ask for work that runs until killed
    law = {"atoms": [{"prob": 0.5, "births": [1, 1]}, {"prob": 0.5, "births": [3, 1]}]}
    path, _ = _config(tmp_path, command="limits", law=law, lags=[1, _MAX_LAG, -_MAX_LAG])
    assert main([str(path)]) == 0
    rows = (tmp_path / "out" / "variances.csv").read_text().strip().split("\n")[-3:]
    assert [row.split(",")[0] for row in rows] == ["1", str(_MAX_LAG), str(-_MAX_LAG)]
    assert all(float(row.split(",")[1]) > 0.0 for row in rows)
    for lag in (_MAX_LAG + 1, -_MAX_LAG - 1):
        path, _ = _config(tmp_path, command="limits", law=law, lags=[1, lag])
        start = time.perf_counter()
        assert main([str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert f"config.lags[1]: {lag} is outside [-{_MAX_LAG}, {_MAX_LAG}]" in capsys.readouterr().err
    verify = {"command": "verify", "law": law, "horizon": 12, "replicates": 100, "lags": [_MAX_LAG + 1]}
    with pytest.raises(UsageError, match=r"config.lags\[0\]: "):
        parse_config(json.dumps(verify))


def test_repeated_lags_are_usage_errors(tmp_path, capsys):
    # limits costs len(lags)^2, so repeats could make a bounded config run for seconds; distinct lags are at most 513
    law = {"atoms": [{"prob": 0.5, "births": [1, 1]}, {"prob": 0.5, "births": [3, 1]}]}
    for lags, j, first in (([1] * 500, 1, 0), ([2, -1, 3, -1], 3, 1)):
        path, _ = _config(tmp_path, command="limits", law=law, lags=lags)
        start = time.perf_counter()
        assert main([str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert f"config.lags[{j}]: {lags[j]} repeats config.lags[{first}]" in capsys.readouterr().err
    every_lag = {"command": "limits", "law": law, "lags": list(range(-_MAX_LAG, _MAX_LAG + 1))}
    assert len(parse_config(json.dumps(every_lag)).lags) == 2 * _MAX_LAG + 1


def test_parse_rejects_unknown_keys():
    with pytest.raises(UsageError, match="config.frobnicate"):
        parse_config(
            json.dumps({"command": "analyze", "law": {"atoms": GW13_ATOMS}, "frobnicate": 1})
        )
    with pytest.raises(UsageError, match=r"atoms\[0\].probability"):
        parse_config(
            json.dumps(
                {"command": "analyze", "law": {"atoms": [{"probability": 1.0, "births": [2]}]}}
            )
        )


def test_retired_grid_key_is_unknown(tmp_path, capsys):
    # `M` sized a quadrature grid that the exact regime-I spectrum no longer has
    path, _ = _config(tmp_path, command="analyze", law={"atoms": GW13_ATOMS}, M=4096)
    assert main([str(path)]) == 1
    assert "config.M: unknown key" in capsys.readouterr().err


def test_parse_locates_syntax_errors():
    with pytest.raises(UsageError, match="line 2"):
        parse_config('{"command": "analyze",\n "law": }')


def test_parse_rejects_unknown_command():
    with pytest.raises(UsageError, match="config.command"):
        parse_config(json.dumps({"command": "transmogrify", "law": {"atoms": GW13_ATOMS}}))


def test_parse_requires_command_parameters():
    with pytest.raises(UsageError, match="horizon"):
        parse_config(json.dumps({"command": "simulate", "law": {"atoms": GW13_ATOMS}}))
    with pytest.raises(UsageError, match="replicates"):
        parse_config(
            json.dumps({"command": "verify", "law": {"atoms": GW13_ATOMS}, "horizon": 10})
        )
    with pytest.raises(UsageError, match="'K'"):
        parse_config(
            json.dumps(
                {
                    "command": "predict",
                    "law": {"atoms": GW13_ATOMS},
                    "horizon": 10,
                    "replicates": 200,
                }
            )
        )


def test_round_trip():
    doc = {
        "command": "verify",
        "law": {
            "atoms": [
                {"prob": 0.5, "births": [1], "char": [1.0, 0.5]},
                {"prob": 0.5, "births": [3], "char": [-1.0, 0.25]},
            ],
            "char_extends": True,
        },
        "horizon": 12,
        "replicates": 500,
        "seed": 11,
        "lags": [1, 2, 3],
        "tolerances": {"var": 0.2},
        "outdir": "somewhere",
        "cap": 10**9,
    }
    config = parse_config(json.dumps(doc))
    assert parse_config(serialize_config(config)) == config


def test_each_tolerance_key_is_an_experiment_config_field():
    names = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name.startswith("tol_")]
    assert [f"tol_{key}" for key in _TOL_KEYS] == names
    doc = {"command": "verify", "law": {"atoms": GW13_ATOMS}, "horizon": 12, "replicates": 200}
    for key in _TOL_KEYS:
        config = parse_config(json.dumps({**doc, "tolerances": {key: 0.625}}))
        assert parse_config(serialize_config(config)) == config
        assert json.loads(serialize_config(config))["tolerances"][key] == 0.625
        campaign = _experiment_config(config)
        for name in names:
            assert getattr(campaign, name) == (0.625 if name == f"tol_{key}" else getattr(ExperimentConfig, name))
    with pytest.raises(UsageError, match=r"config.tolerances.kurt: expected a number"):
        parse_config(json.dumps({**doc, "tolerances": {"kurt": "tight"}}))


# -------------------------------------------------------- dispatch


def test_analyze_reports_roots(tmp_path, capsys):
    path, doc = _config(tmp_path, command="analyze", law={"atoms": E2B_ATOMS})
    assert main([str(path)]) == 0
    text = (tmp_path / "out" / "analysis.txt").read_text()
    assert "regime = II" in text
    assert "-0.5" in text
    rows = (tmp_path / "out" / "roots.csv").read_text().strip().split("\n")
    critical = [r for r in rows if r.endswith(",true")]
    assert len(critical) == 1
    fields = critical[0].split(",")
    assert float(fields[1]) == pytest.approx(-0.5, abs=1e-12)
    assert float(fields[6]) == pytest.approx(-6.0, abs=1e-9)
    assert "regime = II" in capsys.readouterr().out


def test_every_artifact_carries_provenance(tmp_path):
    path, _ = _config(tmp_path, command="analyze", law={"atoms": GW13_ATOMS}, seed=42)
    assert main([str(path)]) == 0
    for name in ("analysis.txt", "roots.csv"):
        lines = (tmp_path / "out" / name).read_text().split("\n")
        assert lines[0].startswith("# cmjfluct ")
        assert lines[1].startswith("# config-sha256 = ")
        assert lines[2] == "# seed = 42"


def test_limits_tables_and_determinism(tmp_path):
    path, _ = _config(
        tmp_path, command="limits", law={"atoms": GW13_ATOMS}, lags=[-1, 0, 1, 2]
    )
    assert main([str(path)]) == 0
    variances = (tmp_path / "out" / "variances.csv").read_text()
    rows = dict(
        line.split(",") for line in variances.strip().split("\n") if not line.startswith(("#", "k,"))
    )
    assert float(rows["0"]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows["1"]) == pytest.approx(0.125, abs=1e-10)
    covariances = (tmp_path / "out" / "covariances.csv").read_text()
    # byte-identical rerun
    assert main([str(path)]) == 0
    assert (tmp_path / "out" / "variances.csv").read_text() == variances
    assert (tmp_path / "out" / "covariances.csv").read_text() == covariances


def test_simulate_writes_trace(tmp_path, capsys):
    path, _ = _config(
        tmp_path, command="simulate", law={"atoms": [{"prob": 1.0, "births": [2]}]}, horizon=4
    )
    assert main([str(path)]) == 0
    body = (tmp_path / "out" / "trace.csv").read_text()
    assert "# law = " in body
    assert body.strip().split("\n")[-1].startswith("4,16,31")
    assert "Z_n 31" in capsys.readouterr().out


def test_simulate_refuses_a_cap_past_int64_by_name(tmp_path, capsys):
    path, _ = _config(tmp_path, command="simulate", law={"atoms": GW13_ATOMS}, horizon=40, cap=1 << 80)
    assert main([str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cmjfluct: fault: cap = 1208925819614629174706176 exceeds 2^63 - 1 = 9223372036854775807")
    assert not (tmp_path / "out" / "trace.csv").exists()
    # one atom draws nothing, so its counts may pass int64
    path, _ = _config(tmp_path, command="simulate", law={"atoms": [{"prob": 1.0, "births": [2]}]}, horizon=100,
                      cap=1 << 80)
    assert main([str(path)]) == 0
    assert f"Z_n {(1 << 80) - 1}" in capsys.readouterr().out


def test_simulate_scores_a_capped_path_without_fault(tmp_path, capsys):
    # counts pass 2^53 long before the cap; the scored totals' identity check is exact on the integer counts
    atoms = [{"prob": 0.5, "births": [1, 1], "char": [1.0, 1.0]}, {"prob": 0.5, "births": [3, 1], "char": [1.0, 0.5]}]
    for seed in range(1, 6):
        path, _ = _config(tmp_path, command="simulate", law={"atoms": atoms}, horizon=70, seed=seed)
        assert main([str(path)]) == 0
        assert "capped true" in capsys.readouterr().out
        assert "Zphi" in (tmp_path / "out" / "trace.csv").read_text()


def test_verify_regime_one_passes(tmp_path, capsys):
    # the horizon and R at which test_harness finds the verdict seed-independent
    path, _ = _config(
        tmp_path,
        command="verify",
        law={"atoms": GW13_ATOMS},
        horizon=18,
        replicates=20000,
        seed=5150,
        lags=[1, 2],
    )
    assert main([str(path)]) == 0
    assert "passed = true" in capsys.readouterr().out
    assert (tmp_path / "out" / "verification.csv").exists()


def test_verify_failure_exits_four(tmp_path, capsys):
    # an absurdly tight variance tolerance cannot be met at R = 400
    path, _ = _config(
        tmp_path,
        command="verify",
        law={"atoms": GW13_ATOMS},
        horizon=10,
        replicates=400,
        seed=2,
        tolerances={"var": 1e-6},
    )
    assert main([str(path)]) == 4
    assert "passed = false" in capsys.readouterr().out


def test_campaign_lags_past_the_horizon_are_faults(tmp_path, capsys):
    # a lag or predictor order past the horizon would read counts before time 0; the config names it
    verify = {"command": "verify", "law": {"atoms": E2B_ATOMS}, "horizon": 24, "replicates": 100, "lags": [30]}
    predict = {"command": "predict", "law": {"atoms": E2B_ATOMS}, "horizon": 4, "replicates": 100, "K": 8}
    for doc, name, message in ((verify, "verification.csv", "lags[0] = 30 is outside [0, 24]"),
                               (predict, "backtest.csv", "K = 8 is outside [0, 4]")):
        path, _ = _config(tmp_path, **doc)
        assert main([str(path)]) == 3
        assert capsys.readouterr().err == f"cmjfluct: fault: {message}\n"
        assert not (tmp_path / "out" / name).exists()


def test_verify_regime_three_uses_oscillation_summary(tmp_path, capsys):
    path, _ = _config(
        tmp_path,
        command="verify",
        law={"atoms": E2C_ATOMS},
        horizon=16,
        replicates=300,
        seed=9,
        lags=[1, 2],
    )
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "median_relative_residual" in out
    body = (tmp_path / "out" / "oscillation.csv").read_text()
    assert "passed" in body and ",true" in body


def test_verify_regime_three_exits_as_the_summary_verdict(tmp_path, capsys):
    """The exit code is ``oscillation_residual(...).passed``: at the default tolerances, and with
    ``tolerances.residual`` and then ``tolerances.alternation`` tightened until only their own clause fails."""
    doc = dict(command="verify", law={"atoms": E2C_ATOMS}, horizon=12, replicates=200, seed=0)
    law = parse_config(json.dumps(doc)).law
    base = oscillation_residual(ExperimentConfig(law, 12, 200, 0))
    assert base.passed and base.median_relative_residual > 0.0 and base.alternation_fraction < 1.0
    cases = [
        ({}, (True, True)),
        ({"residual": base.median_relative_residual / 2}, (False, True)),
        ({"alternation": (1.0 + base.alternation_fraction) / 2}, (True, False)),
    ]
    for tolerances, (residual_ok, alternation_ok) in cases:
        path, _ = _config(tmp_path, **doc, tolerances=tolerances)
        config = ExperimentConfig(law, 12, 200, 0, **{f"tol_{key}": value for key, value in tolerances.items()})
        summary = oscillation_residual(config)
        assert summary.mean_ok
        assert (summary.median_relative_residual <= config.tol_residual) is residual_ok
        assert (summary.alternation_fraction >= config.tol_alternation) is alternation_ok
        assert summary.passed is (residual_ok and alternation_ok)
        assert main([str(path)]) == (0 if summary.passed else 4)
        assert f"passed = {str(summary.passed).lower()}" in capsys.readouterr().out
        assert (tmp_path / "out" / "oscillation.csv").read_text().endswith(f",{str(summary.passed).lower()}\n")


def test_verify_regime_three_past_float64_integers_completes(tmp_path, capsys):
    # births pass 2^53 by horizon 32; a float64 identity re-check once faulted here (exit 3) on rounding alone
    path, _ = _config(tmp_path, command="verify", law={"atoms": E2C_ATOMS}, horizon=32, replicates=200, seed=5)
    assert main([str(path)]) in (0, 4)
    assert "used = 200" in capsys.readouterr().out


def test_verify_non_simple_root_refused(tmp_path, capsys):
    path, _ = _config(
        tmp_path,
        command="verify",
        law={"atoms": [{"prob": 1.0, "births": [0, 12, 16]}]},
        horizon=12,
        replicates=200,
    )
    assert main([str(path)]) == 2
    assert "non-simple critical root" in capsys.readouterr().err


def test_verify_and_predict_regime_one_double_secondary_root(tmp_path, capsys):
    # 1 - mu_hat = -(4z - 1)(z + 1)^2: the double root -1 lies off the circle |z| = 1/2, so the law is regime I
    atoms = [{"prob": 0.5, "births": [1, 7, 4]}, {"prob": 0.5, "births": [3, 7, 4]}]
    path, _ = _config(
        tmp_path, command="verify", law={"atoms": atoms}, horizon=14, replicates=10_000, seed=1, lags=[1, 2, 3]
    )
    assert main([str(path)]) == 0
    assert "regime = I\n" in capsys.readouterr().out
    path, _ = _config(tmp_path, command="predict", law={"atoms": atoms}, horizon=14, replicates=2000, seed=1, K=2)
    assert main([str(path)]) == 0
    assert (tmp_path / "out" / "backtest.csv").exists()


def test_limits_refused_below_criticality(tmp_path, capsys):
    path, _ = _config(tmp_path, command="limits", law={"atoms": E2C_ATOMS})
    assert main([str(path)]) == 2
    assert "refused" in capsys.readouterr().err


def test_predict_regime_two(tmp_path, capsys):
    path, _ = _config(
        tmp_path,
        command="predict",
        law={"atoms": E2B_ATOMS},
        horizon=24,
        replicates=200,
        seed=99,
        K=1,
    )
    assert main([str(path)]) == 0
    coeffs = (tmp_path / "out" / "coefficients.csv").read_text()
    assert coeffs.strip().split("\n")[-1] == "1,8"
    back = (tmp_path / "out" / "backtest.csv").read_text()
    assert ",true" in back.strip().split("\n")[-1]  # beats_naive
    assert "beats_naive true" in capsys.readouterr().out


def test_predict_reports_regularized_rule(tmp_path, capsys):
    # one critical atom carries one independent direction, so K = 3 needs the ridge, and stdout says so
    path, _ = _config(
        tmp_path, command="predict", law={"atoms": E2B_ATOMS}, horizon=12, replicates=200, seed=3, K=3
    )
    assert main([str(path)]) == 0
    assert ", regularized true\n" in capsys.readouterr().out


def test_predict_deterministic_law_refused(tmp_path, capsys):
    path, _ = _config(
        tmp_path,
        command="predict",
        law={"atoms": [{"prob": 1.0, "births": [2]}]},
        horizon=10,
        replicates=200,
        K=1,
    )
    assert main([str(path)]) == 2


def test_repeated_litters_verify_as_deterministic_and_predict_refuses(tmp_path, capsys):
    # two atoms share one litter, so the law is deterministic: the limit is 0 exactly and no predictor applies
    atoms = [{"prob": 0.12598327537554543, "births": [1, 1]}, {"prob": 0.8740167246244545, "births": [1, 1]}]
    path, _ = _config(tmp_path, command="verify", law={"atoms": atoms}, horizon=12, replicates=200)
    assert main([str(path)]) == 0
    assert "lag 1: var = 0 (predicted 0, rel err 0, ok)" in capsys.readouterr().out
    path, _ = _config(tmp_path, command="predict", law={"atoms": atoms}, horizon=12, replicates=200, K=1)
    assert main([str(path)]) == 2
    assert "deterministic litters" in capsys.readouterr().err


def test_precondition_violations_are_faults(tmp_path, capsys):
    # replicates below the harness minimum parse fine but fault downstream
    path, _ = _config(
        tmp_path,
        command="verify",
        law={"atoms": GW13_ATOMS},
        horizon=10,
        replicates=50,
    )
    assert main([str(path)]) == 3
    assert "fault" in capsys.readouterr().err


def test_predict_rejected_campaign_writes_no_coefficients(tmp_path, capsys):
    # the coefficients come from the backtest report, so a campaign config fault comes before any artifact
    path, _ = _config(tmp_path, command="predict", law={"atoms": E2B_ATOMS}, horizon=3, replicates=200, K=1)
    assert main([str(path)]) == 3
    assert "need at least 2 K" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: A config's type and range checks: the top-level keys to set (``None`` drops one) or the whole config's text,
#: and the message ``main`` prints.
_USAGE_CASES = {
    "missing-key": ({"command": None}, "config: missing required key 'command'"),
    "not-an-object": ("[1]", "config: expected an object, got list"),
    "not-an-integer": ({"seed": 1.5}, "config.seed: expected an integer, got 1.5"),
    "seed": ({"seed": -1}, "config.seed: -1 is negative"),
    "not-finite": ({"law": {"atoms": [{"prob": math.nan, "births": [2]}]}},
                   "config.law.atoms[0].prob: nan is not finite"),
    "atoms": ({"law": {"atoms": {}}}, "config.law.atoms: expected a list"),
    "char_extends": ({"law": {"atoms": GW13_ATOMS, "char_extends": 1}},
                     "config.law.char_extends: expected true or false"),
    "births": ({"law": {"atoms": [{"prob": 1.0, "births": []}]}},
               "config.law.atoms[0].births: expected a non-empty list of counts by age"),
    "char": ({"law": {"atoms": [{"prob": 1.0, "births": [2], "char": 1.0}]}},
             "config.law.atoms[0].char: expected a list of scores by age"),
    "lags": ({"lags": []}, "config.lags: expected a non-empty list of integers"),
    "outdir": ({"outdir": 5}, "config.outdir: expected a string"),
    "cap": ({"cap": 0}, "config.cap: 0 is not positive"),
}


@pytest.mark.parametrize("case", _USAGE_CASES, ids=str)
def test_config_type_and_range_checks_are_usage_errors(case, tmp_path, capsys):
    change, message = _USAGE_CASES[case]
    path = tmp_path / "config.json"
    if isinstance(change, str):
        path.write_text(change)
    else:
        doc = {"command": "limits", "law": {"atoms": GW13_ATOMS}, "outdir": str(tmp_path / "out"), **change}
        path.write_text(json.dumps({key: value for key, value in doc.items() if value is not None}))
    assert main([str(path)]) == 1
    assert capsys.readouterr().err == f"cmjfluct: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_usage_errors(tmp_path, capsys):
    assert main([str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad)]) == 1
    # argparse errors are rerouted away from its default exit code 2
    assert main([]) == 1
    capsys.readouterr()


def test_unwritable_outdir_is_a_fault_naming_the_path(tmp_path, capsys):
    # an outdir under a regular file cannot be made: a fault (exit 3) naming the file, not a traceback and exit 1
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    outdir = blocker / "out"
    path, _ = _config(tmp_path, command="analyze", law={"atoms": GW13_ATOMS}, outdir=str(outdir))
    assert main([str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"cmjfluct: fault: cannot write {outdir}: {blocker} is not a directory\n"


def test_unwritable_outdir_is_found_before_the_campaign_runs(tmp_path, capsys, monkeypatch):
    # the outdir is checked when the artifact sink is made, so verify's campaign never starts
    def campaign(config):
        raise AssertionError("the campaign ran before the outdir was checked")

    monkeypatch.setattr(cli, "verify", campaign)
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    outdir = blocker / "deeper" / "out"
    path, _ = _config(tmp_path, command="verify", law={"atoms": GW13_ATOMS}, horizon=8, replicates=200,
                      outdir=str(outdir))
    assert main([str(path)]) == 3
    assert capsys.readouterr().err == f"cmjfluct: fault: cannot write {outdir}: {blocker} is not a directory\n"
    assert blocker.read_text() == ""


def test_verify_refuses_a_tolerance_it_can_never_meet(tmp_path, capsys):
    # a negative variance tolerance fails every variance clause: a refused config (exit 3), not a failed check (exit 4)
    path, _ = _config(tmp_path, command="verify", law={"atoms": GW13_ATOMS}, horizon=8, replicates=200,
                      tolerances={"var": -0.1})
    assert main([str(path)]) == 3
    assert capsys.readouterr().err == "cmjfluct: fault: tol_var = -0.1: a tolerance must be a number >= 0\n"
    assert not (tmp_path / "out").exists()


def test_undecodable_config_is_a_usage_error(tmp_path, capsys):
    # text that is not UTF-8, an integer past Python's digit limit, or nesting past its depth: exit 1, no traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"command": "analyze", "law": "\xff"}')
    assert main([str(bad)]) == 1
    assert capsys.readouterr().err.startswith("cmjfluct: cannot read config: ")
    for text in ('{"seed": ' + "9" * 5000 + "}", "[" * 100_000):
        bad.write_text(text)
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cmjfluct: config: ") and err.count("\n") == 1


def test_console_module_entry(tmp_path):
    path, _ = _config(tmp_path, command="analyze", law={"atoms": GW13_ATOMS})
    # the child interpreter imports the same package the suite tests
    src = str(pathlib.Path(cmjfluct.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cmjfluct.cli", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "regime = I" in proc.stdout
