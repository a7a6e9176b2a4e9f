"""Tests for the JSON-config command line front end."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import cmjfluct
from cmjfluct.cli import _MAX_K, _MAX_REPLICATES, main, parse_config, serialize_config
from cmjfluct.errors import UsageError

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
    assert config.grid == 4096
    assert config.cap == 1 << 62


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
    for doc, key, limit in ((verify, "replicates", _MAX_REPLICATES), (predict, "replicates", _MAX_REPLICATES), (predict, "K", _MAX_K)):
        assert getattr(parse_config(json.dumps({**doc, key: limit})), key) == limit
        with pytest.raises(UsageError, match=f"config.{key}: "):
            parse_config(json.dumps({**doc, key: limit + 1}))
        path, _ = _config(tmp_path, **{**doc, key: 10**400})
        start = time.perf_counter()
        assert main([str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert f"config.{key}: " in capsys.readouterr().err


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
        "M": 8192,
        "cap": 10**9,
    }
    config = parse_config(json.dumps(doc))
    assert parse_config(serialize_config(config)) == config


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


def test_usage_errors(tmp_path, capsys):
    assert main([str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad)]) == 1
    # argparse errors are rerouted away from its default exit code 2
    assert main([]) == 1
    capsys.readouterr()


def test_console_module_entry(tmp_path):
    path, _ = _config(tmp_path, command="analyze", law={"atoms": GW13_ATOMS})
    # the child interpreter imports the same package the suite tests
    src = str(pathlib.Path(cmjfluct.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cmjfluct.cli", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "regime = I" in proc.stdout
