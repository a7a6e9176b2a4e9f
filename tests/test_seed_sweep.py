"""``tools/seed_sweep.py`` runs one campaign config over master seeds and splits each verdict into its clauses."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from cmjfluct.cli import _experiment_config, parse_config
from cmjfluct.harness import oscillation_residual, predictor_backtest, run_experiment

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"

_GW13 = {"atoms": [{"prob": 0.5, "births": [1]}, {"prob": 0.5, "births": [3]}]}
_LAW_I = {"atoms": [{"prob": 0.5, "births": [1, 1]}, {"prob": 0.5, "births": [3, 1]}]}
_LAW_III = {"atoms": [{"prob": 0.5, "births": [0, 9]}, {"prob": 0.5, "births": [2, 9]}]}


def _load():
    spec = importlib.util.spec_from_file_location("seed_sweep", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    ("doc", "campaign"),
    [
        # a variance tolerance near the sampling error of R = 1,000, so seeds 7-11 give both verdicts
        ({"command": "verify", "law": _GW13, "horizon": 14, "replicates": 1000, "tolerances": {"var": 0.05}},
         run_experiment),
        ({"command": "verify", "law": _LAW_III, "horizon": 12, "replicates": 200, "lags": [1, 2]},
         oscillation_residual),
        ({"command": "predict", "law": _LAW_I, "horizon": 10, "replicates": 200, "K": 2},
         lambda config: predictor_backtest(config, 2)),
    ],
)
def test_each_seed_verdict_is_the_direct_campaign_verdict(doc, campaign):
    sweep = _load()
    text = json.dumps(doc)
    name, results = sweep.sweep(text, range(7, 12))
    assert [seed for seed, _, _ in results] == list(range(7, 12))
    base = _experiment_config(parse_config(text))
    for seed, passed, clauses in results:
        direct = campaign(dataclasses.replace(base, master_seed=seed))
        assert passed == direct.passed == (not any(failed for _, failed in clauses.values()))
        # each clause is the report's own, as the report decided it
        assert [(name, (statistic, not ok)) for name, statistic, ok in direct.clauses] == [
            (name, value) for name, value in clauses.items() if value[1] is not None]
    table = sweep.render(name, results)
    assert table.startswith(f"{name}, 5 seeds\n")
    # title, column header, the clause lines (plus run_experiment's variance z-score line), verdict
    assert len(table.splitlines()) == {"run_experiment": 7, "oscillation_residual": 6, "predictor_backtest": 4}[name]


def test_variance_z_line_is_a_statistic_of_the_same_reports():
    sweep = _load()
    text = json.dumps({"command": "verify", "law": _GW13, "horizon": 14, "replicates": 1000, "lags": [1, 2]})
    name, results = sweep.sweep(text, range(1, 6))
    base = _experiment_config(parse_config(text))
    rows = [run_experiment(dataclasses.replace(base, master_seed=seed)).rows[1] for seed in range(1, 6)]
    median = float(np.median([(r.variance - r.predicted_variance) / r.variance_se for r in rows]))
    lines = sweep.render(name, results).splitlines()
    line = next(line for line in lines if line.startswith("lag 2 variance z "))
    fail_frac, _, q50, _ = line.split()[4:]
    assert (fail_frac, q50) == ("-", f"{median:.4g}")
    # each lag's z line comes directly after that lag's clauses
    assert [line.rsplit(maxsplit=4)[0] for line in lines[2:-1]] == [
        f"lag {k} {stat}" for k in (1, 2) for stat in ("rel_error", "|skewness|", "|ex_kurtosis|", "variance z")]


def test_sweep_refuses_a_command_without_a_campaign():
    with pytest.raises(ValueError, match="'analyze': a sweep runs 'verify' or 'predict'"):
        _load().sweep(json.dumps({"command": "analyze", "law": _GW13}), range(1, 3))
