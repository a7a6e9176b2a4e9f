"""``tools/bench_pairs.py`` counts and reports runs whose outputs failed the benchmark's checks."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_incorrect_runs_are_counted_and_fail_the_script(tmp_path, monkeypatch, capsys):
    bench = _load()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "units_per_s", "better": "higher"}]}))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_unpack", lambda rev, dest: "0" * 40)

    def fake_run(checkout, workload, seed, seconds):
        wrong = workload == "w2" and seed == 12 and checkout == tmp_path  # one tree run fails its checks
        return {"correct": not wrong, "environment": {}, "metrics": {"units_per_s": float(seed)}}

    monkeypatch.setattr(bench, "_run", fake_run)
    args = ["--parent", "HEAD", "--label", "t", "--seeds", "11-13", "--seconds", "1", "--workloads", "w1,w2"]
    assert bench.main(args) == 1
    assert "1 run(s) failed the correctness checks: w2 seed 12 tree" in capsys.readouterr().err
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["workloads"]["w1"]["summary"]["incorrect_runs"] == {"parent": 0, "tree": 0}
    assert report["workloads"]["w2"]["summary"]["incorrect_runs"] == {"parent": 0, "tree": 1}

    monkeypatch.setattr(bench, "_run", lambda *a: {"correct": True, "environment": {}, "metrics": {"units_per_s": 1.0}})
    assert bench.main(args) == 0
