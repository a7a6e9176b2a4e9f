"""``tools/bench_pairs.py`` counts and reports runs whose outputs failed the benchmark's checks, names the commit
and the uncommitted changes of the tree it measured and a tree whose source changed during the run, gives each
metric a verdict, and cleans up after itself when terminated."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_incorrect_runs_are_counted_and_fail_the_script(tmp_path, monkeypatch, capsys):
    bench = _load()
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "units_per_s", "better": "higher", "bound": 0.25}]})
    )
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_unpack", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench, "_tree_state", lambda: ("1" * 40, []))

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


def test_a_tree_whose_source_changes_mid_run_fails_the_script(tmp_path, monkeypatch, capsys):
    bench = _load()
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "units_per_s", "better": "higher", "bound": 0.25}]})
    )
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_unpack", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench, "_tree_state", lambda: ("1" * 40, []))
    calls = []

    def fake_run(checkout, workload, seed, seconds):  # the tree's source is edited after its third run
        side = "tree" if checkout == tmp_path else "parent"
        calls.append(side)
        digest = "p" if side == "parent" else ("a" if calls.count("tree") <= 3 else "b")
        return {"correct": True, "environment": {"src_sha256": digest}, "metrics": {"units_per_s": float(seed)}}

    monkeypatch.setattr(bench, "_run", fake_run)
    args = ["--parent", "HEAD", "--label", "t", "--seeds", "11-13", "--seconds", "1", "--workloads", "w1,w2"]
    assert bench.main(args) == 1
    assert "source changed during the run: w2 seed 11 measured src_sha256 other than the first pair's a" in (
        capsys.readouterr().err)
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["src_sha256"] == "a"
    pairs = [p for w in ("w1", "w2") for p in report["workloads"][w]["pairs"]]
    assert [p["tree"]["src_sha256"] for p in pairs] == ["a"] * 3 + ["b"] * 3
    assert {p["parent"]["src_sha256"] for p in pairs} == {"p"}


def test_the_report_names_the_tree_commit_and_its_uncommitted_changes(tmp_path, monkeypatch):
    bench = _load()

    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        return subprocess.run(["git", *config, *args], cwd=tmp_path, capture_output=True, text=True,
                              check=True).stdout.strip()

    for name in ("src/a.py", "perfbench/run.py", "notes.txt"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("0\n")
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "units_per_s", "better": "higher", "bound": 0.25}]})
    )
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_unpack", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench, "_run", lambda *a: {"correct": True, "environment": {}, "metrics": {"units_per_s": 1.0}})
    args = ["--parent", "HEAD", "--label", "t", "--seeds", "1", "--seconds", "1", "--workloads", "w1"]
    assert bench.main(args) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["tree_commit"] == git("rev-parse", "HEAD") and report["tree_status"] == []
    # a dirty tree is benched and named: changes outside what the benchmark runs are left out
    (tmp_path / "src/a.py").write_text("1\n")
    (tmp_path / "perfbench/new.py").write_text("")
    (tmp_path / "notes.txt").write_text("1\n")
    assert bench.main(args) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["tree_commit"] == git("rev-parse", "HEAD")
    assert report["tree_status"] == [" M src/a.py", "?? perfbench/new.py"]


_SLEEPER = """
import importlib.util, pathlib, subprocess, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
bench.ROOT = pathlib.Path(sys.argv[2])
bench._unpack = lambda rev, dest: "0" * 40
bench._tree_state = lambda: ("1" * 40, [])
sleeper = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(30)"
bench._run = lambda *a: subprocess.run([sys.executable, "-c", sleeper, sys.argv[3]])  # a benchmark that never ends
bench.main(["--parent", "HEAD", "--label", "t", "--seeds", "1", "--seconds", "1", "--workloads", "w1"])
"""


def test_a_terminated_run_removes_its_checkout_and_its_benchmark(tmp_path):
    private, root, pid_file = tmp_path / "tmp", tmp_path / "root", tmp_path / "benchmark.pid"
    private.mkdir()
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    proc = subprocess.Popen([sys.executable, "-c", _SLEEPER, str(_PATH), str(root), str(pid_file)],
                            env={**os.environ, "TMPDIR": str(private)})
    try:
        deadline = time.monotonic() + 30.0
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert list(private.glob("bench-parent-*")), "the checkout directory was never made"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30.0) != 0
    finally:
        proc.kill()
        proc.wait()
    assert not list(private.glob("bench-parent-*"))
    with pytest.raises(ProcessLookupError):  # killed and reaped before the script exited
        os.kill(int(pid_file.read_text()), 0)


def _pairs(parent, tree, name="m"):
    return [{"parent": {"correct": True, "metrics": {name: p}}, "tree": {"correct": True, "metrics": {name: t}}}
            for p, t in zip(parent, tree)]


_PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]  # median 100, IQR 0.55
_NOISY = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]  # median 100, IQR 40


@pytest.mark.parametrize(
    "better, parent, tree, verdict",
    [
        ("higher", _PARENT, [p + 5.0 for p in _PARENT], "gain"),
        ("lower", _PARENT, [p - 5.0 for p in _PARENT], "gain"),
        # nine wins of ten is enough, eight is not
        ("higher", _PARENT, [p + 5.0 for p in _PARENT[:9]] + [_PARENT[9] - 1.0], "gain"),
        ("higher", _PARENT, [p + 5.0 for p in _PARENT[:8]] + [p - 1.0 for p in _PARENT[8:]], "within_bound"),
        # every pair won, but by less than the parent's own spread
        ("higher", _PARENT, [p + 0.01 for p in _PARENT], "within_bound"),
        ("higher", _PARENT, [p * 0.7 for p in _PARENT], "regression"),
        ("lower", _PARENT, [p * 1.3 for p in _PARENT], "regression"),
        ("higher", _PARENT, [p * 0.8 for p in _PARENT], "within_bound"),
        ("higher", _NOISY, [p * 0.9 for p in _NOISY], "unresolved"),
        ("lower", _NOISY, _NOISY, "unresolved"),
        # a noisy parent whose runs every tree run beats, by less than the parent's spread
        ("higher", [50.0] * 3 + [100.0] * 4 + [101.0] * 3, [102.0] * 10, "within_bound"),
        ("lower", [150.0] * 3 + [100.0] * 4 + [99.0] * 3, [98.0] * 10, "within_bound"),
    ],
)
def test_verdict_per_metric(better, parent, tree, verdict):
    bench = _load()
    summary = bench._summary(_pairs(parent, tree), {"m": {"name": "m", "better": better, "bound": 0.25}})
    assert summary["m"]["verdict"] == verdict
