"""Golden artifacts: every CLI command's files, byte for byte.

Each case runs one small seeded configuration through ``cli.main`` and
compares the exit code, the standard output and every artifact it writes with
the files under ``tests/golden/<case>/``.  The configs use a relative
``outdir`` inside a temporary working directory, so the ``config-sha256``
provenance line does not depend on where the suite runs.

The seeded files (the Monte Carlo artifacts of ``simulate``, ``verify`` and
``predict``) change only when the RNG contract changes (the block seeding
scheme of the campaigns, or the draw order of ``simulate.run``).  Such a
change regenerates them with ``python tests/test_golden.py``, which prints
for each file it rewrites either "byte-identical" or the largest relative
difference between the old and new numbers, and records it in CHANGES.md.  A formula rewrite that moves only last digits (a new
evaluation order of the same sum) regenerates the same way; only the files
it affects may change, and CHANGES.md lists each of them with its largest
relative difference.  Any other difference here is a regression.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

import pytest

from cmjfluct.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

LAW_I = [{"prob": 0.5, "births": [1, 1]}, {"prob": 0.5, "births": [3, 1]}]
LAW_II = [{"prob": 0.5, "births": [1, 8]}, {"prob": 0.5, "births": [3, 8]}]
LAW_III = [{"prob": 0.5, "births": [0, 9]}, {"prob": 0.5, "births": [2, 9]}]
GW13_DEATHS = [
    {"prob": 0.5, "births": [1], "char": [1.0, 1.0]},
    {"prob": 0.5, "births": [3], "char": [1.0, 1.0]},
]

CASES = {
    "analyze_law_iii": {"command": "analyze", "law": {"atoms": LAW_III}},
    "limits_law_i": {"command": "limits", "law": {"atoms": LAW_I}, "lags": [1, 2, 3]},
    "simulate_gw13_deaths": {"command": "simulate", "law": {"atoms": GW13_DEATHS}, "horizon": 12},
    "verify_law_ii": {"command": "verify", "law": {"atoms": LAW_II}, "horizon": 12, "replicates": 200},
    "verify_law_iii": {"command": "verify", "law": {"atoms": LAW_III}, "horizon": 12, "replicates": 200},
    "predict_law_i": {
        "command": "predict",
        "law": {"atoms": LAW_I},
        "horizon": 12,
        "replicates": 200,
        "K": 2,
    },
}


def _run_case(doc: dict) -> dict[str, bytes]:
    """Run one config in the current directory; return exit code, stdout and artifacts."""
    pathlib.Path("config.json").write_text(json.dumps(dict(doc, outdir="out")))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["config.json"])
    files = {"exit_code.txt": f"{code}\n".encode(), "stdout.txt": stdout.getvalue().encode()}
    for path in sorted(pathlib.Path("out").iterdir()):
        files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_artifacts(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _run_case(CASES[case])
    expected_dir = GOLDEN / case
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(expected)
    for name, body in expected.items():
        assert got[name] == body, f"{case}/{name} differs from the golden file"


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _difference(old: bytes | None, new: bytes) -> str:
    """How a rewritten file moved: byte-identical, or its largest relative numeric difference."""
    if old is None:
        return "new file"
    if old == new:
        return "byte-identical"
    if _NUMBER.sub(b"#", old) != _NUMBER.sub(b"#", new):
        return "text differs beyond its numbers"
    worst = 0.0
    for a, b in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return f"largest relative difference {worst:.2g}"


def _regenerate() -> None:
    for case, doc in CASES.items():
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        old = {}
        for path in target.iterdir():
            old[path.name] = path.read_bytes()
            path.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                files = _run_case(doc)
            finally:
                os.chdir(cwd)
        for name, body in files.items():
            (target / name).write_bytes(body)
            print(f"{case}/{name}: {_difference(old.pop(name, None), body)}", file=sys.stderr)
        for name in old:
            print(f"{case}/{name}: removed", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
