"""The fast demos run to completion against the package the suite tests.

Each demo is a seeded script over the public API (the variance cross-checks
call ``sigma2_series``, the prediction demo ``predictor_coeffs``); running
them catches a change that breaks a demo without breaking a unit test.
``monte_carlo_verification.py`` is left out: it runs full campaigns.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import cmjfluct

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["regime_gallery.py", "variance_crosschecks.py", "oscillation_and_prediction.py"])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    src = str(pathlib.Path(cmjfluct.__file__).resolve().parents[1])  # the tree the suite imports, not ROOT / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
