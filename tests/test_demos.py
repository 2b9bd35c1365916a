"""Smoke runs of every demo as a separate process.

Demo 04 is the slowest (a few seconds): it is the only one that calls
``train`` and prints the resulting history.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo",
    [
        "01_autodiff_basics.py",
        "02_corpus_generation.py",
        "03_objectives.py",
        "04_train_and_evaluate.py",
        "05_bias_diagnostics.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        # The suite's own warning filter (pyproject.toml), so a demo cannot warn unnoticed.
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join(ROOT, "demos", demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
