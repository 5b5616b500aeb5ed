"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("extremal_tables.py", ["--n-max", "5"]),
        ("stability_experiment.py", ["--n", "9", "--seeds", "2", "--max-deletions", "2"]),
        ("verify_theorems.py", ["--n-max", "5"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
