"""Smoke runs of the experiment scripts at small sizes."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from shadowlab import extremal

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


@pytest.mark.parametrize("script, row, next_family", [
    ("extremal_tables.py", "cancellative 6", "expansion(3)"),
    ("verify_theorems.py", "unconstrained thm1 5", "cancellative"),
])
def test_budget_prints_a_row(script, row, next_family, monkeypatch, capsys):
    """A search past its node budget prints a row naming the budget, and the
    script goes on to the next family."""
    main = runpy.run_path(str(ROOT / "scripts" / script))["main"]
    monkeypatch.setattr(extremal, "ORDERLY_NODE_BUDGET", 300)
    main(["--n-max", "7"])
    lines = capsys.readouterr().out.splitlines()
    hit = next(i for i, line in enumerate(lines) if "budget" in line)
    assert lines[hit].split() == (
        f"{row} orderly engine node budget exceeded (300 nodes)".split())
    assert lines[hit + 1].split()[0] == next_family
