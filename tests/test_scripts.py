"""Smoke runs of the experiment scripts at small sizes."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from shadowlab import extremal

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args):
    """Run a script on the source tree; returns its stdout once it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("extremal_tables.py", ["--n-max", "5"]),
        ("stability_experiment.py", ["--n", "9", "--seeds", "2", "--max-deletions", "2"]),
        ("verify_theorems.py", ["--n-max", "5"]),
    ],
)
def test_script_runs(script, args):
    run_script(script, args)


def test_spiked_fit_removes_the_spikes():
    """The docstring's claim: the removal count tracks the spiked
    intra-part edges exactly, and exact mode proves it optimal."""
    out = run_script("stability_experiment.py", [
        "--n", "9", "--seeds", "1", "--max-deletions", "0", "--spike", "3"])
    assert out.splitlines()[-1].endswith("fit removed 3 (optimal=True)")


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
