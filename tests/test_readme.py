"""The README's examples run as written: the library quick tour, and every
line of the CLI block exits 0."""

import re
import shlex
from pathlib import Path

from shadowlab.cli import EXIT_OK, run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(_block("Library quick tour", "python"), {})


def test_cli_block_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _block("CLI", "sh").splitlines()
    assert lines and all(line.startswith("shadowlab ") for line in lines)
    for line in lines:
        assert run(shlex.split(line)[1:]) == EXIT_OK, line
