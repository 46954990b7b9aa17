"""Every ```python block of README.md and every `foldtrace` line of its ```sh
blocks runs as written, so the examples cannot rot."""

import re
import shlex
from pathlib import Path

import pytest

from foldtrace.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks():
    """(first line, source) of each python block; the source is padded with
    blank lines so a traceback names the README line that failed."""
    text = README.read_text(encoding="utf-8")
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        before = text.count("\n", 0, match.start(1))
        yield before + 1, "\n" * before + match.group(1)


BLOCKS = list(_blocks())


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, source):
    exec(compile(source, str(README), "exec"), {"__name__": f"readme_line_{line}"})


def _commands():
    """(line number, argv) of each `foldtrace ...` line in a sh block."""
    text = README.read_text(encoding="utf-8")
    for match in re.finditer(r"^```sh\n(.*?)^```", text, re.M | re.S):
        first = text.count("\n", 0, match.start(1)) + 1
        for offset, line in enumerate(match.group(1).splitlines()):
            if line.startswith("foldtrace "):
                yield first + offset, shlex.split(line)[1:]


COMMANDS = list(_commands())


def test_readme_has_command_line_examples():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line, argv", COMMANDS, ids=[f"line{line}" for line, _ in COMMANDS])
def test_command_line_example_exits_0(line, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # default outputs land here
    assert main(argv) == 0, f"README.md line {line}"
