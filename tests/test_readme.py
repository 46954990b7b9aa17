"""Every ```python block of README.md runs as written, so the examples cannot rot."""

import re
from pathlib import Path

import pytest

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
