"""Import hygiene: no module under src/ or tests/ imports a name it never
uses, and `from foldtrace import *` binds only the package's API.

The unused-import check is a plain AST walk, so it needs no linter: an
import binds a name, and the module must read that name somewhere, in code
or in an annotation. An import line carrying `# noqa` is exempt (an import
kept for its side effect), and so is each package's `__init__.py`, whose
imports are its API.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import foldtrace

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each name `source` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        imported += [(a.lineno, name) for a, name in names if "# noqa" not in lines[a.lineno - 1]]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n"
              "import numpy.linalg\nprint(tau)\n")
    assert unused_imports(source) == [(1, "os"), (3, "pi"), (4, "numpy")]


def test_star_import_binds_no_module():
    assert foldtrace.__all__
    for name in foldtrace.__all__:
        assert not isinstance(getattr(foldtrace, name), ModuleType), name
