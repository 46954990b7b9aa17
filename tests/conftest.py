"""Shared test settings.

Property tests run derandomized and without a deadline: the same examples
on every run, and no failures from timing on a loaded machine.
"""

import warnings
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("foldtrace", derandomize=True, deadline=None, database=None)
settings.load_profile("foldtrace")

# When a property test fails, hypothesis imports libcst to print a patch
# for the failing example. That import emits a DeprecationWarning from a
# third-party module, which filterwarnings = error turns into an internal
# error that aborts the whole test run. Importing it once here, quietly,
# keeps a failing example reported as an ordinary test failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def readme():
    """README.md's text, for tests that hold its quoted figures to the code."""
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
