"""Shared test settings and helpers.

Property tests run derandomized and without a deadline: the same examples
on every run, and no failures from timing on a loaded machine.
"""

import math
import warnings
from pathlib import Path

import numpy as np
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


def fd_jacobian(F, x):
    """Forward-difference Jacobian of a vector residual: the reference that
    analytic Jacobians are checked against, and the Jacobian of test
    residuals that have no analytic one."""
    x = np.asarray(x, dtype=float)
    fx = np.asarray(F(x), dtype=float)
    J = np.empty((fx.size, x.size))
    for j in range(x.size):
        h = math.sqrt(np.finfo(float).eps) * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.asarray(F(xp), dtype=float) - fx) / h
    return J
