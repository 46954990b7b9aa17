"""Shared test settings.

Property tests run derandomized and without a deadline: the same examples
on every run, and no failures from timing on a loaded machine.
"""

import warnings

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
