"""Machine-speed probe for normalising pass times.

On a shared two-core box the speed of the same code drifts by up to 40%
over a few minutes, in waves that no run length averages out: ten runs of
astroid-verify on fixed inputs read 9,282 to 11,985 points per wall
second, a quartile spread of 20%. The probe times two fixed kinds of work
built from nothing in foldtrace, so no change to the program can move it:
`interpreter` (Python calls through nested closures and scalar math
calls, the work of astroid-verify and curve-zoo) and `lu` (LU solves of
the size the lubrication model factors). Each workload names the part
that matches its own work. The probe is cheap but noisy on its own, so a
run takes one probe per pass and scales its goodput by the median of that
part over REFERENCE_S: the goodput the box gives at the speed where the
part takes REFERENCE_S.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg

# Median part times on the box the benchmark was defined on (2 vCPUs,
# Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread).
REFERENCE_S = {"interpreter": 0.0096, "lu": 0.0067}


def _closure_tree():
    def const(v):
        return lambda a, b: v

    def add(f, g):
        return lambda a, b: f(a, b) + g(a, b)

    def mul(f, g):
        return lambda a, b: f(a, b) * g(a, b)

    def power(f, n):
        return lambda a, b: abs(f(a, b)) ** n

    x = lambda a, b: a  # noqa: E731
    y = lambda a, b: b  # noqa: E731
    return add(add(power(mul(add(x, const(0.3)), const(1.7)), 3),
                   power(mul(y, const(0.6)), 3)), const(-1.0))


_TREE = _closure_tree()
_MATRIX = np.random.default_rng(0).standard_normal((129, 129)) + 129.0 * np.eye(129)
_RHS = np.ones(129)


def probe() -> dict:
    """Seconds this process takes right now for each part of the fixed mix."""
    t0 = time.perf_counter()
    f, total = _TREE, 0.0
    for i in range(4000):
        total += f(i * 1e-4, 1.0 - i * 1e-4)
    for i in range(10000):
        total += math.cbrt(i * 1e-4) ** 2 + math.cos(i * 1e-4) ** 3
    t1 = time.perf_counter()
    for _ in range(32):
        lu = scipy.linalg.lu_factor(_MATRIX, check_finite=False)
        total += float(scipy.linalg.lu_solve(lu, _RHS, check_finite=False)[0])
    return {"interpreter": t1 - t0, "lu": time.perf_counter() - t1}
