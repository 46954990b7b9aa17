"""Astroid verification harness.

The astroid |x|^(2/3) + |y|^(2/3) = 1 has four cusps, which makes it the
standard stress test for turning-point navigation. This module provides
the field, the radial percent-error measure against the exact
parametrization (cos^3 t, sin^3 t), and a sweep over scan parameters that
reports accuracy and whether every cusp was passed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .errors import TraceError
from .geometry import PLUS_X, Point2, cbrt
from .tracer import SolutionPath, Termination, TraceConfig, trace
from .turnpoint import ResidualField, ScanConfig

log = logging.getLogger(__name__)

CUSPS = (Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(-1.0, 0.0), Point2(0.0, -1.0))

# A cusp counts as navigated when the path comes within this many steps of
# it; wide scan radii legitimately hop over the tip by a few step lengths.
NAVIGATED_RADIUS_STEPS = 10.0

_DENSE_T = np.linspace(0.0, 0.5 * math.pi, 1025)
_DENSE_XY = np.stack([np.cos(_DENSE_T) ** 3, np.sin(_DENSE_T) ** 3], axis=1)
_WINDOW = 6  # dense samples searched on each side of the angle guess


def astroid_field() -> ResidualField:
    """f(x, y) = cbrt(x)^2 + cbrt(y)^2 - 1, real-valued on all quadrants."""

    def f(x: float, y: float) -> float:
        return cbrt(x) ** 2 + cbrt(y) ** 2 - 1.0

    return f


def _dense_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.argmin of the dense samples' distance to each (a, b), searched in a window
    around the angle of (cbrt(a), cbrt(b)), exact on the curve; a point whose
    window minimum sits on the window's edge gets the full argmin."""
    last = len(_DENSE_T) - 1
    guess = np.rint(np.arctan2(np.cbrt(b), np.cbrt(a)) / _DENSE_T[1]).astype(np.intp)
    best, idx = np.full(a.shape, np.inf), np.zeros(a.shape, dtype=np.intp)
    for offset in range(-_WINDOW, _WINDOW + 1):
        j = np.clip(guess + offset, 0, last)
        d2 = (_DENSE_XY[j, 0] - a) ** 2 + (_DENSE_XY[j, 1] - b) ** 2
        better = d2 < best  # strict: ties keep the lower index, as argmin does
        best, idx = np.where(better, d2, best), np.where(better, j, idx)
    for i in np.flatnonzero((np.abs(idx - guess) == _WINDOW) & (idx > 0) & (idx < last)):
        idx[i] = np.argmin((_DENSE_XY[:, 0] - a[i]) ** 2 + (_DENSE_XY[:, 1] - b[i]) ** 2)
    return idx


def _nearest_parameters(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parameter t in [0, pi/2] of the exact curve point nearest each (a, b).

    Dense sampling brackets the minimum; bisection on the approach rate
    (p - c(t)) . c'(t), positive while moving toward p, pins it to machine
    precision, which comparisons alone cannot. Newton on the rate would
    degenerate at the cusps, where c'(t) = 0.
    """

    def rate(t):
        ct, st = np.cos(t), np.sin(t)
        return (a - ct ** 3) * (-3.0 * ct * ct * st) + (b - st ** 3) * (3.0 * st * st * ct)

    def dist2(t):
        return (a - np.cos(t) ** 3) ** 2 + (b - np.sin(t) ** 3) ** 2

    idx = _dense_index(a, b)
    tiny = 1e-18  # keeps the bracket off the exactly-degenerate cusp parameters
    lo = np.maximum(_DENSE_T[np.maximum(idx - 1, 0)], tiny)
    hi = np.minimum(_DENSE_T[np.minimum(idx + 1, len(_DENSE_T) - 1)], 0.5 * math.pi - tiny)
    g_lo, g_hi = rate(lo), rate(hi)
    bracketed = (g_lo >= 0.0) & (0.0 >= g_hi) & ((g_lo > 0.0) | (g_hi < 0.0))
    moving = bracketed.copy()
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        moving &= (mid != lo) & (mid != hi)
        if not moving.any():
            break
        up = rate(mid) > 0.0
        lo, hi = np.where(moving & up, mid, lo), np.where(moving & ~up, mid, hi)
    t_best = np.where(bracketed, 0.5 * (lo + hi), _DENSE_T[idx])

    best_d2 = dist2(t_best)
    for tt in (0.0, 0.5 * math.pi):  # strict: the first minimum wins, as min() does
        d2 = dist2(tt)
        t_best, best_d2 = np.where(d2 < best_d2, tt, t_best), np.minimum(d2, best_d2)
    return t_best


def percent_errors(xs, ys) -> np.ndarray:
    """Signed radial error (percent) of each point against the nearest exact
    astroid point; positive means radially outside the curve."""
    a, b = np.abs(np.asarray(xs, dtype=float)), np.abs(np.asarray(ys, dtype=float))
    if np.any((a == 0.0) & (b == 0.0)):
        raise ValueError("percent error is undefined at the origin")
    t = _nearest_parameters(a, b)
    rho_exact = np.hypot(np.cos(t) ** 3, np.sin(t) ** 3)
    return (np.hypot(a, b) - rho_exact) / rho_exact * 100.0


def navigated_all_cusps(path: Iterable[Point2], delta: float) -> bool:
    radius = NAVIGATED_RADIUS_STEPS * delta
    remaining = set(range(len(CUSPS)))
    for p in path:
        for i in tuple(remaining):
            if p.distance_to(CUSPS[i]) <= radius:
                remaining.discard(i)
        if not remaining:
            return True
    return False


@dataclass(frozen=True)
class SweepResult:
    r_factor: float
    k: int
    n: int
    max_pe: float
    navigated_all_cusps: bool


def trace_astroid(
    delta: float,
    r_factor: float = 1.0,
    k: int = 5,
    n: int = 8,
) -> SolutionPath:
    """Trace the full astroid from (0, 1) marching +x."""
    cfg = TraceConfig(
        step=delta,
        scan=ScanConfig(radius=r_factor * delta, mesh_count=n, reference_lag=k),
        max_points=int(6.0 / delta) + 500,
    )
    return trace(astroid_field(), Point2(0.0, 1.0), PLUS_X, cfg)


def run_sweep(
    r_factors: Sequence[float],
    k_values: Sequence[int],
    n_values: Sequence[int],
    delta: float,
) -> List[SweepResult]:
    """Trace the astroid for every (r, k, n) combination.

    Individual trace failures are recorded in the result (partial-path
    error, cusps not navigated), never raised.
    """
    if not r_factors or not k_values or not n_values:
        raise ValueError("sweep grids must be nonempty")
    combos = [(rf, k, n) for rf in r_factors for k in k_values for n in n_values]
    traced = []
    for rf, k, n in combos:
        try:
            path = trace_astroid(delta, r_factor=rf, k=k, n=n)
            points = list(path.points)
            closed = path.termination is Termination.CLOSED
        except TraceError as exc:
            log.warning("sweep combination r=%g k=%d n=%d failed: %s", rf, k, n, exc)
            points = list(exc.path.points) if exc.path is not None else []
            closed = False
        traced.append((points, closed and navigated_all_cusps(points, delta)))

    # One batch over every point of the sweep, sliced back per combination.
    everything = [p for points, _ in traced for p in points]
    errors = np.abs(percent_errors([p.x for p in everything], [p.y for p in everything]))
    bounds = np.cumsum([0] + [len(points) for points, _ in traced])
    return [SweepResult(r_factor=rf, k=k, n=n, navigated_all_cusps=navigated,
                        max_pe=float(errors[lo:hi].max()) if hi > lo else math.nan)
            for (rf, k, n), (_, navigated), lo, hi in zip(combos, traced, bounds, bounds[1:])]
