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
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .errors import TraceError
from .geometry import PLUS_X, Point2
from .tracer import SolutionPath, Termination, TraceConfig, trace
from .turnpoint import ResidualField

log = logging.getLogger(__name__)

CUSPS = (Point2(1.0, 0.0), Point2(0.0, 1.0), Point2(-1.0, 0.0), Point2(0.0, -1.0))

# A cusp counts as navigated when the path comes within this many steps of
# it; wide scan radii legitimately hop over the tip by a few step lengths.
NAVIGATED_RADIUS_STEPS = 10.0

# The most points an astroid trace may march, as 6/delta: it admits delta >= 6e-7,
# and so 1e-6, the smallest step the astroid is recorded closing at (4,000,003
# points); a smaller step is a setting error, not a march of 6/delta points.
MAX_ASTROID_POINTS = 10_000_000

_DENSE_T = np.linspace(0.0, 0.5 * math.pi, 1025)
_DENSE_XY = np.stack([np.cos(_DENSE_T) ** 3, np.sin(_DENSE_T) ** 3], axis=1)
_WINDOW = 6  # dense samples searched on each side of the angle guess


def astroid_field() -> ResidualField:
    """f(x, y) = cbrt(x)^2 + cbrt(y)^2 - 1, real-valued on all quadrants."""

    def f(x: float, y: float) -> float:
        # |v|^(1/3) is cbrt(v) up to the sign, which squaring drops exactly
        return (abs(x) ** (1.0 / 3.0)) ** 2 + (abs(y) ** (1.0 / 3.0)) ** 2 - 1.0

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

    def rate(t, a, b):
        ct, st = np.cos(t), np.sin(t)
        return (a - ct ** 3) * (-3.0 * ct * ct * st) + (b - st ** 3) * (3.0 * st * st * ct)

    def dist2(t):
        return (a - np.cos(t) ** 3) ** 2 + (b - np.sin(t) ** 3) ** 2

    idx = _dense_index(a, b)
    tiny = 1e-18  # keeps the bracket off the exactly-degenerate cusp parameters
    lo = np.maximum(_DENSE_T[np.maximum(idx - 1, 0)], tiny)
    hi = np.minimum(_DENSE_T[np.minimum(idx + 1, len(_DENSE_T) - 1)], 0.5 * math.pi - tiny)
    g_lo, g_hi = rate(lo, a, b), rate(hi, a, b)
    bracketed = (g_lo >= 0.0) & (0.0 >= g_hi) & ((g_lo > 0.0) | (g_hi < 0.0))
    # bisect only the samples still moving; one at machine width is written back
    active = np.flatnonzero(bracketed)
    lo_a, hi_a, a_a, b_a = lo[active], hi[active], a[active], b[active]
    for _ in range(90):
        mid = 0.5 * (lo_a + hi_a)
        moving = (mid != lo_a) & (mid != hi_a)
        if not moving.all():
            done = active[~moving]
            lo[done], hi[done] = lo_a[~moving], hi_a[~moving]
            active, mid = active[moving], mid[moving]
            lo_a, hi_a, a_a, b_a = lo_a[moving], hi_a[moving], a_a[moving], b_a[moving]
            if not active.size:
                break
        up = rate(mid, a_a, b_a) > 0.0
        lo_a, hi_a = np.where(up, mid, lo_a), np.where(up, hi_a, mid)
    lo[active], hi[active] = lo_a, hi_a
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
    points = list(path)  # hypot as in Point2.distance_to, without a method call per point
    return all(any(math.hypot(x - cx, y - cy) <= radius for x, y in points) for cx, cy in CUSPS)


@dataclass(frozen=True)
class SweepResult:
    r_factor: float
    k: int
    n: int
    max_pe: float
    navigated_all_cusps: bool


def _astroid_config(delta: float, r_factor: float, k: int, n: int) -> TraceConfig:
    cfg = TraceConfig(step=delta, radius=r_factor * delta, mesh_count=n, reference_lag=k)
    budget = 6.0 / delta  # once delta has passed its check
    if budget > MAX_ASTROID_POINTS:
        raise ValueError(f"step is too small: 6/step exceeds {MAX_ASTROID_POINTS:,} points")
    return replace(cfg, max_points=int(budget) + 500)


def trace_astroid(
    delta: float,
    r_factor: float = 1.0,
    k: int = 5,
    n: int = 8,
    memo: Optional[dict] = None,
) -> SolutionPath:
    """Trace the full astroid from (0, 1) marching +x.

    `memo` is passed to `trace`: traces that share one reuse each other's
    march steps and boundary scans wherever their paths coincide.
    """
    return trace(astroid_field(), Point2(0.0, 1.0), PLUS_X, _astroid_config(delta, r_factor, k, n),
                 memo=memo)


def run_sweep(
    r_factors: Sequence[float],
    k_values: Sequence[int],
    n_values: Sequence[int],
    delta: float,
) -> List[SweepResult]:
    """Trace the astroid for every (r, k, n) combination.

    Every combination's settings are checked, raising ValueError, before
    the first trace. Individual trace failures are recorded in the result
    (partial-path error, cusps not navigated), never raised. r, k and n
    only change the turning-point scan, so the traces share one step memo
    for this call: a march step any combination has solved is not solved
    again, and each turning point is scanned once per (r, n), since k only
    picks the exit from the scan's candidates.
    """
    if not r_factors or not k_values or not n_values:
        raise ValueError("sweep grids must be nonempty")
    combos = [(rf, k, n) for rf in r_factors for k in k_values for n in n_values]
    for rf, k, n in combos:
        _astroid_config(delta, rf, k, n)
    rows = {}  # row of each distinct point in the one percent-error batch
    verdicts = {}  # cusp verdict of each closed path's point set, which order does not change
    traced = []
    memo = {}  # march steps and scans shared by every combination
    for rf, k, n in combos:
        try:
            path = trace_astroid(delta, r_factor=rf, k=k, n=n, memo=memo)
            points = path.points
            closed = path.termination is Termination.CLOSED
        except TraceError as exc:
            log.warning("sweep combination r=%g k=%d n=%d failed: %s", rf, k, n, exc)
            points = exc.path.points if exc.path is not None else []
            closed = False
        index = [rows.setdefault(p, len(rows)) for p in points]
        key = frozenset(index)
        if closed and key not in verdicts:
            verdicts[key] = navigated_all_cusps(points, delta)
        traced.append((index, closed and verdicts[key]))

    # The paths share most of their points: each distinct one is checked once.
    errors = np.abs(percent_errors([p.x for p in rows], [p.y for p in rows]))
    return [SweepResult(r_factor=rf, k=k, n=n, navigated_all_cusps=navigated,
                        max_pe=float(errors[index].max()) if index else math.nan)
            for (rf, k, n), (index, navigated) in zip(combos, traced)]
