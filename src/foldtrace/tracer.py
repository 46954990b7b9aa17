"""Axis-aligned continuation of implicit curves with turning-point recovery.

The driver marches one coordinate along a fixed lattice of step multiples
and solves the transverse coordinate from the residual field at every
stop, starting each solve at the secant extrapolation of the last two
points of the current march. When the transverse solve loses its root
the fold past the last point, or else that point, is declared a turning
point, the half-disk boundary scan picks the exit point, and marching
resumes from there in the direction the scan decided.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable, List, Optional, Union

from .errors import FieldEvaluationError, NoConvergence, TraceError
from .geometry import Axis, Box, Point2, StepDirection, TurningPointKind
from .rootfind import solve_scalar
from .turnpoint import (
    ResidualField,
    choose_reference_point,
    new_direction,
    scan_boundary,
    select_exit_point,
)

log = logging.getLogger(__name__)

FLAG_ORDINARY = "ordinary"
FLAG_TURNING = "turning_point"
FLAG_RESTART = "restart"

# Slice bracket half-width per unit of predicted transverse change. Geometry needs
# > 2.4 at a fold and > 1.7 at a cusp; 16 keeps the default thin-film diagram
# bit-identical; 8 and 4 narrow its fold stall's solve and cost 890 and 894, not 880.
BRACKET_PER_PREDICTED_CHANGE = 16.0

# Read per march step: on CPython 3.11 `Axis.X` costs about 150 ns through EnumType, a
# module global about 15 ns.
_X = Axis.X

# 1/phi: the share of its interval a golden-section search keeps per step
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Termination(Enum):
    CLOSED = "closed"
    RETRACED = "retraced"
    TERMINATED = "terminated"
    LEFT_DOMAIN = "left domain"
    MAX_POINTS = "max points"


@dataclass(frozen=True)
class Stalled:
    """Control-flow signal: the slice solve lost the curve."""

    reason: str


@dataclass(frozen=True)
class TurningPointEvent:
    index: int  # of the turning point; its restart follows at index + 1
    kind: TurningPointKind
    reason: str = ""  # why the slice solve at `index` stalled


@dataclass
class SolutionPath:
    """Ordered accepted points with per-point flags and event bookkeeping."""

    points: List[Point2] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)
    events: List[TurningPointEvent] = field(default_factory=list)
    termination: Optional[Termination] = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def append(self, point: Point2, flag: str = FLAG_ORDINARY) -> None:
        if self.points and self.points[-1].x == point.x and self.points[-1].y == point.y:
            raise ValueError("consecutive path points must be distinct")
        self.points.append(point)
        self.flags.append(flag)


@dataclass
class TraceConfig:
    """Step sizes, boundary-scan settings and stopping rules for one trace.

    `step` is the x-axis increment; `step_y` defaults to it. The scan at a
    turning point samples `mesh_count` points on a half-circle of `radius`
    (default: the larger step) and measures from the point `reference_lag`
    steps back; the start and every slice solve converge to `residual_tol`.
    Each setting is checked here. `max_points` bounds the points marched, not
    the points returned: a trace ends only once its state repeats, and a
    closing trace returns only the cycle, not the march that led into it.
    """

    step: float
    step_y: Optional[float] = None
    radius: Optional[float] = None
    mesh_count: int = 8
    reference_lag: int = 5
    residual_tol: float = 1e-10
    max_points: int = 20000
    domain: Optional[Box] = None

    def __post_init__(self):
        self.step_y = self.step if self.step_y is None else self.step_y
        self.max_step = max(self.step, self.step_y)
        self.radius = self.max_step if self.radius is None else self.radius
        for name in ("step", "step_y", "radius", "residual_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        for name, least in (("mesh_count", 1), ("reference_lag", 1), ("max_points", 2)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


def _next_lattice(current: float, delta: float, sign: int, anchor: float) -> float:
    """Next lattice coordinate anchor + k*delta strictly beyond `current`.

    Marching on a fixed lattice (instead of accumulating raw increments)
    keeps every later approach to the same fold landing on the same
    abscissas, which is what lets small scan radii still straddle the
    curve there after restarts have shifted the walk. `current` counts as on
    the lattice within 1e-9 steps, or within 4 ulp of the coordinates, which
    is wider once delta is below about 1e-7 of them.
    """
    ratio = (current - anchor) / delta
    nearest = round(ratio)
    off = abs(ratio - nearest)
    if off <= 1e-9 or off * delta <= 4.0 * math.ulp(max(abs(current), abs(anchor))):
        k = nearest + sign
    elif sign > 0:
        k = math.floor(ratio) + 1
    else:
        k = math.ceil(ratio) - 1
    return anchor + k * delta


def _slice(residual: ResidualField, axis: Axis, value: float) -> Callable[[float], float]:
    """The residual along the line `axis` = `value`, as a function of the other coordinate."""
    if axis is _X:
        return partial(residual, value)
    return lambda t: residual(t, value)


def step(
    residual: ResidualField,
    current: Point2,
    direction: StepDirection,
    cfg: TraceConfig,
    anchor: Optional[Point2] = None,
    previous: Optional[Point2] = None,
    floor: float = 10.0,
) -> Union[Point2, Stalled]:
    """Advance the driven coordinate one lattice stop and re-solve the slice.

    The stop is on the lattice anchor + k*step, anchored at `current` when
    `anchor` is None. With `previous`, the point before `current` on the
    same march, the solve starts at the secant extrapolation through the
    two (Allgower & Georg, Introduction to Numerical Continuation Methods,
    ch. 2); without it, or when the extrapolation is undefined or not
    finite, at the current transverse coordinate. The search bracket is
    centred on the current point, its half-width the larger of `floor` larger
    steps and BRACKET_PER_PREDICTED_CHANGE x |guess - t0|. Returns the new
    point, or Stalled when the slice solve fails or its root escapes it.
    """
    # without an anchor the lattice starts at `current`; without `previous`, no secant
    anchor = current if anchor is None else anchor
    previous = current if previous is None else previous
    axis = direction.axis
    if axis is _X:
        delta = cfg.step
        c0, t0, origin, c1, t1 = current.x, current.y, anchor.x, previous.x, previous.y
    else:
        delta = cfg.step_y
        c0, t0, origin, c1, t1 = current.y, current.x, anchor.y, previous.y, previous.x
    target = _next_lattice(c0, delta, direction.sign, origin)

    guess = t0
    if c1 != c0:
        slope = (t0 - t1) / (c0 - c1)
        guess = t0 + slope * (target - c0)
        if not math.isfinite(guess):
            guess = t0
    width = max(floor * cfg.max_step, BRACKET_PER_PREDICTED_CHANGE * abs(guess - t0))
    try:
        root = solve_scalar(_slice(residual, axis, target), guess, cfg.residual_tol,
                            bracket=(t0 - width, t0 + width))
    except NoConvergence as exc:
        return Stalled(f"slice solve failed at {axis.value}={target:.6g}: {exc}")
    except FieldEvaluationError as exc:
        return Stalled(f"field undefined near {axis.value}={target:.6g}: {exc}")
    return Point2(target, root) if axis is _X else Point2(root, target)


def _fold(residual: ResidualField, fit: List[Point2], direction: StepDirection,
          cfg: TraceConfig) -> Optional[Point2]:
    """The fold past the last of three march points `fit`, where c(t), the driven
    coordinate as a function of the transverse, is extremal (Allgower & Georg, ch. 9). A
    vertex of the parabola through `fit` ahead in c and within the slice bracket's
    width w of the last t is solved for c within +-w and replaces the oldest point,
    up to 8 times, until t moves under 1e-3 radius. A flat fold, c - c* ~ |t - t*|^p
    with p >= 3, keeps t moving through all 8: `_flat_fold` then searches for it. Returns
    the last root solved ahead in c, or None if there is none or it lies within 1e-3
    radius of the last t."""
    axis, sign = direction.axis, direction.sign
    fit = [(p.y, p.x) if axis is _X else (p.x, p.y) for p in fit]  # as (t, c)
    (t_k, c_k), fold = fit[-1], None
    t, width = t_k, max(10.0 * cfg.max_step, BRACKET_PER_PREDICTED_CHANGE * abs(t_k - fit[-2][0]))
    for _ in range(8):
        (t0, c0), (t1, c1), (t2, c2) = fit
        try:  # c = c2 + d (t - t2) + a (t - t2)(t - t1), extremal where c' = 0
            d = (c2 - c1) / (t2 - t1)
            a = (d - (c1 - c0) / (t1 - t0)) / (t2 - t0)
            vertex = 0.5 * (t1 + t2) - d / (2.0 * a)
        except ZeroDivisionError:
            break
        c = c2 + d * (vertex - t2) + a * (vertex - t2) * (vertex - t1)
        if not (math.isfinite(c) and sign * (c - c_k) > 0.0 and abs(vertex - t_k) <= width
                and abs(vertex - t) >= 1e-3 * cfg.radius):
            break
        t = vertex
        try:
            c = solve_scalar(_slice(residual, axis.other, t), c, cfg.residual_tol,
                             bracket=(c - width, c + width))
        except (NoConvergence, FieldEvaluationError):
            break
        if sign * (c - c_k) > 0.0:  # a root behind the last point is no fold, but fits
            near = abs(t - t_k) < 1e-3 * cfg.radius  # then the last point is the fold
            fold = None if near else Point2(c, t) if axis is _X else Point2(t, c)
        fit = fit[1:] + [(t, c)]
    else:
        return _flat_fold(residual, t_k, c_k, math.copysign(width, t - t_k), direction, cfg)
    return fold


def _flat_fold(residual: ResidualField, t_k: float, c_k: float, reach: float,
               direction: StepDirection, cfg: TraceConfig) -> Optional[Point2]:
    """The fold `_fold`'s parabolas miss: a golden-section search (Kiefer, Proc. AMS 4,
    1953) for the maximum of sign * c(t) over t from t_k to t_k + `reach`, c being the
    coordinate `direction` drives and sign its sign. Each c is solved from the furthest
    ahead so far within c_k +- |reach|; a failed solve counts as -inf. The search stops
    once its interval is under 0.05 radius. Returns the best root ahead of c_k, or None if
    there is none or it lies within 1e-3 radius of t_k."""
    axis, sign = direction.axis, direction.sign
    guess = c_k

    def lift(t: float) -> float:  # sign * c(t)
        nonlocal guess
        try:
            c = solve_scalar(_slice(residual, axis.other, t), guess, cfg.residual_tol,
                             bracket=(c_k - abs(reach), c_k + abs(reach)))
        except (NoConvergence, FieldEvaluationError):
            return -math.inf
        guess = c if sign * (c - guess) > 0.0 else guess
        return sign * c

    a, b = t_k, t_k + reach
    t1, t2 = b - _INV_GOLDEN * reach, a + _INV_GOLDEN * reach
    h1, h2, lifts = lift(t1), lift(t2), 2
    while abs(b - a) >= 0.05 * cfg.radius:
        lifts += 1
        if h1 >= h2:  # the maximum lies in [a, t2]; a tie, failures too, goes toward t_k
            b, t2, h2 = t2, t1, h1
            t1 = b - _INV_GOLDEN * (b - a)
            h1 = lift(t1)
        else:
            a, t1, h1 = t1, t2, h2
            t2 = a + _INV_GOLDEN * (b - a)
            h2 = lift(t2)
    h, t = (h1, t1) if h1 >= h2 else (h2, t2)
    if not h > sign * c_k or abs(t - t_k) < 1e-3 * cfg.radius:
        return None
    fold = Point2(sign * h, t) if axis is _X else Point2(t, sign * h)
    log.info("flat fold located at %s after %d lifts", fold, lifts)
    return fold


def _retraced(points: List[Point2], width: float) -> bool:
    """Whether one period of the march, `points`, retraced itself instead of closing.

    A simple closed curve bounds area. With A the shoelace area and L the
    length of the polygon through `points`, its mean width 2|A|/L is the
    radius of a circle but only the gap between the passes of a cycle that
    reversed at two folds and walked back over itself: a fraction of a step.
    So a mean width under `width`, the largest step, means a retrace.
    """
    ox, oy = points[0]
    area2 = length = ax = ay = 0.0  # coordinates relative to the start
    for x, y in points[1:] + points[:1]:
        bx, by = x - ox, y - oy
        area2 += ax * by - bx * ay
        length += math.hypot(bx - ax, by - ay)
        ax, ay = bx, by
    return abs(area2) < width * length


def _heading(direction: StepDirection) -> int:
    """A direction as a cheap hashable: +-1 along x, +-2 along y."""
    return direction.sign if direction.axis is _X else 2 * direction.sign


def trace(
    residual: ResidualField,
    start: Point2,
    initial_direction: StepDirection,
    cfg: TraceConfig,
    memo: Optional[dict] = None,
) -> SolutionPath:
    """March along the zero set of `residual` from an on-curve start point.

    The start must lie on the curve and in the domain (else ValueError).
    Stops when the march state repeats, when a boundary scan comes back
    empty, when the path leaves the configured domain, or at the point
    budget. The march is deterministic, so a repeated state proves a cycle;
    the cycle is CLOSED when it bounds area and RETRACED when it walked back
    over itself (see `_retraced`). A closed path is the cycle, from the first
    repeated state round to it again: it ends on its first point, which need
    not be the start. When that point is a restart, its turning point and
    event are the path's second-last point and last event. A retraced path
    is the march up to and including the repeated state. A scan that comes
    back empty after a sign change it could not resolve proves no curve end:
    TraceError with the partial path. A stall at an ordinary point k >= 2
    adds the fold `_fold` locates through points k-2..k, if in the domain and
    budget, as the turning point; each turning point's half-disk scan picks
    the restart, recorded with it as an event. A restart outside the domain
    ends the path at the turning point, with no event. A first step that
    stalls, with no secant to size its bracket, is retried with the floor
    widened 4x, up to three times, then scanned: the first candidate in mesh
    order exits, and none raises TraceError with the one-point path, as does
    a first step out of the domain or a step that rounds onto its own point.

    Each distinct march step is solved once, from one table keyed by
    `step`'s inputs (current, previous, direction). An entry holds the
    step's outcome, the path that last met its state and the index of its
    `current` there, so one lookup per step serves the memo and the repeat
    test; only an entry this trace met proves a repeat. An ordinary step's
    entry links to the entry of the step after it, whose key follows from
    its own, and a replay follows the links; a stall links nothing. The
    table lives for this trace unless `memo`, a dict, is given; traces of
    one field that share it reuse each other's steps. The same table holds
    each boundary scan, keyed by its centre, kind, radius and mesh_count, so
    traces that differ only in reference_lag scan each turning point once;
    the lag only picks the exit from the shared candidates. The dict keeps
    traces with a different start, step, step_y or residual_tol apart, but
    not different fields.
    """
    path = SolutionPath()
    if cfg.domain is not None and not cfg.domain.contains(start):
        raise ValueError(f"start point {start} lies outside the domain {cfg.domain}")
    try:
        f0 = residual(start.x, start.y)
    except FieldEvaluationError as exc:
        raise TraceError(f"cannot evaluate field at start: {exc}", path=path) from exc
    if not math.isfinite(f0) or abs(f0) > cfg.residual_tol:
        raise ValueError(
            f"start point residual {f0:.3e} exceeds tolerance {cfg.residual_tol:.3e}; "
            "polish the seed before tracing"
        )
    path.append(start, FLAG_ORDINARY)

    # Everything `step` reads but the field. The start only anchors the lattice, and
    # a stop at origin + k*step never keeps the sign of a zero origin; a zero in
    # current or previous can reach the result, so those are keyed by repr, which keeps it.
    settings = (start, cfg.step, cfg.step_y, cfg.residual_tol)
    # step key -> [outcome, the path that last met the key, the index of its `current` there,
    # the entry of the next ordinary step or None]; scan key (centre, kind, radius,
    # mesh_count) -> the scan's CandidateSet
    steps = {} if memo is None else memo.setdefault(settings, {})
    direction = initial_direction
    heading = _heading(direction)
    lag = max(cfg.reference_lag, 2)  # the fold fit reads points k-2..k
    # The last ordinary step's entry: the next step's key (outcome, current, heading) follows
    # from its own, so its link serves every trace of the table in place of the key.
    kept = None

    points, flags = path.points, path.flags
    while True:
        current, k = points[-1], len(points) - 1
        entry = None if kept is None else kept[3]
        if entry is None:
            previous = points[-2] if k and flags[-1] == FLAG_ORDINARY else None
            key = (current, previous, heading)
            if 0.0 in current or (previous is not None and 0.0 in previous):
                key = (repr(current), repr(previous), heading)  # repr tells -0.0 from 0.0
            entry = steps.get(key)
        # The key and the `lag` window, where the next stall fits its fold and picks its
        # reference, are all the march reads, so a state met again at k repeats the march
        # from j on. Tuple == ignores the sign of a zero in the window, which is safe: the
        # window is read only through distances and differences. The proof assumes the
        # field is a function of (x, y). A key another trace met is no repeat.
        j = entry[2] if entry is not None and entry[1] is path else -1
        if j >= lag and points[j - lag:j + 1] == points[k - lag:k + 1]:
            break
        if len(points) >= cfg.max_points:
            path.termination = Termination.MAX_POINTS
            break
        if entry is not None:
            entry[1], entry[2] = path, k  # this trace met the state last, at k
        else:
            outcome, floor = step(residual, current, direction, cfg, anchor=points[0],
                                  previous=previous), 10.0
            while k == 0 and isinstance(outcome, Stalled) and floor < 640.0:
                floor *= 4.0  # a first step has no secant to size its bracket: widen it
                outcome = step(residual, current, direction, cfg, anchor=points[0], floor=floor)
            entry = steps[key] = [outcome, path, k, None]
        if kept is not None:
            kept[3] = entry
        outcome, kept = entry[0], entry

        flag = FLAG_ORDINARY
        if isinstance(outcome, Stalled):
            kept = None  # the step after a stall depends on the scan settings, not on the key
            kind, reason = TurningPointKind(direction), outcome.reason
            log.info("stall (%s) at point %d %s -> %s scan", reason, k, current, kind.name)
            turning, fold = k, None
            # a restart follows each turning point, so k-2..k are on the curve at an ordinary k
            if k >= 2 and flags[k] == FLAG_ORDINARY and k + 3 <= cfg.max_points:
                fold = _fold(residual, points[k - 2:], direction, cfg)
            if fold is not None and (cfg.domain is None or cfg.domain.contains(fold)):
                log.info("fold located at %s", fold)
                turning, current = k + 1, fold
                points.append(fold)
                flags.append(FLAG_TURNING)
            else:
                flags[k] = FLAG_TURNING
            scan_key = (repr(current) if 0.0 in current else current, kind, cfg.radius,
                        cfg.mesh_count)
            candidates = steps.get(scan_key)
            if candidates is None:  # the lag picks the exit below, so scans are shared across it
                candidates = steps[scan_key] = scan_boundary(residual, current, kind, cfg)
            reference = choose_reference_point(points, turning, cfg)  # at 0, the turning point
            exit_point = (select_exit_point(candidates, reference) if turning
                          else next((c.point for c in candidates), None))  # no history: the first
            if exit_point is None:
                if candidates.unresolved_mesh_indices:  # the scan proved no curve end
                    raise TraceError(f"stalled at point {k} ({reason}); the scan could not resolve "
                                     f"the sign change after arc samples "
                                     f"{candidates.unresolved_mesh_indices}", path=path)
                if turning == 0:  # nor does an isolated zero
                    raise TraceError(f"no exit from the first path point ({reason})", path=path)
                path.termination = Termination.TERMINATED
                break
            if exit_point == current:  # the arc sample rounded back onto the centre
                raise TraceError(f"stalled at point {k} ({reason}); the scan radius "
                                 f"{cfg.radius:g} is below the coordinates' resolution at "
                                 f"the turning point {current}", path=path)
            direction = new_direction(current, exit_point, direction)
            heading, outcome, flag = _heading(direction), exit_point, FLAG_RESTART

        # every new point, ordinary or restart: domain check, append
        if cfg.domain is not None and not cfg.domain.contains(outcome):
            if len(points) == 1:
                raise TraceError(f"the first step, to {outcome}, leaves the domain {cfg.domain}",
                                 path=path)
            path.termination = Termination.LEFT_DOMAIN
            break
        if outcome == current:  # SolutionPath.append's check, in line; a restart never lands here
            delta = cfg.step if direction.axis is _X else cfg.step_y
            raise TraceError(f"the step {delta:g} from point {k} is below the coordinates' "
                             f"resolution at {current}", path=path)
        points.append(outcome)
        flags.append(flag)
        if flag == FLAG_RESTART:
            path.events.append(TurningPointEvent(turning, kind, reason))
            log.info("restart at %s marching %s", outcome, direction)

    if path.termination is None:  # the march repeated its state at (j, k)
        if _retraced(points[j:k], cfg.max_step):
            path.termination = Termination.RETRACED
        else:  # the cycle points[j:k+1], from the repeated state round to it again
            path.termination = Termination.CLOSED
            del points[:j], flags[:j]
            path.events = [replace(e, index=e.index - j) for e in path.events if e.index >= j]
    return path


def polish_transverse(
    residual: ResidualField,
    point: Point2,
    direction: StepDirection,
    tol: float = 1e-10,
) -> Point2:
    """Solve the transverse coordinate so `point` lands on the curve.

    Convenience for seeding a trace: the coordinate perpendicular to the
    initial marching direction is adjusted, the driven one kept.
    """
    axis = direction.axis
    c, t = (point.x, point.y) if axis is _X else (point.y, point.x)
    root = solve_scalar(_slice(residual, axis, c), t, tol, max_iter=80)
    return Point2(c, root) if axis is _X else Point2(root, c)
