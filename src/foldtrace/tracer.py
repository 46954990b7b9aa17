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

from .errors import (
    CurveTerminated,
    FieldEvaluationError,
    InsufficientHistory,
    NoConvergence,
    TraceError,
    ZeroVector,
)
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
        for name in ("step", "step_y", "radius", "residual_tol"):
            value = getattr(self, name)
            if value is None and name in ("step_y", "radius"):
                continue  # defaulted below
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        for name, least in (("mesh_count", 1), ("reference_lag", 1), ("max_points", 2)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        self.max_step = self.step if self.step_y is None else max(self.step, self.step_y)
        if self.radius is None:
            self.radius = self.max_step


def _next_lattice(current: float, delta: float, sign: int, anchor: float) -> float:
    """Next lattice coordinate anchor + k*delta strictly beyond `current`.

    Marching on a fixed lattice (instead of accumulating raw increments)
    keeps every later approach to the same fold landing on the same
    abscissas, which is what lets small scan radii still straddle the
    curve there after restarts have shifted the walk.
    """
    ratio = (current - anchor) / delta
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9:
        k = nearest + sign
    elif sign > 0:
        k = math.floor(ratio) + 1
    else:
        k = math.ceil(ratio) - 1
    return anchor + k * delta


def _slice(residual: ResidualField, axis: Axis, value: float) -> Callable[[float], float]:
    """The residual along the line `axis` = `value`, as a function of the other coordinate."""
    if axis is Axis.X:
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
    if axis is Axis.X:
        delta = cfg.step
        c0, t0, origin, c1, t1 = current.x, current.y, anchor.x, previous.x, previous.y
    else:
        delta = cfg.step if cfg.step_y is None else cfg.step_y
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
    return Point2(target, root) if axis is Axis.X else Point2(root, target)


def _fold(residual: ResidualField, fit: List[Point2], direction: StepDirection,
          cfg: TraceConfig) -> Optional[Point2]:
    """The fold past the last of three march points `fit`, where c(t), the driven
    coordinate as a function of the transverse, is extremal (Allgower & Georg, ch. 9). A
    vertex of the parabola through `fit` ahead in c and within the slice bracket's
    width w of the last t is solved for c within +-w and replaces the oldest point,
    up to 8 times, until t moves under 1e-3 radius. Returns the last root solved ahead
    in c, or None if there is none or it lies within 1e-3 radius of the last t."""
    axis, sign = direction.axis, direction.sign
    fit = [(p.y, p.x) if axis is Axis.X else (p.x, p.y) for p in fit]  # as (t, c)
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
            fold = None if near else Point2(c, t) if axis is Axis.X else Point2(t, c)
        fit = fit[1:] + [(t, c)]
    return fold


def _retraced(points: List[Point2], width: float) -> bool:
    """Whether one period of the march, `points`, retraced itself instead of closing.

    A simple closed curve bounds area. With A the shoelace area and L the
    length of the polygon through `points`, its mean width 2|A|/L is the
    radius of a circle but only the gap between the passes of a cycle that
    reversed at two folds and walked back over itself: a fraction of a step.
    So a mean width under `width`, the largest step, means a retrace.
    """
    o = points[0]
    area2 = length = ax = ay = 0.0  # coordinates relative to the start
    for p in points[1:] + points[:1]:
        bx, by = p.x - o.x, p.y - o.y
        area2 += ax * by - bx * ay
        length += math.hypot(bx - ax, by - ay)
        ax, ay = bx, by
    return abs(area2) < width * length


def _heading(direction: StepDirection) -> int:
    """A direction as a cheap hashable: +-1 along x, +-2 along y."""
    return direction.sign if direction.axis is Axis.X else 2 * direction.sign


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
    TraceError with the partial path. A stall after three points of one march
    adds the fold `_fold` locates, if in the domain and budget, as the turning
    point; each turning point's half-disk scan picks the restart, recorded
    with it as an event. A restart outside the domain ends the path at the
    turning point, with no event. A first step has no secant to size its
    slice bracket, so one that stalls is retried with the bracket floor
    widened 4x, up to three times (640 larger steps); a stall there raises
    TraceError with the one-point path, as does a first step that leaves the
    domain. A step below the coordinates' resolution, which rounds back onto
    its own point, raises TraceError with the partial path.

    Each distinct march step is solved once, from one table keyed by
    `step`'s inputs (current, previous, direction). An entry holds the
    step's outcome, the path that last met its state and the index of its
    `current` there, so one lookup per step serves the memo and the repeat
    test; only an entry this trace met proves a repeat. The table lives for
    this trace unless `memo`, a dict, is given; traces of one field that
    share it reuse each other's steps. The same table holds each boundary
    scan, keyed by its centre, kind, radius and mesh_count, so traces that
    differ only in reference_lag scan each turning point once; the lag only
    picks the exit from the shared candidates. The dict keeps traces with a
    different start, step, step_y or residual_tol apart, but not different
    fields.
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
    # step key -> [outcome, the path that last met the key, the index of its `current` there];
    # scan key (centre, kind, radius, mesh_count) -> the scan's CandidateSet
    steps = {} if memo is None else memo.setdefault(settings, {})
    direction = initial_direction
    heading = _heading(direction)
    lag = max(cfg.reference_lag, 2)  # the fold fit reads points k-2..k

    points, flags = path.points, path.flags
    while True:
        current = points[-1]
        previous = points[-2] if len(points) > 1 and flags[-1] == FLAG_ORDINARY else None
        key = (current, previous, heading)
        if 0.0 in current or (previous is not None and 0.0 in previous):
            key = (repr(current), repr(previous), heading)  # repr tells -0.0 from 0.0
        # The key and the `lag` window, where the next stall fits its fold and picks its
        # reference, are all the march reads, so a state met again at k repeats the march
        # from j on. Tuple == ignores the sign of a zero in the window, which is safe: the
        # window is read only through distances and differences. The proof assumes the
        # field is a function of (x, y); BifurcationField's warm starts are not, but
        # the default diagram never repeats. A key another trace met is no repeat.
        entry, k = steps.get(key), len(points) - 1
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
            entry = steps[key] = [outcome, path, k]
        outcome = entry[0]

        flag = FLAG_ORDINARY
        if isinstance(outcome, Stalled):
            kind, reason = TurningPointKind(direction), outcome.reason
            log.info("stall (%s) at point %d %s -> %s scan", reason, k, current, kind.name)
            turning, fold = k, None
            if k >= 2 and flags[k] == flags[k - 1] == FLAG_ORDINARY and k + 3 <= cfg.max_points:
                fold = _fold(residual, points[k - 2:], direction, cfg)
            if fold is not None and (cfg.domain is None or cfg.domain.contains(fold)):
                log.info("fold located at %s", fold)
                turning, current = k + 1, fold
                points.append(fold)
                flags.append(FLAG_TURNING)
            else:
                flags[k] = FLAG_TURNING
            try:  # before the scan: with no history there is no exit to choose
                reference = choose_reference_point(points, turning, cfg)
            except InsufficientHistory as exc:
                raise TraceError(f"stalled at the first path point ({reason}); "
                                 f"no history to choose an exit: {exc}", path=path) from exc
            scan_key = (repr(current) if 0.0 in current else current, kind, cfg.radius,
                        cfg.mesh_count)
            candidates = steps.get(scan_key)
            if candidates is None:  # the lag picks the exit below, so scans are shared across it
                candidates = steps[scan_key] = scan_boundary(residual, current, kind, cfg)
            try:
                exit_point = select_exit_point(candidates, reference)
            except CurveTerminated as exc:
                if candidates.unresolved_mesh_indices:  # the scan proved no curve end
                    raise TraceError(f"stalled at point {k} ({reason}); the scan could not resolve "
                                     f"the sign change after arc samples "
                                     f"{candidates.unresolved_mesh_indices}", path=path) from exc
                path.termination = Termination.TERMINATED
                break
            try:
                direction = new_direction(current, exit_point, incoming=direction)
            except ZeroVector as exc:  # the arc sample rounded back onto the centre
                raise TraceError(f"stalled at point {k} ({reason}); the scan radius "
                                 f"{cfg.radius:g} is below the coordinates' resolution at "
                                 f"the turning point {current}", path=path) from exc
            heading, outcome, flag = _heading(direction), exit_point, FLAG_RESTART

        # every new point, ordinary or restart: domain check, append
        if cfg.domain is not None and not cfg.domain.contains(outcome):
            if len(points) == 1:
                raise TraceError(f"the first step, to {outcome}, leaves the domain {cfg.domain}",
                                 path=path)
            path.termination = Termination.LEFT_DOMAIN
            break
        if outcome == current:  # SolutionPath.append's check, in line; a restart never lands here
            delta = cfg.step if direction.axis is Axis.X else cfg.step_y or cfg.step
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
    c, t = (point.x, point.y) if axis is Axis.X else (point.y, point.x)
    root = solve_scalar(_slice(residual, axis, c), t, tol, max_iter=80)
    return Point2(c, root) if axis is Axis.X else Point2(root, c)
