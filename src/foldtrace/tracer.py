"""Axis-aligned continuation of implicit curves with turning-point recovery.

The driver marches one coordinate along a fixed lattice of step multiples
and solves the transverse coordinate from the residual field at every
stop, starting each solve at the secant extrapolation of the last two
points of the current march. When the transverse solve loses its root
the last point is declared a turning point, the half-disk boundary scan
picks the exit point, and marching resumes from there in the direction
the scan decided.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
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
from .geometry import Axis, Box, Point2, StepDirection, TurningPointKind, coordinate, with_coordinate
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

MIN_CLOSURE_POINTS = 10  # closure is tested only on longer paths

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
    index: int
    kind: TurningPointKind
    restart_index: int
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
    Each setting is checked here. The closure tolerance is 1e-4x the larger
    step: lattice marching lands a closing pass on the opening points to
    solver precision, and a looser one would swallow a final turning-point
    event right at the seed.
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
        self.closure_tol = 1e-4 * self.max_step


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
) -> Union[Point2, Stalled]:
    """Advance the driven coordinate one lattice stop and re-solve the slice.

    The stop is on the lattice anchor + k*step, anchored at `current` when
    `anchor` is None. With `previous`, the point before `current` on the
    same march, the solve starts at the secant extrapolation through the
    two (Allgower & Georg, Introduction to Numerical Continuation Methods,
    ch. 2); without it, or when the extrapolation is undefined or not
    finite, at the current transverse coordinate. The search bracket is
    centred on the current point, its half-width the larger of ten larger
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
    width = max(10.0 * cfg.max_step, BRACKET_PER_PREDICTED_CHANGE * abs(guess - t0))
    try:
        root = solve_scalar(_slice(residual, axis, target), guess, cfg.residual_tol,
                            bracket=(t0 - width, t0 + width))
    except NoConvergence as exc:
        return Stalled(f"slice solve failed at {axis.value}={target:.6g}: {exc}")
    except FieldEvaluationError as exc:
        return Stalled(f"field undefined near {axis.value}={target:.6g}: {exc}")
    return Point2(target, root) if axis is Axis.X else Point2(root, target)


def _segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    length2 = ax * ax + ay * ay
    if length2 == 0.0:
        return p.distance_to(a)
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / length2
    t = min(max(t, 0.0), 1.0)
    return math.hypot(p.x - (a.x + t * ax), p.y - (a.y + t * ay))


def _closed(path: SolutionPath, p: Point2, tol: float) -> bool:
    # Restarts shift the marching lattice, so the returning pass rarely
    # reproduces the start point itself; passing within `tol` of either
    # opening segment counts as closure (the first one ends at the start).
    pts = path.points
    return any(_segment_distance(p, pts[i], pts[i + 1]) <= tol for i in range(min(2, len(pts) - 1)))


def _retraced(points: List[Point2], width: float) -> bool:
    """Whether a path that met its opening points retraced itself instead of closing.

    A simple closed curve bounds area. With A the shoelace area and L the
    length of the polygon through `points`, its mean width 2|A|/L is the
    radius of a circle but only the gap between the passes of a path that
    reversed at a fold and walked back over itself: a fraction of a step.
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


def _closure_reach(path: SolutionPath, tol: float) -> float:
    """Distance from the second path point beyond which `_closed` is False.

    A point within `tol` of either opening segment lies within `tol` plus
    the longer opening segment of the second point, by the triangle
    inequality; the second `tol` is slack for rounding. So the pre-test
    never changes a verdict.
    """
    p0, p1, p2 = path.points[:3]
    return 2.0 * tol + max(p1.distance_to(p0), p1.distance_to(p2))


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
    Stops when the curve closes onto its opening points (RETRACED if the
    path bounds no area, see `_retraced`), when a boundary scan comes back
    empty, when the path leaves the configured domain, or at the point
    budget. A scan that comes back empty after a sign change it could not
    resolve proves no curve end, so it raises TraceError with the partial
    path. Turning points on the way are navigated via the half-disk scan
    and recorded as events. A restart point is checked against the domain
    like any other: one outside it ends the path at the turning point, with
    no event. A first step that leaves the domain traced nothing, so it
    raises TraceError with the one-point path.

    Each distinct march step is solved once: a memo maps `step`'s inputs
    (current, previous, direction) to its outcome. It lives for this trace
    unless `memo`, a dict, is given; traces of one field that share it
    reuse each other's steps. The dict keeps traces with a different start,
    step, step_y or residual_tol apart, but not different fields.
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
    settings = (start, cfg.step, cfg.step_y, cfg.max_step, cfg.residual_tol)
    steps = {} if memo is None else memo.setdefault(settings, {})
    direction = initial_direction
    heading = _heading(direction)
    reach2 = None  # squared closure reach, fixed once the opening points are

    points = path.points
    while True:
        if len(points) >= cfg.max_points:
            path.termination = Termination.MAX_POINTS
            break
        current = points[-1]
        previous = points[-2] if len(points) > 1 and path.flags[-1] == FLAG_ORDINARY else None
        key = (current, previous, heading)
        if 0.0 in current or (previous is not None and 0.0 in previous):
            key = (repr(current), repr(previous), heading)  # repr tells -0.0 from 0.0
        outcome = steps.get(key)
        if outcome is None:
            outcome = steps[key] = step(residual, current, direction, cfg, anchor=points[0],
                                        previous=previous)

        flag = FLAG_ORDINARY
        if isinstance(outcome, Stalled):
            j = len(points) - 1
            kind, reason = TurningPointKind(direction), outcome.reason
            log.info("stall (%s) at point %d %s -> %s scan", reason, j, current, kind.name)
            path.flags[j] = FLAG_TURNING

            try:  # before the scan: with no history there is no exit to choose
                reference = choose_reference_point(points, j, cfg)
            except InsufficientHistory as exc:
                raise TraceError(f"stalled at the first path point ({reason}); "
                                 f"no history to choose an exit: {exc}", path=path) from exc
            candidates = scan_boundary(residual, current, kind, cfg)
            try:
                exit_point = select_exit_point(candidates, reference)
            except CurveTerminated as exc:
                if candidates.unresolved_mesh_indices:  # the scan proved no curve end
                    raise TraceError(f"stalled at point {j} ({reason}); the scan could not resolve "
                                     f"the sign change after arc samples "
                                     f"{candidates.unresolved_mesh_indices}", path=path) from exc
                path.termination = Termination.TERMINATED
                break
            try:
                direction, outcome = new_direction(current, exit_point, incoming=direction)
            except ZeroVector as exc:  # the arc sample rounded back onto the centre
                raise TraceError(f"stalled at point {j} ({reason}); the scan radius "
                                 f"{cfg.radius:g} is below the coordinates' resolution at "
                                 f"the turning point {current}", path=path) from exc
            heading = _heading(direction)
            flag = FLAG_RESTART

        # every new point, ordinary or restart: domain check, append, closure test
        if cfg.domain is not None and not cfg.domain.contains(outcome):
            if len(points) == 1:
                raise TraceError(f"the first step, to {outcome}, leaves the domain {cfg.domain}",
                                 path=path)
            path.termination = Termination.LEFT_DOMAIN
            break
        path.append(outcome, flag)
        if flag == FLAG_RESTART:
            path.events.append(TurningPointEvent(index=j, kind=kind, restart_index=len(points) - 1,
                                                 reason=reason))
            log.info("restart at %s marching %s", outcome, direction)
        if len(points) > MIN_CLOSURE_POINTS:
            if reach2 is None:
                reach2 = _closure_reach(path, cfg.closure_tol) ** 2
            p1 = points[1]
            dx, dy = outcome.x - p1.x, outcome.y - p1.y
            if dx * dx + dy * dy <= reach2 and _closed(path, outcome, cfg.closure_tol):
                break

    if path.termination is None:  # the closure test ended the loop
        retraced = _retraced(points, cfg.max_step)
        path.termination = Termination.RETRACED if retraced else Termination.CLOSED
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
    transverse = direction.axis.other
    g = _slice(residual, direction.axis, coordinate(point, direction.axis))
    root = solve_scalar(g, coordinate(point, transverse), tol, max_iter=80)
    return with_coordinate(point, transverse, root)
