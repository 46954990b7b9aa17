"""Axis-aligned continuation of implicit curves with turning-point recovery.

The driver marches one coordinate along a fixed lattice of step multiples
and solves the transverse coordinate from the residual field at every
stop. When the transverse solve loses its root the last point is declared
a turning point, the half-disk boundary scan picks the exit point, and
marching resumes from there in the direction the scan decided.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Union

from .errors import (
    CurveTerminated,
    FieldEvaluationError,
    InsufficientHistory,
    NoConvergence,
    TraceError,
    ZeroVector,
)
from .geometry import Axis, Box, Point2, StepDirection, TurningPointKind, coordinate, with_coordinate
from .rootfind import ScalarSolveConfig, solve_scalar
from .turnpoint import (
    ResidualField,
    ScanConfig,
    choose_reference_point,
    mesh_half_circle,
    new_direction,
    scan_boundary,
    select_exit_point,
)

log = logging.getLogger(__name__)

FLAG_ORDINARY = "ordinary"
FLAG_TURNING = "turning_point"
FLAG_RESTART = "restart"

MIN_CLOSURE_POINTS = 10  # closure is tested only on longer paths


class Termination(Enum):
    CLOSED = "closed"
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
        if self.points and self.points[-1] == point:
            raise ValueError("consecutive path points must be distinct")
        self.points.append(point)
        self.flags.append(flag)


@dataclass
class TraceConfig:
    """Step sizes, scan parameters, and stopping rules for one trace.

    `step` is the x-axis increment; `step_y` defaults to the same value.
    Derived defaults: scan radius = max step, slice bracket = 10x the max
    step, closure tolerance = max step.
    """

    step: float
    step_y: Optional[float] = None
    scan: Optional[ScanConfig] = None
    max_points: int = 20000
    domain: Optional[Box] = None
    closure_tol: Optional[float] = None
    slice_bracket: Optional[float] = None

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.step_y is not None and self.step_y <= 0:
            raise ValueError("step_y must be positive")
        if self.max_points < 2:
            raise ValueError("max_points must be >= 2")
        if self.closure_tol is not None and self.closure_tol <= 0:
            raise ValueError("closure_tol must be positive")
        if self.slice_bracket is not None and self.slice_bracket <= 0:
            raise ValueError("slice_bracket must be positive")

    def step_for(self, axis: Axis) -> float:
        if axis is Axis.Y:
            return self.step_y if self.step_y is not None else self.step
        return self.step

    @property
    def max_step(self) -> float:
        return max(self.step_for(Axis.X), self.step_for(Axis.Y))

    def scan_config(self) -> ScanConfig:
        if self.scan is not None:
            return self.scan
        return ScanConfig(radius=self.max_step)

    def bracket_half_width(self) -> float:
        return self.slice_bracket if self.slice_bracket is not None else 10.0 * self.max_step

    def closure_tolerance(self) -> float:
        # Lattice marching makes a closing pass land back on the opening
        # points to solver precision, so the default can be far below one
        # step; a looser tolerance would swallow a final turning-point
        # event that happens right at the seed.
        return self.closure_tol if self.closure_tol is not None else 1e-4 * self.max_step


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


def step(
    residual: ResidualField,
    current: Point2,
    direction: StepDirection,
    cfg: TraceConfig,
    anchor: Optional[Point2] = None,
) -> Union[Point2, Stalled]:
    """Advance the driven coordinate one lattice stop and re-solve the slice.

    Returns the new on-curve point, or Stalled when the transverse solve
    fails or its root escapes the search bracket.
    """
    axis = direction.axis
    transverse = axis.other
    delta = cfg.step_for(axis)
    c0 = coordinate(current, axis)
    if anchor is not None:
        target = _next_lattice(c0, delta, direction.sign, coordinate(anchor, axis))
    else:
        target = c0 + direction.sign * delta

    t0 = coordinate(current, transverse)
    half_width = cfg.bracket_half_width()

    if axis is Axis.X:
        def g(t: float) -> float:
            return residual(target, t)
    else:
        def g(t: float) -> float:
            return residual(t, target)

    scfg = ScalarSolveConfig(tol=cfg.scan_config().residual_tol)
    try:
        root = solve_scalar(g, t0, scfg, bracket=(t0 - half_width, t0 + half_width))
    except NoConvergence as exc:
        return Stalled(f"slice solve failed at {axis.value}={target:.6g}: {exc}")
    except FieldEvaluationError as exc:
        return Stalled(f"field undefined near {axis.value}={target:.6g}: {exc}")
    return with_coordinate(with_coordinate(current, axis, target), transverse, root)


def _segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    ax, ay = b.x - a.x, b.y - a.y
    length2 = ax * ax + ay * ay
    if length2 == 0.0:
        return p.distance_to(a)
    t = ((p.x - a.x) * ax + (p.y - a.y) * ay) / length2
    t = min(max(t, 0.0), 1.0)
    return math.hypot(p.x - (a.x + t * ax), p.y - (a.y + t * ay))


def _closed(path: SolutionPath, p: Point2, tol: float) -> bool:
    pts = path.points
    if p.distance_to(pts[0]) <= tol:
        return True
    # Restarts shift the marching lattice, so the returning pass rarely
    # reproduces the start point itself; passing close to the opening
    # segments counts as closure too.
    for i in range(min(2, len(pts) - 1)):
        if _segment_distance(p, pts[i], pts[i + 1]) <= tol:
            return True
    return False


def trace(
    residual: ResidualField,
    start: Point2,
    initial_direction: StepDirection,
    cfg: TraceConfig,
) -> SolutionPath:
    """March along the zero set of `residual` from an on-curve start point.

    Stops when the curve closes onto its opening points, when a boundary
    scan comes back empty, when the path leaves the configured domain, or
    at the point budget. Turning points encountered on the way are
    navigated via the half-disk scan and recorded as events.
    """
    scan_cfg = cfg.scan_config()
    path = SolutionPath()
    try:
        f0 = residual(start.x, start.y)
    except FieldEvaluationError as exc:
        raise TraceError(f"cannot evaluate field at start: {exc}", path=path) from exc
    if not math.isfinite(f0) or abs(f0) > scan_cfg.residual_tol:
        raise ValueError(
            f"start point residual {f0:.3e} exceeds tolerance {scan_cfg.residual_tol:.3e}; "
            "polish the seed before tracing"
        )
    path.append(start, FLAG_ORDINARY)

    direction = initial_direction
    closure_tol = cfg.closure_tolerance()

    while True:
        if len(path) >= cfg.max_points:
            path.termination = Termination.MAX_POINTS
            break
        current = path.points[-1]
        outcome = step(residual, current, direction, cfg, anchor=path.points[0])

        if isinstance(outcome, Stalled):
            j = len(path) - 1
            kind = TurningPointKind.from_blocked(direction)
            log.info("stall (%s) at point %d %s -> %s scan", outcome.reason, j, current, kind.name)
            path.flags[j] = FLAG_TURNING

            mesh = mesh_half_circle(current, scan_cfg.radius, scan_cfg.mesh_count, kind)
            candidates = scan_boundary(residual, mesh, current, scan_cfg.radius, scan_cfg)
            try:
                reference = choose_reference_point(path, j, scan_cfg)
                exit_point = select_exit_point(candidates, reference)
            except CurveTerminated:
                path.termination = Termination.TERMINATED
                break
            except InsufficientHistory as exc:
                raise TraceError(f"stalled at the first path point ({outcome.reason}); "
                                 f"no history to choose an exit: {exc}", path=path) from exc
            try:
                direction, restart = new_direction(current, exit_point, incoming=direction)
            except ZeroVector as exc:  # radius > 0 makes this unreachable in practice
                raise TraceError(f"degenerate exit point: {exc}", path=path) from exc
            path.append(restart, FLAG_RESTART)
            path.events.append(TurningPointEvent(index=j, kind=kind, restart_index=len(path) - 1))
            log.info("restart at %s marching %s", restart, direction)
            if len(path) > MIN_CLOSURE_POINTS and _closed(path, restart, closure_tol):
                path.termination = Termination.CLOSED
                break
            continue

        new_point = outcome
        if cfg.domain is not None and not cfg.domain.contains(new_point):
            path.termination = Termination.LEFT_DOMAIN
            break
        path.append(new_point, FLAG_ORDINARY)
        if len(path) > MIN_CLOSURE_POINTS and _closed(path, new_point, closure_tol):
            path.termination = Termination.CLOSED
            break

    return path


def polish_transverse(
    residual: ResidualField,
    point: Point2,
    direction: StepDirection,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> Point2:
    """Solve the transverse coordinate so `point` lands on the curve.

    Convenience for seeding a trace: the coordinate perpendicular to the
    initial marching direction is adjusted, the driven one kept.
    """
    transverse = direction.axis.other
    axis_value = coordinate(point, direction.axis)
    if direction.axis is Axis.X:
        def g(t: float) -> float:
            return residual(axis_value, t)
    else:
        def g(t: float) -> float:
            return residual(t, axis_value)
    root = solve_scalar(g, coordinate(point, transverse), ScalarSolveConfig(tol=tol, max_iter=max_iter))
    return with_coordinate(point, transverse, root)
