"""Half-disk boundary scan used to continue a trace past a turning point.

Given a turning point whose blocked half-plane is known, the steps are:
sample the opposite half-circle uniformly in its arc parameter, collect
every root of the residual field on that arc (each sign change between
neighbouring samples is finished by `rootfind.itp`), pick the candidate
farthest from a reference point a few steps back along the path, and
derive the new marching direction from the vector to that candidate.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .errors import CurveTerminated, FieldEvaluationError, InsufficientHistory, NoConvergence, ZeroVector
from .geometry import Axis, Point2, StepDirection, TurningPointKind
from .rootfind import itp

if TYPE_CHECKING:
    from .tracer import TraceConfig

log = logging.getLogger(__name__)

ResidualField = Callable[[float, float], float]


@dataclass(frozen=True)
class Candidate:
    point: Point2
    mesh_index: int


@dataclass
class CandidateSet:
    """Roots found on the scanned arc, in mesh order."""

    candidates: List[Candidate] = field(default_factory=list)
    skipped_mesh_indices: List[int] = field(default_factory=list)
    unresolved_mesh_indices: List[int] = field(default_factory=list)  # refined to no root

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


def arc_point(center: Point2, radius: float, kind: TurningPointKind, phi: float) -> Point2:
    """Point at arc parameter phi on the half-circle opposite the blocked direction.

    The east-blocked arc (-sin(phi), cos(phi)), turned by quarter turns: the
    coordinate bounding the open half-plane comes from sin(phi), so it is
    exactly zero at phi = 0 and strictly signed elsewhere.
    """
    s, c = math.sin(phi), math.cos(phi)
    sign = kind.value.sign
    ux, uy = (-s * sign, c * sign) if kind.value.axis is Axis.X else (-c * sign, -s * sign)
    return Point2(center.x + radius * ux, center.y + radius * uy)


def mesh_half_circle(center: Point2, radius: float, n: int, kind: TurningPointKind) -> List[Point2]:
    """Uniform n-point mesh of the half-circle opposite the blocked direction.

    The east-blocked mesh angles are theta_i = (pi/(2n)) * (n + 2i) for
    i = 0..n-1, i.e. pi/2 + pi*i/n; other kinds use the same arc rotated by
    quarter turns. Spacing between consecutive angles is exactly pi/n.
    """
    if not 0.0 < radius < math.inf:  # NaN fails too
        raise ValueError("radius must be positive and finite")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("n must be an integer") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    return [arc_point(center, radius, kind, math.pi * i / n) for i in range(n)]


def scan_boundary(
    residual: ResidualField,
    center: Point2,
    kind: TurningPointKind,
    cfg: TraceConfig,
) -> CandidateSet:
    """Collect residual roots on the half-circle opposite the blocked direction.

    The arc is sampled at phi_i = pi*i/n for i = 0..n: the first n samples
    are `mesh_half_circle(center, cfg.radius, n, kind)`, the last closes
    the arc so a root in its final pi/n gap is not missed. A sample with
    |f| <= residual_tol is accepted outright; a sign change between two
    neighbouring samples, neither accepted, is refined by ITP in phi.
    Samples and refinements where the field cannot be evaluated or is not
    finite are skipped and their index recorded, and so, in a list of its
    own, is a sign change whose refinement never reaches |f| <= residual_tol.
    """
    n = cfg.mesh_count
    tol = cfg.residual_tol

    def at(p: Point2) -> float:
        v = residual(p.x, p.y)
        if not math.isfinite(v):
            raise FieldEvaluationError(f"non-finite residual at {p}")
        return v

    def f(phi: float) -> float:
        return at(arc_point(center, cfg.radius, kind, phi))

    mesh = mesh_half_circle(center, cfg.radius, n, kind)
    mesh.append(arc_point(center, cfg.radius, kind, math.pi))
    result = CandidateSet()
    samples: List[Optional[Tuple[float, float]]] = []
    for i, p in enumerate(mesh):
        try:
            samples.append((math.pi * i / n, at(p)))
        except FieldEvaluationError as exc:
            log.debug("arc sample %d skipped: %s", i, exc)
            result.skipped_mesh_indices.append(i)
            samples.append(None)

    def accepted(s: Optional[Tuple[float, float]]) -> bool:
        return s is not None and abs(s[1]) <= tol

    for i, (lo, hi) in enumerate(zip(samples, samples[1:] + [None])):
        if accepted(lo):
            result.candidates.append(Candidate(mesh[i], i))
        if lo is None or hi is None or accepted(lo) or accepted(hi) or (lo[1] < 0.0) == (hi[1] < 0.0):
            continue  # no sign change, or an accepted sample already covers it
        neg, pos = (lo, hi) if lo[1] < 0.0 else (hi, lo)
        try:
            phi = itp(f, neg, pos, tol)
        except FieldEvaluationError as exc:
            log.debug("refinement between samples %d and %d failed: %s", i, i + 1, exc)
            result.skipped_mesh_indices.append(i)
            continue
        except NoConvergence as exc:
            log.debug("refinement between samples %d and %d found no root: %s", i, i + 1, exc)
            result.unresolved_mesh_indices.append(i)
            continue
        result.candidates.append(Candidate(arc_point(center, cfg.radius, kind, phi), i))
    return result


def choose_reference_point(points, turning_index: int, cfg: TraceConfig) -> Point2:
    """Pick the path point the cost function measures distances from.

    Preferred is the point reference_lag steps back; if that lies outside
    the scan disk, indices are walked toward the turning point and the
    first point strictly inside the disk wins, the immediate predecessor
    serving as the fallback when none is.
    """
    j = turning_index
    if len(points) < 2 or j < 1:
        raise InsufficientHistory("need at least one path point before the turning point")
    tp = points[j]
    start = max(j - cfg.reference_lag, 0)
    for i in range(start, j):
        if points[i].distance_to(tp) < cfg.radius:
            return points[i]
    return points[j - 1]


def select_exit_point(candidates: CandidateSet, reference: Point2) -> Point2:
    """Candidate minimizing 1/distance-to-reference, i.e. the farthest one.

    Ties break toward the smallest mesh index. Candidates coinciding with
    the reference (cost undefined) are discarded. An empty set raises
    CurveTerminated: the scan proved there is nothing to continue to.
    """
    best: Optional[Candidate] = None
    best_dist = -1.0
    for cand in candidates:
        d = cand.point.distance_to(reference)
        if d == 0.0:
            log.warning("candidate at mesh index %d coincides with the reference; discarded",
                        cand.mesh_index)
            continue
        if d > best_dist:
            best, best_dist = cand, d
    if best is None:
        raise CurveTerminated("boundary scan found no continuation candidates")
    return best.point


def new_direction(
    turning_point: Point2,
    exit_point: Point2,
    incoming: Optional[StepDirection] = None,
) -> StepDirection:
    """Derive the next marching direction from the turning-point-to-exit vector.

    The axis with the larger component wins, signed accordingly; on an
    exact tie the axis perpendicular to the blocked (incoming) one is
    chosen. The march restarts at the exit point itself.
    """
    vx = exit_point.x - turning_point.x
    vy = exit_point.y - turning_point.y
    if vx == 0.0 and vy == 0.0:
        raise ZeroVector("exit point equals turning point")
    if abs(vx) > abs(vy):
        axis = Axis.X
    elif abs(vy) > abs(vx):
        axis = Axis.Y
    elif incoming is not None:
        axis = incoming.axis.other
    else:
        axis = Axis.Y
    sign = 1 if (vx if axis is Axis.X else vy) > 0 else -1
    return StepDirection(axis, sign)
