"""A fixed catalogue of off-centre closed curves as the tracer's correctness yardstick.

Three families, each traced from a start on the curve with default settings
but the step: rotated ellipses, superellipses |x/a|^p + |y/b|^p = 1 with
p in {3, 4, 6}, and astroids cbrt(x/a)^2 + cbrt(y/b)^2 = 1, each shifted to
a centre in [-1, 1]^2. Semi-axes are log-uniform on [0.5, 2], the start is a
uniform curve parameter (inside a quadrant, away from the cusps, for the
astroid), the initial direction follows the larger tangent component, the
step is one of STEPS and the point budget is 3 * 2 pi max(a, b) / step + 50.

Curve i's parameters are the i-th point of a Kronecker sequence, so they
are fixed in code and no seed moves them. Soundness is asserted outright:
every trace that reports `closed` ends on its first point, winds once
around its centre with no polar step against that winding (perfbench's
reversal rule) and stays within RADIAL_TOL of the curve. Completeness,
the closed count per family, is pinned as a floor that a change may raise
but not lower; that every curve closes is a strict expected failure per
family.

A second yardstick, the tilted-ellipse sweep, traces SWEEP_SIZE ellipses
centred on the origin with axes 1 and 1/aspect, in the ranges of the tracer
tests' hypothesis test: aspect in [1, 4], tilt in [0, pi], start angle in
[0, 2 pi], step in [0.02, 0.08], one of the four axis directions and a budget
of three perimeters. Their parameters come from the same Kronecker sequence.
Soundness is asserted as above; the closed count is a floor and the count of
traces that raise a ceiling.
"""

import dataclasses
import math
from collections import Counter

import pytest

from foldtrace.errors import TraceError
from foldtrace.expressions import expression_field
from foldtrace.geometry import (
    MINUS_X,
    MINUS_Y,
    PLUS_X,
    PLUS_Y,
    Axis,
    Point2,
    StepDirection,
    TurningPointKind,
    cbrt,
)
from foldtrace.tracer import (
    FLAG_ORDINARY,
    FLAG_RESTART,
    FLAG_TURNING,
    Termination,
    TraceConfig,
    polish_transverse,
    trace,
)
from foldtrace.turnpoint import scan_boundary, select_exit_point

PER_FAMILY = 64
STEPS = (0.005, 0.01, 0.013, 0.02, 0.03)
POWERS = (3, 4, 6)
RADIAL_TOL = 1e-6
# Fractional parts of the square roots of the first seven primes.
_ALPHA = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17))
# Closed traces per family, a floor: raise it when a change closes more. Every
# ellipse closes, each fold located before its scan; every superellipse but
# curve 44 closes, each flat fold located by the golden-section search.
CLOSED_FLOOR = {"ellipse": 64, "superellipse": 63, "astroid": 64}
SWEEP_SIZE = 1500
# Of the sweep's traces, 1,325 close, 175 retrace and 0 raise.
SWEEP_CLOSED_FLOOR, SWEEP_RAISED_CEILING = 1325, 0


def _size(u):
    return 0.5 * 4.0 ** u  # log-uniform on [0.5, 2]


def _ellipse(a, b, u):
    c, s = math.cos(math.pi * u), math.sin(math.pi * u)

    def field(x, y):
        return ((x * c + y * s) / a) ** 2 + ((y * c - x * s) / b) ** 2 - 1.0

    def point(t):
        x, y = a * math.cos(t), b * math.sin(t)
        return c * x - s * y, s * x + c * y

    def radius(x, y):
        return math.sqrt(field(x, y) + 1.0)

    return field, point, radius


def _superellipse(a, b, p):
    def field(x, y):
        return abs(x / a) ** p + abs(y / b) ** p - 1.0

    def point(t):
        ct, st = math.cos(t), math.sin(t)
        return (a * math.copysign(abs(ct) ** (2.0 / p), ct),
                b * math.copysign(abs(st) ** (2.0 / p), st))

    def radius(x, y):
        return (field(x, y) + 1.0) ** (1.0 / p)

    return field, point, radius


def _astroid(a, b):
    def field(x, y):
        return cbrt(x / a) ** 2 + cbrt(y / b) ** 2 - 1.0

    def point(t):
        return a * math.cos(t) ** 3, b * math.sin(t) ** 3

    def radius(x, y):
        return (field(x, y) + 1.0) ** 1.5

    return field, point, radius


def _shifted(f, cx, cy):
    return lambda x, y: f(x - cx, y - cy)


def _curve(family, i):
    """(field, start, direction, config, centre, radius) of curve i of a family."""
    u = [(i + 1) * alpha % 1.0 for alpha in _ALPHA]
    a, b = _size(u[0]), _size(u[1])
    cx, cy = 2.0 * u[2] - 1.0, 2.0 * u[3] - 1.0
    step = STEPS[int(len(STEPS) * u[4])]
    t0 = 2.0 * math.pi * u[5]
    if family == "ellipse":
        field, point, radius = _ellipse(a, b, u[6])
    elif family == "superellipse":
        field, point, radius = _superellipse(a, b, POWERS[i % len(POWERS)])
    else:
        field, point, radius = _astroid(a, b)
        quadrant, offset = divmod(4.0 * u[5], 1.0)
        t0 = 0.5 * math.pi * (quadrant + 0.2 + 0.6 * offset)
    (x0, y0), (x1, y1) = point(t0 - 1e-6), point(t0 + 1e-6)
    dx, dy = x1 - x0, y1 - y0
    direction = (StepDirection(Axis.X, 1 if dx > 0 else -1) if abs(dx) >= abs(dy)
                 else StepDirection(Axis.Y, 1 if dy > 0 else -1))
    x, y = point(t0)
    cfg = TraceConfig(step=step, max_points=int(3.0 * 2.0 * math.pi * max(a, b) / step) + 50)
    return (_shifted(field, cx, cy), Point2(x + cx, y + cy), direction, cfg, Point2(cx, cy),
            _shifted(radius, cx, cy))


def _winding(points, centre):
    """Turns of the closed polyline through `points` around `centre`."""
    theta = [math.atan2(p.y - centre.y, p.x - centre.x) for p in points + points[:1]]
    return sum(math.remainder(b - a, 2.0 * math.pi) for a, b in zip(theta, theta[1:])) / (2.0 * math.pi)


def _steps_against(points, centre, winding):
    """Steps of the polyline through `points` whose polar angle around `centre`
    does not turn with `winding`: perfbench's reversal rule."""
    theta = [math.atan2(p.y - centre.y, p.x - centre.x) for p in points]
    return sum(math.remainder(b - a, 2.0 * math.pi) * winding <= 0.0
               for a, b in zip(theta, theta[1:]))


def _soundness(path, centre, radius):
    """(termination, winding, max radial error, whether the path ends on its first
    point, polar steps against the winding) of a trace."""
    winding = _winding(path.points, centre)
    return (path.termination.value, winding, max(abs(radius(p.x, p.y) - 1.0) for p in path.points),
            path.points[-1] == path.points[0], _steps_against(path.points, centre, winding))


def _assert_closed_soundly(path, radius):
    """The soundness asserts of the yardsticks, on one trace of a curve round the origin."""
    termination, winding, error, ends_on_start, against = _soundness(path, Point2(0.0, 0.0), radius)
    assert termination == Termination.CLOSED.value and ends_on_start
    assert abs(abs(winding) - 1.0) < 1e-9 and against == 0 and error <= RADIAL_TOL


@pytest.fixture(scope="module")
def catalogue():
    """Per family, `_soundness` of every curve, or ("raised",) for a trace that raises."""
    results = {}
    for family in CLOSED_FLOOR:
        rows = results[family] = []
        for i in range(PER_FAMILY):
            field, start, direction, cfg, centre, radius = _curve(family, i)
            try:
                path = trace(field, start, direction, cfg)
            except TraceError:
                rows.append(("raised",))
                continue
            rows.append(_soundness(path, centre, radius))
    return results


@pytest.mark.parametrize("family", list(CLOSED_FLOOR))
def test_every_start_lies_on_its_curve(family):
    for i in range(PER_FAMILY):
        field, start, *_ = _curve(family, i)
        assert abs(field(*start)) <= 1e-12, (family, i)


@pytest.mark.parametrize("family", list(CLOSED_FLOOR))
def test_closed_traces_wind_once_on_the_curve(catalogue, family):
    for i, (termination, *soundness) in enumerate(catalogue[family]):
        if termination == Termination.CLOSED.value:
            winding, error, ends_on_start, against = soundness
            assert ends_on_start, (family, i)
            assert abs(abs(winding) - 1.0) < 1e-9, (family, i, winding)
            assert against == 0, (family, i, against)
            assert error <= RADIAL_TOL, (family, i, error)


@pytest.mark.parametrize("family", list(CLOSED_FLOOR))
def test_closed_count_keeps_its_floor(catalogue, family):
    split = Counter(row[0] for row in catalogue[family])
    assert split[Termination.CLOSED.value] >= CLOSED_FLOOR[family], split


_CURVE_44_RETRACES = pytest.mark.xfail(
    strict=True, reason="open defect: superellipse 44 starts on its flat north vertex, 4.5e-7 "
                        "below the fold; a stall at that lattice stop locates no fold, and the "
                        "trace reverses there and retraces its lap")


@pytest.mark.parametrize("family", ["ellipse",
                                    pytest.param("superellipse", marks=_CURVE_44_RETRACES),
                                    "astroid"])
def test_every_curve_closes(catalogue, family):
    split = Counter(row[0] for row in catalogue[family])
    assert split[Termination.CLOSED.value] == PER_FAMILY, split


def _witness(formula, guess, direction, step):
    """The field of `formula` and its trace from `guess`, polished onto the curve."""
    field = expression_field(formula)
    start = polish_transverse(field, guess, direction)
    return field, trace(field, start, direction, TraceConfig(step=step))


@pytest.mark.parametrize("step", [0.05, 0.02, 0.01])
def test_the_limacon_closes(step):
    # r = 2 + cos(theta) is convex and simple, but its west vertex (-1, 0) is a
    # flat fold, x + 1 growing as the fourth power of the angle from pi, that
    # the parabola refits never settle on: the golden-section search locates it
    _, path = _witness("(x^2+y^2-x)^2 - 4*(x^2+y^2)", Point2(3.0, 0.2), PLUS_Y, step)
    _assert_closed_soundly(path, lambda x, y: math.hypot(x, y) / (2.0 + math.cos(math.atan2(y, x))))


def test_the_reversed_superellipse_closes_at_its_flat_folds():
    # the folds of x^4/16 + y^4 = 1 at (0, -1) and (0, 1) are flat, y + 1 and
    # 1 - y growing as the fourth power of x: the parabola refits drift, and
    # the golden-section search places both within a tenth of a step of x = 0
    step = 0.07
    _, path = _witness("x^4/16 + y^4 - 1", Point2(2.0, 0.0), MINUS_Y, step)
    assert len(path.events) == 4
    poles = [path.points[e.index] for e in path.events if e.kind.value.axis is Axis.Y]
    assert len(poles) == 2 and all(abs(p.x) < 0.1 * step for p in poles)
    _assert_closed_soundly(path, lambda x, y: (x ** 4 / 16.0 + y ** 4) ** 0.25)


@pytest.mark.xfail(strict=True, reason="open defect: the areas of a figure-eight's two lobes "
                                       "cancel, so its proved cycle is judged retraced")
@pytest.mark.parametrize("step", [0.05, 0.02, 0.01])
def test_the_lemniscate_closes(step):
    # Bernoulli's lemniscate crosses itself at the origin; its cycle walks the
    # figure-eight once, 2 varpi sqrt(2) = 7.416 long, through the origin twice
    field, path = _witness("(x^2+y^2)^2 - 2*(x^2-y^2)", Point2(0.866, 0.5), MINUS_Y, step)
    assert path.termination is Termination.CLOSED and path.points[-1] == path.points[0]
    length = sum(a.distance_to(b) for a, b in zip(path.points, path.points[1:]))
    assert length == pytest.approx(7.416, rel=0.01)
    crossings = [(a, b) for a, b in zip(path.points, path.points[1:]) if (a.x < 0.0) != (b.x < 0.0)]
    assert len(crossings) == 2
    assert all(max(abs(a.y), abs(b.y)) <= step for a, b in crossings)
    assert max(abs(field(x, y)) for x, y in path.points) <= 1e-10


def _tilted_ellipse(i):
    """(field, start, direction, config, radius) of curve i of the tilted-ellipse sweep."""
    u = [(i + 1) * alpha % 1.0 for alpha in _ALPHA[:5]]
    a, b = 1.0, 1.0 / (1.0 + 3.0 * u[0])
    field, point, radius = _ellipse(a, b, u[1])
    direction = (PLUS_X, MINUS_X, PLUS_Y, MINUS_Y)[int(4.0 * u[4])]
    step = 0.02 + 0.06 * u[3]
    perimeter = math.pi * (3.0 * (a + b) - math.sqrt((3.0 * a + b) * (a + 3.0 * b)))
    return (field, Point2(*point(2.0 * math.pi * u[2])), direction,
            TraceConfig(step=step, max_points=int(3.0 * perimeter / step)), radius)


@pytest.fixture(scope="module")
def sweep():
    """`_soundness` of every sweep curve, or ("raised",) for a trace that raises."""
    rows = []
    for i in range(SWEEP_SIZE):
        *case, radius = _tilted_ellipse(i)
        try:
            path = trace(*case)
        except TraceError:
            rows.append(("raised",))
            continue
        rows.append(_soundness(path, Point2(0.0, 0.0), radius))
    return rows


def test_sweep_closed_traces_wind_once_on_the_curve(sweep):
    # curve 518 marches into its cycle from a start off it: as many points
    # from the start as the cycle has (69) hold no event and wind 0 times
    for i, (termination, *soundness) in enumerate(sweep):
        if termination == Termination.CLOSED.value:
            winding, error, ends_on_start, against = soundness
            assert ends_on_start, i
            assert abs(abs(winding) - 1.0) < 1e-9, (i, winding)
            assert against == 0, (i, against)
            assert error <= RADIAL_TOL, (i, error)


def test_sweep_keeps_its_closed_floor_and_raised_ceiling(sweep):
    split = Counter(row[0] for row in sweep)
    assert split[Termination.CLOSED.value] >= SWEEP_CLOSED_FLOOR, split
    assert split["raised"] <= SWEEP_RAISED_CEILING, split


@pytest.mark.parametrize("i, candidates", [(7, 1), (73, 2)])
def test_a_first_point_stall_exits_at_the_first_candidate(i, candidates):
    # the first slice solve stalls at every bracket width, so the start is the
    # turning point. With no history every candidate lies one radius from it,
    # and the exit is the first in mesh order; measured from the start, curve
    # 73's second candidate is the farther by rounding alone
    field, start, direction, cfg, radius = _tilted_ellipse(i)
    march = trace(field, start, direction, dataclasses.replace(cfg, max_points=3))
    scan = scan_boundary(field, start, TurningPointKind(direction), cfg)
    assert [e.index for e in march.events] == [0]
    assert march.flags == [FLAG_TURNING, FLAG_RESTART, FLAG_ORDINARY]
    assert len(scan) == candidates and march.points[1] == scan.candidates[0].point
    assert (select_exit_point(scan, start) == scan.candidates[0].point) == (candidates == 1)
    _assert_closed_soundly(trace(field, start, direction, cfg), radius)


def test_a_stall_one_step_after_a_restart_fits_its_fold():
    # sweep curve 6 stalls one step past a restart; the fold fit through the
    # turning point, the restart and that step places a fold where a reversal
    # at the stall would step back against the winding
    field, start, direction, cfg, radius = _tilted_ellipse(6)
    path = trace(field, start, direction, cfg)
    _assert_closed_soundly(path, radius)
    assert any(path.flags[e.index - 2] == FLAG_RESTART for e in path.events if e.index >= 2)
