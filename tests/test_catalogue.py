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
around its centre and stays within RADIAL_TOL of the curve. Completeness,
the closed count per family, is pinned as a floor that a change may raise
but not lower; that every curve closes is a strict expected failure per
family.

A second yardstick, the tilted-ellipse sweep, traces SWEEP_SIZE ellipses
centred on the origin with axes 1 and 1/aspect, in the ranges of the tracer
tests' hypothesis test: aspect in [1, 4], tilt in [0, pi], start angle in
[0, 2 pi], step in [0.02, 0.08], one of the four axis directions and a budget
of three perimeters. Their parameters come from the same Kronecker sequence.
Soundness is asserted as above; the closed count is a floor and the count of
traces that raise (a stall at the first point) a ceiling.
"""

import math
from collections import Counter

import pytest

from foldtrace.errors import TraceError
from foldtrace.geometry import MINUS_X, MINUS_Y, PLUS_X, PLUS_Y, Axis, Point2, StepDirection, cbrt
from foldtrace.tracer import Termination, TraceConfig, trace

PER_FAMILY = 64
STEPS = (0.005, 0.01, 0.013, 0.02, 0.03)
POWERS = (3, 4, 6)
RADIAL_TOL = 1e-6
# Fractional parts of the square roots of the first seven primes.
_ALPHA = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17))
# Closed traces per family, a floor: raise it when a change closes more. Every
# ellipse closes, each fold located before its scan; every superellipse retraces:
# a parabola misplaces its flat folds, which fall off the step lattice.
CLOSED_FLOOR = {"ellipse": 64, "superellipse": 0, "astroid": 64}
SWEEP_SIZE = 1500
# Of the sweep's traces, 1,135 close, 194 retrace and 171 raise.
SWEEP_CLOSED_FLOOR, SWEEP_RAISED_CEILING = 1135, 171


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


@pytest.fixture(scope="module")
def catalogue():
    """Per family, (termination or "raised", winding, max radial error, whether the
    path ends on its first point) of every curve."""
    results = {}
    for family in CLOSED_FLOOR:
        rows = results[family] = []
        for i in range(PER_FAMILY):
            field, start, direction, cfg, centre, radius = _curve(family, i)
            try:
                path = trace(field, start, direction, cfg)
            except TraceError:
                rows.append(("raised", None, None, None))
                continue
            error = max(abs(radius(p.x, p.y) - 1.0) for p in path.points)
            rows.append((path.termination.value, _winding(path.points, centre), error,
                         path.points[-1] == path.points[0]))
    return results


@pytest.mark.parametrize("family", list(CLOSED_FLOOR))
def test_every_start_lies_on_its_curve(family):
    for i in range(PER_FAMILY):
        field, start, *_ = _curve(family, i)
        assert abs(field(*start)) <= 1e-12, (family, i)


@pytest.mark.parametrize("family", list(CLOSED_FLOOR))
def test_closed_traces_wind_once_on_the_curve(catalogue, family):
    for i, (termination, winding, error, ends_on_start) in enumerate(catalogue[family]):
        if termination == Termination.CLOSED.value:
            assert ends_on_start, (family, i)
            assert abs(abs(winding) - 1.0) < 1e-9, (family, i, winding)
            assert error <= RADIAL_TOL, (family, i, error)


@pytest.mark.parametrize("family", list(CLOSED_FLOOR))
def test_closed_count_keeps_its_floor(catalogue, family):
    split = Counter(row[0] for row in catalogue[family])
    assert split[Termination.CLOSED.value] >= CLOSED_FLOOR[family], split


_RETRACES = pytest.mark.xfail(
    strict=True, reason="open defect: a flat fold off the lattice reverses the trace")


@pytest.mark.parametrize("family", ["ellipse", pytest.param("superellipse", marks=_RETRACES),
                                    "astroid"])
def test_every_curve_closes(catalogue, family):
    split = Counter(row[0] for row in catalogue[family])
    assert split[Termination.CLOSED.value] == PER_FAMILY, split


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
    """(termination or "raised", winding, max radial error, whether the path ends on
    its first point) of every sweep curve."""
    rows = []
    for i in range(SWEEP_SIZE):
        *case, radius = _tilted_ellipse(i)
        try:
            path = trace(*case)
        except TraceError:
            rows.append(("raised", None, None, None))
            continue
        error = max(abs(radius(p.x, p.y) - 1.0) for p in path.points)
        rows.append((path.termination.value, _winding(path.points, Point2(0.0, 0.0)), error,
                     path.points[-1] == path.points[0]))
    return rows


def test_sweep_closed_traces_wind_once_on_the_curve(sweep):
    # curve 518 marches into its cycle from a start off it: as many points
    # from the start as the cycle has (69) hold no event and wind 0 times
    for i, (termination, winding, error, ends_on_start) in enumerate(sweep):
        if termination == Termination.CLOSED.value:
            assert ends_on_start, i
            assert abs(abs(winding) - 1.0) < 1e-9, (i, winding)
            assert error <= RADIAL_TOL, (i, error)


def test_sweep_keeps_its_closed_floor_and_raised_ceiling(sweep):
    split = Counter(row[0] for row in sweep)
    assert split[Termination.CLOSED.value] >= SWEEP_CLOSED_FLOOR, split
    assert split["raised"] <= SWEEP_RAISED_CEILING, split
