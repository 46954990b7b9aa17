import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldtrace.astroid import astroid_field, trace_astroid
from foldtrace.errors import FieldEvaluationError, TraceError
from foldtrace.fields import circle_field
from foldtrace.geometry import (
    MINUS_X,
    MINUS_Y,
    PLUS_X,
    PLUS_Y,
    Box,
    Point2,
    StepDirection,
    TurningPointKind,
)
import foldtrace.tracer as tracer_mod
from foldtrace.tracer import (
    FLAG_ORDINARY,
    FLAG_RESTART,
    FLAG_TURNING,
    SolutionPath,
    Stalled,
    Termination,
    TraceConfig,
    _closed,
    _closure_reach,
    polish_transverse,
    step,
    trace,
)


class TestTraceConfig:
    def test_invalid_values_rejected(self):
        for kwargs in ({"mesh_count": 0}, {"radius": 0.0}, {"radius": -1.0}, {"reference_lag": 0},
                       {"residual_tol": 0.0}, {"residual_tol": -1e-10}):
            with pytest.raises(ValueError):
                TraceConfig(**{"step": 0.1, **kwargs})

    @pytest.mark.parametrize("name", ["mesh_count", "reference_lag", "max_points"])
    @pytest.mark.parametrize("value", [8.5, 8.0, "8", None])
    def test_counts_must_be_integers(self, name, value):
        # a float count would pass a range check and fail only at the first scan
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TraceConfig(step=0.1, **{name: value})

    def test_radius_defaults_to_the_larger_step(self):
        assert TraceConfig(step=0.01, step_y=0.05).radius == 0.05
        assert TraceConfig(step=0.05, step_y=0.01).radius == 0.05
        assert TraceConfig(step=0.01, step_y=0.05, radius=0.02).radius == 0.02


class TestStep:
    def test_circle_closed_form(self):
        cfg = TraceConfig(step=0.1)
        out = step(circle_field(), Point2(0.0, 1.0), PLUS_X, cfg)
        assert isinstance(out, Point2)
        assert abs(out.x - 0.1) < 1e-15
        assert abs(out.y - math.sqrt(0.99)) < 1e-9

    def test_stall_outside_circle(self):
        cfg = TraceConfig(step=0.1)
        out = step(circle_field(), Point2(1.0, 0.0), PLUS_X, cfg)
        assert isinstance(out, Stalled)

    def test_astroid_stall_past_cusp(self):
        field = astroid_field()
        x = 0.96
        y = (1.0 - x ** (2.0 / 3.0)) ** 1.5
        cfg = TraceConfig(step=0.05)
        out = step(field, Point2(x, y), PLUS_X, cfg)
        assert isinstance(out, Stalled)  # x + 0.05 > 1 has no real slice root

    def test_lattice_alignment_after_offset(self):
        # anchored marching snaps the first step back onto the lattice
        cfg = TraceConfig(step=0.1)
        out = step(circle_field(), Point2(0.03, math.sqrt(1 - 0.03 ** 2)), PLUS_X, cfg,
                   anchor=Point2(0.0, 1.0))
        assert abs(out.x - 0.1) < 1e-15

    def test_driven_axis_y(self):
        cfg = TraceConfig(step=0.1)
        out = step(circle_field(), Point2(1.0, 0.0), MINUS_Y, cfg)
        assert abs(out.y + 0.1) < 1e-15
        assert abs(out.x - math.sqrt(0.99)) < 1e-9

    def test_bracket_widens_with_the_predicted_change(self):
        # one stop below the fold at (0, 1): the root x=0 lies 0.141 from the
        # current point, beyond the ten-step floor of 0.1, but the secant
        # through the previous point predicts a change of 0.058
        cfg = TraceConfig(step=0.01)
        current = Point2(math.sqrt(1.0 - 0.99 ** 2), 0.99)
        previous = Point2(math.sqrt(1.0 - 0.98 ** 2), 0.98)
        out = step(circle_field(), current, PLUS_Y, cfg, previous=previous)
        assert isinstance(out, Point2)
        assert out.y == 1.0 and abs(out.x) < 1e-5
        # without history only the floor applies
        assert isinstance(step(circle_field(), current, PLUS_Y, cfg), Stalled)


def _circle_point(x):
    return Point2(x, math.sqrt(1.0 - x * x))


class TestSecantPredictor:
    """`step` starts the slice solve at the secant through `previous` and `current`."""

    @staticmethod
    def _counted_step(current, previous):
        calls = []
        field = circle_field()

        def counting(x, y):
            calls.append((x, y))
            return field(x, y)

        out = step(counting, current, PLUS_X, TraceConfig(step=0.05), previous=previous)
        return out, calls

    def test_first_evaluation_at_the_extrapolated_ordinate(self):
        previous, current = _circle_point(0.1), _circle_point(0.15)
        out, calls = self._counted_step(current, previous)
        target = 0.15 + 0.05
        slope = (current.y - previous.y) / (current.x - previous.x)
        assert calls[0] == (target, current.y + slope * (target - current.x))
        assert abs(out.y - math.sqrt(1.0 - target * target)) < 1e-9
        _, plain_calls = self._counted_step(current, None)
        assert plain_calls[0] == (target, current.y)

    def test_predictor_saves_evaluations_over_a_trace(self, monkeypatch):
        # One slice near the top of the circle is too flat to show a saving
        # once the solver takes a secant step after a tenfold Newton step
        # (5 evaluations either way); over a whole astroid trace, with its
        # steep flanks, the predictor still saves about a third.
        import foldtrace.astroid as astroid_mod

        field = astroid_field()
        real_step = tracer_mod.step

        def evaluations(predict):
            calls = []

            def counting(x, y):
                calls.append((x, y))
                return field(x, y)

            def stepping(residual, current, direction, cfg, anchor=None, previous=None):
                return real_step(residual, current, direction, cfg, anchor=anchor,
                                 previous=previous if predict else None)

            monkeypatch.setattr(tracer_mod, "step", stepping)
            monkeypatch.setattr(astroid_mod, "astroid_field", lambda: counting)
            path = astroid_mod.trace_astroid(0.01)
            assert (len(path), len(path.events), path.termination) == (403, 2, Termination.CLOSED)
            return len(calls)

        assert evaluations(predict=True) < evaluations(predict=False)

    @pytest.mark.parametrize("previous", [
        Point2(0.2, 0.5),  # same driven coordinate: no secant
        Point2(math.nextafter(0.2, 0.0), -1e300),  # slope overflows to inf
        Point2(0.1, -1.7e308),  # so does a huge transverse difference over 0.1
    ])
    def test_undefined_or_nonfinite_secant_starts_at_t0(self, previous):
        current = _circle_point(0.2)
        out, calls = self._counted_step(current, previous)
        plain, plain_calls = self._counted_step(current, None)
        assert calls[0] == (0.2 + 0.05, current.y)
        assert out == plain and calls == plain_calls

    def test_no_predictor_across_a_restart(self, monkeypatch):
        seen = []
        real_step = tracer_mod.step

        def recording_step(residual, current, direction, cfg, anchor=None, previous=None):
            seen.append((current, previous))
            return real_step(residual, current, direction, cfg, anchor=anchor, previous=previous)

        monkeypatch.setattr(tracer_mod, "step", recording_step)
        path = trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05))
        assert len(path.events) == 4
        index = {p: i for i, p in enumerate(path.points)}
        from_restart = predicted = 0
        for current, previous in seen:
            i = index[current]
            if i == 0 or path.flags[i] == FLAG_RESTART:
                assert previous is None
                from_restart += i > 0
            else:
                assert path.flags[i] in (FLAG_ORDINARY, FLAG_TURNING)
                assert previous == path.points[i - 1]
                predicted += 1
        assert from_restart >= 3  # the last restart closes the curve
        assert predicted > 0.9 * len(seen)


class TestClassify:
    @pytest.mark.parametrize("direction,expected", [
        (PLUS_X, TurningPointKind.TYPE1),
        (PLUS_Y, TurningPointKind.TYPE2),
        (MINUS_X, TurningPointKind.TYPE3),
        (MINUS_Y, TurningPointKind.TYPE4),
    ])
    def test_blocked_direction_mapping(self, direction, expected):
        assert TurningPointKind.from_blocked(direction) is expected

    def test_round_trip(self):
        for direction in (PLUS_X, PLUS_Y, MINUS_X, MINUS_Y):
            assert TurningPointKind.from_blocked(direction).blocked == direction


@pytest.fixture(scope="module")
def circle_path():
    return trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05))


@pytest.fixture(scope="module")
def astroid_path():
    cfg = TraceConfig(step=0.01, radius=0.01, mesh_count=8, reference_lag=5,
                      residual_tol=1e-10, max_points=1200)
    return trace(astroid_field(), Point2(0.0, 1.0), PLUS_X, cfg)


_coord = st.floats(-10.0, 10.0, allow_nan=False)


class TestClosureReach:
    """The constant-time pre-test `trace` runs before `_closed`."""

    @given(opening=st.tuples(_coord, _coord, _coord, _coord, _coord, _coord),
           tol=st.floats(1e-9, 1.0), s=st.floats(0.0, 2.0), radius=st.floats(0.0, 3.0),
           angle=st.floats(0.0, 2.0 * math.pi), far=st.tuples(_coord, _coord))
    def test_skipped_points_never_close(self, opening, tol, s, radius, angle, far):
        path = SolutionPath()
        p0, p1, p2 = (Point2(*opening[i:i + 2]) for i in (0, 2, 4))
        for p in (p0, p1, p2):
            path.points.append(p)
        reach = _closure_reach(path, tol)
        # probes near the opening polyline, at up to three tolerances from
        # a point on it, and one anywhere
        a, b, u = (p0, p1, s) if s <= 1.0 else (p1, p2, s - 1.0)
        on = Point2(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))
        near = Point2(on.x + radius * tol * math.cos(angle), on.y + radius * tol * math.sin(angle))
        for probe in (near, Point2(*far), p0, on):
            dx, dy = probe.x - p1.x, probe.y - p1.y
            if dx * dx + dy * dy > reach ** 2:
                assert not _closed(path, probe, tol)


def _winding(points):
    """Turns of the closed polyline through `points` around the origin."""
    theta = [math.atan2(p.y, p.x) for p in points + points[:1]]
    return sum(math.remainder(b - a, 2.0 * math.pi) for a, b in zip(theta, theta[1:])) / (2.0 * math.pi)


_RETRACES = pytest.mark.xfail(
    strict=True, reason="open defect: a fold off the lattice reverses the trace, which retraces")


class TestTraceCircle:

    def test_closes(self, circle_path):
        assert circle_path.termination is Termination.CLOSED

    def test_four_turning_events(self, circle_path):
        assert len(circle_path.events) == 4
        kinds = [e.kind for e in circle_path.events]
        assert kinds == [TurningPointKind.TYPE4, TurningPointKind.TYPE3,
                         TurningPointKind.TYPE2, TurningPointKind.TYPE1]

    def test_every_point_on_curve(self, circle_path):
        field = circle_field()
        for p in circle_path.points:
            assert abs(field(p.x, p.y)) <= 1e-10

    def test_point_count_reflects_axis_marching(self, circle_path):
        # four quarter-arcs of unit axial extent: about 4/step points
        expected = 4.0 / 0.05
        assert 0.9 * expected <= len(circle_path) <= 1.15 * expected

    def test_flags_consistent(self, circle_path):
        assert circle_path.flags[0] == "ordinary"
        turning = [i for i, f in enumerate(circle_path.flags) if f == FLAG_TURNING]
        restarts = [i for i, f in enumerate(circle_path.flags) if f == FLAG_RESTART]
        assert len(turning) == 4 and len(restarts) == 4
        for e in circle_path.events:
            assert circle_path.flags[e.index] == FLAG_TURNING
            assert circle_path.flags[e.restart_index] == FLAG_RESTART
            assert e.restart_index == e.index + 1

    def test_consecutive_points_distinct(self, circle_path):
        for a, b in zip(circle_path.points, circle_path.points[1:]):
            assert a.distance_to(b) > 0.0

    @pytest.mark.parametrize("step_size", [0.05, 0.02, 0.01, 0.005])
    def test_closes_from_an_axis_start_at_integral_step_counts(self, step_size):
        # 1/step is an integer and the start lies on an axis, so every fold
        # falls on the lattice; within a budget of three laps the trace
        # should close after the four folds
        cfg = TraceConfig(step=step_size, max_points=int(3.0 * 2.0 * math.pi / step_size))
        path = trace(circle_field(), Point2(1.0, 0.0), PLUS_Y, cfg)
        assert path.termination is Termination.CLOSED
        assert len(path.events) == 4

    @pytest.mark.parametrize("step_size, angle", [
        pytest.param(s, a, marks=() if (s, a) in {(0.05, 0.0), (0.04, 0.0)} else _RETRACES)
        for s in (0.05, 0.04, 0.03, 0.07, 0.013, 0.0123) for a in (0.0, 0.3)
    ])
    def test_closes_once_around(self, step_size, angle):
        start = Point2(math.cos(angle), math.sin(angle))
        cfg = TraceConfig(step=step_size, max_points=int(3.0 * 2.0 * math.pi / step_size))
        path = trace(circle_field(), start, PLUS_Y, cfg)
        assert path.termination is Termination.CLOSED
        assert len(path.events) == 4
        assert abs(abs(_winding(path.points)) - 1.0) < 1e-9


class TestTraceMisc:
    def test_straight_line_leaves_box(self):
        path = trace(lambda x, y: y - x, Point2(0.0, 0.0), PLUS_X,
                     TraceConfig(step=0.01, domain=Box(0.0, 1.0, 0.0, 1.0)))
        assert path.termination is Termination.LEFT_DOMAIN
        assert len(path.events) == 0
        assert all(abs(p.x - p.y) < 1e-10 for p in path.points)

    def test_first_step_out_of_the_domain_raises(self):
        # the start sits on the box's corner and the first step leaves the
        # box: `left domain` would report success for a path never traced
        start = Point2(1.0, 1.0)
        with pytest.raises(TraceError, match="first step.*leaves the domain") as info:
            trace(lambda x, y: y - x, start, PLUS_X,
                  TraceConfig(step=0.01, domain=Box(0.0, 1.0, 0.0, 1.0)))
        assert info.value.path.points == [start]

    def test_restart_outside_the_domain_ends_left_domain(self):
        # the scan at the circle's east fold picks an exit above the box's
        # top edge: the path ends at the turning point, which gets no event
        box = Box(-2.0, 2.0, -2.0, -0.01)
        path = trace(circle_field(), Point2(0.0, -1.0), PLUS_X,
                     TraceConfig(step=0.03, radius=0.3, domain=box))
        assert path.termination is Termination.LEFT_DOMAIN
        assert len(path) == 34
        assert all(box.contains(p) for p in path.points)
        assert path.flags[-1] == FLAG_TURNING and FLAG_RESTART not in path.flags
        assert path.events == []

    def test_off_curve_start_rejected(self):
        with pytest.raises(ValueError):
            trace(circle_field(), Point2(2.0, 0.0), PLUS_X, TraceConfig(step=0.1))

    def test_start_outside_the_domain_is_rejected(self):
        # tracing would stop at once and report `left domain`, a success
        # for a path it never traced; the straight line above starts on the
        # box's edge, which counts as inside
        calls = []

        def field(x, y):
            calls.append((x, y))
            return circle_field()(x, y)

        with pytest.raises(ValueError, match="outside the domain"):
            trace(field, Point2(1.0, 0.0), PLUS_Y,
                  TraceConfig(step=0.1, domain=Box(2.0, 3.0, 2.0, 3.0)))
        assert calls == []

    def test_field_failure_at_start(self):
        def field(x, y):
            raise FieldEvaluationError("nope")

        with pytest.raises(TraceError):
            trace(field, Point2(0.0, 0.0), PLUS_X, TraceConfig(step=0.1))

    def test_max_points_cap(self):
        path = trace(lambda x, y: y - x, Point2(0.0, 0.0), PLUS_X,
                     TraceConfig(step=0.01, max_points=17))
        assert path.termination is Termination.MAX_POINTS
        assert len(path) == 17

    def test_empty_scan_terminates(self):
        # a 3-point mesh straddles the thin strip between the astroid's
        # branches at the cusp without sampling inside it, so the scan comes
        # back empty and the trace stops instead of guessing
        cfg = TraceConfig(step=0.01, radius=0.01, mesh_count=3, max_points=400)
        path = trace(astroid_field(), Point2(0.0, 1.0), PLUS_X, cfg)
        assert path.termination is Termination.TERMINATED
        assert len(path.events) == 0
        assert path.flags.count(FLAG_TURNING) == 1

    def test_polish_transverse(self):
        p = polish_transverse(circle_field(), Point2(0.6, 0.9), PLUS_X)
        assert abs(circle_field()(p.x, p.y)) <= 1e-10
        assert p.x == 0.6


class TestTraceAstroid:

    def test_stall_at_first_point_raises(self):
        # the start cusp stalls the first slice solve at delta=0.002, and a
        # one-point path has no history to choose an exit from
        with pytest.raises(TraceError, match="first path point") as info:
            trace_astroid(0.002)
        assert len(info.value.path) == 1
        assert info.value.path.flags == [FLAG_TURNING]

    def test_first_point_stall_scans_nothing(self, monkeypatch):
        # a one-point path has no exit to choose, so no boundary scan runs
        calls = []
        stalls = []  # evaluations made when each slice solve stalled
        real_step = tracer_mod.step

        def field(x, y):
            calls.append((x, y))
            return astroid_field()(x, y)

        def spying(*args, **kwargs):
            outcome = real_step(*args, **kwargs)
            if isinstance(outcome, Stalled):
                stalls.append(len(calls))
            return outcome

        monkeypatch.setattr(tracer_mod, "step", spying)
        with pytest.raises(TraceError, match="first path point") as info:
            trace(field, Point2(0.0, 1.0), PLUS_X, TraceConfig(step=0.002))
        assert stalls == [len(calls)]
        assert info.value.path.flags == [FLAG_TURNING]

    def test_closes_through_cusps(self, astroid_path):
        assert astroid_path.termination is Termination.CLOSED
        cusps = [Point2(1, 0), Point2(0, -1), Point2(-1, 0), Point2(0, 1)]
        for cusp in cusps:
            assert min(p.distance_to(cusp) for p in astroid_path.points) < 0.1

    def test_axis_blocked_events_only(self, astroid_path):
        # marching +x stalls at (1, 0), then -x stalls at (-1, 0); the
        # (0, +-1) cusps are crossed smoothly by the x-drive
        kinds = [e.kind for e in astroid_path.events]
        assert kinds == [TurningPointKind.TYPE1, TurningPointKind.TYPE3]

    def test_on_curve_everywhere(self, astroid_path):
        field = astroid_field()
        assert max(abs(field(p.x, p.y)) for p in astroid_path.points) <= 1e-10


class TestTraceEllipse:
    def test_closes_with_four_events(self):
        # non-unit curvature through a user formula: x^2/4 + y^2 = 1. Near
        # the flat co-vertices the transverse change reaches ~0.63 per step,
        # past a ten-step bracket (0.5); the bracket derived from the predicted
        # change covers it, so no turning point fires mid-quadrant.
        from foldtrace.expressions import expression_field
        field = expression_field("x*x/4 + y*y - 1")
        cfg = TraceConfig(step=0.05, max_points=2000)
        path = trace(field, Point2(2.0, 0.0), MINUS_Y, cfg)
        assert path.termination is Termination.CLOSED
        assert len(path.events) == 4
        assert max(abs(field(p.x, p.y)) for p in path.points) <= 1e-10
        # genuinely went around: both ends of the major axis visited
        assert min(p.distance_to(Point2(-2.0, 0.0)) for p in path.points) < 0.1
        assert min(p.distance_to(Point2(2.0, 0.0)) for p in path.points) < 0.1


class TestRetraceGuard:
    """A simple closed curve bounds area; a path that walked back along itself does not."""

    def test_reversed_ellipse_is_not_closed(self):
        # the fold at (0, -1) falls off the lattice, the trace reverses there
        # and walks back onto its opening segments
        from foldtrace.expressions import expression_field
        path = trace(expression_field("x^2/4+y^2-1"), Point2(2.0, 0.0), MINUS_Y,
                     TraceConfig(step=0.07))
        assert path.termination is Termination.RETRACED
        assert (len(path), len(path.events)) == (38, 1)
        assert round(_winding(path.points)) == 0

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    @pytest.mark.parametrize("step_size", [0.05, 0.04, 0.03, 0.07, 0.013, 0.0123])
    def test_circle_closed_implies_winding_one(self, step_size, angle):
        start = Point2(math.cos(angle), math.sin(angle))
        cfg = TraceConfig(step=step_size, max_points=int(3.0 * 2.0 * math.pi / step_size))
        path = trace(circle_field(), start, PLUS_Y, cfg)
        if path.termination is Termination.CLOSED:
            assert abs(abs(_winding(path.points)) - 1.0) < 1e-9

    def test_retrace_between_two_reversals_is_not_closed(self):
        # The trace reverses at a fold, passes the start, reverses at the
        # other fold and walks back onto its opening points: 17 points on
        # one arc. Its passes lie on different lattices, so the sliver
        # between them bounds |A| = 1.2e-3 L^2, above the old 1e-3 L^2
        # cut, but its mean width 2|A|/L is under a tenth of the step.
        c, s = math.cos(2.5), math.sin(2.5)

        def field(x, y):
            u, v = c * x + s * y, c * y - s * x
            return u * u + (1.5 * v) ** 2 - 1.0

        path = trace(field, Point2(c, s), MINUS_X, TraceConfig(step=0.05078125))
        assert (len(path), len(path.events)) == (17, 2)
        assert round(_winding(path.points)) == 0
        assert path.termination is Termination.RETRACED

    @settings(max_examples=100)
    @given(
        aspect=st.floats(1.0, 4.0),
        tilt=st.floats(0.0, math.pi),
        start_angle=st.floats(0.0, 2.0 * math.pi),
        step_size=st.floats(0.02, 0.08),
        direction=st.sampled_from([PLUS_X, MINUS_X, PLUS_Y, MINUS_Y]),
    )
    def test_rotated_ellipse_closed_implies_winding_one(self, aspect, tilt, start_angle,
                                                         step_size, direction):
        # Folds of a tilted ellipse fall off the marching lattice, so a trace
        # may reverse, retrace or run out of points; whatever it does, it
        # reports `closed` only if it went round the curve once.
        a, b = 1.0, 1.0 / aspect
        c, s = math.cos(tilt), math.sin(tilt)

        def field(x, y):
            u, v = c * x + s * y, c * y - s * x
            return (u / a) ** 2 + (v / b) ** 2 - 1.0

        u, v = a * math.cos(start_angle), b * math.sin(start_angle)
        start = Point2(c * u - s * v, s * u + c * v)
        perimeter = math.pi * (3.0 * (a + b) - math.sqrt((3.0 * a + b) * (a + 3.0 * b)))
        cfg = TraceConfig(step=step_size, max_points=int(3.0 * perimeter / step_size))
        try:
            path = trace(field, start, direction, cfg)
        except TraceError:
            return  # a stall at the first point claims nothing
        if path.termination is Termination.CLOSED:
            assert abs(abs(_winding(path.points)) - 1.0) < 1e-9

    def test_genuine_closures_stay_closed(self, circle_path, astroid_path):
        for path in (circle_path, astroid_path):
            assert path.termination is Termination.CLOSED
            assert abs(abs(_winding(path.points)) - 1.0) < 1e-9


def _recording(field):
    """Wrap a field so every point it is evaluated at is kept."""
    seen = set()

    def f(x, y):
        seen.add((x, y))
        return field(x, y)

    return f, seen


class TestAcceptedPointsWereEvaluated:
    """Every accepted point is a point the field was evaluated at, bit for bit.

    Slice roots, mesh hits, the arc-end probe, arc-bisection points and the
    start are all used exactly as evaluated. The lubrication diagram relies
    on this to read each point's converged state back instead of re-solving.
    """

    def _assert_all_seen(self, path, seen):
        missing = [p for p in path.points if (p.x, p.y) not in seen]
        assert not missing

    def test_circle(self):
        f, seen = _recording(circle_field())
        path = trace(f, Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05))
        assert len(path.events) == 4
        self._assert_all_seen(path, seen)

    def test_astroid(self, monkeypatch):
        import foldtrace.astroid as astroid_mod

        f, seen = _recording(astroid_field())
        monkeypatch.setattr(astroid_mod, "astroid_field", lambda: f)
        path = astroid_mod.trace_astroid(0.01)
        assert len(path.points) == 403 and len(path.events) == 2
        self._assert_all_seen(path, seen)

    def test_expression_ellipse(self):
        from foldtrace.expressions import expression_field

        f, seen = _recording(expression_field("x*x/4 + y*y - 1"))
        cfg = TraceConfig(step=0.05, max_points=2000)
        path = trace(f, Point2(2.0, 0.0), MINUS_Y, cfg)
        assert len(path.events) == 4
        self._assert_all_seen(path, seen)

    def test_lubrication_diagram(self, monkeypatch):
        import foldtrace.tracer as tracer_mod
        from foldtrace.lubrication import trace_bifurcation

        real_trace = tracer_mod.trace
        recorded = []

        def recording_trace(field, *args, **kwargs):
            f, seen = _recording(field)
            recorded.append(seen)
            return real_trace(f, *args, **kwargs)

        # trace_bifurcation imports trace from the tracer module per call
        monkeypatch.setattr(tracer_mod, "trace", recording_trace)
        path, _states, _field = trace_bifurcation(epsilon=0.1, m=32, step_q=0.002,
                                                  step_m=0.05, max_points=40, min_mass=3.0)
        assert len(path.events) >= 1
        self._assert_all_seen(path, recorded[0])


class TestEvaluationBudget:
    def test_default_astroid_trace(self, monkeypatch):
        # The count is deterministic, so it is the regression signal for
        # the slice solver's cost: 1,796 evaluations (4.5 per point) with
        # secant steps and the multiplicity step at the two cusp tips on the
        # lattice, 2,280 without them, 3,245 also without the secant
        # predictor, and 8,960 with a bisection finish and Newton wandering
        # on rootless slices.
        import foldtrace.astroid as astroid_mod

        field = astroid_field()
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return field(x, y)

        monkeypatch.setattr(astroid_mod, "astroid_field", lambda: counting)
        path = astroid_mod.trace_astroid(0.01)
        assert len(path.points) == 403 and len(path.events) == 2
        assert path.termination is Termination.CLOSED
        assert len(calls) <= 1900


class TestSolutionPath:
    def test_append_rejects_duplicate(self):
        path = SolutionPath()
        path.append(Point2(0, 0))
        with pytest.raises(ValueError):
            path.append(Point2(0, 0))

    def test_direction_parse(self):
        assert StepDirection.parse("+x") == PLUS_X
        assert StepDirection.parse("-Y") == MINUS_Y
        assert StepDirection.parse("y") == PLUS_Y
        with pytest.raises(ValueError):
            StepDirection.parse("north")
