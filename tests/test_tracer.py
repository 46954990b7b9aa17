import math

import pytest

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
from foldtrace.tracer import (
    FLAG_RESTART,
    FLAG_TURNING,
    SolutionPath,
    Stalled,
    Termination,
    TraceConfig,
    polish_transverse,
    step,
    trace,
)
from foldtrace.turnpoint import ScanConfig


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
    cfg = TraceConfig(step=0.01, scan=ScanConfig(radius=0.01, mesh_count=8,
                                                 reference_lag=5, residual_tol=1e-10),
                      max_points=1200)
    return trace(astroid_field(), Point2(0.0, 1.0), PLUS_X, cfg)


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


class TestTraceMisc:
    def test_straight_line_leaves_box(self):
        path = trace(lambda x, y: y - x, Point2(0.0, 0.0), PLUS_X,
                     TraceConfig(step=0.01, domain=Box(0.0, 1.0, 0.0, 1.0)))
        assert path.termination is Termination.LEFT_DOMAIN
        assert len(path.events) == 0
        assert all(abs(p.x - p.y) < 1e-10 for p in path.points)

    def test_off_curve_start_rejected(self):
        with pytest.raises(ValueError):
            trace(circle_field(), Point2(2.0, 0.0), PLUS_X, TraceConfig(step=0.1))

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
        cfg = TraceConfig(step=0.01, scan=ScanConfig(radius=0.01, mesh_count=3),
                          max_points=400)
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
        # non-unit curvature through a user formula: x^2/4 + y^2 = 1. The
        # slice bracket must cover the transverse jump near the flat
        # co-vertices (~0.63 per step here); the 10-step default would fire
        # a bracket-exit turning point mid-quadrant and bounce the trace.
        from foldtrace.expressions import expression_field
        field = expression_field("x*x/4 + y*y - 1")
        cfg = TraceConfig(step=0.05, max_points=2000, slice_bracket=1.2)
        path = trace(field, Point2(2.0, 0.0), MINUS_Y, cfg)
        assert path.termination is Termination.CLOSED
        assert len(path.events) == 4
        assert max(abs(field(p.x, p.y)) for p in path.points) <= 1e-10
        # genuinely went around: both ends of the major axis visited
        assert min(p.distance_to(Point2(-2.0, 0.0)) for p in path.points) < 0.1
        assert min(p.distance_to(Point2(2.0, 0.0)) for p in path.points) < 0.1


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
        cfg = TraceConfig(step=0.05, max_points=2000, slice_bracket=1.2)
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
