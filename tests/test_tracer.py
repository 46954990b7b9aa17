import dataclasses
import hashlib
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldtrace.astroid import astroid_field, navigated_all_cusps, trace_astroid
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
    polish_transverse,
    step,
    trace,
)
from foldtrace.turnpoint import new_direction


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
        # the path is the cycle, marched from its first point on by the last
        # steps seen, bar those the memo replays from the march into it. The
        # folds lie on lattice stops, so each stall point is the fold and no
        # fold is added: every point but the closing one is a step's current
        first = next(n for n, (current, _) in enumerate(seen) if current == path.points[0])
        position = {p: i for i, p in enumerate(path.points[:-1])}
        seen = [(position[current], previous) for current, previous in seen[first:]]
        from_restart = predicted = 0
        for i, previous in seen:
            if path.flags[i] == FLAG_RESTART:
                assert previous is None
                from_restart += 1
            else:
                assert path.flags[i] in (FLAG_ORDINARY, FLAG_TURNING)
                # the point before the cycle's first is its second-last
                assert previous == path.points[i - 1 if i else -2]
                predicted += 1
        assert from_restart == 4
        assert predicted > 0.9 * len(seen)


class TestClassify:
    @pytest.mark.parametrize("direction,expected", [
        (PLUS_X, TurningPointKind.TYPE1),
        (PLUS_Y, TurningPointKind.TYPE2),
        (MINUS_X, TurningPointKind.TYPE3),
        (MINUS_Y, TurningPointKind.TYPE4),
    ])
    def test_blocked_direction_mapping(self, direction, expected):
        assert TurningPointKind(direction) is expected
        assert expected.value == direction

    def test_round_trip(self):
        for kind in TurningPointKind:
            assert TurningPointKind(kind.value) is kind

    def test_a_value_that_is_no_direction_raises(self):
        with pytest.raises(ValueError):
            TurningPointKind(1)


@pytest.fixture(scope="module")
def circle_path():
    return trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05))


@pytest.fixture(scope="module")
def astroid_path():
    cfg = TraceConfig(step=0.01, radius=0.01, mesh_count=8, reference_lag=5,
                      residual_tol=1e-10, max_points=1200)
    return trace(astroid_field(), Point2(0.0, 1.0), PLUS_X, cfg)


def _winding(points):
    """Turns of the closed polyline through `points` around the origin."""
    theta = [math.atan2(p.y, p.x) for p in points + points[:1]]
    return sum(math.remainder(b - a, 2.0 * math.pi) for a, b in zip(theta, theta[1:])) / (2.0 * math.pi)


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
            assert circle_path.flags[e.index + 1] == FLAG_RESTART

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

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    @pytest.mark.parametrize("step_size", [0.05, 0.04, 0.03, 0.07, 0.013, 0.0123])
    def test_closes_once_around(self, step_size, angle):
        # a fold off the lattice is located before its scan; on a lattice stop
        # the stall point is the fold
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

    def test_unresolved_scan_raises_with_the_partial_path(self, monkeypatch):
        # tol 1e-17 lies below the circle's rounding floor: the slice solve
        # at y=0.35 stalls mid-arc, where no fold lies ahead, and the scan's
        # one sign change ends in an exhausted bracket. An empty candidate set
        # after a sign change it could not resolve proves no curve end, so the
        # trace fails.
        scans = []
        real_scan = tracer_mod.scan_boundary

        def spying(*args, **kwargs):
            scans.append(real_scan(*args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(tracer_mod, "scan_boundary", spying)
        cfg = TraceConfig(step=0.09, residual_tol=1e-17)
        with pytest.raises(TraceError, match="sign change") as info:
            trace(circle_field(), Point2(0.6, 0.8), MINUS_Y, cfg)
        assert len(info.value.path.points) == 5
        assert info.value.path.flags == [FLAG_ORDINARY] * 4 + [FLAG_TURNING]
        assert [len(s) for s in scans] == [0] and scans[0].unresolved_mesh_indices == [5]

    def test_one_slice_solve_per_step(self, monkeypatch):
        # trace looks `step` up, and `step` looks `solve_scalar` up, as
        # globals of the tracer module at call time: the benchmark's
        # per-layer spans wrap them there. Locating the fold past the stall
        # solves outside `step`, right after the stalled one: three times here,
        # before the refits settle within 1e-3 radius of the stall point.
        calls, inside = [], []
        real_step, real_solve = tracer_mod.step, tracer_mod.solve_scalar

        def counting_step(*args, **kwargs):
            calls.append("S")
            inside.append(True)
            try:
                return real_step(*args, **kwargs)
            finally:
                inside.pop()

        def counting_solve(*args, **kwargs):
            calls.append("s" if inside else "r")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(tracer_mod, "step", counting_step)
        monkeypatch.setattr(tracer_mod, "solve_scalar", counting_solve)
        path = trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05, max_points=30))
        assert len(path.events) == 1  # the march stalls and scans once on the way
        assert re.fullmatch(r"(Ss)+r{3}(Ss)+", "".join(calls))

    def test_scan_radius_below_the_coordinates_resolution_raises(self):
        # exp(x) reaches 8.2e307 at x = 709, where 8.2e307 + 1 == 8.2e307: the
        # arc sample at phi = 0 is the turning point itself and wins the scan
        from foldtrace.expressions import expression_field

        with pytest.raises(TraceError, match=r"stalled at point 709 .* scan radius 1 is below "
                                             r"the coordinates' resolution") as info:
            trace(expression_field("exp(x)-y"), Point2(0.0, 1.0), PLUS_X,
                  TraceConfig(step=1.0, max_points=100000))
        path = info.value.path
        assert len(path) == 710 and path.flags[-1] == FLAG_TURNING
        assert path.points[-1] == Point2(709.0, math.exp(709.0))

    def test_march_step_below_the_coordinates_resolution_raises(self):
        # 1e16 + 0.5 rounds back to 1e16: the first lattice stop is the start itself
        with pytest.raises(TraceError, match=r"step 0\.5 from point 0 is below the coordinates' "
                                             r"resolution at Point2\(x=1e\+16") as info:
            trace(lambda x, y: y, Point2(1e16, 0.0), PLUS_X, TraceConfig(step=0.5))
        path = info.value.path
        assert path.points == [Point2(1e16, 0.0)] and path.flags == [FLAG_ORDINARY]

    def test_polish_transverse(self):
        p = polish_transverse(circle_field(), Point2(0.6, 0.9), PLUS_X)
        assert abs(circle_field()(p.x, p.y)) <= 1e-10
        assert p.x == 0.6


def _hex(path):
    return [(p.x.hex(), p.y.hex()) for p in path.points], path.flags, path.events, path.termination


class TestStepMemo:
    """`trace` solves each distinct march step once and replays it after."""

    def test_replayed_steps_reproduce_the_path(self):
        # the flat folds of zoo curve 5, a superellipse, defeat the parabola:
        # the trace bounces between two reversals until its state repeats
        field, start, direction, cfg = _cycle_case("zoo superellipse")
        path = trace(field, start, direction, cfg)
        points = path.points
        assert path.termination is Termination.RETRACED and len(path.events) == 2

        events = {e.index: e for e in path.events}
        restarts = {e.index + 1: e for e in path.events}
        i = 0
        while i < len(points) - 1:
            current = points[i]
            if i in restarts:
                turning = points[restarts[i].index]
                direction = new_direction(turning, current, incoming=direction)
            previous = None if i == 0 or i in restarts else points[i - 1]
            outcome = step(field, current, direction, cfg, anchor=start, previous=previous)
            if isinstance(outcome, Stalled):
                # the turning point is the stall point, or the fold located past it
                event = events[i] if i in events else events[i + 1]
                assert outcome == Stalled(event.reason)
                assert abs(field(*points[event.index])) <= cfg.residual_tol
                i = event.index + 1
                continue
            assert i + 1 not in restarts and i + 1 not in events
            assert (outcome.x.hex(), outcome.y.hex()) == (points[i + 1].x.hex(),
                                                          points[i + 1].y.hex())
            i += 1

    @pytest.mark.parametrize("other", [dict(step=0.04), dict(step=0.05, step_y=0.04),
                                       dict(step=0.05, residual_tol=1e-13), None])
    def test_shared_memo_keeps_starts_and_settings_apart(self, other):
        # the second trace's first step has the inputs (start, None, direction)
        # of a step the first trace memoised: the same start at `other`
        # settings, or (None) the first trace's restart point as a start,
        # whose lattice is anchored elsewhere
        memo, start, cfg = {}, Point2(1.0, 0.0), TraceConfig(step=0.05)
        first = trace(circle_field(), start, MINUS_Y, cfg, memo=memo)
        direction = MINUS_Y
        if other is None:
            event = first.events[0]
            turning, start = first.points[event.index], first.points[event.index + 1]
            direction = new_direction(turning, start, incoming=MINUS_Y)
        else:
            cfg = TraceConfig(**other)
        shared = trace(circle_field(), start, direction, cfg, memo=memo)
        assert _hex(shared) == _hex(trace(circle_field(), start, direction, cfg))

    @pytest.mark.parametrize("case", ["circle", "zoo superellipse"])
    def test_a_retrace_through_a_shared_memo_proves_its_own_repeat(self, case, monkeypatch):
        # the second trace answers every step from the first trace's entries,
        # yet stops at the same closing or retracing cut: an entry another
        # trace met last proves no repeat, and the second trace's own meetings do
        field, start, direction, cfg = _cycle_case(case)
        memo = {}
        first = trace(field, start, direction, cfg, memo=memo)
        assert first.termination is (Termination.CLOSED if case == "circle"
                                     else Termination.RETRACED)
        solved = []
        monkeypatch.setattr(tracer_mod, "step", lambda *args, **kwargs: solved.append(args))
        second = trace(field, start, direction, cfg, memo=memo)
        assert solved == []
        assert _hex(second) == _hex(first)

    @staticmethod
    def _counting_scans(monkeypatch):
        scans = []
        real = tracer_mod.scan_boundary

        def counting(*args, **kwargs):
            scans.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(tracer_mod, "scan_boundary", counting)
        return scans

    def test_a_shared_memo_replays_the_scans(self, monkeypatch):
        # the second trace meets the same turning points with the same scan
        # settings, so it takes every scan's candidates from the table
        scans = self._counting_scans(monkeypatch)
        memo = {}
        first = trace_astroid(0.01, memo=memo)
        assert len(scans) >= len(first.events) == 2
        del scans[:]
        second = trace_astroid(0.01, memo=memo)
        assert scans == []
        assert _hex(second) == _hex(first)

    @pytest.mark.parametrize("other", [dict(r_factor=2.0), dict(n=10)])
    def test_another_radius_or_mesh_count_scans_again(self, other, monkeypatch):
        # a scan's result depends on its radius and mesh count: a trace that
        # differs in either scans every turning point itself, as it would alone
        scans = self._counting_scans(monkeypatch)
        memo = {}
        trace_astroid(0.01, memo=memo)
        del scans[:]
        shared = trace_astroid(0.01, memo=memo, **other)
        shared_scans = list(scans)
        del scans[:]
        alone = trace_astroid(0.01, **other)
        assert shared_scans == scans and len(scans) >= 2
        assert _hex(shared) == _hex(alone)

    def test_shared_memo_keeps_the_sign_of_zero(self):
        # on the line y = 0 the slice solve returns its start as the root, so
        # a zero's sign reaches the next point; a Point2 key equates the two
        memo, cfg = {}, TraceConfig(step=0.25, max_points=5)
        fresh = [trace(lambda x, y: y, Point2(0.0, y0), PLUS_X, cfg) for y0 in (0.0, -0.0)]
        assert _hex(fresh[0]) != _hex(fresh[1])
        for y0, expected in zip((0.0, -0.0), fresh):
            assert _hex(trace(lambda x, y: y, Point2(0.0, y0), PLUS_X, cfg, memo=memo)) \
                == _hex(expected)


def _isolated_zero(x, y):
    # zero only at (0, 1): every slice x != 0 is rootless, at any bracket width
    return x * x + (y - 1.0) ** 2


class TestTraceAstroid:

    def test_stall_at_first_point_raises(self):
        # the first slice solve stalls at every bracket width, and a one-point
        # path has no history to choose an exit from
        with pytest.raises(TraceError, match="first path point") as info:
            trace(_isolated_zero, Point2(0.0, 1.0), PLUS_X, TraceConfig(step=0.002))
        assert len(info.value.path) == 1
        assert info.value.path.flags == [FLAG_TURNING]

    def test_first_point_stall_scans_nothing(self, monkeypatch):
        # a first step that stalls is retried with its bracket floor widened
        # 4x, up to three times; a one-point path has no exit to choose, so no
        # boundary scan runs after the last retry stalls
        calls = []
        stalls = []  # (bracket floor, evaluations made) of each stalled slice solve
        real_step = tracer_mod.step

        def field(x, y):
            calls.append((x, y))
            return _isolated_zero(x, y)

        def spying(*args, **kwargs):
            outcome = real_step(*args, **kwargs)
            if isinstance(outcome, Stalled):
                stalls.append((kwargs.get("floor", 10.0), len(calls)))
            return outcome

        monkeypatch.setattr(tracer_mod, "step", spying)
        with pytest.raises(TraceError, match="first path point") as info:
            trace(field, Point2(0.0, 1.0), PLUS_X, TraceConfig(step=0.002))
        assert [floor for floor, _ in stalls] == [10.0, 40.0, 160.0, 640.0]
        assert stalls[-1][1] == len(calls)
        assert info.value.path.flags == [FLAG_TURNING]

    @pytest.mark.parametrize("delta", [0.003, 0.001])
    def test_first_step_widens_its_bracket_and_keeps_its_branch(self, delta, monkeypatch):
        # from the cusp (0, 1) the slice x = delta needs a bracket of about
        # 1.5 delta^(2/3), more than ten steps below delta = 3.4e-3; the widened
        # retry must land on the approach branch, not on the one below it. The
        # closed path is the cycle, which the march enters after the first step,
        # so the step is caught on its way out
        outcomes = []
        real_step = tracer_mod.step

        def spying(*args, **kwargs):
            outcomes.append(real_step(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(tracer_mod, "step", spying)
        path = trace_astroid(delta)
        assert path.termination is Termination.CLOSED and len(path.events) == 2
        assert isinstance(outcomes[0], Stalled)
        first = next(p for p in outcomes if isinstance(p, Point2))
        branch = (1.0 - delta ** (2.0 / 3.0)) ** 1.5
        assert first.x == delta and first.y == pytest.approx(branch, abs=1e-9)
        # the cycle passes the same stop on the same branch
        passes = [p.y for p in path.points if p.x == delta and p.y > 0]
        assert passes == pytest.approx([branch], abs=1e-9)
        assert navigated_all_cusps(path.points, delta)

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

    def test_events_keep_the_stall_reason(self, caplog):
        # each event carries why its slice solve stalled, as the stall log says
        with caplog.at_level("INFO", logger="foldtrace.tracer"):
            path = trace_astroid(0.01)
        logged = [r.args[0] for r in caplog.records if r.msg.startswith("stall (")]
        assert [e.reason for e in path.events] == logged
        assert [e.reason for e in path.events] == [
            f"slice solve failed at x={x}: |g| shrank under 10% in 3 steps (rootless local minimum)"
            for x in ("1.01", "-1.01")
        ]

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

    def test_reversed_superellipse_is_not_closed(self):
        # the folds of x^4/16 + y^4 = 1 at (0, -1) and (0, 1) are flat, and a
        # parabola misplaces them: the scan from each estimate sees only the
        # way back, so the trace bounces over the right half, through the
        # east fold, a lattice stop, until its state repeats
        path = trace(*_cycle_case("reversed superellipse"))
        assert path.termination is Termination.RETRACED
        assert (len(path), len(path.events)) == (93, 4)
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
        # On x^4 + 16 y^4 = 1 the trace reverses at the east fold, passes the
        # start, reverses at the flat fold (0, -1/2), which the parabola
        # misplaces, and walks back: from point 7 on it repeats a 22-point
        # cycle on one arc, and the path ends after one cycle. The cycle's
        # passes lie on different lattices, so the sliver between them bounds
        # |A| = 1.2e-3 L^2, above the old 1e-3 L^2 cut, but its mean width
        # 2|A|/L is under a tenth of the step.
        c, s = math.cos(4.8), math.sin(4.8)
        start = Point2(math.copysign(abs(c) ** 0.5, c), math.copysign(abs(s) ** 0.5, s) / 2.0)
        path = trace(lambda x, y: x ** 4 + (2.0 * y) ** 4 - 1.0, start, PLUS_X,
                     TraceConfig(step=0.07))
        assert (len(path), len(path.events)) == (30, 2)
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
    # The march enters the cycle of each of these through a reversal at a stall
    # that no fold estimate resolves, or in the last from a start off the
    # cycle: as many points from the start as the cycle has wind 0 times (in
    # the last, 69 points with no event), the cycle itself winds once.
    @example(4.0, 0.5, 4.0, 0.0234375, MINUS_X)
    @example(2.8637733481937095, 0.7872238646022688, 3.2691727334348526, 0.046021476344757825, PLUS_X)
    @example(3.3487257986171173, 2.457468370618875, 5.465414186882322, 0.03284758347098895, PLUS_Y)
    @example(2.8436284941444296, 0.44554473750054857, 5.060251508559111, 0.06915899125565017, PLUS_X)
    @example(3.9305166149091235, 2.935407189042764, 3.2627344919540593, 0.028695826551355594, MINUS_X)
    def test_rotated_ellipse_closed_implies_winding_one(self, aspect, tilt, start_angle,
                                                         step_size, direction):
        # Folds of a tilted ellipse fall off the marching lattice, so a trace
        # may reverse, retrace or run out of points; whatever it does, it
        # reports `closed` only if it went round the curve once, back to its
        # first point.
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
            assert path.points[-1] == path.points[0]
            assert abs(abs(_winding(path.points)) - 1.0) < 1e-9

    def test_genuine_closures_stay_closed(self, circle_path, astroid_path):
        for path in (circle_path, astroid_path):
            assert path.termination is Termination.CLOSED
            assert abs(abs(_winding(path.points)) - 1.0) < 1e-9


# curve 0 of perfbench's curve zoo: an ellipse with axes 0.89 and 1.38, tilted 0.74 rad
_ZOO_ELLIPSE = ("((x*0.7373688780783196 + y*0.675490294261524)/0.887874162664502)^2"
                " + ((y*0.7373688780783196 - x*0.675490294261524)/1.3794580794954512)^2 - 1")
# curve 5: a superellipse |x/a|^4 + |y/b|^4 = 1 with a = 0.98 and b = 0.86
_ZOO_SUPERELLIPSE = "abs(x/0.9798024121541292)^4 + abs(y/0.8613131070732853)^4 - 1"


def _cycle_case(name):
    """(field, start, direction, cfg) of a trace that ends at a repeated state."""
    from foldtrace.expressions import expression_field

    if name == "astroid":  # trace_astroid(0.01)
        return astroid_field(), Point2(0.0, 1.0), PLUS_X, TraceConfig(step=0.01, max_points=1100)
    if name == "circle":
        return circle_field(), Point2(1.0, 0.0), MINUS_Y, TraceConfig(step=0.05)
    if name == "ellipse":
        return (expression_field("x*x/4 + y*y - 1"), Point2(2.0, 0.0), MINUS_Y,
                TraceConfig(step=0.05, max_points=2000))
    if name == "coarse ellipse":
        return expression_field("x^2/4+y^2-1"), Point2(2.0, 0.0), MINUS_Y, TraceConfig(step=0.07)
    if name == "zoo ellipse":
        return (expression_field(_ZOO_ELLIPSE), Point2(0.34014445265136495, -1.1720056257124918),
                PLUS_X, TraceConfig(step=0.005, max_points=4325))
    if name == "zoo superellipse":
        start = Point2(0.8226355421670715, -0.7253922991137858)
        return expression_field(_ZOO_SUPERELLIPSE), start, PLUS_X, TraceConfig(step=0.01,
                                                                                max_points=1939)
    if name == "reversed superellipse":
        return expression_field("x^4/16+y^4-1"), Point2(2.0, 0.0), MINUS_Y, TraceConfig(step=0.07)
    if name == "tilted ellipse":  # axes 1 and 2/3, tilted 0.3 rad: its folds fall off the lattice
        c, s = math.cos(0.3), math.sin(0.3)

        def field(x, y):
            u, v = c * x + s * y, c * y - s * x
            return u * u + (1.5 * v) ** 2 - 1.0

        u, v = math.cos(3.0), math.sin(3.0) / 1.5
        return field, Point2(c * u - s * v, s * u + c * v), PLUS_Y, TraceConfig(step=0.02,
                                                                                max_points=1500)
    assert name == "narrow ellipse"  # a turning point comes before its cycle
    c, s = math.cos(0.3), math.sin(0.3)

    def field(x, y):
        u, v = c * x + s * y, c * y - s * x
        return u * u + (2.0 * v) ** 2 - 1.0

    return field, Point2(c, s), PLUS_Y, TraceConfig(step=0.07)


def _points_md5(path):
    return hashlib.md5("".join(f"{p.x.hex()} {p.y.hex()}\n" for p in path.points).encode()).hexdigest()


class TestCycleStop:
    """The march is deterministic: a trace ends at the first exact repeat of its state."""

    @pytest.mark.parametrize("name", ["zoo superellipse", "reversed superellipse"])
    def test_a_bounce_ends_retraced_well_inside_its_budget(self, name):
        # a parabola misplaces their flat folds, so both bounce between two
        # reversals: a march that stops only at an exact repeat ends there
        field, start, direction, cfg = _cycle_case(name)
        path = trace(field, start, direction, cfg)
        points = path.points
        assert path.termination is Termination.RETRACED
        assert len(points) < cfg.max_points / 10
        # the path ends on the repeat: its last point and the reference window
        # before it equal, bit for bit, an earlier point j and its window, and
        # one step past the end lands on point j + 1, so the march repeats from
        # j on and the path holds a whole period
        hexes = [(p.x.hex(), p.y.hex()) for p in points]
        lag = cfg.reference_lag
        j = next(j for j in range(lag, len(points) - 1) if hexes[j - lag:j + 1] == hexes[-lag - 1:])
        for event in path.events:
            direction = new_direction(points[event.index], points[event.index + 1],
                                      incoming=direction)
        previous = points[-2] if path.flags[-1] == FLAG_ORDINARY else None
        outcome = step(field, points[-1], direction, cfg, anchor=start, previous=previous)
        assert (outcome.x.hex(), outcome.y.hex()) == hexes[j + 1]

    @pytest.mark.parametrize("name, points, events, md5", [
        ("astroid", 403, 2, "17fba32609ece7ed88f28ce26d004c49"),
        ("circle", 85, 4, "1af83ef481fe8236364106c909304dba"),
        ("ellipse", 125, 4, "56a623cb6bee90b9ed9e52893fd32423"),
    ])
    def test_closed_paths_keep_their_points(self, name, points, events, md5):
        # digests of the points as float.hex. Each path is the cycle the
        # repeat proved, from its first repeated state (the astroid's at
        # x = 0.11, the circle's and the ellipse's at y = -0.4) round to it
        # again; the folds of the circle and the ellipse lie on lattice stops,
        # so no fold is added past a stall.
        path = trace(*_cycle_case(name))
        assert path.termination is Termination.CLOSED
        assert (len(path), len(path.events), _points_md5(path)) == (points, events, md5)

    @pytest.mark.parametrize("name", ["astroid", "circle", "ellipse", "coarse ellipse",
                                      "zoo ellipse", "tilted ellipse", "narrow ellipse",
                                      "zoo superellipse", "reversed superellipse"])
    def test_turning_flags_are_the_event_indices(self, name):
        # a path keeps the events of its turning points and no other, and
        # each kept turning point's restart
        path = trace(*_cycle_case(name))
        assert [i for i, f in enumerate(path.flags) if f == FLAG_TURNING] == \
            [e.index for e in path.events]
        assert all(path.flags[e.index + 1:e.index + 2] == [FLAG_RESTART] for e in path.events)

    @pytest.mark.parametrize("name, events", [
        pytest.param(name, events, id=name) for name, events in [
            ("astroid", 2), ("circle", 4), ("ellipse", 4), ("coarse ellipse", 4),
            ("zoo ellipse", 4), ("tilted ellipse", 4), ("narrow ellipse", 4)]])
    def test_a_closed_path_ends_on_its_first_point(self, name, events):
        # a closed path is the cycle: from the first repeated state round to
        # that state again, once, through every fold
        path = trace(*_cycle_case(name))
        assert (path.termination, len(path.events)) == (Termination.CLOSED, events)
        assert path.points[-1] == path.points[0] != path.points[-2]
        assert abs(abs(_winding(path.points)) - 1.0) < 1e-9

    def test_a_cycle_can_start_on_a_restart(self):
        # the first repeated state is a restart: the turning point it restarts
        # from comes round as the second-last point, with its event last
        start = Point2(math.cos(1.0), math.sin(1.0))
        path = trace(circle_field(), start, PLUS_X, TraceConfig(step=0.07))
        assert (path.termination, len(path)) == (Termination.CLOSED, 63)
        assert [e.index for e in path.events] == [14, 30, 46, 61]
        assert path.flags[0] == path.flags[-1] == FLAG_RESTART
        assert path.flags[-2] == FLAG_TURNING and path.points[-1] == path.points[0]

    def test_a_closing_trace_marches_into_its_cycle_first(self):
        # the astroid's cycle has 403 points, but the march enters it at point
        # 11 and proves it at point 413, so a budget of 413 points ends before
        # the proof
        field, start, direction, cfg = _cycle_case("astroid")
        closed = trace(field, start, direction, dataclasses.replace(cfg, max_points=414))
        assert (len(closed), closed.termination) == (403, Termination.CLOSED)
        short = trace(field, start, direction, dataclasses.replace(cfg, max_points=413))
        assert (len(short), short.termination) == (413, Termination.MAX_POINTS)


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
    def test_default_astroid_trace(self, monkeypatch, readme):
        # The count is deterministic, so it is the regression signal for
        # the slice solver's cost: 1,835 evaluations (4.6 per point), 55 of
        # them at the start and on the 11 steps from it into the returned
        # cycle. A trace that stopped at its closing point took 1,796 with secant
        # steps and the multiplicity step at the two cusp tips on the
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
        # README quotes the count; a change that moves it has to update README
        quoted = re.search(r"\(([\d,]+) for ([\d,]+) points;", readme).groups()
        assert [int(g.replace(",", "")) for g in quoted] == [len(calls), len(path.points)]


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
