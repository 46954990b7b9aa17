import itertools
import math
import random

import pytest

from foldtrace.errors import CurveTerminated, FieldEvaluationError, InsufficientHistory, ZeroVector
from foldtrace.fields import circle_field
from foldtrace.astroid import astroid_field
from foldtrace.geometry import MINUS_X, PLUS_X, PLUS_Y, Axis, Point2, TurningPointKind
from foldtrace.tracer import TraceConfig
from foldtrace.turnpoint import (
    Candidate,
    CandidateSet,
    arc_point,
    choose_reference_point,
    mesh_half_circle,
    new_direction,
    scan_boundary,
    select_exit_point,
)

ALL_KINDS = list(TurningPointKind)


class TestMeshHalfCircle:
    def test_type1_n2_paper_angles(self):
        mesh = mesh_half_circle(Point2(0.0, 0.0), 1.0, 2, TurningPointKind.TYPE1)
        # theta_0 = pi/2 -> (0, 1); theta_1 = pi -> (-1, 0)
        assert abs(mesh[0].x - 0.0) < 1e-12 and abs(mesh[0].y - 1.0) < 1e-12
        assert abs(mesh[1].x + 1.0) < 1e-12 and abs(mesh[1].y - 0.0) < 1e-12

    def test_type1_n1_single_point(self):
        mesh = mesh_half_circle(Point2(0.0, 0.0), 1.0, 1, TurningPointKind.TYPE1)
        assert len(mesh) == 1
        assert abs(mesh[0].x) < 1e-12 and abs(mesh[0].y - 1.0) < 1e-12

    def test_type3_east_half_plane(self):
        center = Point2(2.0, 3.0)
        mesh = mesh_half_circle(center, 0.5, 4, TurningPointKind.TYPE3)
        assert len(mesh) == 4
        for i, p in enumerate(mesh):
            assert abs(p.distance_to(center) - 0.5) < 1e-12 * 0.5
            if i == 0:
                assert p.x >= center.x  # arc endpoint touches the boundary
            else:
                assert p.x > center.x

    def test_angle_formula_and_spacing(self):
        for n in range(1, 65):
            mesh = mesh_half_circle(Point2(0.0, 0.0), 1.0, n, TurningPointKind.TYPE1)
            angles = [math.atan2(p.y, p.x) % (2.0 * math.pi) for p in mesh]
            for i, theta in enumerate(angles):
                expected = (math.pi / (2.0 * n)) * (n + 2 * i)
                assert abs(theta - expected) < 1e-13
            for a, b in zip(angles, angles[1:]):
                assert abs((b - a) - math.pi / n) < 1e-12

    def test_open_half_plane_and_radius_all_kinds(self):
        center = Point2(0.3, -1.7)
        r = 0.25
        for kind in ALL_KINDS:
            for n in (1, 2, 5, 16, 64):
                mesh = mesh_half_circle(center, r, n, kind)
                assert len(mesh) == n
                blocked = kind.value
                for i, p in enumerate(mesh):
                    assert abs(p.distance_to(center) - r) <= 1e-12 * r
                    if blocked.axis is Axis.X:
                        offset = (p.x - center.x) * blocked.sign
                    else:
                        offset = (p.y - center.y) * blocked.sign
                    # never inside the blocked half-plane; only the first
                    # arc endpoint may touch its boundary
                    if i == 0:
                        assert offset <= 0.0
                    else:
                        assert offset < 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mesh_half_circle(Point2(0, 0), -1.0, 4, TurningPointKind.TYPE1)
        with pytest.raises(ValueError):
            mesh_half_circle(Point2(0, 0), 1.0, 0, TurningPointKind.TYPE1)

    @pytest.mark.parametrize("n", [4.0, 2.5, "4"])
    def test_non_integer_count_is_a_value_error(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            mesh_half_circle(Point2(0, 0), 1.0, n, TurningPointKind.TYPE1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            mesh_half_circle(Point2(0, 0), radius, 4, TurningPointKind.TYPE1)


class TestArcPoint:
    # each kind's arc unit vector written out by hand; the quarter-turn
    # rotation in arc_point must reproduce them bit for bit
    HAND_WRITTEN = {
        TurningPointKind.TYPE1: lambda s, c: (-s, c),
        TurningPointKind.TYPE2: lambda s, c: (-c, -s),
        TurningPointKind.TYPE3: lambda s, c: (s, -c),
        TurningPointKind.TYPE4: lambda s, c: (c, s),
    }

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("phi", [0.0, math.pi / 8, math.pi / 2, 3 * math.pi / 4, math.pi])
    def test_rotation_matches_the_hand_written_arcs(self, kind, phi):
        center, r = Point2(0.3, -1.7), 0.25
        ux, uy = self.HAND_WRITTEN[kind](math.sin(phi), math.cos(phi))
        p = arc_point(center, r, kind, phi)
        assert (p.x, p.y) == (center.x + r * ux, center.y + r * uy)


class TestScanBoundary:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_circle_intersections(self, n):
        # unit circle meets the r=0.2 disk at x=0.98: y = +-sqrt(1-0.98^2)
        field = circle_field()
        center = Point2(1.0, 0.0)
        cfg = TraceConfig(step=0.2, mesh_count=n, residual_tol=1e-10)
        found = scan_boundary(field, center, TurningPointKind.TYPE1, cfg)
        assert len(found) == 2
        expected_y = math.sqrt(1.0 - 0.98 ** 2)
        ys = sorted(c.point.y for c in found)
        assert abs(ys[0] + expected_y) < 1e-8
        assert abs(ys[1] - expected_y) < 1e-8
        for c in found:
            assert abs(c.point.x - 0.98) < 1e-8

    @pytest.mark.parametrize("kind,field", [
        (TurningPointKind.TYPE1, lambda x, y: y - 0.1),   # horizontal line, west arc
        (TurningPointKind.TYPE3, lambda x, y: y - 0.1),   # horizontal line, east arc
        (TurningPointKind.TYPE2, lambda x, y: x - 0.1),   # vertical line, south arc
        (TurningPointKind.TYPE4, lambda x, y: x - 0.1),   # vertical line, north arc
    ])
    def test_line_crossing_found_on_every_arc(self, kind, field):
        center = Point2(0.0, 0.0)
        cfg = TraceConfig(step=0.5, mesh_count=8, residual_tol=1e-10)
        found = scan_boundary(field, center, kind, cfg)
        assert len(found) == 1
        assert abs(field(found.candidates[0].point.x, found.candidates[0].point.y)) <= 1e-10
        assert abs(found.candidates[0].point.distance_to(center) - 0.5) < 1e-9

    def test_disjoint_disk_empty(self):
        field = circle_field()
        center = Point2(3.0, 0.0)
        cfg = TraceConfig(step=0.2, mesh_count=8)
        assert len(scan_boundary(field, center, TurningPointKind.TYPE1, cfg)) == 0

    def test_astroid_cusp_symmetric_pair(self):
        field = astroid_field()
        center = Point2(1.0, 0.0)
        r = 1e-3
        cfg = TraceConfig(step=r, mesh_count=8, residual_tol=1e-10)
        found = scan_boundary(field, center, TurningPointKind.TYPE1, cfg)
        assert len(found) == 2
        a, b = found.candidates
        assert a.point.x < 1.0 and b.point.x < 1.0
        assert abs(a.point.y + b.point.y) < 1e-8  # symmetric about y = 0
        # independent oracle: bisect f along the arc angle directly
        def arc(theta):
            return Point2(1.0 + r * math.cos(theta), r * math.sin(theta))

        lo, hi = math.pi / 2.0, math.pi
        f = lambda t: field(arc(t).x, arc(t).y)
        assert f(lo) > 0 > f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = arc(0.5 * (lo + hi))
        upper = max(found.candidates, key=lambda c: c.point.y)
        assert upper.point.distance_to(oracle) < 1e-8

    def test_mesh_indices_strictly_increasing(self):
        field = circle_field()
        center = Point2(1.0, 0.0)
        cfg = TraceConfig(step=0.2, mesh_count=16)
        found = scan_boundary(field, center, TurningPointKind.TYPE1, cfg)
        indices = [c.mesh_index for c in found]
        assert indices == sorted(set(indices))

    def test_failing_field_points_skipped(self):
        def field(x, y):
            if y > 0:
                raise FieldEvaluationError("upper half unavailable")
            return x * x + y * y - 1.0

        center = Point2(1.0, 0.0)
        cfg = TraceConfig(step=0.2, mesh_count=8)
        found = scan_boundary(field, center, TurningPointKind.TYPE1, cfg)
        assert found.skipped_mesh_indices
        assert len(found) == 1  # only the lower intersection is reachable
        assert found.candidates[0].point.y < 0

    def test_samples_are_the_mesh_then_the_far_end(self):
        # A field without roots is only sampled, so the spy sees exactly the
        # n mesh points the paper's formula gives, then phi = pi. The scan
        # takes them from mesh_half_circle; they are compared bit for bit.
        center = Point2(0.3, -1.7)
        for r, kind, n in itertools.product((0.25, 1e-6, 0.01, 0.35), ALL_KINDS,
                                            (1, 2, 4, 5, 8, 10, 16)):
            calls = []

            def field(x, y):
                calls.append((x, y))
                return 1.0

            found = scan_boundary(field, center, kind, TraceConfig(step=r, mesh_count=n))
            assert len(found) == 0
            mesh = mesh_half_circle(center, r, n, kind)
            assert calls[:n] == [(p.x, p.y) for p in mesh]
            far = arc_point(center, r, kind, math.pi)
            assert calls[n:] == [(far.x, far.y)]
            # phi = pi is the arc end diametrically opposite phi = 0
            assert abs(far.x + mesh[0].x - 2.0 * center.x) < 1e-12
            assert abs(far.y + mesh[0].y - 2.0 * center.y) < 1e-12

    @pytest.mark.parametrize("field,center,r,budget", [
        (circle_field(), Point2(1.0, 0.0), 0.2, 33),
        (astroid_field(), Point2(1.0, 0.0), 1e-3, 35),
    ])
    def test_evaluation_budget(self, field, center, r, budget):
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return field(x, y)

        found = scan_boundary(counted, center, TurningPointKind.TYPE1, TraceConfig(step=r, mesh_count=8))
        assert len(found) == 2
        assert len(calls) <= budget

    def test_nan_inside_refinement_skipped(self):
        # NaN on a small patch of the arc around the upper circle crossing:
        # no sample lands there, so only the refinement meets it.
        upper = Point2(0.98, math.sqrt(1.0 - 0.98 ** 2))

        def field(x, y):
            if math.hypot(x - upper.x, y - upper.y) < 1e-3:
                return math.nan
            return x * x + y * y - 1.0

        center = Point2(1.0, 0.0)
        found = scan_boundary(field, center, TurningPointKind.TYPE1, TraceConfig(step=0.2, mesh_count=8))
        assert found.skipped_mesh_indices == [0]
        assert len(found) == 1
        assert found.candidates[0].mesh_index == 7
        assert found.candidates[0].point.y < 0

    def test_last_mesh_point_and_far_end_both_accepted(self):
        # The line x + y + 1 = 0 meets the unit circle at the n=2 mesh
        # point (-1, 0) and at the far end (0, -1); both are roots.
        center = Point2(0.0, 0.0)
        kind = TurningPointKind.TYPE1
        found = scan_boundary(lambda x, y: x + y + 1.0, center, kind, TraceConfig(step=1.0, mesh_count=2))
        assert [c.mesh_index for c in found] == [1, 2]
        assert found.candidates[0].point == mesh_half_circle(center, 1.0, 2, kind)[1]
        assert found.candidates[1].point == arc_point(center, 1.0, kind, math.pi)


class TestChooseReferencePoint:
    def test_lag_index(self):
        path = [Point2(0.0, 0.0), Point2(0.1, 0.0), Point2(0.2, 0.0)]
        cfg = TraceConfig(step=100.0, reference_lag=1)
        assert choose_reference_point(path, 2, cfg) == Point2(0.1, 0.0)

    def test_outside_disk_falls_forward(self):
        xs = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        path = [Point2(x, 0.0) for x in xs]
        cfg = TraceConfig(step=0.2, reference_lag=5)
        # index 4 is 0.5 away; index 7 sits on the disk boundary (excluded);
        # index 8 is the first strictly-inside point
        assert choose_reference_point(path, 9, cfg) == Point2(0.8, 0.0)

    def test_lag_clamped_to_first(self):
        path = [Point2(0.0, 0.0), Point2(1.0, 1.0)]
        cfg = TraceConfig(step=100.0, reference_lag=10)
        assert choose_reference_point(path, 1, cfg) == Point2(0.0, 0.0)

    def test_predecessor_fallback(self):
        path = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0)]
        cfg = TraceConfig(step=1e-6, reference_lag=2)
        assert choose_reference_point(path, 2, cfg) == Point2(1.0, 0.0)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            choose_reference_point([Point2(0, 0)], 0, TraceConfig(step=1.0))


def _cs(*points):
    return CandidateSet([Candidate(p, i) for i, p in enumerate(points)])


class TestSelectExitPoint:
    def test_farthest_candidate_wins(self):
        chosen = select_exit_point(_cs(Point2(1, 0), Point2(0, 2)), Point2(0, 0))
        assert chosen == Point2(0, 2)

    def test_empty_set_terminates(self):
        with pytest.raises(CurveTerminated):
            select_exit_point(CandidateSet(), Point2(0, 0))

    def test_tie_breaks_to_smaller_mesh_index(self):
        cands = CandidateSet([Candidate(Point2(1, 0), 2), Candidate(Point2(-1, 0), 5)])
        assert select_exit_point(cands, Point2(0, 0)) == Point2(1, 0)

    def test_degenerate_candidate_discarded(self):
        cands = _cs(Point2(0, 0), Point2(1, 1))
        assert select_exit_point(cands, Point2(0, 0)) == Point2(1, 1)

    def test_all_degenerate_terminates(self):
        with pytest.raises(CurveTerminated):
            select_exit_point(_cs(Point2(3, 4)), Point2(3, 4))

    def test_matches_brute_force_argmax(self):
        rng = random.Random(42)
        for _ in range(200):
            count = rng.randint(1, 40)
            cands = CandidateSet(
                [Candidate(Point2(rng.uniform(-5, 5), rng.uniform(-5, 5)), i)
                 for i in range(count)]
            )
            ref = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            best = None
            best_d = -1.0
            for c in cands:
                d = c.point.distance_to(ref)
                if d > best_d:
                    best, best_d = c.point, d
            assert select_exit_point(cands, ref) == best


class TestNewDirection:
    def test_y_component_dominates(self):
        assert new_direction(Point2(1.0, 0.0), Point2(0.99, 0.05)) == PLUS_Y

    def test_x_component_dominates(self):
        assert new_direction(Point2(0.0, 0.0), Point2(-0.3, 0.1)) == MINUS_X

    def test_tie_picks_axis_perpendicular_to_incoming(self):
        assert new_direction(Point2(0.0, 0.0), Point2(0.1, 0.1), incoming=PLUS_X) == PLUS_Y

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            new_direction(Point2(1.0, 2.0), Point2(1.0, 2.0))

    def test_direction_follows_the_larger_component(self):
        rng = random.Random(9)
        for _ in range(50):
            tp = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            exit_p = Point2(tp.x + rng.uniform(-1, 1), tp.y + rng.uniform(-1, 1))
            if exit_p == tp:
                continue
            dx, dy = exit_p.x - tp.x, exit_p.y - tp.y
            direction = new_direction(tp, exit_p, incoming=PLUS_X)
            axis, v = (Axis.X, dx) if abs(dx) > abs(dy) else (Axis.Y, dy)
            assert direction.axis is axis and direction.sign == (1 if v > 0 else -1)
