import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from foldtrace import astroid
from foldtrace.astroid import (
    CUSPS,
    SweepResult,
    astroid_field,
    max_abs_percent_error,
    navigated_all_cusps,
    percent_error,
    percent_errors,
    run_sweep,
    trace_astroid,
)
from foldtrace.errors import TraceError
from foldtrace.geometry import Point2
from foldtrace.tracer import SolutionPath, Termination

# ---------------------------------------------------------------------------
# Oracle: the scalar nearest-parameter search, one point at a time, that the
# array implementation must reproduce.

_DENSE_T = np.linspace(0.0, 0.5 * math.pi, 1025)
_DENSE_XY = np.stack([np.cos(_DENSE_T) ** 3, np.sin(_DENSE_T) ** 3], axis=1)


def _oracle_approach_rate(a, b, t):
    ct, st_ = math.cos(t), math.sin(t)
    return (a - ct ** 3) * (-3.0 * ct * ct * st_) + (b - st_ ** 3) * (3.0 * st_ * st_ * ct)


def _oracle_nearest_parameter(a, b):
    idx = int(np.argmin((_DENSE_XY[:, 0] - a) ** 2 + (_DENSE_XY[:, 1] - b) ** 2))
    t_best = float(_DENSE_T[idx])
    tiny = 1e-18
    lo = max(float(_DENSE_T[max(idx - 1, 0)]), tiny)
    hi = min(float(_DENSE_T[min(idx + 1, len(_DENSE_T) - 1)]), 0.5 * math.pi - tiny)
    g_lo = _oracle_approach_rate(a, b, lo)
    g_hi = _oracle_approach_rate(a, b, hi)
    if g_lo >= 0.0 >= g_hi and (g_lo > 0.0 or g_hi < 0.0):
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _oracle_approach_rate(a, b, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        t_best = 0.5 * (lo + hi)
    candidates = [t_best, 0.0, 0.5 * math.pi]
    return min(candidates, key=lambda tt: (a - math.cos(tt) ** 3) ** 2 + (b - math.sin(tt) ** 3) ** 2)


def oracle_percent_error(p):
    a, b = abs(p.x), abs(p.y)
    t = _oracle_nearest_parameter(a, b)
    rho_exact = math.hypot(math.cos(t) ** 3, math.sin(t) ** 3)
    return (math.hypot(a, b) - rho_exact) / rho_exact * 100.0


def oracle_max_pe(points):
    return max((abs(oracle_percent_error(p)) for p in points), default=0.0)


# Points on the curve, near the cusps and up to 50% radially off it, in all
# four quadrants.
_parameters = st.one_of(st.floats(0.0, 0.5 * math.pi), st.floats(0.0, 1e-3),
                        st.floats(0.5 * math.pi - 1e-3, 0.5 * math.pi))
_offsets = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-0.5, 0.5))
_signs = st.sampled_from((1.0, -1.0))


@st.composite
def _astroid_points(draw):
    t, offset = draw(_parameters), draw(_offsets)
    return Point2(draw(_signs) * math.cos(t) ** 3 * (1.0 + offset),
                  draw(_signs) * math.sin(t) ** 3 * (1.0 + offset))


class TestAstroidField:
    def test_cusp_on_curve(self):
        f = astroid_field()
        assert f(1.0, 0.0) == 0.0
        assert f(0.0, -1.0) == 0.0

    def test_origin_value(self):
        assert astroid_field()(0.0, 0.0) == -1.0

    def test_parametrized_identity(self):
        f = astroid_field()
        for t in (0.7, 0.1, 1.3, 2.9, 4.6):
            x, y = math.cos(t) ** 3, math.sin(t) ** 3
            assert abs(f(x, y)) < 1e-14

    def test_symmetries_exact(self):
        f = astroid_field()
        rng = random.Random(17)
        for _ in range(100):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            v = f(x, y)
            assert f(-x, y) == v
            assert f(x, -y) == v
            assert f(y, x) == v


class TestPercentError:
    def test_exact_point_zero(self):
        assert percent_error(Point2(0.0, 1.0)) == 0.0

    def test_radial_offset(self):
        # (0, 1.001) is 0.1 percent radially outside the cusp (0, 1)
        assert abs(percent_error(Point2(0.0, 1.001)) - 0.1) < 1e-9

    def test_diagonal_on_curve_point(self):
        c = math.cos(math.pi / 4.0) ** 3  # = 2^(-3/2) ~ 0.35355
        assert abs(percent_error(Point2(c, c))) < 1e-10

    def test_signed_inside(self):
        assert percent_error(Point2(0.0, 0.999)) < 0.0

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            percent_error(Point2(0.0, 0.0))
        with pytest.raises(ValueError):
            percent_errors([0.5, 0.0, 1.0], [0.5, 0.0, 0.0])

    def test_empty_batch(self):
        assert percent_errors([], []).shape == (0,)
        assert max_abs_percent_error([]) == 0.0

    @given(st.lists(_astroid_points(), min_size=1, max_size=40))
    def test_batch_matches_scalar_oracle(self, points):
        got = percent_errors([p.x for p in points], [p.y for p in points])
        for p, value in zip(points, got):
            assert abs(value - oracle_percent_error(p)) <= 1e-12
        assert max_abs_percent_error(points) == np.max(np.abs(got))

    @given(st.lists(_astroid_points(), min_size=1, max_size=40))
    def test_windowed_index_is_full_argmin(self, points):
        a = np.abs([p.x for p in points])
        b = np.abs([p.y for p in points])
        full = [np.argmin((_DENSE_XY[:, 0] - x) ** 2 + (_DENSE_XY[:, 1] - y) ** 2)
                for x, y in zip(a, b)]
        assert astroid._dense_index(a, b).tolist() == full

    def test_far_points_fall_back_to_full_argmin(self):
        # far from the curve the angle guess misses the nearest sample by
        # more than the window; the edge test must catch it
        a, b = np.array([1.9, 0.8, 0.12]), np.array([0.8, 0.75, 2.25])
        full = [np.argmin((_DENSE_XY[:, 0] - x) ** 2 + (_DENSE_XY[:, 1] - y) ** 2)
                for x, y in zip(a, b)]
        guess = np.rint(np.arctan2(np.cbrt(b), np.cbrt(a)) / _DENSE_T[1])
        assert np.all(np.abs(full - guess) > 6)
        assert astroid._dense_index(a, b).tolist() == full

    def test_below_1e10_percent_on_parametrized_points(self):
        # includes near-cusp parameters where naive refinement degenerates
        ts = [1e-6, 1e-4, 1e-3, 0.05, 0.3, math.pi / 4, 1.2,
              math.pi / 2 - 1e-4, math.pi / 2]
        for t in ts:
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    p = Point2(sx * math.cos(t) ** 3, sy * math.sin(t) ** 3)
                    if p.x == 0.0 and p.y == 0.0:
                        continue
                    assert abs(percent_error(p)) < 1e-10


class TestSweep:
    def test_single_good_combination(self):
        results = run_sweep([1.0], [5], [8], 0.01)
        assert len(results) == 1
        r = results[0]
        assert r.navigated_all_cusps
        assert r.max_pe < 0.1

    def test_failing_mesh_recorded_not_raised(self):
        results = run_sweep([1.0], [5], [3], 0.01)
        assert len(results) == 1
        assert not results[0].navigated_all_cusps

    def test_grid_order_stable(self):
        results = run_sweep([1.0, 100.0], [1, 5], [4], 0.01)
        combos = [(r.r_factor, r.k, r.n) for r in results]
        assert combos == [(1.0, 1, 4), (1.0, 5, 4), (100.0, 1, 4), (100.0, 5, 4)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], [5], [8], 0.01)

    @staticmethod
    def _capture_paths(monkeypatch, fail=()):
        """Record the path of each traced combination; fail the listed ones."""
        paths = []
        original = astroid.trace_astroid

        def capturing(delta, r_factor, k, n):
            if (r_factor, k, n) in fail:
                partial = SolutionPath() if fail[(r_factor, k, n)] else None
                paths.append(partial)
                raise TraceError("forced failure", path=partial)
            path = original(delta, r_factor=r_factor, k=k, n=n)
            paths.append(path)
            return path

        monkeypatch.setattr(astroid, "trace_astroid", capturing)
        return paths

    def test_default_grid_matches_oracle(self, monkeypatch):
        paths = self._capture_paths(monkeypatch)
        results = run_sweep([0.0001, 1.0, 100.0], [1, 5, 10], [4, 8, 10], 0.01)
        assert len(results) == len(paths) == 27
        for r, path in zip(results, paths):
            assert r.max_pe == oracle_max_pe(path.points)

    def test_mixed_grid_slices_per_combination(self, monkeypatch):
        paths = self._capture_paths(monkeypatch)
        results = run_sweep([1.0], [5], [8, 3, 4], 0.01)
        assert [r.n for r in results] == [8, 3, 4]
        assert [r.navigated_all_cusps for r in results] == [True, False, True]
        assert len(paths[1].points) < len(paths[0].points)  # n=3 stops early
        for r, path in zip(results, paths):
            assert r.max_pe == oracle_max_pe(path.points)

    def test_empty_partial_path_reports_nan(self, monkeypatch):
        paths = self._capture_paths(monkeypatch, fail={(1.0, 5, 4): True, (1.0, 5, 10): False})
        results = run_sweep([1.0], [5], [4, 8, 10], 0.01)
        assert [r.n for r in results] == [4, 8, 10]
        assert math.isnan(results[0].max_pe) and math.isnan(results[2].max_pe)
        assert not results[0].navigated_all_cusps and not results[2].navigated_all_cusps
        assert results[1].navigated_all_cusps
        assert results[1].max_pe == oracle_max_pe(paths[1].points)


class TestTraceAstroidHelper:
    def test_closed_trace(self):
        path = trace_astroid(0.02, r_factor=1.0, k=5, n=8)
        assert path.termination is Termination.CLOSED
        assert navigated_all_cusps(path.points, 0.02)
        assert max_abs_percent_error(path.points) < 0.01

    def test_navigation_radius(self):
        near = [Point2(1.0 - 0.05, 0.0), Point2(0.0, 0.95), Point2(-0.96, 0.0),
                Point2(0.0, -0.99)]
        assert navigated_all_cusps(near, 0.01)
        assert not navigated_all_cusps(near[:3], 0.01)
        assert len(CUSPS) == 4
