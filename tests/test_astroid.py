import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from foldtrace import astroid, tracer
from foldtrace.astroid import (
    CUSPS,
    astroid_field,
    navigated_all_cusps,
    percent_errors,
    run_sweep,
    trace_astroid,
)
from foldtrace.errors import TraceError
from foldtrace.geometry import Point2, cbrt
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

    @staticmethod
    def _cbrt_form(x, y):
        return cbrt(x) ** 2 + cbrt(y) ** 2 - 1.0

    def test_bitwise_equal_to_the_cube_root_form(self):
        f = astroid_field()
        rng = random.Random(5)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310, 1.0, -1.0,
                   math.inf, -math.inf]
        pairs = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(200)]
        pairs += [(rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300), rng.uniform(-1, 1))
                  for _ in range(200)]
        pairs += [(x, y) for x in special for y in special + [0.3, -1.7]]
        for x, y in pairs:
            assert f(x, y).hex() == self._cbrt_form(x, y).hex(), (x, y)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.5), (-0.5, math.nan), (math.nan, math.inf)])
    def test_nan_gives_nan(self, x, y):
        assert math.isnan(astroid_field()(x, y))
        assert math.isnan(self._cbrt_form(x, y))


def _pe(p):
    """percent_errors of one point."""
    return float(percent_errors([p.x], [p.y])[0])


def _max_abs_pe(points):
    return float(np.max(np.abs(percent_errors([p.x for p in points], [p.y for p in points])),
                        initial=0.0))


class TestPercentError:
    def test_exact_point_zero(self):
        assert _pe(Point2(0.0, 1.0)) == 0.0

    def test_radial_offset(self):
        # (0, 1.001) is 0.1 percent radially outside the cusp (0, 1)
        assert abs(_pe(Point2(0.0, 1.001)) - 0.1) < 1e-9

    def test_diagonal_on_curve_point(self):
        c = math.cos(math.pi / 4.0) ** 3  # = 2^(-3/2) ~ 0.35355
        assert abs(_pe(Point2(c, c))) < 1e-10

    def test_signed_inside(self):
        assert _pe(Point2(0.0, 0.999)) < 0.0

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            percent_errors([0.0], [0.0])
        with pytest.raises(ValueError):
            percent_errors([0.5, 0.0, 1.0], [0.5, 0.0, 0.0])

    def test_empty_batch(self):
        assert percent_errors([], []).shape == (0,)
        assert _max_abs_pe([]) == 0.0

    @given(st.lists(_astroid_points(), min_size=1, max_size=40))
    def test_batch_matches_scalar_oracle(self, points):
        got = percent_errors([p.x for p in points], [p.y for p in points])
        for p, value in zip(points, got):
            assert abs(value - oracle_percent_error(p)) <= 1e-12
        assert _max_abs_pe(points) == np.max(np.abs(got))

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
                    assert abs(_pe(p)) < 1e-10


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

    @pytest.mark.parametrize("r_factors, k_values, n_values, delta", [
        ([1.0, -1.0], [5], [8], 0.01),  # the second radius is bad
        ([1.0], [5], [8, 0], 0.01),
        ([1.0], [5, 2.5], [8], 0.01),
        ([1.0], [5], [8], float("nan")),
        ([1.0], [5], [8], 0.0),
    ])
    def test_bad_combination_rejected_before_any_trace(self, monkeypatch, r_factors,
                                                       k_values, n_values, delta):
        calls = []
        monkeypatch.setattr(astroid, "trace_astroid", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError):
            run_sweep(r_factors, k_values, n_values, delta)
        assert calls == []

    @staticmethod
    def _capture_paths(monkeypatch, fail=()):
        """Record the path of each traced combination; fail the listed ones."""
        paths = []
        original = astroid.trace_astroid

        def capturing(delta, r_factor, k, n, **kwargs):
            if (r_factor, k, n) in fail:
                partial = SolutionPath() if fail[(r_factor, k, n)] else None
                paths.append(partial)
                raise TraceError("forced failure", path=partial)
            path = original(delta, r_factor=r_factor, k=k, n=n, **kwargs)
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

    def test_repeated_combination_matches_oracle(self, monkeypatch):
        # repeated and overlapping paths share rows of the percent-error batch
        paths = self._capture_paths(monkeypatch)
        results = run_sweep([1.0, 100.0], [5, 5], [8, 3], 0.01)
        assert [(r.r_factor, r.k, r.n) for r in results] == [
            (rf, k, n) for rf in (1.0, 100.0) for k in (5, 5) for n in (8, 3)]
        assert len(paths) == 8
        assert results[0] == results[2] and results[1] == results[3]
        for r, path in zip(results, paths):
            assert r.max_pe == oracle_max_pe(path.points)
            assert r.navigated_all_cusps == (path.termination is Termination.CLOSED
                                             and navigated_all_cusps(path.points, 0.01))

    def test_empty_partial_path_reports_nan(self, monkeypatch):
        paths = self._capture_paths(monkeypatch, fail={(1.0, 5, 4): True, (1.0, 5, 10): False})
        results = run_sweep([1.0], [5], [4, 8, 10], 0.01)
        assert [r.n for r in results] == [4, 8, 10]
        assert math.isnan(results[0].max_pe) and math.isnan(results[2].max_pe)
        assert not results[0].navigated_all_cusps and not results[2].navigated_all_cusps
        assert results[1].navigated_all_cusps
        assert results[1].max_pe == oracle_max_pe(paths[1].points)

    def test_shared_memo_matches_independent_traces(self, monkeypatch, readme):
        # r, k and n change only the scan, so the 27 traces of the default
        # grid repeat each other's march steps, and k only picks the exit
        # from a scan's candidates, so they repeat each other's scans for
        # each (r, n): through the sweep's one memo the field is evaluated
        # 4,936 times in 18 scans and 1,012 march steps, where 27 independent
        # traces evaluate it 43,941 times in 54 scans, and every output stays
        # bit-identical. The 27 closed paths are cycles of 9 point sets, one
        # cusp verdict each
        evaluations, scans, verdicts, steps = [], [], [], []
        real_field, real_scan, real_step = astroid.astroid_field, tracer.scan_boundary, tracer.step

        def counting_field():
            f = real_field()

            def counting(x, y):
                evaluations.append(1)
                return f(x, y)

            return counting

        def counting_scan(*args, **kwargs):
            scans.append(1)
            return real_scan(*args, **kwargs)

        def counting_verdict(*args):
            verdicts.append(1)
            return navigated_all_cusps(*args)

        def counting_step(*args, **kwargs):
            steps.append(1)
            return real_step(*args, **kwargs)

        monkeypatch.setattr(astroid, "astroid_field", counting_field)
        monkeypatch.setattr(tracer, "scan_boundary", counting_scan)
        monkeypatch.setattr(tracer, "step", counting_step)
        monkeypatch.setattr(astroid, "navigated_all_cusps", counting_verdict)
        paths = self._capture_paths(monkeypatch)
        grid = ([0.0001, 1.0, 100.0], [1, 5, 10], [4, 8, 10])
        results = run_sweep(*grid, 0.01)
        shared = len(evaluations)
        assert (shared, len(scans), len(verdicts), len(steps)) == (4936, 18, 9, 1012)
        assert len({tuple(path.points) for path in paths}) == 27
        # README quotes the step count; a change that moves it has to update README
        quoted = re.search(r"solves ([\d,]+) distinct steps", readme).group(1)
        assert int(quoted.replace(",", "")) == len(steps)
        evaluations.clear()
        scans.clear()
        alone = [trace_astroid(0.01, r_factor=rf, k=k, n=n)
                 for rf in grid[0] for k in grid[1] for n in grid[2]]
        assert (len(evaluations), len(scans)) == (43941, 54)
        # README quotes both counts; a change that moves them has to update README
        quoted = re.search(r"evaluates the field ([\d,]+) times instead of ([\d,]+)", readme).groups()
        assert [int(g.replace(",", "")) for g in quoted] == [shared, len(evaluations)]
        assert len(results) == len(paths) == len(alone) == 27

        def exact(path):
            return ([(p.x.hex(), p.y.hex()) for p in path.points], path.flags, path.events,
                    path.termination)

        for result, path, single in zip(results, paths, alone):
            assert exact(path) == exact(single)
            errors = np.abs(percent_errors([p.x for p in single], [p.y for p in single]))
            assert result.max_pe.hex() == float(errors.max()).hex()
            assert result.navigated_all_cusps == (single.termination is Termination.CLOSED
                                                  and navigated_all_cusps(single.points, 0.01))


class TestTraceAstroidHelper:
    @pytest.mark.parametrize("settings", [{"n": 8.0}, {"k": 2.5}, {"n": 0}, {"r_factor": math.nan}])
    def test_bad_setting_rejected_before_tracing(self, settings):
        with pytest.raises(ValueError):
            trace_astroid(0.01, **settings)

    def test_step_too_small_for_the_point_budget_rejected(self, monkeypatch):
        # 6 / delta overflows a float: a setting error, not a raw OverflowError
        with pytest.raises(ValueError, match="^step is too small"):
            trace_astroid(1e-309)
        calls = []
        monkeypatch.setattr(astroid, "trace_astroid", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="^step is too small"):
            run_sweep([1e300], [5], [8], 5e-324)
        assert calls == []

    def test_closed_trace(self):
        path = trace_astroid(0.02, r_factor=1.0, k=5, n=8)
        assert path.termination is Termination.CLOSED
        assert navigated_all_cusps(path.points, 0.02)
        assert _max_abs_pe(path.points) < 0.01

    def test_navigation_radius(self):
        near = [Point2(1.0 - 0.05, 0.0), Point2(0.0, 0.95), Point2(-0.96, 0.0),
                Point2(0.0, -0.99)]
        assert navigated_all_cusps(near, 0.01)
        assert not navigated_all_cusps(near[:3], 0.01)
        assert len(CUSPS) == 4
