"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on a green run).

Criterion 10 (no-backtrack within half a step of earlier points) is
implemented exactly as stated and is expected to fail on legitimate
geometry: near a cusp the curve's two branches pass closer together than
half a step, and the final event of a closed curve necessarily restarts
onto the opening points. See the criterion-10 paragraph under "Install
and test" in README.md for the quantitative analysis; the check is kept
faithful rather than loosened.
"""

import math
import random
import time

import numpy as np
import pytest

from foldtrace.astroid import (
    navigated_all_cusps,
    percent_errors,
    run_sweep,
    trace_astroid,
)
from foldtrace.fields import circle_field
from foldtrace.geometry import MINUS_Y, Point2, TurningPointKind
from foldtrace.lubrication import (
    flux_balance_defect,
    residual_fixed_Q,
    trace_bifurcation,
)
from foldtrace.tracer import Termination, TraceConfig, trace
from foldtrace.turnpoint import Candidate, CandidateSet, mesh_half_circle, select_exit_point

DELTA_ASTROID = 0.01
K_ASTROID = 5
DELTA_CIRCLE = 0.05
K_CIRCLE = 5


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def astroid_run():
    t0 = time.perf_counter()
    path = trace_astroid(DELTA_ASTROID, r_factor=1.0, k=K_ASTROID, n=8)
    return path, time.perf_counter() - t0


@pytest.fixture(scope="module")
def circle_run():
    cfg = TraceConfig(step=DELTA_CIRCLE, radius=DELTA_CIRCLE, mesh_count=8,
                      reference_lag=K_CIRCLE, residual_tol=1e-10)
    return trace(circle_field(), Point2(1.0, 0.0), MINUS_Y, cfg)


@pytest.fixture(scope="module")
def lubrication_run():
    t0 = time.perf_counter()
    path, states, field = trace_bifurcation()
    return path, states, field, time.perf_counter() - t0


def test_criterion_01_astroid_accuracy(astroid_run):
    path, seconds = astroid_run
    closed = path.termination is Termination.CLOSED
    navigated = navigated_all_cusps(path.points, DELTA_ASTROID)
    max_pe = float(np.max(np.abs(percent_errors([p.x for p in path.points],
                                                [p.y for p in path.points])), initial=0.0))
    ok = closed and navigated and max_pe < 0.01 and seconds < 5.0
    _report(1, ok, f"closed={closed} cusps={navigated} max|PE|={max_pe:.3e}% "
                   f"(<0.01 target, <0.1 required) runtime={seconds:.2f}s")


def test_criterion_02_astroid_robustness_region():
    results = run_sweep([0.0001, 1.0, 100.0], [1, 5, 10], [4, 8, 10], DELTA_ASTROID)
    bad = [r for r in results
           if not (r.navigated_all_cusps and math.isfinite(r.max_pe) and r.max_pe < 0.1)]
    worst = max(r.max_pe for r in results)
    ok = len(results) == 27 and not bad
    _report(2, ok, f"{len(results) - len(bad)}/27 combinations navigated all cusps "
                   f"with max|PE|<0.1% (worst {worst:.3e}%)"
                   + (f"; failures: {[(r.r_factor, r.k, r.n) for r in bad]}" if bad else ""))


def test_criterion_03_failure_threshold_below_n4():
    path = trace_astroid(DELTA_ASTROID, r_factor=1.0, k=K_ASTROID, n=3)
    navigated = navigated_all_cusps(path.points, DELTA_ASTROID)
    reported = path.termination in (Termination.TERMINATED, Termination.MAX_POINTS)
    ok = (not navigated) and reported and path.termination is not Termination.CLOSED
    _report(3, ok, f"n=3 termination={path.termination.value!r} navigated={navigated} "
                   f"(failure surfaced, no silent wrong answer)")


def test_criterion_04_circle_closure(circle_run):
    path = circle_run
    radius_err = max(abs(math.hypot(p.x, p.y) - 1.0) for p in path.points)
    ok = (path.termination is Termination.CLOSED
          and radius_err < 1e-6
          and len(path.events) == 4)
    _report(4, ok, f"closed={path.termination is Termination.CLOSED} "
                   f"max radius error={radius_err:.2e} events={len(path.events)}")


def test_criterion_05_exit_point_oracle_equivalence():
    rng = random.Random(20240811)
    checked = 0
    for _ in range(1000):
        count = rng.randint(1, 100)
        cands = CandidateSet([
            Candidate(Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)), i)
            for i in range(count)
        ])
        ref = Point2(rng.uniform(-10, 10), rng.uniform(-10, 10))
        best = None
        best_d = -1.0
        for c in cands:  # brute-force distance argmax, first index on ties
            d = c.point.distance_to(ref)
            if d > best_d:
                best, best_d = c.point, d
        assert select_exit_point(cands, ref) == best
        checked += 1
    _report(5, checked == 1000, f"{checked}/1000 random candidate sets match the "
                                f"brute-force farthest-point oracle")


def test_criterion_06_mesh_formula_fidelity():
    worst_angle = 0.0
    center = Point2(0.0, 0.0)
    ok = True
    for n in range(1, 65):
        mesh = mesh_half_circle(center, 1.0, n, TurningPointKind.TYPE1)
        for i, p in enumerate(mesh):
            theta = math.atan2(p.y, p.x) % (2.0 * math.pi)
            expected = (math.pi / (2.0 * n)) * (n + 2 * i)
            worst_angle = max(worst_angle, abs(theta - expected))
            # the i=0 arc endpoint sits exactly on the half-plane boundary
            # (theta_0 = pi/2 by the formula); interior points are strict
            if i == 0:
                ok = ok and p.x <= center.x
            else:
                ok = ok and p.x < center.x
    ok = ok and worst_angle < 1e-14
    _report(6, ok, f"n=1..64 angle error={worst_angle:.2e} (<1e-14); no point east of "
                   f"the turning point (arc endpoint on the boundary, rest strict)")


def test_criterion_07_spectral_exactness():
    from foldtrace.lubrication import SpectralGrid
    grid = SpectralGrid.build(32)
    th = grid.nodes
    worst = 0.0
    for k in range(1, 11):
        worst = max(worst, np.max(np.abs(grid.d1 @ np.sin(k * th) - k * np.cos(k * th))))
        worst = max(worst, np.max(np.abs(grid.d1 @ np.cos(k * th) + k * np.sin(k * th))))
        worst = max(worst, np.max(np.abs(grid.d3 @ np.sin(k * th) + k ** 3 * np.cos(k * th))))
        worst = max(worst, np.max(np.abs(grid.d3 @ np.cos(k * th) - k ** 3 * np.sin(k * th))))
    const = max(np.max(np.abs(grid.d1 @ np.ones(32))), np.max(np.abs(grid.d3 @ np.ones(32))))
    ok = worst < 1e-9 and const < 1e-12
    _report(7, ok, f"derivative error={worst:.2e} (<1e-9), constants={const:.2e} (<1e-12)")


def test_criterion_08_jacobian_correctness():
    from foldtrace.lubrication import SpectralGrid, augmented_jacobian, augmented_residual
    from conftest import fd_jacobian
    grid = SpectralGrid.build(32)
    rng = np.random.default_rng(88)
    worst_fixed = worst_bordered = 0.0
    for _ in range(10):
        h = 0.6 + 0.8 * rng.random(32)
        Q = 0.4 + 0.8 * rng.random()
        z = np.concatenate([h, [Q]])
        Jb = augmented_jacobian(z, 1e-3, grid)
        J = Jb[:32, :32]  # the fixed-flux Jacobian
        J_fd = fd_jacobian(lambda hh: residual_fixed_Q(hh, Q, 1e-3, grid), h)
        worst_fixed = max(worst_fixed, np.max(np.abs(J - J_fd)) / np.max(np.abs(J)))
        mass_target = float(grid.weight * np.sum(h)) + 0.3
        Jb_fd = fd_jacobian(lambda zz: augmented_residual(zz, mass_target, 1e-3, grid), z)
        worst_bordered = max(worst_bordered, np.max(np.abs(Jb - Jb_fd)) / np.max(np.abs(Jb)))
    ok = worst_fixed <= 1e-5 and worst_bordered <= 1e-5
    _report(8, ok, f"fixed-flux rel err={worst_fixed:.2e}, bordered rel err="
                   f"{worst_bordered:.2e} (both <=1e-5, 10 random states)")


def test_criterion_09_lubrication_fold_traversal(lubrication_run):
    path, states, field, seconds = lubrication_run
    worst_res = max(
        float(np.max(np.abs(residual_fixed_Q(s.h, s.Q, field.epsilon, field.grid))))
        for s in states
    )
    worst_ident = max(abs(flux_balance_defect(s, field.grid)) for s in states)
    ok = (len(path) >= 200
          and len(path.events) >= 1
          and worst_res < 1e-8
          and worst_ident < 1e-8
          and seconds < 300.0)
    _report(9, ok, f"points={len(path)} (>=200) events={len(path.events)} (>=1) "
                   f"residual={worst_res:.2e} identity={worst_ident:.2e} (<1e-8) "
                   f"runtime={seconds:.1f}s (<300)")


def _backtrack_violations(path, k: int, delta: float):
    violations = []
    for event in path.events:
        j = event.index
        pre = path.points[:j]
        post = path.points[j + 1: j + 1 + 2 * k]
        for p in post:
            for q in pre:
                d = p.distance_to(q)
                if d < delta / 2.0:
                    violations.append((p, q, d))
    return violations


def test_criterion_10_no_backtrack(astroid_run, circle_run):
    astroid_path, _ = astroid_run
    circle_path = circle_run
    v_astroid = _backtrack_violations(astroid_path, K_ASTROID, DELTA_ASTROID)
    v_circle = _backtrack_violations(circle_path, K_CIRCLE, DELTA_CIRCLE)
    detail = (f"astroid violations={len(v_astroid)} circle violations={len(v_circle)}"
              f" (threshold delta/2)")
    if v_astroid:
        worst = min(v_astroid, key=lambda v: v[2])
        detail += (f"; astroid branches pass within {worst[2]:.2e} of each other near a"
                   f" cusp (post-event {worst[0]} vs prior {worst[1]})")
    if v_circle:
        worst = min(v_circle, key=lambda v: v[2])
        detail += (f"; the closing event restarts {worst[2]:.2e} from the opening points"
                   f" (post-event {worst[0]} vs prior {worst[1]})")
    _report(10, not v_astroid and not v_circle, detail)
