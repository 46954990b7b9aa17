import numpy as np
import pytest

import itertools
import re

import foldtrace.lubrication as lubrication
import foldtrace.rootfind as rootfind
import foldtrace.tracer
from foldtrace.errors import (FieldEvaluationError, NoConvergence, NonpositiveThickness,
                              SingularMatrix, TraceError)
from foldtrace.geometry import TurningPointKind
from foldtrace.lubrication import (
    MAX_GRID_POINTS,
    TWO_PI,
    BifurcationField,
    LubricationState,
    SpectralGrid,
    augmented_jacobian,
    augmented_residual,
    flux_balance_defect,
    trace_bifurcation,
    fourier_diff_matrix,
    mass_of,
    residual_fixed_Q,
    solve_at_M,
)
from foldtrace.rootfind import solve_vector

from conftest import fd_jacobian


@pytest.fixture(scope="module")
def grid32():
    return SpectralGrid.build(32)


@pytest.fixture(scope="module")
def field64():
    grid = SpectralGrid.build(64)
    field = BifurcationField(1e-3, grid)
    field.seed(TWO_PI)
    return field


@pytest.mark.parametrize("build", [SpectralGrid.build, lambda m: fourier_diff_matrix(m, 1)])
@pytest.mark.parametrize("m, message", [
    (10**9, r"m must be even and in \[8, 2048\], got 1000000000"),
    (MAX_GRID_POINTS + 2, "got 2050"),
    (6, "got 6"),
    (128.0, "m must be an integer, got 128.0"),
    ("128", "m must be an integer"),
])
def test_grid_size_is_checked_before_anything_is_allocated(monkeypatch, build, m, message):
    def allocation(*args, **kwargs):
        raise AssertionError("an array was allocated before the grid size was checked")

    for name in ("arange", "eye", "empty", "full", "zeros", "fft"):
        monkeypatch.setattr(np, name, allocation)
    with pytest.raises(ValueError, match=message):
        build(m)


class TestFourierDiffMatrix:
    def test_first_derivative_of_sin3(self, grid32):
        th = grid32.nodes
        err = grid32.d1 @ np.sin(3 * th) - 3 * np.cos(3 * th)
        assert np.max(np.abs(err)) < 1e-10

    def test_third_derivative_of_cos2(self, grid32):
        th = grid32.nodes
        err = grid32.d3 @ np.cos(2 * th) - 8 * np.sin(2 * th)
        assert np.max(np.abs(err)) < 1e-9

    def test_exact_on_resolved_modes(self, grid32):
        th = grid32.nodes
        for k in range(1, 11):
            assert np.max(np.abs(grid32.d1 @ np.sin(k * th) - k * np.cos(k * th))) < 1e-9
            assert np.max(np.abs(grid32.d1 @ np.cos(k * th) + k * np.sin(k * th))) < 1e-9
            assert np.max(np.abs(grid32.d3 @ np.sin(k * th) + k ** 3 * np.cos(k * th))) < 1e-9
            assert np.max(np.abs(grid32.d3 @ np.cos(k * th) - k ** 3 * np.sin(k * th))) < 1e-9

    def test_annihilates_constants(self, grid32):
        ones = np.ones(32)
        assert np.max(np.abs(grid32.d1 @ ones)) < 1e-12
        assert np.max(np.abs(grid32.d3 @ ones)) < 1e-12

    def test_d1_antisymmetric(self, grid32):
        assert np.max(np.abs(grid32.d1 + grid32.d1.T)) < 1e-10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fourier_diff_matrix(7, 1)
        with pytest.raises(ValueError):
            fourier_diff_matrix(6, 1)
        with pytest.raises(ValueError):
            fourier_diff_matrix(32, 2)

    def test_quadrature_of_cos_vanishes(self, grid32):
        assert abs(grid32.weight * np.sum(np.cos(grid32.nodes))) < 1e-13


class TestResidual:
    def test_flat_film_unit_flux(self, grid32):
        r = residual_fixed_Q(np.ones(32), 1.0, 0.7, grid32)
        assert np.max(np.abs(r + np.cos(grid32.nodes) / 3.0)) < 1e-12

    def test_flux_terms_cancel_for_matching_constants(self, grid32):
        # Q/h^3 = 2/8 = 1/4 = 1/h^2 when h = Q = 2
        r = residual_fixed_Q(2.0 * np.ones(32), 2.0, 0.3, grid32)
        assert np.max(np.abs(r + np.cos(grid32.nodes) / 3.0)) < 1e-12

    def test_nonpositive_thickness_rejected(self, grid32):
        h = np.ones(32)
        h[5] = 0.0
        with pytest.raises(NonpositiveThickness):
            residual_fixed_Q(h, 1.0, 0.1, grid32)
        with pytest.raises(NonpositiveThickness):
            augmented_jacobian(np.append(-h, 1.0), 0.1, grid32)

    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, np.inf, -np.inf])
    def test_bad_thickness_rejected_everywhere(self, grid32, bad):
        h = np.ones(32)
        h[7] = bad
        with pytest.raises(NonpositiveThickness):
            lubrication._check_thickness(h)
        with pytest.raises(NonpositiveThickness):
            residual_fixed_Q(h, 1.0, 0.1, grid32)
        with pytest.raises(NonpositiveThickness):
            augmented_jacobian(np.concatenate([h, [1.0]]), 0.1, grid32)

    def test_bit_identical_to_inline_forcing(self):
        grid = SpectralGrid.build(128)
        h = 0.5 + np.random.default_rng(4).random(128)
        Q, eps = 0.7, 1e-3
        r = 1.0 / h
        inline = (eps / 3.0) * (grid.d1 + grid.d3) @ h - np.cos(grid.nodes) / 3.0 + r * r * (1.0 - Q * r)
        assert (residual_fixed_Q(h, Q, eps, grid) == inline).all()
        # written in place into a slice, and inside the bordered residual, too
        buffer = np.empty(129)
        assert residual_fixed_Q(h, Q, eps, grid, buffer[:-1]).base is buffer
        assert (buffer[:-1] == inline).all()
        assert (augmented_residual(np.append(h, Q), TWO_PI, eps, grid)[:-1] == inline).all()
        assert not grid.cos_third.flags.writeable

    @pytest.mark.parametrize("m", [32, 128])
    def test_matches_two_matvec_and_fft_forms(self, m):
        # the one-matvec residual against the two-matvec form it replaced and
        # against FFT derivatives built without the grid's matrices
        grid = SpectralGrid.build(m)
        th = grid.nodes
        k = np.fft.fftfreq(m, d=1.0 / m)
        mult = 1j * k + (1j * k) ** 3
        mult[m // 2] = 0.0  # odd orders: no Nyquist mode
        Q, eps = 0.7, 1e-3
        rng = np.random.default_rng(m)
        for h in (0.5 + rng.random(m), 1.0 + 0.3 * np.cos(th) + 0.1 * np.sin(3 * th)):
            forcing = -np.cos(th) / 3.0 - Q / h**3 + 1.0 / h**2
            two_matvec = (eps / 3.0) * (grid.d1 @ h + grid.d3 @ h) + forcing
            spectral = (eps / 3.0) * np.fft.ifft(mult * np.fft.fft(h)).real + forcing
            residual = residual_fixed_Q(h, Q, eps, grid)
            assert np.max(np.abs(residual)) > 0.5  # not a vacuous comparison
            assert np.max(np.abs(residual - two_matvec)) < 1e-12
            assert np.max(np.abs(residual - spectral)) < 1e-12


class TestJacobians:
    def test_zero_eps_closed_form(self, grid32):
        J = _jacobian_fixed_Q(np.ones(32), 0.0, 0.0, grid32)
        assert np.allclose(J, -2.0 * np.eye(32), atol=1e-15)

    def test_matches_finite_differences(self, grid32):
        rng = np.random.default_rng(1)
        for _ in range(3):
            h = 0.7 + 0.6 * rng.random(32)
            Q = 0.5 + rng.random()
            J = _jacobian_fixed_Q(h, Q, 1e-3, grid32)
            J_fd = fd_jacobian(lambda hh: residual_fixed_Q(hh, Q, 1e-3, grid32), h)
            assert np.max(np.abs(J - J_fd)) <= 1e-5 * np.max(np.abs(J))

    def test_derivative_block_row_sums_vanish(self, grid32):
        block = (1e-3 / 3.0) * (grid32.d1 + grid32.d3)
        assert np.max(np.abs(block.sum(axis=1))) < 1e-10

    def test_bordered_matches_finite_differences(self, grid32):
        rng = np.random.default_rng(2)
        z = np.concatenate([0.8 + 0.4 * rng.random(32), [0.9]])
        J = augmented_jacobian(z, 1e-3, grid32)
        J_fd = fd_jacobian(lambda zz: augmented_residual(zz, 6.0, 1e-3, grid32), z)
        assert np.max(np.abs(J - J_fd)) <= 1e-5 * np.max(np.abs(J))


def _jacobian_fixed_Q(h, Q, epsilon, grid):
    """The fixed-flux Jacobian: the leading m x m block of the bordered one."""
    return augmented_jacobian(np.append(h, Q), epsilon, grid)[:grid.m, :grid.m]


def _fixed_flux(Q, epsilon, grid, h0, **settings):
    """Newton on the m-dimensional fixed-flux system: (h, factorizations)."""
    return solve_vector(lambda h: residual_fixed_Q(h, Q, epsilon, grid), h0,
                        jac=lambda h: _jacobian_fixed_Q(h, Q, epsilon, grid), **settings)


class TestSolves:
    def test_solve_at_M_closes_mass_constraint(self, field64):
        state = field64.seed(TWO_PI)
        grid = field64.grid
        assert abs(mass_of(state.h, grid) - TWO_PI) <= 1e-10
        res = residual_fixed_Q(state.h, state.Q, 1e-3, grid)
        assert np.max(np.abs(res)) < 1e-10
        # the pooled branch pins the flux near the classical 2/3 cap
        assert 0.60 < state.Q < 0.70

    def test_fixed_flux_warm_start_fast(self, field64):
        # warm-start on the well-conditioned stretch of the branch; close
        # to the fold the fixed-flux Jacobian degenerates and Newton slows
        grid = field64.grid
        st = solve_at_M(4.0, 1e-3, grid, *_warm(field64, 4.0))
        h, factorizations = _fixed_flux(st.Q - 1e-4, 1e-3, grid, st.h, tol=1e-11, max_iter=40)
        assert factorizations <= 5
        assert np.max(np.abs(residual_fixed_Q(h, st.Q - 1e-4, 1e-3, grid))) < 1e-10
        assert abs(mass_of(h, grid) - TWO_PI * np.mean(h)) < 1e-12

    def test_cross_consistency(self, field64):
        # a state converged at fixed mass satisfies the fixed-flux residual
        # at the matching (Q, M) and vice versa
        grid = field64.grid
        st = solve_at_M(6.0, 1e-3, grid, *_warm(field64, 6.0))
        h, _ = _fixed_flux(st.Q, 1e-3, grid, st.h)
        assert abs(mass_of(h, grid) - st.M) < 1e-8
        assert np.max(np.abs(residual_fixed_Q(st.h, st.Q, 1e-3, grid))) < 1e-8

    def test_fold_located_by_bisection_then_beyond_fails(self, field64):
        grid = field64.grid
        st = field64.seed(TWO_PI)
        h, Q = st.h, st.Q
        dq = 2e-4
        for _ in range(100):
            try:
                h, _ = _fixed_flux(Q + dq, 1e-3, grid, h, tol=1e-11, max_iter=12)
                Q += dq
            except NoConvergence:
                break
        else:
            pytest.fail("no fold found marching the flux upward")
        lo, hi = Q, Q + dq
        for _ in range(25):
            mid = 0.5 * (lo + hi)
            try:
                h, _ = _fixed_flux(mid, 1e-3, grid, h, tol=1e-11, max_iter=12)
                lo = mid
            except NoConvergence:
                hi = mid
        with pytest.raises(NoConvergence):
            _fixed_flux(hi + 5e-5, 1e-3, grid, h, tol=1e-11, max_iter=12)

    def test_periodic_integral_identity(self, field64):
        grid = field64.grid
        for M in (TWO_PI, 5.5, 4.0):
            st = solve_at_M(M, 1e-3, grid, *_warm(field64, M))
            assert abs(flux_balance_defect(st, grid)) < 1e-8

    def test_no_steady_film_at_unit_flux(self, grid32):
        # the gravitational return flow caps the carriable flux near 2/3 at
        # small surface tension, so a fixed-flux solve at Q = 1 has nothing
        # to converge to (flat start or otherwise)
        with pytest.raises(NoConvergence):
            _fixed_flux(1.0, 1e-3, grid32, np.ones(32), tol=1e-11, max_iter=40)


def _warm(field, M):
    return _nearest_film(field, 0.66, M)


def _nearest_film(field, Q, M):
    state = field.states[field._nearest(Q, M)[0]]
    return state.h, state.Q


class TestBifurcationField:
    def test_zero_on_curve(self, field64):
        st = field64.seed(TWO_PI)
        assert abs(field64(st.Q, st.M)) < 1e-9

    def test_mass_offset_probe(self, field64):
        # probing 0.1 above a converged state asks for the flux at that
        # mass; the answer is the flux change along the branch
        st = field64.seed(TWO_PI)
        grid = field64.grid
        expected = solve_at_M(st.M + 0.1, 1e-3, grid, st.h, st.Q).Q - st.Q
        assert abs(field64(st.Q, st.M + 0.1) - expected) < 1e-9

    def test_far_off_branch_raises(self, field64):
        with pytest.raises(FieldEvaluationError):
            field64(25.0, 0.02)

    def test_singular_factorization_raises_field_evaluation_error(self, monkeypatch):
        field, seed = _seeded_field()
        kept = dict(field.states)

        def singular(holder, A):
            raise SingularMatrix("forced singular pivot")

        monkeypatch.setattr(rootfind.LUHolder, "factor", singular)
        with pytest.raises(FieldEvaluationError, match="bordered solve failed.*forced singular"):
            field(seed.Q, TWO_PI + 0.05)
        assert field.states == kept

    def test_state_validation(self):
        with pytest.raises(NonpositiveThickness):
            LubricationState(h=np.array([1.0, -0.1]), Q=0.5, M=1.0, epsilon=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_rejects_nonfinite_thickness(self, bad):
        with pytest.raises(NonpositiveThickness):
            LubricationState(h=np.array([1.0, bad, 1.0]), Q=1.0, M=1.0, epsilon=1e-3)

    @pytest.mark.parametrize("h", [np.array([]), np.ones((4, 8)), np.ones((0, 3)), np.float64(1.0)])
    def test_state_rejects_shapeless_thickness(self, h):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            LubricationState(h=h, Q=1.0, M=1.0, epsilon=1e-3)

    @pytest.mark.parametrize("mass", [-1.0, 0.0, np.inf, np.nan])
    def test_seed_mass_must_be_positive_and_finite(self, mass):
        with pytest.raises(ValueError, match="seed mass"):
            BifurcationField(1e-3, SpectralGrid.build(8)).seed(mass)

    def test_seed_homotopy_reaches_smaller_epsilon(self):
        # the staged walk down in surface tension also covers 1e-4, where
        # the pool is taller and the diagram develops its loop structure
        grid = SpectralGrid.build(128)
        field = BifurcationField(1e-4, grid)
        st = field.seed(TWO_PI)
        assert np.max(np.abs(residual_fixed_Q(st.h, st.Q, 1e-4, grid))) < 1e-10
        assert 0.60 < st.Q < 0.70
        assert st.h.max() > 4.0  # markedly pooled


# A diagram small enough for the unit suite: the same settings as the CLI's
# large-epsilon smoke test, outside the fold regime but with one scan event.
SMALL_DIAGRAM = dict(epsilon=0.1, m=32, step_q=0.002, step_m=0.05, max_points=40,
                     min_mass=3.0)


class TestTraceStates:
    def test_states_sit_on_their_path_points(self):
        path, states, field = trace_bifurcation(**SMALL_DIAGRAM)
        assert len(path.events) >= 1
        assert len(states) == len(path.points)
        tol = 1e-9  # trace_bifurcation's residual_tol
        for p, s in zip(path.points, states):
            assert abs(s.Q - p.x) <= tol
            assert abs(s.M - p.y) <= tol
            assert np.max(np.abs(residual_fixed_Q(s.h, s.Q, field.epsilon, field.grid))) < 1e-10
        # each point's state is the one kept at its mass
        assert all(field.states[p.y] is s for p, s in zip(path.points, states))

    def test_no_solve_after_trace_returns(self, monkeypatch):
        calls = {"during": 0, "after": 0}
        phase = {"now": "before"}
        real_trace = foldtrace.tracer.trace  # trace_bifurcation imports it per call
        real_at_M, real_vector = lubrication.solve_at_M, lubrication.solve_vector

        def traced(*args, **kwargs):
            phase["now"] = "during"
            path = real_trace(*args, **kwargs)
            phase["now"] = "after"
            return path

        def counting(real):
            def wrapper(*args, **kwargs):
                if phase["now"] in calls:
                    calls[phase["now"]] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(foldtrace.tracer, "trace", traced)
        monkeypatch.setattr(lubrication, "solve_at_M", counting(real_at_M))
        monkeypatch.setattr(lubrication, "solve_vector", counting(real_vector))  # any Newton solve
        trace_bifurcation(**SMALL_DIAGRAM)
        assert phase["now"] == "after"
        assert calls["during"] > 0
        assert calls["after"] == 0

    def test_one_field_serves_a_second_trace(self, monkeypatch):
        # a second trace of the field takes the same path, and each of its points
        # is answered by the state the first trace kept at its mass
        real_trace = foldtrace.tracer.trace  # trace_bifurcation imports it per call
        runs = []

        def twice(field, *args, **kwargs):
            first = real_trace(field, *args, **kwargs)
            kept = dict(field.states)
            runs.append((first, real_trace(field, *args, **kwargs), kept, field.states))
            return first

        monkeypatch.setattr(foldtrace.tracer, "trace", twice)
        trace_bifurcation()
        (first, second, kept, states), = runs
        assert second.points == first.points and second.flags == first.flags
        assert [(e.index, e.kind) for e in second.events] == [(e.index, e.kind) for e in first.events]
        assert list(states.items())[:len(kept)] == list(kept.items())
        assert all(states[p.y] is kept[p.y] for p in second.points)

    def test_missing_state_is_an_error(self, monkeypatch):
        real_trace = foldtrace.tracer.trace  # trace_bifurcation imports it per call

        def forgetful(field, *args, **kwargs):
            path = real_trace(field, *args, **kwargs)
            field.states.clear()
            return path

        monkeypatch.setattr(foldtrace.tracer, "trace", forgetful)
        with pytest.raises(TraceError, match="no converged state"):
            trace_bifurcation(**SMALL_DIAGRAM)

    def test_seed_at_the_mass_floor_is_traced(self):
        # the seed solved at M = 1 lands an ulp below it; the trace starts on
        # the floor instead of being rejected as outside its domain
        path, states, _field = trace_bifurcation(seed_mass=1.0, min_mass=1.0, max_points=5)
        assert path.points[0].y == 1.0 and states[0].M < 1.0
        assert len(path.points) == 5

    @pytest.mark.parametrize("setting, message", [
        ({"scan_n": 0}, "mesh_count"),
        ({"step_q": -1.0}, "step must be positive"),
        ({"max_points": 1}, "max_points"),
        ({"min_mass": 100.0}, "seed_mass 6.28319 lies below min_mass 100"),
        ({"initial": "z"}, "cannot parse direction"),
        ({"m": 7}, "m must be even"),
        ({"m": 2050}, r"m must be even and in \[8, 2048\], got 2050"),
        ({"m": 128.0}, "^m must be an integer, got 128.0"),
        ({"epsilon": float("nan")}, "epsilon must be positive"),
        ({"scan_n": 8.5}, "mesh_count must be an integer"),
        ({"scan_k": 2.5}, "reference_lag must be an integer"),
        ({"max_points": 100.5}, "max_points must be an integer"),
        ({"seed_mass": 0.2}, "seed_mass 0.2 lies below min_mass 0.3"),
        ({"seed_mass": 2.0, "min_mass": 2.5}, "seed_mass 2 lies below min_mass 2.5"),
        ({"seed_mass": -1.0}, "^seed_mass must be positive and finite"),
        ({"min_mass": float("nan")}, "^min_mass must be finite"),
        ({"min_mass": -float("inf")}, "^min_mass must be finite"),
    ])
    def test_bad_settings_fail_before_the_seed_solve(self, monkeypatch, setting, message):
        def no_seed(self, M, Q0=None):
            raise AssertionError("the seed solve ran")

        monkeypatch.setattr(BifurcationField, "seed", no_seed)
        with pytest.raises(ValueError, match=message):
            trace_bifurcation(**setting)


_tags = itertools.count(1)


def _state(Q, M, m=8):
    # a distinct profile per state, so a pick is identified by its h
    return LubricationState(h=np.full(m, float(next(_tags))), Q=Q, M=M, epsilon=1e-3)


def _keep(field, state):
    # keep the state at its row number as its bordered-solve mass: the lookup reads the
    # state's (Q, M), and the test states need not have distinct masses
    field._remember(state, float(len(field.states)))


class TestWarmStartLookup:
    @staticmethod
    def _min_lookup(states, Q, M):
        # the first-minimum scan the vectorised lookup replaced
        return min(states, key=lambda s: (s.Q - Q) ** 2 + (s.M - M) ** 2)

    def _assert_same_pick(self, field, states, probes):
        for Q, M in probes:
            picks = field._nearest(Q, M)
            h0, Q0 = _nearest_film(field, Q, M)
            expected = self._min_lookup(states, Q, M)
            assert field.states[picks[0]] is expected
            assert Q0 == expected.Q
            assert h0 is expected.h
            # each later pick is the first minimum over the states not yet picked
            assert len(picks) == min(len(states), 3)
            others = list(states)
            for pick in picks:
                expected = self._min_lookup(others, Q, M)
                assert field.states[pick] is expected
                others = [s for s in others if s is not expected]

    def test_exact_ties_pick_the_oldest(self):
        field = BifurcationField(1e-3, SpectralGrid.build(8))
        # four states at distance 1 from (0, 0), one per axis direction,
        # then a duplicate of the first: min() keeps the first inserted
        states = [_state(Q, M) for Q, M in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                                            (1.0, 0.0)]]
        for state in states:
            _keep(field, state)
        h0, Q0 = _nearest_film(field, 0.0, 0.0)
        assert Q0 == 1.0 and np.array_equal(h0, states[0].h)
        self._assert_same_pick(field, states, [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.0, -2.0)])

    def test_same_pick_as_a_scan_of_every_kept_state(self):
        # 23 insertions: every state stays in the record in insertion
        # order, and after each one every pick equals a first-minimum scan
        # of all of them, ties on the integer lattice included
        field = BifurcationField(1e-3, SpectralGrid.build(8))
        rng = np.random.default_rng(7)
        grid_points = [(float(q), float(m)) for q, m in rng.integers(0, 4, size=(23, 2))]
        probes = [(float(q), float(m)) for q, m in rng.uniform(-1, 5, size=(10, 2))]
        probes += [(1.5, 1.5), (0.0, 0.0), (3.0, 3.0)]  # integer lattice: many ties
        states = []
        for i, (Q, M) in enumerate(grid_points):
            state = _state(Q + 1e-3 * (i % 2), M)
            _keep(field, state)
            states.append(state)
            assert list(field.states.values()) == states
            self._assert_same_pick(field, states, probes)
            h0, Q0 = _nearest_film(field, states[0].Q, states[0].M)
            assert Q0 == states[0].Q and np.array_equal(h0, states[0].h)

    def test_record_matches_a_plain_list_past_its_growth(self):
        # 600 insertions on a 3 x 3 integer lattice, so nearly every probe
        # ties, and enough to grow the record's capacity past its first
        # doubling; at every stage the lookup equals a first-minimum scan of
        # a plain list that appends every inserted state and drops none
        field = BifurcationField(1e-3, SpectralGrid.build(8))
        rng = np.random.default_rng(11)
        states = []
        probes = [(float(q), float(m)) for q, m in rng.integers(0, 3, size=(6, 2))]
        probes += [(float(q), float(m)) for q, m in rng.uniform(-1, 4, size=(2, 2))]
        for Q, M in rng.integers(0, 3, size=(600, 2)):
            state = _state(float(Q), float(M))
            _keep(field, state)
            states.append(state)
            self._assert_same_pick(field, states, probes)
        assert list(field.states.values()) == states

    def test_third_pick_is_the_oldest_of_the_next_nearest(self):
        field = BifurcationField(1e-3, SpectralGrid.build(8))
        # distances from the origin: 3, 1, 2, 1, 2, 2
        states = [_state(Q, M) for Q, M in [(3.0, 0.0), (1.0, 0.0), (0.0, 2.0), (0.0, 1.0),
                                            (-2.0, 0.0), (2.0, 0.0)]]
        for state in states[:2]:
            _keep(field, state)
        assert field._nearest(0.0, 0.0) == [1.0, 0.0]  # masses of rows 1 and 0
        for state in states[2:]:
            _keep(field, state)
        assert field._nearest(0.0, 0.0) == [1.0, 3.0, 2.0]

    def test_an_unseeded_field_raises(self):
        field = BifurcationField(1e-3, SpectralGrid.build(8))
        assert field._nearest(0.6, TWO_PI) == []
        with pytest.raises(ValueError, match="seed"):
            field(0.6, TWO_PI)
        assert field.counts["bordered"] == 0 and not field.states


def _seeded_field():
    field = BifurcationField(0.1, SpectralGrid.build(32))
    return field, field.seed(TWO_PI)


def _logging_solves(monkeypatch, fail_at_M=0):
    """Log every solve_at_M start (h0, Q0), and every Newton solve outside one,
    in order; the first `fail_at_M` bordered solves raise NoConvergence
    instead of running."""
    log = []
    bordered = []  # the bordered solve running now, if any
    real_at_M, real_vector = lubrication.solve_at_M, lubrication.solve_vector

    def at_M(M, epsilon, grid, h0, Q0, *args):
        log.append(("M", np.array(h0), Q0))
        if len(log) <= fail_at_M:
            raise NoConvergence("forced", iterations=0)
        bordered.append(M)
        try:
            return real_at_M(M, epsilon, grid, h0, Q0, *args)
        finally:
            bordered.pop()

    def vector(*args, **kwargs):
        if not bordered:
            log.append(("other",))
        return real_vector(*args, **kwargs)

    monkeypatch.setattr(lubrication, "solve_at_M", at_M)
    monkeypatch.setattr(lubrication, "solve_vector", vector)
    return log


class TestPredictedStarts:
    def test_same_mass_probe_reuses_the_state_without_a_solve(self, monkeypatch):
        field, seed = _seeded_field()
        field(seed.Q, TWO_PI + 0.05)  # a second state, solved at a new mass
        kept = list(field.states.values())
        probes = [(seed.Q + 0.01, TWO_PI, seed), (0.5, TWO_PI + 0.05, kept[1])]
        # what a bordered solve from the state would return: the state itself
        expected = [solve_at_M(M, 0.1, field.grid, state.h, state.Q, 1e-11, 12).Q - Q
                    for Q, M, state in probes]
        log = _logging_solves(monkeypatch)
        for (Q, M, state), value in zip(probes, expected):
            assert field(Q, M) == value == state.Q - Q
            assert field.states[M] is state
        assert log == []
        assert list(field.states.values()) == kept
        assert field.counts["reused"] == 2

    def test_two_kept_states_start_from_the_nearest(self, monkeypatch):
        field, seed = _seeded_field()
        field(seed.Q, TWO_PI + 0.05)  # one state kept so far: start from the seed
        s1 = field.states[TWO_PI + 0.05]
        log = _logging_solves(monkeypatch)
        field(s1.Q, TWO_PI + 0.1)  # two kept states: still no prediction
        (_, h0, Q0), = log
        assert np.array_equal(h0, s1.h) and Q0 == s1.Q
        assert (field.counts["quadratic"], field.counts["retried"]) == (0, 0)

    def test_quadratic_start_through_the_three_nearest_states(self, monkeypatch):
        field, seed = _seeded_field()
        for dM in (0.05, 0.12):  # both start from the nearest state
            field(seed.Q, TWO_PI + dM)
        assert field.counts["quadratic"] == 0
        s1, s2 = (field.states[TWO_PI + dM] for dM in (0.05, 0.12))
        log = _logging_solves(monkeypatch)
        M = TWO_PI + 0.2
        field(s2.Q, M)
        (_, h0, Q0), = log
        # Lagrange weights: the quadratic through (M_i - M, z_i) evaluated at 0
        offsets = np.array([0.12, 0.05, 0.0]) + TWO_PI - M
        weights = np.linalg.solve(np.vander(offsets, 3, increasing=True).T, [1.0, 0.0, 0.0])
        expected = [s2, s1, seed]
        assert np.allclose(h0, sum(w * s.h for w, s in zip(weights, expected)), rtol=0, atol=1e-12)
        assert Q0 == pytest.approx(sum(w * s.Q for w, s in zip(weights, expected)), abs=1e-12)
        assert field.counts["quadratic"] == 1

    def test_a_nearer_state_at_another_mass_does_not_solve_a_kept_mass_again(self, monkeypatch):
        field, seed = _seeded_field()
        field(seed.Q, TWO_PI + 0.05)
        Q = field.states[TWO_PI + 0.05].Q - 1.0  # on the far side from the seed's flux
        assert field._nearest(Q, TWO_PI)[0] == TWO_PI + 0.05
        log = _logging_solves(monkeypatch)
        # the state solved at 2*pi + 0.05 lies nearer, but the seed's mass is solved
        assert field(Q, TWO_PI) == seed.Q - Q
        assert log == [] and field.counts["reused"] == 1

    def test_seed_at_a_solved_mass_returns_the_kept_state(self, monkeypatch):
        field, seed = _seeded_field()
        field(seed.Q, TWO_PI + 0.05)
        counts = field.counts
        log = _logging_solves(monkeypatch)
        assert field.seed(TWO_PI) is seed
        assert field.seed(TWO_PI + 0.05) is field.states[TWO_PI + 0.05]
        assert log == [] and field.counts == counts

    def test_nearest_state_when_the_quadratic_film_is_not_positive(self, monkeypatch):
        field, seed = _seeded_field()
        field(seed.Q, TWO_PI + 0.05)
        # a thin third state: the quadratic back to 2*pi - 0.1 is 6 h0 - 8 h1 + 3 h2 < 0
        thin = LubricationState(h=0.5 * seed.h, Q=seed.Q, M=TWO_PI + 0.1, epsilon=0.1)
        field._remember(thin, thin.M)
        direct = solve_at_M(TWO_PI - 0.1, 0.1, field.grid, seed.h, seed.Q, 1e-11, 12).Q - seed.Q
        log = _logging_solves(monkeypatch)
        value = field(seed.Q, TWO_PI - 0.1)
        (_, h0, Q0), = log
        assert np.array_equal(h0, seed.h) and Q0 == seed.Q
        assert value == direct
        assert (field.counts["quadratic"], field.counts["retried"]) == (0, 0)

    @staticmethod
    def _three_masses():
        # a seeded field with states kept at three distinct masses
        field, seed = _seeded_field()
        for dM in (0.05, 0.12):
            field(seed.Q, TWO_PI + dM)
        return field

    def test_failed_quadratic_start_retries_from_the_nearest(self, monkeypatch):
        field = self._three_masses()
        s2 = field.states[TWO_PI + 0.12]
        direct = solve_at_M(TWO_PI + 0.2, 0.1, field.grid, s2.h, s2.Q, 1e-11, 12).Q - s2.Q
        log = _logging_solves(monkeypatch, fail_at_M=1)
        value = field(s2.Q, TWO_PI + 0.2)
        assert [entry[0] for entry in log] == ["M", "M"]  # no other solve ran
        assert not np.array_equal(log[0][1], s2.h)
        assert np.array_equal(log[1][1], s2.h) and log[1][2] == s2.Q
        assert value == pytest.approx(direct, abs=1e-10)
        assert (field.counts["quadratic"], field.counts["retried"]) == (1, 1)

    def test_failed_retry_raises_without_a_fixed_flux_solve(self, monkeypatch):
        field = self._three_masses()
        kept = dict(field.states)
        log = _logging_solves(monkeypatch, fail_at_M=2)
        with pytest.raises(FieldEvaluationError, match="bordered solve failed.*forced"):
            field(kept[TWO_PI + 0.12].Q, TWO_PI + 0.2)
        assert [entry[0] for entry in log] == ["M", "M"]  # quadratic start, retry; nothing else
        assert field.states == kept
        assert (field.counts["quadratic"], field.counts["retried"]) == (1, 1)
        assert list(field.counts) == ["bordered", "reused", "quadratic", "retried",
                                      "factorizations", "chord"]


class TestDerivativeOperator:
    def test_built_once_and_read_only(self, grid32):
        op = grid32.derivative_operator(1e-3)
        assert grid32.derivative_operator(1e-3) is op
        assert not op.flags.writeable
        assert np.array_equal(op, (1e-3 / 3.0) * (grid32.d1 + grid32.d3))

    def test_jacobian_bit_identical_to_dense_build(self, grid32):
        rng = np.random.default_rng(3)
        for grid in (grid32, SpectralGrid.build(128)):
            m = grid.m
            h = 0.5 + rng.random(m)
            Q, eps = 0.7, 1e-3
            dense = (eps / 3.0) * (grid.d1 + grid.d3) + np.diag(3.0 * Q / h**4 - 2.0 / h**3)
            J = augmented_jacobian(np.concatenate([h, [Q]]), eps, grid)
            assert J.shape == (m + 1, m + 1)
            assert np.array_equal(J[:m, :m], dense)
            assert np.array_equal(J[:m, m], -1.0 / h**3)
            assert np.all(J[m, :m] == grid.weight) and J[m, m] == 0.0

    def test_every_newton_iteration_is_one_factorization(self, monkeypatch):
        # Newton iterations are counted by `iterations`, and each one is a
        # single rootfind.LUHolder.factor; chord steps between them are not
        grid = SpectralGrid.build(32)
        shapes = _spy_factorizations(monkeypatch)
        state = solve_at_M(TWO_PI, 0.1, grid, np.full(32, 1.0), 1.0)
        assert state.iterations >= 2
        assert len(shapes) == state.iterations
        assert set(shapes) == {(33, 33)}


def _spy_factorizations(monkeypatch):
    """Record the shape of every matrix handed to rootfind.LUHolder.factor."""
    real = rootfind.LUHolder.factor
    shapes = []

    def counting(self, A):
        shapes.append(np.shape(A))
        real(self, A)

    monkeypatch.setattr(rootfind.LUHolder, "factor", counting)
    return shapes


@pytest.fixture(scope="module")
def default_diagram_counts():
    """Trace the default diagram once, counting field evaluations,
    factorizations, LU solves, Newton solves outside the bordered ones and
    residual evaluations."""
    residuals = []
    lu_solves = []
    newton = []  # every Newton solve; each solve_at_M runs one
    at_M = []  # per bordered solve: whether a field evaluation made it
    solved_masses = []  # of every bordered solve in an evaluation that converged
    evaluations = []
    inside = []  # the evaluation running now, if any
    real_residual, real_vector = lubrication.residual_fixed_Q, lubrication.solve_vector
    real_at_M = lubrication.solve_at_M
    real_call = BifurcationField.__call__
    getrf, real_getrs = rootfind._lapack()
    real_step = foldtrace.tracer.step
    steps = []

    def counting_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    def counting_call(self, Q, M):
        evaluations.append((Q, M))
        inside.append((Q, M))
        try:
            return real_call(self, Q, M)
        finally:
            inside.pop()

    def counting_at_M(M, *args, **kwargs):
        at_M.append(bool(inside))
        state = real_at_M(M, *args, **kwargs)
        if inside:
            solved_masses.append(M)
        return state

    def counting_residual(*args, **kwargs):
        residuals.append(1)
        return real_residual(*args, **kwargs)

    def counting_vector(*args, **kwargs):
        newton.append(1)
        return real_vector(*args, **kwargs)

    def counting_getrs(*args, **kwargs):
        lu_solves.append(1)
        return real_getrs(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        shapes = _spy_factorizations(mp)
        mp.setattr(lubrication, "residual_fixed_Q", counting_residual)
        mp.setattr(lubrication, "solve_vector", counting_vector)
        mp.setattr(lubrication, "solve_at_M", counting_at_M)
        mp.setattr(BifurcationField, "__call__", counting_call)
        mp.setattr(rootfind, "_lapack", lambda: (getrf, counting_getrs))
        mp.setattr(foldtrace.tracer, "step", counting_step)
        path, _states, field = trace_bifurcation()
    return dict(path=path, field=field, factorizations=len(shapes), steps=len(steps),
                unbordered=len(newton) - len(at_M),  # such as a fixed-flux solve
                residuals=len(residuals), evaluations=len(evaluations), bordered=len(at_M),
                bordered_in_evaluations=sum(at_M), lu_solves=len(lu_solves),
                solved_masses=solved_masses)


class TestFactorizationReuse:
    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, np.inf])
    def test_bad_start_raises_before_any_factorization(self, monkeypatch, grid32, bad):
        shapes = _spy_factorizations(monkeypatch)
        h0 = np.ones(32)
        h0[3] = bad
        with pytest.raises(NonpositiveThickness):
            solve_at_M(TWO_PI, 0.1, grid32, h0, 1.0)
        with pytest.raises(NonpositiveThickness):
            _fixed_flux(1.0, 0.1, grid32, h0)
        assert shapes == []

    def test_default_diagram_reuses_the_bordered_factorization(self, default_diagram_counts):
        # the whole default diagram made 1,468 factorizations when every
        # Newton iteration factored; the shared one brought it to 373, the
        # tracer's march predictor to 336, and the field's own predicted
        # starts (same-mass reuse, a two-point start in (h, Q)) to 243,
        # dropping the fixed-flux fallback, whose one attempt failed, to
        # 231, and the quadratic start to 224; locating the fold before its
        # scan made it 225, and the path 279 points, from 280
        path = default_diagram_counts["path"]
        assert len(path.points) == 279 and len(path.events) == 1
        assert path.termination.name == "LEFT_DOMAIN"
        assert default_diagram_counts["unbordered"] == 0
        assert 0 < default_diagram_counts["factorizations"] <= 232

    def test_default_diagram_residual_budget(self, default_diagram_counts):
        # 2,039 residual evaluations, all in bordered solves, per diagram
        # (2,040 while a mass could be solved twice, 2,033 before the fold
        # was located ahead of its scan);
        # 2,564 with a two-point start in place of the quadratic, 2,640
        # with the fixed-flux fallback, 3,648 before the predicted starts,
        # 4,208 before the tracer's march predictor
        assert 0 < default_diagram_counts["residuals"] <= 2150

    def test_default_diagram_lu_solve_budget(self, default_diagram_counts):
        # 1,588 LU solves: one per chord step and one per factorization;
        # 1,582 before the fold was located ahead of its scan, 2,113 with a
        # two-point start in place of the quadratic
        assert 0 < default_diagram_counts["lu_solves"] <= 1700

    def test_default_diagram_field_evaluation_budget(self, default_diagram_counts):
        # 884 field evaluations, 474 of them answered by a state already
        # solved at the probed mass (473 while only the nearest state could
        # answer); 880 before the fold was located ahead of
        # its scan, 1,031 before the tracer's march predictor
        assert 0 < default_diagram_counts["evaluations"] <= 950

    def test_default_diagram_solves_every_march_step(self, default_diagram_counts):
        # The field is stateful: each evaluation warm-starts from the states
        # solved before it. No march step repeats on this diagram, so the
        # tracer's step memo answers none of them and the field sees the same
        # 884 evaluations in the same order as without it. One step per point
        # after the start but the located fold, which no step returns, and one
        # more that leaves the domain.
        assert default_diagram_counts["steps"] == len(default_diagram_counts["path"].points) - 1
        assert default_diagram_counts["evaluations"] == 884

    def test_default_diagram_solves_each_mass_once(self, default_diagram_counts):
        # the seed's mass, then the mass of every bordered solve an evaluation
        # made, in order: the states the field keeps. When only the nearest state
        # could answer a probe at its own mass, a nearer state solved at another
        # mass made the diagram solve one mass twice
        masses = [TWO_PI] + default_diagram_counts["solved_masses"]
        assert len(set(masses)) == len(masses) == 410
        assert list(default_diagram_counts["field"].states) == masses

    def test_readme_quotes_the_default_diagram_counts(self, default_diagram_counts, readme):
        # a change that moves these counts has to update README too
        line = re.search(r"^film solves: (.*)$", readme, re.M).group(1)
        quoted = [(k, int(v)) for k, v in (item.rsplit(" ", 1) for item in line.split(", "))]
        counts = default_diagram_counts["field"].counts
        assert quoted == list(counts.items())
        figures = re.search(r"([\d,]+) LU solves \(([\d,]+) chord steps and ([\d,]+)\s+"
                            r"factorizations\) and ([\d,]+) residuals", readme)
        lu_solves, chord, factorizations, residuals = (int(g.replace(",", "")) for g in figures.groups())
        assert lu_solves == default_diagram_counts["lu_solves"]
        assert (chord, factorizations) == (counts["chord"], default_diagram_counts["factorizations"])
        assert residuals == default_diagram_counts["residuals"]

    def test_field_counts_agree_with_the_spies(self, default_diagram_counts):
        counts = default_diagram_counts["field"].counts
        assert counts["bordered"] == default_diagram_counts["bordered"]
        assert counts["factorizations"] == default_diagram_counts["factorizations"]
        # an evaluation is reused or makes one bordered solve, two when retried
        assert counts["reused"] == (default_diagram_counts["evaluations"] + counts["retried"]
                                 - default_diagram_counts["bordered_in_evaluations"])
        assert counts["reused"] > 0 and 0 < counts["quadratic"] < counts["bordered"]
        # every LU solve is a chord step or the step of a factorization
        assert counts["chord"] + counts["factorizations"] == default_diagram_counts["lu_solves"]


@pytest.mark.parametrize("m, points, event_index", [(64, 281, 47), (128, 279, 45),
                                                     (256, 279, 45)])
def test_diagram_keeps_its_shape_across_grid_sizes(m, points, event_index):
    path, _states, _field = trace_bifurcation(m=m)
    assert len(path.points) == points
    assert [event.index for event in path.events] == [event_index]
    assert path.termination.name == "LEFT_DOMAIN"


def test_small_surface_tension_diagram_gets_past_its_first_point():
    # at epsilon=3e-4 the first slice solve has no secant to size its bracket
    # and once stalled at the seed; the widened first-step floor now carries
    # it on. Where the event falls moves with m, a resolution question, so
    # only the march past the seed is pinned.
    path, states, _field = trace_bifurcation(epsilon=3e-4, m=128)
    assert len(path.points) == len(states) > 2
    assert path.flags[:2] == ["ordinary", "ordinary"]
    assert all(event.index > 0 for event in path.events)


def test_plus_y_diagram_runs_no_fixed_flux_solve(monkeypatch):
    # marching +M reaches a fold near M = 11.5, where a fixed-flux fallback
    # used to answer 5 of its 6 attempts and the slice solves stalled anyway;
    # bordered solves alone give the same 300 points at 158 factorizations
    # (241 with the fallback)
    shapes = _spy_factorizations(monkeypatch)
    sizes = []  # of every Newton solve's unknowns
    real_vector = lubrication.solve_vector

    def sizing(F, x0, *args, **kwargs):
        sizes.append(np.size(x0))
        return real_vector(F, x0, *args, **kwargs)

    monkeypatch.setattr(lubrication, "solve_vector", sizing)
    path, _states, field = trace_bifurcation(initial="+y")
    assert len(path.points) == 300
    assert [(event.index, event.kind) for event in path.events] == [(261, TurningPointKind.TYPE2)]
    assert path.termination.name == "MAX_POINTS"
    assert set(sizes) == {field.grid.m + 1}  # every solve is bordered
    assert 0 < len(shapes) <= 170
