import math
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import foldtrace
import foldtrace.rootfind as rootfind

from foldtrace.errors import FieldEvaluationError, NoConvergence, SingularMatrix
from foldtrace.geometry import cbrt
from foldtrace.rootfind import (
    LUHolder,
    itp,
    solve_scalar,
    solve_vector,
)

from conftest import fd_jacobian


class TestSolveScalar:
    def test_known_quadratic_root(self):
        root = solve_scalar(lambda x: x * x - 4.0, 3.0)
        assert abs(root - 2.0) < 1e-9

    def test_no_real_root_raises(self):
        with pytest.raises(NoConvergence) as info:
            solve_scalar(lambda x: x * x + 1.0, 1.0)
        assert info.value.last_iterate is not None
        assert info.value.residual is not None

    def test_astroid_slice_closed_form(self):
        # f(0.5, y) = 0 rearranges to y = (1 - 0.5^(2/3))^(3/2)
        expected = (1.0 - 0.5 ** (2.0 / 3.0)) ** 1.5
        root = solve_scalar(lambda y: 0.5 ** (2.0 / 3.0) + abs(y) ** (2.0 / 3.0) - 1.0, 0.6)
        assert abs(root - expected) < 1e-9

    def test_cusp_tangential_root(self):
        # |y|^(2/3) has a root at zero with unbounded derivative; the
        # relative finite-difference step is what makes this converge, and
        # the multiplicity step what makes it fast (about 80 evaluations
        # with plain Newton, which keeps 0.63 of |g| per step).
        g, calls = _counted(lambda y: cbrt(y) ** 2)
        root = solve_scalar(g, 5.46e-4, tol=1e-10, max_iter=60)
        assert abs(root) < 1e-14
        assert len(calls) <= 25

    def test_cancellation_prone_residual(self):
        # x^2 + 1 - 1 quantizes to identical doubles under a tiny fd step
        root = solve_scalar(lambda x: x * x + 1.0 - 1.0, 0.31225)
        assert abs(root) <= 1e-5

    def test_bracket_confines_root(self):
        with pytest.raises(NoConvergence):
            solve_scalar(lambda x: x - 10.0, 0.0, bracket=(-1.0, 1.0))

    def test_bisection_rescue_on_sign_change(self):
        # steep kink defeats Newton; endpoint probing finds the bracket
        def g(x):
            return math.copysign(abs(x - 0.3) ** 0.2, x - 0.3)

        root = solve_scalar(g, 0.0, tol=1e-6, bracket=(-1.0, 1.0), max_iter=50)
        assert abs(root - 0.3) < 1e-6

    def test_config_validation(self):
        # both solvers check their settings before the first evaluation
        calls = []
        vector = partial(solve_vector, jac=lambda x: calls.append(x) or np.eye(1))
        for solve, x0 in ((solve_scalar, 1.0), (vector, [1.0])):
            for settings in ({"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
                             {"max_iter": 0}):
                with pytest.raises(ValueError):
                    solve(lambda x: calls.append(x) or x, x0, **settings)
        assert not calls


def _counted(g):
    """Wrap a residual so its evaluations are recorded."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)

    return wrapped, calls


class TestSolveScalarExits:
    """The loop's last exits and the input checks, each reached on purpose."""

    def test_budget_spent_without_a_root(self):
        with pytest.raises(NoConvergence, match="no root after 1 iterations") as info:
            solve_scalar(lambda t: t * t - 2.0, 10.0, max_iter=1)
        assert info.value.iterations == 1
        assert info.value.last_iterate == pytest.approx(5.1)

    def test_sign_change_in_the_last_step_finishes_by_itp(self):
        # Newton's one step from 1.5 overshoots atan's root to about -1.7;
        # the budget is spent, and ITP finishes on the bracket it made
        root = solve_scalar(math.atan, 1.5, max_iter=1)
        assert abs(root) <= 1e-10

    def test_a_bracket_end_that_raises_is_skipped(self):
        # Newton from -1 stalls at the rootless minimum near 1; of the two
        # bracket ends probed, -2 cannot be evaluated and 5 shows the sign change
        probes = []

        def g(t):
            probes.append(t)
            if t < -1.5:
                raise FieldEvaluationError("outside the field's domain")
            return 0.1 + (t - 1.0) ** 2 - 3.0 * max(t - 3.0, 0.0) ** 3

        root = solve_scalar(g, -1.0, bracket=(-2.0, 5.0))
        assert probes.index(-2.0) + 1 == probes.index(5.0)  # probed in turn, after the stall
        assert abs(probes[probes.index(-2.0) - 1] - 1.0) < 0.05
        assert root == pytest.approx(4.6469, abs=1e-4) and abs(g(root)) <= 1e-10

    def test_bracket_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            solve_scalar(lambda t: t, 0.0, bracket=(1.0, -1.0))

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_non_finite_start(self, x0):
        with pytest.raises(NoConvergence, match="not finite at start"):
            solve_scalar(lambda t: t, x0)


class TestITP:
    def test_nan_inside_the_bracket_raises(self):
        def g(t):
            return math.nan if 0.3 < t < 0.7 else t - 0.5

        with pytest.raises(NoConvergence, match="non-finite"):
            itp(g, (0.0, -0.5), (1.0, 0.5), 1e-12)

    @pytest.mark.parametrize("neg, pos, root", [
        ((0.0, -1e-13), (1.0, 0.5), 0.0),
        ((0.0, -0.5), (1.0, 1e-13), 1.0),
    ])
    def test_an_end_within_tol_is_the_root(self, neg, pos, root):
        def g(t):
            raise AssertionError("no evaluation needed")

        assert itp(g, neg, pos, 1e-12) == root


class TestSolveScalarBudget:
    """Field evaluations per slice solve: on the lubrication diagram each one
    is a bordered Newton solve, so these counts are the solver's cost."""

    @pytest.mark.parametrize("g, x0, bracket, root", [
        (lambda y: 0.3 ** 2 + y * y - 1.0, 0.9, (0.4, 1.4), math.sqrt(0.91)),
        (lambda y: 0.5 ** (2.0 / 3.0) + abs(y) ** (2.0 / 3.0) - 1.0, 0.6, (0.1, 1.1),
         (1.0 - 0.5 ** (2.0 / 3.0)) ** 1.5),
        (lambda t: math.tanh(5.0 * (t - 0.3)), 0.0, (-1.0, 1.0), 0.3),
        (lambda t: math.exp(t) - 2.0, 0.0, (-1.0, 1.0), math.log(2.0)),
    ], ids=["circle", "astroid", "tanh", "exp"])
    def test_sign_bracketed_smooth_slice(self, g, x0, bracket, root):
        counted, calls = _counted(g)
        x = solve_scalar(counted, x0, bracket=bracket)
        assert abs(g(x)) <= 1e-10 and abs(x - root) < 1e-9
        # the finish ran on a sign change: evaluations on both sides of the root
        assert min(calls) < root < max(calls)
        assert len(calls) <= 12

    @pytest.mark.parametrize("g, x0, root", [
        (lambda y: 0.3 ** 2 + y * y - 1.0, 0.96, math.sqrt(0.91)),
        (lambda t: math.exp(t) - 2.0, 0.7, math.log(2.0)),
    ], ids=["circle", "exp"])
    def test_secant_follows_a_tenfold_newton_step(self, g, x0, root):
        # start, one finite-difference Newton step, one secant step: a
        # third finite difference (7 evaluations) is not needed
        counted, calls = _counted(g)
        x = solve_scalar(counted, x0)
        assert abs(g(x)) <= 1e-10 and abs(x - root) < 1e-9
        assert len(calls) <= 5

    @pytest.mark.parametrize("p, c, tol, budget", [
        (1.0 / 3.0, 0.0, 1e-5, 16),
        (2.0 / 3.0, 0.0, 1e-10, 12),
        (2.0, 0.3, 1e-10, 40),
    ], ids=["p=1/3", "p=2/3", "p=2"])
    @pytest.mark.parametrize("x0, bracket", [
        (1e-3, None), (-0.02, None), (0.5, (-2.0, 2.0)), (1.7, (-2.0, 2.0)),
    ])
    def test_power_law_zero(self, p, c, tol, budget, x0, bracket):
        # |t - c|^p touches zero without a sign change. For p < 1 Newton
        # keeps the same share of |g| at every step (damped for p = 1/3),
        # at a cost of 60 to 150 evaluations; the multiplicity step lands on
        # the zero. p = 2 keeps a quarter per step, outside the window the
        # multiplicity step watches, so it costs what plain Newton does.
        # The finite-difference step reaches |t - c| of about 1e-15 only
        # at c = 0 for p < 1, hence the tolerances.
        g, calls = _counted(lambda t: abs(t - c) ** p)
        x = solve_scalar(g, x0, tol, bracket=bracket)
        assert abs(x - c) ** p <= tol
        assert len(calls) <= budget

    @pytest.mark.xfail(raises=NoConvergence, strict=True,
                       reason="open defect: the relative finite-difference step straddles "
                              "a kink away from the origin")
    def test_power_law_zero_off_the_origin(self):
        # the zero a cusp tip off the coordinate axes gives a slice; the
        # step of about 1.5e-8*|t| straddles t = 0.3 once |t - 0.3| falls
        # under about 5e-9, while tol 1e-10 needs |t - 0.3| <= 1e-15
        x = solve_scalar(lambda t: abs(t - 0.3) ** (2.0 / 3.0), 0.8)
        assert abs(x - 0.3) ** (2.0 / 3.0) <= 1e-10

    @pytest.mark.parametrize("x0, evals_before", [(1.0, 52), (0.3, 42), (-0.7, 50)])
    def test_rootless_minimum_costs_no_more(self, x0, evals_before):
        # t^2 + 1e-6 never reaches zero; far from its minimum Newton keeps a
        # quarter of |g| per step, outside the multiplicity window, so the
        # stall exit fires after as many evaluations as before that step
        # existed (evals_before, measured with plain Newton steps)
        g, calls = _counted(lambda t: t * t + 1e-6)
        with pytest.raises(NoConvergence, match="rootless local minimum"):
            solve_scalar(g, x0, bracket=(-1.0, 1.0))
        assert len(calls) <= evals_before

    def test_rootless_astroid_slice_gives_up_early(self):
        # x = 1.01 is one step past the cusp at (1, 0): |y|^(2/3) never
        # reaches 1 - 1.01^(2/3) < 0, and Newton used to wander for all
        # 60 iterations (891 evaluations).
        x = 1.01
        g, calls = _counted(lambda y: x ** (2.0 / 3.0) + abs(y) ** (2.0 / 3.0) - 1.0)
        with pytest.raises(NoConvergence, match="rootless local minimum"):
            solve_scalar(g, 0.0, bracket=(-0.1, 0.1))
        assert len(calls) < 60

    @pytest.mark.parametrize("x0", [0.3, -0.7, 1.0])
    def test_x_squared_plus_one_on_a_bracket(self, x0):
        g, calls = _counted(lambda t: t * t + 1.0)
        with pytest.raises(NoConvergence):
            solve_scalar(g, x0, bracket=(-1.0, 1.0))
        assert len(calls) < 60

    def test_jump_raises_at_machine_width(self):
        # a sign change with no root: the finish narrows onto the jump
        g, calls = _counted(lambda t: -1.0 if t < 0.25 else 1.0)
        with pytest.raises(NoConvergence, match="bisection exhausted"):
            solve_scalar(g, 0.0, bracket=(-1.0, 1.0))
        jump = [c for c in calls if abs(c - 0.25) < 1e-6]
        assert jump and min(abs(c - 0.25) for c in jump) <= 1e-16

    @given(
        scale=st.floats(0.01, 100.0),
        cubic=st.floats(0.0, 10.0),
        root=st.floats(-2.0, 2.0),
        increasing=st.booleans(),
        lo=st.floats(-3.0, 3.0),
        width=st.floats(1e-3, 4.0),
        start=st.floats(0.0, 1.0),
    )
    def test_monotone_cubic_property(self, scale, cubic, root, increasing, lo, width, start):
        sign = 1.0 if increasing else -1.0

        def g(t):
            u = t - root
            return sign * scale * (u + cubic * u ** 3)

        hi = lo + width
        x0 = lo + start * width
        try:
            x = solve_scalar(g, x0, bracket=(lo, hi))
        except NoConvergence:
            assert not lo <= root <= hi  # a bracketed root is always found
            return
        assert lo <= x <= hi
        assert abs(g(x)) <= 1e-10


def _hexes(text: str):
    return [float.fromhex(h) for h in text.split()]


def _halvings(a: float, b: float, jump: float):
    """The midpoints bisection of [a, b] visits on a step at `jump`, to machine width."""
    mids = []
    while a < 0.5 * (a + b) < b:
        mids.append(0.5 * (a + b))
        a, b = (mids[-1], b) if mids[-1] < jump else (a, mids[-1])
    return mids


class TestSolveScalarAbscissae:
    """The exact abscissae a slice solve evaluates, recorded as doubles.

    Every path point of a trace is one slice solve, so these sequences pin
    the march bit for bit at the unit level: a rewrite of the solver that
    changes the arithmetic or its order changes one of them. Each case is
    (g, x0, keyword arguments, abscissae, root as a double or the
    NoConvergence message).
    """

    CASES = {
        # one finite-difference Newton step that cuts |g| tenfold, then secant steps
        "smooth_root_secant_follow_up": (
            lambda y: 0.3 ** 2 + y * y - 1.0, 0.96, {},
            _hexes("0x1.eb851eb851eb8p-1 0x1.eb851f3333335p-1 0x1.e86d3a073a38ep-1"
                   " 0x1.e86aba1953df9p-1 0x1.e86ab810ebe72p-1"),
            float.fromhex("0x1.e86ab810ebe72p-1")),
        # two steps keep the same share of |g|, then the multiplicity step lands
        "cusp_tip_multiplicity_step": (
            lambda y: cbrt(y) ** 2, 5.46e-4, {},
            _hexes("0x1.1e42e12620254p-11 0x1.1e42e16db15d9p-11 -0x1.1e42e0edb23f2p-12"
                   " -0x1.1e42e0a62086ep-12 0x1.1e42dec3ceef8p-13 0x1.1e42df0b61a73p-13"
                   " -0x1.34a5766000000p-38 -0x1.34a17612d6a26p-38 -0x1.55d554faa0000p-55"),
            float.fromhex("-0x1.55d554faa0000p-55")),
        # the astroid slice one step past its cusp: eight halvings fail to
        # descend, then the bracket ends are probed
        "rootless_minimum_endpoint_probe": (
            lambda y: 1.01 ** (2.0 / 3.0) + abs(y) ** (2.0 / 3.0) - 1.0, 0.0,
            {"bracket": (-0.1, 0.1)},
            [0.0, 2.0 ** -52] + [-float.fromhex("0x1.5a32cc44fad5bp-25") * 2.0 ** -k
                                 for k in range(9)] + [-0.1, 0.1],
            "no damped step reduced |g| (rootless local minimum)"),
        # the relative step quantizes to a zero slope; the absolute one takes over
        "cancellation_wide_step_fallback": (
            lambda t: t * t + 1.0 - 1.0, 5e-5, {},
            _hexes("0x1.a36e2eb1c432dp-15 0x1.a36e2f1aa7be8p-15 0x1.a38e2f1a9fbe8p-15"
                   " 0x1.a37aa13fae6b7p-16 0x1.a37aa1a89d13cp-16 0x1.a3baa1a88d13cp-16"
                   " 0x1.a39d51924c6fap-17 0x1.a39d51fb53c40p-17 0x1.a41d51fb33c40p-17"
                   " 0x1.a3fea0e49b421p-18"),
            float.fromhex("0x1.a3fea0e49b421p-18")),
        # both steps see a flat residual; the probe finds the sign change, the
        # negative end stays at 2^-26 (nearer the positive probe than -1), and
        # ITP halves onto the jump until the bracket reaches machine width
        "jump_bisection_exhausted": (
            lambda t: -1.0 if t < 0.25 else 1.0, 0.0, {"bracket": (-1.0, 1.0)},
            [0.0, 2.0 ** -52, 2.0 ** -26, -1.0, 1.0] + _halvings(2.0 ** -26, 1.0, 0.25),
            "bisection exhausted the bracket"),
        # the relative step is flat, the wide one crosses a steep ramp, so both
        # signs are known before the Newton iterate; that iterate lands short of
        # the flat probe, which stays the negative end because it is nearer the
        # positive probe, and ITP starts from there
        "newton_iterate_keeps_the_nearer_end": (
            lambda t: -1.0 if t < 0.50000001 else -1.0 + 101.0 * (t - 0.50000001) / 1.2e-8,
            0.5, {"tol": 1e-3},
            _hexes("0x1.0000000000000p-1 0x1.0000004000002p-1 0x1.000000c000000p-1"
                   " 0x1.00000001d8cb8p-1 0x1.0000005ad4cc0p-1 0x1.00000046ad5e5p-1"
                   " 0x1.0000004b7b83ap-1 0x1.0000004f06dbcp-1 0x1.00000052d4cc0p-1"
                   " 0x1.00000056d4cc0p-1 0x1.00000058d4cc0p-1 0x1.00000057d4cc0p-1"
                   " 0x1.0000005754cc0p-1 0x1.0000005714cc0p-1 0x1.00000056f4cc0p-1"
                   " 0x1.00000056e4cc0p-1 0x1.00000056eccc0p-1 0x1.00000056e8cc0p-1"
                   " 0x1.00000056eacc0p-1 0x1.00000056ebcc0p-1 0x1.00000056eb4c0p-1"),
            float.fromhex("0x1.00000056eb4c0p-1")),
        # the root lies just past hi: clamped to hi, the difference step turns
        # inward, the next step presses on hi, and the probe finds no sign change
        "root_pressing_the_bracket_edge": (
            lambda t: math.exp(t) - math.exp(1.0000001), 0.5, {"bracket": (0.0, 1.0)},
            [0.5, float.fromhex("0x1.0000004000002p-1"), 1.0,
             float.fromhex("0x1.ffffff7fffffep-1"), 0.0, 1.0],
            "derivative vanished or iterate left the bracket"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_exact_abscissae(self, name):
        g, x0, kwargs, abscissae, outcome = self.CASES[name]
        counted, calls = _counted(g)
        if isinstance(outcome, str):
            with pytest.raises(NoConvergence) as info:
                solve_scalar(counted, x0, **kwargs)
            assert str(info.value) == outcome
        else:
            assert solve_scalar(counted, x0, **kwargs).hex() == outcome.hex()
        assert [c.hex() for c in calls] == [a.hex() for a in abscissae]


def test_tracing_never_imports_scipy_optimize():
    # scipy.optimize costs about 20 MB and a slower start-up; the slice
    # solver is written out so the package never needs it. SciPy's LAPACK
    # bindings are imported by the first LU factorization, not before, so a
    # trace of a plain field imports no SciPy at all.
    package_root = Path(foldtrace.__file__).resolve().parent.parent
    script = ("import sys, foldtrace, numpy\n"
              "from foldtrace.astroid import trace_astroid\n"
              "from foldtrace.rootfind import LUHolder\n"
              "path = trace_astroid(0.05)\n"
              "assert len(path.events) == 2, path.events\n"
              "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules)\n"
              "held = LUHolder()\n"
              "held.factor(2.0 * numpy.eye(2))\n"
              "print('scipy.linalg' in sys.modules, held.solve(numpy.ones(2)).tolist())\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False False", "True [0.5, 0.5]"]


def _held(A) -> LUHolder:
    """A holder with A factored into it."""
    held = LUHolder()
    held.factor(A)
    return held


def _dense_solve(A, b):
    return _held(A).solve(b)


class TestDenseSolve:
    """A dense solve end to end: `LUHolder.factor(A)`, then `solve(b)`."""

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = _dense_solve(np.eye(3), b)
        assert np.array_equal(x, b)

    def test_diagonal(self):
        x = _dense_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_recovers_known_solution_50x50(self):
        rng = np.random.default_rng(7)
        A = np.eye(50) + 0.1 * rng.standard_normal((50, 50))
        x_true = rng.standard_normal(50)
        x = _dense_solve(A, A @ x_true)
        assert np.max(np.abs(x - x_true)) < 1e-9

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = np.eye(20) + 0.2 * rng.standard_normal((20, 20))
            b = rng.standard_normal(20)
            x = _dense_solve(A, b)
            norm_a = np.max(np.sum(np.abs(A), axis=1))
            bound = 1e-10 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))
            assert np.max(np.abs(A @ x - b)) <= bound

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            _dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            _dense_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            _dense_solve(np.full((2, 2), np.nan), np.ones(2))

    def test_nonfinite_rhs_rejected(self):
        # a non-finite right-hand side gives a non-finite solution: no solution
        assert _dense_solve(np.eye(3), np.array([1.0, np.inf, 0.0])) is None

    def test_exact_zero_pivot_raises_without_warning(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert scipy.linalg.lapack.dgetrf(A)[2] > 0  # getrf reports the zero pivot itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="exactly zero"):
                _dense_solve(A, np.array([1.0, 1.0]))

    def test_tiny_pivot_ratio_raises(self):
        # the second pivot is about 1e-15: nonzero, so only the ratio check catches it
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        assert scipy.linalg.lapack.dgetrf(A)[2] == 0
        with pytest.raises(SingularMatrix, match="pivot ratio"):
            _dense_solve(A, np.array([1.0, 1.0]))


class TestLUHolder:
    """One held factorization serves many right-hand sides, with every check."""

    def test_one_factorization_solves_many_rhs(self):
        A, _ = _system(33, "C", seed=4)
        held = _held(A)
        assert held.lu.shape == (33, 33) and held.factorizations == 1
        for seed in range(3):
            b = np.random.default_rng(seed).standard_normal(33)
            assert np.array_equal(held.solve(b), _dense_solve(A, b))
        assert held.factorizations == 1 and held.chord == 0

    def test_non_square_or_nonfinite_matrix(self):
        held = LUHolder()
        with pytest.raises(ValueError, match="square"):
            held.factor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            held.factor(np.full((2, 2), np.nan))
        assert held.lu is None and held.factorizations == 0

    def test_singular_matrix_keeps_the_last_factorization(self):
        held = _held(np.eye(2))
        lu = held.lu
        with pytest.raises(SingularMatrix, match="exactly zero"):
            held.factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix, match="pivot ratio"):
            held.factor(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
        assert held.lu is lu and held.factorizations == 1

    def test_rhs_checks(self):
        held = LUHolder()
        assert held.solve(np.ones(3)) is None  # nothing held
        held.factor(np.eye(3))
        assert held.solve(np.ones(2)) is None
        assert held.solve(np.array([1.0, np.nan, 0.0])) is None

    def test_one_getrs_per_solve(self, monkeypatch):
        calls = []
        getrf, real = rootfind._lapack()

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rootfind, "_lapack", lambda: (getrf, counting))
        held = _held(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(held.solve(b), b) and np.array_equal(b, [1.0, 2.0, 3.0])
        assert held.solve(np.ones(2)) is None  # a mismatched b never reaches getrs
        assert len(calls) == 1


def _lu_reference(A, b):
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)


def _system(n: int, layout: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    A = n * np.eye(n) + rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    if layout == "F":
        A = np.asfortranarray(A)
    elif layout == "strided":
        A_big = np.zeros((2 * n, 3 * n))
        A_big[::2, ::3] = A
        b_big = np.zeros(2 * n)
        b_big[::2] = b
        A, b = A_big[::2, ::3], b_big[::2]
        assert not (A.flags.c_contiguous or A.flags.f_contiguous or b.flags.contiguous)
    elif layout == "int":
        A = np.rint(4.0 * A).astype(np.int64)
        b = np.rint(4.0 * b).astype(np.int64)
    return A, b


class TestDenseSolveMatchesScipyLU:
    """The direct getrf/getrs path gives the bits of scipy's LU wrappers."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "int"])
    @pytest.mark.parametrize("n", [2, 5, 33, 129])
    def test_bit_identical_and_inputs_untouched(self, layout, n):
        A, b = _system(n, layout, seed=n)
        A_before, b_before = A.copy(), b.copy()
        x = _dense_solve(A, b)
        assert x.dtype == np.float64 and x.shape == (n,)
        assert np.array_equal(x, _lu_reference(A, b))
        assert np.array_equal(A, A_before) and np.array_equal(b, b_before)


def _rootless(v):
    return np.array([math.cos(v[0]) + 2.0])


class TestSolveVector:
    def test_circle_line_intersection(self):
        def F(v):
            x, y = v
            return np.array([x * x + y * y - 1.0, x - y])

        x, _ = solve_vector(F, np.array([1.0, 0.0]), jac=lambda v: fd_jacobian(F, v))
        assert np.allclose(x, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-10)

    def test_the_jacobian_is_required(self):
        with pytest.raises(TypeError, match="jac"):
            solve_vector(lambda v: v - 1.0, np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_start_residual_that_is_not_finite_factors_nothing(self, bad):
        held = LUHolder()
        with pytest.raises(NoConvergence, match="^residual not finite at start") as info:
            solve_vector(lambda v: np.array([v[0] - 1.0, bad]), [0.0, 0.0],
                         jac=lambda _v: np.eye(2), held=held)
        assert np.array_equal(info.value.last_iterate, [0.0, 0.0])
        assert held.factorizations == 0 and held.lu is None

    def test_linear_system_one_iteration(self):
        rng = np.random.default_rng(3)
        A = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        x, factorizations = solve_vector(lambda v: A @ v - b, np.zeros(4), jac=lambda _v: A)
        assert np.max(np.abs(A @ x - b)) < 1e-11
        assert factorizations == 1  # Newton is exact on affine residuals

    def test_convergence_on_the_last_allowed_factorization_is_counted(self):
        # the one factorization max_iter=1 allows solves an affine residual
        # exactly, and the count must include it
        A, b = _system(3, "C", seed=3)
        x, factorizations = solve_vector(lambda v: A @ v - b, np.zeros(3), max_iter=1,
                                         jac=lambda _v: A)
        assert np.max(np.abs(A @ x - b)) < 1e-11
        assert factorizations == 1

    def test_failed_line_search_counts_its_factorization(self):
        def F(v):
            if v[0] != 1.0:
                raise ValueError("outside the residual's domain")
            return np.array([v[0] - 2.0])

        with pytest.raises(NoConvergence, match="left the residual domain") as info:
            solve_vector(F, [1.0], jac=lambda _v: np.eye(1))
        assert info.value.iterations == 1

    def test_line_search_with_no_finite_residual_counts_its_factorization(self):
        # finite only at the start: every damped trial, 1 down to 1/64, is NaN
        def F(v):
            return v - 1.0 if v[0] == 0.0 else np.full(1, math.nan)

        with pytest.raises(NoConvergence, match="line search produced no finite residual") as info:
            solve_vector(F, [0.0], jac=lambda _v: np.eye(1))
        assert info.value.iterations == 1
        assert np.array_equal(info.value.last_iterate, [0.0])

    def test_linear_system_from_its_own_factorization(self):
        # an exact held factorization solves an affine residual without factoring
        A, b = _system(6, "C", seed=6)
        held = _held(A)
        lu = held.lu
        x, factorizations = solve_vector(lambda v: A @ v - b, np.zeros(6), jac=lambda _v: A,
                                         held=held)
        assert np.max(np.abs(A @ x - b)) < 1e-11
        assert factorizations == 0 and held.lu is lu

    def test_returned_iterate_satisfies_tolerance(self):
        def F(v):
            return np.array([math.exp(v[0]) - 2.0, v[1] ** 3 - 8.0])

        x, _ = solve_vector(F, np.array([0.0, 1.5]), tol=1e-12, jac=lambda v: fd_jacobian(F, v))
        assert np.max(np.abs(F(x))) <= 1e-12

    def test_no_convergence_carries_diagnostics(self):
        with pytest.raises(NoConvergence) as info:
            solve_vector(_rootless, np.array([0.5]), tol=1e-14, max_iter=3,
                         jac=lambda v: fd_jacobian(_rootless, v))
        assert info.value.last_iterate is not None

    def test_jacobian_of_the_wrong_size(self):
        held = LUHolder()
        with pytest.raises(ValueError, match="size mismatch"):
            solve_vector(lambda v: v - 1.0, np.zeros(2), jac=lambda _v: np.eye(3), held=held)
        assert held.lu is None and held.factorizations == 0

    def test_singular_jacobian(self):
        def F(v):
            return np.array([v[0] + v[1], v[0] + v[1]])

        with pytest.raises(SingularMatrix):
            solve_vector(F, np.array([1.0, 2.0]), jac=lambda v: fd_jacobian(F, v))

    def test_fd_jacobian_matches_analytic(self):
        rng = np.random.default_rng(5)

        def F(v):
            return np.array([v[0] ** 2 + v[1], math.sin(v[0]) + v[1] ** 3])

        for _ in range(5):
            v = rng.uniform(0.5, 1.5, size=2)
            J_true = np.array([
                [2.0 * v[0], 1.0],
                [math.cos(v[0]), 3.0 * v[1] ** 2],
            ])
            J_fd = fd_jacobian(F, v)
            assert np.max(np.abs(J_fd - J_true)) < 1e-6


class TestChordSteps:
    """solve_vector reuses a held factorization while it cuts max|F| tenfold."""

    @staticmethod
    def _problem(n=8, seed=2):
        A, b = _system(n, "C", seed=seed)

        def F(v):
            return A @ v + 0.1 * np.sin(v) - b

        def jac(v):
            return A + np.diag(0.1 * np.cos(v))

        return A, F, jac

    def test_stale_factorization_of_a_nearby_matrix(self):
        A, F, jac = self._problem()
        held = _held(1.02 * A)
        x, factorizations = solve_vector(F, np.zeros(8), tol=1e-12, jac=jac, held=held)
        assert np.max(np.abs(F(x))) <= 1e-12
        # without a held factorization the same solve factors more often
        _, fresh = solve_vector(F, np.zeros(8), tol=1e-12, jac=jac)
        assert factorizations < fresh

    def test_useless_factorization_is_replaced(self):
        A, F, jac = self._problem()
        held = _held(-A)  # its steps point the wrong way
        stale = held.lu
        x, factorizations = solve_vector(F, np.zeros(8), jac=jac, held=held)
        assert np.max(np.abs(F(x))) <= 1e-11
        assert factorizations >= 1 and held.lu is not stale
        x_near, _ = solve_vector(F, x + 1e-3, jac=jac, held=held)  # the new one is kept for reuse
        assert np.max(np.abs(F(x_near))) <= 1e-11

    def test_wrong_size_factorization_is_ignored(self):
        A, F, jac = self._problem()
        held = _held(np.eye(3))
        x, _ = solve_vector(F, np.zeros(8), jac=jac, held=held)
        assert np.max(np.abs(F(x))) <= 1e-11
        assert held.lu.shape == (8, 8)

    def test_chord_steps_do_not_spend_the_iteration_budget(self):
        # each chord step with a 0.1%-off matrix cuts the residual about
        # 1000x: several are needed, and none counts toward max_iter
        A, b = _system(8, "C", seed=9)
        calls = []

        def F(v):
            calls.append(1)
            return A @ v - b

        held = _held(1.001 * A)
        lu = held.lu
        x, factorizations = solve_vector(F, np.zeros(8), max_iter=1, jac=lambda _v: A, held=held)
        assert np.max(np.abs(A @ x - b)) <= 1e-11
        assert len(calls) >= 3 and factorizations == 0 and held.lu is lu

    def test_non_finite_chord_step_ends_the_chord_loop(self):
        # the held LU of a subnormal matrix sends the first chord step to
        # infinity: the chord loop stops without a residual there, and the
        # Jacobian is factored afresh
        calls = []

        def F(v):
            calls.append(v.copy())
            return v - 1.0

        held = _held(1e-310 * np.eye(2))
        x, factorizations = solve_vector(F, np.full(2, 3.0), jac=lambda _v: np.eye(2), held=held)
        assert np.array_equal(x, np.ones(2))
        assert factorizations == 1 and held.chord == 1
        assert np.array_equal(held.lu, np.eye(2))
        assert len(calls) == 2 and all(np.isfinite(v).all() for v in calls)

    def test_every_chord_step_tried_is_tallied(self, monkeypatch):
        # one LU solve per chord step, accepted or rejected, and one per factorization
        solves = []
        getrf, real = rootfind._lapack()

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rootfind, "_lapack", lambda: (getrf, counting))
        A, F, jac = self._problem()
        held = _held(-A)  # its one chord step is rejected
        _, factorizations = solve_vector(F, np.zeros(8), jac=jac, held=held)
        assert held.chord >= 2 and factorizations >= 1
        assert held.chord + factorizations == len(solves)

    def test_factorizations_are_tallied_across_solves(self):
        # the holder adds up the factorizations of every solve that used it,
        # those of a solve that ran out of iterations included
        A, F, jac = self._problem()
        held = LUHolder()
        _, first = solve_vector(F, np.zeros(8), jac=jac, held=held)
        # the negated system: the held LU's chord step points the wrong way
        _, second = solve_vector(lambda v: -F(v), np.zeros(8), jac=lambda v: -jac(v), held=held)
        assert first >= 1 and second >= 1 and held.factorizations == first + second
        with pytest.raises(NoConvergence) as info:
            solve_vector(_rootless, np.array([0.5]), tol=1e-14, max_iter=3,
                         jac=lambda v: fd_jacobian(_rootless, v), held=held)
        assert info.value.iterations == 3
        assert held.factorizations == first + second + 3
