"""Steady thin-film flow inside a rotating cylinder, as a traceable curve.

The film thickness h(theta) on a periodic grid satisfies

    (eps/3) (h' + h''') - (1/3) cos(theta) = Q / h^3 - 1 / h^2

with flux Q, and carries the mass M = integral of h over [0, 2*pi).
Derivatives are Fourier spectral differentiation matrices, so the rectangle
rule is the natural (spectrally accurate) quadrature. Fixing Q leaves m
unknowns (h); fixing M leaves m+1 (h and Q, solved with a bordered
(m+1) x (m+1) Jacobian, whose leading m x m block is the fixed-Q
Jacobian). The BifurcationField adapter exposes the (Q, M) curve to the
tracer through bordered solves alone, so its folds are navigated like
any other turning point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (FieldEvaluationError, NoConvergence, NonpositiveThickness, SingularJacobian,
                     TraceError)
from .geometry import Box, Point2, StepDirection
from .rootfind import LUHolder, solve_vector
from .tracer import TraceConfig

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi


def fourier_diff_matrix(m: int, order: int) -> np.ndarray:
    """Spectral d^order/dtheta^order on the m-point periodic grid.

    Built by discrete-Fourier diagonalization with multipliers (i k)^order;
    the Nyquist mode is zeroed for odd orders (both supported orders are
    odd). Cubing the first-derivative matrix instead would corrupt the
    Nyquist mode, hence the direct construction.
    """
    if order not in (1, 3):
        raise ValueError(f"order must be 1 or 3, got {order}")
    if m < 8 or m % 2:
        raise ValueError(f"m must be even and >= 8, got {m}")
    k = np.fft.fftfreq(m, d=1.0 / m)
    mult = (1j * k) ** order
    mult[m // 2] = 0.0
    D = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(m), axis=0), axis=0)
    return np.ascontiguousarray(D.real)


@dataclass(frozen=True)
class SpectralGrid:
    """Immutable bundle of nodes and differentiation matrices."""

    m: int
    nodes: np.ndarray
    d1: np.ndarray
    d3: np.ndarray
    _operators: Dict[float, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, m: int) -> "SpectralGrid":
        return cls(
            m=m,
            nodes=TWO_PI * np.arange(m) / m,
            d1=fourier_diff_matrix(m, 1),
            d3=fourier_diff_matrix(m, 3),
        )

    @property
    def weight(self) -> float:
        """Rectangle-rule quadrature weight, exact for resolved modes."""
        return TWO_PI / self.m

    @cached_property
    def cos_third(self) -> np.ndarray:
        """Read-only forcing term cos(theta)/3, computed once for every residual."""
        out = np.cos(self.nodes) / 3.0
        out.flags.writeable = False
        return out

    def derivative_operator(self, epsilon: float) -> np.ndarray:
        """Read-only (epsilon/3)(D1 + D3): the state-independent part of every
        Jacobian, built once per epsilon and shared by all Newton iterations."""
        if epsilon not in self._operators:
            self._operators[epsilon] = (epsilon / 3.0) * (self.d1 + self.d3)
            self._operators[epsilon].flags.writeable = False
        return self._operators[epsilon]


@dataclass
class LubricationState:
    """A converged film: thickness profile plus its flux and mass."""

    h: np.ndarray
    Q: float
    M: float
    epsilon: float
    iterations: int = 0

    def __post_init__(self):
        self.h = _check_thickness(self.h)
        if self.h.ndim != 1 or not self.h.size:
            raise ValueError(f"film thickness must be a non-empty 1-D array, not shape {self.h.shape}")


def _check_thickness(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    # min/max propagate NaN, and NaN fails both comparisons
    if h.size and not (h.min() > 0.0 and h.max() < math.inf):
        raise NonpositiveThickness("film thickness must be positive and finite")
    return h


def residual_fixed_Q(h, Q: float, epsilon: float, grid: SpectralGrid,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-node residual of the steady equation at fixed flux, written into
    `out` if given: (D h - cos/3) + r^2 (1 - Q r) with r = 1/h, in that order."""
    h = _check_thickness(h)
    r = 1.0 / h
    flux = Q * r
    np.subtract(1.0, flux, out=flux)
    r *= r
    r *= flux
    out = np.matmul(grid.derivative_operator(epsilon), h, out=out)
    out -= grid.cos_third
    out += r
    return out


def mass_of(h: np.ndarray, grid: SpectralGrid) -> float:
    return grid.weight * float(h.sum())


def flux_balance_defect(state: LubricationState, grid: SpectralGrid) -> float:
    """Quadrature of Q/h^3 - 1/h^2 + cos(theta)/3 over the grid.

    Periodicity makes the integral of h' + h''' vanish, so this must be
    zero (to round-off) at any converged state.
    """
    h = state.h
    integrand = state.Q / h**3 - 1.0 / h**2 + grid.cos_third
    return grid.weight * float(integrand.sum())


def augmented_residual(z: np.ndarray, M: float, epsilon: float, grid: SpectralGrid) -> np.ndarray:
    """Fixed-mass residual over the augmented unknowns z = (h, Q)."""
    h, Q = z[:-1], z[-1]
    out = np.empty(grid.m + 1)
    residual_fixed_Q(h, Q, epsilon, grid, out[:-1])
    out[-1] = mass_of(h, grid) - M
    return out


def augmented_jacobian(z: np.ndarray, epsilon: float, grid: SpectralGrid) -> np.ndarray:
    """Bordered Jacobian, built in one buffer: the fixed-Q Jacobian at
    (h, Q) as its leading m x m block, then the -1/h^3 column and the
    quadrature row."""
    h, Q = _check_thickness(z[:-1]), z[-1]
    m = grid.m
    J = np.empty((m + 1, m + 1))
    J[:m, :m] = grid.derivative_operator(epsilon)
    J.ravel()[: m * (m + 2) : m + 2] += 3.0 * Q / h**4 - 2.0 / h**3
    J[:m, m] = -1.0 / h**3
    J[m, :m] = grid.weight
    J[m, m] = 0.0
    return J


def solve_at_M(
    M: float,
    epsilon: float,
    grid: SpectralGrid,
    h0,
    Q0: float,
    tol: float = 1e-11,
    max_iter: int = 25,
    held: Optional[LUHolder] = None,
) -> LubricationState:
    """Newton-solve the bordered (m+1)-dimensional fixed-mass system.

    `held` carries a bordered LU factorization between solves; see
    `solve_vector`.
    """
    z0 = np.empty(grid.m + 1)
    z0[:-1] = h0
    z0[-1] = Q0
    z, k = solve_vector(lambda z_: augmented_residual(z_, M, epsilon, grid), z0, tol, max_iter,
                        jac=lambda z_: augmented_jacobian(z_, epsilon, grid), held=held)
    h, Q = z[:-1], float(z[-1])
    return LubricationState(h=h, Q=Q, M=mass_of(h, grid), epsilon=epsilon, iterations=k)


_SOLVE_FAILURES = (NoConvergence, SingularJacobian, NonpositiveThickness)
# Newton settings of every field evaluation; the seed converges to the same tol.
_FIELD_TOL = 1e-11
_FIELD_MAX_ITER = 12


class BifurcationField:
    """Residual field over the (Q, M) plane backed by warm-started solves.

    Evaluating at (Q*, M*) solves the bordered fixed-mass system at M* and
    reports the flux mismatch Q(M*) - Q*. The bordered system stays
    regular across folds in Q, where the fixed-flux Jacobian is singular,
    which makes the residual single-valued and sign-coherent exactly where
    the boundary scan needs to bracket roots. That one orientation is why
    there is no fixed-flux fallback: a mass mismatch carries the opposite
    sign on the lower branch, so mixing the two scrambles sign changes
    along scan arcs. Where the bordered Newton fails (a fold in M, or mass
    outside the solvable range) the evaluation raises
    FieldEvaluationError, which a slice solve counts as a stall and a
    scan as a skipped sample.

    Every converged state is kept, oldest first, with the mass of its
    bordered solve; the first is the seed's, and evaluating before `seed`
    raises ValueError. The nearest in (Q, M), oldest on a tie, answers if
    it was solved at exactly M* (keeping its first solve's `iterations`).
    Else Newton starts from the Lagrange quadratic in (h, Q) through the
    three nearest, in the bordered mass, if they were solved at distinct
    masses. It starts from the nearest if there is no such prediction,
    the predicted film is not positive, or the predicted solve fails.
    `counts` tallies the solves, with the factorizations and chord steps
    that the shared LU holder tallies.
    Every converged evaluation is also recorded in `solved`, keyed by its
    exact probe point (Q, M). The tracer only accepts points at which it
    evaluated the field, so after a trace the state at each path point is
    read from `solved` instead of being solved again; clear it between
    traces. One instance services one trace at a time: the kept states and
    the record are mutable state.
    """

    def __init__(self, epsilon: float, grid: SpectralGrid):
        if not 0.0 < epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        self.epsilon = epsilon
        self.grid = grid
        # row i of `_QM`: Q, M, bordered-solve mass of `_states[i]`; then spare rows
        self._states: List[LubricationState] = []
        self._QM = np.empty((256, 3))
        self._lu = LUHolder()  # the last bordered factorization, shared by all solve_at_M
        self.solved: Dict[Tuple[float, float], LubricationState] = {}
        self._counts = dict.fromkeys(("bordered", "reused", "quadratic", "retried"), 0)

    @property
    def counts(self) -> Dict[str, int]:
        return dict(self._counts, factorizations=self._lu.factorizations, chord=self._lu.chord)

    def _remember(self, state: LubricationState, solved_at: float) -> None:
        n = len(self._states)
        if n == len(self._QM):
            self._QM = np.concatenate([self._QM, np.empty_like(self._QM)])
        self._QM[n] = state.Q, state.M, solved_at
        self._states.append(state)

    def _nearest(self, Q: float, M: float) -> Tuple[int, int, int]:
        """Rows of the three nearest kept states, nearest first; each is the first
        minimum of the rest, so the oldest on a tie. -1 for a missing one."""
        n = len(self._states)
        d = (self._QM[:n, 0] - Q) ** 2 + (self._QM[:n, 1] - M) ** 2
        rows = [-1, -1, -1]
        for i in range(min(n, 3)):
            rows[i] = int(d.argmin())
            d[rows[i]] = math.inf
        return tuple(rows)

    def _warm(self, row: int) -> Tuple[np.ndarray, float]:
        return self._states[row].h.copy(), self._states[row].Q

    def _solve(self, M: float, h0, Q0: float, epsilon: Optional[float] = None,
               tol: float = _FIELD_TOL, max_iter: int = _FIELD_MAX_ITER) -> LubricationState:
        """A bordered solve_at_M from the held LU (at the field's epsilon by default),
        counted; the holder tallies its factorizations and chord steps."""
        self._counts["bordered"] += 1
        epsilon = self.epsilon if epsilon is None else epsilon
        return solve_at_M(M, epsilon, self.grid, h0, Q0, tol, max_iter, self._lu)

    def _predicted(self, rows: Tuple[int, int, int], M: float) -> Optional[LubricationState]:
        """The bordered solve at M from z = (h, Q) on the Lagrange quadratic in the
        bordered mass through the three rows. None if there are not three rows solved
        at distinct masses, the predicted film is not positive, or the solve fails."""
        if rows[2] < 0:
            return None
        M1, M2, M3 = self._QM[list(rows), 2].tolist()
        if M1 == M2 or M3 == M1 or M3 == M2:
            return None
        s1, s2, s3 = (self._states[row] for row in rows)
        w1 = (M - M2) * (M - M3) / ((M1 - M2) * (M1 - M3))
        w2 = (M - M1) * (M - M3) / ((M2 - M1) * (M2 - M3))
        w3 = (M - M1) * (M - M2) / ((M3 - M1) * (M3 - M2))
        h, Q = w1 * s1.h + w2 * s2.h + w3 * s3.h, w1 * s1.Q + w2 * s2.Q + w3 * s3.Q
        if not h.min() > 0.0:
            return None
        self._counts["quadratic"] += 1
        try:
            return self._solve(M, h, Q)
        except _SOLVE_FAILURES:
            self._counts["retried"] += 1
            return None

    def __call__(self, Q: float, M: float) -> float:
        rows = self._nearest(Q, M)
        near = rows[0]
        if near < 0:
            raise ValueError("the field holds no state to start from; call seed first")
        if self._QM[near, 2] == M:
            self._counts["reused"] += 1
            state = self.solved[(Q, M)] = self._states[near]
            return state.Q - Q
        try:
            state = self._predicted(rows, M) or self._solve(M, *self._warm(near))
        except _SOLVE_FAILURES as exc:
            raise FieldEvaluationError(
                f"bordered solve failed at (Q={Q:.6g}, M={M:.6g}): {exc}") from exc
        self._remember(state, M)
        self.solved[(Q, M)] = state
        return state.Q - Q

    def seed(self, M: float) -> LubricationState:
        """Converge an initial on-curve state at the given mass.

        Newton from a flat film diverges at small surface-tension values,
        so the solve walks down from a comfortable value in factor-of-
        sqrt(10) stages, warm-starting each from the last.
        """
        if not 0.0 < M < math.inf:
            raise ValueError("seed mass must be positive and finite")
        mean = M / TWO_PI
        h = np.full(self.grid.m, mean)
        Q = mean

        stages = []
        e = 0.3
        while e > self.epsilon * 1.0001:
            stages.append(e)
            e /= math.sqrt(10.0)
        stages.append(self.epsilon)

        state = None
        for eps in stages:
            tol = _FIELD_TOL if eps == self.epsilon else 1e-9
            self._lu.lu = None  # the tally counts the seed's chord steps; no LU crosses stages
            state = self._solve(M, h, Q, eps, tol, 60)
            h, Q = state.h, state.Q
        self._lu.lu = None
        self._remember(state, M)
        return state


def trace_bifurcation(
    epsilon: float = 1e-3,
    m: int = 128,
    seed_mass: float = TWO_PI,
    step_q: float = 2.5e-5,
    step_m: float = 0.02,
    scan_radius: float = 0.35,
    scan_n: int = 8,
    scan_k: int = 5,
    residual_tol: float = 1e-9,
    max_points: int = 300,
    min_mass: float = 0.3,
    initial: str = "+x",
):
    """Trace the (Q, M) diagram from a converged seed at the given mass.

    Returns (path, states, field) with one converged state per path point:
    the state the trace's own solve produced there, so no Newton solve runs
    after the trace.
    Defaults are tuned for the small-surface-tension fold regime: the flux
    axis is driven first with a fine step because the folds are shallow in
    Q, the scan radius spans them in M, and the mass floor stops the walk
    before the thin-film limit stiffens the solves.
    Every setting is checked, raising ValueError, before the seed solve runs.
    """
    from .tracer import trace  # looked up per call, so a wrapped tracer.trace sees it

    direction = StepDirection.parse(initial)
    if not 0.0 < seed_mass < math.inf:  # these three before the domain box would misreport them
        raise ValueError("seed_mass must be positive and finite")
    if not math.isfinite(min_mass):
        raise ValueError("min_mass must be finite")
    if seed_mass < min_mass:  # the trace would start outside its domain
        raise ValueError(f"seed_mass {seed_mass:g} lies below min_mass {min_mass:g}")
    cfg = TraceConfig(
        step=step_q,
        step_y=step_m,
        radius=scan_radius, mesh_count=scan_n, reference_lag=scan_k, residual_tol=residual_tol,
        max_points=max_points,
        domain=Box(0.0, 5.0, min_mass, 10.0 * max(seed_mass, 1.0)),
    )
    field = BifurcationField(epsilon, SpectralGrid.build(m))
    seed = field.seed(seed_mass)
    # a seed solved at min_mass may land an ulp below it, outside the domain
    path = trace(field, Point2(seed.Q, max(seed.M, min_mass)), direction, cfg)
    states = [field.solved.get((p.x, p.y)) for p in path.points]
    field.solved.clear()
    for p, state in zip(path.points, states):
        if state is None:
            raise TraceError(f"no converged state was recorded at path point {p}", path=path)
    return path, states, field
