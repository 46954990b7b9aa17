"""Steady thin-film flow inside a rotating cylinder, as a traceable curve.

The film thickness h(theta) on a periodic grid satisfies

    (eps/3) (h' + h''') - (1/3) cos(theta) = Q / h^3 - 1 / h^2

with flux Q, and carries the mass M = integral of h over [0, 2*pi).
Derivatives are Fourier spectral differentiation matrices, so the rectangle
rule is the natural (spectrally accurate) quadrature. Fixing Q leaves m
unknowns (h, solved with the m x m Jacobian); fixing M leaves m+1 (h and
Q, solved with a bordered (m+1) x (m+1) Jacobian). The BifurcationField
adapter exposes the (Q, M) solution curve to the tracer, so folds in the
bifurcation diagram are navigated like any other turning point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (FieldEvaluationError, NoConvergence, NonpositiveThickness, SingularJacobian,
                     TraceError)
from .geometry import Box, Point2, StepDirection
from .rootfind import VectorSolveConfig, solve_vector
from .tracer import TraceConfig
from .turnpoint import ScanConfig

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
        self.h = np.asarray(self.h, dtype=float)
        if np.any(self.h <= 0.0):
            raise NonpositiveThickness("state thickness must be positive")


def _check_thickness(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
        raise NonpositiveThickness("film thickness must be positive and finite")
    return h


def residual_fixed_Q(h, Q: float, epsilon: float, grid: SpectralGrid) -> np.ndarray:
    """Per-node residual of the steady equation at fixed flux."""
    h = _check_thickness(h)
    return (
        (epsilon / 3.0) * (grid.d1 @ h + grid.d3 @ h)
        - np.cos(grid.nodes) / 3.0
        - Q / h**3
        + 1.0 / h**2
    )


def jacobian_fixed_Q(h, Q: float, epsilon: float, grid: SpectralGrid) -> np.ndarray:
    h = _check_thickness(h)
    J = grid.derivative_operator(epsilon).copy()
    J.flat[:: grid.m + 1] += 3.0 * Q / h**4 - 2.0 / h**3
    return J


def mass_of(h, grid: SpectralGrid) -> float:
    return grid.weight * float(np.sum(h))


def flux_balance_defect(state: LubricationState, grid: SpectralGrid) -> float:
    """Quadrature of Q/h^3 - 1/h^2 + cos(theta)/3 over the grid.

    Periodicity makes the integral of h' + h''' vanish, so this must be
    zero (to round-off) at any converged state.
    """
    h = state.h
    integrand = state.Q / h**3 - 1.0 / h**2 + np.cos(grid.nodes) / 3.0
    return grid.weight * float(np.sum(integrand))


def solve_at_Q(
    Q: float,
    epsilon: float,
    grid: SpectralGrid,
    h0,
    cfg: Optional[VectorSolveConfig] = None,
) -> LubricationState:
    """Newton-solve the m-dimensional fixed-flux system; mass comes out."""
    cfg = cfg or VectorSolveConfig()
    h0 = _check_thickness(h0)
    counter = {"k": 0}

    def cb(k, _x, _fx):
        counter["k"] = k

    h = solve_vector(
        lambda h_: residual_fixed_Q(h_, Q, epsilon, grid),
        h0,
        cfg,
        jac=lambda h_: jacobian_fixed_Q(h_, Q, epsilon, grid),
        callback=cb,
    )
    return LubricationState(h=h, Q=Q, M=mass_of(h, grid), epsilon=epsilon,
                            iterations=counter["k"])


def augmented_residual(z: np.ndarray, M: float, epsilon: float, grid: SpectralGrid) -> np.ndarray:
    """Fixed-mass residual over the augmented unknowns z = (h, Q)."""
    h, Q = z[:-1], z[-1]
    out = np.empty(grid.m + 1)
    out[:-1] = residual_fixed_Q(h, Q, epsilon, grid)
    out[-1] = mass_of(h, grid) - M
    return out


def augmented_jacobian(z: np.ndarray, epsilon: float, grid: SpectralGrid) -> np.ndarray:
    """Bordered Jacobian: fixed-Q block, -1/h^3 column, quadrature row."""
    h, Q = z[:-1], z[-1]
    m = grid.m
    J = np.zeros((m + 1, m + 1))
    J[:m, :m] = jacobian_fixed_Q(h, Q, epsilon, grid)
    J[:m, m] = -1.0 / h**3
    J[m, :m] = grid.weight
    return J


def solve_at_M(
    M: float,
    epsilon: float,
    grid: SpectralGrid,
    h0,
    Q0: float,
    cfg: Optional[VectorSolveConfig] = None,
) -> LubricationState:
    """Newton-solve the bordered (m+1)-dimensional fixed-mass system."""
    cfg = cfg or VectorSolveConfig()
    h0 = _check_thickness(h0)
    z0 = np.concatenate([h0, [Q0]])
    counter = {"k": 0}

    def cb(k, _x, _fx):
        counter["k"] = k

    z = solve_vector(
        lambda z_: augmented_residual(z_, M, epsilon, grid),
        z0,
        cfg,
        jac=lambda z_: augmented_jacobian(z_, epsilon, grid),
        callback=cb,
    )
    h, Q = z[:-1], float(z[-1])
    return LubricationState(h=h, Q=Q, M=mass_of(h, grid), epsilon=epsilon,
                            iterations=counter["k"])


_SOLVE_FAILURES = (NoConvergence, SingularJacobian, NonpositiveThickness)


class BifurcationField:
    """Residual field over the (Q, M) plane backed by warm-started solves.

    Evaluating at (Q*, M*) solves the bordered fixed-mass system at M* and
    reports the flux mismatch Q(M*) - Q*; if that Newton fails (a fold in
    M, or mass outside the solvable range) the m x m fixed-flux solve is
    tried and the mass mismatch reported. The bordered system stays
    regular across folds in Q, where the fixed-flux Jacobian is singular,
    which makes the residual single-valued and sign-coherent exactly where
    the boundary scan needs to bracket roots. A fixed-flux-first variant
    was tried and rejected: warm starts let it converge to whichever
    branch seeded it, and the two residuals carry opposite orientations on
    the lower branch, so mixing them scrambles sign changes along scan
    arcs.

    Converged profiles are cached and the one nearest the probe seeds the
    next solve, so evaluations track whichever branch the tracer is on.
    Every converged evaluation is also recorded in `solved`, keyed by its
    exact probe point (Q, M). The tracer only accepts points at which it
    evaluated the field, so after a trace the state at each path point is
    read from `solved` instead of being solved again; clear it between
    traces. One instance services one trace at a time: the cache and the
    record are mutable state.
    """

    def __init__(
        self,
        epsilon: float,
        grid: SpectralGrid,
        solve_config: Optional[VectorSolveConfig] = None,
        cache_size: int = 512,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self.grid = grid
        self.solve_config = solve_config or VectorSolveConfig(tol=1e-11, max_iter=12)
        self.cache_size = cache_size
        self._cache: List[LubricationState] = []
        self._cache_QM = np.empty((0, 2))  # (Q, M) of each cached state, same order
        self.solved: Dict[Tuple[float, float], LubricationState] = {}

    def _remember(self, state: LubricationState) -> None:
        self._cache.append(state)
        self._cache_QM = np.append(self._cache_QM, [(state.Q, state.M)], axis=0)
        if len(self._cache) > self.cache_size:
            self._cache.pop(0)
            self._cache_QM = self._cache_QM[1:]

    def _warm(self, Q: float, M: float) -> Tuple[np.ndarray, float]:
        if not self._cache:
            mean = max(M, 0.5) / TWO_PI
            return np.full(self.grid.m, max(mean, 0.05)), max(Q, 0.05)
        Qs, Ms = self._cache_QM.T
        nearest = self._cache[int(np.argmin((Qs - Q) ** 2 + (Ms - M) ** 2))]  # ties: oldest
        return nearest.h.copy(), nearest.Q

    def __call__(self, Q: float, M: float) -> float:
        h0, Q0 = self._warm(Q, M)
        try:
            state = solve_at_M(M, self.epsilon, self.grid, h0, Q0, self.solve_config)
            residual = state.Q - Q
        except _SOLVE_FAILURES as first:
            try:
                state = solve_at_Q(Q, self.epsilon, self.grid, h0, self.solve_config)
            except _SOLVE_FAILURES as second:
                raise FieldEvaluationError(
                    f"both solves failed at (Q={Q:.6g}, M={M:.6g}): "
                    f"fixed-M: {first}; fixed-Q: {second}"
                ) from second
            residual = state.M - M
        self._remember(state)
        self.solved[(Q, M)] = state
        return residual

    def seed(self, M: float, Q0: Optional[float] = None) -> LubricationState:
        """Converge an initial on-curve state at the given mass.

        Newton from a flat film diverges at small surface-tension values,
        so the solve walks down from a comfortable value in factor-of-
        sqrt(10) stages, warm-starting each from the last.
        """
        if M <= 0:
            raise ValueError("seed mass must be positive")
        mean = M / TWO_PI
        h = np.full(self.grid.m, mean)
        Q = Q0 if Q0 is not None else mean

        stages = []
        e = 0.3
        while e > self.epsilon * 1.0001:
            stages.append(e)
            e /= math.sqrt(10.0)
        stages.append(self.epsilon)

        relaxed = VectorSolveConfig(tol=1e-9, max_iter=60,
                                    damping_min=self.solve_config.damping_min)
        final = VectorSolveConfig(tol=self.solve_config.tol, max_iter=60,
                                  damping_min=self.solve_config.damping_min)
        state = None
        for eps in stages:
            state = solve_at_M(M, eps, self.grid, h, Q,
                               final if eps == self.epsilon else relaxed)
            h, Q = state.h, state.Q
        self._remember(state)
        return state


def bifurcation_trace_config(
    seed_mass: float = TWO_PI,
    step_q: float = 2.5e-5,
    step_m: float = 0.02,
    scan_radius: float = 0.35,
    scan_n: int = 8,
    scan_k: int = 5,
    residual_tol: float = 1e-9,
    max_points: int = 300,
    min_mass: float = 0.3,
) -> TraceConfig:
    """Trace settings of `trace_bifurcation`; raises ValueError for an invalid one."""
    return TraceConfig(
        step=step_q,
        step_y=step_m,
        scan=ScanConfig(radius=scan_radius, mesh_count=scan_n, reference_lag=scan_k,
                        residual_tol=residual_tol),
        slice_bracket=50.0 * step_m,
        max_points=max_points,
        domain=Box(0.0, 5.0, min_mass, 10.0 * max(seed_mass, 1.0)),
    )


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
    """
    from .tracer import trace  # looked up per call, so a wrapped tracer.trace sees it

    cfg = bifurcation_trace_config(seed_mass, step_q, step_m, scan_radius, scan_n, scan_k,
                                   residual_tol, max_points, min_mass)
    grid = SpectralGrid.build(m)
    field = BifurcationField(epsilon, grid)
    seed = field.seed(seed_mass)
    path = trace(field, Point2(seed.Q, seed.M), StepDirection.parse(initial), cfg)
    states = [field.solved.get((p.x, p.y)) for p in path.points]
    field.solved.clear()
    for p, state in zip(path.points, states):
        if state is None:
            raise TraceError(f"no converged state was recorded at path point {p}", path=path)
    return path, states, field
