"""Scalar and vector Newton solvers plus the dense linear solve they share.

The scalar solver is deliberately defensive: the tracer points it at 1-D
slices of implicit curves, which near cusps behave like |t|^(2/3) where a
plain finite-difference Newton loop falls apart. It therefore uses a
relative finite-difference step, backtracking, and bisection whenever a
sign change has been seen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import FoldtraceError, NoConvergence, SingularJacobian, SingularMatrix

_SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass
class ScalarSolveConfig:
    tol: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class VectorSolveConfig:
    tol: float = 1e-11
    max_iter: int = 25
    damping_min: float = 1.0 / 64.0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.damping_min <= 1.0:
            raise ValueError("damping_min must be in (0, 1]")


def _fd_step(x: float) -> float:
    # Relative step: an absolute step straddles the kink of cube-root-like
    # slices once |x| falls below it, producing derivative estimates with
    # the wrong sign.
    return _SQRT_EPS * (abs(x) + _SQRT_EPS)


def _fd_step_wide(x: float) -> float:
    # Fallback for residuals whose internal cancellation swallows the
    # relative step (e.g. x^2 + 1 - 1 near x = 0): classical absolute form.
    return _SQRT_EPS * (1.0 + abs(x))


class _SignBracket:
    """Tracks one negative- and one positive-residual abscissa."""

    def __init__(self):
        self.neg = None  # (x, g)
        self.pos = None

    def update(self, x: float, gx: float) -> None:
        if gx == 0.0 or not math.isfinite(gx):
            return
        if gx < 0.0:
            if self.neg is None or (self.pos is not None and abs(x - self.pos[0]) < abs(self.neg[0] - self.pos[0])):
                self.neg = (x, gx)
            elif self.pos is None:
                self.neg = (x, gx)
        else:
            if self.pos is None or (self.neg is not None and abs(x - self.neg[0]) < abs(self.pos[0] - self.neg[0])):
                self.pos = (x, gx)
            elif self.neg is None:
                self.pos = (x, gx)

    @property
    def ready(self) -> bool:
        return self.neg is not None and self.pos is not None

    def endpoints(self) -> Tuple[float, float]:
        return self.neg[0], self.pos[0]


def _bisect(g, sign_bracket: _SignBracket, tol: float):
    a, b = sign_bracket.endpoints()
    ga, gb = sign_bracket.neg[1], sign_bracket.pos[1]
    best_x, best_g = (a, ga) if abs(ga) <= abs(gb) else (b, gb)
    for _ in range(200):
        if abs(best_g) <= tol:
            return best_x
        mid = 0.5 * (a + b)
        if mid == a or mid == b:  # bracket at machine width
            break
        gm = g(mid)
        if abs(gm) < abs(best_g):
            best_x, best_g = mid, gm
        if gm == 0.0:
            return mid
        if gm < 0.0:
            a, ga = mid, gm
        else:
            b, gb = mid, gm
    if abs(best_g) <= tol:
        return best_x
    raise NoConvergence("bisection exhausted the bracket", last_iterate=best_x, residual=best_g)


def solve_scalar(
    g: Callable[[float], float],
    x0: float,
    cfg: Optional[ScalarSolveConfig] = None,
    dg: Optional[Callable[[float], float]] = None,
    bracket: Optional[Tuple[float, float]] = None,
) -> float:
    """Find x with |g(x)| <= cfg.tol near x0.

    Newton iteration with a finite-difference derivative when `dg` is not
    supplied, backtracking on residual growth, and bisection once a sign
    change is known. When `bracket` is given the iterates are confined to
    it and a root drifting outside counts as failure; the tracer relies on
    that to detect stalls.

    Raises NoConvergence with the last iterate and residual attached.
    """
    cfg = cfg or ScalarSolveConfig()
    lo, hi = bracket if bracket is not None else (-math.inf, math.inf)
    if lo > hi:
        raise ValueError("bracket bounds out of order")

    sign = _SignBracket()
    probed_endpoints = False

    x = min(max(x0, lo), hi)
    gx = g(x)
    if not math.isfinite(gx):
        raise NoConvergence("residual not finite at start", last_iterate=x, residual=gx)
    sign.update(x, gx)
    best_x, best_g = x, gx

    for _ in range(cfg.max_iter):
        if abs(gx) <= cfg.tol:
            return x
        if sign.ready:
            return _bisect(g, sign, cfg.tol)

        if dg is not None:
            slope = dg(x)
        else:
            slope = None
            for h in (_fd_step(x), _fd_step_wide(x)):
                if x + h > hi:
                    h = -h
                gxh = g(x + h)
                sign.update(x + h, gxh)
                slope = (gxh - gx) / h
                if math.isfinite(slope) and slope != 0.0:
                    break

        stuck = not math.isfinite(slope) or slope == 0.0
        if not stuck:
            xn = x - gx / slope
            if not math.isfinite(xn):
                stuck = True
            elif xn < lo or xn > hi:
                xn = min(max(xn, lo), hi)
                if xn == x:  # pressing against the boundary
                    stuck = True
        if stuck:
            # Probe the confinement endpoints once, hoping for a sign change.
            if not probed_endpoints and bracket is not None:
                probed_endpoints = True
                for e in (lo, hi):
                    try:
                        sign.update(e, g(e))
                    except (ArithmeticError, ValueError, FoldtraceError):
                        continue
                if sign.ready:
                    return _bisect(g, sign, cfg.tol)
            raise NoConvergence("derivative vanished or iterate left the bracket",
                                last_iterate=best_x, residual=best_g)

        def _damped(target: float):
            xt, gt = target, g(target)
            sign.update(xt, gt)
            halvings = 0
            while (not math.isfinite(gt) or abs(gt) > abs(gx)) and halvings < 8:
                xt = 0.5 * (x + xt)
                gt = g(xt)
                sign.update(xt, gt)
                halvings += 1
            return xt, gt

        xn, gn = _damped(xn)
        if dg is None and math.isfinite(gn) and abs(gn) > abs(gx):
            # Noise-level relative-step slope can point the wrong way; one
            # retry with the wide step before accepting a worse iterate.
            h = _fd_step_wide(x)
            if x + h > hi:
                h = -h
            gxh = g(x + h)
            sign.update(x + h, gxh)
            wide_slope = (gxh - gx) / h
            if math.isfinite(wide_slope) and wide_slope != 0.0:
                retry = x - gx / wide_slope
                if math.isfinite(retry):
                    retry = min(max(retry, lo), hi)
                    if retry != x:
                        xr, gr = _damped(retry)
                        if math.isfinite(gr) and abs(gr) < abs(gn):
                            xn, gn = xr, gr
        if not math.isfinite(gn):
            raise NoConvergence("residual became non-finite", last_iterate=best_x, residual=best_g)
        x, gx = xn, gn
        if abs(gx) < abs(best_g):
            best_x, best_g = x, gx

    if abs(gx) <= cfg.tol:
        return x
    if sign.ready:
        return _bisect(g, sign, cfg.tol)
    raise NoConvergence(f"no root after {cfg.max_iter} iterations",
                        last_iterate=best_x, residual=best_g, iterations=cfg.max_iter)


def dense_solve(A, b):
    """Solve A x = b by LU factorization with row pivoting."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if A.shape[0] != b.shape[0]:
        raise ValueError("matrix/vector size mismatch")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries")
    try:
        with warnings.catch_warnings():
            # singularity is detected below via the pivot ratio
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
        raise SingularMatrix(f"pivot ratio {diag.min():.3e}/{diag.max():.3e} below threshold")
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite solution")
    return x


def fd_jacobian(F, x, fx=None):
    """Forward-difference Jacobian of a vector residual."""
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = np.asarray(F(x), dtype=float)
    n = x.size
    J = np.empty((fx.size, n))
    for j in range(n):
        h = _SQRT_EPS * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.asarray(F(xp), dtype=float) - fx) / h
    return J


def solve_vector(
    F: Callable[[np.ndarray], Sequence[float]],
    x0,
    cfg: Optional[VectorSolveConfig] = None,
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> np.ndarray:
    """Damped Newton for a d-dimensional residual F(x) = 0.

    Each iteration solves J delta = -F by pivoted LU and halves the step
    until the max-norm residual decreases or the damping floor is reached
    (the floor step is then taken as-is). `jac` defaults to a forward
    finite-difference Jacobian.
    """
    cfg = cfg or VectorSolveConfig()
    x = np.array(x0, dtype=float)
    fx = np.asarray(F(x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise NoConvergence("residual not finite at start", last_iterate=x, residual=fx)

    for k in range(cfg.max_iter):
        norm = np.max(np.abs(fx))
        if callback is not None:
            callback(k, x, fx)
        if norm <= cfg.tol:
            return x
        J = jac(x) if jac is not None else fd_jacobian(F, x, fx)
        try:
            delta = dense_solve(J, -fx)
        except SingularMatrix as exc:
            raise SingularJacobian(str(exc)) from exc

        lam = 1.0
        first = None  # largest-lam candidate with a finite residual
        accepted = None
        while True:
            candidate = x + lam * delta
            try:
                fc = np.asarray(F(candidate), dtype=float)
            except (ArithmeticError, ValueError, FoldtraceError) as exc:
                fc = None
                if lam / 2.0 < cfg.damping_min:
                    if first is None:
                        raise NoConvergence(f"line search left the residual domain: {exc}",
                                            last_iterate=x, residual=fx, iterations=k) from exc
            if fc is not None and np.all(np.isfinite(fc)):
                if first is None:
                    first = (candidate, fc)
                if np.max(np.abs(fc)) < norm:
                    accepted = (candidate, fc)
                    break
            if lam / 2.0 < cfg.damping_min:
                break
            lam /= 2.0
        if accepted is None:
            # No damped step shrank the residual; a full Newton step that
            # transiently grows the norm is still the best move inside the
            # quadratic basin, so take the longest finite one.
            accepted = first
        if accepted is None:
            raise NoConvergence("line search produced no finite residual",
                                last_iterate=x, residual=fx, iterations=k)
        x, fx = accepted

    if np.max(np.abs(fx)) <= cfg.tol:
        return x
    raise NoConvergence(f"no convergence after {cfg.max_iter} iterations",
                        last_iterate=x, residual=fx, iterations=cfg.max_iter)
