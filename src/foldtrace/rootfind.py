"""Scalar and vector Newton solvers plus the dense linear solve they share.

The scalar solver is deliberately defensive: the tracer points it at 1-D
slices of implicit curves, which near cusps behave like |t|^(2/3) where a
plain finite-difference Newton loop falls apart. It therefore uses a
relative finite-difference step and backtracking, finishes with ITP (a
bracketed regula falsi at worst one step slower than bisection) once a
sign change has been seen, and gives up early when Newton circles a
rootless minimum of |g|. Every slice solve of a trace, and so every
turning point, goes through it; on the lubrication diagram each residual
evaluation is a bordered Newton solve, so its steps reuse earlier
iterates where they can instead of taking fresh finite differences.

The vector solver is a chord (modified) Newton method: it keeps the last
LU factorization of the Jacobian and reuses it while the steps it gives
stay finite and cut the residual tenfold, and factors a fresh Jacobian
only when they stop doing so. A chord step costs one LU solve (LAPACK
getrs) and one residual. A caller that runs many nearby solves can carry
the factorization from one solve to the next in an `LUHolder`, which
also tallies the factorizations and the chord steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import FoldtraceError, NoConvergence, SingularJacobian, SingularMatrix

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
# A chord step is kept only if it cuts max|F| at least this much; otherwise
# the Jacobian is factored afresh.
_CHORD_CONTRACTION = 0.1
_DAMPING_MIN = 1.0 / 64.0  # the line search halves a Newton step down to this fraction


def _check_settings(tol: float, max_iter: int) -> None:
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


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
        # Until both signs are seen keep the latest abscissa; after that,
        # only one closer to the opposite end, so the bracket only narrows.
        if gx == 0.0 or not math.isfinite(gx):
            return
        own, other = (self.neg, self.pos) if gx < 0.0 else (self.pos, self.neg)
        if own is None or other is None or abs(x - other[0]) < abs(own[0] - other[0]):
            if gx < 0.0:
                self.neg = (x, gx)
            else:
                self.pos = (x, gx)

    @property
    def ready(self) -> bool:
        return self.neg is not None and self.pos is not None


def itp(
    g: Callable[[float], float],
    neg: Tuple[float, float],
    pos: Tuple[float, float],
    tol: float,
) -> float:
    """Root of g between a negative and a positive end, found by ITP.

    `neg` and `pos` are (x, g(x)) pairs with g(x) < 0 and g(x) > 0, in
    either order along x. ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020)
    interpolates by regula falsi, truncates the step toward the midpoint by
    0.2 w^2 / w0 so both ends of the bracket keep moving, and projects it
    into a radius that keeps the bracket no wider than bisection's with one
    step of slack. Returns the first abscissa with |g| <= tol; raises
    NoConvergence on a non-finite residual, and once the bracket reaches
    machine width without a root, which is what a jump across zero looks
    like.
    """
    (a, ga), (b, gb) = neg, pos
    best_x, best_g = (a, ga) if abs(ga) <= abs(gb) else (b, gb)
    if abs(best_g) <= tol:
        return best_x
    width0 = abs(b - a)
    budget = 2.0 * width0  # bisection's width bound, with one step of slack
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:  # bracket at machine width
            break
        width = abs(b - a)
        xf = a + (b - a) * (ga / (ga - gb))
        sigma = math.copysign(1.0, mid - xf)
        trunc = 0.2 * width * width / width0
        xt = xf + sigma * trunc if trunc <= abs(mid - xf) else mid
        r = max(0.5 * (budget - width), 0.0)
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        if x == a or x == b:
            x = mid
        budget *= 0.5
        gx = g(x)
        if not math.isfinite(gx):
            raise NoConvergence("residual became non-finite", last_iterate=best_x, residual=best_g)
        if abs(gx) <= tol:
            return x
        if abs(gx) < abs(best_g):
            best_x, best_g = x, gx
        if gx < 0.0:
            a, ga = x, gx
        else:
            b, gb = x, gx
    raise NoConvergence("bisection exhausted the bracket", last_iterate=best_x, residual=best_g)


def solve_scalar(
    g: Callable[[float], float],
    x0: float,
    tol: float = 1e-10,
    bracket: Optional[Tuple[float, float]] = None,
    max_iter: int = 60,
) -> float:
    """Find x with |g(x)| <= tol near x0, in at most `max_iter` Newton steps.

    Newton iteration with a finite-difference derivative and backtracking
    on residual growth, finished by ITP as soon as a sign change is known.
    After a step that cuts |g| tenfold, the next one runs along the secant
    through the last two iterates for one evaluation instead of two; it is
    kept if it halves |g|, else its residual only feeds the sign bracket.
    At a zero like |t - t*|^p with p < 1 Newton keeps |1 - 1/p|^p of |g|
    per step (0.63 at a cusp tip) and u = g/g' = (t - t*)/p. Once two
    steps keep the same share in (0.5, 0.9), to 1%, every later step is
    x - p*u with p = dx/du over the last two: the modified Newton step for
    a zero of multiplicity p (Traub, ch. 7). On the way down to a rootless
    minimum such as |t|^(2/3) + c the share drifts, so those still stall.

    When `bracket` is given the iterates are confined to it and a root
    drifting outside counts as failure; the tracer relies on that to
    detect stalls. Before any sign change, a step that no damping makes
    descend, or three steps in a row that cut |g| by under 10%, mean a
    local minimum of |g| with no root: the bracket endpoints are then
    probed once for a sign change, and the solve fails if they show none.

    Raises ValueError unless tol is positive and finite and max_iter >= 1,
    and NoConvergence with the last iterate and residual attached.
    """
    _check_settings(tol, max_iter)
    lo, hi = bracket if bracket is not None else (-math.inf, math.inf)
    if lo > hi:
        raise ValueError("bracket bounds out of order")

    sign = _SignBracket()

    def finish_from_endpoints(reason: str) -> float:
        # Probe the confinement endpoints once, hoping for a sign change.
        if bracket is not None:
            for e in (lo, hi):
                try:
                    sign.update(e, g(e))
                except (ArithmeticError, ValueError, FoldtraceError):
                    continue
            if sign.ready:
                return itp(g, sign.neg, sign.pos, tol)
        raise NoConvergence(reason, last_iterate=x, residual=gx)

    x = min(max(x0, lo), hi)
    gx = g(x)
    if not math.isfinite(gx):
        raise NoConvergence("residual not finite at start", last_iterate=x, residual=gx)
    sign.update(x, gx)
    slow = 0  # consecutive Newton steps that cut |g| by under 10%
    before = None  # (x, g) before a step that cut |g| tenfold: the secant's far end
    newton = []  # (x, u = g/g', share of |g| kept) of each finite-difference step
    multiple, p = False, 1.0  # two steps kept the same share of |g|: a zero of multiplicity p

    for _ in range(max_iter):
        if abs(gx) <= tol:
            return x
        if sign.ready:
            return itp(g, sign.neg, sign.pos, tol)

        if before is not None:
            xs = min(max(x - gx * (x - before[0]) / (gx - before[1]), lo), hi)
            before = None
            if xs != x:
                gs = g(xs)
                sign.update(xs, gs)
                if abs(gs) <= 0.5 * abs(gx):  # NaN fails
                    if abs(gs) <= 0.1 * abs(gx):
                        before = (x, gx)
                    x, gx = xs, gs
                    continue
                if sign.ready:
                    return itp(g, sign.neg, sign.pos, tol)

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
            u = gx / slope
            if len(newton) >= 2 and not multiple:
                q1, q2 = newton[-2][2], newton[-1][2]
                multiple = 0.5 < q2 < 0.9 and abs(q1 - q2) <= 0.01 * q2
            if multiple and u != newton[-1][1]:
                p = (x - newton[-1][0]) / (u - newton[-1][1])
            xn = x - (p if 0.0 < p <= 1.0 else 1.0) * u
            if not math.isfinite(xn):
                stuck = True
            elif xn < lo or xn > hi:
                xn = min(max(xn, lo), hi)
                if xn == x:  # pressing against the boundary
                    stuck = True
        if stuck:
            return finish_from_endpoints("derivative vanished or iterate left the bracket")

        gn = g(xn)
        sign.update(xn, gn)
        halvings = 0
        while (not math.isfinite(gn) or abs(gn) > abs(gx)) and halvings < 8:
            xn = 0.5 * (x + xn)
            gn = g(xn)
            sign.update(xn, gn)
            halvings += 1
        if not math.isfinite(gn):
            raise NoConvergence("residual became non-finite", last_iterate=x, residual=gx)
        if abs(gn) > tol and not sign.ready:
            # A step that cannot descend, or three in a row that barely do (Newton
            # keeps under 0.37 of |g| near a simple root), mean a rootless minimum.
            slow = slow + 1 if abs(gn) > 0.9 * abs(gx) else 0
            if abs(gn) > abs(gx):
                return finish_from_endpoints("no damped step reduced |g| (rootless local minimum)")
            if slow == 3:
                return finish_from_endpoints("|g| shrank under 10% in 3 steps (rootless local minimum)")
        newton.append((x, u, abs(gn) / abs(gx)))
        if abs(gn) <= 0.1 * abs(gx) and not multiple:
            before = (x, gx)
        x, gx = xn, gn

    if abs(gx) <= tol:
        return x
    if sign.ready:
        return itp(g, sign.neg, sign.pos, tol)
    raise NoConvergence(f"no root after {max_iter} iterations",
                        last_iterate=x, residual=gx, iterations=max_iter)


class LUFactorization:
    """LU with row pivoting of a square matrix: one LAPACK getrf.

    Raises ValueError if A is not square or holds a non-finite entry, and
    SingularMatrix on an exactly zero pivot or a smallest-to-largest |pivot|
    ratio at or below 1e-14. A is never overwritten.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("non-finite entries")
        lu, piv, info = _getrf(A, overwrite_a=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrf")
        if info > 0:
            raise SingularMatrix(f"pivot {info} is exactly zero")
        diag = np.abs(lu.diagonal())
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise SingularMatrix(f"pivot ratio {diag.min():.3e}/{diag.max():.3e} below threshold")
        self.lu, self.piv = lu, piv

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    def solve(self, b):
        """x with A x = b: one LAPACK getrs. b is never overwritten.

        Raises ValueError if b does not match A or holds a non-finite
        entry, and SingularMatrix on a non-finite solution.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("matrix/vector size mismatch")
        if not np.isfinite(b).all():
            raise ValueError("non-finite entries")
        x, info = _getrs(self.lu, self.piv, b, overwrite_b=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        if not np.isfinite(x).all():
            raise SingularMatrix("factorization produced non-finite solution")
        return x


@dataclass
class LUHolder:
    """The factorization `solve_vector` starts from and leaves its last one in,
    with tallies of the factorizations made into it and of the chord steps
    taken from it, accepted or not."""

    lu: Optional[LUFactorization] = None
    factorizations: int = 0
    chord: int = 0


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
    tol: float = 1e-11,
    max_iter: int = 25,
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    held: Optional[LUHolder] = None,
) -> Tuple[np.ndarray, int]:
    """Chord-accelerated damped Newton for F(x) = 0; returns (x, factorizations).

    Before each Newton iteration, chord steps x <- x - LU^-1 F(x) reuse the
    factorization in `held`, if it has the size of F, for as long as each
    one stays finite and cuts the max-norm residual at least tenfold; each
    step tried adds one to `held.chord`. The iteration then factors J(x)
    by pivoted LU, keeps that factorization in `held` and adds one to
    `held.factorizations`, and halves the step until the max-norm residual
    decreases. If the damping floor, 1/64 of the step, is reached first,
    the longest step with a finite residual is taken, and NoConvergence is
    raised when there is none. Only factorizing iterations count toward
    `max_iter`; their number is returned with x,
    whose max-norm residual is at most `tol`, or is NoConvergence's
    `iterations`. `jac` defaults to a forward finite-difference Jacobian;
    `held` defaults to a fresh, empty holder.
    Raises ValueError unless tol is positive and finite and max_iter >= 1.
    """
    _check_settings(tol, max_iter)
    held = held if held is not None else LUHolder()
    x = np.array(x0, dtype=float)
    fx = np.asarray(F(x), dtype=float)
    if not np.isfinite(fx).all():
        raise NoConvergence("residual not finite at start", last_iterate=x, residual=fx)

    for k in range(max_iter):
        norm = np.abs(fx).max()
        if norm <= tol:
            return x, k
        lu = held.lu
        while lu is not None and lu.n == fx.size:
            # one getrs; fx is finite: it passed the start check or the contraction test
            step, info = _getrs(lu.lu, lu.piv, fx)
            held.chord += 1
            if info or not np.isfinite(step).all():
                break
            candidate = x - step
            try:
                fc = np.asarray(F(candidate), dtype=float)
            except (ArithmeticError, ValueError, FoldtraceError):
                break
            norm_c = np.abs(fc).max()
            if not norm_c <= _CHORD_CONTRACTION * norm:  # NaN fails the test
                break
            x, fx, norm = candidate, fc, norm_c
            if norm <= tol:
                return x, k
        J = jac(x) if jac is not None else fd_jacobian(F, x, fx)
        try:
            held.lu = LUFactorization(J)
            held.factorizations += 1
            delta = held.lu.solve(-fx)
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
                if lam / 2.0 < _DAMPING_MIN:
                    if first is None:
                        raise NoConvergence(f"line search left the residual domain: {exc}",
                                            last_iterate=x, residual=fx, iterations=k + 1) from exc
            if fc is not None and np.isfinite(fc).all():
                if first is None:
                    first = (candidate, fc)
                if np.abs(fc).max() < norm:
                    accepted = (candidate, fc)
                    break
            if lam / 2.0 < _DAMPING_MIN:
                break
            lam /= 2.0
        if accepted is None:
            # No damped step shrank the residual; a full Newton step that
            # transiently grows the norm is still the best move inside the
            # quadratic basin, so take the longest finite one.
            accepted = first
        if accepted is None:
            raise NoConvergence("line search produced no finite residual",
                                last_iterate=x, residual=fx, iterations=k + 1)
        x, fx = accepted

    if np.abs(fx).max() <= tol:
        return x, max_iter
    raise NoConvergence(f"no convergence after {max_iter} iterations",
                        last_iterate=x, residual=fx, iterations=max_iter)
