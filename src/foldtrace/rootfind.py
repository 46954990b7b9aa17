"""Scalar and vector Newton solvers plus the dense linear solve they share.

The scalar solver is deliberately defensive: the tracer points it at 1-D
slices of implicit curves, which near cusps behave like |t|^(2/3) where a
plain finite-difference Newton loop falls apart. It therefore uses a
relative finite-difference step (an absolute one only where that slope
is zero or not finite) and backtracking, finishes with ITP (a
bracketed regula falsi at worst one step slower than bisection) once a
sign change has been seen, and gives up early when Newton circles a
rootless minimum of |g|. Every slice solve of a trace, and so every
turning point, goes through it; on the lubrication diagram each residual
evaluation is a bordered Newton solve, so its steps reuse earlier
iterates where they can instead of taking fresh finite differences.

The vector solver is a chord (modified) Newton method on the Jacobian its
caller supplies: it keeps the last LU factorization of the Jacobian and
reuses it while the steps it gives stay finite and cut the residual
tenfold, and factors a fresh Jacobian only when they stop doing so. A
chord step costs one LU solve (LAPACK getrs) and one residual. A caller
that runs many nearby solves can carry the factorization from one solve
to the next in an `LUHolder`, which also tallies the factorizations and
the chord steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import FoldtraceError, NoConvergence, SingularMatrix

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
# A chord step is kept only if it cuts max|F| at least this much; otherwise
# the Jacobian is factored afresh.
_CHORD_CONTRACTION = 0.1
_DAMPING_MIN = 1.0 / 64.0  # the line search halves a Newton step down to this fraction


@cache
def _lapack() -> Sequence[Callable]:
    """LAPACK's getrf and getrs, bound on first use: a trace that factors no
    matrix never imports SciPy."""
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


def _check_settings(tol: float, max_iter: int) -> None:
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def _fd_step_wide(x: float) -> float:
    # Fallback for residuals whose internal cancellation swallows the
    # relative step (e.g. x^2 + 1 - 1 near x = 0): classical absolute form.
    return _SQRT_EPS * (1.0 + abs(x))


def _narrow(neg, pos, x: float, gx: float):
    """Sign bracket (neg, pos) of (x, g) pairs after seeing g(x) = gx: until both
    signs are seen the latest abscissa of a sign is kept, after that only one
    closer to the opposite end. Zero and non-finite residuals are ignored."""
    if -math.inf < gx < 0.0:
        if neg is None or pos is None or abs(x - pos[0]) < abs(neg[0] - pos[0]):
            return (x, gx), pos
    elif 0.0 < gx < math.inf:
        if pos is None or neg is None or abs(x - neg[0]) < abs(pos[0] - neg[0]):
            return neg, (x, gx)
    return neg, pos


def _probe_endpoints(g, bracket, neg, pos, tol: float, reason: str, x: float, gx: float) -> float:
    """ITP root after probing the bracket ends once for a sign change; without
    one, NoConvergence(reason) with the last iterate x and its residual gx."""
    if bracket is not None:
        known = [end for end in (neg, pos) if end is not None]
        for e in bracket:
            try:
                neg, pos = _narrow(neg, pos, e, g(e))
            except (ArithmeticError, ValueError, FoldtraceError):
                continue
        for end in known:  # a probe of the known sign may have replaced a nearer end
            neg, pos = _narrow(neg, pos, *end)
        if neg is not None and pos is not None:
            return itp(g, neg, pos, tol)
    raise NoConvergence(reason, last_iterate=x, residual=gx)


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

    x = min(max(x0, lo), hi)
    gx = g(x)
    if not math.isfinite(gx):
        raise NoConvergence("residual not finite at start", last_iterate=x, residual=gx)
    abs_gx = abs(gx)  # each residual's |g| is taken once and carried beside it
    neg, pos = _narrow(None, None, x, gx)  # (x, g) with g < 0 and with g > 0, once seen
    slow = 0  # consecutive Newton steps that cut |g| by under 10%
    before = None  # (x, g) before a step that cut |g| tenfold: the secant's far end
    # (x, u = g/g', share of |g| kept) of the last two finite-difference steps
    older = newer = None
    multiple, p = False, 1.0  # two steps kept the same share of |g|: a zero of multiplicity p

    # Until both signs are seen, (neg, pos) takes each new finite residual of its
    # sign; that is _narrow's rule for a bracket with an open end, applied in line.
    for iteration in range(max_iter + 1):
        if abs_gx <= tol:
            return x
        if neg is not None and pos is not None:
            return itp(g, neg, pos, tol)
        if iteration == max_iter:
            raise NoConvergence(f"no root after {max_iter} iterations",
                                last_iterate=x, residual=gx, iterations=max_iter)

        if before is not None:
            xs = min(max(x - gx * (x - before[0]) / (gx - before[1]), lo), hi)
            before = None
            if xs != x:
                gs = g(xs)
                if -math.inf < gs < 0.0:
                    neg = (xs, gs)
                elif 0.0 < gs < math.inf:
                    pos = (xs, gs)
                abs_gs = abs(gs)
                if abs_gs <= 0.5 * abs_gx:  # NaN fails
                    if abs_gs <= 0.1 * abs_gx:
                        before = (x, gx)
                    x, gx, abs_gx = xs, gs, abs_gs
                    continue
                if neg is not None and pos is not None:
                    return itp(g, neg, pos, tol)

        # Relative step: an absolute step straddles the kink of cube-root-like
        # slices once |x| falls below it, producing derivative estimates with
        # the wrong sign.
        h = _SQRT_EPS * (abs(x) + _SQRT_EPS)
        if x + h > hi:
            h = -h
        gxh = g(x + h)
        if -math.inf < gxh < 0.0:
            neg = (x + h, gxh)
        elif 0.0 < gxh < math.inf:
            pos = (x + h, gxh)
        slope = (gxh - gx) / h
        if not math.isfinite(slope) or slope == 0.0:  # flat: the wide step
            h = _fd_step_wide(x)
            if x + h > hi:
                h = -h
            gxh = g(x + h)
            neg, pos = _narrow(neg, pos, x + h, gxh)
            slope = (gxh - gx) / h

        stuck = not math.isfinite(slope) or slope == 0.0
        if not stuck:
            u = gx / slope
            if older is not None and not multiple:
                q1, q2 = older[2], newer[2]
                multiple = 0.5 < q2 < 0.9 and abs(q1 - q2) <= 0.01 * q2
            if multiple and u != newer[1]:
                p = (x - newer[0]) / (u - newer[1])
            xn = x - (p if 0.0 < p <= 1.0 else 1.0) * u
            if not math.isfinite(xn):
                stuck = True
            elif xn < lo or xn > hi:
                xn = min(max(xn, lo), hi)
                if xn == x:  # pressing against the boundary
                    stuck = True
        if stuck:
            return _probe_endpoints(g, bracket, neg, pos, tol,
                                    "derivative vanished or iterate left the bracket", x, gx)

        gn = g(xn)
        if neg is not None and pos is not None:
            neg, pos = _narrow(neg, pos, xn, gn)
        elif -math.inf < gn < 0.0:
            neg = (xn, gn)
        elif 0.0 < gn < math.inf:
            pos = (xn, gn)
        abs_gn = abs(gn)
        halvings = 0
        while (not math.isfinite(gn) or abs_gn > abs_gx) and halvings < 8:
            xn = 0.5 * (x + xn)
            gn = g(xn)
            neg, pos = _narrow(neg, pos, xn, gn)
            abs_gn = abs(gn)
            halvings += 1
        if not math.isfinite(gn):
            raise NoConvergence("residual became non-finite", last_iterate=x, residual=gx)
        if abs_gn > tol and (neg is None or pos is None):
            # A step that cannot descend, or three in a row that barely do (Newton
            # keeps under 0.37 of |g| near a simple root), mean a rootless minimum.
            slow = slow + 1 if abs_gn > 0.9 * abs_gx else 0
            if abs_gn > abs_gx:
                return _probe_endpoints(g, bracket, neg, pos, tol,
                                        "no damped step reduced |g| (rootless local minimum)", x, gx)
            if slow == 3:
                return _probe_endpoints(g, bracket, neg, pos, tol,
                                        "|g| shrank under 10% in 3 steps (rootless local minimum)",
                                        x, gx)
        older, newer = newer, (x, u, abs_gn / abs_gx)
        if abs_gn <= 0.1 * abs_gx and not multiple:
            before = (x, gx)
        x, gx, abs_gx = xn, gn, abs_gn


@dataclass
class LUHolder:
    """A pivoted LU factorization (LAPACK getrf) kept from one solve to the next,
    with tallies of the factorizations made into it and of the chord steps
    taken from it, accepted or not."""

    factorizations: int = 0
    chord: int = 0
    # getrf's factors of the held matrix and its pivot indices, set by `factor`
    lu: Optional[np.ndarray] = field(default=None, init=False)
    _piv: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def factor(self, A) -> None:
        """Hold the LU factorization of A in place of the last one; A is never
        overwritten. Raises ValueError if A is not square or holds a non-finite
        entry, and SingularMatrix on an exactly zero pivot or a smallest-to-largest
        |pivot| ratio at or below 1e-14; the last factorization is then kept, and
        `solve_vector` passes the SingularMatrix on."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("non-finite entries")
        lu, piv, info = _lapack()[0](A, overwrite_a=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrf")
        if info > 0:
            raise SingularMatrix(f"pivot {info} is exactly zero")
        diag = np.abs(lu.diagonal())
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise SingularMatrix(f"pivot ratio {diag.min():.3e}/{diag.max():.3e} below threshold")
        self.lu, self._piv = lu, piv
        self.factorizations += 1

    def solve(self, b) -> Optional[np.ndarray]:
        """x with A x = b for the held A: one LAPACK getrs; b is never
        overwritten. None if no A of b's size is held or x is not finite."""
        if self.lu is None or len(b) != len(self.lu):
            return None
        x, info = _lapack()[1](self.lu, self._piv, b)
        return x if not info and np.isfinite(x).all() else None


def solve_vector(
    F: Callable[[np.ndarray], Sequence[float]],
    x0,
    tol: float = 1e-11,
    max_iter: int = 25,
    *,
    jac: Callable[[np.ndarray], np.ndarray],
    held: Optional[LUHolder] = None,
) -> Tuple[np.ndarray, int]:
    """Chord-accelerated damped Newton for F(x) = 0; returns (x, factorizations).

    Before each Newton iteration, chord steps x <- x - LU^-1 F(x) reuse the
    factorization in `held`, if it has the size of F, for as long as each
    one stays finite and cuts the max-norm residual at least tenfold; each
    step tried adds one to `held.chord`. The iteration then factors J(x)
    by pivoted LU, keeps that factorization in `held` and adds one to
    `held.factorizations`, and tries the step at 1, 1/2, ..., 1/64 of its
    length. It takes the first trial that decreases the max-norm residual,
    else the longest one with a finite residual, and raises NoConvergence
    when no trial has one. Only factorizing iterations count toward
    `max_iter`; their number is returned with x,
    whose max-norm residual is at most `tol`, or is NoConvergence's
    `iterations`. `jac(x)`, the Jacobian of F at x, is required; `held`
    defaults to a fresh, empty holder.
    Raises ValueError unless tol is positive and finite and max_iter >= 1,
    and SingularMatrix where J(x) is singular or its Newton step not finite.
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
        while held.lu is not None and len(held.lu) == fx.size:
            step = held.solve(fx)  # fx is finite: it passed the start check or the contraction test
            held.chord += 1
            if step is None:
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
        J = jac(x)
        if len(J) != fx.size:
            raise ValueError("matrix/vector size mismatch")
        held.factor(J)
        delta = held.solve(-fx)
        if delta is None:
            raise SingularMatrix("factorization produced non-finite solution")

        # A full Newton step that transiently grows the norm is still the best move
        # inside the quadratic basin, so without a decrease the longest finite trial wins.
        lam, accepted, error = 1.0, None, None
        while lam >= _DAMPING_MIN:
            candidate = x + lam * delta
            lam /= 2.0
            try:
                fc = np.asarray(F(candidate), dtype=float)
            except (ArithmeticError, ValueError, FoldtraceError) as exc:
                error = exc
                continue
            error = None
            if not np.isfinite(fc).all():
                continue
            accepted = accepted or (candidate, fc)
            if np.abs(fc).max() < norm:
                accepted = (candidate, fc)
                break
        if accepted is None:
            reason = ("line search produced no finite residual" if error is None
                      else f"line search left the residual domain: {error}")
            raise NoConvergence(reason, last_iterate=x, residual=fx, iterations=k + 1) from error
        x, fx = accepted

    if np.abs(fx).max() <= tol:
        return x, max_iter
    raise NoConvergence(f"no convergence after {max_iter} iterations",
                        last_iterate=x, residual=fx, iterations=max_iter)
