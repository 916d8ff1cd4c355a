"""Certified circumcenters of finite positive definite point sets.

``solve`` approximates the minimizer of max_i d(x, b_i) (the center of the
minimal enclosing ball) and returns a computable error certificate.  The
certificate combines the semi-parallelogram law of nonpositive curvature
with the pairwise lower bound r >= max_ij d(b_i, b_j) / 2:

    d(candidate, center)**2 <= 2 * (radius_at(candidate)**2 - r_lb**2)

The lower bound is not tight for generic sets of three or more points, so
the certificate can stall at a positive value even when the iterate has
converged; the result then reports ``converged = False`` with the stalled
bound, which stays sound.

The iteration is a tangent-space fixed point started at the first point:
pull the points to the chart at the current iterate, take the Euclidean
minimal-enclosing-ball center there, and map it back through the
exponential, damped by an Armijo line search on the squared radius.  A
fixed point of that map satisfies the first-order condition of the
minimax problem exactly, and geodesic convexity makes it the global
circumcenter.  Every accepted step lowers the radius, so the last iterate
is the one certified.  Farthest-point geodesic steps (the Riemannian
1-center iteration of Arnaudon & Nielsen, Comput. Geom. 2013) converge far
too slowly for the center accuracies the unitarization pipeline needs,
and ahead of the exact chart step they only add iterations.

The chart ball is solved exactly by ``_meb``, the pivoting walk of
Fischer, Gaertner & Kutz (ESA 2003), which handles the affinely dependent
and cospherical supports that group symmetry produces.  In nonpositive
curvature the chart underestimates how fast distances grow, so the full
tangent step overshoots the center by a factor of one to two.  The line
search therefore starts from the Barzilai-Borwein step length, measured
from the last step and the change in the tangent direction, instead of
from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    NotPositiveDefinite,
    NumericalEscape,
    ParameterOutOfRange,
)
from .geometry import GLcBall, distance, in_ball
from .linalg import SpdMatrix, spectral_calculus

# Distances within this relative band of the maximum count as ties; the
# farthest index is the smallest one in the band.
TIE_RTOL = 1e-12

# Iterates must stay inside the declared ball up to this slack.
_ITERATE_SLACK = 1e-6

_ARMIJO_SIGMA = 0.1
_MAX_BACKTRACK = 45
_STALL_RTOL = 1e-13
_STALL_STEPS = 2
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PointSet:
    """A finite set of positive definite points inside a common ball."""

    points: tuple
    ball: GLcBall


def point_set(points, c: float | None = None) -> PointSet:
    """Build a :class:`PointSet`, deriving the enclosing ball if needed.

    Parameters
    ----------
    points : iterable of SpdMatrix
    c : float, optional
        Ball bound.  When omitted, the smallest bound covering all spectra
        (with a hair of headroom) is used.  When given, every point must
        lie inside GL_c up to relative slack 1e-9.
    """
    pts = tuple(points)
    if not pts:
        raise EmptySet("a point set must contain at least one point")
    dim = pts[0].dim
    for p in pts:
        if p.dim != dim:
            raise DimensionMismatch("points of mixed dimensions")
    spread = max(max(p.eig_max, 1.0 / p.eig_min) for p in pts)
    if c is None:
        c = max(spread, 1.0) * (1.0 + 1e-9)
    ball = GLcBall(float(c), dim)
    for i, p in enumerate(pts):
        if not in_ball(p, ball, slack=1e-9):
            raise ParameterOutOfRange(
                f"point {i} lies outside GL_c with c = {ball.c:g}"
            )
    return PointSet(pts, ball)


@dataclass(frozen=True)
class CircumcenterResult:
    """Solver output: a candidate center and its certificate."""

    center: SpdMatrix
    radius_at_center: float
    radius_lower_bound: float
    center_error_bound: float
    iterations: int
    converged: bool


def radius_at(theta: SpdMatrix, pset: PointSet):
    """Largest distance from ``theta`` to the set, and the farthest index.

    Ties within relative ``TIE_RTOL`` of the maximum resolve to the
    smallest index.
    """
    dists = [distance(theta, p) for p in pset.points]
    rmax = max(dists)
    cut = rmax * (1.0 - TIE_RTOL)
    far = next(i for i, d in enumerate(dists) if d >= cut)
    return rmax, far


def radius_lower_bound(pset: PointSet) -> float:
    """Half the diameter: max pairwise distance / 2 <= true circumradius."""
    pts = pset.points
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = distance(pts[i], pts[j])
            if d > best:
                best = d
    return 0.5 * best


def _error_bound(radius_sq: float, lb_sq: float) -> float:
    return math.sqrt(2.0 * max(0.0, radius_sq - lb_sq))


def certify(candidate: SpdMatrix, pset: PointSet):
    """Certificate for an arbitrary candidate center.

    Returns ``(error_bound, radius_gap)`` with
    ``error_bound = sqrt(2 * max(0, radius_at(candidate)**2 - r_lb**2))``;
    the true circumcenter lies within ``error_bound`` of the candidate.
    """
    r, _ = radius_at(candidate, pset)
    lb = radius_lower_bound(pset)
    gap = r * r - lb * lb
    return _error_bound(r * r, lb * lb), gap


def certified_result(
    center: SpdMatrix,
    pset: PointSet,
    eps: float,
    iterations: int,
    radius: float | None = None,
    lower: float | None = None,
) -> CircumcenterResult:
    """Certify ``center`` against ``pset`` and wrap it as a result.

    ``radius`` and ``lower`` default to ``radius_at(center, pset)`` and
    ``radius_lower_bound(pset)``; callers that already hold them pass them
    in.  Raises :class:`NumericalEscape` when the center lies outside the
    set's ball; ``converged`` is True exactly when the bound is at most
    ``eps``.
    """
    if not in_ball(center, pset.ball, _ITERATE_SLACK):
        raise NumericalEscape(f"center escaped GL_c with c = {pset.ball.c:g}")
    if radius is None:
        radius = radius_at(center, pset)[0]
    if lower is None:
        lower = radius_lower_bound(pset)
    bound = _error_bound(radius * radius, lower * lower)
    return CircumcenterResult(
        center=center,
        radius_at_center=radius,
        radius_lower_bound=lower,
        center_error_bound=bound,
        iterations=iterations,
        converged=bound <= eps,
    )


def _sym(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))


def _meb(X: np.ndarray):
    """Euclidean minimal enclosing ball of the rows of ``X``.

    The pivoting walk of Fischer, Gaertner & Kutz ("Fast smallest-
    enclosing-ball computation in high dimensions", ESA 2003).  The center
    c starts at the origin, and the support T at the farthest point; every
    point of T lies on the boundary of the ball about c, and every other
    point inside it.  Each pivot walks c toward the circumcenter of T (the
    point of aff(T) equidistant from T), which shrinks the ball.  The
    first point that the shrinking boundary reaches stops the walk and
    enters T.  Once c reaches aff(T), the point of T with the most
    negative affine weight leaves.  When no weight is negative, c lies in
    conv(T) and the ball is the smallest.

    A point enters T only when its distance from aff(T), measured through
    an orthonormal basis of T, is at least ulp**(1/3) times the initial
    radius: a point left out that way moves the ball by about that
    fraction, and one let in costs about ulp / fraction**2 in the affine
    weights, so the cube root balances the two.  A walk no longer than
    roundoff counts as having reached aff(T), so cospherical supports
    shed points instead of cycling.  Of the points that reach the boundary
    together, the smallest index enters.  A walk that has not ended after
    a fixed number of pivots raises :class:`NumericalEscape`.

    Returns
    -------
    lam : (m,) simplex weights; the center is ``lam @ X``
    r2 : squared radius, the dual objective at ``lam``
    """
    m, dim = X.shape
    sq = np.einsum("ij,ij->i", X, X)
    far = int(np.argmax(sq))
    lam = np.zeros(m)
    r0 = math.sqrt(sq[far])
    if r0 == 0.0:
        lam[far] = 1.0
        return lam, 0.0
    ulp = float(np.finfo(float).eps)
    tol = m * ulp * r0  # roundoff of a length
    thin = ulp ** (1.0 / 3.0) * r0
    # T = [t0, t1, ...] with (X[T[1:]] - t0).T = Q R; its circumcenter is
    # cc = t0 + Q y.  gap holds r**2 - |c - x|**2 for every point x.
    cap = min(m, dim + 1)
    Q = np.zeros((dim, cap))
    R = np.zeros((cap, cap))
    y = np.zeros(cap)
    T = [far]
    c = np.zeros(dim)
    cc = X[far].copy()
    gap = sq[far] - sq
    reached = False
    for _ in range(10 * (m + dim)):
        k = len(T) - 1
        d = cc - c
        if reached or d @ d <= tol * tol:  # c is the circumcenter of T
            a = np.linalg.solve(R[:k, :k], y[:k])
            w = np.concatenate(([1.0 - a.sum()], a))
            j = int(np.argmin(w))
            if w[j] >= 0.0:
                lam[T] = w
                v = lam @ X
                return lam, float(lam @ sq - v @ v)
            del T[j]
            k -= 1
            t0 = X[T[0]]
            U = X[T[1:]] - t0
            Q[:, :k], R[:k, :k] = np.linalg.qr(U.T)
            y[:k] = np.linalg.solve(R[:k, :k].T, 0.5 * np.einsum("ij,ij->i", U, U))
            cc = t0 + Q[:, :k] @ y[:k]
            reached = False
            continue
        # Walk c + s d, s in [0, 1]: x reaches the boundary at s = gap / den.
        Xd = X @ d
        den = 2.0 * (Xd[T[0]] - Xd)
        den[T] = 0.0
        ratio = np.full(m, np.inf)  # gaps within roundoff tie at 0
        np.divide(np.where(gap > tol * r0, gap, 0.0), den, out=ratio, where=den > 0.0)
        step = 1.0
        while True:
            p = int(np.argmin(ratio))
            if ratio[p] >= 1.0:
                break
            u = X[p] - X[T[0]]
            h = Q[:, :k].T @ u
            e = u - Q[:, :k] @ h
            h2 = Q[:, :k].T @ e  # reorthogonalize once
            e -= Q[:, :k] @ h2
            rho = math.sqrt(e @ e)
            if rho < thin:
                ratio[p] = np.inf
                continue
            step = float(ratio[p])
            Q[:, k] = e / rho
            R[:k, k] = h + h2
            R[k, k] = rho
            y[k] = (0.5 * (u @ u) - R[:k, k] @ y[:k]) / rho
            T.append(p)
            break
        c += step * d
        gap -= step * den
        reached = step == 1.0
        if reached:
            c = cc.copy()
        else:
            gap[p] = 0.0
            cc += y[k] * Q[:, k]
    raise NumericalEscape("minimal enclosing ball walk exceeded its pivot budget")


def _chart(x: SpdMatrix, P: np.ndarray):
    """Pull the point stack ``P`` to the chart at ``x``.

    Returns the translated points M = x**-1/2 P x**-1/2, their logs W,
    the squared distances q_i = d(x, P_i)**2, x**1/2 and x**-1/2.
    """
    _, sq, isq = spectral_calculus(
        x.mat, np.sqrt, lambda w: 1.0 / np.sqrt(w), floor=0.0, name="iterate"
    )
    M = _sym(isq @ P @ isq)
    lam, W = spectral_calculus(M, np.log, floor=0.0, name="relative spectrum")
    q = np.mean(np.log(lam) ** 2, axis=1)
    return M, W, q, sq, isq


def _max_sq_dist(E_half: np.ndarray, M: np.ndarray) -> float:
    """max_i d(exp(v), M_i)**2 for E_half = exp(-v/2), one batched eigh."""
    lam = np.linalg.eigvalsh(_sym(E_half @ M @ E_half))
    if lam[:, 0].min() <= 0.0:
        raise NotPositiveDefinite("relative spectrum lost positivity")
    return float(np.max(np.mean(np.log(lam) ** 2, axis=1)))


def solve(
    pset: PointSet,
    eps: float,
    max_iter: int = 100_000,
    trace: list | None = None,
) -> CircumcenterResult:
    """Approximate the circumcenter of ``pset`` with a certified bound.

    Parameters
    ----------
    pset : PointSet
    eps : float
        Certificate target.  ``converged`` is True exactly when the final
        ``center_error_bound`` is at most ``eps``.
    max_iter : int
        Iteration budget; stalls are detected long before generic budgets
        are exhausted.
    trace : list, optional
        When given, one ``(iteration, radius_at_iterate, error_bound)``
        row is appended per iteration.

    Notes
    -----
    The iterate keeps polishing until the tangent step stalls at roundoff
    rather than stopping the moment the certificate is met, so returned
    centers are usually accurate to far better than the certificate.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ParameterOutOfRange(f"eps must be positive, got {eps}")
    if max_iter < 1:
        raise ParameterOutOfRange(f"max_iter must be at least 1, got {max_iter}")
    pts = pset.points
    if not pts:
        raise EmptySet("cannot solve an empty point set")
    if len(pts) == 1:
        if trace is not None:
            trace.append((0, 0.0, 0.0))
        return CircumcenterResult(pts[0], 0.0, 0.0, 0.0, 0, True)

    n = pts[0].dim
    P = np.stack([p.mat for p in pts])
    lb = radius_lower_bound(pset)
    lb_sq = lb * lb
    hi = pset.ball.c * (1.0 + _ITERATE_SLACK)

    x = pts[0]
    stall = 0
    iterations = 0
    last = None
    for k in range(max_iter):
        iterations = k + 1
        M, W, q, sq, isq = _chart(x, P)
        r2 = float(q.max())
        r_k = math.sqrt(r2)
        if trace is not None:
            trace.append((k, r_k, _error_bound(r2, lb_sq)))
        if r_k <= eps / _SQRT2:
            break  # whole set within eps of the iterate; nothing to gain

        # Tangent minimal-enclosing-ball direction.
        X = np.concatenate([W.real, W.imag], axis=1).reshape(len(pts), -1)
        lam, r2_tan = _meb(X / math.sqrt(n))
        v = _sym(np.einsum("a,aij->ij", lam, W))
        vnorm = float(np.sqrt(np.sum(np.abs(v) ** 2) / n))
        if vnorm <= _STALL_RTOL * (1.0 + r_k):
            break  # first-order condition met to roundoff
        delta = max(r2 - r2_tan, 0.0)
        t = 1.0
        if last is not None:
            # Barzilai-Borwein: t_last |s|**2 / <s, s - v>, where s is the
            # last direction carried to this chart by the unitary
            # x**-1/2 x_last**1/2 exp(t_last v_last / 2).
            half, v_last, t_last = last
            U = isq @ half
            s = U @ v_last @ U.conj().T
            ss = float(np.real(np.vdot(s, s)))
            sy = ss - float(np.real(np.vdot(v, s)))
            if sy > 0.0:
                t = min(1.0, t_last * ss / sy)

        accepted = None
        for _ in range(_MAX_BACKTRACK):
            # exp(-tv/2) pulls the trial point to the chart origin, and with
            # half = x**1/2 exp(tv/2) the trial point is half half*.
            _, E_half, E_root = spectral_calculus(
                v, lambda w: np.exp(-0.5 * t * w), lambda w: np.exp(0.5 * t * w)
            )
            try:
                F_y = _max_sq_dist(E_half, M)
            except NotPositiveDefinite:
                t *= 0.5
                continue
            if F_y <= r2 - _ARMIJO_SIGMA * t * delta:
                half = sq @ E_root
                y = _sym(half @ half.conj().T)
                wy = np.linalg.eigvalsh(y)
                if wy[0] >= 1.0 / hi and wy[-1] <= hi:
                    accepted = SpdMatrix(y, float(wy[0]), float(wy[-1]))
                    break
            t *= 0.5
        if accepted is None:
            break  # line search exhausted: iterate is stationary
        x = accepted
        last = (half, v, t)
        if t * vnorm <= _STALL_RTOL * (1.0 + r_k):
            stall += 1
            if stall >= _STALL_STEPS:
                break
        else:
            stall = 0

    # Every accepted step lowers the radius, so the last iterate is the best.
    return certified_result(x, pset, eps, iterations, lower=lb)
