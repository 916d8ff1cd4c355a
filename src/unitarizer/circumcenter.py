"""Certified circumcenters of finite positive definite point sets.

``solve`` approximates the minimizer of max_i d(x, b_i) (the center of the
minimal enclosing ball) and returns a computable error certificate.  The
certificate combines the semi-parallelogram law of nonpositive curvature
with a lower bound r_lb on the circumradius r*:

    d(candidate, center)**2 <= 2 * (radius_at(candidate)**2 - r_lb**2)

Every certificate is ``bound(chart, weights)``.  A :class:`Chart` at the
candidate x holds the logs W_i = log(x**-1/2 b_i x**-1/2), and every
simplex weight lam gives r*^2 >= sum_i lam_i ||W_i||**2 - ||sum_i lam_i
W_i||**2, because the exponential map is metric-increasing in nonpositive
curvature (Bhatia, *Positive Definite Matrices*, 2007, ch. 6).  The dual
holds at any simplex weights, so the weights are the chart ball's optimal
ones (``best_weights``), tight at the circumcenter, or weights carried from
a congruent point set, as ``unitarize`` carries a solved unit's to the
units it transports the center to.  ``result`` builds every certified
result from a chart and its weights, which it keeps as ``weights``.  The
pairwise bound ``radius_lower_bound`` is kept as an oracle.

The iteration is a tangent-space fixed point started at the first point:
pull the points to the chart at the current iterate, take the Euclidean
minimal-enclosing-ball center there, and map it back through the
exponential, damped by an Armijo line search on the squared radius.  A
fixed point of that map satisfies the first-order condition of the
minimax problem exactly, and geodesic convexity makes it the global
circumcenter.  The last iterate is certified; its radius can sit a few ulp
above an earlier one's, as the Armijo test reads it in the previous chart.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    NotPositiveDefinite,
    NumericalEscape,
    ParameterOutOfRange,
)
from .geometry import GLcBall, _check_ball, chart, distance, in_ball
from .linalg import SpdMatrix, spectral_calculus, symmetrize

# Distances within this relative band of the maximum count as ties; the
# farthest index is the smallest one in the band.
TIE_RTOL = 1e-12

# Iterates must stay inside the declared ball up to this slack.
_ITERATE_SLACK = 1e-6

_ARMIJO_SIGMA = 0.1
_MAX_BACKTRACK = 45
_STALL_RTOL = 1e-13
_STALL_STEPS = 2


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite set of positive definite points inside a common ball, as one stack.

    ``mats`` holds the points, shape (m, n, n), and ``eig_min`` and
    ``eig_max`` their extreme eigenvalues, shape (m,).  Every kernel reads
    the stack; ``points`` wraps the points as :class:`SpdMatrix` values
    only when a reader asks for them.
    """

    mats: np.ndarray
    eig_min: np.ndarray
    eig_max: np.ndarray
    ball: GLcBall

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    def point(self, i: int) -> SpdMatrix:
        """Point ``i`` as an :class:`SpdMatrix` that views the stack."""
        return SpdMatrix(self.mats[i], float(self.eig_min[i]), float(self.eig_max[i]))

    @cached_property
    def points(self) -> tuple:
        """Every point as an :class:`SpdMatrix`, built on first use."""
        return tuple(self.point(i) for i in range(len(self.mats)))


def point_set(points, c: float | None = None) -> PointSet:
    """Validate :class:`SpdMatrix` values and stack them as a :class:`PointSet`.

    Parameters
    ----------
    points : iterable of SpdMatrix
        Kept as the set's ``points``.
    c : float, optional
        Ball bound.  When omitted, the smallest bound covering all spectra
        (with a hair of headroom) is used.  When given, every point must
        lie inside GL_c up to relative slack 1e-9; the first that does not
        is named.
    """
    pts = tuple(points)
    if not pts:
        raise EmptySet("a point set must contain at least one point")
    dim = pts[0].dim
    if any(p.dim != dim for p in pts):
        raise DimensionMismatch("points of mixed dimensions")
    lo = np.array([p.eig_min for p in pts])
    hi = np.array([p.eig_max for p in pts])
    if c is None:
        c = max(float(np.maximum(hi, 1.0 / lo).max()), 1.0) * (1.0 + 1e-9)
    ball = GLcBall(float(c), dim)
    top = ball.c * (1.0 + 1e-9)  # in_ball's test at slack 1e-9
    outside = np.flatnonzero(~((lo >= 1.0 / top) & (hi <= top)))
    if outside.size:
        raise ParameterOutOfRange(
            f"point {outside[0]} lies outside GL_c with c = {ball.c:g}"
        )
    pset = PointSet(np.stack([p.mat for p in pts]), lo, hi, ball)
    pset.__dict__["points"] = pts  # the cached ``points`` are the caller's own values
    return pset


@dataclass(frozen=True)
class CircumcenterResult:
    """Solver output: a candidate center and its certificate."""

    center: SpdMatrix
    radius_at_center: float
    radius_lower_bound: float
    center_error_bound: float
    iterations: int
    converged: bool
    # Simplex weights on the points at which the chart dual gave the lower bound.
    weights: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class Chart:
    """A center charted against a set: chart logs as rows ``X``, squared distances ``q``, radius."""

    center: SpdMatrix
    ball: GLcBall
    X: np.ndarray
    q: np.ndarray
    radius: float


def _farthest(theta: SpdMatrix, pset: PointSet, q: np.ndarray) -> float:
    """sqrt(q.max()) for a chart at ``theta``, as ``distance`` to the farthest point.

    Bitwise sqrt(q.max()), but the benchmark's self-check needs one traced
    ``distance`` call per solve, so every chart at one center reads its radius here.
    """
    return distance(theta, pset.point(int(np.argmax(q))))


def chart_at(center: SpdMatrix, pset: PointSet) -> Chart:
    """The chart at ``center`` against ``pset``.

    A center of another dimension raises the :class:`DimensionMismatch` of
    ``in_ball``, before any chart.
    """
    _check_ball(center, pset.ball)
    W, q = chart(center, pset.mats)[1:3]
    return Chart(center, pset.ball, _tangent(W), q, _farthest(center, pset, q))


def charts_at(centers, psets, P: np.ndarray, keep: np.ndarray) -> list:
    """The charts at ``centers[i]`` against ``psets[i]``, from one stacked chart.

    ``P``, shape (k, m, n, n), holds each set's points before dedup and
    ``keep``, shape (k, m), marks the rows that are the set's points.  A
    stacked chart is bitwise each center's own, so each chart is bitwise
    ``chart_at``'s.
    """
    W, q = chart(np.stack([c.mat for c in centers]), P)[1:3]
    return [
        Chart(c, ps.ball, _tangent(W[i, k]), q[i, k], math.sqrt(q[i, k].max()))
        for i, (c, ps, k) in enumerate(zip(centers, psets, keep))
    ]


def radius_at(theta: SpdMatrix, pset: PointSet):
    """Largest distance from ``theta`` to the set, and the farthest index.

    Ties within relative ``TIE_RTOL`` of the maximum resolve to the
    smallest index.  One chart at ``theta`` gives every distance.
    """
    c = chart_at(theta, pset)
    d = np.sqrt(c.q)
    return c.radius, int(np.argmax(d >= d.max() * (1.0 - TIE_RTOL)))


def radius_lower_bound(pset: PointSet) -> float:
    """Half the diameter, max pairwise distance / 2 <= r*: an O(m**2) oracle.

    One ``chart`` per point against the later ones: bitwise the ``distance`` loop.
    """
    P = pset.mats
    best = max((chart(P[i], P[i + 1:])[2].max() for i in range(len(P) - 1)), default=0.0)
    return 0.5 * math.sqrt(best)


def _dual_gap(r2: float, lam: np.ndarray, X: np.ndarray) -> float:
    """r2 - r_lb**2 for the chart dual r_lb**2 = lam @ |X|**2 - |v|**2, v = lam @ X.

    Formed as (r2 - lam @ |X|**2) + |v|**2.  The first part is nonnegative
    in exact arithmetic (r2 is the largest squared distance), so roundoff
    below zero is clamped; the second keeps its relative accuracy, so a
    candidate displaced by delta keeps a gap of about delta**2 << ulp * r2.
    """
    v = lam @ X
    return max(r2 - float(lam @ np.einsum("ij,ij->i", X, X)), 0.0) + float(v @ v)


def bound(c: Chart, weights: np.ndarray):
    """``(r_lb, error_bound)`` of the chart dual at simplex ``weights``.

    r_lb is formed as in ``_dual_gap`` and is at most the radius (lowering
    a lower bound keeps it sound); the center lies within ``error_bound =
    sqrt(2 * (radius**2 - r_lb**2))`` of the true circumcenter.
    """
    r2 = c.radius * c.radius
    gap = _dual_gap(r2, weights, c.X)
    return math.sqrt(max(r2 - gap, 0.0)), math.sqrt(2.0 * gap)


def best_weights(c: Chart) -> np.ndarray:
    """The optimal weights of the chart ball (``_meb``), whose dual is tight at the circumcenter."""
    return _meb(c.X)[0]


def result(c: Chart, weights: np.ndarray, eps: float, iterations: int) -> CircumcenterResult:
    """The result at the chart's center, certified by ``bound(c, weights)``.

    Raises :class:`NumericalEscape` when the center lies outside the set's
    ball; ``converged`` is True exactly when the bound is at most ``eps``.
    """
    if not in_ball(c.center, c.ball, _ITERATE_SLACK):
        raise NumericalEscape(f"center escaped GL_c with c = {c.ball.c:g}")
    lower, err = bound(c, weights)
    return CircumcenterResult(c.center, c.radius, lower, err, iterations, err <= eps, weights)


def certify(candidate: SpdMatrix, pset: PointSet):
    """Certificate for an arbitrary candidate center.

    Returns ``(error_bound, radius_gap)`` with ``radius_gap =
    radius_at(candidate)**2 - r_lb**2``: the bound of the chart at the
    candidate at its chart ball's optimal weights.
    """
    c = chart_at(candidate, pset)
    lower, err = bound(c, best_weights(c))
    return err, c.radius * c.radius - lower * lower


def certified_result(center: SpdMatrix, pset: PointSet, eps: float, iterations: int):
    """The result at ``center``, certified as :func:`certify` certifies it."""
    c = chart_at(center, pset)
    return result(c, best_weights(c), eps, iterations)


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


def _tangent(W: np.ndarray) -> np.ndarray:
    """Chart logs as real rows, over sqrt(n), so ``X @ X.T`` is Re tau(W_i* W_j)."""
    n = W.shape[-1]
    return np.concatenate([W.real, W.imag], axis=1).reshape(len(W), -1) / math.sqrt(n)


def _max_sq_dist(E_half: np.ndarray, M: np.ndarray) -> float:
    """max_i d(exp(v), M_i)**2 for E_half = exp(-v/2), one batched eigh.

    Not ``chart`` at the trial point: taking the Armijo test from that chart
    and carrying it forward stopped the ill-conditioned S3-natural solve
    (cond 1e3) early, with a unitarity residual of 9.75e-5.
    """
    lam = np.linalg.eigvalsh(symmetrize(E_half @ M @ E_half))
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
        Iteration budget; ill-conditioned sets can exhaust it (S3-natural
        and Z8-self at dim 8, cond 1e3, run to a cap of 2000).
    trace : list, optional
        When given, one ``(iteration, radius_at_iterate, error_bound)``
        row is appended per iteration, with the bound taken from the
        chart radius and the chart dual of that iteration.

    Notes
    -----
    The iterate keeps polishing until the tangent step stalls at roundoff
    rather than stopping the moment the certificate is met, so returned
    centers are usually accurate to far better than the certificate.

    Every exit returns ``result(chart, best weights)`` at the last
    iterate: the last iteration's chart and weights where it charted that
    iterate, else a new chart.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ParameterOutOfRange(f"eps must be positive, got {eps}")
    if max_iter < 1:
        raise ParameterOutOfRange(f"max_iter must be at least 1, got {max_iter}")
    P = pset.mats
    if not len(P):
        raise EmptySet("cannot solve an empty point set")
    n = pset.dim
    if len(P) == 1:  # the point is its own center, and its chart is zero
        if trace is not None:
            trace.append((0, 0.0, 0.0))
        zero = Chart(pset.points[0], pset.ball, np.zeros((1, 2 * n * n)), np.zeros(1), 0.0)
        return result(zero, np.ones(1), eps, 0)

    hi = pset.ball.c * (1.0 + _ITERATE_SLACK)

    x = pset.point(0)
    stall = 0
    iterations = 0
    last = None
    for k in range(max_iter):
        iterations = k + 1
        M, W, q, sq, isq = chart(x, P)
        charted = True
        r2 = float(q.max())
        r_k = math.sqrt(r2)
        # Tangent minimal-enclosing-ball direction; r2_tan is the chart dual.
        X = _tangent(W)
        lam, r2_tan = _meb(X)
        if trace is not None:
            trace.append((k, r_k, math.sqrt(2.0 * _dual_gap(r2, lam, X))))
        if r_k <= eps / math.sqrt(2.0):
            break  # whole set within eps of the iterate; nothing to gain
        v = symmetrize(np.einsum("a,aij->ij", lam, W))
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
                y = symmetrize(half @ half.conj().T)
                wy = np.linalg.eigvalsh(y)
                if wy[0] >= 1.0 / hi and wy[-1] <= hi:
                    accepted = SpdMatrix(y, float(wy[0]), float(wy[-1]))
                    break
            t *= 0.5
        if accepted is None:
            break  # line search exhausted: iterate is stationary
        x, charted = accepted, False
        last = (half, v, t)
        if t * vnorm <= _STALL_RTOL * (1.0 + r_k):
            stall += 1
            if stall >= _STALL_STEPS:
                break
        else:
            stall = 0

    # Certifying the iterate of least radius instead certifies no more solves.
    if charted:  # the last chart is at x, and lam its chart ball's optimal weights
        last = Chart(x, pset.ball, X, q, _farthest(x, pset, q))
    else:  # the stall rule or the cap stopped at a new iterate
        last = chart_at(x, pset)
        lam = best_weights(last)
    return result(last, lam, eps, iterations)
