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

The iteration starts with farthest-point geodesic steps x_{k+1} =
geodesic(x_k, farthest point, 1/(k+2)) and then switches to a
tangent-space fixed point: pull the points to the chart at the current
iterate, take the Euclidean minimal-enclosing-ball center there, and map
it back through the exponential, damped by an Armijo line search on the
squared radius.  A fixed point of that map satisfies the first-order
condition of the minimax problem exactly, and geodesic convexity makes it
the global circumcenter; plain farthest-point steps alone converge far
too slowly for the center accuracies the unitarization pipeline needs.
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
from .geometry import GLcBall, distance, geodesic, in_ball
from .linalg import SpdMatrix

# Distances within this relative band of the maximum count as ties; the
# farthest index is the smallest one in the band.
TIE_RTOL = 1e-12

# Farthest-point warmup iterations before the tangent fixed point starts.
_BC_WARMUP = 4

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


def _conj_t(stack: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(stack, -1, -2))


def _sym(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + _conj_t(stack))


def _kkt_solve(K: np.ndarray, q: np.ndarray, S):
    """Equality-constrained stationarity system on a trial support.

    Solves [2 K_SS, 1; 1', 0] [lam; alpha] = [q_S; 1]; falls back to the
    least-squares solution when the bordered matrix is (near) singular,
    which happens for affinely dependent supports.
    """
    s = len(S)
    A = np.zeros((s + 1, s + 1))
    A[:s, :s] = 2.0 * np.real(K[np.ix_(S, S)])
    A[:s, s] = 1.0
    A[s, :s] = 1.0
    rhs = np.concatenate([q[S], [1.0]])
    try:
        sol = np.linalg.solve(A, rhs)
        bad = not np.all(np.isfinite(sol)) or np.linalg.norm(
            A @ sol - rhs
        ) > 1e-9 * (1.0 + np.linalg.norm(rhs))
    except np.linalg.LinAlgError:
        bad = True
    if bad:
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return sol[:s], float(sol[s])


def _fw_ascent(K: np.ndarray, q: np.ndarray, lam: np.ndarray, tol: float):
    """Away-step Frank-Wolfe for max lam'q - lam'K lam over the simplex.

    Guaranteed-progress fallback for supports where the active set loses
    its footing; terminates on a stationarity gap below ``tol``.
    """
    m = K.shape[0]
    lam = np.clip(lam, 0.0, None)
    tot = lam.sum()
    lam = lam / tot if tot > 0.0 else np.full(m, 1.0 / m)
    Kl = K @ lam
    for it in range(50_000):
        grad = q - 2.0 * Kl
        mean_grad = float(lam @ grad)
        j_fw = int(np.argmax(grad))
        gap_fw = grad[j_fw] - mean_grad
        pos = np.flatnonzero(lam > 0.0)
        j_aw = int(pos[np.argmin(grad[pos])])
        gap_aw = mean_grad - grad[j_aw]
        if gap_fw <= tol and gap_aw <= tol:
            break
        if gap_fw >= gap_aw:
            j, away = j_fw, False
            gap, gmax = gap_fw, 1.0
        else:
            j, away = j_aw, True
            lj = lam[j]
            if lj >= 1.0:
                break
            gap, gmax = gap_aw, lj / (1.0 - lj)
        curv = float(np.real(K[j, j]) - 2.0 * np.real(Kl[j]) + lam @ Kl)
        step = gmax if curv <= 0.0 else min(gmax, gap / (2.0 * curv))
        if step <= 0.0:
            break
        if away:
            # lam' = lam + step * (lam - e_j)
            lam = (1.0 + step) * lam
            lam[j] = max(lam[j] - step, 0.0)
            Kl = (1.0 + step) * Kl - step * K[:, j]
        else:
            lam = (1.0 - step) * lam
            lam[j] += step
            Kl = (1.0 - step) * Kl + step * K[:, j]
        if it % 512 == 511:  # counter drift
            lam = np.clip(lam, 0.0, None)
            lam /= lam.sum()
            Kl = K @ lam
    lam = np.clip(lam, 0.0, None)
    lam /= lam.sum()
    return lam


def _dual_assemble(K: np.ndarray, q: np.ndarray, lam: np.ndarray):
    Kl = K @ lam
    vv = float(np.real(lam @ Kl))
    f = q - 2.0 * np.real(Kl) + vv
    return f, vv


def _meb_dual(K: np.ndarray, support=None):
    """Euclidean minimal enclosing ball in Gram form.

    Maximizes sum(lam * diag(K)) - lam' K lam over the simplex; the primal
    center is sum(lam_i w_i) and the optimum is the squared radius.  A
    warm-startable active-set iteration handles the common case; its
    result is verified against the KKT conditions, and any numerically
    confused run (cycling or near-singular supports) is redone with an
    away-step Frank-Wolfe ascent plus a final support polish.

    Returns
    -------
    lam : (m,) weights on the simplex
    r2 : squared radius of the tangent ball (an enclosing radius even
        when the optimum is not met exactly)
    support : list of active indices (for warm starts)
    """
    m = K.shape[0]
    q = np.real(np.diag(K)).copy()
    scale = 1.0 + float(np.max(np.abs(q)))
    S: list[int] = []
    if support:
        S = [i for i in dict.fromkeys(support) if 0 <= i < m]
    if not S:
        S = [int(np.argmax(q))]
    lam = np.zeros(m)
    lam[S[0]] = 1.0
    r2 = 0.0
    clean = False
    banned = -1
    for _ in range(4 * m + 40):
        lam_s, alpha = _kkt_solve(K, q, S)
        if len(S) > 1 and lam_s.min() < -1e-12:
            banned = S.pop(int(np.argmin(lam_s)))
            continue
        lam = np.zeros(m)
        lam[S] = np.clip(lam_s, 0.0, None)
        tot = lam.sum()
        if tot <= 0.0:
            break
        lam /= tot
        f, vv = _dual_assemble(K, q, lam)
        r2 = max(alpha + vv, 0.0)
        j = int(np.argmax(f))
        if f[j] - r2 <= 1e-12 * scale:
            clean = True
            break
        if j in S or j == banned:
            break  # active set is chasing its tail; use the fallback
        banned = -1
        S.append(j)
    if clean:
        return lam, r2, S

    lam = _fw_ascent(K, q, lam, tol=1e-13 * scale)
    f, vv = _dual_assemble(K, q, lam)
    # identify the support and polish it with one stationarity solve
    Ssup = [int(i) for i in np.flatnonzero(lam > 1e-10 * lam.max())]
    lam_p = np.zeros(m)
    lam_s, alpha = _kkt_solve(K, q, Ssup)
    lam_p[Ssup] = lam_s
    if lam_p.min() >= -1e-11:
        lam_p = np.clip(lam_p, 0.0, None)
        lam_p /= lam_p.sum()
        f_p, vv_p = _dual_assemble(K, q, lam_p)
        r2_p = max(alpha + vv_p, 0.0)
        if float(f_p.max()) - r2_p <= 1e-10 * scale:
            return lam_p, r2_p, Ssup
    # keep the ascent iterate; report the radius that provably encloses
    return lam, max(float(f.max()), 0.0), Ssup


def _chart(x: SpdMatrix, P: np.ndarray):
    """Pull the point stack ``P`` to the chart at ``x``.

    Returns the translated points M = x**-1/2 P x**-1/2, their logs W,
    the squared distances q_i = d(x, P_i)**2, and x**1/2.
    """
    w, v = np.linalg.eigh(x.mat)
    if w[0] <= 0.0:
        raise NotPositiveDefinite("iterate lost positive definiteness")
    sq = (v * np.sqrt(w)) @ v.conj().T
    isq = (v / np.sqrt(w)) @ v.conj().T
    M = _sym(isq @ P @ isq)
    lam, U = np.linalg.eigh(M)
    if lam[:, 0].min() <= 0.0:
        raise NotPositiveDefinite("relative spectrum lost positivity")
    logs = np.log(lam)
    W = _sym((U * logs[:, None, :]) @ _conj_t(U))
    q = np.mean(logs**2, axis=1)
    return M, W, q, sq


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
    best_x, best_r = x, math.inf
    support = None
    stall = 0
    iterations = 0
    for k in range(max_iter):
        iterations = k + 1
        M, W, q, sq = _chart(x, P)
        r2 = float(q.max())
        r_k = math.sqrt(r2)
        if trace is not None:
            trace.append((k, r_k, _error_bound(r2, lb_sq)))
        if r_k < best_r:
            best_r, best_x = r_k, x
        if r_k <= eps / _SQRT2:
            break  # whole set within eps of the iterate; nothing to gain

        if k < _BC_WARMUP:
            cut = r2 * (1.0 - 2.0 * TIE_RTOL)
            far = int(np.flatnonzero(q >= cut)[0])
            x_new = geodesic(x, pts[far], 1.0 / (k + 2))
            if not in_ball(x_new, pset.ball, _ITERATE_SLACK):
                raise NumericalEscape(
                    f"iterate escaped GL_c with c = {pset.ball.c:g}"
                )
            x = x_new
            continue

        # Tangent minimal-enclosing-ball direction.
        K = np.real(np.einsum("aij,bij->ab", np.conj(W), W)) / n
        lam, r2_tan, support = _meb_dual(K, support)
        v = _sym(np.einsum("a,aij->ij", lam, W))
        vnorm = float(np.sqrt(np.sum(np.abs(v) ** 2) / n))
        if vnorm <= _STALL_RTOL * (1.0 + r_k):
            break  # first-order condition met to roundoff
        delta = max(r2 - r2_tan, 0.0)

        wv, uv = np.linalg.eigh(v)
        uvh = uv.conj().T
        t = 1.0
        accepted = None
        for _ in range(_MAX_BACKTRACK):
            E_half = (uv * np.exp(-0.5 * t * wv)) @ uvh
            try:
                F_y = _max_sq_dist(E_half, M)
            except NotPositiveDefinite:
                t *= 0.5
                continue
            if F_y <= r2 - _ARMIJO_SIGMA * t * delta:
                E = (uv * np.exp(t * wv)) @ uvh
                y = _sym(sq @ E @ sq)
                wy = np.linalg.eigvalsh(y)
                if wy[0] >= 1.0 / hi and wy[-1] <= hi:
                    accepted = SpdMatrix(y, float(wy[0]), float(wy[-1]))
                    break
            t *= 0.5
        if accepted is None:
            break  # line search exhausted: iterate is stationary
        x = accepted
        if t * vnorm <= _STALL_RTOL * (1.0 + r_k):
            stall += 1
            if stall >= _STALL_STEPS:
                break
        else:
            stall = 0

    # Report at whichever iterate achieved the smallest radius.
    r_last, _ = radius_at(x, pset)
    if r_last <= best_r:
        center, r_fin = x, r_last
    else:
        center, r_fin = best_x, radius_at(best_x, pset)[0]
    return certified_result(center, pset, eps, iterations, radius=r_fin, lower=lb)
