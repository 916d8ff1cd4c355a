"""Affine-invariant geometry on positive definite matrices.

The distance between positive definite a and b is the normalized L2 norm
of log(a**-1/2 b a**-1/2).  With that metric the positive cone is a
complete geodesic space of nonpositive curvature; geodesics are given by
the weighted geometric mean and congruences x -> g* x g act by isometry.
Every distance comes from one batched kernel, ``chart``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParameterOutOfRange, SingularTransform
from .linalg import PD_FLOOR, SpdMatrix, as_square_matrix, spd, spectral_calculus, symmetrize


@dataclass(frozen=True)
class GLcBall:
    """The set of positive definite matrices x with 1/c <= x <= c."""

    c: float
    dim: int

    def __post_init__(self):
        if not (self.c > 1.0 and np.isfinite(self.c)):
            raise ParameterOutOfRange(f"ball bound c must exceed 1, got {self.c}")
        if self.dim < 1:
            raise DimensionMismatch(f"ball dimension must be positive, got {self.dim}")


def _check_pair(a: SpdMatrix, b: SpdMatrix):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def chart(x, P: np.ndarray):
    """Pull the point stack ``P``, shape (m, n, n), to the chart at ``x``.

    Returns the translated points M = x**-1/2 P x**-1/2, their logs W,
    the squared distances q_i = d(x, P_i)**2, x**1/2 and x**-1/2.  Every
    step acts on each matrix of the stack alone, so the kernel is batch
    invariant: q[i] is bitwise the same in a stack of any size.  The base
    may be a stack too, ``x`` of shape (k, n, n) with ``P`` of shape
    (k, m, n, n), and each base's chart is bitwise its own ``chart``.
    """
    _, sq, isq = spectral_calculus(
        np.asarray(x), np.sqrt, lambda w: 1.0 / np.sqrt(w), floor=0.0, name="chart base"
    )
    S = isq[..., None, :, :]
    M = symmetrize(S @ P @ S)
    lam, W = spectral_calculus(M, np.log, floor=0.0, name="relative spectrum")
    return M, W, np.mean(np.log(lam) ** 2, axis=-1), sq, isq


def distance(a: SpdMatrix, b: SpdMatrix) -> float:
    """Affine-invariant distance ||log(a**-1/2 b a**-1/2)||_2.

    The norm is the normalized L2 norm, so in dimension n the distance is
    the root mean square of the logarithms of the relative eigenvalues.
    It is bitwise sqrt(q[i]) of any ``chart`` at ``a`` with b as point i.
    """
    _check_pair(a, b)
    return float(np.sqrt(chart(a, b.mat[None])[2][0]))


def geodesic(a: SpdMatrix, b: SpdMatrix, t: float) -> SpdMatrix:
    """Point at parameter ``t`` on the geodesic from ``a`` to ``b``.

    gamma(t) = a**1/2 (a**-1/2 b a**-1/2)**t a**1/2 with gamma(0) = a and
    gamma(1) = b; the endpoints are returned exactly.
    """
    _check_pair(a, b)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"geodesic parameter must lie in [0, 1], got {t}")
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    M, _, _, root, _ = chart(a, b.mat[None])
    _, core = spectral_calculus(M[0], lambda w: np.power(w, t), name="relative spectrum")
    return spd(root @ core @ root)


def midpoint(a: SpdMatrix, b: SpdMatrix) -> SpdMatrix:
    """Geodesic midpoint (the geometric mean of ``a`` and ``b``)."""
    return geodesic(a, b, 0.5)


def congruence(g, a: SpdMatrix) -> SpdMatrix:
    """Isometric image g* a g of ``a`` under an invertible transform ``g``."""
    gm = as_square_matrix(g, "transform")
    if gm.shape[0] != a.dim:
        raise DimensionMismatch(
            f"transform dimension {gm.shape[0]} does not match point dimension {a.dim}"
        )
    sv = np.linalg.svd(gm, compute_uv=False)
    if sv[-1] <= PD_FLOOR * sv[0]:
        raise SingularTransform(
            f"transform is numerically singular (sigma_min {sv[-1]:.3e})"
        )
    return spd(gm.conj().T @ a.mat @ gm)


def in_ball(a: SpdMatrix, ball: GLcBall, slack: float = 0.0) -> bool:
    """Whether ``a`` satisfies 1/c <= a <= c up to multiplicative ``slack``."""
    if a.dim != ball.dim:
        raise DimensionMismatch(
            f"point dimension {a.dim} does not match ball dimension {ball.dim}"
        )
    hi = ball.c * (1.0 + slack)
    return bool(a.eig_min >= 1.0 / hi and a.eig_max <= hi)
