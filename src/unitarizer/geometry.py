"""Affine-invariant geometry on positive definite matrices.

The distance between positive definite a and b is the normalized L2 norm
of log(a**-1/2 b a**-1/2).  With that metric the positive cone is a
complete geodesic space of nonpositive curvature; geodesics are given by
the weighted geometric mean and congruences x -> g* x g act by isometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    NonConvergence,
    NotPositiveDefinite,
    ParameterOutOfRange,
    SingularTransform,
)
from .linalg import PD_FLOOR, SpdMatrix, as_square_matrix, spd, spectral_calculus

# Relative tolerance for geodesic identities such as constant speed.
GEO_TOL = 1e-7


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


def _relative_eigvals(b: SpdMatrix, a: SpdMatrix) -> np.ndarray:
    """Eigenvalues of a**-1/2 b a**-1/2, via the definite pencil (b, a)."""
    try:
        lam = scipy.linalg.eigh(b.mat, a.mat, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NonConvergence(f"generalized eigenvalues failed: {exc}") from exc
    if lam[0] <= 0.0:
        raise NotPositiveDefinite(
            f"relative spectrum has nonpositive leaf {lam[0]:.6e}"
        )
    return lam


def distance(a: SpdMatrix, b: SpdMatrix) -> float:
    """Affine-invariant distance ||log(a**-1/2 b a**-1/2)||_2.

    The norm is the normalized L2 norm, so in dimension n the distance is
    the root mean square of the logarithms of the relative eigenvalues.
    """
    _check_pair(a, b)
    lam = _relative_eigvals(b, a)
    return float(np.sqrt(np.mean(np.log(lam) ** 2)))


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
    _, root, iroot = spectral_calculus(
        a.mat, np.sqrt, lambda w: 1.0 / np.sqrt(w), floor=0.0, name="geodesic start"
    )
    _, core = spectral_calculus(
        iroot @ b.mat @ iroot, lambda w: np.power(w, t), floor=0.0,
        name="relative spectrum",
    )
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
