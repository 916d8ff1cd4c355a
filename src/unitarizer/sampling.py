"""Seeded random matrix generators used by tests and property suites."""

from __future__ import annotations

import numpy as np

from .errors import ParameterOutOfRange
from .linalg import SpdMatrix, spd


def rng_from_seed(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it rejects raises ParameterOutOfRange."""
    try:
        return np.random.default_rng(seed)
    except (ValueError, TypeError):
        raise ParameterOutOfRange(f"seed must be a nonnegative integer, got {seed!r}") from None


def ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Complex Ginibre matrix: iid standard normal real and imaginary parts."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via the phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_spd(rng: np.random.Generator, dim: int, cond_bound: float) -> SpdMatrix:
    """Random positive definite matrix with condition number <= cond_bound.

    Eigenvalues are drawn log-uniformly from [1/sqrt(c), sqrt(c)] and
    conjugated by a Haar unitary, so the spectrum is symmetric about 1 on
    the log scale.
    """
    half = 0.5 * np.log(cond_bound)
    w = np.exp(rng.uniform(-half, half, size=dim))
    u = random_unitary(rng, dim)
    return spd((u * w) @ u.conj().T)


def random_invertible(
    rng: np.random.Generator, dim: int, cond_bound: float
) -> np.ndarray:
    """Random invertible matrix, singular values in [1/sqrt(c), sqrt(c)]."""
    u, s, vh = np.linalg.svd(ginibre(rng, dim))
    lo, hi = 1.0 / np.sqrt(cond_bound), np.sqrt(cond_bound)
    span = s[0] - s[-1]
    if span <= 1e-12 * s[0]:
        s_new = np.ones_like(s)
    else:
        s_new = lo + (s - s[-1]) * (hi - lo) / span
    return (u * s_new) @ vh
