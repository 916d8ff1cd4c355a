"""Hermitian and positive definite matrix arithmetic under a normalized trace.

Every norm in this package derives from the scalar product tau(x* y) with
tau = trace / dim, so the identity has L2 norm one in every dimension and
norms of different dimensions are directly comparable.  Every matrix
function in the package goes through ``spectral_calculus``: one
eigendecomposition of the (symmetrized) input, on one matrix or a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NonConvergence,
    NotHermitian,
    NotPositiveDefinite,
)

# Relative asymmetry (against the L2 norm) tolerated before a matrix is
# refused as non-Hermitian.
HERMITIAN_RTOL = 1e-10

# eig_min <= PD_FLOOR * eig_max counts as not positive definite.
PD_FLOOR = 1e-12


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite square complex128 array.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not a nonempty square matrix.
    InvalidMatrix
        If any entry is NaN or infinite.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(
            f"{name}: expected a nonempty square matrix, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise InvalidMatrix(f"{name}: entries must be finite")
    return m


def ntrace(x) -> complex:
    """Normalized trace tau(x) = trace(x) / dim; tau(identity) = 1."""
    m = as_square_matrix(x)
    return complex(np.trace(m)) / m.shape[0]


def l2_norm(x) -> float:
    """Normalized Frobenius norm sqrt(tau(x* x)).

    Equals the plain Frobenius norm divided by sqrt(dim), so the identity
    has norm one regardless of dimension.
    """
    m = as_square_matrix(x)
    return float(np.sqrt(np.sum(np.abs(m) ** 2) / m.shape[0]))


def operator_norm(x) -> float:
    """Largest singular value of ``x``."""
    m = as_square_matrix(x)
    try:
        return float(np.linalg.norm(m, 2))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(f"singular values failed to converge: {exc}") from exc


def adjoint(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def symmetrize(a) -> np.ndarray:
    """(a + a*)/2 of a matrix or a stack: exactly Hermitian."""
    return 0.5 * (a + adjoint(a))


def l2_norms(stack) -> np.ndarray:
    """Normalized L2 norm of every matrix of a stack."""
    return np.sqrt(np.sum(np.abs(stack) ** 2, axis=(-2, -1)) / stack.shape[-1])


def hermitian_part(a, name: str = "matrix") -> np.ndarray:
    """Symmetrize ``a`` to (a + a*)/2, refusing genuinely asymmetric input.

    Asymmetry up to ``HERMITIAN_RTOL * l2_norm(a)`` (measured entrywise in
    absolute value) is treated as roundoff and silently symmetrized; more
    raises :class:`NotHermitian`.
    """
    m = as_square_matrix(a, name)
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > HERMITIAN_RTOL * l2_norm(m):
        raise NotHermitian(
            f"{name}: asymmetry {asym:.3e} exceeds {HERMITIAN_RTOL:g} * l2_norm"
        )
    return 0.5 * (m + m.conj().T)


def spectral_calculus(a, *fs, floor: float | None = None, name: str = "matrix"):
    """Functions of a Hermitian matrix, or of a stack, from one eigendecomposition.

    ``a`` has shape ``(..., n, n)`` and is symmetrized first.  Returns the
    ascending eigenvalues, shape ``(..., n)``, followed by
    ``v @ diag(f(w)) @ v*`` (re-symmetrized, so exactly Hermitian) for
    each f in ``fs``.  With ``floor`` given, a matrix whose eigenvalues
    satisfy ``eig_min <= floor * eig_max`` raises
    :class:`NotPositiveDefinite` before any f is applied.
    """
    h = symmetrize(np.asarray(a))
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"{name}: eigendecomposition failed: {exc}") from exc
    if floor is not None and np.any(w[..., 0] <= floor * w[..., -1]):
        lo, hi = np.min(w[..., 0]), np.max(w[..., -1])
        raise NotPositiveDefinite(
            f"{name}: eigenvalue range [{lo:.6e}, {hi:.6e}] is not positive definite"
        )
    vh = adjoint(v)
    return (w, *(symmetrize((v * f(w)[..., None, :]) @ vh) for f in fs))


def matrix_sqrt(a) -> np.ndarray:
    """Principal square root of a positive definite matrix."""
    return spectral_calculus(hermitian_part(a), np.sqrt, floor=PD_FLOOR)[1]


def matrix_inv_sqrt(a) -> np.ndarray:
    """Inverse principal square root of a positive definite matrix."""
    return spectral_calculus(
        hermitian_part(a), lambda w: 1.0 / np.sqrt(w), floor=PD_FLOOR
    )[1]


def matrix_log(a) -> np.ndarray:
    """Logarithm of a positive definite matrix (Hermitian result)."""
    return spectral_calculus(hermitian_part(a), np.log, floor=PD_FLOOR)[1]


def matrix_power(a, t: float) -> np.ndarray:
    """Real matrix power a**t of a positive definite matrix."""
    t = float(t)
    return spectral_calculus(
        hermitian_part(a), lambda w: np.power(w, t), floor=PD_FLOOR
    )[1]


def matrix_exp(a) -> np.ndarray:
    """Exponential of a Hermitian matrix (positive definite result)."""
    return spectral_calculus(hermitian_part(a), np.exp)[1]


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated positive definite matrix with cached spectral bounds."""

    mat: np.ndarray
    eig_min: float
    eig_max: float

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        # lets every array consumer accept SpdMatrix transparently
        if dtype is None:
            return self.mat if not copy else self.mat.copy()
        return self.mat.astype(dtype)


def spd(a, name: str = "matrix") -> SpdMatrix:
    """Validate ``a`` as Hermitian positive definite and wrap it.

    The input is symmetrized under the ``HERMITIAN_RTOL`` rule and the
    extreme eigenvalues are cached on the wrapper.
    """
    return spd_stack(as_square_matrix(a, name)[None], lambda i: name)[0]


def spd_arrays(a, name):
    """Validate every matrix of a stack as :func:`spd`, in one pass, without wrapping.

    One asymmetry check, one batched ``eigvalsh`` and one positive definite
    test (eig_max <= 0 fails it too) cover the whole stack.  Only when one
    fails are the matrices checked one by one, and the first failing one
    raises the error of :func:`spd`, named ``name(i)``.  Returns the
    symmetrized stack h and its ascending eigenvalues w, shape (m, n).
    """
    a = np.asarray(a, dtype=np.complex128)
    h = symmetrize(a)
    try:
        w = np.linalg.eigvalsh(h) if np.isfinite(a).all() else None
    except np.linalg.LinAlgError:
        w = None
    if w is None or not np.all(
        (np.max(np.abs(a - adjoint(a)), axis=(-2, -1)) <= HERMITIAN_RTOL * l2_norms(a))
        & (w[:, 0] > PD_FLOOR * w[:, -1])
    ):
        for i, m in enumerate(a):  # the same checks, one matrix at a time
            spectral_calculus(hermitian_part(m, name(i)), floor=PD_FLOOR, name=name(i))
    return h, w


def spd_stack(a, name) -> list:
    """Validate every matrix of a stack as :func:`spd_arrays` does, and wrap each."""
    h, w = spd_arrays(a, name)
    return [SpdMatrix(m, float(lo), float(hi)) for m, lo, hi in zip(h, w[:, 0], w[:, -1])]


def identity_spd(dim: int) -> SpdMatrix:
    """The identity as an :class:`SpdMatrix`."""
    return SpdMatrix(np.eye(dim, dtype=np.complex128), 1.0, 1.0)
