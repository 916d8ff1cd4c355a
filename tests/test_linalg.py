import numpy as np
import pytest

from unitarizer.errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotHermitian,
    NotPositiveDefinite,
)
from unitarizer.linalg import (
    SpdMatrix,
    as_square_matrix,
    hermitian_part,
    identity_spd,
    l2_norm,
    matrix_exp,
    matrix_inv_sqrt,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    ntrace,
    operator_norm,
    spd,
    spectral_calculus,
)
from unitarizer.sampling import random_spd, rng_from_seed

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def test_l2_norm_is_normalized():
    # tau(I) = 1 so the identity has norm one in every dimension
    for n in (1, 2, 5, 9):
        assert l2_norm(np.eye(n)) == pytest.approx(1.0, abs=1e-15)
    assert l2_norm(np.diag([2.0, -2.0])) == pytest.approx(2.0, abs=1e-15)


def test_ntrace():
    assert ntrace(np.diag([1.0, 3.0])) == pytest.approx(2.0)
    assert ntrace(np.eye(7)) == pytest.approx(1.0)


def test_operator_norm_golden_ratio():
    # largest singular value of [[1,1],[0,-1]] is the golden ratio
    a = np.array([[1.0, 1.0], [0.0, -1.0]])
    assert operator_norm(a) == pytest.approx(PHI, abs=1e-12)


def test_l2_bounded_by_operator_norm():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert l2_norm(a) <= operator_norm(a) * (1.0 + 1e-12)


def test_as_square_matrix_rejections():
    with pytest.raises(DimensionMismatch):
        as_square_matrix(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        as_square_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        as_square_matrix(np.ones(4))


def test_hermitian_part_symmetrizes_roundoff():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    noisy = h + 1e-14 * rng.standard_normal((4, 4))
    out = hermitian_part(noisy)
    assert np.array_equal(out, out.conj().T)
    assert l2_norm(out - h) < 1e-12


def test_hermitian_part_rejects_genuine_asymmetry():
    with pytest.raises(NotHermitian):
        hermitian_part(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_spd_factory_and_rejections():
    a = spd(np.diag([2.0, 0.5]))
    assert isinstance(a, SpdMatrix)
    assert a.dim == 2
    assert a.eig_min == pytest.approx(0.5)
    assert a.eig_max == pytest.approx(2.0)
    with pytest.raises(NotPositiveDefinite):
        spd(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        spd(np.diag([1.0, 0.0]))
    with pytest.raises(NotHermitian):
        spd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_identity_spd():
    e = identity_spd(3)
    assert np.array_equal(e.mat, np.eye(3))
    assert e.eig_min == e.eig_max == 1.0


def test_sqrt_log_exp_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = spd(g @ g.conj().T + n * np.eye(n))
        s = matrix_sqrt(a)
        assert l2_norm(s @ s - a.mat) < 1e-12 * a.eig_max
        si = matrix_inv_sqrt(a)
        assert l2_norm(s @ si - np.eye(n)) < 1e-12
        lg = matrix_log(a)
        assert l2_norm(matrix_exp(lg) - a.mat) < 1e-11 * a.eig_max
        # hermitian logs of positive matrices
        assert l2_norm(lg - lg.conj().T) == 0.0


def test_matrix_power_interpolates():
    a = spd(np.diag([4.0, 9.0]))
    half = matrix_power(a, 0.5)
    assert np.allclose(half, np.diag([2.0, 3.0]), atol=1e-14)
    assert np.allclose(matrix_power(a, 0.0), np.eye(2), atol=1e-14)
    assert np.allclose(matrix_power(a, -1.0), np.diag([0.25, 1.0 / 9.0]), atol=1e-14)


def test_matrix_log_commutes_with_diagonal():
    w = np.array([0.5, 1.0, 7.5])
    assert np.allclose(matrix_log(spd(np.diag(w))), np.diag(np.log(w)), atol=1e-14)


def test_spectral_calculus_on_a_stack_matches_each_slice():
    rng = rng_from_seed(23)
    for n in (1, 2, 3, 4):
        stack = np.stack([random_spd(rng, n, 30.0).mat for _ in range(6)])
        w, s, si, lg = spectral_calculus(
            stack, np.sqrt, lambda x: 1.0 / np.sqrt(x), np.log, floor=0.0
        )
        assert np.allclose(w, np.linalg.eigvalsh(stack), rtol=1e-12, atol=0.0)
        for i, a in enumerate(stack):
            for got, f in ((s, matrix_sqrt), (si, matrix_inv_sqrt), (lg, matrix_log)):
                want = f(a)
                assert l2_norm(got[i] - want) <= 1e-12 * l2_norm(want)
        # one indefinite slice fails the whole stack before any log is taken
        stack[3] = -stack[3]
        with pytest.raises(NotPositiveDefinite):
            spectral_calculus(stack, np.log, floor=0.0)
