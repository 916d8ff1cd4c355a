import numpy as np
import pytest

from unitarizer.errors import (
    NotPositiveDefinite,
    ParameterOutOfRange,
    SingularTransform,
)
from unitarizer.geometry import (
    GLcBall,
    chart,
    congruence,
    distance,
    geodesic,
    in_ball,
    midpoint,
)
from unitarizer.linalg import identity_spd, l2_norm, spd
from unitarizer.properties import run_geometry_suite, semi_parallelogram_gap
from unitarizer.sampling import random_invertible, random_spd, rng_from_seed


def test_distance_frozen_value():
    # relative eigenvalues e**2, e**-2 -> logs (2, -2), rms = 2
    a = identity_spd(2)
    b = spd(np.diag([np.e**2, np.e**-2]))
    assert distance(a, b) == pytest.approx(2.0, abs=1e-12)


def test_distance_scalar_case_is_log_ratio():
    rng = rng_from_seed(3)
    for _ in range(20):
        x, y = np.exp(rng.uniform(-3, 3, size=2))
        a, b = spd(np.array([[x]])), spd(np.array([[y]]))
        assert distance(a, b) == pytest.approx(abs(np.log(x) - np.log(y)), abs=1e-12)


def test_distance_symmetry_and_identity():
    rng = rng_from_seed(8)
    for _ in range(10):
        a = random_spd(rng, 4, 100.0)
        b = random_spd(rng, 4, 100.0)
        assert distance(a, a) == pytest.approx(0.0, abs=1e-8)
        assert distance(a, b) == pytest.approx(distance(b, a), abs=1e-10)


def test_midpoint_frozen_value():
    a = identity_spd(2)
    b = spd(np.diag([np.e**2, np.e**-2]))
    m = midpoint(a, b)
    assert np.allclose(m.mat, np.diag([np.e, 1.0 / np.e]), atol=1e-12)


def test_geodesic_endpoints_exact():
    rng = rng_from_seed(12)
    a = random_spd(rng, 3, 50.0)
    b = random_spd(rng, 3, 50.0)
    assert geodesic(a, b, 0.0) is a
    assert geodesic(a, b, 1.0) is b


def test_geodesic_unit_speed():
    rng = rng_from_seed(13)
    for _ in range(10):
        a = random_spd(rng, 3, 100.0)
        b = random_spd(rng, 3, 100.0)
        d = distance(a, b)
        for t in (0.25, 0.5, 0.75):
            p = geodesic(a, b, t)
            assert distance(a, p) == pytest.approx(t * d, abs=1e-9 * (1 + d))
            assert distance(p, b) == pytest.approx((1 - t) * d, abs=1e-9 * (1 + d))


def test_geodesic_parameter_range():
    a = identity_spd(2)
    b = spd(np.diag([2.0, 3.0]))
    with pytest.raises(ParameterOutOfRange):
        geodesic(a, b, -0.1)
    with pytest.raises(ParameterOutOfRange):
        geodesic(a, b, 1.1)


def test_congruence_is_isometry():
    rng = rng_from_seed(21)
    for _ in range(10):
        a = random_spd(rng, 4, 100.0)
        b = random_spd(rng, 4, 100.0)
        g = random_invertible(rng, 4, 100.0)
        assert distance(congruence(g, a), congruence(g, b)) == pytest.approx(
            distance(a, b), abs=1e-9 * (1 + distance(a, b))
        )


def test_congruence_rejects_singular():
    a = identity_spd(2)
    with pytest.raises(SingularTransform):
        congruence(np.array([[1.0, 0.0], [1.0, 0.0]]), a)


def test_congruence_formula():
    # g* a g for diagonal g is entrywise scaling
    a = spd(np.diag([1.0, 4.0]))
    g = np.diag([2.0, 0.5])
    out = congruence(g, a)
    assert np.allclose(out.mat, np.diag([4.0, 1.0]), atol=1e-14)


def test_semi_parallelogram_on_midpoints():
    rng = rng_from_seed(30)
    for _ in range(25):
        a = random_spd(rng, 3, 1000.0)
        b = random_spd(rng, 3, 1000.0)
        z = random_spd(rng, 3, 1000.0)
        assert semi_parallelogram_gap(a, b, z) <= 1e-9


def test_gl_ball_membership_boundary():
    # exact float equality on the boundary: eigenvalues c and 1/c
    c = float(np.exp(2))
    ball = GLcBall(c, 2)
    assert in_ball(spd(np.diag([c, 1.0 / c])), ball)
    assert in_ball(identity_spd(2), ball)
    assert not in_ball(spd(np.diag([c * 1.001, 1.0])), ball)
    assert not in_ball(spd(np.diag([1.0, 0.999 / c])), ball)
    # slack loosens the boundary
    assert in_ball(spd(np.diag([c * 1.0005, 1.0])), ball, slack=1e-3)


def test_gl_ball_validation():
    with pytest.raises(ParameterOutOfRange):
        GLcBall(1.0, 2)
    with pytest.raises(ParameterOutOfRange):
        GLcBall(0.5, 2)
    from unitarizer.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        GLcBall(2.0, 0)


def test_geometry_suite_runs_clean():
    report = run_geometry_suite(dim=3, trials=60, seed=17, tol=1e-8)
    assert report.trials == 60
    assert report.max_semi_parallelogram_violation <= 1e-8
    assert report.max_triangle_violation <= 1e-8


def test_distance_rejects_non_spd_inputs():
    with pytest.raises(NotPositiveDefinite):
        spd(np.diag([1.0, -2.0]))


def test_dim_mismatch_between_points():
    from unitarizer.errors import DimensionMismatch

    a = identity_spd(2)
    b = identity_spd(3)
    with pytest.raises(DimensionMismatch):
        distance(a, b)
    with pytest.raises(DimensionMismatch) as exc:
        congruence(np.eye(3), a)
    assert str(exc.value) == "transform dimension 3 does not match point dimension 2"
    with pytest.raises(DimensionMismatch) as exc:
        in_ball(b, GLcBall(2.0, 2))
    assert str(exc.value) == "point dimension 3 does not match ball dimension 2"


@pytest.mark.parametrize("dim", range(1, 9))
def test_chart_is_batch_invariant_bitwise(dim):
    # the certificate reports the radius of a whole chart as the scalar
    # distance to its farthest point, which needs q[i] independent of the
    # stack around P_i, to the bit
    rng = rng_from_seed(200 + dim)
    for cond in (2.0, 1e2, 1e4):
        x = random_spd(rng, dim, cond)
        pts = [random_spd(rng, dim, cond) for _ in range(7)]
        P = np.stack([p.mat for p in pts])
        M, W, q, root, iroot = chart(x, P)
        for i, p in enumerate(pts):
            Mi, Wi, qi, _, _ = chart(x, P[i : i + 1])
            assert qi[0] == q[i]
            assert np.array_equal(Mi[0], M[i]) and np.array_equal(Wi[0], W[i])
            assert distance(x, p) == np.sqrt(q[i])
        for j in range(1, len(pts)):
            assert np.array_equal(chart(x, P[j:])[2], q[j:])
        assert np.allclose(root @ root, x.mat) and np.allclose(iroot @ x.mat @ iroot, np.eye(dim))
        # a stack of bases, each with its own points, charts each base as
        # its own chart does
        bases = [x] + [random_spd(rng, dim, cond) for _ in range(3)]
        Ps = np.stack([P] + [np.stack([random_spd(rng, dim, cond).mat for _ in range(7)])
                             for _ in range(3)])
        stacked = chart(np.stack([b.mat for b in bases]), Ps)
        for k, b in enumerate(bases):
            for got, want in zip(stacked, chart(b, Ps[k])):
                assert np.array_equal(got[k], want)


@pytest.mark.parametrize("dim, trials", [(0, 5), (2, 0), (2, -1)])
def test_geometry_suite_rejects_an_empty_run(dim, trials):
    with pytest.raises(ParameterOutOfRange, match="at least 1"):
        run_geometry_suite(dim, trials, seed=0)
