import itertools

import numpy as np
import pytest

from oracles import welzl_center
from unitarizer import circumcenter
from unitarizer.circumcenter import (
    TIE_RTOL,
    CircumcenterResult,
    PointSet,
    _max_sq_dist,
    _meb,
    certified_result,
    certify,
    point_set,
    radius_at,
    radius_lower_bound,
    solve,
)
from unitarizer.errors import (
    DimensionMismatch,
    EmptySet,
    NotPositiveDefinite,
    NumericalEscape,
    ParameterOutOfRange,
)
from unitarizer.geometry import GLcBall, congruence, distance, in_ball, midpoint
from unitarizer.linalg import identity_spd, l2_norm, spd, spectral_calculus
from unitarizer.sampling import random_invertible, random_spd, rng_from_seed


def diag_points(log_rows):
    return [spd(np.diag(np.exp(np.atleast_1d(row)))) for row in log_rows]


def test_point_set_validation():
    with pytest.raises(EmptySet):
        point_set([])
    with pytest.raises(DimensionMismatch):
        point_set([identity_spd(2), identity_spd(3)])
    with pytest.raises(ParameterOutOfRange):
        # c = 2 cannot hold a matrix with an eigenvalue 9
        point_set([spd(np.diag([9.0, 1.0]))], c=2.0)


def test_point_set_auto_ball_contains_points():
    pts = diag_points([[2.0, -1.0], [0.5, 0.5]])
    ps = point_set(pts)
    for p in pts:
        assert p.eig_max <= ps.ball.c * (1 + 1e-9)
        assert p.eig_min >= 1.0 / (ps.ball.c * (1 + 1e-9))


def test_singleton_set():
    p = spd(np.diag([3.0, 0.7]))
    trace = []
    res = solve(point_set([p]), 1e-9, trace=trace)
    assert res.converged
    assert res.radius_at_center == 0.0
    assert res.center_error_bound == 0.0
    assert res.center is p
    assert trace == [(0, 0.0, 0.0)]


def test_certify_at_the_one_point_is_exact(monkeypatch):
    # The chart of the identity at itself is exactly zero, so the ball
    # subsolve takes its zero-radius exit.
    radii = []
    meb = _meb
    monkeypatch.setattr(
        "unitarizer.circumcenter._meb", lambda X: radii.append(np.abs(X).max()) or meb(X)
    )
    assert certify(identity_spd(2), point_set([identity_spd(2)])) == (0.0, 0.0)
    assert radii == [0.0]


def test_certified_result_rejects_a_center_outside_the_ball():
    with pytest.raises(NumericalEscape) as exc:
        certified_result(spd(np.diag([10.0, 1.0])), point_set([identity_spd(2)]), 1e-7, 0)
    assert str(exc.value) == "center escaped GL_c with c = 1"


def test_a_candidate_of_another_dimension_raises_in_balls_error():
    ps = point_set(diag_points([[0.0, 0.0], [1.0, -1.0]]))
    with pytest.raises(DimensionMismatch) as want:
        in_ball(identity_spd(3), ps.ball)
    for call in (certify, radius_at, lambda x, s: certified_result(x, s, 1e-7, 0)):
        with pytest.raises(DimensionMismatch) as exc:
            call(identity_spd(3), ps)
        assert str(exc.value) == str(want.value)


def test_two_point_sets_hit_the_midpoint():
    rng = rng_from_seed(14)
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        a = random_spd(rng, dim, 50.0)
        b = random_spd(rng, dim, 50.0)
        res = solve(point_set([a, b]), 1e-7)
        m = midpoint(a, b)
        assert distance(res.center, m) <= 1e-6 + res.center_error_bound
        assert res.radius_at_center == pytest.approx(
            distance(a, b) / 2.0, abs=1e-9 * (1 + distance(a, b))
        )


def test_three_point_diagonal_frozen_value():
    # logs (0,0), (2,0), (0,2): plane Chebyshev center at (1,1), radius 1
    pts = diag_points([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    res = solve(point_set(pts), 1e-7)
    assert np.allclose(res.center.mat, np.diag([np.e, np.e]), atol=1e-7)
    assert res.radius_at_center == pytest.approx(1.0, abs=1e-9)
    assert res.converged  # two farthest points realize the diameter here


def degenerate_families():
    """Point sets whose smallest enclosing ball has a degenerate support."""
    rng = rng_from_seed(31)
    fams = []
    for k in (3, 4, 6, 8):  # regular polygons, also tilted into 3-space
        a = 2.0 * np.pi * np.arange(k) / k
        ring = np.c_[np.cos(a), np.sin(a)]
        fams += [ring + 0.2, np.c_[ring, 0.5 * ring[:, :1]] - 0.3]
    for d in (2, 3, 4, 5):  # hypercube vertices, with and without duplicates
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        fams += [0.7 * cube + 0.1, np.vstack([cube, cube[::3]])]
    for d in (1, 2, 4):  # collinear points
        fams.append(np.outer(rng.uniform(-1.0, 1.0, 7), rng.normal(size=d)) + 0.3)
    for d, k in ((3, 1), (4, 2), (6, 3)):  # many points in a k-flat
        flat = rng.normal(size=(k, d)) / np.sqrt(d)
        fams.append(rng.uniform(-1.0, 1.0, (3 * d, k)) @ flat + 0.2)
    pts = rng.uniform(-1.0, 1.0, (4, 3))
    fams.append(np.vstack([pts, pts, pts[:2]]))  # duplicated points
    return fams


def test_meb_matches_welzl_on_degenerate_families():
    for trial, X in enumerate(degenerate_families()):
        # _meb raises NumericalEscape when it runs out of pivots
        lam, r2 = _meb(X)
        c_oracle, r_oracle = welzl_center(X, seed=trial)
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(lam @ X - c_oracle) <= 1e-9
        assert np.sqrt(r2) == pytest.approx(r_oracle, abs=1e-9)


def test_commuting_families_match_welzl_oracle():
    rng = rng_from_seed(99)
    families = []
    for _ in range(60):
        dim = int(rng.integers(1, 7))
        m = int(rng.integers(2, 17))
        families.append(rng.uniform(-1.5, 1.5, size=(m, dim)))
    for trial, logs in enumerate(families + degenerate_families()):
        dim = logs.shape[1]
        res = solve(point_set(diag_points(logs)), 1e-7)
        c_log, r_eucl = welzl_center(logs, seed=trial)
        oracle = spd(np.diag(np.exp(c_log)))
        assert distance(res.center, oracle) <= 1e-6 + res.center_error_bound
        # radius in the normalized norm is the Euclidean one over sqrt(dim)
        assert res.radius_at_center <= r_eucl / np.sqrt(dim) + 1e-9


def test_certificate_soundness_random():
    rng = rng_from_seed(5)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        pts = [random_spd(rng, dim, 30.0) for _ in range(m)]
        ps = point_set(pts)
        res = solve(ps, 1e-7)
        # lower bound below achieved radius
        assert res.radius_lower_bound <= res.radius_at_center + 1e-12
        # containment re-verified with the public distance
        for p in pts:
            assert distance(res.center, p) <= res.radius_at_center + 1e-9
        # the reported bound is exactly the certificate of the center
        err, gap = certify(res.center, ps)
        assert err == pytest.approx(res.center_error_bound, rel=1e-9, abs=1e-12)


def displaced(center, E, delta):
    """The point at distance ``delta`` from ``center`` along the direction E."""
    _, root = spectral_calculus(center.mat, np.sqrt)
    _, step = spectral_calculus(E / l2_norm(E), lambda w: np.exp(delta * w))
    return spd(root @ step @ root)


def assert_mutants_not_under_reported(ps, res, oracle, along, across):
    for E in (along, across):
        for delta in (1e-10, 1e-6):
            mutant = displaced(res.center, E, delta)
            err, _ = certify(mutant, ps)
            assert err >= distance(mutant, oracle)


def test_displaced_two_point_centers_are_never_under_reported():
    rng = rng_from_seed(23)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        a, b = random_spd(rng, dim, 50.0), random_spd(rng, dim, 50.0)
        ps = point_set([a, b])
        res = solve(ps, 1e-7)
        # the chart direction toward b spans the support; across it, a
        # Hermitian direction orthogonal to it in the trace inner product
        _, isq = spectral_calculus(res.center.mat, lambda w: 1.0 / np.sqrt(w))
        _, along = spectral_calculus(isq @ b.mat @ isq, np.log)
        R = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        R = R + R.conj().T
        across = R - np.real(np.vdot(along, R)) / np.real(np.vdot(along, along)) * along
        assert_mutants_not_under_reported(ps, res, midpoint(a, b), along, across)


def test_displaced_diagonal_centers_are_never_under_reported():
    rng = rng_from_seed(8)
    families = [rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 8)), 4)) for _ in range(15)]
    checked = 0
    for trial, logs in enumerate(families + degenerate_families()):
        c_log, r = welzl_center(logs, seed=trial)
        on = np.abs(np.linalg.norm(logs - c_log, axis=1) - r) <= 1e-9 * (1.0 + r)
        span = logs[on][1:] - logs[on][0]
        # directions orthogonal to the support's affine span
        _, sv, vt = np.linalg.svd(np.vstack([span, np.zeros(logs.shape[1])]))
        normal = vt[int(np.sum(sv > 1e-9)):]
        if not len(span) or not len(normal):
            continue
        ps = point_set(diag_points(logs))
        res = solve(ps, 1e-7)
        oracle = spd(np.diag(np.exp(c_log)))
        assert_mutants_not_under_reported(ps, res, oracle, np.diag(span[0]), np.diag(normal[0]))
        checked += 1
    assert checked >= 15


def test_certify_frozen_example():
    # candidate I against {I, diag(e^2, e^-2)}: r_at = 2, lb = 1
    pts = [identity_spd(2), spd(np.diag([np.e**2, np.e**-2]))]
    ps = point_set(pts)
    err, gap = certify(identity_spd(2), ps)
    assert gap == pytest.approx(3.0, abs=1e-10)  # r_at^2 - lb^2 = 4 - 1
    assert err == pytest.approx(np.sqrt(6.0), abs=1e-10)


def test_radius_at_tie_breaks_to_smallest_index():
    pts = diag_points([[1.0], [-1.0], [0.0]])
    r, far = radius_at(identity_spd(1), point_set(pts))
    assert r == pytest.approx(1.0, abs=1e-12)
    assert far == 0  # indices 0 and 1 tie at distance 1


def test_radius_lower_bound_is_half_diameter():
    pts = diag_points([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    lb = radius_lower_bound(point_set(pts))
    # farthest pair: logs (2,0) vs (0,2), distance sqrt((4+4)/2) = 2
    assert lb == pytest.approx(1.0, abs=1e-12)


def test_chart_radii_equal_the_scalar_distances_exactly():
    # radius_at and the pairwise oracle take every distance from one chart
    # per base point; the transported-certificate containment check compares
    # them with the scalar distance at zero slack
    rng = rng_from_seed(31)
    for dim, cond in [(1, 10.0), (2, 2.0), (3, 1e2), (5, 1e4), (8, 1e3)]:
        pts = [random_spd(rng, dim, cond) for _ in range(9)]
        ps = point_set(pts)
        for theta in (pts[0], random_spd(rng, dim, cond)):
            r, far = radius_at(theta, ps)
            dists = [distance(theta, p) for p in pts]
            assert r == max(dists)
            assert far == next(i for i, d in enumerate(dists) if d >= r * (1.0 - TIE_RTOL))
        pairs = [distance(a, b) for a, b in itertools.combinations(pts, 2)]
        assert radius_lower_bound(ps) == 0.5 * max(pairs)
    assert radius_lower_bound(point_set(pts[:1])) == 0.0


def test_solver_is_congruence_equivariant():
    rng = rng_from_seed(77)
    pts = [random_spd(rng, 3, 20.0) for _ in range(5)]
    g = random_invertible(rng, 3, 10.0)
    res = solve(point_set(pts), 1e-7)
    moved = [congruence(g, p) for p in pts]
    res_g = solve(point_set(moved), 1e-7)
    assert distance(res_g.center, congruence(g, res.center)) <= 2e-6 + (
        res.center_error_bound + res_g.center_error_bound
    )
    assert res_g.radius_at_center == pytest.approx(
        res.radius_at_center, abs=1e-7 * (1 + res.radius_at_center)
    )


def test_trace_running_min_radius_is_monotone_to_final():
    rng = rng_from_seed(50)
    pts = [random_spd(rng, 4, 30.0) for _ in range(8)]
    rows = []
    res = solve(point_set(pts), 1e-7, trace=rows)
    assert rows, "trace should not be empty"
    radii = [r for _, r, _ in rows]
    assert res.radius_at_center <= min(radii) + 1e-12
    iters = [k for k, _, _ in rows]
    assert iters == list(range(len(rows)))
    assert res.iterations == len(rows)
    # bounds in the trace are certificates, so never below the final one by much
    assert all(b >= -1e-15 for _, _, b in rows)


def test_solve_parameter_validation():
    ps = point_set([identity_spd(2)])
    with pytest.raises(ParameterOutOfRange):
        solve(ps, 0.0)
    with pytest.raises(ParameterOutOfRange):
        solve(ps, -1e-3)
    with pytest.raises(ParameterOutOfRange):
        solve(ps, 1e-7, max_iter=0)


def test_solve_rejects_an_empty_point_set():
    with pytest.raises(EmptySet, match="^cannot solve an empty point set$"):
        solve(PointSet(np.zeros((0, 2, 2)), np.zeros(0), np.zeros(0), GLcBall(2.0, 2)), 1e-7)


def test_max_sq_dist_rejects_a_relative_spectrum_that_is_not_positive():
    M = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(NotPositiveDefinite, match="^relative spectrum lost positivity$"):
        _max_sq_dist(np.eye(2), M)


def test_line_search_halves_the_step_when_the_trial_point_leaves_the_cone(monkeypatch):
    rng = rng_from_seed(5)
    ps = point_set([random_spd(rng, 3, 20.0) for _ in range(5)])
    want = solve(ps, 1e-7)
    calls = []

    def max_sq_dist(E_half, M):
        calls.append(1)
        if len(calls) == 1:
            raise NotPositiveDefinite("relative spectrum lost positivity")
        return _max_sq_dist(E_half, M)

    monkeypatch.setattr(circumcenter, "_max_sq_dist", max_sq_dist)
    got = solve(ps, 1e-7)
    assert len(calls) > 1
    assert l2_norm(got.center.mat - want.center.mat) <= 1e-12


def test_collinear_family_center_between_extremes():
    # all points on one geodesic: center is the midpoint of the extremes
    from unitarizer.geometry import geodesic

    ts = [0.0, 0.1, 0.35, 0.8, 1.0]
    a = spd(np.diag([1.0, 1.0]))
    b = spd(np.diag([np.e**4, np.e**-2]))
    pts = [geodesic(a, b, t) for t in ts]
    res = solve(point_set(pts), 1e-7)
    m = midpoint(a, b)
    assert distance(res.center, m) <= 1e-6 + res.center_error_bound
    assert res.converged


def test_duplicate_points_are_harmless():
    a = spd(np.diag([2.0, 0.5]))
    b = spd(np.diag([0.5, 2.0]))
    res1 = solve(point_set([a, b]), 1e-7)
    res2 = solve(point_set([a, a, b, b, a]), 1e-7)
    assert distance(res1.center, res2.center) <= 1e-8


def test_result_fields_are_consistent():
    rng = rng_from_seed(4)
    pts = [random_spd(rng, 3, 10.0) for _ in range(4)]
    ps = point_set(pts)
    res = solve(ps, 1e-7)
    assert isinstance(res, CircumcenterResult)
    r, _ = radius_at(res.center, ps)
    assert r == pytest.approx(res.radius_at_center, rel=1e-12, abs=1e-15)
    assert res.iterations >= 1
    assert res.converged == (res.center_error_bound <= 1e-7)
