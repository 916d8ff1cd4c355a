import numpy as np
import pytest

from test_circumcenter import displaced
from unitarizer import circumcenter, representation
from unitarizer.circumcenter import (
    bound,
    certified_result,
    certify,
    chart_at,
    radius_at,
    radius_lower_bound,
    solve,
)
from unitarizer.geometry import distance, midpoint
from unitarizer.linalg import SpdMatrix, identity_spd, l2_norm, spd, spectral_calculus
from unitarizer.groupoid import (
    ActionGroupoidSpec,
    FiniteGroup,
    build_action_groupoid,
    cyclic_group,
    cyclic_shift_action,
    left_translation_action,
    natural_permutation_action,
    symmetric_group,
    trivial_action,
)
from unitarizer.representation import (
    cyclic_character_base_rep,
    direct_sum_base_rep,
    generate_instance,
    gram_set,
    make_representation,
    permutation_base_rep,
    trivial_base_rep,
    unitarize,
    verify_similarity,
)

A = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=np.complex128)


def z2_rep():
    G = build_action_groupoid(trivial_action(cyclic_group(2), ("pt",), (1.0,)))
    return make_representation(
        G, 2, {"r0@pt": np.eye(2, dtype=np.complex128), "r1@pt": A}
    )


def test_hand_example_sigma_is_midpoint():
    rep = z2_rep()
    witness, unitary, report = unitarize(rep, eps=1e-7)
    # sigma is the midpoint of I and A*A = [[1,1],[1,2]];
    # by the 2x2 square-root formula that is ([[2,1],[1,3]]) / sqrt(5)
    expect = np.array([[2.0, 1.0], [1.0, 3.0]]) / np.sqrt(5.0)
    assert l2_norm(witness.sigma["pt"].mat - expect) < 1e-10
    oracle = midpoint(identity_spd(2), spd(A.conj().T @ A))
    assert distance(witness.sigma["pt"], oracle) < 1e-10
    # the conjugated generator is unitary to machine precision
    u = unitary.rho["r1@pt"]
    assert l2_norm(u.conj().T @ u - np.eye(2)) < 1e-12
    assert report.max_unitarity_residual < 1e-12
    assert report.all_converged


def test_psi_squares_to_sigma():
    rep = z2_rep()
    witness, _, _ = unitarize(rep, eps=1e-7)
    psi = witness.psi["pt"].mat
    assert l2_norm(psi @ psi - witness.sigma["pt"].mat) < 1e-12


def test_unitary_input_gives_identity_psi():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 1.0, seed=6)  # cond 1: already unitary
    witness, unitary, report = unitarize(rep, eps=1e-7)
    for x, psi in witness.psi.items():
        assert l2_norm(psi.mat - np.eye(3)) < 1e-8
    assert report.max_unitarity_residual < 1e-8
    assert report.max_equivariance_residual < 1e-8
    for g in rep.rho:
        assert l2_norm(unitary.rho[g] - rep.rho[g]) < 1e-8


def test_round_trip_residuals_and_similarity():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 10.0, seed=11)
    witness, unitary, report = unitarize(rep, eps=1e-7)
    C = rep.uniform_bound_C
    assert report.max_unitarity_residual <= 10.0 * (1e-7 + 1e-8) * C * C
    h = {x: p.mat for x, p in witness.psi.items()}
    ok, residuals = verify_similarity(rep, unitary, h, tol=1e-5)
    assert ok
    assert max(residuals.values()) < 1e-8


def test_similarity_fails_with_identity_witness_on_twisted_pair():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 10.0, seed=11)
    _, unitary, _ = unitarize(rep, eps=1e-7)
    eye = {x: np.eye(3) for x in rep.groupoid.positive_units}
    ok, residuals = verify_similarity(rep, unitary, eye, tol=1e-5)
    assert not ok
    assert max(residuals.values()) > 1e-3


def test_similarity_residuals_equal_the_per_arrow_form():
    # S3 on three points, x2 without mass; any two representations over one
    # groupoid and any witness give residuals, good or bad.
    spec = natural_permutation_action(3, mu=(0.5, 0.5, 0.0))
    base = permutation_base_rep(symmetric_group(3))
    rep1 = generate_instance(spec, base, 10.0, seed=3)
    rep2 = generate_instance(spec, base, 10.0, seed=4)
    rng = np.random.default_rng(5)
    G = rep1.groupoid
    h = {x: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for x in ("x0", "x1")}
    ids = [a for a in sorted(G.inverse) if G.unit_weight(G.src(a)) * G.unit_weight(G.tgt(a)) > 0]
    R1, R2 = (np.stack([r.rho[g] for g in ids]) for r in (rep1, rep2))
    H = np.stack([np.asarray(h[G.tgt(g)], dtype=np.complex128) for g in ids])
    H_inv = np.linalg.inv(np.stack([np.asarray(h[G.src(g)], dtype=np.complex128) for g in ids]))
    want = [l2_norm(d) for d in R2 - H @ R1 @ H_inv]
    ok, residuals = verify_similarity(rep1, rep2, h, tol=1e-5)
    assert not ok
    assert list(residuals) == ids and len(ids) == 8
    assert list(residuals.values()) == want


def test_gram_equivariance():
    # rho(g)* B_tgt rho(g) = B_src as sets, elementwise within dedup_tol
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 6.0, seed=13)
    G = rep.groupoid
    grams = {x: gram_set(rep, x) for x in G.positive_units}
    for a in G.arrows:
        m = rep.rho[a.id]
        src_mats = [p.mat for p in grams[a.src].points]
        for b in grams[a.tgt].points:
            moved = m.conj().T @ b.mat @ m
            dist = min(l2_norm(moved - s) for s in src_mats)
            assert dist <= 1e-9 * (1.0 + l2_norm(moved))


def test_sigma_equivariance_bound():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 10.0, seed=17)
    witness, _, report = unitarize(rep, eps=1e-7)
    G = rep.groupoid
    certs = {x: r.center_error_bound for x, r in witness.certificates.items()}
    for g, (_, equi) in report.per_arrow.items():
        a = G.arrow(g)
        assert equi <= 2.0 * (certs[a.src] + certs[a.tgt]) + 1e-7


def test_idempotence():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 10.0, seed=19)
    _, unitary, _ = unitarize(rep, eps=1e-7)
    witness2, unitary2, report2 = unitarize(unitary, eps=1e-7)
    for x, psi in witness2.psi.items():
        assert l2_norm(psi.mat - np.eye(3)) < 1e-8
    for g in unitary.rho:
        assert l2_norm(unitary2.rho[g] - unitary.rho[g]) < 1e-7
    assert report2.max_unitarity_residual < 1e-7


def test_scale_covariance_under_constant_unitary():
    # conjugating the input by a constant unitary w conjugates sigma by w
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 8.0, seed=23)
    from unitarizer.sampling import random_unitary, rng_from_seed

    w = random_unitary(rng_from_seed(5), 3)
    G = rep.groupoid
    twisted = make_representation(
        G, 3, {g: w.conj().T @ m @ w for g, m in rep.rho.items()}
    )
    wit1, _, _ = unitarize(rep, eps=1e-9)
    wit2, _, _ = unitarize(twisted, eps=1e-9)
    for x in G.positive_units:
        expect = w.conj().T @ wit1.sigma[x].mat @ w
        err = l2_norm(wit2.sigma[x].mat - expect)
        budget = (
            wit1.certificates[x].center_error_bound
            + wit2.certificates[x].center_error_bound
            + 1e-7
        )
        assert err <= budget


def counting_solve(monkeypatch):
    """Wrap the solver unitarize calls; returns the list of solved sets."""
    calls = []
    original = representation.solve

    def wrapper(pset, *args, **kwargs):
        calls.append(pset)
        return original(pset, *args, **kwargs)

    monkeypatch.setattr(representation, "solve", wrapper)
    return calls


def s3_self_rep():
    s3 = symmetric_group(3)
    return generate_instance(
        left_translation_action(s3), permutation_base_rep(s3), 10.0, seed=0
    )


def z6_two_blocks_rep():
    return generate_instance(
        cyclic_shift_action(6, copies=2),
        cyclic_character_base_rep(6, (0, 1, 2)),
        5.0,
        seed=0,
    )


@pytest.mark.parametrize(
    "build, orbits",
    [(z6_two_blocks_rep, 2), (s3_self_rep, 1)],
    ids=["Z6-2blocks", "S3-self"],
)
def test_one_solve_per_orbit(monkeypatch, build, orbits):
    rep = build()
    calls = counting_solve(monkeypatch)
    witness, _, report = unitarize(rep, eps=1e-7)
    assert len(calls) == orbits
    solved = [x for x, r in report.unit_results.items() if r.iterations > 0]
    assert len(solved) == orbits
    assert set(witness.sigma) == set(rep.groupoid.positive_units)
    assert report.max_unitarity_residual < 1e-7


def test_transported_certificate_is_sound_against_own_gram_set():
    # A transported unit's radius is read from the orbit's stacked chart; it is
    # bitwise the distance to its farthest own Gram point, also where dedup
    # keeps fewer points than there are arrows (S3-natural, trivial base).
    for build in (s3_self_rep, s4_self_rep, s3_natural_rep):
        rep = build()
        witness, _, report = unitarize(rep, eps=1e-7)
        transported = [x for x, r in report.unit_results.items() if r.iterations == 0]
        assert len(transported) == len(rep.groupoid.positive_units) - 1
        for x in transported:
            res = report.unit_results[x]
            dists = [distance(witness.sigma[x], p) for p in gram_set(rep, x).points]
            assert max(dists) == res.radius_at_center
            assert res.radius_lower_bound <= res.radius_at_center
            assert res.converged == (res.center_error_bound <= 1e-7)
    assert len(gram_set(rep, x).points) < len(rep.groupoid.source_fiber(x))


def test_s4_self_certifies_every_unit():
    # 24 units in one orbit, with 24 Gram points each; the pairwise bound
    # (half the diameter) left every unit uncertified here
    s4 = symmetric_group(4)
    rep = generate_instance(left_translation_action(s4), trivial_base_rep(s4, 2), 2.0, 0)
    _, _, report = unitarize(rep, eps=1e-7)
    assert report.all_converged
    assert report.max_certificate_bound <= 1e-7
    for x in rep.groupoid.positive_units[:3]:
        res = report.unit_results[x]
        assert radius_lower_bound(gram_set(rep, x)) < res.radius_lower_bound
        assert res.radius_lower_bound <= res.radius_at_center


def test_free_action_equivariance_at_roundoff():
    # left translation is free: the transport arrow into the root is unique,
    # so sigma is equivariant up to the functoriality roundoff
    _, _, report = unitarize(s3_self_rep(), eps=1e-7)
    assert report.max_equivariance_residual <= 1e-12


def test_neither_measure_solves_only_the_positive_unit(monkeypatch):
    # Z/2 swapping two units, all mass on the second: one orbit that
    # mixes a null and a positive unit
    G = build_action_groupoid(cyclic_shift_action(2, mu=(0.0, 1.0)))
    # the arrow x0_0 -> x0_1 is wild; transporting along it would be wrong
    rho = {
        "r0@x0_0": np.eye(2), "r1@x0_0": np.diag([5.0, 0.2]),
        "r0@x0_1": np.eye(2), "r1@x0_1": np.eye(2),
    }
    rep = make_representation(G, 2, rho)
    calls = counting_solve(monkeypatch)
    witness, unitary, _ = unitarize(rep, eps=1e-7)
    assert len(calls) == 1
    assert set(witness.sigma) == set(witness.psi) == {"x0_1"}
    # arrows leaving the null unit are conjugated by the identity there
    psi = witness.psi["x0_1"].mat
    assert np.allclose(unitary.rho["r1@x0_0"], psi @ rho["r1@x0_0"])
    assert np.allclose(unitary.rho["r0@x0_0"], np.eye(2))


def test_wild_arrow_into_a_null_unit_stays_out_of_the_gram_set():
    # the mirror of the test above: here the wild arrow enters the null unit,
    # which the uniform bound (and so the GL_c ball) does not count
    G = build_action_groupoid(cyclic_shift_action(2, mu=(0.0, 1.0)))
    wild = np.diag([5.0, 0.2])
    rho = {
        "r0@x0_0": np.eye(2), "r1@x0_0": wild,
        "r0@x0_1": np.eye(2), "r1@x0_1": np.linalg.inv(wild),
    }
    rep = make_representation(G, 2, rho)
    assert len(gram_set(rep, "x0_1").points) == 1
    witness, unitary, report = unitarize(rep, eps=1e-7)
    assert set(witness.sigma) == {"x0_1"}
    assert np.allclose(witness.sigma["x0_1"].mat, np.eye(2))
    assert report.all_converged
    assert np.allclose(unitary.rho["r1@x0_1"], rho["r1@x0_1"])


def test_gram_points_past_c_squared_by_roundoff_stay_in_the_ball():
    # at cond 1e2 one Gram point of x0 overshoots C**2 by a relative 1.2e-8,
    # more than the 1e-9 headroom a ball of exactly c = C**2 leaves
    rep = generate_instance(
        natural_permutation_action(3), permutation_base_rep(symmetric_group(3)), 100.0, 1
    )
    C2 = rep.uniform_bound_C**2
    ps = gram_set(rep, "x0")
    assert max(max(p.eig_max, 1.0 / p.eig_min) for p in ps.points) > C2 * (1.0 + 1e-9)
    _, _, report = unitarize(rep, eps=1e-7)
    assert report.max_unitarity_residual <= 1e-7


def test_transported_trace_is_one_row():
    rep = s3_self_rep()
    rows: dict = {}
    _, _, report = unitarize(rep, eps=1e-7, trace=rows)
    assert list(rows) == list(rep.groupoid.positive_units)
    for x, res in report.unit_results.items():
        if res.iterations == 0:
            assert rows[x] == [(0, res.radius_at_center, res.center_error_bound)]
        else:
            assert len(rows[x]) == res.iterations


def test_null_mass_units_are_skipped():
    G = build_action_groupoid(
        trivial_action(cyclic_group(2), ("a", "b"), (1.0, 0.0))
    )
    rho = {
        "r0@a": np.eye(2), "r1@a": A,
        "r0@b": np.eye(2), "r1@b": np.diag([5.0, 0.2]),  # wild on null unit
    }
    rep = make_representation(G, 2, rho)
    witness, unitary, report = unitarize(rep, eps=1e-7)
    assert set(witness.sigma) == {"a"}  # only the positive unit is solved
    assert report.max_unitarity_residual < 1e-10
    # the null unit's arrows are conjugated by the identity
    assert np.allclose(unitary.rho["r1@b"], rho["r1@b"])


def test_trace_collects_per_unit_rows():
    rep = z2_rep()
    rows: dict = {}
    unitarize(rep, eps=1e-7, trace=rows)
    assert set(rows) == {"pt"}
    assert rows["pt"], "per-unit trace must not be empty"
    ks = [k for k, _, _ in rows["pt"]]
    assert ks == list(range(len(ks)))


def s4_self_rep():
    s4 = symmetric_group(4)
    return generate_instance(left_translation_action(s4), trivial_base_rep(s4, 2), 2.0, 0)


def s3_natural_rep(names=None):
    # With a trivial base the Gram point of an arrow depends only on its
    # target, so each unit keeps 3 of its 6 points.  ``names`` renames the
    # group elements, which reorders the arrow ids.
    s3 = symmetric_group(3)
    spec = natural_permutation_action(3)
    if names:
        ren = {g: names.get(g, g) for g in s3.elements}
        s3 = FiniteGroup(
            tuple(ren[g] for g in s3.elements),
            {(ren[a], ren[b]): ren[c] for (a, b), c in s3.mult.items()},
            ren[s3.identity],
            {ren[a]: ren[b] for a, b in s3.inverses.items()},
        )
        spec = ActionGroupoidSpec(
            s3, spec.units, spec.mu, {(ren[g], x): y for (g, x), y in spec.action.items()}
        )
    return generate_instance(spec, trivial_base_rep(s3, 2), 2.0, 0)


def z2_32units_rep():
    return generate_instance(
        cyclic_shift_action(2, copies=16), cyclic_character_base_rep(2, (0, 1)), 10.0, 0
    )


def orbits(G):
    """Per orbit, its unit indices: the first unit, then the others."""
    out, seen = [], set()
    for r in np.flatnonzero(G.mu > 0.0):
        if r not in seen:
            others = sorted(set(G._arrow_src[G._into[r]].tolist()) - {r})
            out.append(np.array([r] + others))
            seen.update(out[-1].tolist())
    return out


@pytest.mark.parametrize(
    "build", [s4_self_rep, s3_natural_rep, z2_32units_rep],
    ids=["S4-self", "S3-natural", "Z2-32units"],
)
def test_orbit_gram_sets_equal_the_one_unit_gram_sets_bitwise(build):
    rep = build()
    G = rep.groupoid
    deduped = 0
    for xs in orbits(G):
        _, keep, H, psets = representation._orbit_grams(rep, xs)
        deduped += int(np.sum(~keep))
        for x, k, h, ps in zip(xs, keep, H, psets):
            one = gram_set(rep, G.units[x])
            assert ps.ball == one.ball and len(ps.points) == len(one.points)
            for p, q in zip(ps.points, one.points):
                assert np.array_equal(p.mat, q.mat)
                assert (p.eig_min, p.eig_max) == (q.eig_min, q.eig_max)
            assert np.array_equal(h[k], np.stack([p.mat for p in one.points]))
    assert (deduped > 0) == (build is s3_natural_rep)


def meb_calls(monkeypatch):
    calls = []
    original = circumcenter._meb
    monkeypatch.setattr(circumcenter, "_meb", lambda X: calls.append(len(X)) or original(X))
    return calls


@pytest.mark.parametrize("build", [s4_self_rep, s3_natural_rep])
def test_transported_units_carry_the_solved_units_weights(monkeypatch, build):
    rep = build()
    calls = meb_calls(monkeypatch)
    _, _, report = unitarize(rep, eps=1e-7)
    (root,) = [r for r in report.unit_results.values() if r.iterations > 0]
    # one walk per solve iteration; the solved unit's certificate reuses the
    # last one, at the iterate that iteration charted
    assert len(calls) == root.iterations
    for res in report.unit_results.values():
        assert res.converged
        assert np.array_equal(np.sort(res.weights), np.sort(root.weights))


@pytest.mark.parametrize("build", [s4_self_rep, s3_natural_rep, s3_self_rep])
def test_forced_fallback_gives_the_certify_bound_bitwise(build):
    # below every bound, every carried certificate falls back to the
    # optimal weights of the chart ball at x
    rep = build()
    eps = 1e-30
    witness, _, report = unitarize(rep, eps=eps)
    for x, res in report.unit_results.items():
        if res.iterations:
            continue
        ps = gram_set(rep, x)
        assert res.center_error_bound > eps
        assert res.center_error_bound == certify(witness.sigma[x], ps)[0]
        assert res.radius_at_center == radius_at(witness.sigma[x], ps)[0]


def test_displaced_transported_centers_are_never_under_reported():
    rep = s4_self_rep()
    witness, _, report = unitarize(rep, eps=1e-7)
    rng = np.random.default_rng(7)
    transported = [x for x, r in report.unit_results.items() if r.iterations == 0]
    for x in transported[:6]:
        res, ps = report.unit_results[x], gram_set(rep, x)
        # the chart direction toward the farthest point, and one across it
        _, isq = spectral_calculus(res.center.mat, lambda w: 1.0 / np.sqrt(w))
        far = ps.points[radius_at(res.center, ps)[1]].mat
        _, along = spectral_calculus(isq @ far @ isq, np.log)
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        M = M + M.conj().T
        across = M - np.real(np.vdot(along, M)) / np.real(np.vdot(along, along)) * along
        for E in (along, across):
            for delta in (1e-10, 1e-6):
                mutant = displaced(res.center, E, delta)
                err = bound(chart_at(mutant, ps), res.weights)[1]  # at the carried weights
                moved = distance(mutant, res.center)
                assert err >= moved - res.center_error_bound


@pytest.mark.parametrize("eps", [1e-7, 10.0])
def test_unit_whose_dedup_differs_from_the_roots_takes_the_meb_path(monkeypatch, eps):
    # Renamed so, x1 and x2 keep other arrows of a target than the partners
    # of the points x0 keeps, so x0's weights have nowhere to go; at eps 10
    # any weights would give a bound within eps.
    rep = s3_natural_rep({"201": "210", "210": "201"})
    calls = meb_calls(monkeypatch)
    witness, _, report = unitarize(rep, eps=eps)
    root = report.unit_results["x0"]
    assert root.iterations > 0
    assert len(calls) == root.iterations + 2
    for x in ("x1", "x2"):
        res = report.unit_results[x]
        assert res.center_error_bound == certify(witness.sigma[x], gram_set(rep, x))[0]


def s3_natural_renamed_rep():
    return s3_natural_rep({"201": "210", "210": "201"})


@pytest.mark.parametrize("build, units, fallbacks", [
    (s4_self_rep, 24, 0), (s3_natural_rep, 3, 0), (s3_natural_renamed_rep, 3, 2),
], ids=["S4-self", "S3-natural", "S3-natural-renamed"])
def test_every_certificate_is_the_bound_of_a_fresh_chart_at_its_weights(
    monkeypatch, build, units, fallbacks
):
    # C1: a unit's certificate is a function of its center's chart and its
    # weights alone, whether the unit was solved or transported, at carried
    # weights or (the renamed S3, whose x1 and x2 take the _meb path) at its
    # own chart ball's.
    rep = build()
    calls = meb_calls(monkeypatch)
    _, _, report = unitarize(rep, eps=1e-7)
    (root,) = [r for r in report.unit_results.values() if r.iterations > 0]
    assert len(report.unit_results) == units and len(calls) == root.iterations + fallbacks
    for x, res in report.unit_results.items():
        c = chart_at(res.center, gram_set(rep, x))
        assert c.radius == res.radius_at_center
        assert bound(c, res.weights) == (res.radius_lower_bound, res.center_error_bound)


def s3_natural_cond100_rep():
    s3 = symmetric_group(3)
    return generate_instance(natural_permutation_action(3), permutation_base_rep(s3), 100.0, 0)


def s3_dim4_rep():
    s3 = symmetric_group(3)
    base = direct_sum_base_rep(permutation_base_rep(s3), trivial_base_rep(s3, 1))
    return generate_instance(natural_permutation_action(3), base, 10.0, 0)


@pytest.mark.parametrize("build, max_iter", [
    (s4_self_rep, 100_000),
    (s3_natural_rep, 100_000),
    (s3_self_rep, 100_000),
    # uncertified: an exhausted line search stops it before 200 iterations,
    # and the cap at 5
    (s3_natural_cond100_rep, 200),
    (s3_natural_cond100_rep, 5),
    (s3_dim4_rep, 100_000),  # the stall rule stops it
], ids=["S4-self", "S3-natural", "S3-self", "cond100-line-search", "cond100-cap", "S3-dim4-stall"])
def test_solve_certifies_its_last_iterate_as_certified_result_does(build, max_iter, monkeypatch):
    rep = build()
    ps = gram_set(rep, rep.groupoid.positive_units[0])
    res = solve(ps, 1e-7, max_iter=max_iter)
    if build is s3_natural_cond100_rep:
        assert not res.converged and (res.iterations < max_iter) == (max_iter == 200)
    if build is s3_dim4_rep:
        monkeypatch.setattr(circumcenter, "_STALL_STEPS", 10**9)
        assert res.iterations == 20 and solve(ps, 1e-7, max_iter=max_iter).iterations > 20
    want = certified_result(res.center, ps, 1e-7, res.iterations)
    got = (res.radius_at_center, res.radius_lower_bound, res.center_error_bound, res.converged)
    assert got == (want.radius_at_center, want.radius_lower_bound,
                   want.center_error_bound, want.converged)
    assert np.array_equal(res.weights, want.weights)


def test_unitarize_wraps_no_gram_point_of_a_transported_unit(monkeypatch):
    wrapped = []
    init = SpdMatrix.__init__

    def recorded(self, mat, *args):
        wrapped.append(np.asarray(mat).tobytes())
        init(self, mat, *args)

    rep = s4_self_rep()
    monkeypatch.setattr(SpdMatrix, "__init__", recorded)
    _, _, report = unitarize(rep, eps=1e-7)
    monkeypatch.undo()
    transported = [x for x, r in report.unit_results.items() if r.iterations == 0]
    assert len(transported) == 23
    points = {p.mat.tobytes() for x in transported for p in gram_set(rep, x).points}
    assert len(points) == 23 * 24 and not points & set(wrapped)
