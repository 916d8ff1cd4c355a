import numpy as np
import pytest

from unitarizer import representation
from unitarizer.geometry import distance, midpoint
from unitarizer.linalg import identity_spd, l2_norm, spd
from unitarizer.groupoid import (
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
    rep = s3_self_rep()
    witness, _, report = unitarize(rep, eps=1e-7)
    transported = [x for x, r in report.unit_results.items() if r.iterations == 0]
    assert len(transported) == len(rep.groupoid.positive_units) - 1
    for x in transported:
        res = report.unit_results[x]
        dists = [distance(witness.sigma[x], p) for p in gram_set(rep, x).points]
        assert max(dists) <= res.radius_at_center
        assert res.radius_lower_bound <= res.radius_at_center
        assert res.converged == (res.center_error_bound <= 1e-7)


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
