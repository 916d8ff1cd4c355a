"""Acceptance suite: seven pinned criteria, one test each.

Criteria 2 and 4 build shared batches of solver runs (module-scoped
fixtures) that criteria 3 and 5 audit afterwards, so every reported
certificate in the batch is re-verified, not sampled.
"""

import time

import numpy as np
import pytest

from oracles import welzl_center
from unitarizer.circumcenter import point_set, radius_at, radius_lower_bound, solve
from unitarizer.geometry import congruence, distance, geodesic, midpoint
from unitarizer.groupoid import (
    ActionGroupoidSpec,
    build_action_groupoid,
    check_axioms,
    check_ergodic,
    check_invariance,
    cyclic_group,
    cyclic_shift_action,
    left_translation_action,
    natural_permutation_action,
    nu_by_fiber_count,
    nu_of,
    ordered_pair_action,
    symmetric_group,
    trivial_action,
    uniform_mu,
)
from unitarizer.linalg import identity_spd, l2_norm, spd
from unitarizer.properties import semi_parallelogram_gap
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
from unitarizer.sampling import random_invertible, random_spd, rng_from_seed

EPS = 1e-7


# --------------------------------------------------------------------------
# shared batches


@pytest.fixture(scope="module")
def commuting_batch():
    """>=200 commuting (diagonal) families with solver results and oracles."""
    rng = rng_from_seed(20240816)
    t0 = time.monotonic()
    runs = []
    for trial in range(180):
        dim = int(rng.integers(1, 7))
        m = int(rng.integers(3, 17))
        logs = rng.uniform(-1.6, 1.6, size=(m, dim))
        pts = [spd(np.diag(np.exp(row))) for row in logs]
        ps = point_set(pts)
        res = solve(ps, EPS)
        c_log, _ = welzl_center(logs, seed=trial)
        oracle = spd(np.diag(np.exp(c_log)))
        runs.append({"pset": ps, "res": res, "oracle": oracle, "two_point": False})
    for trial in range(40):
        dim = int(rng.integers(1, 7))
        logs = rng.uniform(-1.6, 1.6, size=(2, dim))
        pts = [spd(np.diag(np.exp(row))) for row in logs]
        ps = point_set(pts)
        res = solve(ps, EPS)
        runs.append(
            {
                "pset": ps,
                "res": res,
                "oracle": midpoint(pts[0], pts[1]),
                "two_point": True,
            }
        )
    elapsed = time.monotonic() - t0
    return {"runs": runs, "elapsed": elapsed}


def _instance_plan():
    plan = []
    # cyclic groups Z/n acting on themselves, character base reps
    for n in range(2, 9):
        grp = cyclic_group(n)
        spec = left_translation_action(grp)
        base = cyclic_character_base_rep(n, tuple(range(min(n, 3))))
        for seed, cond in ((0, 3.0), (1, 10.0)):
            plan.append((f"Z{n}-self", spec, base, cond, seed))
    # Z/2 shifting 16 disjoint blocks: 32 units
    spec = cyclic_shift_action(2, copies=16)
    base2 = cyclic_character_base_rep(2, (0, 1))
    for seed in (0, 1):
        plan.append(("Z2-32units", spec, base2, 10.0, seed))
    # Z/6 on two blocks
    spec = cyclic_shift_action(6, copies=2)
    base6 = cyclic_character_base_rep(6, (0, 1, 2))
    for seed in (0, 1):
        plan.append(("Z6-2blocks", spec, base6, 5.0, seed))
    # S3 natural action on 3 points
    s3 = symmetric_group(3)
    nat3 = natural_permutation_action(3)
    perm3 = permutation_base_rep(s3)
    for seed in (0, 1, 2):
        for cond in (2.0, 10.0):
            plan.append(("S3-natural", nat3, perm3, cond, seed))
    # S3 natural with a 4-dimensional direct sum base rep
    mixed = direct_sum_base_rep(perm3, trivial_base_rep(s3, 1))
    for seed in (0, 1):
        plan.append(("S3-dim4", nat3, mixed, 10.0, seed))
    # S3 acting on itself (6 units)
    self3 = left_translation_action(s3)
    for seed in (0, 1):
        for cond in (2.0, 10.0):
            plan.append(("S3-self", self3, perm3, cond, seed))
    # S4 natural action on 4 points
    s4 = symmetric_group(4)
    nat4 = natural_permutation_action(4)
    perm4 = permutation_base_rep(s4)
    for seed in (0, 1, 2):
        for cond in (2.0, 10.0):
            plan.append(("S4-natural", nat4, perm4, cond, seed))
    # S4 on ordered pairs (12 units)
    pairs4 = ordered_pair_action(4)
    for seed in (0, 1):
        for cond in (2.0, 10.0):
            plan.append(("S4-pairs", pairs4, perm4, cond, seed))
    # S4 acting on itself (24 units), small fiber dimension
    self4 = left_translation_action(s4)
    base_tr = trivial_base_rep(s4, 2)
    for seed in (0, 1):
        for cond in (2.0, 10.0):
            plan.append(("S4-self", self4, base_tr, cond, seed))
    # dimension 8 via a doubled permutation rep
    perm44 = direct_sum_base_rep(perm4, perm4)
    for seed in (0, 1):
        plan.append(("S4-dim8", nat4, perm44, 10.0, seed))
    # Z/8 shifting one block with a 4-dimensional character sum
    shift8 = cyclic_shift_action(8, copies=1)
    base8 = cyclic_character_base_rep(8, (0, 1, 2, 3))
    for seed in (0, 1):
        plan.append(("Z8-shift", shift8, base8, 10.0, seed))
    for seed in (3, 4):
        plan.append(("S3-natural", nat3, perm3, 5.0, seed))
    plan.append(("S4-pairs", pairs4, perm4, 10.0, 2))
    plan.append(("S4-natural", nat4, perm4, 5.0, 3))
    return plan


@pytest.fixture(scope="module")
def roundtrip_batch():
    """>=50 generated instances, unitarized and similarity-verified."""
    plan = _instance_plan()
    t0 = time.monotonic()
    records = []
    for name, spec, base, cond, seed in plan:
        rep = generate_instance(spec, base, cond, seed)
        witness, unitary, report = unitarize(rep, eps=EPS)
        h = {x: p.mat for x, p in witness.psi.items()}
        ok, residuals = verify_similarity(rep, unitary, h, tol=1e-5)
        records.append(
            {
                "name": name,
                "rep": rep,
                "witness": witness,
                "unitary": unitary,
                "report": report,
                "similar": ok,
                "sim_residuals": residuals,
            }
        )
    elapsed = time.monotonic() - t0
    return {"records": records, "elapsed": elapsed}


# --------------------------------------------------------------------------
# criterion 1: geometry suite


def test_acceptance_1_geometry_suite():
    rng = rng_from_seed(101)
    t0 = time.monotonic()
    trials = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        a = random_spd(rng, dim, 1e3)
        b = random_spd(rng, dim, 1e3)
        z = random_spd(rng, dim, 1e3)
        d_ab = distance(a, b)

        m = midpoint(a, b)
        lhs = distance(z, m) ** 2
        rhs = 0.5 * (distance(z, a) ** 2 + distance(z, b) ** 2) - 0.25 * d_ab**2
        assert lhs - rhs <= 1e-8 * (1.0 + abs(rhs))

        g = random_invertible(rng, dim, 1e3)
        assert abs(
            distance(congruence(g, a), congruence(g, b)) - d_ab
        ) <= 1e-8 * (1.0 + d_ab)

        for t in (0.25, 0.5, 0.75):
            p = geodesic(a, b, t)
            assert abs(distance(a, p) - t * d_ab) <= 1e-7 * (1.0 + d_ab)
            assert abs(distance(p, b) - (1.0 - t) * d_ab) <= 1e-7 * (1.0 + d_ab)
        trials += 1
    elapsed = time.monotonic() - t0
    assert trials >= 1000
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1: PASS geometry suite, {trials} triples in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: circumcenter oracle equivalence


def test_acceptance_2_commuting_oracle(commuting_batch):
    runs = commuting_batch["runs"]
    assert len(runs) >= 200
    for run in runs:
        res = run["res"]
        tol = 1e-6 + res.center_error_bound
        assert distance(res.center, run["oracle"]) <= tol
    two_point = [r for r in runs if r["two_point"]]
    assert len(two_point) >= 40
    assert commuting_batch["elapsed"] < 60.0
    print(
        f"ACCEPTANCE 2: PASS {len(runs)} commuting families"
        f" ({len(two_point)} two-point) in {commuting_batch['elapsed']:.1f}s"
    )


# --------------------------------------------------------------------------
# criterion 3: certificate soundness for every solve in criteria 2 and 4


def test_acceptance_3_certificate_soundness(commuting_batch, roundtrip_batch):
    audited = 0
    for run in commuting_batch["runs"]:
        res, ps = run["res"], run["pset"]
        assert res.radius_lower_bound <= res.radius_at_center + 1e-12
        # the reported bound is clamped to the radius, so also check it
        # against r* through the oracle center, and the pairwise bound
        assert res.radius_lower_bound <= radius_at(run["oracle"], ps)[0] + 1e-12
        assert radius_lower_bound(ps) <= res.radius_at_center + 1e-12
        for p in ps.points:
            assert distance(res.center, p) <= res.radius_at_center + 1e-9
        audited += 1
    for record in roundtrip_batch["records"]:
        rep = record["rep"]
        for x, res in record["witness"].certificates.items():
            assert res.radius_lower_bound <= res.radius_at_center + 1e-12
            ps = gram_set(rep, x)
            assert radius_lower_bound(ps) <= res.radius_at_center + 1e-12
            for p in ps.points:
                assert distance(res.center, p) <= res.radius_at_center + 1e-9
            audited += 1
    print(f"ACCEPTANCE 3: PASS certificates sound on {audited} solves")


# --------------------------------------------------------------------------
# criterion 4: round-trip unitarization


def test_acceptance_4_round_trip(roundtrip_batch):
    records = roundtrip_batch["records"]
    assert len(records) >= 50
    worst = 0.0
    for record in records:
        report = record["report"]
        assert report.max_unitarity_residual <= 1e-5, record["name"]
        assert record["similar"], record["name"]
        worst = max(worst, report.max_unitarity_residual)
    # the plan exercises the required shapes
    names = {r["name"] for r in records}
    assert any(n.startswith("Z") for n in names)
    assert any(n.startswith("S3") for n in names)
    assert any(n.startswith("S4") for n in names)
    assert roundtrip_batch["elapsed"] < 300.0
    print(
        f"ACCEPTANCE 4: PASS {len(records)} instances, worst unitarity"
        f" residual {worst:.2e}, {roundtrip_batch['elapsed']:.1f}s"
    )


# --------------------------------------------------------------------------
# criterion 5: sigma-equivariance against the certificates


def test_acceptance_5_sigma_equivariance(roundtrip_batch):
    arrows = 0
    for record in roundtrip_batch["records"]:
        G = record["rep"].groupoid
        certs = {
            x: r.center_error_bound
            for x, r in record["witness"].certificates.items()
        }
        for g, (_, equi) in record["report"].per_arrow.items():
            a = G.arrow(g)
            assert equi <= 2.0 * (certs[a.src] + certs[a.tgt]) + 1e-7, (
                record["name"], g,
            )
            arrows += 1
    print(f"ACCEPTANCE 5: PASS sigma-equivariance on {arrows} arrows")


# --------------------------------------------------------------------------
# criterion 6: groupoid axioms and measure verdicts


def test_acceptance_6_groupoid_axioms():
    catalog = [
        build_action_groupoid(left_translation_action(cyclic_group(n)))
        for n in (2, 3, 5)
    ]
    catalog.append(build_action_groupoid(natural_permutation_action(3)))
    catalog.append(build_action_groupoid(natural_permutation_action(4)))
    catalog.append(build_action_groupoid(ordered_pair_action(3)))
    catalog.append(build_action_groupoid(cyclic_shift_action(4, copies=2)))
    catalog.append(build_action_groupoid(left_translation_action(symmetric_group(3))))
    catalog.append(
        build_action_groupoid(
            trivial_action(cyclic_group(2), ("a", "b"), (0.25, 0.75))
        )
    )
    for G in catalog:
        assert check_axioms(G)

    # nu identity, exact (fsum on both sides of the Fubini exchange)
    rng = rng_from_seed(606)
    for G in catalog:
        ids = sorted(a.id for a in G.arrows)
        for _ in range(20):
            k = int(rng.integers(0, len(ids) + 1))
            subset = list(rng.choice(ids, size=k, replace=False))
            assert nu_of(G, subset) == nu_by_fiber_count(G, subset)

    # the three worked Z/2 swap examples
    swap = {
        ("r0", "a"): "a", ("r0", "b"): "b",
        ("r1", "a"): "b", ("r1", "b"): "a",
    }

    def swap_groupoid(mu):
        return build_action_groupoid(
            ActionGroupoidSpec(cyclic_group(2), ("a", "b"), mu, swap)
        )

    assert check_invariance(swap_groupoid(uniform_mu(2))) == "invariant"
    assert check_invariance(swap_groupoid((1 / 3, 2 / 3))) == "quasi_invariant"
    assert check_invariance(swap_groupoid((0.0, 1.0))) == "neither"
    assert check_ergodic(swap_groupoid(uniform_mu(2)))
    print(f"ACCEPTANCE 6: PASS axioms on {len(catalog)} groupoids + measure verdicts")


# --------------------------------------------------------------------------
# criterion 7: degenerate sanity


def test_acceptance_7_degenerate_sanity():
    # unitary input: psi collapses to the identity
    s3 = symmetric_group(3)
    rep = generate_instance(
        natural_permutation_action(3), permutation_base_rep(s3), 1.0, seed=3
    )
    witness, unitary, report = unitarize(rep, eps=EPS)
    for x, psi in witness.psi.items():
        assert l2_norm(psi.mat - np.eye(3)) <= 1e-8
    assert report.max_unitarity_residual <= 1e-8
    assert report.max_equivariance_residual <= 1e-8
    for g in rep.rho:
        assert l2_norm(unitary.rho[g] - rep.rho[g]) <= 1e-8

    # single-unit Z/2 with rho(s) = [[1,1],[0,-1]]: conjugation by the
    # square root of midpoint(I, A*A) = [[2,1],[1,3]]/sqrt(5) is unitary
    G = build_action_groupoid(trivial_action(cyclic_group(2), ("pt",), (1.0,)))
    A = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=np.complex128)
    rep2 = make_representation(G, 2, {"r0@pt": np.eye(2, dtype=np.complex128), "r1@pt": A})
    witness2, unitary2, report2 = unitarize(rep2, eps=EPS)
    expect_sigma = np.array([[2.0, 1.0], [1.0, 3.0]]) / np.sqrt(5.0)
    assert l2_norm(witness2.sigma["pt"].mat - expect_sigma) <= 1e-9
    oracle = midpoint(identity_spd(2), spd(A.conj().T @ A))
    assert distance(witness2.sigma["pt"], oracle) <= 1e-9
    u = unitary2.rho["r1@pt"]
    assert l2_norm(u.conj().T @ u - np.eye(2)) <= 1e-10
    assert report2.all_converged
    print("ACCEPTANCE 7: PASS degenerate sanity (unitary input, 2x2 hand example)")
