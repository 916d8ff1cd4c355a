import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from unitarizer import representation
from unitarizer.errors import (
    DimensionMismatch,
    InvalidAction,
    InvalidBaseRep,
    InvalidMatrix,
    InvalidRepresentation,
    MissingArrow,
    NotHermitian,
    NotPositiveDefinite,
    NotUniformlyBounded,
    ParameterOutOfRange,
    SingularTransform,
    UnknownUnit,
)
from unitarizer.groupoid import (
    ActionGroupoidSpec,
    build_action_groupoid,
    cyclic_group,
    cyclic_shift_action,
    left_translation_action,
    natural_permutation_action,
    ordered_pair_action,
    symmetric_group,
    trivial_action,
)
from unitarizer.linalg import as_square_matrix, l2_norm, l2_norms, matrix_sqrt, operator_norm
from unitarizer.representation import (
    DEDUP_TOL,
    REP_TOL,
    Representation,
    check_base_rep,
    check_representation,
    cyclic_character_base_rep,
    direct_sum_base_rep,
    generate_instance,
    gram_set,
    make_representation,
    permutation_base_rep,
    trivial_base_rep,
    uniform_bound,
    unitarize,
    verify_similarity,
)
from unitarizer.sampling import random_invertible

PHI = (1.0 + np.sqrt(5.0)) / 2.0
A = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=np.complex128)


def z2_point_groupoid():
    return build_action_groupoid(
        trivial_action(cyclic_group(2), ("pt",), (1.0,))
    )


def z2_rep():
    G = z2_point_groupoid()
    return make_representation(
        G, 2, {"r0@pt": np.eye(2, dtype=np.complex128), "r1@pt": A}
    )


def test_make_representation_z2():
    rep = z2_rep()
    assert rep.uniform_bound_C == pytest.approx(PHI, abs=1e-12)
    assert check_representation(rep) == []


def test_make_representation_missing_arrow():
    G = z2_point_groupoid()
    with pytest.raises(MissingArrow):
        make_representation(G, 2, {"r0@pt": np.eye(2)})


def test_make_representation_rejects_extra_arrows():
    G = z2_point_groupoid()
    with pytest.raises(InvalidRepresentation):
        make_representation(
            G, 2, {"r0@pt": np.eye(2), "r1@pt": A, "bogus": np.eye(2)}
        )


def test_make_representation_rejects_bad_identity():
    G = z2_point_groupoid()
    with pytest.raises(InvalidRepresentation):
        make_representation(G, 2, {"r0@pt": 2.0 * np.eye(2), "r1@pt": A})


def test_make_representation_rejects_broken_functoriality():
    # r1.r1 = r0 must map to A @ A = I; breaking A does not break A @ A = I
    # so instead corrupt the composite slot via a non-involutive matrix
    G = z2_point_groupoid()
    B = np.array([[1.0, 0.5], [0.0, 1.0]])  # B @ B != I
    with pytest.raises(InvalidRepresentation) as exc:
        make_representation(G, 2, {"r0@pt": np.eye(2), "r1@pt": B})
    assert "r1@pt" in str(exc.value)


def z3_two_unit_rho():
    """Z/3 acting trivially on units a and b, by the characters (0, 1)."""
    G = build_action_groupoid(trivial_action(cyclic_group(3), ("a", "b"), (0.5, 0.5)))
    base = cyclic_character_base_rep(3, (0, 1))
    return G, {f"{g}@{x}": base[g].copy() for g in base for x in ("a", "b")}


def test_make_representation_names_the_first_singular_arrow():
    # arrow ids in order: r0@a, r0@b, r1@a, r1@b, r2@a, r2@b
    G, rho = z3_two_unit_rho()
    rho["r1@b"] = np.diag([1.0, 0.0])
    rho["r2@b"] = np.diag([0.0, 1.0])
    with pytest.raises(InvalidRepresentation, match=r"^matrix for arrow 'r1@b' is singular$"):
        make_representation(G, 2, rho)


def test_make_representation_names_the_first_wrong_inverse():
    G, rho = z3_two_unit_rho()
    rho["r2@a"] = 2.0 * rho["r2@a"]  # invertible, but not rho(r1@a)**-1
    rho["r2@b"] = np.diag([1.0, 0.0])  # singular, later in id order
    with pytest.raises(InvalidRepresentation) as exc:
        make_representation(G, 2, rho)
    assert str(exc.value).startswith("inverse arrow 'r2@a' deviates from rho('r1@a')**-1 by")


def test_unitarize_names_the_unit_whose_center_is_not_positive_definite(monkeypatch):
    # a and b are separate orbits, so b's center comes from the second solve
    G, rho = z3_two_unit_rho()
    rep = make_representation(G, 2, rho)
    solves = []

    def negated_second(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        solves.append(res)
        if len(solves) == 2:
            return dataclasses.replace(res, center=SimpleNamespace(mat=-res.center.mat))
        return res

    real_solve = representation.solve
    monkeypatch.setattr(representation, "solve", negated_second)
    with pytest.raises(NotPositiveDefinite, match=r"^sigma\[b\]: eigenvalue range"):
        unitarize(rep)


def test_bad_arrow_matrices_are_named_in_id_order():
    # arrow ids in order: r0@a, r0@b, r1@a, r1@b, r2@a, r2@b; the stack is
    # checked in one pass and arrow by arrow only to name the culprit: a
    # matrix that is not square or not finite first, then one of the wrong
    # dimension
    G, rho = z3_two_unit_rho()
    nan = np.full((2, 2), np.nan)
    cases = [
        ({"r1@b": np.ones((2, 3)), "r2@a": nan}, DimensionMismatch,
         r"^rho\[r1@b\]: expected a nonempty square matrix, got shape \(2, 3\)$"),
        ({"r1@a": nan, "r2@b": np.ones((2, 3))}, InvalidMatrix,
         r"^rho\[r1@a\]: entries must be finite$"),
        ({"r0@b": np.eye(3), "r2@a": nan}, InvalidMatrix,
         r"^rho\[r2@a\]: entries must be finite$"),
        ({"r2@b": np.eye(1), "r1@a": np.eye(3)}, DimensionMismatch,
         r"^rho\[r1@a\]: matrix is 3x3, expected dimension 2$"),
        ({g: np.eye(3) for g in rho}, DimensionMismatch,
         r"^rho\[r0@a\]: matrix is 3x3, expected dimension 2$"),
    ]
    for bad, error, message in cases:
        with pytest.raises(error, match=message):
            make_representation(G, 2, {**rho, **bad})


def test_gram_set_names_the_first_failing_point(monkeypatch):
    # the kept Gram points are validated as one stack; a failure names the
    # first failing point in arrow-id order, as point-by-point spd did
    G, rho = z3_two_unit_rho()
    bad = {**rho, "r1@a": np.diag([1.0, 0.0]), "r2@a": np.diag([0.0, 1.0])}
    rep = Representation(G, 2, bad, 1.0)
    with pytest.raises(NotPositiveDefinite, match=r"^gram\[r1@a\]: eigenvalue range"):
        gram_set(rep, "a")
    assert len(gram_set(rep, "b").points) == 1
    # transposing without conjugating makes rho(g)^T rho(g) complex symmetric,
    # so not Hermitian, where rho(g) has a complex phase.  rho(r1@a) is real
    # here, and its point equals that of r0@a, so the first failing kept
    # point is r2@a's.
    rep = Representation(G, 2, {**rho, "r1@a": np.diag([1.0, -1.0])}, 1.0)
    monkeypatch.setattr(representation, "adjoint", lambda a: np.swapaxes(a, -1, -2))
    with pytest.raises(NotHermitian, match=r"^gram\[r2@a\]: asymmetry"):
        gram_set(rep, "a")


def _bad_pairs_reference(G, rho, tol):
    """Functoriality residuals pair by pair over the composition table."""
    pos = {x for x in G.units if G.unit_weight(x) > 0.0}
    out = []
    for (h, g), c in G.composition.items():
        if G.src(g) in pos and G.tgt(g) in pos and G.tgt(h) in pos:
            r = l2_norm(rho[c] - rho[h] @ rho[g])
            if r > tol:
                out.append(((h, g), r))
    # worst first; residuals equal to 12 significant digits in pair-name order
    out.sort(key=lambda item: (-float(f"{item[1]:.11e}"), item[0]))
    return out


def s3_three_orbits(mu):
    """S3 on three points, on the two cosets of A3 and on one fixed point."""
    s3 = symmetric_group(3)
    odd = {p for p in s3.elements if sum(a > b for i, a in enumerate(p) for b in p[i + 1:]) % 2}
    action = {}
    for p in s3.elements:
        action.update({(p, f"x{i}"): f"x{p[i]}" for i in range(3)})
        action.update({(p, f"s{i}"): f"s{i ^ (p in odd)}" for i in range(2)})
        action[(p, "f")] = "f"
    return ActionGroupoidSpec(s3, ("x0", "x1", "x2", "s0", "s1", "f"), mu, action)


def test_functoriality_residuals_match_the_pairwise_reference(monkeypatch):
    # Each corrupted arrow g, a non-identity arrow between positive-mass units
    # that is not its own inverse, gets rho(g) K and its inverse K**-1
    # rho(g**-1), so identities and inverses still hold and only
    # functoriality fails.
    s3 = symmetric_group(3)
    perm3 = permutation_base_rep(s3)
    cases = [
        # one orbit, x2 without mass
        (natural_permutation_action(3, mu=(0.5, 0.5, 0.0)), perm3, 3.0),
        # three orbits with 4x4, 3x3 and 6x6 blocks, two units without mass
        (s3_three_orbits((0.2, 0.2, 0.0, 0.2, 0.0, 0.4)),
         direct_sum_base_rep(perm3, trivial_base_rep(s3, 1)), 3.0),
        (s3_three_orbits((0.1, 0.3, 0.2, 0.0, 0.3, 0.1)), trivial_base_rep(s3, 1), 2.0),
        # one 64x64 block that spans several row blocks of the kernel
        (trivial_action(cyclic_group(64), ("pt",), (1.0,)),
         cyclic_character_base_rep(64, (0, 1, 5, 9)), 3.0),
    ]
    blocks = []
    kernel = representation._residuals

    def counting(*args):
        for a, r in kernel(*args):
            blocks.append(len(r))
            yield a, r

    monkeypatch.setattr(representation, "_residuals", counting)
    rng = np.random.default_rng(7)
    for spec, base, cond in cases:
        G = build_action_groupoid(spec)
        rep = generate_instance(spec, base, cond, 5)
        dim, rho = rep.dim, dict(rep.rho)
        pos = {x for x in G.units if G.unit_weight(x) > 0.0}
        free = [
            g for g in G._ids
            if G.src(g) in pos and G.tgt(g) in pos and G.inv(g) != g
        ]
        for g in rng.choice(free, 3, replace=False):
            K = np.eye(dim) + 1e-3 * rng.standard_normal((dim, dim))
            gi = G.inv(g)
            rho[g], rho[gi] = rho[g] @ K, np.linalg.inv(K) @ rho[gi]
        want = _bad_pairs_reference(G, rho, 1e-9)
        blocks.clear()
        got = check_representation(Representation(G, dim, rho, rep.uniform_bound_C))
        # the same pairs in the same order, at the same residuals up to summation order
        assert len(want) > 10
        assert [pair for pair, _ in got] == [pair for pair, _ in want]
        assert all(r == pytest.approx(s, rel=1e-12, abs=0.0) for (_, r), (_, s) in zip(got, want))
        if len(G.units) == 1:
            assert len(blocks) > 1 and sum(blocks) == 64
        (h, g), _ = want[0]
        with pytest.raises(InvalidRepresentation) as exc:
            make_representation(G, dim, rho)
        assert str(exc.value).startswith(f"functoriality fails on pair ({h!r}, {g!r}) with residual")
        assert check_representation(rep) == []


def test_tied_functoriality_residuals_are_listed_in_name_order():
    # One corrupted arrow, rho(g) K and K**-1 rho(g**-1) with K = diag(1.01, 1),
    # makes many pairs whose residuals are equal in exact arithmetic.
    spec = natural_permutation_action(3)
    G = build_action_groupoid(spec)
    rep = generate_instance(spec, trivial_base_rep(spec.group, 2), 1.0, 0)
    K = np.diag([1.01, 1.0])
    rho = dict(rep.rho)
    g, gi = "021@x1", G.inv("021@x1")
    rho[g], rho[gi] = rho[g] @ K, np.linalg.inv(K) @ rho[gi]
    got = check_representation(Representation(G, 2, rho, rep.uniform_bound_C))
    pairs = [pair for pair, _ in got]
    assert pairs.index(("120@x2", "021@x1")) < pairs.index(("201@x2", "021@x1"))
    ties = 0
    for (p, r), (q, s) in zip(got, got[1:]):
        assert s <= r * (1.0 + 1e-12)
        if s >= r * (1.0 - 1e-12):
            ties += 1
            assert p < q
    assert ties > 10
    with pytest.raises(InvalidRepresentation) as exc:
        make_representation(G, 2, rho)
    assert str(exc.value).startswith(f"functoriality fails on pair {pairs[0]!r} with residual")


def test_check_representation_flags_perturbed_arrow():
    rep = z2_rep()
    rho = dict(rep.rho)
    rho["r1@pt"] = rho["r1@pt"] + 0.1 * np.eye(2)
    from unitarizer.representation import Representation

    bad = Representation(rep.groupoid, 2, rho, 0.0)
    flagged = check_representation(bad, tol=1e-9)
    assert flagged
    pairs = {pair for pair, _ in flagged}
    assert ("r1@pt", "r1@pt") in pairs


def test_uniform_bound_values():
    rep = z2_rep()
    assert uniform_bound(rep.groupoid, rep.rho) == pytest.approx(PHI, abs=1e-12)
    G = z2_point_groupoid()
    unit = make_representation(
        G, 2, {"r0@pt": np.eye(2), "r1@pt": np.diag([1.0, -1.0])}
    )
    assert unit.uniform_bound_C == pytest.approx(1.0, abs=1e-12)


def test_uniform_bound_rejects_finite_entries_whose_norm_overflows():
    big = np.full((2, 2), 1e308)
    with pytest.raises(NotUniformlyBounded,
                       match="^representation has no finite uniform bound$"):
        uniform_bound(z2_point_groupoid(), {"r0@pt": big, "r1@pt": big})


def test_gram_set_z2_hand_value():
    rep = z2_rep()
    ps = gram_set(rep, "pt")
    assert len(ps.points) == 2
    mats = sorted((p.mat for p in ps.points), key=lambda m: float(np.trace(m).real))
    assert np.allclose(mats[0], np.eye(2), atol=1e-12)
    assert np.allclose(mats[1], np.array([[1.0, 1.0], [1.0, 2.0]]), atol=1e-12)
    # ball from the uniform bound: c = phi^2 (+headroom)
    assert ps.ball.c == pytest.approx(PHI**2, rel=1e-8)


def test_gram_set_unitary_collapses_to_identity():
    G = z2_point_groupoid()
    rep = make_representation(
        G, 2, {"r0@pt": np.eye(2), "r1@pt": np.diag([1.0, -1.0])}
    )
    ps = gram_set(rep, "pt")
    assert len(ps.points) == 1  # both grams equal I, deduplicated
    assert np.allclose(ps.points[0].mat, np.eye(2), atol=1e-14)


def near_gram_rep(scales):
    """Z/4 on one unit with Gram points I, B, then B + s * D for s in ``scales``.

    D is a fixed direction whose normalized L2 norm is the dedup threshold
    against B, DEDUP_TOL * (1 + l2_norm(B)).  Validation is bypassed: the
    matrices are Gram square roots, not a representation.
    """
    G = build_action_groupoid(trivial_action(cyclic_group(4), ("pt",), (1.0,)))
    B = np.array([[2.0, 0.5], [0.5, 1.0]])
    D = np.array([[1.0, 0.3], [0.3, -0.7]])
    D *= DEDUP_TOL * (1.0 + l2_norm(B)) / l2_norm(D)
    grams = [np.eye(2), B] + [B + s * D for s in scales]
    rho = {f"r{k}@pt": matrix_sqrt(m) for k, m in enumerate(grams)}
    return Representation(G, 2, rho, 2.0), grams


def test_gram_set_keeps_the_first_of_two_near_duplicates():
    rep, grams = near_gram_rep([0.5, 2.0])
    points = [p.mat for p in gram_set(rep, "pt").points]
    assert len(points) == 3  # r2@pt at 0.5 * DEDUP_TOL of r1@pt is dropped
    assert np.allclose(points[1], grams[1], rtol=0.0, atol=1e-13)
    assert np.allclose(points[2], grams[3], rtol=0.0, atol=1e-13)


def test_gram_set_dedup_compares_with_kept_points_only():
    # r2 lies within the threshold of r1 and is dropped; r3 lies within it
    # of r2 but not of r1, so it stays
    rep, grams = near_gram_rep([0.6, 1.2])
    points = [p.mat for p in gram_set(rep, "pt").points]
    assert len(points) == 3
    assert np.allclose(points[2], grams[3], rtol=0.0, atol=1e-13)
    rep, _ = near_gram_rep([2.0, 4.0])
    assert len(gram_set(rep, "pt").points) == 4  # 2 x DEDUP_TOL apart: all kept


def loop_gram_points(rep, x):
    """Reference: the point-by-point de-duplication against kept points."""
    G = rep.groupoid
    kept = []
    for g in G.source_fiber(x):
        if G.unit_weight(G.tgt(g)) > 0.0:
            b = rep.rho[g].conj().T @ rep.rho[g]
            if all(l2_norm(b - p) > DEDUP_TOL * (1.0 + l2_norm(p)) for p in kept):
                kept.append(b)
    return kept


def test_gram_set_matches_the_point_by_point_reference():
    # the trivial base representation makes rho(g)* rho(g) depend on the
    # target only, so 24 arrows collapse to 4 points up to roundoff
    s4 = symmetric_group(4)
    for base, cond in ((trivial_base_rep(s4, 2), 3.0), (permutation_base_rep(s4), 10.0)):
        rep = generate_instance(natural_permutation_action(4), base, cond, 0)
        for x in rep.groupoid.units:
            ref = loop_gram_points(rep, x)
            points = gram_set(rep, x).points
            assert len(points) == len(ref)
            for p, b in zip(points, ref):
                assert l2_norm(p.mat - b) <= 1e-14 * l2_norm(b)


def test_gram_set_spectrum_inside_gl_c():
    spec = natural_permutation_action(3)
    rep = generate_instance(
        spec, permutation_base_rep(symmetric_group(3)), 5.0, seed=2
    )
    c = max(rep.uniform_bound_C**2, 1.0) * (1 + 1e-9)
    for x in rep.groupoid.positive_units:
        ps = gram_set(rep, x)
        for p in ps.points:
            assert p.eig_max <= c * (1 + 1e-9)
            assert p.eig_min >= 1 / (c * (1 + 1e-9))


def test_gram_set_requires_positive_mass():
    G = build_action_groupoid(
        trivial_action(cyclic_group(2), ("a", "b"), (1.0, 0.0))
    )
    rep = make_representation(
        G, 1,
        {g: np.eye(1) for g in ("r0@a", "r1@a", "r0@b", "r1@b")},
    )
    with pytest.raises(UnknownUnit):
        gram_set(rep, "b")


def test_generate_instance_determinism_and_bound():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep1 = generate_instance(spec, base, 8.0, seed=9)
    rep2 = generate_instance(spec, base, 8.0, seed=9)
    assert all(np.array_equal(rep1.rho[g], rep2.rho[g]) for g in rep1.rho)
    rep3 = generate_instance(spec, base, 8.0, seed=10)
    assert any(not np.array_equal(rep1.rho[g], rep3.rho[g]) for g in rep1.rho)
    assert rep1.uniform_bound_C <= 8.0 * (1 + 1e-9)
    assert check_representation(rep1) == []


def test_generate_instance_cond_bound_one_is_unitary():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    rep = generate_instance(spec, base, 1.0, seed=4)
    for g, m in rep.rho.items():
        assert l2_norm(m.conj().T @ m - np.eye(3)) < 1e-12


def _reference_instance(spec, base, cond, seed):
    """rho(gamma, x) = h(gamma . x) u0(gamma) h(x)**-1 formed arrow by arrow."""
    rng = np.random.default_rng(seed)
    dim = next(iter(base.values())).shape[0]
    h = {x: random_invertible(rng, dim, float(cond)) for x in spec.units}
    return {
        f"{g}@{x}": h[spec.action[(g, x)]] @ as_square_matrix(base[g]) @ np.linalg.inv(h[x])
        for g in spec.group.elements
        for x in spec.units
    }


def test_generate_instance_equals_the_per_arrow_products_bit_for_bit():
    s3, s4 = symmetric_group(3), symmetric_group(4)
    perm3, perm4 = permutation_base_rep(s3), permutation_base_rep(s4)
    catalog = [
        (natural_permutation_action(3), perm3),
        (left_translation_action(s3), direct_sum_base_rep(perm3, trivial_base_rep(s3, 1))),
        (natural_permutation_action(4), trivial_base_rep(s4, 2)),
        (ordered_pair_action(4), perm4),
        (cyclic_shift_action(6, copies=2), cyclic_character_base_rep(6, (0, 1, 2))),
        (left_translation_action(cyclic_group(5)), cyclic_character_base_rep(5, (2,))),
        (trivial_action(cyclic_group(3), ("p", "q"), (0.5, 0.5)),
         cyclic_character_base_rep(3, (0, 2))),
    ]
    for spec, base in catalog:
        for seed in (0, 1, 7):
            for cond in (1.0, 3.0, 50.0):
                rho = generate_instance(spec, base, cond, seed).rho
                want = _reference_instance(spec, base, cond, seed)
                assert rho.keys() == want.keys()
                for g, m in want.items():
                    assert rho[g].tobytes() == m.tobytes(), (g, seed, cond)


def test_generate_instance_rejects_bad_cond_bound():
    spec = natural_permutation_action(3)
    base = permutation_base_rep(symmetric_group(3))
    with pytest.raises(ParameterOutOfRange):
        generate_instance(spec, base, 0.5, seed=1)


def _z3_rep():
    G = build_action_groupoid(trivial_action(cyclic_group(3), ("pt",), (1.0,)))
    return make_representation(G, 2, {g: np.eye(2) for g in G.inverse})


def _verify_s3(witness):
    """verify_similarity of the S3-natural representation (units x0, x1, x2) with itself."""
    s3 = symmetric_group(3)
    rep = generate_instance(natural_permutation_action(3), trivial_base_rep(s3, 2), 2.0, 0)
    return verify_similarity(rep, rep, witness, 1e-7)


@pytest.mark.parametrize("call, error, message", [
    (lambda rep: verify_similarity(rep, make_representation(
        rep.groupoid, 1, {"r0@pt": np.eye(1), "r1@pt": -np.eye(1)}), {"pt": np.eye(2)}, 1e-7),
     DimensionMismatch, "dimensions differ: 2 vs 1"),
    (lambda rep: verify_similarity(rep, _z3_rep(), {"pt": np.eye(2)}, 1e-7),
     InvalidRepresentation, "representations live on different groupoids"),
    (lambda rep: verify_similarity(rep, rep, {}, 1e-7),
     UnknownUnit, "witness misses positive-mass unit 'pt'"),
    (lambda rep: verify_similarity(rep, rep, {"pt": np.eye(3)}, 1e-7),
     DimensionMismatch, "witness at 'pt' has wrong dimension"),
    (lambda rep: verify_similarity(rep, rep, {"pt": np.zeros((2, 2))}, 1e-7),
     SingularTransform, "witness at 'pt' is numerically singular"),
    # two failing units: the first in unit order is named
    (lambda rep: _verify_s3({"x0": np.eye(2), "x1": np.zeros((2, 2))}),
     SingularTransform, "witness at 'x1' is numerically singular"),
    (lambda rep: _verify_s3({"x0": np.eye(2), "x2": np.zeros((2, 2))}),
     UnknownUnit, "witness misses positive-mass unit 'x1'"),
    (lambda rep: generate_instance(trivial_action(cyclic_group(2), ("pt",), (1.0,)),
                                   {"r0": np.eye(2), "r1": np.eye(3)}, 4.0, 0),
     InvalidBaseRep, "base representation has inconsistent dimensions"),
], ids=["dims", "groupoids", "witness-unit", "witness-dim", "witness-singular",
        "witness-singular-then-missing", "witness-missing-then-singular", "base-dims"])
def test_similarity_and_generation_reject_mismatched_inputs(call, error, message):
    with pytest.raises(error) as exc:
        call(z2_rep())
    assert type(exc.value) is error and str(exc.value) == message


def test_base_rep_builders():
    g3 = symmetric_group(3)
    perm = permutation_base_rep(g3)
    check_base_rep(g3, perm, 3)
    triv = trivial_base_rep(g3, 2)
    check_base_rep(g3, triv, 2)
    both = direct_sum_base_rep(perm, triv)
    check_base_rep(g3, both, 5)
    z5 = cyclic_group(5)
    chars = cyclic_character_base_rep(5, (0, 1, 2))
    check_base_rep(z5, chars, 3)
    # characters are the 5th roots of unity on the diagonal
    assert np.allclose(
        np.diag(chars["r1"]), np.exp(2j * np.pi * np.array([0, 1, 2]) / 5)
    )


def test_check_base_rep_rejections():
    g3 = symmetric_group(3)
    bad = permutation_base_rep(g3)
    bad["012"] = 2.0 * np.eye(3)
    with pytest.raises(InvalidBaseRep):
        check_base_rep(g3, bad, 3)
    partial = permutation_base_rep(g3)
    del partial["210"]
    with pytest.raises(InvalidBaseRep):
        check_base_rep(g3, partial, 3)


def test_check_base_rep_names_an_incomplete_product_table_as_the_build_does():
    s3 = symmetric_group(3)
    mult = dict(s3.mult)
    del mult[("021", "102")]
    group = dataclasses.replace(s3, mult=mult)
    message = "multiplication table incomplete at ('021', '102')"
    with pytest.raises(InvalidAction) as exc:
        check_base_rep(group, permutation_base_rep(s3), 3)
    assert str(exc.value) == message
    with pytest.raises(InvalidAction) as exc:
        build_action_groupoid(dataclasses.replace(natural_permutation_action(3), group=group))
    assert str(exc.value) == message


def _reference_check_base_rep(group, base_rep, dim):
    """``check_base_rep`` as one loop over the elements and one over the table's rows."""
    for g in group.elements:
        if g not in base_rep:
            raise InvalidBaseRep(f"base representation misses element {g!r}")
        m = as_square_matrix(base_rep[g], f"base[{g}]")
        if m.shape[0] != dim:
            raise InvalidBaseRep(f"base matrix for {g!r} has wrong dimension")
        if l2_norm(m.conj().T @ m - np.eye(dim)) > REP_TOL:
            raise InvalidBaseRep(f"base matrix for {g!r} is not unitary")
    elems = group.elements
    mats = np.stack([as_square_matrix(base_rep[g]) for g in elems])
    for a, m in zip(elems, mats):
        ab = np.stack([base_rep[group.mult[(a, b)]] for b in elems])
        bad = np.flatnonzero(l2_norms(ab - m @ mats) > REP_TOL)
        if bad.size:
            raise InvalidBaseRep(
                f"base representation is not multiplicative on ({a!r}, {elems[bad[0]]!r})"
            )


def _outcome(f, *args):
    try:
        f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_check_base_rep_names_a_pair_in_every_row_block():
    # Z/64 at dim 4 spans several row blocks of the kernel; a wrong cell of
    # the product table is named by its own row in each of them.
    z64 = cyclic_group(64)
    base = cyclic_character_base_rep(64, (0, 1, 5, 9))
    for a, b in ((5, 60), (20, 7), (40, 0), (63, 33)):
        mult = dict(z64.mult)
        mult[f"r{a}", f"r{b}"] = f"r{(a + b + 1) % 64}"
        group = dataclasses.replace(z64, mult=mult)
        want = _outcome(_reference_check_base_rep, group, base, 4)
        assert want == (InvalidBaseRep, f"base representation is not multiplicative on ('r{a}', 'r{b}')")
        assert _outcome(check_base_rep, group, base, 4) == want


BASE_DEFECTS = ("missing", "dimension", "non-finite", "non-unitary", "non-multiplicative")


def _corrupt_base(group, base, defects, rng):
    """``group`` and ``base`` with each of ``defects`` put in at a random place."""
    clean, base, mult, elems = base, dict(base), dict(group.mult), group.elements
    for defect in defects:
        g = elems[rng.integers(len(elems))]
        m = np.array(clean[g], dtype=np.complex128)
        if defect == "missing":
            base.pop(g, None)
        elif defect == "dimension":
            base[g] = np.eye(m.shape[0] + rng.choice([-1, 1]) if m.shape[0] > 1 else 2)
        elif defect == "non-finite":
            m[tuple(rng.integers(m.shape[0], size=2))] = rng.choice([np.nan, np.inf, -np.inf])
            base[g] = m
        elif defect == "non-unitary":
            base[g] = m * rng.choice([1.0 + 1e-7, 2.0])
        elif rng.random() < 0.5:  # a cell of the table names another element
            a, b = elems[rng.integers(len(elems))], elems[rng.integers(len(elems))]
            mult[a, b] = next(c for c in rng.permutation(elems) if c != mult[a, b])
        else:  # a matrix moved by a phase stays unitary
            base[g] = m * np.exp(1j * rng.uniform(0.5, 3.0))
    return dataclasses.replace(group, mult=mult), base


def test_check_base_rep_matches_the_per_row_reference_on_corrupted_inputs():
    s3, s4 = symmetric_group(3), symmetric_group(4)
    perm3 = permutation_base_rep(s3)
    cases = [
        (s3, perm3, 3),
        (s3, direct_sum_base_rep(perm3, trivial_base_rep(s3, 1)), 4),
        (s4, permutation_base_rep(s4), 4),
        (s4, trivial_base_rep(s4, 2), 2),
        (cyclic_group(5), cyclic_character_base_rep(5, (0, 1, 2)), 3),
        (cyclic_group(7), cyclic_character_base_rep(7, (3,)), 1),
    ]
    combos = [(d,) for d in BASE_DEFECTS] + [
        (d, e) for i, d in enumerate(BASE_DEFECTS) for e in BASE_DEFECTS[i + 1:]
    ]
    rng = np.random.default_rng(1616)
    raised = 0
    for k in range(450):
        group, base, dim = cases[k % len(cases)]
        group, base = _corrupt_base(group, base, combos[k % len(combos)], rng)
        want = _outcome(_reference_check_base_rep, group, base, dim)
        assert _outcome(check_base_rep, group, base, dim) == want, (k, want)
        raised += want is not None
    assert raised >= 400
