import math
import os
import subprocess
import sys
import tracemalloc
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unitarizer.errors import (
    EmptyRestriction,
    InvalidAction,
    InvalidGroupoid,
    ParameterOutOfRange,
    UnitarizerError,
    UnknownUnit,
    ZeroMassRestriction,
)
from unitarizer.groupoid import (
    ActionGroupoidSpec,
    _validate_group,
    Arrow,
    FiniteGroup,
    FiniteMeasuredGroupoid,
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
    restrict,
    symmetric_group,
    trivial_action,
    uniform_mu,
)
from unitarizer.serialization import groupoid_from_json, groupoid_to_json

SWAP = {
    ("r0", "a"): "a",
    ("r0", "b"): "b",
    ("r1", "a"): "b",
    ("r1", "b"): "a",
}


def swap_groupoid(mu):
    return build_action_groupoid(
        ActionGroupoidSpec(cyclic_group(2), ("a", "b"), mu, SWAP)
    )


def test_cyclic_group_table():
    g = cyclic_group(4)
    assert g.identity == "r0"
    assert g.mult[("r1", "r3")] == "r0"
    assert g.mult[("r2", "r3")] == "r1"
    assert g.inverses["r3"] == "r1"


def test_symmetric_group_sizes_and_associativity_spot():
    s3 = symmetric_group(3)
    assert len(s3.elements) == 6
    assert s3.identity == "012"
    # composition "p after r": (p r)(i) = p(r(i))
    assert s3.mult[("120", "102")] == "210"
    s4 = symmetric_group(4)
    assert len(s4.elements) == 24


def test_action_groupoid_shape():
    G = swap_groupoid((0.5, 0.5))
    assert G.units == ("a", "b")
    assert len(G.arrows) == 4
    assert check_axioms(G)
    # fibers have group size
    src, tgt = G.source_fiber("a"), G.target_fiber("a")
    assert len(src) == len(tgt) == 2
    assert G.compose("r1@b", "r1@a") == "r0@a"
    assert G.inv("r1@a") == "r1@b"
    assert G.src("r1@a") == "a" and G.tgt("r1@a") == "b"


def test_unit_arrows_behave_as_identities():
    G = swap_groupoid((0.5, 0.5))
    e_a = G.unit_arrows["a"]
    assert G.compose(e_a, e_a) == e_a
    assert G.compose("r1@a", e_a) == "r1@a"
    assert G.compose(G.unit_arrows["b"], "r1@a") == "r1@a"


def _reference_symmetric_group(n):
    """S_n built product by product, each name joined digit by digit."""
    def name(p):
        return "".join(str(i) for i in p)

    perms = list(permutations(range(n)))
    mult = {
        (name(p), name(r)): name(tuple(p[r[i]] for i in range(n)))
        for p in perms
        for r in perms
    }
    inverses = {}
    for p in perms:
        ip = [0] * n
        for i, pi in enumerate(p):
            ip[pi] = i
        inverses[name(p)] = name(ip)
    return FiniteGroup(tuple(map(name, perms)), mult, name(range(n)), inverses)


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_equals_the_per_product_form(n):
    got, ref = symmetric_group(n), _reference_symmetric_group(n)
    assert got.elements == ref.elements
    assert got.identity == ref.identity
    assert list(got.mult.items()) == list(ref.mult.items())
    assert list(got.inverses.items()) == list(ref.inverses.items())


def test_symmetric_group_holds_no_cube_of_digits():
    # An (n!, n!, n) int64 product temporary alone is 24.9 MB at n = 6.
    tracemalloc.start()
    try:
        symmetric_group(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _reference_actions():
    """The builders' actions, each with its table as a dict built cell by cell."""
    s3, s4, z6 = _reference_symmetric_group(3), _reference_symmetric_group(4), cyclic_group(6)
    z6_mult = {(f"r{i}", f"r{j}"): f"r{(i + j) % 6}" for i in range(6) for j in range(6)}
    pairs = tuple(f"x{i}{j}" for i in range(4) for j in range(4) if i != j)
    return [
        (natural_permutation_action(n), {
            (p, f"x{i}"): f"x{int(p[i])}" for p in ref.elements for i in range(n)
        }) for n, ref in ((3, s3), (4, s4))
    ] + [
        (ordered_pair_action(4), {
            (p, x): f"x{p[int(x[1])]}{p[int(x[2])]}" for p in s4.elements for x in pairs
        }),
        (left_translation_action(z6), {
            (g, f"u{x}"): f"u{z6_mult[(g, x)]}" for g in z6.elements for x in z6.elements
        }),
        (left_translation_action(symmetric_group(3)), {
            (g, f"u{x}"): f"u{s3.mult[(g, x)]}" for g in s3.elements for x in s3.elements
        }),
        (cyclic_shift_action(6, copies=2), {
            (f"r{k}", f"x{b}_{i}"): f"x{b}_{(i + k) % 6}"
            for k in range(6) for b in range(2) for i in range(6)
        }),
        (trivial_action(s3, ("a", "b"), (0.5, 0.5)), {
            (g, x): x for g in s3.elements for x in ("a", "b")
        }),
    ]


def _assert_same_table(view, ref):
    assert list(view.items()) == list(ref.items())  # the same cells, in the same order
    assert len(view) == len(ref) and dict(view) == ref and view == ref
    key = next(iter(ref))
    assert key in view and (key[0], "zz") not in view and "abc" not in view
    with pytest.raises(KeyError):
        view[(key[0], "zz")]


@pytest.mark.parametrize("n", range(2, 9))
def test_cyclic_group_table_equals_the_per_cell_dict(n):
    ref = {(f"r{i}", f"r{j}"): f"r{(i + j) % n}" for i in range(n) for j in range(n)}
    _assert_same_table(cyclic_group(n).mult, ref)


@pytest.mark.parametrize("n", [3, 4])
def test_symmetric_group_table_equals_the_per_cell_dict(n):
    got, ref = symmetric_group(n), _reference_symmetric_group(n)
    _assert_same_table(got.mult, ref.mult)
    assert got.mult == symmetric_group(n).mult  # two views over equal tables
    assert got.mult != symmetric_group(n - 1).mult


@pytest.mark.parametrize("i", range(7), ids=[
    "natural-S3", "natural-S4", "pairs-S4", "left-Z6", "left-S3", "shift-6x2", "trivial",
])
def test_builder_action_equals_the_per_cell_dict(i):
    spec, ref = _reference_actions()[i]
    _assert_same_table(spec.action, ref)
    # the dict reads to the table the view holds, with the same groupoid
    by_dict = ActionGroupoidSpec(spec.group, spec.units, spec.mu, ref)
    assert np.array_equal(by_dict.table, spec.table)
    assert build_action_groupoid(by_dict)._pairs[2].tolist() == (
        build_action_groupoid(spec)._pairs[2].tolist()
    )


def _reference_tables(spec):
    """Arrows, inverse and composition built entry by entry from the string dicts."""
    group, act = spec.group, spec.action

    def aid(g, x):
        return f"{g}@{x}"

    arrows = [Arrow(aid(g, x), x, act[(g, x)]) for g in group.elements for x in spec.units]
    inverse = {
        aid(g, x): aid(group.inverses[g], act[(g, x)])
        for g in group.elements
        for x in spec.units
    }
    composition = {}
    for g in group.elements:
        for x in spec.units:
            for h in group.elements:
                composition[(aid(h, act[(g, x)]), aid(g, x))] = aid(group.mult[(h, g)], x)
    return arrows, inverse, composition


BUILD_CATALOG = [
    cyclic_shift_action(5),
    cyclic_shift_action(3, copies=4),
    natural_permutation_action(3),
    natural_permutation_action(4),
    left_translation_action(cyclic_group(1)),
    left_translation_action(cyclic_group(4)),
    left_translation_action(symmetric_group(3)),
    left_translation_action(symmetric_group(4)),
    ordered_pair_action(3),
    trivial_action(symmetric_group(3), ("a", "b"), (0.5, 0.5)),
]


@pytest.mark.parametrize("spec", BUILD_CATALOG)
def test_action_groupoid_tables_equal_the_per_pair_form(spec):
    G = build_action_groupoid(spec)
    arrows, inverse, composition = _reference_tables(spec)
    assert list(G.arrows) == arrows
    assert list(G.inverse.items()) == list(inverse.items())
    assert list(G.composition.items()) == list(composition.items())
    # every composite key and value is an arrow's own id string
    own = {a.id: a.id for a in G.arrows}
    assert all(
        h is own[h] and g is own[g] and hg is own[hg]
        for (h, g), hg in G.composition.items()
    )


@pytest.mark.parametrize("units", [(0, 1), (("a", "b"), ("c", "d"))])
def test_non_string_unit_names_are_rejected(units):
    spec = trivial_action(cyclic_group(2), units, (0.5, 0.5))
    with pytest.raises(InvalidGroupoid, match="^unit ids must be nonempty strings$"):
        build_action_groupoid(spec)


IDENTITY_CATALOG = [
    cyclic_shift_action(5),
    natural_permutation_action(3),
    natural_permutation_action(4),
    left_translation_action(cyclic_group(4)),
    left_translation_action(symmetric_group(3)),
    ordered_pair_action(3),
    cyclic_shift_action(3, copies=4),
    trivial_action(cyclic_group(3), ("a", "b"), (0.5, 0.5)),
    trivial_action(symmetric_group(3), ("a",), (1.0,)),
]


@pytest.mark.parametrize("spec", IDENTITY_CATALOG)
def test_derived_identities_are_the_group_identity(spec):
    G = build_action_groupoid(spec)
    assert G.unit_arrows == {x: f"{spec.group.identity}@{x}" for x in spec.units}
    R = restrict(G, spec.units[::2])
    assert R.unit_arrows == {x: G.unit_arrows[x] for x in R.units}


ORBIT_CATALOG = [
    natural_permutation_action(3),  # one orbit
    cyclic_shift_action(3, copies=2),  # two orbits
    trivial_action(cyclic_group(2), ("a", "b", "c"), uniform_mu(3)),  # three
    cyclic_shift_action(2, copies=16),  # sixteen
]


def _reaches_every_positive_unit(G):
    """Brute force: walk the arrows both ways from the first positive unit."""
    positive = set(G.positive_units)
    seen, todo = set(), [G.positive_units[0]]
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            todo += [a.tgt for a in G.arrows if a.src == x]
            todo += [a.src for a in G.arrows if a.tgt == x]
    return positive <= seen


@settings(derandomize=True, deadline=None, max_examples=200)
@given(k=st.integers(0, len(ORBIT_CATALOG) - 1), bits=st.integers(1, 2**32 - 1))
@example(k=2, bits=0b001)  # b and c: null-mass units alone in their orbits
def test_ergodicity_matches_brute_force_reachability(k, bits):
    spec = ORBIT_CATALOG[k]
    support = [(bits >> i) & 1 for i in range(len(spec.units))]
    assume(any(support))
    mu = tuple(b / sum(support) for b in support)
    G = build_action_groupoid(ActionGroupoidSpec(spec.group, spec.units, mu, spec.action))
    assert check_ergodic(G) == _reaches_every_positive_unit(G)


def test_composition_domain_is_exact():
    G = swap_groupoid((0.5, 0.5))
    with pytest.raises(InvalidGroupoid):
        # r1@b ends at a, so it cannot follow r0@b (which ends at b)
        G.compose("r0@b", "r1@b")


def test_invariance_trio():
    assert check_invariance(swap_groupoid((0.5, 0.5))) == "invariant"
    assert check_invariance(swap_groupoid((1 / 3, 2 / 3))) == "quasi_invariant"
    assert check_invariance(swap_groupoid((0.0, 1.0))) == "neither"


def test_ergodicity():
    assert check_ergodic(swap_groupoid((0.5, 0.5)))
    assert check_ergodic(swap_groupoid((0.0, 1.0)))  # only one positive unit
    # trivial action never mixes two positive units
    G = build_action_groupoid(
        trivial_action(cyclic_group(2), ("a", "b"), (0.5, 0.5))
    )
    assert not check_ergodic(G)
    # natural S3 action is transitive, hence ergodic
    assert check_ergodic(build_action_groupoid(natural_permutation_action(3)))


def test_nu_identity_exact():
    G = swap_groupoid((1 / 3, 2 / 3))
    rng = np.random.default_rng(23)
    ids = sorted(a.id for a in G.arrows)
    for _ in range(50):
        k = int(rng.integers(0, len(ids) + 1))
        subset = list(rng.choice(ids, size=k, replace=False))
        assert nu_of(G, subset) == nu_by_fiber_count(G, subset)


def test_nu_values():
    G = swap_groupoid((1 / 3, 2 / 3))
    # nu(E) integrates the target-unit mass
    assert nu_of(G, ["r1@a"]) == pytest.approx(2 / 3)  # target b
    assert nu_of(G, ["r1@b"]) == pytest.approx(1 / 3)  # target a
    assert nu_of(G, [a.id for a in G.arrows]) == pytest.approx(2.0)


def test_mu_must_be_probability():
    with pytest.raises(InvalidGroupoid):
        swap_groupoid((0.5, 0.6))
    with pytest.raises(InvalidGroupoid):
        swap_groupoid((-0.1, 1.1))


Z2 = cyclic_group(2)


@pytest.mark.parametrize("call, error, message", [
    (lambda G: FiniteMeasuredGroupoid(G.units, (1.0,), G.arrows, G.inverse, G.composition),
     InvalidGroupoid, "mu must assign one weight per unit"),
    (lambda G: FiniteMeasuredGroupoid(
        G.units, G.mu, (*G.arrows, Arrow("", "a", "a")), G.inverse, G.composition
    ), InvalidGroupoid, "arrow id '' must be a nonempty string"),
    (lambda G: G.arrow("zz"), InvalidGroupoid, "unknown arrow id 'zz'"),
    (lambda G: G.unit_weight("zz"), UnknownUnit, "unknown unit 'zz'"),
    (lambda G: G.source_fiber("zz"), UnknownUnit, "unknown unit 'zz'"),
    (lambda G: G.target_fiber("zz"), UnknownUnit, "unknown unit 'zz'"),
    (lambda G: _validate_group(FiniteGroup(("r0", "r0"), Z2.mult, "r0", Z2.inverses)),
     InvalidAction, "duplicate group elements"),
    (lambda G: _validate_group(FiniteGroup(Z2.elements, Z2.mult, "zz", Z2.inverses)),
     InvalidAction, "group identity is not an element"),
    (lambda G: cyclic_group(0), InvalidAction, "cyclic group order must be positive"),
    (lambda G: symmetric_group(10), InvalidAction, "symmetric group supported for 1 <= n <= 9"),
], ids=["mu-length", "empty-arrow-id", "arrow", "unit_weight", "source_fiber",
        "target_fiber", "duplicate-elements", "identity-not-an-element", "cyclic-0",
        "symmetric-10"])
def test_bad_arguments_are_rejected_by_type_and_message(call, error, message):
    with pytest.raises(UnitarizerError) as exc:
        call(swap_groupoid((0.5, 0.5)))
    assert type(exc.value) is error and str(exc.value) == message


def test_action_validation():
    bad = dict(SWAP)
    bad[("r1", "a")] = "a"  # breaks bijectivity/compatibility
    with pytest.raises(InvalidAction):
        build_action_groupoid(
            ActionGroupoidSpec(cyclic_group(2), ("a", "b"), (0.5, 0.5), bad)
        )
    with pytest.raises(InvalidAction):
        # identity must act trivially
        twisted = {
            ("r0", "a"): "b",
            ("r0", "b"): "a",
            ("r1", "a"): "b",
            ("r1", "b"): "a",
        }
        build_action_groupoid(
            ActionGroupoidSpec(cyclic_group(2), ("a", "b"), (0.5, 0.5), twisted)
        )


def test_at_sign_reserved_in_names():
    with pytest.raises(InvalidAction):
        build_action_groupoid(
            ActionGroupoidSpec(cyclic_group(2), ("a@x", "b"), (0.5, 0.5), {
                ("r0", "a@x"): "a@x", ("r0", "b"): "b",
                ("r1", "a@x"): "b", ("r1", "b"): "a@x",
            })
        )


def test_explicit_groupoid_rejects_broken_tables():
    # two loops on one unit with a composition table that drops one pair
    arrows = (Arrow("e", "x", "x"), Arrow("s", "x", "x"))
    inverse = {"e": "e", "s": "s"}
    comp = {
        ("e", "e"): "e",
        ("e", "s"): "s",
        ("s", "e"): "s",
        # ("s", "s") missing
    }
    with pytest.raises(InvalidGroupoid):
        FiniteMeasuredGroupoid(("x",), (1.0,), arrows, inverse, comp)


@pytest.mark.parametrize("bad_key", [("r0@ur0", "r1@ur1", "x"), "ab"], ids=["3-tuple", "string"])
def test_dict_constructor_names_a_key_that_is_not_a_pair(bad_key):
    # A 3-tuple key or a bare string would be unpacked into the entries and
    # shift every later id; the key is named instead.
    G = build_action_groupoid(left_translation_action(cyclic_group(2)))
    items = list(G.composition.items())
    items[1] = (bad_key, items[1][1])
    with pytest.raises(InvalidGroupoid) as exc:
        FiniteMeasuredGroupoid(G.units, G.mu, G.arrows, G.inverse, dict(items))
    assert str(exc.value) == f"composition key {bad_key!r} is not an (h, g) pair"


def test_explicit_groupoid_rejects_broken_associativity():
    # Z/3 loop with one corrupted composition entry
    arrows = tuple(Arrow(f"g{k}", "x", "x") for k in range(3))
    inverse = {"g0": "g0", "g1": "g2", "g2": "g1"}
    comp = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % 3}" for i in range(3) for j in range(3)
    }
    comp[("g1", "g1")] = "g0"  # should be g2
    with pytest.raises(InvalidGroupoid) as exc:
        FiniteMeasuredGroupoid(("x",), (1.0,), arrows, inverse, comp)
    # the failing triple (or law) is named in the message
    assert "g1" in str(exc.value)


def test_restrict_renormalizes_and_validates():
    G = build_action_groupoid(natural_permutation_action(3))
    R = restrict(G, ["x0", "x1"])
    assert R.units == ("x0", "x1")
    assert math.fsum(R.mu) == pytest.approx(1.0, abs=1e-12)
    assert check_axioms(R)
    # arrows staying inside the restricted units: permutations with g({0,1}) ⊆ {0,1} on the sources
    assert all(R.src(a.id) in ("x0", "x1") and R.tgt(a.id) in ("x0", "x1") for a in R.arrows)
    with pytest.raises(EmptyRestriction):
        restrict(G, [])
    with pytest.raises(UnknownUnit):
        restrict(G, ["nope"])
    G0 = swap_groupoid((0.0, 1.0))
    with pytest.raises(ZeroMassRestriction):
        restrict(G0, ["a"])


def test_restrict_lists_the_inverse_in_arrow_order_under_any_hash_seed():
    code = (
        "from unitarizer.groupoid import build_action_groupoid, natural_permutation_action,"
        " restrict\n"
        "R = restrict(build_action_groupoid(natural_permutation_action(3)), ['x0', 'x1'])\n"
        "assert list(R.inverse) == [a.id for a in R.arrows]\n"
        "print(list(R.inverse))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outs) == 1


def test_left_translation_action_is_free_and_transitive():
    spec = left_translation_action(symmetric_group(3))
    G = build_action_groupoid(spec)
    assert len(G.units) == 6
    assert len(G.arrows) == 36
    assert check_ergodic(G)


def test_ordered_pair_action_units():
    spec = ordered_pair_action(4)
    assert len(spec.units) == 12
    G = build_action_groupoid(spec)
    assert len(G.arrows) == 24 * 12


def test_cyclic_shift_action_copies():
    spec = cyclic_shift_action(2, copies=16)
    assert len(spec.units) == 32
    G = build_action_groupoid(spec)
    assert len(G.arrows) == 64
    assert not check_ergodic(G)  # blocks do not mix


def test_uniform_mu():
    assert uniform_mu(4) == (0.25, 0.25, 0.25, 0.25)
    assert math.fsum(uniform_mu(7)) == pytest.approx(1.0, abs=0)


def _with_composition(G, composition):
    return FiniteMeasuredGroupoid(G.units, G.mu, G.arrows, G.inverse, composition)


def _reference_first_defect(G, comp):
    """First defect of ``comp`` over G's arrows, checked pair by pair.

    For tables whose entries are known, composable, complete and keep their
    endpoints, this is the order of the exhaustive validator: derived
    identities, inverse laws, then associativity by b, then c, then a, each
    by id.  None when every law holds.
    """
    ids = sorted(a.id for a in G.arrows)
    src = {a.id: a.src for a in G.arrows}
    tgt = {a.id: a.tgt for a in G.arrows}

    def out(x):
        return [g for g in ids if src[g] == x]

    def into(x):
        return [g for g in ids if tgt[g] == x]

    unit = {}
    for x in G.units:
        unit[x] = next((
            e for e in out(x)
            if tgt[e] == x
            and all(comp[(g, e)] == g for g in out(x))
            and all(comp[(e, g)] == g for g in into(x))
        ), None)
        if unit[x] is None:
            return f"no identity arrow found at unit {x!r}"
    for g in ids:
        gi = G.inverse[g]
        if comp[(gi, g)] != unit[src[g]]:
            return f"inverse law fails at {g!r}: inv(g) . g != 1_src"
        if comp[(g, gi)] != unit[tgt[g]]:
            return f"inverse law fails at {g!r}: g . inv(g) != 1_tgt"
    for b in ids:
        for c in into(src[b]):
            for a in out(tgt[b]):
                if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]:
                    return f"associativity fails on triple ({a!r}, {b!r}, {c!r})"
    return None


def test_every_corrupted_composition_entry_is_rejected():
    G = build_action_groupoid(natural_permutation_action(3))
    assert len(G.composition) == 108
    assert _reference_first_defect(G, G.composition) is None
    for (h, g), c in G.composition.items():
        # S3 has exactly two permutations sending a given point to a given point
        (other,) = [
            a.id for a in G.arrows
            if a.id != c and (a.src, a.tgt) == (G.src(c), G.tgt(c))
        ]
        comp = dict(G.composition)
        comp[(h, g)] = other
        with pytest.raises(InvalidGroupoid) as exc:
            _with_composition(G, comp)
        assert str(exc.value) == _reference_first_defect(G, comp)


def _reference_group_defect(group):
    """First defect of a complete group table, checked element by element.

    Identity law, inverse and inverse law per element in order, then
    associativity by a, then b, then c.  None when every law holds.
    """
    elems, mult, e = group.elements, group.mult, group.identity
    for a in elems:
        if mult[(e, a)] != a or mult[(a, e)] != a:
            return f"identity law fails at {a!r}"
        ai = group.inverses.get(a)
        if ai not in elems:
            return f"missing inverse for {a!r}"
        if mult[(a, ai)] != e or mult[(ai, a)] != e:
            return f"inverse law fails at {a!r}"
    for a in elems:
        for b in elems:
            for c in elems:
                if mult[(mult[(a, b)], c)] != mult[(a, mult[(b, c)])]:
                    return f"associativity fails on triple ({a!r}, {b!r}, {c!r})"
    return None


def test_every_corrupted_group_table_cell_is_rejected():
    group = symmetric_group(3)
    assert _reference_group_defect(group) is None
    for cell, ab in group.mult.items():
        for other in group.elements:
            if other == ab:
                continue
            mult = dict(group.mult)
            mult[cell] = other
            bad = FiniteGroup(group.elements, mult, group.identity, group.inverses)
            # a trivial action is compatible with any table, so only the
            # group check can reject it
            with pytest.raises(InvalidAction) as exc:
                build_action_groupoid(trivial_action(bad, ("x",), (1.0,)))
            assert str(exc.value) == _reference_group_defect(bad)


def _reference_action_defect(spec):
    """First defect of a complete action table, checked cell by cell.

    The identity must fix every unit in order; then compatibility by a,
    then b, then x.  None when both hold.
    """
    group, act = spec.group, spec.action
    for x in spec.units:
        if act[(group.identity, x)] != x:
            return f"identity does not fix unit {x!r}"
    for a in group.elements:
        for b in group.elements:
            for x in spec.units:
                if act[(group.mult[(a, b)], x)] != act[(a, act[(b, x)])]:
                    return f"action is not compatible on ({a!r}, {b!r}, {x!r})"
    return None


@pytest.mark.parametrize("spec", [natural_permutation_action(3), cyclic_shift_action(3, copies=2)])
def test_every_corrupted_action_cell_is_named_exactly(spec):
    assert _reference_action_defect(spec) is None
    for cell, y in spec.action.items():
        for other in spec.units:
            if other == y:
                continue
            act = dict(spec.action)
            act[cell] = other
            bad = ActionGroupoidSpec(spec.group, spec.units, spec.mu, act)
            with pytest.raises(InvalidAction) as exc:
                build_action_groupoid(bad)
            assert str(exc.value) == _reference_action_defect(bad)


def test_action_spec_with_a_repeated_unit_is_rejected():
    # Every (element, unit) cell is filled, so the table reader passes the
    # repeated unit on to the groupoid's own check.
    spec = natural_permutation_action(3)
    bad = ActionGroupoidSpec(spec.group, spec.units + ("x0",), spec.mu + (0.0,), spec.action)
    with pytest.raises(InvalidGroupoid) as exc:
        build_action_groupoid(bad)
    assert str(exc.value) == "duplicate unit ids"


# A loop (identity and two-sided inverses, not associative) of order 6 in
# which (ab)c == a(bc) for all a, c holds for b in {l0, l1} only, so a proof
# from the first generator l1 alone would accept it.
LOOP6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 5, 4, 3, 2],
    [2, 4, 0, 1, 5, 3],
    [3, 5, 4, 0, 2, 1],
    [4, 2, 3, 5, 1, 0],
    [5, 3, 1, 2, 0, 4],
]


def _loop6():
    elems = tuple(f"l{i}" for i in range(6))
    mult = {(elems[i], elems[j]): elems[k] for i, row in enumerate(LOOP6) for j, k in enumerate(row)}
    inverses = {elems[i]: elems[row.index(0)] for i, row in enumerate(LOOP6)}
    return FiniteGroup(elems, mult, "l0", inverses)


def test_tables_associative_on_a_proper_subloop_are_rejected():
    # the group table itself
    loop = _loop6()
    with pytest.raises(InvalidAction) as exc:
        build_action_groupoid(trivial_action(loop, ("x",), (1.0,)))
    assert str(exc.value) == _reference_group_defect(loop)

    # the pair groupoid over the loop: an arrow k: x -> y per label and pair
    units = ("x0", "x1")
    arrows = [Arrow(f"{k}:{x}>{y}", x, y) for k in loop.elements for x in units for y in units]
    inverse = {a.id: f"{loop.inverses[a.id[:2]]}:{a.tgt}>{a.src}" for a in arrows}
    comp = {
        (h.id, g.id): f"{loop.mult[(h.id[:2], g.id[:2])]}:{g.src}>{h.tgt}"
        for h in arrows for g in arrows if h.src == g.tgt
    }
    with pytest.raises(InvalidGroupoid) as exc:
        FiniteMeasuredGroupoid(units, (0.5, 0.5), arrows, inverse, comp)
    G = SimpleNamespace(units=units, arrows=arrows, inverse=inverse)
    assert str(exc.value) == _reference_first_defect(G, comp)

    # S3 acting on two units so that (ab).x == a.(b.x) holds for b in
    # {012, 021} only: 021 is the first generator of S3
    s3 = symmetric_group(3)
    image = {"012": "01", "021": "01", "102": "10", "120": "10", "201": "11", "210": "11"}
    act = {(g, f"u{i}"): f"u{image[g][i]}" for g in s3.elements for i in range(2)}
    spec = ActionGroupoidSpec(s3, ("u0", "u1"), (0.5, 0.5), act)
    with pytest.raises(InvalidAction) as exc:
        build_action_groupoid(spec)
    assert str(exc.value) == _reference_action_defect(spec)


def test_s5_natural_action_at_benchmark_scale():
    G = build_action_groupoid(natural_permutation_action(5))
    assert len(G.arrows) == 600
    assert len(G.composition) == 72_000
    assert check_axioms(G)
    G2 = groupoid_from_json(groupoid_to_json(G))
    assert G2.composition == G.composition
    assert G2.inverse == G.inverse
    assert G2.unit_arrows == G.unit_arrows

    # Corrupt (h, z) for the last arrow z in id order; h is neither a unit
    # nor inverse to z, so only associativity can catch it.
    z = max(G.inverse)
    h = next(
        a for a in G.source_fiber(G.tgt(z))
        if a not in G.unit_arrows.values() and a != G.inv(z)
    )
    right = G.compose(h, z)
    wrong = next(
        a.id for a in G.arrows
        if a.id != right and (a.src, a.tgt) == (G.src(right), G.tgt(right))
    )
    comp = dict(G.composition)
    comp[(h, z)] = wrong

    # Only triples that use the entry can fail.  The validator names the
    # first failing one, ordered by b, then c, then a, each by id.
    def fails(a, b, c):
        return comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]

    touching = (
        [(h, z, c) for c in G.target_fiber(G.src(z))]
        + [(a, h, z) for a in G.source_fiber(G.tgt(h))]
        + [(h, b, G.compose(G.inv(b), z)) for b in G.target_fiber(G.src(h))]
        + [(G.compose(h, G.inv(b)), b, z) for b in G.source_fiber(G.src(h))]
    )
    a, b, c = min((t for t in touching if fails(*t)), key=lambda t: (t[1], t[2], t[0]))
    with pytest.raises(InvalidGroupoid) as exc:
        _with_composition(G, comp)
    assert str(exc.value) == f"associativity fails on triple ({a!r}, {b!r}, {c!r})"


# The groupoids of acceptance criterion 6, and one from each other entry:
# the JSON parser, restriction and the dict constructor.
CHECK_CATALOG = [
    lambda: build_action_groupoid(left_translation_action(cyclic_group(2))),
    lambda: build_action_groupoid(left_translation_action(cyclic_group(3))),
    lambda: build_action_groupoid(left_translation_action(cyclic_group(5))),
    lambda: build_action_groupoid(natural_permutation_action(3)),
    lambda: build_action_groupoid(natural_permutation_action(4)),
    lambda: build_action_groupoid(ordered_pair_action(3)),
    lambda: build_action_groupoid(cyclic_shift_action(4, copies=2)),
    lambda: build_action_groupoid(left_translation_action(symmetric_group(3))),
    lambda: build_action_groupoid(trivial_action(cyclic_group(2), ("a", "b"), (0.25, 0.75))),
    lambda: groupoid_from_json(groupoid_to_json(build_action_groupoid(natural_permutation_action(5)))),
    lambda: restrict(build_action_groupoid(ordered_pair_action(3)), ["x01", "x10", "x12", "x21"]),
    lambda: _swap_table({}),
]
CHECK_IDS = [
    "Z2-self", "Z3-self", "Z5-self", "S3-natural", "S4-natural", "S3-pairs", "Z4-shift-x2",
    "S3-self", "Z2-trivial", "S5-natural-json", "S3-pairs-restricted", "swap-dict",
]


@pytest.mark.parametrize("make", CHECK_CATALOG, ids=CHECK_IDS)
def test_check_axioms_scans_every_middle_arrow(make):
    G = make()
    visited = []
    middle = G._middle_fails
    G._middle_fails = lambda b: visited.append(b) or middle(b)
    assert check_axioms(G)
    assert visited == list(range(len(G.arrows)))
    assert "composition" not in vars(G)  # read from the index triples, not the dict


def _closure(G, arrows):
    """Mask of the arrows that products of ``arrows`` reach in G's own table."""
    have = np.zeros(len(G._ids), dtype=bool)
    have[arrows] = True
    while True:
        a = np.flatnonzero(have)
        h, g = (m.ravel() for m in np.meshgrid(a, a, indexing="ij"))
        ok = G._arrow_src[h] == G._arrow_tgt[g]
        new = G._compose_ix(h[ok], g[ok])
        if have[new].all():
            return have
        have[new] = True


@pytest.mark.parametrize("make", CHECK_CATALOG, ids=CHECK_IDS)
def test_light_test_checks_tree_arrows_their_inverses_and_generators(make):
    G = make()
    middles = []
    middle = G._middle_fails
    G._middle_fails = lambda b: middles.append(int(b)) or middle(b)
    assert G._light_test()
    s = G._arrow_src
    checked = set(middles)
    # Per orbit with first unit r, some arrow y -> r of every other unit y
    # is checked together with its inverse.
    for r in range(len(G.units)):
        into = G._into[r]
        if s[into].min() < r:
            continue  # r is not the first unit of its orbit
        for y in set(s[into].tolist()) - {r}:
            assert any(b in checked and G._inv[b] in checked for b in into[s[into] == y])
    # The checked arrows generate every arrow under the table's own composition.
    assert _closure(G, middles).all()


def test_light_test_agrees_with_the_exhaustive_scan(monkeypatch):
    # Tables with one to three composites replaced by arrows with the same
    # endpoints.  Those that pass the identity and inverse laws are built
    # with the scan switched off, so construction ends after Light's test.
    scan = FiniteMeasuredGroupoid._scan_associativity
    monkeypatch.setattr(FiniteMeasuredGroupoid, "_scan_associativity", lambda G: None)
    bases = [build_action_groupoid(spec) for spec in (
        natural_permutation_action(3),
        natural_permutation_action(4),
        trivial_action(cyclic_group(3), ("a", "b"), (0.5, 0.5)),
        trivial_action(symmetric_group(3), ("a",), (1.0,)),
    )]
    rng = np.random.default_rng(17)
    verdicts = []
    for _ in range(1000):
        G = bases[rng.integers(len(bases))]
        s, t = G._arrow_src, G._arrow_tgt
        ih, ig, ic = G._pairs
        ic = ic.copy()
        for k in rng.integers(ic.size, size=rng.integers(1, 4)):
            same = np.flatnonzero((s == s[ic[k]]) & (t == t[ic[k]]))
            ic[k] = same[rng.integers(same.size)]
        pairs = (ih, ig, ic)
        try:
            H = FiniteMeasuredGroupoid._from_triples(G.units, G.mu, G.arrows, G.inverse, pairs)
        except InvalidGroupoid:
            continue  # an identity or inverse law fails
        try:
            scan(H)
            associative = True
        except InvalidGroupoid:
            associative = False
        assert H._light_test() == associative
        verdicts.append(associative)
    assert len(verdicts) > 400 and 100 < sum(verdicts) < len(verdicts) - 100


def _swap_table(edits, arrows=None, inverse=None):
    """Swap-groupoid tables with ``edits`` applied to the composition.

    An edit maps a pair to its new composite, or to None to drop the pair.
    ``arrows`` reorders the input arrows; ``inverse`` replaces the inverse
    table.
    """
    G = swap_groupoid((0.5, 0.5))
    comp = dict(G.composition)
    for pair, c in edits.items():
        if c is None:
            del comp[pair]
        else:
            comp[pair] = c
    inverse = G.inverse if inverse is None else inverse
    return FiniteMeasuredGroupoid(G.units, G.mu, arrows or G.arrows, inverse, comp)


# r0@x is the loop at x; r1@a runs a -> b and r1@b runs b -> a.
@pytest.mark.parametrize("edits, in_derivation, arrows, message", [
    ({("zz", "r0@a"): "r0@a"}, False, None,
     "composition ('zz', 'r0@a') references unknown arrows"),
    ({("r0@b", "r1@b"): "r1@b"}, False, None,
     "composition defined on non-composable pair ('r0@b', 'r1@b')"),
    ({("r1@b", "r1@a"): "zz"}, False, None,
     "composite of ('r1@b', 'r1@a') is an unknown arrow 'zz'"),
    ({("r1@b", "r1@a"): "r0@b"}, False, None,
     "composite 'r0@b' of ('r1@b', 'r1@a') has wrong endpoints"),
    ({("r1@b", "r1@a"): None}, False, None,
     "composable pair ('r1@b', 'r1@a') is missing"),
    ({("r1@a", "r0@a"): None}, True, None,
     "no identity arrow found at unit 'a'"),
    # Unit arrows are derived before any composition entry is checked.
    ({("r1@b", "r1@a"): "r0@b", ("r1@b", "r0@b"): None}, True, None,
     "no identity arrow found at unit 'b'"),
    # A missing pair is named by its right factor in input-arrow order, so
    # r1@a (a -> b) before r1@b, although a's block of the table comes first.
    ({("r1@a", "r1@b"): None, ("r1@b", "r1@a"): None}, False, None,
     "composable pair ('r1@b', 'r1@a') is missing"),
    ({("r1@a", "r1@b"): None, ("r1@b", "r1@a"): None}, False,
     (Arrow("r1@b", "b", "a"), Arrow("r0@a", "a", "a"),
      Arrow("r0@b", "b", "b"), Arrow("r1@a", "a", "b")),
     "composable pair ('r1@a', 'r1@b') is missing"),
])
def test_composition_defects_are_named_exactly(edits, in_derivation, arrows, message):
    with pytest.raises(InvalidGroupoid) as exc:
        _swap_table(edits, arrows)
    assert str(exc.value) == message
    # Identities are derived before the inverse table is checked, so only a
    # defect found in the derivation survives an empty inverse table.
    with pytest.raises(InvalidGroupoid) as exc:
        _swap_table(edits, arrows, inverse={})
    assert (str(exc.value) == message) == in_derivation
