import copy
import json
import os
from unittest import mock

import numpy as np
import pytest

from unitarizer import serialization
from unitarizer.errors import InvalidAction, InvalidGroupoid, ParseError, UnitarizerError
from unitarizer.groupoid import (
    ActionGroupoidSpec,
    Arrow,
    FiniteMeasuredGroupoid,
    build_action_groupoid,
    cyclic_group,
    cyclic_shift_action,
    left_translation_action,
    natural_permutation_action,
    ordered_pair_action,
    restrict,
    symmetric_group,
    trivial_action,
)
from unitarizer.linalg import l2_norm
from unitarizer.representation import (
    Representation,
    generate_instance,
    make_representation,
    permutation_base_rep,
    unitarize,
)
from unitarizer.serialization import (
    _representation_value,
    _unitarization_value,
    action_spec_from_json,
    action_spec_to_json,
    groupoid_from_json,
    groupoid_to_json,
    load_groupoid,
    load_json,
    load_representation,
    matrix_from_json,
    matrix_to_json,
    psi_from_json,
    representation_from_json,
    representation_to_json,
    save_json,
    unitarization_to_json,
)

SWAP_SPEC = ActionGroupoidSpec(
    cyclic_group(2),
    ("a", "b"),
    (0.5, 0.5),
    {("r0", "a"): "a", ("r0", "b"): "b", ("r1", "a"): "b", ("r1", "b"): "a"},
)


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(m, again)


def test_matrix_to_json_bytes_equal_the_per_entry_form():
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(50)]
    mats += [
        np.array([[-0.0, 5e-324], [1e300, complex(-1e-310, -0.0)]]),
        np.eye(3, dtype=int),
        [[complex(0.0, -0.0)]],
    ]
    for m in mats:
        a = np.asarray(m, dtype=np.complex128)
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in a]
        want = json.dumps({"dim": a.shape[0], "rows": rows})
        assert json.dumps(matrix_to_json(m)) == want


@pytest.mark.parametrize("m", [[[1, 2], [3]], np.ones((2, 3))], ids=["ragged", "2x3"])
def test_matrix_to_json_names_a_matrix_that_is_not_square(m):
    with pytest.raises(ParseError, match="^matrix: not square$"):
        matrix_to_json(m)


def test_matrix_parser_rejects_ragged_rows():
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 2, "rows": [[[1, 0], [0, 0]], [[1, 0]]]})


def test_matrix_parser_rejects_non_finite():
    with pytest.raises(ParseError):
        matrix_from_json(
            {"dim": 1, "rows": [[[float("nan"), 0.0]]]}
        )
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 1, "rows": [[[float("inf"), 0.0]]]})
    with pytest.raises(ParseError, match="an entry is too large for a float"):
        matrix_from_json(json.loads('{"dim": 2, "rows": [[[1, 0], [0, 1%s]], [[0, 0], [1, 0]]]}' % ("0" * 400)))


def test_matrix_parser_rejects_malformed_entries():
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 1, "rows": [[[1.0]]]})  # not an [re, im] pair
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 1, "rows": [[["x", 0.0]]]})
    with pytest.raises(ParseError):
        matrix_from_json({"rows": [[[1.0, 0.0]]]})  # missing dim


def test_action_spec_round_trip():
    obj = action_spec_to_json(SWAP_SPEC)
    again = action_spec_from_json(obj)
    assert again == SWAP_SPEC


def _per_cell_spec_json(spec):
    """The JSON object of an action spec, read cell by cell through its Mappings."""
    grp = spec.group
    return {
        "kind": "action",
        "group": {
            "elements": list(grp.elements),
            "mult_table": {a: {b: grp.mult[(a, b)] for b in grp.elements} for a in grp.elements},
            "identity": grp.identity,
            "inverses": dict(grp.inverses),
        },
        "space": {"units": list(spec.units), "mu": [float(w) for w in spec.mu]},
        "action": {g: {x: spec.action[(g, x)] for x in spec.units} for g in grp.elements},
    }


@pytest.mark.parametrize("spec", [
    SWAP_SPEC,
    natural_permutation_action(4),
    ordered_pair_action(3),
    left_translation_action(symmetric_group(3)),
    cyclic_shift_action(4, copies=2),
    trivial_action(cyclic_group(3), ("a", "b"), (0.25, 0.75)),
], ids=["swap-dict", "natural-S4", "pairs-S3", "left-S3", "shift-4x2", "trivial-Z3"])
def test_action_spec_to_json_bytes_equal_the_per_cell_form(spec):
    assert json.dumps(action_spec_to_json(spec)) == json.dumps(_per_cell_spec_json(spec))
    assert action_spec_from_json(action_spec_to_json(spec)) == spec


def test_explicit_groupoid_round_trip():
    G = build_action_groupoid(SWAP_SPEC)
    obj = groupoid_to_json(G)
    assert obj["kind"] == "explicit"
    G2 = groupoid_from_json(obj)
    assert G2.units == G.units
    assert sorted(a.id for a in G2.arrows) == sorted(a.id for a in G.arrows)
    assert G2.composition == G.composition
    assert G2.inverse == G.inverse


def test_action_kind_json_loads_as_groupoid():
    obj = action_spec_to_json(SWAP_SPEC)
    G = groupoid_from_json(obj)
    assert len(G.arrows) == 4


def test_loader_rejects_axiom_violation_with_triple_in_message():
    G = build_action_groupoid(SWAP_SPEC)
    obj = groupoid_to_json(G)
    broken = json.loads(json.dumps(obj))
    # corrupt one composition entry: r1@b after r1@a is r0@a, claim r0@b
    fixed = []
    for h, g, c in broken["composition"]:
        if (h, g) == ("r1@b", "r1@a"):
            c = "r0@b"
        fixed.append([h, g, c])
    broken["composition"] = fixed
    with pytest.raises(InvalidGroupoid) as exc:
        groupoid_from_json(broken)
    assert "r1@" in str(exc.value)


@pytest.mark.parametrize("conflicting", [True, False])
def test_loader_rejects_duplicate_composition_entries(conflicting):
    obj = groupoid_to_json(build_action_groupoid(left_translation_action(cyclic_group(2))))
    assert len(obj["composition"]) == 8
    h, g, c = obj["composition"][3]
    wrong = next(a["id"] for a in obj["arrows"] if a["id"] != c)
    # the extra entry comes first, so a last-one-wins parse would keep the correct one
    obj["composition"].insert(3, [h, g, wrong if conflicting else c])
    with pytest.raises(ParseError) as exc:
        groupoid_from_json(obj)
    assert "duplicate" in str(exc.value)
    assert repr((h, g)) in str(exc.value)


def _reference_load(obj, where="groupoid"):
    """An explicit groupoid parsed entry by entry: the [h, g, hg] loop feeding
    the dict constructor.  Only the composition list is read with checks."""
    raw_comp = obj["composition"]
    comp = {}
    for k, triple in enumerate(raw_comp):
        if not (isinstance(triple, list) and len(triple) == 3):
            break
        h, g, c = triple
        if not (isinstance(h, str) and isinstance(g, str) and isinstance(c, str)):
            break
        comp[h, g] = c
    else:
        k = len(raw_comp)
    if len(comp) != k:  # a pair repeats before k: name its second occurrence
        seen = set()
        for j, (h, g, _) in enumerate(raw_comp):
            if (h, g) in seen:
                raise ParseError(f"{where}.composition[{j}]: duplicate entry for pair {(h, g)!r}")
            seen.add((h, g))
    if k != len(raw_comp):
        raise ParseError(f"{where}.composition[{k}]: expected [h, g, hg] strings")
    arrows = tuple(Arrow(a["id"], a["src"], a["tgt"]) for a in obj["arrows"])
    return FiniteMeasuredGroupoid(
        tuple(obj["units"]), tuple(obj["mu"]), arrows, dict(obj["inverse"]), comp
    )


def _load_outcome(load, obj):
    try:
        G = load(obj)
    except (ParseError, InvalidGroupoid) as exc:
        return type(exc).__name__, str(exc)
    return list(G.composition.items()), G.inverse, G.unit_arrows, G.arrows


LOAD_BASES = [
    groupoid_to_json(build_action_groupoid(spec))
    for spec in (SWAP_SPEC, natural_permutation_action(3), cyclic_shift_action(3, copies=2))
]
NOT_A_LIST = [None, "a@b", ("r0@a", "r0@a", "r0@a"), {"h": "r0@a", "g": "r0@a", "hg": "r0@a"}]
NOT_A_NAME = [5, None, True, 1.5, ["r0@a"], {"r0@a": 1}]


def _corrupted_loads(seed, count):
    """Explicit groupoid objects with one or two defects in the composition list.

    Defects: an unknown key or composite, a random key or composite (often
    not composable, or with wrong endpoints), a composite with the right
    endpoints (an associativity-breaking cell), a missing pair, a duplicate
    pair with the same or a random composite, an entry that is not a list
    or has the wrong length, and a non-string or unhashable element.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        obj = json.loads(json.dumps(LOAD_BASES[rng.integers(len(LOAD_BASES))]))
        comp, ids = obj["composition"], [a["id"] for a in obj["arrows"]]
        ends = {a["id"]: (a["src"], a["tgt"]) for a in obj["arrows"]}
        for _ in range(rng.integers(1, 3)):
            kind, k, i = rng.integers(9), rng.integers(len(comp)), rng.integers(3)
            t = comp[k]
            entry = type(t) is list and len(t) == 3
            if kind == 0 and entry:
                t[i] = "zz"
            elif kind == 1 and entry:
                t[i] = ids[rng.integers(len(ids))]
            elif kind == 2 and entry and type(t[2]) is str and t[2] in ends:
                same = [g for g in ids if ends[g] == ends[t[2]] and g != t[2]]
                t[2] = same[rng.integers(len(same))] if same else t[2]
            elif kind == 3:
                del comp[k]
            elif kind == 4 and entry:
                c = t[2] if rng.integers(2) else ids[rng.integers(len(ids))]
                comp.insert(rng.integers(len(comp) + 1), [t[0], t[1], c])
            elif kind == 5:
                comp[k] = NOT_A_LIST[rng.integers(len(NOT_A_LIST))]
            elif kind == 6 and entry:
                comp[k] = t[:2] if rng.integers(2) else t + [t[0]]
            elif kind == 7 and entry:
                t[i] = NOT_A_NAME[rng.integers(len(NOT_A_NAME))]
            elif kind == 8 and entry:
                comp[k], comp[-1] = comp[-1], comp[k]  # no defect: any order is valid
        yield obj


def test_load_path_matches_the_per_entry_parse():
    # Same exception type and message, or the same tables in the same order.
    for n, obj in enumerate(_corrupted_loads(0, 600)):
        assert _load_outcome(groupoid_from_json, obj) == _load_outcome(_reference_load, obj), n


def _mixed_loads(seed, count):
    """Corrupted loads with one well-typed content defect outside the list too.

    Defects: an arrow naming an unknown unit, a duplicate arrow id, an
    inverse naming an unknown arrow or one that is not an involution, and
    weights that do not sum to one.  The composition defects are drawn from
    seed 1 of ``_corrupted_loads``, the content defects from ``seed``.
    """
    rng = np.random.default_rng(seed)
    for obj in _corrupted_loads(1, count):
        arrows, inverse = obj["arrows"], obj["inverse"]
        kind, k, j = rng.integers(5), rng.integers(len(arrows)), rng.integers(len(arrows))
        g, h = arrows[k]["id"], arrows[j]["id"]
        if kind == 0:
            arrows[k]["src" if rng.integers(2) else "tgt"] = "nowhere"
        elif kind == 1:
            arrows[k]["id"] = h if h != g else arrows[k - 1]["id"]
        elif kind == 2:
            inverse[g] = "zz"
        elif kind == 3:
            inverse[g] = h if inverse[h] != g else g  # inv(inv(h)) != h either way
        else:
            obj["mu"][0] += 0.25
        yield obj


def test_parse_errors_in_the_list_win_over_content_errors():
    for n, obj in enumerate(_mixed_loads(2, 600)):
        assert _load_outcome(groupoid_from_json, obj) == _load_outcome(_reference_load, obj), n


def test_each_load_builds_at_most_one_groupoid(monkeypatch):
    builds = []
    setup = FiniteMeasuredGroupoid._setup
    monkeypatch.setattr(
        FiniteMeasuredGroupoid, "_setup", lambda G, *args: builds.append(1) or setup(G, *args)
    )
    for obj in (*_corrupted_loads(0, 600), *_mixed_loads(2, 600)):
        builds.clear()
        _load_outcome(groupoid_from_json, obj)
        assert len(builds) <= 1


def test_list_is_read_again_only_when_the_triples_can_hide_a_parse_error(monkeypatch):
    calls = []
    name = serialization._name_bad_entry
    monkeypatch.setattr(
        serialization, "_name_bad_entry", lambda comp, where: calls.append(1) or name(comp, where)
    )
    obj = groupoid_to_json(build_action_groupoid(natural_permutation_action(3)))
    h, g, c = obj["composition"][5]
    missing = copy.deepcopy(obj)
    del missing["composition"][5]
    with pytest.raises(InvalidGroupoid):
        groupoid_from_json(missing)
    assert calls == []
    duplicate = copy.deepcopy(obj)
    duplicate["composition"].append([h, g, c])
    with pytest.raises(ParseError, match="duplicate entry"):
        groupoid_from_json(duplicate)
    assert calls == [1]
    # The parser maps the list before the build, so a build that fails
    # before it reads the triples is still judged by them: clean triples
    # hide no parse error, and the list is not read again.
    unweighted = copy.deepcopy(missing)
    unweighted["mu"][0] += 0.25
    with pytest.raises(InvalidGroupoid, match="mu sums to"):
        groupoid_from_json(unweighted)
    assert calls == [1]
    # A non-string id maps to -1: the list is read once, and its parse error wins.
    calls.clear()
    typed = copy.deepcopy(unweighted)
    typed["composition"][2][1] = 7
    with pytest.raises(ParseError, match=r"composition\[2\]: expected \[h, g, hg\] strings"):
        groupoid_from_json(typed)
    assert calls == [1]
    # An unknown id string also maps to -1: one read finds no parse error.
    calls.clear()
    unknown = copy.deepcopy(unweighted)
    unknown["composition"][2][1] = "zz"
    with pytest.raises(InvalidGroupoid, match="mu sums to"):
        groupoid_from_json(unknown)
    assert calls == [1]


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["arrows"].__setitem__(1, "r0@b"), "groupoid.arrows[1]: expected an object"),
    (lambda o: o["arrows"][1].update(id=5), "groupoid.arrows[1]: id/src/tgt must be strings"),
], ids=["not-an-object", "id-not-a-string"])
def test_malformed_arrow_entries_are_parse_errors(edit, message):
    obj = groupoid_to_json(build_action_groupoid(SWAP_SPEC))
    edit(obj)
    with pytest.raises(ParseError) as exc:
        groupoid_from_json(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["action"]["r1"].update(c="a"),
     "action given on unknown element or unit ('r1', 'c')"),
    (lambda o: o["action"].update(zz={"a": "a", "b": "b"}),
     "action given on unknown element or unit ('zz', 'a')"),
    (lambda o: o["group"]["mult_table"].update(zz={"r0": "r0", "r1": "r1"}),
     "multiplication table has an entry for unknown elements ('zz', 'r0')"),
    (lambda o: o["group"]["mult_table"]["r1"].update(zz="r0"),
     "multiplication table has an entry for unknown elements ('r1', 'zz')"),
    (lambda o: o["group"]["inverses"].update(q="r0"),
     "inverse given for unknown element 'q'"),
], ids=["action-unit", "action-element", "mult-row", "mult-column", "inverse-key"])
def test_action_spec_entries_for_unknown_names_are_rejected(edit, message):
    obj = action_spec_to_json(SWAP_SPEC)
    edit(obj)
    with pytest.raises(InvalidAction) as exc:
        groupoid_from_json(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", [False, True])
def test_loader_rejects_weights_too_large_for_a_float(spec):
    if spec:
        obj, key = action_spec_to_json(SWAP_SPEC), "groupoid.space.mu"
        obj["space"]["mu"][1] = 10**400
    else:
        obj, key = groupoid_to_json(build_action_groupoid(SWAP_SPEC)), "groupoid.mu"
        obj["mu"][1] = 10**400
    with pytest.raises(ParseError) as exc:
        groupoid_from_json(obj)
    assert str(exc.value) == f"{key}: a weight is too large for a float"


def test_loader_rejects_unknown_kind():
    with pytest.raises(ParseError):
        groupoid_from_json({"kind": "mystery"})


def test_representation_round_trip(tmp_path):
    rep = generate_instance(
        natural_permutation_action(3),
        permutation_base_rep(symmetric_group(3)),
        6.0,
        seed=21,
    )
    path = tmp_path / "rep.json"
    save_json(representation_to_json(rep), str(path))
    again = load_representation(str(path))
    assert again.dim == rep.dim
    assert set(again.rho) == set(rep.rho)
    for g in rep.rho:
        assert np.array_equal(rep.rho[g], again.rho[g])
    assert again.uniform_bound_C == pytest.approx(rep.uniform_bound_C, rel=1e-14)


def test_representation_groupoid_file_ref(tmp_path):
    rep = generate_instance(SWAP_SPEC, permutation_base_rep_of_swap(), 3.0, seed=2)
    gpath = tmp_path / "g.json"
    save_json(groupoid_to_json(rep.groupoid), str(gpath))
    obj = representation_to_json(rep)
    obj["groupoid"] = {"file": "g.json"}
    rpath = tmp_path / "rep.json"
    save_json(obj, str(rpath))
    again = load_representation(str(rpath))
    assert set(again.rho) == set(rep.rho)


def permutation_base_rep_of_swap():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return {"r0": np.eye(2, dtype=np.complex128), "r1": swap}


def test_save_json_is_deterministic(tmp_path):
    rep = generate_instance(SWAP_SPEC, permutation_base_rep_of_swap(), 3.0, seed=7)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_json(representation_to_json(rep), str(p1))
    save_json(representation_to_json(rep), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_json_writes_compact_sorted_json_and_a_newline(tmp_path):
    rep = generate_instance(SWAP_SPEC, permutation_base_rep_of_swap(), 3.0, seed=7)
    obj = representation_to_json(rep)
    path = tmp_path / "rep.json"
    save_json(obj, str(path))
    assert path.read_text() == json.dumps(obj, sort_keys=True) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]  # no temp file left


def test_save_json_failures_are_io_errors_and_leave_no_temp_file(tmp_path):
    (tmp_path / "adir").mkdir()
    for path in (tmp_path / "nodir" / "x.json", tmp_path / "adir"):
        with pytest.raises(ParseError) as exc:
            save_json({"a": 1}, str(path))
        assert str(exc.value).startswith(f"cannot write {path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_unitarization_output_schema(tmp_path):
    rep = generate_instance(SWAP_SPEC, permutation_base_rep_of_swap(), 3.0, seed=7)
    witness, unitary, report = unitarize(rep, eps=1e-7)
    obj = unitarization_to_json(rep, witness, unitary, report)
    assert set(obj["psi"]) == set(rep.groupoid.positive_units)
    assert set(obj["arrows"]) == set(rep.rho)
    rep_block = obj["report"]
    assert {"max_unitarity_residual", "max_equivariance_residual",
            "max_certificate_bound", "all_converged", "per_unit",
            "per_arrow"} <= set(rep_block)
    # the unitary part loads back as a valid representation
    path = tmp_path / "out.json"
    save_json(obj, str(path))
    again = load_representation(str(path))
    for g, m in again.rho.items():
        assert l2_norm(m.conj().T @ m - np.eye(2)) < 1e-8


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_groupoid(str(p))
    with pytest.raises(ParseError):
        load_representation(str(p))
    with pytest.raises(ParseError):
        load_groupoid(str(tmp_path / "missing.json"))


def test_load_json_names_a_file_it_cannot_read(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(ParseError) as exc:
        load_json(str(path))
    assert str(exc.value) == f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"


def test_invalid_representation_content_is_not_a_parse_error(tmp_path):
    rep = generate_instance(SWAP_SPEC, permutation_base_rep_of_swap(), 3.0, seed=7)
    obj = representation_to_json(rep)
    # corrupt one arrow so functoriality breaks
    obj["arrows"]["r1@a"]["rows"][0][0] = [9.0, 0.0]
    path = tmp_path / "bad.json"
    save_json(obj, str(path))
    from unitarizer.errors import InvalidRepresentation

    with pytest.raises(InvalidRepresentation):
        load_representation(str(path))


def test_groupoid_to_json_composition_is_the_sorted_triples():
    # the composition list comes from the index pairs; it must equal the
    # sorted [h, g, hg] triples, whatever order the dict was built in
    rng = np.random.default_rng(3)
    groupoids = [
        build_action_groupoid(natural_permutation_action(4)),
        build_action_groupoid(cyclic_shift_action(12, copies=2)),
    ]
    G = build_action_groupoid(ordered_pair_action(3))
    items = list(G.composition.items())
    rng.shuffle(items)
    arrows = list(G.arrows)
    rng.shuffle(arrows)
    groupoids.append(
        FiniteMeasuredGroupoid(G.units, G.mu, arrows, G.inverse, dict(items))
    )
    groupoids.append(groupoid_from_json(json.loads(json.dumps(groupoid_to_json(G)))))
    for H in groupoids:
        triples = sorted([h, g, c] for (h, g), c in H.composition.items())
        assert groupoid_to_json(H)["composition"] == triples
    # arrow ids whose sorted order is not the order of their parts
    spec = ActionGroupoidSpec(
        cyclic_group(11), ("u", "u10", "u2"), (0.5, 0.25, 0.25),
        {(f"r{k}", x): x for k in range(11) for x in ("u", "u10", "u2")},
    )
    H = build_action_groupoid(spec)
    assert groupoid_to_json(H)["composition"] == sorted(
        [h, g, c] for (h, g), c in H.composition.items()
    )


# Ids and unit names that JSON escapes: quotes, backslashes, non-ASCII
# (one outside the basic plane) and control characters.
AWKWARD = ['q"', "b\\s", "\u00e9", "\u4e2d", "\U0001f600", "\n", "\x01", "\x7f", "\t", "/"]


def _renamed(G, prefixes):
    """G with every arrow id and unit name behind a prefix drawn from ``prefixes``."""
    ids = {g: prefixes[k % len(prefixes)] + g for k, g in enumerate(G._ids)}
    units = {x: prefixes[-1 - k % len(prefixes)] + x for k, x in enumerate(G.units)}
    return FiniteMeasuredGroupoid(
        [units[x] for x in G.units],
        G.mu,
        [Arrow(ids[a.id], units[a.src], units[a.tgt]) for a in G.arrows],
        {ids[g]: ids[gi] for g, gi in G.inverse.items()},
        {(ids[h], ids[g]): ids[c] for (h, g), c in G.composition.items()},
    )


def _writer_groupoids():
    catalog = [
        build_action_groupoid(spec)
        for spec in (
            SWAP_SPEC,
            natural_permutation_action(4),
            left_translation_action(symmetric_group(3)),
            ordered_pair_action(3),
            cyclic_shift_action(6, copies=2),
        )
    ]
    restricted = [
        restrict(catalog[1], ["x0", "x2", "x3"]),
        restrict(catalog[4], ["x0_1", "x1_2", "x0_3"]),
    ]
    awkward = [_renamed(G, AWKWARD) for G in (catalog[0], catalog[3], restricted[0])]
    return catalog + restricted + awkward


@pytest.mark.parametrize("rows_per_chunk", [1, 7, 8, serialization._ROWS_PER_CHUNK])
def test_save_json_writes_a_groupoid_as_groupoid_to_json_would(tmp_path, monkeypatch,
                                                               rows_per_chunk):
    monkeypatch.setattr(serialization, "_ROWS_PER_CHUNK", rows_per_chunk)
    path = tmp_path / "g.json"
    for n, G in enumerate(_writer_groupoids()):
        save_json(G, str(path))
        want = json.dumps(groupoid_to_json(G), sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode(), n
        assert groupoid_from_json(load_json(str(path))).composition == G.composition, n


def test_composition_dict_follows_the_written_rows():
    for n, G in enumerate(_writer_groupoids()):
        rows = [[h, g, hg] for (h, g), hg in G.composition.items()]
        assert rows == groupoid_to_json(G)["composition"], n


def test_save_json_writes_output_values_as_their_json(tmp_path):
    path = tmp_path / "out.json"
    for n, G in enumerate(_writer_groupoids()):
        dim = 2
        rng = np.random.default_rng(n)
        mats = rng.standard_normal((len(G._ids), dim, dim)) + 1j * rng.standard_normal(
            (len(G._ids), dim, dim)
        )
        rep = Representation(G, dim, dict(zip(G._ids, mats)), 1.0)
        save_json(_representation_value(rep), str(path))
        want = json.dumps(representation_to_json(rep), sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode(), n
    rep = generate_instance(natural_permutation_action(3), permutation_base_rep(symmetric_group(3)),
                            6.0, seed=4)
    witness, unitary, report = unitarize(rep, eps=1e-7)
    save_json(_unitarization_value(rep, witness, unitary, report), str(path))
    want = json.dumps(unitarization_to_json(rep, witness, unitary, report), sort_keys=True)
    assert path.read_bytes() == (want + "\n").encode()


STACK_REP = generate_instance(
    natural_permutation_action(3), permutation_base_rep(symmetric_group(3)), 6.0, seed=3
)


def _corrupted_arrows(seed, count):
    """Representation objects with zero to two defects in their arrow matrices.

    Defects: a ragged row (short or long), a one- or three-element entry, a
    bool, a string, an integer too large for a float, NaN and Infinity
    tokens, a missing, non-int or wrong dim, a missing rows list, a matrix
    of another size, and a matrix that is not an object.  Integer entries that
    fit a float are no defect.  Each object goes through JSON text, so the
    non-finite values arrive as the parser reads their tokens.
    """
    base = representation_to_json(STACK_REP)
    dim = STACK_REP.dim
    rng = np.random.default_rng(seed)
    for _ in range(count):
        obj = copy.deepcopy(base)
        arrows = obj["arrows"]
        keys = list(arrows)
        for _ in range(rng.integers(3)):
            g = keys[rng.integers(len(keys))]
            m = arrows[g]
            if not isinstance(m, dict) or not isinstance(m.get("rows"), list):
                continue
            rows = m["rows"]
            i, j, p = rng.integers(dim), rng.integers(dim), rng.integers(2)
            kind = rng.integers(14)
            if kind == 0:
                rows[i] = rows[i][:-1] if rng.integers(2) else rows[i] + [[0.0, 0.0]]
            elif kind == 1:
                rows[i][j] = rows[i][j][:1] if rng.integers(2) else rows[i][j] + [0.0]
            elif kind == 2:
                rows[i][j][p] = bool(rng.integers(2))
            elif kind == 3:
                rows[i][j][p] = "1.0"
            elif kind == 4:
                rows[i][j][p] = 10**400
            elif kind == 5:
                rows[i][j][p] = float("nan")
            elif kind == 6:
                rows[i][j][p] = float("inf") if rng.integers(2) else float("-inf")
            elif kind == 7:
                del m["dim"]
            elif kind == 8:
                m["dim"] = [float(dim), str(dim), True, None, [dim], dim + 1, 0][rng.integers(7)]
            elif kind == 9:
                del m["rows"]
            elif kind == 10:
                k = dim + 1 if rng.integers(2) else dim - 1
                arrows[g] = matrix_to_json(np.eye(k))
            elif kind == 11:
                arrows[g] = [None, "m", rows][rng.integers(3)]
            else:
                rows[i][j][p] = int(round(rows[i][j][p]))
        yield json.loads(json.dumps(obj))


def _rep_outcome(load, obj):
    try:
        rep = load(obj)
    except UnitarizerError as exc:
        return type(exc).__name__, str(exc)
    return [(g, m.tobytes()) for g, m in rep.rho.items()], rep.uniform_bound_C


def _per_matrix_load(obj, where="representation"):
    """The representation with every arrow matrix parsed on its own."""
    G = groupoid_from_json(obj["groupoid"], f"{where}.groupoid")
    rho = {g: matrix_from_json(m, f"{where}.arrows[{g!r}]") for g, m in obj["arrows"].items()}
    return make_representation(G, obj["dim"], rho)


def _matrices_outcome(read, raw):
    try:
        mats = read(raw)
    except ParseError as exc:
        return str(exc)
    return [(k, m.shape, m.tobytes()) for k, m in mats.items()]


def test_stacked_matrix_read_matches_the_per_matrix_parse():
    # Same exception type and message, or the same matrices in the same order.
    defects = 0
    for n, obj in enumerate(_corrupted_arrows(5, 400)):
        want = _rep_outcome(_per_matrix_load, obj)
        assert _rep_outcome(representation_from_json, obj) == want, n
        defects += isinstance(want[0], str)
        per_matrix = lambda raw: {x: matrix_from_json(m, f"w[{x!r}]") for x, m in raw.items()}
        raw = obj["arrows"]
        assert _matrices_outcome(lambda raw: psi_from_json(raw, "w"), raw) == _matrices_outcome(
            per_matrix, raw
        ), n
    assert 200 < defects < 400


# -- the file reader --------------------------------------------------------


def _groupoid_outcome(load, path):
    try:
        G = load(path)
    except (ParseError, InvalidGroupoid) as exc:
        return type(exc).__name__, str(exc)
    return G._sorted_triples().tolist(), G.inverse, G.unit_arrows, G.arrows


def _representation_outcome(load, path):
    try:
        rep = load(path)
    except UnitarizerError as exc:
        return type(exc).__name__, str(exc)
    G = rep.groupoid
    return G._sorted_triples().tolist(), G.unit_arrows, [(g, m.tobytes()) for g, m in rep.rho.items()]


def _reference_groupoid(path):
    return groupoid_from_json(load_json(path), where=path)


def _reference_representation(path):
    return representation_from_json(load_json(path), base_dir=os.path.dirname(path), where=path)


ONE = {"dim": 1, "rows": [[[1.0, 0.0]]]}


def _spliced(obj) -> bool:
    """True when the reader's ``obj`` holds a composition span where the reader
    puts one: in the value if it has a ``"composition"`` key, else in its
    ``"groupoid"`` field."""
    if not isinstance(obj, dict):
        return False
    holder = obj if "composition" in obj else obj.get("groupoid")
    return isinstance(holder, dict) and isinstance(
        holder.get("composition"), serialization.CompositionSpan
    )


def _reads_from_the_bytes(path):
    return _spliced(serialization.read_json(path))


def _check_file(tmp_path, data: bytes) -> bool:
    """Load ``data`` as a groupoid file, and wrapped as a representation file, by the
    reader and through ``load_json``: the same outcome, and at most one build per
    load by the reader.  True when the reader read the composition from the bytes."""
    gpath, rpath = str(tmp_path / "g.json"), str(tmp_path / "rep.json")
    try:
        ids = [a["id"] for a in json.loads(data.decode())["arrows"]]
    except (UnicodeDecodeError, json.JSONDecodeError):
        ids = []
    arrows = json.dumps({g: ONE for g in ids}, ensure_ascii=False).encode()
    with open(gpath, "wb") as f:
        f.write(data)
    with open(rpath, "wb") as f:
        f.write(b'{"arrows": ' + arrows + b', "dim": 1, "groupoid": ' + data + b"}")
    spans, builds = [], []
    read, setup = serialization.read_json, FiniteMeasuredGroupoid._setup

    def reading(path):
        spans.append(False)
        obj = read(path)
        spans[-1] = _spliced(obj)
        return obj

    with mock.patch.object(serialization, "read_json", reading), mock.patch.object(
        FiniteMeasuredGroupoid, "_setup", lambda G, *args: builds.append(1) or setup(G, *args)
    ):
        got = _groupoid_outcome(load_groupoid, gpath)
        assert len(builds) <= 1
        builds.clear()
        got_rep = _representation_outcome(load_representation, rpath)
        assert len(builds) <= 1
    assert got == _groupoid_outcome(_reference_groupoid, gpath)
    assert got_rep == _representation_outcome(_reference_representation, rpath)
    assert spans[0] == spans[1]
    return spans[0]


def test_reader_matches_load_json_on_corrupted_files(tmp_path):
    # Every object twice: in the layout json.dumps writes (read from the
    # bytes when its list is one of string triples) and indented (never).
    fast = 0
    for n, obj in enumerate((*_corrupted_loads(0, 600), *_mixed_loads(2, 600))):
        assert not _check_file(tmp_path, json.dumps(obj, indent=1).encode()), n
        fast += _check_file(tmp_path, json.dumps(obj).encode())
    assert 600 < fast < 1200


def _renamed_ids(G, names):
    """G with its arrow ids, in sorted order, renamed to ``names``."""
    ids = dict(zip(G._ids, names))
    return FiniteMeasuredGroupoid(
        G.units,
        G.mu,
        [Arrow(ids[a.id], a.src, a.tgt) for a in G.arrows],
        {ids[g]: ids[gi] for g, gi in G.inverse.items()},
        {(ids[h], ids[g]): ids[c] for (h, g), c in G.composition.items()},
    )


# Ids for the 18 arrows of S3 acting on 3 points: 1, 2, 8, 9 and 17 bytes,
# some sharing their first 8 or 16 bytes, non-ASCII, brackets, separators.
EDGE_IDS = [
    "a", "ab", "abcdefgh", "abcdefghi", "abcdefghj", "abcdefghijklmnopq", "abcdefghijklmnopr",
    "\u00e9", "\u4e2d", "\U0001f600", "[", "]", ", ", "x]]", "], [", "\x7f", "composit", "z" * 40,
]
EDGE_G = _renamed_ids(build_action_groupoid(natural_permutation_action(3)), EDGE_IDS)


def _edge_bytes(G=EDGE_G, last=False, **fields) -> bytes:
    """``G``'s JSON with raw UTF-8, and ``fields`` in place of its own; with the
    composition as the last key if ``last``."""
    obj = dict(groupoid_to_json(G), **fields)
    if last:
        obj["composition"] = obj.pop("composition")
    return json.dumps(obj, ensure_ascii=False).encode()


def _in_composition(data: bytes, old: bytes, new: bytes) -> bytes:
    at = data.index(b'"composition": ')
    assert old in data[at:]
    return data[:at] + data[at:].replace(old, new, 1)


def test_reader_reads_awkward_ids_from_the_bytes(tmp_path):
    data = _edge_bytes()
    assert _check_file(tmp_path, data)
    G = load_groupoid(str(tmp_path / "g.json"))
    assert sorted(G.composition.items()) == sorted(EDGE_G.composition.items())
    # Unknown ids that share leading bytes with known ones, or are longer
    # than any, in each column.
    unknown = ["abcdefghX", "abcdefghijklmnopX", "abcdefgh\u00e9", "\u00e9\u00e9", "z" * 41, "b"]
    for k, g in enumerate(unknown):
        comp = copy.deepcopy(groupoid_to_json(EDGE_G)["composition"])
        comp[k][k % 3] = g
        assert _check_file(tmp_path, _edge_bytes(composition=comp))
    # The composition as the last key, its last id of one byte: the word at
    # that id runs past the end of the file.
    comp = sorted(groupoid_to_json(EDGE_G)["composition"], key=lambda t: -len(t[2].encode()))
    assert len(comp[-1][2]) == 1
    assert _check_file(tmp_path, _edge_bytes(last=True, composition=comp))
    G = load_groupoid(str(tmp_path / "g.json"))
    assert sorted(G.composition.items()) == sorted(EDGE_G.composition.items())
    for last in (False, True):
        assert not _check_file(tmp_path, _edge_bytes(last=last, composition=[]))


@pytest.mark.parametrize("case", [
    "arrow-named-composition", "second-key", "composition-as-a-value", "escapes", "quote",
    "control", "invalid-utf8", "bom", "crlf", "trailing-crlf", "truncated-list",
    "truncated-tail", "key-spacing", "number-between-entries", "number-inside-an-entry",
    "space-inside-an-entry", "unclosed-list", "no-arrows",
])
def test_reader_falls_back_or_agrees_on_edge_files(tmp_path, case):
    data = _edge_bytes()
    plain = json.dumps(groupoid_to_json(build_action_groupoid(SWAP_SPEC))).encode()
    fast = case in ("composition-as-a-value", "trailing-crlf", "key-spacing", "no-arrows")
    if case == "arrow-named-composition":
        data = data.replace(b'"composit"', b'"composition"')
    elif case == "second-key":
        data = data.replace(b'"kind": ', b'"extra": {"composition": []}, "kind": ')
    elif case == "composition-as-a-value":
        data = data.replace(b'"kind": ', b'"extra": ["composition"], "kind": ')
    elif case == "escapes":
        data = json.dumps(groupoid_to_json(EDGE_G)).encode()
    elif case == "quote":
        data = _edge_bytes(_renamed_ids(EDGE_G, ['q"'] + EDGE_IDS[1:]))
    elif case == "control":
        data = _in_composition(data, b'"ab"', b'"a\x01b"')
    elif case == "invalid-utf8":
        data = _in_composition(data, '"\u00e9"'.encode(), b'"\xff"')
    elif case == "bom":
        data = b"\xef\xbb\xbf" + data
    elif case == "crlf":
        data = json.dumps(groupoid_to_json(EDGE_G), indent=1).replace("\n", "\r\n").encode()
    elif case == "trailing-crlf":
        data += b"\r\n"
    elif case == "truncated-list":
        data = data[:data.index(b'"composition": ') + 400]
    elif case == "truncated-tail":
        data = data[:-3]
    elif case == "key-spacing":
        data = data.replace(b'"composition": ', b'"composition" \t\n:\r ')
    elif case == "number-between-entries":  # an entry of four, three of them ids
        data = _in_composition(plain, b'"], ["', b'"], [5, "')
    elif case == "number-inside-an-entry":
        data = _in_composition(plain, b'", "', b'", 5, "')
    elif case == "space-inside-an-entry":
        data = _in_composition(plain, b'", "', b'",  "')
    elif case == "unclosed-list":  # '[["h", "g", "hg" ]' with the rest valid after null
        assert data.endswith(b'"]]}')
        data = data[:-4] + b'" ]}'
    elif case == "no-arrows":  # every id of the list is unknown
        data = _edge_bytes(arrows=[])
    assert _check_file(tmp_path, data) == fast


def test_reader_needs_the_composition_in_its_place(tmp_path):
    # One "composition" key, but not in the groupoid object: no span, and
    # the loader names the missing key.
    obj = groupoid_to_json(build_action_groupoid(SWAP_SPEC))
    comp = obj.pop("composition")
    gpath, rpath = str(tmp_path / "g.json"), str(tmp_path / "rep.json")
    with open(gpath, "w") as f:
        f.write(json.dumps(dict(obj, extra={"composition": comp})))
    rep = {"arrows": {a["id"]: ONE for a in obj["arrows"]}, "composition": comp, "dim": 1,
           "groupoid": obj}
    with open(rpath, "w") as f:
        f.write(json.dumps(rep))
    got = _groupoid_outcome(load_groupoid, gpath)
    assert got == ("ParseError", f"{gpath}: missing key 'composition'")
    assert got == _groupoid_outcome(_reference_groupoid, gpath)
    got = _representation_outcome(load_representation, rpath)
    assert got == ("ParseError", f"{rpath}.groupoid: missing key 'composition'")
    assert got == _representation_outcome(_reference_representation, rpath)


def test_loaded_composition_is_int32_and_written_off_the_table(tmp_path, monkeypatch):
    # A composition list in a shuffled order, read from the file's bytes and
    # from a parsed list: an int32 table, whose rows the writer reads sorted
    # by (h, g).
    G = build_action_groupoid(ordered_pair_action(3))
    obj = groupoid_to_json(G)
    order = np.random.default_rng(5).permutation(len(obj["composition"])).tolist()
    obj["composition"] = [obj["composition"][k] for k in order]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert _reads_from_the_bytes(str(path))
    want = G._sorted_triples()
    loaded = load_groupoid(str(path)), groupoid_from_json(obj)
    monkeypatch.setattr(np, "argsort", None)  # the write path sorts nothing
    for H in loaded:
        assert H._table.dtype == np.int32
        assert np.array_equal(H._sorted_triples(), want)
        assert groupoid_to_json(H) == groupoid_to_json(G)
        save_json(H, str(tmp_path / "out.json"))
        assert load_json(str(tmp_path / "out.json")) == groupoid_to_json(G)


def test_reader_follows_a_groupoid_file_reference(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_bytes(_edge_bytes())
    rpath = tmp_path / "rep.json"
    rpath.write_text(json.dumps({"groupoid": {"file": "g.json"}, "dim": 1,
                                 "arrows": {g: ONE for g in EDGE_IDS}}))
    G = load_representation(str(rpath)).groupoid
    want = _reference_groupoid(str(gpath))
    assert np.array_equal(G._sorted_triples(), want._sorted_triples())
    assert _reads_from_the_bytes(str(gpath))


def test_save_json_output_is_read_from_the_bytes(tmp_path, monkeypatch):
    reads, builds = [], []
    as_list = serialization.CompositionSpan.as_list
    monkeypatch.setattr(serialization.CompositionSpan, "as_list",
                        lambda span: reads.append(1) or as_list(span))
    setup = FiniteMeasuredGroupoid._setup
    monkeypatch.setattr(
        FiniteMeasuredGroupoid, "_setup", lambda G, *args: builds.append(1) or setup(G, *args)
    )
    # The catalog and the restricted groupoids, and S5-natural.
    groupoids = _writer_groupoids()[:7] + [build_action_groupoid(natural_permutation_action(5))]
    path = str(tmp_path / "g.json")
    for n, G in enumerate(groupoids):
        save_json(G, path)
        assert _reads_from_the_bytes(path), n
        builds.clear()
        H = load_groupoid(path)
        assert len(builds) == 1, n
        assert H.composition == G.composition and H.unit_arrows == G.unit_arrows, n
        rho = dict(zip(G._ids, np.ones((len(G._ids), 1, 1))))
        save_json(_representation_value(Representation(G, 1, rho, 1.0)), path)
        assert _reads_from_the_bytes(path), n
        builds.clear()
        assert load_representation(path).groupoid.composition == G.composition, n
        assert len(builds) == 1, n
    assert reads == []


def test_only_files_the_reader_cannot_splice_reach_load_json(tmp_path, monkeypatch):
    # A file in the layout json.dumps writes is read once, from its bytes; an
    # indented one is read again by load_json, once.
    calls = []
    load = serialization.load_json
    monkeypatch.setattr(serialization, "load_json", lambda path: calls.append(path) or load(path))
    G = build_action_groupoid(SWAP_SPEC)
    gobj = groupoid_to_json(G)
    rep = {"arrows": {g: ONE for g in G._ids}, "dim": 1, "groupoid": gobj}
    gpath, rpath = str(tmp_path / "g.json"), str(tmp_path / "rep.json")
    for indent in (None, 1):
        with open(gpath, "w") as f:
            f.write(json.dumps(gobj, indent=indent))
        with open(rpath, "w") as f:
            f.write(json.dumps(rep, indent=indent))
        calls.clear()
        assert load_groupoid(gpath).composition == G.composition
        assert load_representation(rpath).groupoid.composition == G.composition
        assert calls == ([] if indent is None else [gpath, rpath])
