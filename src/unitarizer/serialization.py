"""JSON codecs and atomic file IO for matrices, groupoids and representations.

Schema summary
--------------
matrix           {"dim": n, "rows": [[[re, im], ...], ...]}  (row-major)
groupoid         {"kind": "action", "group": {"elements", "mult_table",
                  "identity", "inverses"}, "space": {"units", "mu"},
                  "action": {g: {x: g.x}}}
                 or {"kind": "explicit", "units", "mu",
                  "arrows": [{"id", "src", "tgt"}, ...],
                  "inverse": {id: id},
                  "composition": [[h, g, hg], ...]}
representation   {"groupoid": <groupoid or {"file": path}>, "dim": n,
                  "arrows": {arrow_id: matrix}}
unitarization    representation fields for the unitary output, plus
                 {"psi": {unit: matrix}, "sigma": {unit: matrix},
                  "report": {...}}

Malformed structure raises :class:`ParseError` (IO category); content
that parses but violates groupoid or representation axioms raises the
corresponding validation error.  Writers are deterministic (sorted keys)
and atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ParseError
from .groupoid import (
    ActionGroupoidSpec,
    Arrow,
    FiniteGroup,
    FiniteMeasuredGroupoid,
    build_action_groupoid,
)
from .representation import Representation, make_representation


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _get(obj: dict, key: str, where: str):
    _require(isinstance(obj, dict), f"{where}: expected an object")
    if key not in obj:
        raise ParseError(f"{where}: missing key {key!r}")
    return obj[key]


# -- matrices ---------------------------------------------------------------


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    _require(a.ndim == 2 and a.shape[0] == a.shape[1], "matrix: not square")
    return {
        "dim": int(a.shape[0]),
        "rows": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    dim = _get(obj, "dim", where)
    rows = _get(obj, "rows", where)
    _require(isinstance(dim, int) and dim >= 1, f"{where}: dim must be a positive int")
    _require(isinstance(rows, list) and len(rows) == dim, f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        _require(
            isinstance(row, list) and len(row) == dim,
            f"{where}: row {i} is ragged (expected {dim} entries)",
        )
        for j, z in enumerate(row):
            _require(
                isinstance(z, list)
                and len(z) == 2
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in z),
                f"{where}: entry ({i},{j}) is not an [re, im] pair",
            )
            out[i, j] = complex(z[0], z[1])
    _require(bool(np.all(np.isfinite(out.view(np.float64)))), f"{where}: non-finite entry")
    return out


# -- groupoids --------------------------------------------------------------


def groupoid_to_json(G: FiniteMeasuredGroupoid) -> dict:
    return {
        "kind": "explicit",
        "units": list(G.units),
        "mu": [float(G.unit_weight(x)) for x in G.units],
        "arrows": [
            {"id": a.id, "src": a.src, "tgt": a.tgt}
            for a in sorted(G.arrows, key=lambda a: a.id)
        ],
        "inverse": {g: G.inverse[g] for g in sorted(G.inverse)},
        "composition": sorted([h, g, c] for (h, g), c in G.composition.items()),
    }


def action_spec_to_json(spec: ActionGroupoidSpec) -> dict:
    grp = spec.group
    return {
        "kind": "action",
        "group": {
            "elements": list(grp.elements),
            "mult_table": {
                a: {b: grp.mult[(a, b)] for b in grp.elements} for a in grp.elements
            },
            "identity": grp.identity,
            "inverses": dict(grp.inverses),
        },
        "space": {
            "units": list(spec.units),
            "mu": [float(w) for w in spec.mu],
        },
        "action": {
            g: {x: spec.action[(g, x)] for x in spec.units} for g in grp.elements
        },
    }


def _str_list(obj, where: str) -> list:
    _require(
        isinstance(obj, list) and all(isinstance(s, str) for s in obj),
        f"{where}: expected a list of strings",
    )
    return list(obj)


def _mu_list(obj, where: str) -> list:
    _require(
        isinstance(obj, list)
        and all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in obj),
        f"{where}: expected a list of numbers",
    )
    return [float(w) for w in obj]


def action_spec_from_json(obj, where: str = "groupoid") -> ActionGroupoidSpec:
    grp = _get(obj, "group", where)
    elements = _str_list(_get(grp, "elements", f"{where}.group"), f"{where}.group.elements")
    identity = _get(grp, "identity", f"{where}.group")
    _require(isinstance(identity, str), f"{where}.group.identity: expected a string")
    raw_mult = _get(grp, "mult_table", f"{where}.group")
    _require(isinstance(raw_mult, dict), f"{where}.group.mult_table: expected an object")
    mult = {}
    for a, row in raw_mult.items():
        _require(isinstance(row, dict), f"{where}.group.mult_table[{a!r}]: expected an object")
        for b, ab in row.items():
            _require(
                isinstance(ab, str),
                f"{where}.group.mult_table[{a!r}][{b!r}]: expected a string",
            )
            mult[(a, b)] = ab
    raw_inv = _get(grp, "inverses", f"{where}.group")
    _require(
        isinstance(raw_inv, dict) and all(isinstance(v, str) for v in raw_inv.values()),
        f"{where}.group.inverses: expected an object of strings",
    )
    space = _get(obj, "space", where)
    units = _str_list(_get(space, "units", f"{where}.space"), f"{where}.space.units")
    mu = _mu_list(_get(space, "mu", f"{where}.space"), f"{where}.space.mu")
    raw_action = _get(obj, "action", where)
    _require(isinstance(raw_action, dict), f"{where}.action: expected an object")
    action = {}
    for g, row in raw_action.items():
        _require(isinstance(row, dict), f"{where}.action[{g!r}]: expected an object")
        for x, gx in row.items():
            _require(isinstance(gx, str), f"{where}.action[{g!r}][{x!r}]: expected a string")
            action[(g, x)] = gx
    group = FiniteGroup(
        elements=tuple(elements),
        mult=mult,
        identity=identity,
        inverses=dict(raw_inv),
    )
    return ActionGroupoidSpec(
        group=group, units=tuple(units), mu=tuple(mu), action=action
    )


def groupoid_from_json(obj, where: str = "groupoid") -> FiniteMeasuredGroupoid:
    kind = _get(obj, "kind", where)
    if kind == "action":
        return build_action_groupoid(action_spec_from_json(obj, where))
    if kind != "explicit":
        raise ParseError(f"{where}: unknown kind {kind!r}")
    units = _str_list(_get(obj, "units", where), f"{where}.units")
    mu = _mu_list(_get(obj, "mu", where), f"{where}.mu")
    raw_arrows = _get(obj, "arrows", where)
    _require(isinstance(raw_arrows, list), f"{where}.arrows: expected a list")
    arrows = []
    for k, a in enumerate(raw_arrows):
        aid = _get(a, "id", f"{where}.arrows[{k}]")
        src = _get(a, "src", f"{where}.arrows[{k}]")
        tgt = _get(a, "tgt", f"{where}.arrows[{k}]")
        _require(
            all(isinstance(s, str) for s in (aid, src, tgt)),
            f"{where}.arrows[{k}]: id/src/tgt must be strings",
        )
        arrows.append(Arrow(aid, src, tgt))
    raw_inv = _get(obj, "inverse", where)
    _require(
        isinstance(raw_inv, dict) and all(isinstance(v, str) for v in raw_inv.values()),
        f"{where}.inverse: expected an object of strings",
    )
    raw_comp = _get(obj, "composition", where)
    _require(isinstance(raw_comp, list), f"{where}.composition: expected a list")
    comp = {}
    for k, triple in enumerate(raw_comp):
        _require(
            isinstance(triple, list)
            and len(triple) == 3
            and all(isinstance(s, str) for s in triple),
            f"{where}.composition[{k}]: expected [h, g, hg] strings",
        )
        pair = (triple[0], triple[1])
        _require(pair not in comp, f"{where}.composition[{k}]: duplicate entry for pair {pair!r}")
        comp[pair] = triple[2]
    return FiniteMeasuredGroupoid(
        units=tuple(units),
        mu=tuple(mu),
        arrows=tuple(arrows),
        inverse=dict(raw_inv),
        composition=comp,
    )


# -- representations --------------------------------------------------------


def representation_to_json(rep: Representation) -> dict:
    return {
        "groupoid": groupoid_to_json(rep.groupoid),
        "dim": rep.dim,
        "arrows": {g: matrix_to_json(m) for g, m in sorted(rep.rho.items())},
    }


def representation_from_json(obj, base_dir: str = ".", where: str = "representation"):
    gobj = _get(obj, "groupoid", where)
    _require(isinstance(gobj, dict), f"{where}.groupoid: expected an object")
    if "file" in gobj and "kind" not in gobj:
        ref = gobj["file"]
        _require(isinstance(ref, str), f"{where}.groupoid.file: expected a string")
        G = load_groupoid(os.path.join(base_dir, ref))
    else:
        G = groupoid_from_json(gobj, f"{where}.groupoid")
    dim = _get(obj, "dim", where)
    _require(isinstance(dim, int) and dim >= 1, f"{where}.dim: must be a positive int")
    raw = _get(obj, "arrows", where)
    _require(isinstance(raw, dict), f"{where}.arrows: expected an object")
    rho = {
        g: matrix_from_json(m, f"{where}.arrows[{g!r}]") for g, m in raw.items()
    }
    return make_representation(G, dim, rho)


def unitarization_to_json(rep, witness, unitary, report) -> dict:
    out = representation_to_json(unitary)
    out["psi"] = {x: matrix_to_json(p.mat) for x, p in sorted(witness.psi.items())}
    out["sigma"] = {x: matrix_to_json(s.mat) for x, s in sorted(witness.sigma.items())}
    out["report"] = {
        "uniform_bound": rep.uniform_bound_C,
        "max_unitarity_residual": report.max_unitarity_residual,
        "max_equivariance_residual": report.max_equivariance_residual,
        "max_certificate_bound": report.max_certificate_bound,
        "all_converged": report.all_converged,
        "per_unit": {
            x: {
                "radius": res.radius_at_center,
                "error_bound": res.center_error_bound,
                "iterations": res.iterations,
                "converged": res.converged,
            }
            for x, res in sorted(report.unit_results.items())
        },
        "per_arrow": {
            g: {"unitarity": ru, "equivariance": re}
            for g, (ru, re) in sorted(report.per_arrow.items())
        },
    }
    return out


# -- files ------------------------------------------------------------------


def save_json(obj, path: str):
    """Deterministic, atomic JSON write (sorted keys, temp file + rename)."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            # json.dumps takes the C encoder; json.dump and indent do not.
            f.write(json.dumps(obj, sort_keys=True))
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_groupoid(path: str) -> FiniteMeasuredGroupoid:
    return groupoid_from_json(load_json(path), where=path)


def load_action_spec(path: str) -> ActionGroupoidSpec:
    obj = load_json(path)
    kind = _get(obj, "kind", path)
    _require(kind == "action", f"{path}: expected an action groupoid, got kind {kind!r}")
    return action_spec_from_json(obj, where=path)


def load_representation(path: str):
    return representation_from_json(
        load_json(path), base_dir=os.path.dirname(os.path.abspath(path)), where=path
    )
