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
corresponding validation error.  The parsers take one pass per table:
one type and length check per nesting level of the composition list and
of the arrow matrices, one build of the groupoid from index triples, and
one float array for all arrow matrices.  Only when a pass finds an
anomaly, or the build fails in a way a malformed entry can cause, is the
table read entry by entry to name the first bad one.

Writers are deterministic (sorted keys, ``json.dumps``' C encoder) and
atomic (write to a temp file, then rename).  :func:`save_json` also takes
a groupoid object, alone or as the ``"groupoid"`` field of an output
dict, and writes the bytes of its ``groupoid_to_json`` dict without
building it: each arrow id is encoded once, the sorted index triples
gather the encoded ids, and each block of rows is joined into one piece
of the composition text.  The file is written piece by piece, so no
string holds the whole text.  The CLI hands it its outputs that way; the
public ``*_to_json`` functions return plain JSON dicts.  Arrow matrices
are written from one stacked array.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain

import numpy as np

from .errors import InvalidGroupoid, ParseError
from .groupoid import (
    ActionGroupoidSpec,
    Arrow,
    FiniteGroup,
    FiniteMeasuredGroupoid,
    build_action_groupoid,
)
from .representation import Representation, make_representation

# Rows of the composition list written per piece: small enough that no
# piece holds more than a few hundred kilobytes of text.
_ROWS_PER_CHUNK = 4096


def _require(cond: bool, msg: str, *args):
    """Raise ``ParseError(msg.format(*args))`` unless ``cond``; format only then."""
    if not cond:
        raise ParseError(msg.format(*args))


def _get(obj: dict, key: str, where: str):
    _require(isinstance(obj, dict), "{}: expected an object", where)
    _require(key in obj, "{}: missing key {!r}", where, key)
    return obj[key]


# -- matrices ---------------------------------------------------------------


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    _require(a.ndim == 2 and a.shape[0] == a.shape[1], "matrix: not square")
    return {
        "dim": int(a.shape[0]),
        "rows": np.stack((a.real, a.imag), -1).tolist(),
    }


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    dim = _get(obj, "dim", where)
    rows = _get(obj, "rows", where)
    _require(type(dim) is int and dim >= 1, "{}: dim must be a positive int", where)
    _require(isinstance(rows, list) and len(rows) == dim, "{}: expected {} rows", where, dim)
    for i, row in enumerate(rows):
        _require(
            isinstance(row, list) and len(row) == dim,
            "{}: row {} is ragged (expected {} entries)", where, i, dim,
        )
        for j, z in enumerate(row):
            _require(
                isinstance(z, list)
                and len(z) == 2
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in z),
                "{}: entry ({},{}) is not an [re, im] pair", where, i, j,
            )
    try:
        parts = np.array(rows, dtype=np.float64)
    except OverflowError:
        raise ParseError(f"{where}: an entry is too large for a float") from None
    _require(bool(np.all(np.isfinite(parts))), "{}: non-finite entry", where)
    return parts.view(np.complex128).reshape(dim, dim)


def _matrices_to_json(mats: dict) -> dict:
    """``{key: matrix_to_json(m)}`` in key order, for matrices of one size, from one stack."""
    keys = sorted(mats)
    a = np.asarray([mats[k] for k in keys], dtype=np.complex128)
    _require(a.ndim == 3 and a.shape[1] == a.shape[2], "matrix: not square")
    dim = int(a.shape[1])
    rows = np.stack((a.real, a.imag), -1).tolist()
    return {k: {"dim": dim, "rows": r} for k, r in zip(keys, rows)}


def _matrices_from_json(raw: dict, where: str) -> dict:
    """``{key: matrix_from_json(m, f"{where}[{key!r}]")}``, read as one stack.

    One type and length check per nesting level covers every matrix; on
    any anomaly the matrices are read one by one, so that the per-matrix
    parser names it.
    """
    stack = _stack_from_json(list(raw.values()))
    if stack is None:
        return {k: matrix_from_json(m, f"{where}[{k!r}]") for k, m in raw.items()}
    return dict(zip(raw, stack))


def _stack_from_json(objs: list):
    """The matrix objects as one (n, dim, dim) complex array, or None.

    None unless every object is a well-formed, finite matrix of one dim.
    """
    if set(map(type, objs)) != {dict}:
        return None
    dims = [m.get("dim") for m in objs]
    if set(map(type, dims)) != {int} or len(set(dims)) != 1 or dims[0] < 1:
        return None
    dim = dims[0]
    rows = level = [m.get("rows") for m in objs]
    for size in (dim, dim, 2):  # rows, entries, [re, im] parts
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        parts = np.array(rows, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.view(np.complex128).reshape(len(objs), dim, dim)


# -- groupoids --------------------------------------------------------------


def groupoid_to_json(G: FiniteMeasuredGroupoid) -> dict:
    out = _groupoid_head(G)
    out["composition"] = np.array(G._ids, dtype=object)[_sorted_pairs(G)].tolist()
    return out


def _groupoid_head(G: FiniteMeasuredGroupoid) -> dict:
    """``groupoid_to_json(G)`` without its composition."""
    return {
        "kind": "explicit",
        "units": list(G.units),
        "mu": [float(G.unit_weight(x)) for x in G.units],
        "arrows": [
            {"id": a.id, "src": a.src, "tgt": a.tgt}
            for a in sorted(G.arrows, key=lambda a: a.id)
        ],
        "inverse": {g: G.inverse[g] for g in sorted(G.inverse)},
    }


def _sorted_pairs(G: FiniteMeasuredGroupoid) -> np.ndarray:
    """The index triples as rows (h, g, hg), sorted by (h, g).

    Arrow indices follow sorted ids, so these rows name the sorted
    ``[h, g, hg]`` id triples.  Each (h, g) occurs once, so one key sorts.
    """
    ih, ig, _ = G._pairs
    return np.stack(G._pairs, axis=1)[np.argsort(ih * len(G._ids) + ig)]


def _composition_chunks(G: FiniteMeasuredGroupoid):
    """``json.dumps(groupoid_to_json(G)["composition"])`` in pieces, from the index triples.

    Each id is encoded once, in three forms: ``["h", ``, ``"g", `` and
    ``"hg"], ``.  A gather of the sorted triples picks each row's three
    pieces, and one join per block of rows writes them.
    """
    n = len(G._ids)
    ids = [json.dumps(g) for g in G._ids]
    forms = np.array(
        [f"[{g}, " for g in ids] + [f"{g}, " for g in ids] + [f"{g}], " for g in ids],
        dtype=object,
    )
    rows = _sorted_pairs(G) + (0, n, 2 * n)
    yield "["
    for start in range(0, len(rows), _ROWS_PER_CHUNK):
        pieces = forms[rows[start:start + _ROWS_PER_CHUNK].ravel()].tolist()
        if start + _ROWS_PER_CHUNK >= len(rows):
            pieces[-1] = pieces[-1][:-2]  # no separator after the last row
        yield "".join(pieces)
    yield "]"


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
        "{}: expected a list of strings", where,
    )
    return list(obj)


def _mu_list(obj, where: str) -> list:
    _require(
        isinstance(obj, list)
        and all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in obj),
        "{}: expected a list of numbers", where,
    )
    try:
        return [float(w) for w in obj]
    except OverflowError:
        raise ParseError(f"{where}: a weight is too large for a float") from None


def _str_table(obj, where: str) -> dict:
    """A ``{row: {col: string}}`` object as a dict keyed by ``(row, col)``."""
    _require(isinstance(obj, dict), "{}: expected an object", where)
    out = {}
    for a, row in obj.items():
        _require(isinstance(row, dict), "{}[{!r}]: expected an object", where, a)
        for b, ab in row.items():
            _require(isinstance(ab, str), "{}[{!r}][{!r}]: expected a string", where, a, b)
            out[a, b] = ab
    return out


def action_spec_from_json(obj, where: str = "groupoid") -> ActionGroupoidSpec:
    grp = _get(obj, "group", where)
    elements = _str_list(_get(grp, "elements", f"{where}.group"), f"{where}.group.elements")
    identity = _get(grp, "identity", f"{where}.group")
    _require(isinstance(identity, str), "{}.group.identity: expected a string", where)
    mult = _str_table(_get(grp, "mult_table", f"{where}.group"), f"{where}.group.mult_table")
    raw_inv = _get(grp, "inverses", f"{where}.group")
    _require(
        isinstance(raw_inv, dict) and all(isinstance(v, str) for v in raw_inv.values()),
        "{}.group.inverses: expected an object of strings", where,
    )
    space = _get(obj, "space", where)
    units = _str_list(_get(space, "units", f"{where}.space"), f"{where}.space.units")
    mu = _mu_list(_get(space, "mu", f"{where}.space"), f"{where}.space.mu")
    action = _str_table(_get(obj, "action", where), f"{where}.action")
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
    _require(isinstance(raw_arrows, list), "{}.arrows: expected a list", where)
    arrows, fields = [], ("id", "src", "tgt")
    for k, a in enumerate(raw_arrows):
        if not (isinstance(a, dict) and all(isinstance(a.get(f), str) for f in fields)):
            for f in fields:
                _get(a, f, f"{where}.arrows[{k}]")
            raise ParseError(f"{where}.arrows[{k}]: id/src/tgt must be strings")
        arrows.append(Arrow(*(a[f] for f in fields)))
    raw_inv = _get(obj, "inverse", where)
    _require(
        isinstance(raw_inv, dict) and all(isinstance(v, str) for v in raw_inv.values()),
        "{}.inverse: expected an object of strings", where,
    )
    raw_comp = _get(obj, "composition", where)
    _require(isinstance(raw_comp, list), "{}.composition: expected a list", where)
    if not (set(map(type, raw_comp)) <= {list} and set(map(len, raw_comp)) <= {3}):
        _name_bad_entry(raw_comp, where)
    # One build.  A non-string id fails it as an unknown arrow, and a
    # repeated pair leaves a slot empty or overfills the table, so the list
    # is read again, to let a parse error win, only when the build fails
    # with an unhashable element (TypeError), before it read the list, or
    # with an unknown id or a repeated pair among the index triples.
    try:
        return FiniteMeasuredGroupoid._from_entries(units, mu, arrows, raw_inv, raw_comp)
    except TypeError:
        _name_bad_entry(raw_comp, where)
        raise
    except InvalidGroupoid as exc:
        if not getattr(exc, "clean_entries", False):
            _name_bad_entry(raw_comp, where)
        raise


def _name_bad_entry(raw_comp, where: str):
    """Raise ParseError at the first malformed entry of ``raw_comp`` or repeated pair."""
    seen = set()
    for k, t in enumerate(raw_comp):
        if not (isinstance(t, list) and len(t) == 3):
            break
        h, g, c = t
        if not (isinstance(h, str) and isinstance(g, str) and isinstance(c, str)):
            break
        if (h, g) in seen:
            raise ParseError(f"{where}.composition[{k}]: duplicate entry for pair {(h, g)!r}")
        seen.add((h, g))
    else:
        return
    raise ParseError(f"{where}.composition[{k}]: expected [h, g, hg] strings")


# -- representations --------------------------------------------------------


def representation_to_json(rep: Representation) -> dict:
    out = _representation_value(rep)
    out["groupoid"] = groupoid_to_json(rep.groupoid)
    return out


def _representation_value(rep: Representation) -> dict:
    """``representation_to_json(rep)`` with the groupoid as the object, for :func:`save_json`."""
    return {"groupoid": rep.groupoid, "dim": rep.dim, "arrows": _matrices_to_json(rep.rho)}


def representation_from_json(obj, base_dir: str = ".", where: str = "representation"):
    gobj = _get(obj, "groupoid", where)
    _require(isinstance(gobj, dict), "{}.groupoid: expected an object", where)
    if "file" in gobj and "kind" not in gobj:
        ref = gobj["file"]
        _require(isinstance(ref, str), "{}.groupoid.file: expected a string", where)
        G = load_groupoid(os.path.join(base_dir, ref))
    else:
        G = groupoid_from_json(gobj, f"{where}.groupoid")
    dim = _get(obj, "dim", where)
    _require(type(dim) is int and dim >= 1, "{}.dim: must be a positive int", where)
    raw = _get(obj, "arrows", where)
    _require(isinstance(raw, dict), "{}.arrows: expected an object", where)
    return make_representation(G, dim, _matrices_from_json(raw, f"{where}.arrows"))


def psi_from_json(obj, where: str) -> dict:
    """A witness ``{unit: matrix}`` object as a dict of arrays."""
    _require(isinstance(obj, dict), "{}: expected an object", where)
    return _matrices_from_json(obj, "psi")


def unitarization_to_json(rep, witness, unitary, report) -> dict:
    out = _unitarization_value(rep, witness, unitary, report)
    out["groupoid"] = groupoid_to_json(unitary.groupoid)
    return out


def _unitarization_value(rep, witness, unitary, report) -> dict:
    """``unitarization_to_json`` with the groupoid as the object, for :func:`save_json`."""
    out = _representation_value(unitary)
    out["psi"] = _matrices_to_json({x: p.mat for x, p in witness.psi.items()})
    out["sigma"] = _matrices_to_json({x: s.mat for x, s in witness.sigma.items()})
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


def _json_chunks(obj):
    """``json.dumps(obj, sort_keys=True)`` in pieces, with groupoid objects written in place.

    A :class:`FiniteMeasuredGroupoid`, as ``obj`` itself or as the value of
    its top-level ``"groupoid"`` field, is written as ``groupoid_to_json``
    would give it, with the composition from the index triples.  No piece
    holds the whole text.
    """
    if isinstance(obj, FiniteMeasuredGroupoid):
        fields = {k: [json.dumps(v, sort_keys=True)] for k, v in _groupoid_head(obj).items()}
        fields["composition"] = _composition_chunks(obj)
    elif isinstance(obj, dict) and isinstance(obj.get("groupoid"), FiniteMeasuredGroupoid):
        fields = {k: _json_chunks(v) for k, v in obj.items()}
    else:
        # json.dumps takes the C encoder; json.dump and indent do not.
        yield json.dumps(obj, sort_keys=True)
        return
    sep = "{"
    for k in sorted(fields):
        yield f"{sep}{json.dumps(k)}: "
        yield from fields[k]
        sep = ", "
    yield "}"


def save_json(obj, path: str):
    """Deterministic, atomic JSON write (sorted keys, temp file + rename).

    ``obj`` may hold a groupoid object (see :func:`_json_chunks`).  A failed write
    removes the temp file; an OS error raises ParseError.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.writelines(_json_chunks(obj))
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_groupoid(path: str) -> FiniteMeasuredGroupoid:
    return groupoid_from_json(load_json(path), where=path)


def load_action_spec(path: str) -> ActionGroupoidSpec:
    obj = load_json(path)
    kind = _get(obj, "kind", path)
    _require(kind == "action", "{}: expected an action groupoid, got kind {!r}", path, kind)
    return action_spec_from_json(obj, where=path)


def load_representation(path: str):
    return representation_from_json(
        load_json(path), base_dir=os.path.dirname(os.path.abspath(path)), where=path
    )
