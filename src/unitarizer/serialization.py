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

Every input file is read by :func:`read_json`.  When an explicit
composition list is in the layout ``json.dumps`` writes, in a file with
no backslash, and sits in the file's value or its ``"groupoid"`` field,
the reader leaves it in the file's bytes (:class:`CompositionSpan`) and
``json.loads`` parses the rest of the text; the structural index of that
list is the positions of its quotes, found by one vectorized scan (after
Langdale & Lemire, "Parsing gigabytes of JSON per second", VLDB Journal
2019).  The build maps its ids to index triples in blocks of rows,
matching the 8-byte words at each id exactly against the groupoid's own
encoded ids, so no id string is made.  An entry is decoded, or the list
parsed, only to name a failure.  Any other file is read by :func:`load_json`.

Writers are deterministic (sorted keys, ``json.dumps``' C encoder) and
atomic (write to a temp file, then rename).  :func:`save_json` also takes
a groupoid object, alone or as the ``"groupoid"`` field of an output
dict, and writes the bytes of its ``groupoid_to_json`` dict without
building it: each arrow id is encoded once, the rows of the composite
table, read in (h, g) order with no sort, gather the encoded ids, and
each block of rows is joined into one piece of the composition text.
The file is written piece by piece, so no string holds the whole text.
The CLI hands it its outputs that way; the public ``*_to_json`` functions
return plain JSON dicts.  Matrices are written from one stack, a
representation's arrows from its ``mats``.
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
    IdEntries,
    build_action_groupoid,
)
from .representation import Representation, make_representation

# Rows of the composition list written per piece, or mapped to index
# triples per block: small enough that no piece or block holds more than a
# few hundred kilobytes.
_ROWS_PER_CHUNK = 4096

# Bytes of a composition list searched for quotes per window.
_SCAN_BYTES = 1 << 18


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
    """``{"dim": n, "rows": ...}`` of one n x n matrix, by :func:`_matrices_to_json`."""
    return _matrices_to_json([0], [m])[0]


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


def _matrices_to_json(keys, stack) -> dict:
    """``{key: matrix object}`` over ``keys`` and a stack of n x n matrices: the one encoder."""
    try:
        a = np.asarray(stack, dtype=np.complex128)
    except ValueError:  # a ragged nested list
        a = np.empty(0)
    _require(a.ndim == 3 and a.shape[1] == a.shape[2], "matrix: not square")
    rows = np.stack((a.real, a.imag), -1).tolist()
    return {k: {"dim": a.shape[1], "rows": r} for k, r in zip(keys, rows)}


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
    names, rows = np.array(G._ids, dtype=object), G._sorted_triples()
    out["composition"] = comp = []
    for start in range(0, len(rows), _ROWS_PER_CHUNK):  # no (pairs, 3) array of ids
        comp += names[rows[start:start + _ROWS_PER_CHUNK]].tolist()
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


def _composition_chunks(G: FiniteMeasuredGroupoid):
    """``json.dumps(groupoid_to_json(G)["composition"])`` in pieces, from the composite table.

    Each id is encoded once, in three forms: ``["h", ``, ``"g", `` and
    ``"hg"], ``.  Per block of the rows ``G._sorted_triples()`` reads off
    the table, one gather picks each row's three pieces and one join
    writes them.
    """
    n = len(G._ids)
    ids = [json.dumps(g) for g in G._ids]
    forms = np.array(
        [f"[{g}, " for g in ids] + [f"{g}, " for g in ids] + [f"{g}], " for g in ids],
        dtype=object,
    )
    rows = G._sorted_triples()
    yield "["
    for start in range(0, len(rows), _ROWS_PER_CHUNK):
        pieces = forms[(rows[start:start + _ROWS_PER_CHUNK] + (0, n, 2 * n)).ravel()].tolist()
        if start + _ROWS_PER_CHUNK >= len(rows):
            pieces[-1] = pieces[-1][:-2]  # no separator after the last row
        yield "".join(pieces)
    yield "]"


def _name_table(rows, cols, table) -> dict:
    """``{rows[i]: {cols[j]: cols[table[i, j]]}}`` of an integer table."""
    names = np.array(cols, dtype=object)[table].tolist()
    return {a: dict(zip(cols, row)) for a, row in zip(rows, names)}


def action_spec_to_json(spec: ActionGroupoidSpec) -> dict:
    grp = spec.group
    return {
        "kind": "action",
        "group": {
            "elements": list(grp.elements),
            "mult_table": _name_table(grp.elements, grp.elements, grp.table),
            "identity": grp.identity,
            "inverses": dict(grp.inverses),
        },
        "space": {
            "units": list(spec.units),
            "mu": [float(w) for w in spec.mu],
        },
        "action": _name_table(grp.elements, spec.units, spec.table),
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
    if isinstance(raw_comp, CompositionSpan):
        entries = raw_comp  # string triples, in the layout json.dumps writes
    else:
        _require(isinstance(raw_comp, list), "{}.composition: expected a list", where)
        if not (set(map(type, raw_comp)) <= {list} and set(map(len, raw_comp)) <= {3}):
            _name_bad_entry(raw_comp, where)
        entries = IdEntries(raw_comp)
    # One build, from the entries' index triples at sorted-id ranks.  A
    # non-string id maps to -1, as an unknown one does, and a repeated pair
    # repeats its ranks, so the list is read again, to let a parse error
    # win, only when an unhashable element fails the mapping (TypeError),
    # or when the build fails and the triples show either.
    index = {g: i for i, g in enumerate(sorted({a.id for a in arrows}))}
    try:
        pairs = ih, ig, _ = entries.triples(index)
        return FiniteMeasuredGroupoid._from_triples(
            units, mu, arrows, raw_inv, pairs, entries.entry
        )
    except TypeError:
        _name_bad_entry(entries.as_list(), where)
        raise
    except InvalidGroupoid:
        key = ih.astype(np.intp) * len(index) + ig  # an int32 product would wrap
        if np.less(pairs, 0).any() or not np.diff(np.sort(key)).all():
            _name_bad_entry(entries.as_list(), where)
        raise
    finally:
        if isinstance(entries, CompositionSpan):
            entries.release()


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
    arrows = _matrices_to_json(rep.groupoid._ids, rep.mats)  # in sorted id order
    return {"groupoid": rep.groupoid, "dim": rep.dim, "arrows": arrows}


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
    return _matrices_from_json(obj, where)


def unitarization_to_json(rep, witness, unitary, report) -> dict:
    out = _unitarization_value(rep, witness, unitary, report)
    out["groupoid"] = groupoid_to_json(unitary.groupoid)
    return out


def _unitarization_value(rep, witness, unitary, report) -> dict:
    """``unitarization_to_json`` with the groupoid as the object, for :func:`save_json`."""
    out = _representation_value(unitary)
    units = sorted(witness.psi)
    out["psi"] = _matrices_to_json(units, [witness.psi[x].mat for x in units])
    out["sigma"] = _matrices_to_json(units, [witness.sigma[x].mat for x in units])
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def read_json(path: str):
    """``load_json(path)``, with an explicit composition left in the file's bytes.

    When the file has no backslash and holds exactly one ``"composition"``
    key, whose list is in the layout ``json.dumps`` writes (see
    :meth:`CompositionSpan.find`), the rest of the text is parsed with
    ``null`` in the list's place.  If that parses and the key sits in the
    file's value, or else in its top-level ``"groupoid"`` field, the key's
    value is a :class:`CompositionSpan`.  Any other file is read again by
    :func:`load_json`, so every value and error is the same.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    span = None if b"\\" in data else CompositionSpan.find(data)
    if span is not None:
        try:
            obj = json.loads(data[:span.start].decode() + "null" + data[span.end:].decode())
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
            obj = None
        if isinstance(obj, dict):
            holder = obj if "composition" in obj else obj.get("groupoid")
            # The file's one "composition" key is the one at the splice.
            if isinstance(holder, dict) and "composition" in holder:
                holder["composition"] = span
                return obj
    data = span = obj = None  # hold neither the bytes nor a failed splice
    return load_json(path)


class CompositionSpan:
    """A composition list in the bytes of a file, read as :class:`IdEntries` reads a list.

    The list is ``data[start:end]``; ``quotes`` holds, per entry, the
    positions of the six quotes of its three ids.  The ids are mapped to
    index triples by a scan of those bytes (:meth:`triples`); an entry is
    decoded (:meth:`entry`) and the list parsed (:meth:`as_list`) only to
    name a failure.  One build reads a span: ``groupoid_from_json`` then
    releases its bytes, so that they do not outlive the build.
    """

    _KEY = b'"composition"'

    def __init__(self, data: bytes, start: int, end: int, quotes: np.ndarray):
        self.data, self.start, self.end, self.quotes = data, start, end, quotes

    @classmethod
    def find(cls, data: bytes):
        """The span of the one ``"composition"`` key's list in ``data``, or None.

        None unless the text holds exactly one ``"composition"`` followed by
        a colon, and its value is a list of id triples in the layout
        ``json.dumps`` writes: ``[["h", "g", "hg"], ["h", ...]]``, in valid
        UTF-8, with no control character in any id.  ``data`` holds
        no backslash, so no string holds a quote: in valid JSON that text is
        a key, and every quote of the list opens or closes one of its ids.
        The caller parses the rest of the text, which fails unless the file
        is valid JSON.
        """
        key, pos = None, 0
        while (p := data.find(cls._KEY, pos)) >= 0:
            pos = p + len(cls._KEY)
            colon = _skip_space(data, pos)
            if data.startswith(b":", colon):
                if key is not None:
                    return None
                key = colon + 1
        if key is None:
            return None
        start = _skip_space(data, key)
        if not data.startswith(b'[["', start):
            return None
        # The list ends after the first entry whose sixth quote, the one
        # that closes its third id, is followed by "]]".
        buf = np.frombuffer(data, dtype=np.uint8)
        position = np.int32 if buf.size < 2**31 else np.intp
        chunks, count, ascii = [], 0, True
        for lo in range(start, buf.size, _SCAN_BYTES):
            q = np.flatnonzero(buf[lo:lo + _SCAN_BYTES] == ord('"')).astype(position) + lo
            sixth = q[(5 - count) % 6::6]
            last = sixth[buf[np.minimum(sixth + 2, buf.size - 1)] == ord("]")][:1]
            if last.size:
                q = q[q <= last[0]]
            chunks.append(q)
            count += q.size
            window = buf[lo:q[-1] + 3] if last.size else buf[lo:lo + _SCAN_BYTES]
            if ((window - 0x20) >= 0x60).any():  # a control or non-ASCII byte
                if (window < 0x20).any():
                    return None
                ascii = False
            if last.size:
                break
        else:
            return None
        end = int(last[0]) + 3
        if not ascii:
            try:
                data[start:end].decode()
            except UnicodeDecodeError:
                return None
        # Every quote of the list now sits in an entry, so the text between
        # them fixes the layout: ", " inside an entry and "], [" between
        # entries, after '[["' and before '"]]'.
        quotes = np.concatenate(chunks).reshape(-1, 6)
        inner, closing = quotes[:, 1:4:2], quotes[:-1, 5]
        layout = (
            data.startswith(b'"]]', end - 3)
            and (quotes[:, 2:5:2] - inner == 3).all()
            and (quotes[1:, 0] - closing == 5).all()
            and (_words_at(data, 2)[inner + 1] == int.from_bytes(b", ", "big")).all()
            and (_words_at(data, 4)[closing + 1] == int.from_bytes(b"], [", "big")).all()
        )
        return cls(data, start, end, quotes) if layout else None

    def triples(self, index):
        """The entries as index triples ``(ih, ig, ic)``, -1 for an unknown id.

        ``index`` maps each arrow id to its rank, in rank order.  An id of
        up to 8w bytes is read as w big-endian 8-byte words, zero past its
        end.  No id read from a file without escapes holds a NUL, so equal
        words mean equal ids.  The words at each id of a block of entries
        are gathered from the bytes and looked up in a :class:`_WordTable`
        of the arrows' encoded ids.
        """
        ids = [g.encode() for g in index]
        m = len(self.quotes)
        if not ids:
            return tuple(np.full((3, m), -1, dtype=np.int32))
        width = -(-max(map(len, ids)) // 8)
        padded = b"".join(g.ljust(8 * width, b"\0") for g in ids)
        table = _WordTable(list(np.frombuffer(padded, dtype=">u8").reshape(len(ids), width).T))
        # A word that would run past the end of the file is read at its
        # last word and shifted.
        size = len(self.data)
        at_byte = _words_at(self.data, 8)
        keep = np.array([0] + [2**64 - 2 ** (64 - 8 * r) for r in range(1, 9)], dtype=np.uint64)
        out = np.empty((m, 3), dtype=np.int32)
        for b in range(0, m, _ROWS_PER_CHUNK):
            rows = self.quotes[b:b + _ROWS_PER_CHUNK]
            first = rows[:, 0::2].ravel() + 1
            length = rows[:, 1::2].ravel() - first
            words = []
            for k in range(width):
                pos = first + 8 * k
                inside = np.minimum(pos, size - 8)
                word = at_byte[inside].astype(np.uint64) << (8 * (pos - inside)).astype(np.uint64)
                words.append(word & keep[np.clip(length - 8 * k, 0, 8)])
            rank = table.lookup(words)
            rank[length > 8 * width] = -1
            out[b:b + len(rows)] = rank.reshape(-1, 3)
        return tuple(out.T)

    def entry(self, i):
        o = self.quotes[i].tolist()
        h, g, c = (self.data[o[k] + 1:o[k + 1]].decode() for k in (0, 2, 4))
        return (h, g), c

    def as_list(self) -> list:
        return json.loads(self.data[self.start:self.end].decode())

    def release(self):
        self.data = self.quotes = None


class _WordTable:
    """Exact lookup of keys made of 64-bit words among n distinct keys.

    A key is given as its columns of words.  The keys are grouped in
    ``2**bits >= 2n`` buckets by a multiplicative hash, and a query is
    compared with the keys of its bucket in turn: all queries with the
    first, then the ones still unmatched with the next, so a lookup takes
    as many vectorized steps as the fullest bucket holds keys.
    """

    _MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, columns):
        bits = (2 * len(columns[0]) - 1).bit_length()
        self.shift = np.uint64(64 - bits)
        bucket = self._bucket(columns)
        self.order = np.argsort(bucket, kind="stable")
        self.columns = [c[self.order] for c in columns]
        self.first = np.searchsorted(bucket[self.order], np.arange(2**bits + 1))

    def _bucket(self, columns):
        h = np.zeros(len(columns[0]), dtype=np.uint64)
        for c in columns:
            h = (h ^ c) * self._MULTIPLIER
        return (h >> self.shift).astype(np.intp)

    def _equal(self, at, columns, which=slice(None)):
        eq = self.columns[0][at] == columns[0][which]
        for mine, theirs in zip(self.columns[1:], columns[1:]):
            eq &= mine[at] == theirs[which]
        return eq

    def lookup(self, columns) -> np.ndarray:
        """Per query key, the index of the equal key, or -1."""
        bucket = self._bucket(columns)
        at, end = self.first[bucket], self.first[bucket + 1]
        # A key of another bucket differs from the query, so the first
        # step may compare the queries of empty buckets with any key.
        first = np.minimum(at, len(self.order) - 1)
        hit = self._equal(first, columns)
        out = np.where(hit, self.order[first], -1)
        todo = np.flatnonzero(~hit & (at + 1 < end))
        at = at[todo] + 1
        while todo.size:
            hit = self._equal(at, columns, todo)
            out[todo[hit]] = self.order[at[hit]]
            at += 1
            more = ~hit & (at < end[todo])
            todo, at = todo[more], at[more]
        return out


def _words_at(data: bytes, size: int) -> np.ndarray:
    """The big-endian unsigned word of ``size`` bytes at each byte of ``data``, as a view."""
    return np.ndarray((len(data) - size + 1,), dtype=f">u{size}", buffer=data, strides=(1,))


def _skip_space(data: bytes, pos: int) -> int:
    """The first position at or after ``pos`` that is not JSON whitespace."""
    while data[pos:pos + 1] in (b" ", b"\t", b"\n", b"\r"):
        pos += 1
    return pos


def load_groupoid(path: str) -> FiniteMeasuredGroupoid:
    return groupoid_from_json(read_json(path), where=path)


def load_action_spec(path: str) -> ActionGroupoidSpec:
    obj = read_json(path)
    kind = _get(obj, "kind", path)
    _require(kind == "action", "{}: expected an action groupoid, got kind {!r}", path, kind)
    return action_spec_from_json(obj, where=path)


def load_representation(path: str):
    return representation_from_json(
        read_json(path), base_dir=os.path.dirname(os.path.abspath(path)), where=path
    )
