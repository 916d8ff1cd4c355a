"""Finite measured groupoids given by explicit tables.

A groupoid here is a finite set of units carrying probability weights,
a finite set of arrows with source and target, a composition defined
exactly on the composable pairs (src of the left factor equals tgt of the
right factor; ``compose(h, g)`` means "g then h"), an involutive inverse,
and one identity arrow per unit, which the composition determines.
Construction validates every axiom and reports the first failing arrow or
triple.

The checks run over integer tables built once per groupoid.  Arrows are
numbered in sorted-id order, and the composition arrives as int32 index
triples (h, g, hg): the constructor and the JSON parser map their
``[h, g, hg]`` id entries to them in one pass (the parser, for a
composition left in a file's bytes, by a scan of those bytes), while
``build_action_groupoid`` and ``restrict`` hand them over directly.  They
fill one flat int32 table, the only copy kept, with a block per unit y whose
rows are y's source fiber and whose columns are its target fiber, so it holds
exactly the composable pairs; its rows, in arrow order, are the triples
sorted by (h, g), which every reader of the composition takes.  The identity of a
unit is read off its block and each inverse law is one numpy gather over
the table.  Associativity is proved from generators by Light's test
(Clifford & Preston, *The Algebraic Theory of Semigroups*, vol. 1, 1961):
the arrows b with (ab)c == a(bc) for all composable a, c include the
identities and are closed under composition, so it suffices to check such
a set of arrows that generates the others.  Group tables and action
compatibility are proved by one such test on the integer tables a group or
spec holds: a builder's string table is a view over one, and one reader,
``_index_table``, maps any other (a user's or a file's dict) once.  Only
when a proof fails does an exhaustive scan, one gathered block of triples
per middle arrow, run to name the first failing triple; ``check_axioms``
always runs it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations, product, repeat

import numpy as np

from .errors import (
    EmptyRestriction,
    InvalidAction,
    InvalidGroupoid,
    UnknownUnit,
    ZeroMassRestriction,
)

# Probability weights must sum to one within this slack.
MU_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    tgt: str


class IdEntries:
    """A list of ``(h, g, hg)`` id entries, each of three elements.

    ``triples(index)`` maps them to the index triples ``_from_triples``
    takes, through ``index``, a dict from arrow id to rank: an id that is
    unknown, or not a string, maps to -1, and an unhashable one raises
    TypeError.  ``entry(i)`` names entry i as ((h, g), c).
    """

    def __init__(self, entries):
        self.entries = entries

    def triples(self, index):
        m = len(self.entries)
        flat = np.fromiter(
            map(index.get, chain.from_iterable(self.entries), repeat(-1)), np.int32, 3 * m
        )
        return tuple(flat.reshape(m, 3).T)

    def entry(self, i):
        h, g, c = self.entries[i]
        return (h, g), c

    def as_list(self):
        return self.entries


class FiniteMeasuredGroupoid:
    """Explicit-table groupoid with probability weights on its units.

    Parameters
    ----------
    units : iterable of str
    mu : iterable of float
        Probability weights per unit (nonnegative, summing to one).
    arrows : iterable of Arrow
    inverse : dict str -> str
    composition : dict (str, str) -> str
        Keyed by (left, right); defined exactly when src(left) == tgt(right).

    The identity arrow of each unit is derived from ``composition`` and kept
    as ``unit_arrows``, a dict unit -> arrow id.  The composition is kept
    only as the table of composites, filled from the dict's entries in one
    pass; the ``composition`` dict is built from the table's rows on first
    access, in (h, g) order by arrow id.
    """

    def __init__(self, units, mu, arrows, inverse, composition):
        self._setup(units, mu, arrows, inverse)
        comp = dict(composition)
        if not (set(map(type, comp)) <= {tuple} and set(map(len, comp)) <= {2}):
            for hg in comp:
                if not (isinstance(hg, tuple) and len(hg) == 2):
                    raise InvalidGroupoid(f"composition key {hg!r} is not an (h, g) pair")
        entries = IdEntries([(*hg, c) for hg, c in comp.items()])
        self._validate(entries.triples(self._index), entries.entry)

    @classmethod
    def _from_triples(cls, units, mu, arrows, inverse, pairs, entry=None):
        """The groupoid whose composition is the index triples ``pairs``.

        ``pairs`` is ``(ih, ig, ic)``, three int32 arrays: entry k says that
        arrow ``ih[k]`` after ``ig[k]`` is ``ic[k]``, each a rank in sorted
        arrow-id order, or -1 for an id that names no arrow.  They fill the
        table and are not kept.  ``entry`` is as :meth:`_validate` takes it.
        Validation and its messages are the constructor's.
        """
        G = cls.__new__(cls)
        G._setup(units, mu, arrows, inverse)
        G._validate(pairs, entry)
        return G

    def _setup(self, units, mu, arrows, inverse):
        self.units = tuple(units)
        self.mu = np.asarray(tuple(mu), dtype=float)
        self.arrows = tuple(arrows)
        self.inverse = dict(inverse)

        if len(set(self.units)) != len(self.units):
            raise InvalidGroupoid("duplicate unit ids")
        if any(not isinstance(x, str) or not x for x in self.units):
            raise InvalidGroupoid("unit ids must be nonempty strings")
        if self.mu.shape != (len(self.units),):
            raise InvalidGroupoid("mu must assign one weight per unit")
        if not np.all(np.isfinite(self.mu)) or np.any(self.mu < 0.0):
            raise InvalidGroupoid("mu weights must be finite and nonnegative")
        if abs(math.fsum(self.mu) - 1.0) > MU_SUM_TOL:
            raise InvalidGroupoid(f"mu sums to {math.fsum(self.mu)!r}, expected 1")

        self._unit_index = {x: i for i, x in enumerate(self.units)}
        self._by_id = {}
        for a in self.arrows:
            if not isinstance(a.id, str) or not a.id:
                raise InvalidGroupoid(f"arrow id {a.id!r} must be a nonempty string")
            if a.id in self._by_id:
                raise InvalidGroupoid(f"duplicate arrow id {a.id!r}")
            if a.src not in self._unit_index or a.tgt not in self._unit_index:
                raise InvalidGroupoid(f"arrow {a.id!r} references unknown units")
            self._by_id[a.id] = a

        # Arrows are numbered in sorted-id order, so a fiber lists its arrows
        # in index order.  The composite of a composable pair (h, g) through
        # unit y sits in row rank(h in source_fiber(y)), column
        # rank(g in target_fiber(y)) of y's block of the flat table, at
        # ``_base[h] + _trank[g]``; the blocks hold exactly the composable
        # pairs.  ``_validate`` fills the table from the index triples.
        self._ids = tuple(sorted(self._by_id))
        self._index = {g: i for i, g in enumerate(self._ids)}
        ui = self._unit_index
        self._arrow_src = np.array([ui[self._by_id[g].src] for g in self._ids], dtype=np.intp)
        self._arrow_tgt = np.array([ui[self._by_id[g].tgt] for g in self._ids], dtype=np.intp)
        self._out = [np.flatnonzero(self._arrow_src == y) for y in range(len(self.units))]
        self._into = [np.flatnonzero(self._arrow_tgt == y) for y in range(len(self.units))]
        self._srank = np.empty(len(self._ids), dtype=np.intp)
        self._trank = np.empty(len(self._ids), dtype=np.intp)
        for y in range(len(self.units)):
            self._srank[self._out[y]] = np.arange(self._out[y].size)
            self._trank[self._into[y]] = np.arange(self._into[y].size)
        ntgt = np.array([f.size for f in self._into], dtype=np.intp)
        sizes = np.array([f.size for f in self._out], dtype=np.intp) * ntgt
        self._offset = np.concatenate(([0], np.cumsum(sizes)))
        s = self._arrow_src
        self._base = self._offset[s] + self._srank * ntgt[s]

    @cached_property
    def composition(self) -> dict:
        """dict (h, g) -> h after g, in (h, g) order by arrow id."""
        names = np.array(self._ids, dtype=object)
        h, g, c = (names[p].tolist() for p in self._sorted_triples().T)
        return dict(zip(zip(h, g), c))

    def _sorted_triples(self) -> np.ndarray:
        """The index triples as int32 rows (h, g, hg), sorted by (h, g), with no sort.

        Per arrow h in index order, row ``srank[h]`` of block ``src(h)``,
        at ``_base[h]``, holds h after each g into ``src(h)``, in index order.
        """
        fibers = [self._into[y] for y in self._arrow_src.tolist()]
        out = np.empty((self._table.size, 3), dtype=np.int32)
        out[:, 0] = np.repeat(np.arange(len(fibers), dtype=np.int32), [f.size for f in fibers])
        np.concatenate(fibers, out=out[:, 1], casting="same_kind")
        np.concatenate([self._table[b:b + f.size] for b, f in zip(self._base, fibers)],
                       out=out[:, 2])
        return out

    # -- basic accessors ------------------------------------------------

    def arrow(self, g: str) -> Arrow:
        try:
            return self._by_id[g]
        except KeyError:
            raise InvalidGroupoid(f"unknown arrow id {g!r}") from None

    def src(self, g: str) -> str:
        return self.arrow(g).src

    def tgt(self, g: str) -> str:
        return self.arrow(g).tgt

    def inv(self, g: str) -> str:
        self.arrow(g)
        return self.inverse[g]

    def compose(self, h: str, g: str) -> str:
        """Composite "g then h"; defined when src(h) == tgt(g)."""
        i, j = self._index.get(h), self._index.get(g)
        if i is None or j is None or self._arrow_src[i] != self._arrow_tgt[j]:
            raise InvalidGroupoid(f"arrows {h!r} after {g!r} are not composable")
        return self._ids[self._compose_ix(i, j)]

    def unit_weight(self, x: str) -> float:
        try:
            return float(self.mu[self._unit_index[x]])
        except KeyError:
            raise UnknownUnit(f"unknown unit {x!r}") from None

    @property
    def positive_units(self) -> tuple:
        return tuple(x for i, x in enumerate(self.units) if self.mu[i] > 0.0)

    def source_fiber(self, x: str) -> tuple:
        if x not in self._unit_index:
            raise UnknownUnit(f"unknown unit {x!r}")
        return tuple(self._ids[i] for i in self._out[self._unit_index[x]])

    def target_fiber(self, x: str) -> tuple:
        if x not in self._unit_index:
            raise UnknownUnit(f"unknown unit {x!r}")
        return tuple(self._ids[i] for i in self._into[self._unit_index[x]])

    # -- validation ------------------------------------------------------

    def _validate(self, pairs, entry=None, exhaustive=False):
        """Fill the table from the index triples ``pairs`` and check every axiom.

        ``entry(i)`` names entry i as ((h, g), c), by default by the ids at
        its ranks; it is called only to raise.  Associativity is proved by
        Light's test, and scanned triple by triple when that fails or when
        ``exhaustive``.
        """
        ih, ig, ic = pairs
        entry = entry or (lambda i: ((self._ids[ih[i]], self._ids[ig[i]]), self._ids[ic[i]]))
        inv = self.inverse
        by_id = self._by_id
        idx = self._index
        s, t = self._arrow_src, self._arrow_tgt
        srank, trank = self._srank, self._trank

        # Every check reads the triples.  Only known, composable pairs fill
        # slots of the table; an unfilled slot stays -1.
        known = (ih >= 0) & (ig >= 0)
        keyed = known & (s[ih] == t[ig]) if s.size else known
        sel = slice(None) if keyed.all() else keyed  # a view, not a copy
        table = np.full(self._offset[-1], -1, dtype=np.int32)
        table[self._base[ih[sel]] + trank[ig[sel]]] = ic[sel]
        self._table = table
        self._blocks = blocks = [
            table[self._offset[y]:self._offset[y + 1]].reshape(f.size, self._into[y].size)
            for y, f in enumerate(self._out)
        ]

        # Per unit x, the index of its identity: the first loop e, by id,
        # with g . e == g for every g out of x (column rank(e) of x's block)
        # and e . g == g for every g into x (row rank(e)), so no identity law
        # is left to check.
        self._unit = unit = np.empty(len(self.units), dtype=np.intp)
        for y, x in enumerate(self.units):
            out, into, T = self._out[y], self._into[y], blocks[y]
            loops = out[t[out] == y]
            ok = (T[:, trank[loops]] == out[:, None]).all(axis=0)
            ok &= (T[srank[loops]] == into).all(axis=1)
            if not ok.any():
                raise InvalidGroupoid(f"no identity arrow found at unit {x!r}")
            unit[y] = loops[np.argmax(ok)]
        self.unit_arrows = {x: self._ids[e] for x, e in zip(self.units, unit)}

        if set(inv) != set(by_id):
            raise InvalidGroupoid("inverse table must cover exactly the arrow ids")
        for g, gi in inv.items():
            if gi not in by_id:
                raise InvalidGroupoid(f"inverse of {g!r} is an unknown arrow {gi!r}")
            if inv[gi] != g:
                raise InvalidGroupoid(f"inverse is not an involution at {g!r}")
            a, b = by_id[g], by_id[gi]
            if a.src != b.tgt or a.tgt != b.src:
                raise InvalidGroupoid(f"inverse of {g!r} does not swap src and tgt")

        _raise_first(InvalidGroupoid, entry, [
            (~known, "composition {0[0]!r} references unknown arrows"),
            (~keyed, "composition defined on non-composable pair {0[0]!r}"),
            (ic < 0, "composite of {0[0]!r} is an unknown arrow {0[1]!r}"),
            (
                (s[ic] != s[ig]) | (t[ic] != t[ih]),
                "composite {0[1]!r} of {0[0]!r} has wrong endpoints",
            ),
        ])
        # Every entry now fills its own slot, so an unfilled one is a missing
        # pair: named by g in input-arrow order, then h by id.
        if (table < 0).any():
            for a in self.arrows:
                g = idx[a.id]
                missing = blocks[t[g]][:, trank[g]] < 0
                if missing.any():
                    h = self._ids[self._out[t[g]][np.argmax(missing)]]
                    raise InvalidGroupoid(f"composable pair ({h!r}, {a.id!r}) is missing")
        # A full table with one entry per slot lists each pair once.  Dict
        # keys cannot repeat, so only index triples can fail here.
        if ih.size != table.size:
            raise InvalidGroupoid("composition lists a composable pair more than once")

        n = len(self._ids)
        ids = np.arange(n)
        # Per arrow, the index of its inverse.
        self._inv = gi = np.array([idx[inv[g]] for g in self._ids], dtype=np.intp)
        _raise_first(InvalidGroupoid, self._ids.__getitem__, [
            (
                self._compose_ix(gi, ids) != unit[s],
                "inverse law fails at {!r}: inv(g) . g != 1_src",
            ),
            (
                self._compose_ix(ids, gi) != unit[t],
                "inverse law fails at {!r}: g . inv(g) != 1_tgt",
            ),
        ])
        if exhaustive or not self._light_test():
            self._scan_associativity()

    def _compose_ix(self, h, g):
        """Composite indices of composable arrow index arrays ``h`` after ``g``."""
        return self._table[self._base[h] + self._trank[g]]

    def _middle_fails(self, b):
        """Mask [c, a] of (ab)c != a(bc) over every composable a and c.

        a runs over the source fiber of y = tgt(b) and c over the target
        fiber of z = src(b).  In y's block the products ab are column
        rank(b); in z's block the products bc are row rank(b).
        """
        s, t, srank, trank = self._arrow_src, self._arrow_tgt, self._srank, self._trank
        Ty, Tz = self._blocks[t[b]], self._blocks[s[b]]
        return (Tz[srank[Ty[:, trank[b]]]] != Ty[:, trank[Tz[srank[b]]]]).T

    def _light_test(self) -> bool:
        """True when associativity follows from a generating set of arrows.

        The arrows b with (ab)c == a(bc) for all composable a and c include
        the identities and are closed under composition, so the table is
        associative when such arrows generate every arrow under the table's
        own composition.  Per orbit, with r its first unit: one arrow t_y
        from each unit y into r, the inverses of these, and loops at r
        chosen greedily until they and the identity generate every loop at
        r.  These generate the orbit, given the identity and inverse laws
        that ``_validate`` has checked: let b: y -> z be an arrow of the
        orbit and k = (t_z . b) . inv(t_y), a loop at r and so generated.
        Associativity at the middle inv(t_y), the inverse law and the right
        identity give k . t_y = t_z . b; associativity at the middle t_z,
        the inverse law and the left identity give inv(t_z) . (t_z . b) = b.
        So b = inv(t_z) . (k . t_y) is a product of checked arrows.
        """
        s, unit = self._arrow_src, self._unit
        gens = []
        seen = np.zeros(len(self.units), dtype=bool)
        for r in range(len(self.units)):
            if seen[r]:
                continue
            into = self._into[r]
            seen[s[into]] = True
            tree = np.full(len(self.units), -1, dtype=np.intp)
            tree[s[into]] = into  # an arrow from each unit of the orbit
            tree[r] = unit[r]
            tree = tree[tree >= 0]
            loops = into[s[into] == r]
            local = np.full(len(self._ids), -1, dtype=np.intp)
            local[loops] = np.arange(loops.size)
            iso = local[self._blocks[r][np.ix_(self._srank[loops], self._trank[loops])]]
            picked = loops[_generators(iso, local[unit[r]])]
            gens += [tree, self._inv[tree], picked]
        middle = np.zeros(len(self._ids), dtype=bool)
        middle[np.concatenate(gens)], middle[unit] = True, False
        return not any(self._middle_fails(b).any() for b in np.flatnonzero(middle))

    def _scan_associativity(self):
        """Check (ab)c == a(bc) on every composable triple.

        The first failure, ordered by b, then c, then a, each by id, is named.
        """
        for b in range(len(self._ids)):
            bad = self._middle_fails(b)
            if bad.any():
                ci, ai = np.argwhere(bad)[0]
                a, c = self._out[self._arrow_tgt[b]][ai], self._into[self._arrow_src[b]][ci]
                raise InvalidGroupoid(
                    f"associativity fails on triple"
                    f" ({self._ids[a]!r}, {self._ids[b]!r}, {self._ids[c]!r})"
                )


def _generators(mult, e):
    """Indices chosen greedily until they and ``e`` generate all of ``mult``.

    ``mult`` is a square table of indices.  The closure is taken under the
    table itself, with no law assumed, so every index is reached.
    """
    member = np.zeros(len(mult), dtype=bool)
    member[e] = True
    gens = []
    for j in range(len(mult)):
        if member[j]:
            continue
        gens.append(j)
        member[j] = True
        new = np.flatnonzero(member)
        while new.size:
            reached = np.zeros(len(mult), dtype=bool)
            reached[mult[np.ix_(new, gens)]] = True
            new = np.flatnonzero(reached & ~member)
            member[new] = True
    return np.array(gens, dtype=np.intp)


def _raise_first(error, name, checks):
    """Raise ``error`` at the first index failing any ``(mask, message)`` check.

    The message is that of the first check the index fails, formatted with
    ``name(i)``, which is called only then.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise error(next(msg for mask, msg in checks if mask[i]).format(name(i)))


def check_axioms(G: FiniteMeasuredGroupoid) -> bool:
    """Re-run the axiom validation, associativity exhaustively; True when it passes."""
    G._validate(tuple(G._sorted_triples().T), exhaustive=True)
    return True


# -- measures ------------------------------------------------------------


def nu_of(G: FiniteMeasuredGroupoid, arrow_ids) -> float:
    """nu(E) = sum of mu(tgt(g)) over the arrow subset E."""
    return math.fsum(G.unit_weight(G.tgt(g)) for g in arrow_ids)


def nu_by_fiber_count(G: FiniteMeasuredGroupoid, arrow_ids) -> float:
    """nu(E) recomputed as sum_x |target fiber of x meets E| * mu(x).

    The count-times-weight products are accumulated as repeated exact
    addends so the result agrees bit-for-bit with :func:`nu_of` (fsum
    returns the correctly rounded sum either way; a rounded
    multiplication would not).
    """
    E = set(arrow_ids)
    return math.fsum(
        w
        for x in G.units
        for w in [G.unit_weight(x)] * len(E.intersection(G.target_fiber(x)))
    )


def check_invariance(G: FiniteMeasuredGroupoid) -> str:
    """Classify mu as ``invariant``, ``quasi_invariant`` or ``neither``.

    Invariant means nu(g) == nu(inv(g)) for every arrow (exact float
    comparison; weights are carried around unchanged).  Quasi-invariant
    means inversion preserves which arrows carry positive measure.
    """
    nu = G.mu[G._arrow_tgt]  # per arrow g, nu(g); nu[G._inv] is nu(inv(g))
    if np.array_equal(nu, nu[G._inv]):
        return "invariant"
    if np.array_equal(nu > 0.0, nu[G._inv] > 0.0):
        return "quasi_invariant"
    return "neither"


def check_ergodic(G: FiniteMeasuredGroupoid) -> bool:
    """True when all positive-mass units lie in one orbit.

    Saturated unions of orbits are the invariant unit sets of a finite
    groupoid, so this is exactly ergodicity up to null sets.  The orbit of
    a unit r is the set of sources of the arrows into r.
    """
    pos = G.mu > 0.0
    orbit = np.zeros(len(G.units), dtype=bool)
    orbit[G._arrow_src[G._into[int(np.argmax(pos))]]] = True
    return bool(orbit[pos].all())


def restrict(G: FiniteMeasuredGroupoid, units) -> FiniteMeasuredGroupoid:
    """Restriction to a unit subset, with weights renormalized."""
    U = list(dict.fromkeys(units))
    if not U:
        raise EmptyRestriction("restriction to an empty unit set")
    for x in U:
        if x not in G._unit_index:
            raise UnknownUnit(f"unknown unit {x!r}")
    keep = set(U)
    mass = math.fsum(G.unit_weight(x) for x in U)
    if mass == 0.0:
        raise ZeroMassRestriction("restriction carries zero total weight")
    order = [x for x in G.units if x in keep]
    mu = [G.unit_weight(x) / mass for x in order]
    arrows = [a for a in G.arrows if a.src in keep and a.tgt in keep]
    inverse = {a.id: G.inverse[a.id] for a in arrows}
    # Kept ids keep their sorted order, so a kept arrow's new index is the
    # number of kept arrows before it.
    inside = np.array([g in inverse for g in G._ids], dtype=bool)
    rows = G._sorted_triples()
    rows = rows[inside[rows[:, 0]] & inside[rows[:, 1]]]
    rank = np.cumsum(inside, dtype=np.int32) - 1
    return FiniteMeasuredGroupoid._from_triples(order, mu, arrows, inverse, tuple(rank[rows.T]))


# -- groups, actions and the groupoids they generate ----------------------


class _TableView(Mapping):
    """Read-only Mapping (rows[i], cols[j]) -> cols[ix[i, j]] over an integer table.

    Keys iterate in row-major order; no dict of the cells is built.
    """

    def __init__(self, rows, cols, ix):
        self.rows, self.cols, self.ix = rows, cols, ix
        self._rank = dict(zip(rows, range(len(rows)))), dict(zip(cols, range(len(cols))))

    def __getitem__(self, key):
        try:
            r, c = key
            return self.cols[self.ix[self._rank[0][r], self._rank[1][c]]]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        return product(self.rows, self.cols)

    def __len__(self):
        return len(self.rows) * len(self.cols)

    def __repr__(self):
        return f"<{len(self.rows)} x {len(self.cols)} table>"

    def __eq__(self, other):
        if isinstance(other, _TableView) and (self.rows, self.cols) == (other.rows, other.cols):
            return np.array_equal(self.ix, other.ix)
        return super().__eq__(other)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an explicit multiplication table, a Mapping (a, b) -> ab.

    A builder's is a view over its integer ``table``, which any other is read
    into once: a group is not mutated after construction.
    """

    elements: tuple
    mult: Mapping
    identity: str
    inverses: dict

    @cached_property
    def table(self) -> np.ndarray:
        """[a, b] = the index of ab, on element indices."""
        return _held_table(self.mult, self.elements, self.elements,
                           "multiplication table incomplete at ({!r}, {!r})",
                           "multiplication table has an entry for unknown elements {!r}")


def _held_table(table, rows, cols, incomplete, unknown) -> np.ndarray:
    """The table of a view over ``rows`` and ``cols`` as is, else as :func:`_index_table` reads it."""
    if isinstance(table, _TableView) and (table.rows, table.cols) == (rows, cols):
        return table.ix
    return _index_table(table, rows, cols, incomplete, unknown)


def _index_table(table, rows, cols, incomplete, unknown) -> np.ndarray:
    """[i, j] = the index in ``cols`` of table[rows[i], cols[j]], from a dict keyed by (row, col).

    InvalidAction names the first cell, in row-major order, that is missing or holds
    a value outside ``cols`` (``incomplete``), then the first other key (``unknown``).
    """
    index = dict(zip(cols, range(len(cols))))
    cells = map(index.get, map(table.get, product(rows, cols)), repeat(-1))
    out = np.fromiter(cells, np.intp, len(rows) * len(cols)).reshape(len(rows), len(cols))
    if (out < 0).any():
        i, j = np.argwhere(out < 0)[0]
        raise InvalidAction(incomplete.format(rows[i], cols[j]))
    if len(table) != out.size:  # every cell has its entry, so a further key is unknown
        known = set(product(rows, cols))
        for key in table:  # none when a repeated row or column leaves cells over
            if key not in known:
                raise InvalidAction(unknown.format(key))
    return out


def _validate_group(group: FiniteGroup) -> tuple:
    """Check the group axioms; return ``mult``, ``inv`` and generators, on element indices."""
    elems, n = group.elements, len(group.elements)
    eidx = {a: i for i, a in enumerate(elems)}
    if len(eidx) != n:
        raise InvalidAction("duplicate group elements")
    if group.identity not in eidx:
        raise InvalidAction("group identity is not an element")
    mult = group.table
    e = eidx[group.identity]
    r = np.arange(n)
    inv = np.fromiter((eidx.get(group.inverses.get(a), -1) for a in elems), np.intp, n)
    _raise_first(InvalidAction, elems.__getitem__, [
        ((mult[e] != r) | (mult[:, e] != r), "identity law fails at {!r}"),
        (inv < 0, "missing inverse for {!r}"),
        ((mult[r, inv] != e) | (mult[inv, r] != e), "inverse law fails at {!r}"),
    ])
    if len(group.inverses) != n:
        key = next(k for k in group.inverses if k not in eidx)
        raise InvalidAction(f"inverse given for unknown element {key!r}")
    gens = _generators(mult, e)
    bad = _first_incompatible(mult, mult, gens)
    if bad is not None:
        a, b, c = map(elems.__getitem__, bad)
        raise InvalidAction(f"associativity fails on triple ({a!r}, {b!r}, {c!r})")
    return mult, inv, gens


def _first_incompatible(mult, table, gens):
    """First (a, b, x) with table[mult[a, b], x] != table[a, table[b, x]], or None.

    ``table`` is ``mult`` itself for associativity, or an action table
    [element, unit] for compatibility.  By Light's test the b with
    (ab).x == a.(b.x) for all a and x (entry [a, x] of each side) include
    the identity and are closed under ``mult`` (for an action, given that
    ``mult`` is associative), so checking the generators ``gens`` suffices.
    Only when one fails are rows a scanned, entry [b, x], to order the
    first failing triple by a, then b, then x.
    """
    if all((table[mult[:, b]] == table[:, table[b]]).all() for b in gens):
        return None
    for a in range(len(mult)):
        bad = table[mult[a]] != table[a][table]
        if bad.any():
            return (a, *np.argwhere(bad)[0])


@dataclass(frozen=True)
class ActionGroupoidSpec:
    """A finite group acting on weighted units by ``action``, a Mapping (g, x) -> g.x.

    A builder's is a view over its integer ``table``, which any other is read
    into once: a spec is not mutated after construction.
    """

    group: FiniteGroup
    units: tuple
    mu: tuple
    action: Mapping

    @cached_property
    def table(self) -> np.ndarray:
        """[g, x] = the index of g.x, on element and unit indices."""
        return _held_table(self.action, self.group.elements, tuple(self.units),
                           "action incomplete at ({!r}, {!r})",
                           "action given on unknown element or unit {!r}")


def build_action_groupoid(spec: ActionGroupoidSpec) -> FiniteMeasuredGroupoid:
    """Groupoid of the action: one arrow (gamma, x) from x to gamma . x.

    Composition follows (delta, gamma . x) after (gamma, x) =
    (delta gamma, x); arrow ids are rendered as ``"gamma@x"``.
    """
    mult, inv, gens = _validate_group(spec.group)
    group = spec.group
    units = tuple(spec.units)
    if any("@" in str(s) for s in list(group.elements) + list(units)):
        raise InvalidAction("element and unit names must not contain '@'")
    elems = group.elements
    table = spec.table
    for x, y in zip(units, table[elems.index(group.identity)].tolist()):
        if units[y] != x:
            raise InvalidAction(f"identity does not fix unit {x!r}")
    bad = _first_incompatible(mult, table, gens)
    if bad is not None:
        a, b, x = bad
        raise InvalidAction(
            f"action is not compatible on ({elems[a]!r}, {elems[b]!r}, {units[x]!r})"
        )

    # ids[g, x] names the arrow (g, x) from x to g.x; flat index g * nx + x.
    # Arrows and inverses are listed by g, then x; the composition triples
    # by g, then x, then h, at sorted-id ranks.
    ng, nx = table.shape
    ids = np.array([f"{g}@{x}" for g in elems for x in units], dtype=object).reshape(ng, nx)
    flat = ids.ravel().tolist()
    arrows = list(map(Arrow, flat, units * ng, map(units.__getitem__, table.ravel().tolist())))
    inverse = dict(zip(flat, ids[inv[:, None], table].ravel().tolist()))
    rank = np.empty(ng * nx, dtype=np.int32)
    rank[sorted(range(ng * nx), key=flat.__getitem__)] = np.arange(ng * nx)
    rank = rank.reshape(ng, nx)
    # At [g, x, h]: (h, g.x) after (g, x) is (hg, x).
    after = rank[np.arange(ng), table[:, :, None]].ravel()
    before = np.repeat(rank.ravel(), ng)
    hg = rank[mult.T[:, None, :], np.arange(nx)[:, None]].ravel()
    return FiniteMeasuredGroupoid._from_triples(
        units, spec.mu, arrows, inverse, (after, before, hg)
    )


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements r0 .. r{n-1} and rk * rj = r{(k+j) mod n}."""
    if n < 1:
        raise InvalidAction("cyclic group order must be positive")
    elems, r = tuple(f"r{i}" for i in range(n)), np.arange(n)
    inverses = {f"r{i}": f"r{(n - i) % n}" for i in range(n)}
    return FiniteGroup(elems, _TableView(elems, elems, (r[:, None] + r) % n), "r0", inverses)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0, .., n-1}; an element named "q0..q{n-1}" maps i to q_i."""
    if not 1 <= n <= 9:
        raise InvalidAction("symmetric group supported for 1 <= n <= 9")
    # Rows in lexicographic order, so their base-n codes are sorted.
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    place = n ** np.arange(n - 1, -1, -1)
    codes = perms @ place
    comp = np.zeros((len(perms), len(perms)), dtype=np.intp)  # [p, r]: the code of p after r
    for i in range(n):  # one digit at a time, with no (n!, n!, n) temporary
        comp += np.take(perms * place[i], perms[:, i], axis=1)
    prod = np.searchsorted(codes, comp)
    inverse = np.searchsorted(codes, np.argsort(perms, axis=1) @ place)
    elems = tuple("".join(map(str, p)) for p in perms.tolist())
    inverses = dict(zip(elems, map(elems.__getitem__, inverse.tolist())))
    return FiniteGroup(elems, _TableView(elems, elems, prod), elems[0], inverses)


def uniform_mu(k: int) -> tuple:
    return tuple(1.0 / k for _ in range(k))


def left_translation_action(group: FiniteGroup, mu=None) -> ActionGroupoidSpec:
    """The group acting on itself by left multiplication."""
    units = tuple(f"u{e}" for e in group.elements)
    mu = uniform_mu(len(units)) if mu is None else mu
    return ActionGroupoidSpec(group, units, tuple(mu), _TableView(group.elements, units, group.table))


def natural_permutation_action(n: int, mu=None) -> ActionGroupoidSpec:
    """S_n acting on the n units x0 .. x{n-1}."""
    group = symmetric_group(n)
    units = tuple(f"x{i}" for i in range(n))
    points = np.array([list(map(int, p)) for p in group.elements], dtype=np.intp)
    mu = uniform_mu(n) if mu is None else mu
    return ActionGroupoidSpec(group, units, tuple(mu), _TableView(group.elements, units, points))


def ordered_pair_action(n: int, mu=None) -> ActionGroupoidSpec:
    """S_n acting on ordered pairs of distinct points (n*(n-1) units)."""
    natural = natural_permutation_action(n)
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # the pairs, in row-major order
    units = tuple(f"x{a}{b}" for a, b in zip(i.tolist(), j.tolist()))
    rank = np.zeros((n, n), dtype=np.intp)
    rank[i, j] = np.arange(i.size)
    p, group = natural.table, natural.group
    table = rank[p[:, i], p[:, j]]  # p sends x{a}{b} to x{p[a]}{p[b]}
    mu = uniform_mu(len(units)) if mu is None else mu
    return ActionGroupoidSpec(group, units, tuple(mu), _TableView(group.elements, units, table))


def cyclic_shift_action(n: int, copies: int = 1, mu=None) -> ActionGroupoidSpec:
    """Z/n shifting ``copies`` disjoint cycles of n units each."""
    group = cyclic_group(n)
    units = tuple(f"x{b}_{i}" for b in range(copies) for i in range(n))
    u = np.arange(len(units))  # x{b}_{i} is unit b * n + i
    table = u - u % n + (u + np.arange(n)[:, None]) % n
    mu = uniform_mu(len(units)) if mu is None else mu
    return ActionGroupoidSpec(group, units, tuple(mu), _TableView(group.elements, units, table))


def trivial_action(group: FiniteGroup, units, mu) -> ActionGroupoidSpec:
    """Every group element fixes every unit."""
    units = tuple(units)
    table = np.broadcast_to(np.arange(len(units)), (len(group.elements), len(units)))
    return ActionGroupoidSpec(group, units, tuple(mu), _TableView(group.elements, units, table))
