"""Finite measured groupoids given by explicit tables.

A groupoid here is a finite set of units carrying probability weights,
a finite set of arrows with source and target, a composition defined
exactly on the composable pairs (src of the left factor equals tgt of the
right factor; ``compose(h, g)`` means "g then h"), an involutive inverse,
and one identity arrow per unit, which the composition determines.
Construction validates every axiom exhaustively and reports the first
failing arrow or triple.

The checks run over integer tables built once per groupoid, from one read
of the composition dict.  Arrows are numbered in sorted-id order; the
composites sit in one flat table with a block per unit y, whose rows are
y's source fiber and whose columns are its target fiber, so the table holds
exactly the composable pairs.  The identity of a unit is read off its
block, each inverse law is one numpy gather over the table, and
associativity is one gathered block of triples per middle arrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, islice, permutations, product, repeat

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
    as ``unit_arrows``, a dict unit -> arrow id.
    """

    def __init__(self, units, mu, arrows, inverse, composition):
        self.units = tuple(units)
        self.mu = np.asarray(tuple(mu), dtype=float)
        self.arrows = tuple(arrows)
        self.inverse = dict(inverse)
        self.composition = dict(composition)

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
        # pairs.  ``_validate`` fills the table from ``composition``.
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
        self._validate()

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
        try:
            return self.composition[(h, g)]
        except KeyError:
            raise InvalidGroupoid(f"arrows {h!r} after {g!r} are not composable") from None

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

    def _validate(self):
        comp = self.composition
        inv = self.inverse
        by_id = self._by_id
        idx = self._index
        s, t = self._arrow_src, self._arrow_tgt
        srank, trank = self._srank, self._trank

        # The one pass over the entries: index triples in dict order, -1 for
        # an unknown id.  Every other check reads these arrays.  Only known,
        # composable pairs fill slots of the table; an unfilled slot stays -1.
        m = len(comp)
        keys = np.fromiter(map(idx.get, chain.from_iterable(comp), repeat(-1)), np.intp, 2 * m)
        ih, ig = keys.reshape(m, 2).T
        ic = np.fromiter(map(idx.get, comp.values(), repeat(-1)), np.intp, m)
        known = (ih >= 0) & (ig >= 0)
        keyed = known & (s[ih] == t[ig]) if s.size else known
        sel = slice(None) if keyed.all() else keyed  # a view, not a copy
        table = np.full(self._offset[-1], -1, dtype=np.intp)
        table[self._base[ih[sel]] + trank[ig[sel]]] = ic[sel]
        self._pairs = (ih, ig, ic)
        self._table = table
        blocks = [
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

        # Entries are named as ((h, g), c).
        _raise_first(InvalidGroupoid, lambda i: next(islice(comp.items(), i, None)), [
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

        # (ab)c == a(bc), one block per arrow b: a runs over the source fiber
        # of y = tgt(b) and c over the target fiber of z = src(b).  In y's
        # block the products ab are column rank(b); in z's block the
        # products bc are row rank(b).
        for b in range(n):
            Ty, Tz = blocks[t[b]], blocks[s[b]]
            bad = Tz[srank[Ty[:, trank[b]]]] != Ty[:, trank[Tz[srank[b]]]]
            if bad.any():
                ci, ai = np.argwhere(bad.T)[0]
                a, c = self._out[t[b]][ai], self._into[s[b]][ci]
                raise InvalidGroupoid(
                    f"associativity fails on triple"
                    f" ({self._ids[a]!r}, {self._ids[b]!r}, {self._ids[c]!r})"
                )

    def _compose_ix(self, h, g):
        """Composite indices of composable arrow index arrays ``h`` after ``g``."""
        return self._table[self._base[h] + self._trank[g]]


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
    """Re-run the exhaustive axiom validation; True when it passes."""
    G._validate()
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
    ids = {a.id for a in arrows}
    inverse = {g: G.inverse[g] for g in ids}
    inside = np.array([g in ids for g in G._ids], dtype=bool)
    ih, ig, _ = G._pairs  # in the order of G.composition
    composition = dict(compress(G.composition.items(), inside[ih] & inside[ig]))
    return FiniteMeasuredGroupoid(order, mu, arrows, inverse, composition)


# -- groups, actions and the groupoids they generate ----------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an explicit multiplication table."""

    elements: tuple
    mult: dict
    identity: str
    inverses: dict


def _validate_group(group: FiniteGroup) -> tuple:
    """Check the group axioms; return the ``mult`` and ``inv`` tables on element indices."""
    elems = group.elements
    eset = set(elems)
    if len(eset) != len(elems):
        raise InvalidAction("duplicate group elements")
    if group.identity not in eset:
        raise InvalidAction("group identity is not an element")
    n = len(elems)
    eidx = {a: i for i, a in enumerate(elems)}
    mult = np.fromiter(
        (eidx.get(group.mult.get((a, b)), -1) for a in elems for b in elems), np.intp, n * n
    ).reshape(n, n)
    if (mult < 0).any():
        a, b = np.argwhere(mult < 0)[0]
        raise InvalidAction(f"multiplication table incomplete at ({elems[a]!r}, {elems[b]!r})")
    e = eidx[group.identity]
    r = np.arange(n)
    inv = np.fromiter((eidx.get(group.inverses.get(a), -1) for a in elems), np.intp, n)
    _raise_first(InvalidAction, elems.__getitem__, [
        ((mult[e] != r) | (mult[:, e] != r), "identity law fails at {!r}"),
        (inv < 0, "missing inverse for {!r}"),
        ((mult[r, inv] != e) | (mult[inv, r] != e), "inverse law fails at {!r}"),
    ])
    # (ab)c == a(bc), one row a at a time: entry [b, c] of each side.
    for a in range(n):
        bad = mult[mult[a]] != mult[a][mult]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            raise InvalidAction(
                f"associativity fails on triple ({elems[a]!r}, {elems[b]!r}, {elems[c]!r})"
            )
    return mult, inv


@dataclass(frozen=True)
class ActionGroupoidSpec:
    """A finite group acting on weighted units."""

    group: FiniteGroup
    units: tuple
    mu: tuple
    action: dict  # (element, unit) -> unit


def build_action_groupoid(spec: ActionGroupoidSpec) -> FiniteMeasuredGroupoid:
    """Groupoid of the action: one arrow (gamma, x) from x to gamma . x.

    Composition follows (delta, gamma . x) after (gamma, x) =
    (delta gamma, x); arrow ids are rendered as ``"gamma@x"``.
    """
    mult, inv = _validate_group(spec.group)
    group = spec.group
    units = tuple(spec.units)
    if any("@" in str(s) for s in list(group.elements) + list(units)):
        raise InvalidAction("element and unit names must not contain '@'")
    act = spec.action
    elems = group.elements
    uidx = {x: i for i, x in enumerate(units)}
    table = np.fromiter(
        (uidx.get(act.get((g, x)), -1) for g in elems for x in units),
        np.intp,
        len(elems) * len(units),
    ).reshape(len(elems), len(units))
    if (table < 0).any():
        g, x = np.argwhere(table < 0)[0]
        raise InvalidAction(f"action incomplete at ({elems[g]!r}, {units[x]!r})")
    for x in units:
        if act[(group.identity, x)] != x:
            raise InvalidAction(f"identity does not fix unit {x!r}")
    # (ab).x == a.(b.x), one row a at a time: entry [b, x] of each side.
    for a in range(len(elems)):
        bad = table[mult[a]] != table[a][table]
        if bad.any():
            b, x = np.argwhere(bad)[0]
            raise InvalidAction(
                f"action is not compatible on ({elems[a]!r}, {elems[b]!r}, {units[x]!r})"
            )

    # ids[g, x] names the arrow (g, x) from x to g.x.  Each table is one
    # gather of ids, listed by g, then x (then h), so every key and value
    # is one of the arrow id strings.
    ng, nx = table.shape
    ids = np.array([f"{g}@{x}" for g in elems for x in units], dtype=object).reshape(ng, nx)
    flat = ids.ravel().tolist()
    arrows = list(map(Arrow, flat, units * ng, map(units.__getitem__, table.ravel().tolist())))
    inverse = dict(zip(flat, ids[inv[:, None], table].ravel().tolist()))
    # At [g, x, h]: (h, g.x) after (g, x) is (hg, x).
    after = ids[np.arange(ng), table[:, :, None]].ravel().tolist()
    before = np.repeat(ids.ravel(), ng).tolist()
    hg = ids[mult.T[:, None, :], np.arange(nx)[:, None]].ravel().tolist()
    composition = dict(zip(zip(after, before), hg))
    return FiniteMeasuredGroupoid(units, spec.mu, arrows, inverse, composition)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements r0 .. r{n-1} and rk * rj = r{(k+j) mod n}."""
    if n < 1:
        raise InvalidAction("cyclic group order must be positive")
    elems = tuple(f"r{i}" for i in range(n))
    mult = {
        (f"r{i}", f"r{j}"): f"r{(i + j) % n}" for i in range(n) for j in range(n)
    }
    inverses = {f"r{i}": f"r{(n - i) % n}" for i in range(n)}
    return FiniteGroup(elems, mult, "r0", inverses)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0, .., n-1}; an element named "q0..q{n-1}" maps i to q_i."""
    if not 1 <= n <= 9:
        raise InvalidAction("symmetric group supported for 1 <= n <= 9")
    # Rows in lexicographic order, so their base-n codes are sorted.
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    place = n ** np.arange(n - 1, -1, -1)
    codes = perms @ place
    prod = np.searchsorted(codes, perms[:, perms] @ place)  # [p, r]: p after r
    inverse = np.searchsorted(codes, np.argsort(perms, axis=1) @ place)
    elems = tuple("".join(map(str, p)) for p in perms.tolist())
    mult = dict(zip(product(elems, repeat=2), map(elems.__getitem__, prod.ravel().tolist())))
    inverses = dict(zip(elems, map(elems.__getitem__, inverse.tolist())))
    return FiniteGroup(elems, mult, elems[0], inverses)


def uniform_mu(k: int) -> tuple:
    return tuple(1.0 / k for _ in range(k))


def left_translation_action(group: FiniteGroup, mu=None) -> ActionGroupoidSpec:
    """The group acting on itself by left multiplication."""
    units = tuple(f"u{e}" for e in group.elements)
    action = {
        (g, f"u{x}"): f"u{group.mult[(g, x)]}"
        for g in group.elements
        for x in group.elements
    }
    if mu is None:
        mu = uniform_mu(len(units))
    return ActionGroupoidSpec(group, units, tuple(mu), action)


def natural_permutation_action(n: int, mu=None) -> ActionGroupoidSpec:
    """S_n acting on the n units x0 .. x{n-1}."""
    group = symmetric_group(n)
    units = tuple(f"x{i}" for i in range(n))
    action = {
        (p, f"x{i}"): f"x{int(p[i])}" for p in group.elements for i in range(n)
    }
    if mu is None:
        mu = uniform_mu(n)
    return ActionGroupoidSpec(group, units, tuple(mu), action)


def ordered_pair_action(n: int, mu=None) -> ActionGroupoidSpec:
    """S_n acting on ordered pairs of distinct points (n*(n-1) units)."""
    group = symmetric_group(n)
    units = tuple(f"x{i}{j}" for i in range(n) for j in range(n) if i != j)
    action = {}
    for p in group.elements:
        for x in units:
            i, j = int(x[1]), int(x[2])
            action[(p, x)] = f"x{int(p[i])}{int(p[j])}"
    if mu is None:
        mu = uniform_mu(len(units))
    return ActionGroupoidSpec(group, units, tuple(mu), action)


def cyclic_shift_action(n: int, copies: int = 1, mu=None) -> ActionGroupoidSpec:
    """Z/n shifting ``copies`` disjoint cycles of n units each."""
    group = cyclic_group(n)
    units = tuple(f"x{b}_{i}" for b in range(copies) for i in range(n))
    action = {}
    for k in range(n):
        for b in range(copies):
            for i in range(n):
                action[(f"r{k}", f"x{b}_{i}")] = f"x{b}_{(i + k) % n}"
    if mu is None:
        mu = uniform_mu(len(units))
    return ActionGroupoidSpec(group, units, tuple(mu), action)


def trivial_action(group: FiniteGroup, units, mu) -> ActionGroupoidSpec:
    """Every group element fixes every unit."""
    units = tuple(units)
    action = {(g, x): x for g in group.elements for x in units}
    return ActionGroupoidSpec(group, units, tuple(mu), action)
