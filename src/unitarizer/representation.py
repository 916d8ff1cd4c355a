"""Uniformly bounded groupoid representations and their unitarization.

A representation assigns an invertible matrix to every arrow so that
composition, identities and inverses are respected on the positive-mass
part of the groupoid.  The central construction turns a uniformly bounded
representation into a unitary one:

* for each positive-mass unit x, collect the Gram set
  B_x = { rho(g)* rho(g) : g in the source fiber of x } -- a finite set of
  positive definite matrices inside GL_c with c = C**2,
* the arrow congruences permute these sets (b -> rho(g)* b rho(g) maps
  B_tgt onto B_src), so their circumcenters sigma(x) transform the same
  way by uniqueness,
* with psi(x) = sigma(x)**1/2, the conjugates
  u(g) = psi(tgt) rho(g) psi(src)**-1 are unitary.

``unitarize`` builds the Gram sets of an orbit of positive-mass units in
one stacked pass, runs the certified circumcenter solver once, at the
orbit's first unit r, and transports the center to every other
positive-mass unit x of the orbit along the first arrow h: x -> r,
sigma(x) = rho(h)* sigma(r) rho(h).  Each certificate is ``bound(chart,
weights)`` in the unit's own chart: x's, a unitary copy of r's, takes the
weights carried from r where they hold (see ``_transport``).  The report
carries unitarity and equivariance residuals along with all certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circumcenter import PointSet, best_weights, charts_at, result, solve
# point_set is not called here, but bench/tracing.py wraps it under this
# module's name.
from .circumcenter import point_set  # noqa: F401
from .errors import (
    DimensionMismatch,
    InvalidBaseRep,
    InvalidRepresentation,
    MissingArrow,
    NotPositiveDefinite,
    NotUniformlyBounded,
    ParameterOutOfRange,
    SingularTransform,
    UnknownUnit,
)
from .geometry import GLcBall
from .groupoid import ActionGroupoidSpec, FiniteMeasuredGroupoid, build_action_groupoid
from .linalg import (
    PD_FLOOR,
    adjoint,
    as_square_matrix,
    l2_norm,
    l2_norms,
    spd_arrays,
    spd_stack,
    spectral_calculus,
    symmetrize,
)
from .sampling import random_invertible

# Relative tolerance for representation identities (functoriality, units,
# inverses) at validation time.
REP_TOL = 1e-9

# Gram set elements closer than this (relative L2) are duplicates.
DEDUP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Representation:
    """A matrix representation of a finite measured groupoid, not mutated after construction."""

    groupoid: FiniteMeasuredGroupoid
    dim: int
    rho: dict
    uniform_bound_C: float

    @cached_property
    def mats(self) -> np.ndarray:
        """``rho`` as one stack in id order: seeded, else (as after ``replace``) ``_stacked``'s."""
        return _stacked(self.groupoid, self.dim, self.rho)


def _positive_ix(G: FiniteMeasuredGroupoid) -> np.ndarray:
    """Indices, in id order, of the arrows between positive-mass units."""
    pos = G.mu > 0.0
    return np.flatnonzero(pos[G._arrow_src] & pos[G._arrow_tgt])


def _finite_bound(sv_max: np.ndarray) -> float:
    C = float(np.max(sv_max))
    if not np.isfinite(C):
        raise NotUniformlyBounded("representation has no finite uniform bound")
    return C


def uniform_bound(G: FiniteMeasuredGroupoid, rho: dict) -> float:
    """Largest operator norm over positive-mass arrows.

    Because inverses are arrows too, this simultaneously bounds all
    inverse matrices of a valid representation.
    """
    # Sized by the first arrow, so that _stacked names the first of another size.
    mats = _stacked(G, (np.shape(rho.get(G._ids[0])) + (0,))[0], rho)
    return _finite_bound(np.linalg.svd(mats[_positive_ix(G)], compute_uv=False)[:, 0])


def _stacked(G: FiniteMeasuredGroupoid, dim: int, rho: dict) -> np.ndarray:
    """The matrices of ``rho``, one per arrow and no other, finite and dim x dim, in one stack."""
    if rho.keys() != G._by_id.keys():
        if missing := sorted(G._by_id.keys() - rho.keys()):
            raise MissingArrow(f"matrices missing for arrows {missing[:5]}")
        extra = sorted(rho.keys() - G._by_id.keys())
        raise InvalidRepresentation(f"matrices for unknown arrows {extra[:5]}")
    mats = [rho[g] for g in G._ids]
    try:
        stack = np.array(mats, dtype=np.complex128)
    except (TypeError, ValueError):  # ragged: matrices of different shapes
        stack = None
    if stack is None or stack.shape[1:] != (dim, dim) or not np.isfinite(stack).all():
        sizes = [as_square_matrix(m, f"rho[{g}]").shape[0] for g, m in zip(G._ids, mats)]
        for g, n in zip(G._ids, sizes):
            if n != dim:
                raise DimensionMismatch(f"rho[{g}]: matrix is {n}x{n}, expected dimension {dim}")
    return stack


def check_representation(rep: Representation, tol: float = REP_TOL):
    """Functoriality residuals above ``tol``.

    Checks every composable pair among positive-mass units and returns a
    list of ``((left, right), residual)`` with
    ``residual = l2_norm(rho(hg) - rho(h) rho(g))``, worst first; residuals
    equal to 12 significant digits are listed in pair-name order.
    """
    return _bad_pairs(rep.groupoid, rep.mats, tol)


def _bad_pairs(G: FiniteMeasuredGroupoid, mats: np.ndarray, tol: float):
    # Per positive-mass unit y, the pairs (h, g) with h out of y and g into y
    # are the rows and columns of y's block of the composite table.
    pos, ids = G.mu > 0.0, G._ids
    T = _by_entry_row(mats)
    out = []
    for y in np.flatnonzero(pos):
        rows, cols = pos[G._arrow_tgt[G._out[y]]], pos[G._arrow_src[G._into[y]]]
        ih, ig = G._out[y][rows], G._into[y][cols]
        for a, r in _residuals(T, ih, ig, G._blocks[y][rows][:, cols]):
            hit = zip(*np.nonzero(r > tol))
            out += [((ids[ih[a + i]], ids[ig[j]]), float(r[i, j])) for i, j in hit]
    # Residuals equal in exact arithmetic differ by summation roundoff.
    out.sort(key=lambda item: (-float(f"{item[1]:.11e}"), item[0]))
    return out


def _by_entry_row(mats: np.ndarray) -> np.ndarray:
    """A stack of matrices M[k] laid out as T[i, k, j] = M[k][i, j], for ``_residuals``."""
    return np.ascontiguousarray(mats.transpose(1, 0, 2))


def _residuals(T: np.ndarray, left: np.ndarray, right: np.ndarray, table: np.ndarray):
    """``l2_norm(M[table[h, g]] - M[left[h]] M[right[g]])`` over blocks of rows h.

    ``T`` is the stack M as ``_by_entry_row`` lays it out.  Yields the first
    row of each block and its residuals, shape (rows, len(right)).  One GEMM
    per block, with rows ordered (i, h) and columns (g, j), lays the products
    out as (i, h, g, j), the layout in which ``T`` gathers the composites, so
    they are subtracted in place.
    """
    d = T.shape[0]
    Rg = T.take(right, axis=1).reshape(d, -1)
    # Blocks of about 256 KB keep a block's temporaries in a core's L2 cache.
    step = max(1, (1 << 18) // Rg.nbytes)
    for a in range(0, len(left), step):
        Lh = T.take(left[a:a + step], axis=1).reshape(-1, d)
        diff = T.take(table[a:a + step].ravel(), axis=1).reshape(Lh.shape[0], -1)
        diff -= Lh @ Rg
        v = diff.view(float).reshape(d, -1, len(right), 2 * d)
        yield a, np.sqrt(np.einsum("ihgj,ihgj->hg", v, v) / d)


def make_representation(G: FiniteMeasuredGroupoid, dim: int, rho: dict) -> Representation:
    """Validate a matrix assignment and wrap it as a :class:`Representation`.

    Checks the table by ``_stacked``, then on the positive-mass part, in
    the normalized L2 norm: identity arrows within ``REP_TOL`` of the
    identity (absolute); every matrix nonsingular (sigma_min > ``PD_FLOOR``
    * sigma_max); inverses with ``l2_norm(rho(g**-1) rho(g) - 1) <= REP_TOL
    * (1 + l2_norm(rho(g**-1)) * l2_norm(rho(g)))``; and functoriality with
    ``l2_norm(rho(hg) - rho(h) rho(g)) <= REP_TOL`` on every composable pair
    (absolute).  The checked stack is ``mats``, and ``rho`` holds its views.
    """
    ids = G._ids
    mats = _stacked(G, dim, rho)

    # Identity arrows in unit order, then per positive arrow in id order
    # the singular check before the inverse check, then functoriality.
    eye = np.eye(dim)
    e = G._unit[G.mu > 0.0]
    r = l2_norms(mats[e] - eye)
    bad = np.flatnonzero(r > REP_TOL)
    if bad.size:
        i = bad[0]
        raise InvalidRepresentation(
            f"identity arrow {ids[e[i]]!r} has residual {r[i]:.3e} above {REP_TOL:g}"
        )
    ix = _positive_ix(G)
    A, Ai = mats[ix], mats[G._inv[ix]]
    sv = np.linalg.svd(A, compute_uv=False)
    singular = sv[:, -1] <= PD_FLOOR * sv[:, 0]
    r = l2_norms(Ai @ A - eye)
    deviates = r > REP_TOL * (1.0 + l2_norms(Ai) * l2_norms(A))
    bad = np.flatnonzero(singular | deviates)
    if bad.size:
        k = bad[0]
        g = ids[ix[k]]
        if singular[k]:
            raise InvalidRepresentation(f"matrix for arrow {g!r} is singular")
        raise InvalidRepresentation(
            f"inverse arrow {ids[G._inv[ix[k]]]!r} deviates from"
            f" rho({g!r})**-1 by {r[k]:.3e}"
        )

    bad = _bad_pairs(G, mats, REP_TOL)
    if bad:
        (h, g), r = bad[0]
        raise InvalidRepresentation(
            f"functoriality fails on pair ({h!r}, {g!r}) with residual {r:.3e}"
        )
    rep = Representation(G, dim, dict(zip(ids, mats)), _finite_bound(sv[:, 0]))
    rep.__dict__["mats"] = mats  # the stack just checked, of which ``rho`` holds views
    return rep


def gram_set(rep: Representation, x: str) -> PointSet:
    """Gram set of a positive-mass unit: rho(g)* rho(g) over the arrows g out of it.

    Only arrows into positive-mass units count, as in the uniform bound C,
    so the enclosing ball has c = C**2, widened to the points' own spectra
    where roundoff puts them past it (GL_c balls are geodesically convex,
    so the circumcenter stays inside).  Duplicates within relative
    ``DEDUP_TOL`` collapse to the first occurrence in arrow-id order.
    This is the one-unit case of ``_orbit_grams``.
    """
    G = rep.groupoid
    if G.unit_weight(x) <= 0.0:
        raise UnknownUnit(f"unit {x!r} carries no mass")
    return _orbit_grams(rep, [G._unit_index[x]])[-1][0]


def _orbit_grams(rep: Representation, xs):
    """Gram sets, as ``gram_set``, of the positive-mass units ``xs`` of one orbit.

    ``xs`` are unit indices; the Gram arrows' matrices are gathered from
    ``rep.mats``.  Arrow congruences pair the source fibers of an orbit's
    units, so each unit has the same number m of Gram arrows, and every
    step runs once on the stack of all of them.  The Gram points are
    validated in one pass, and each unit's :class:`PointSet` is cut from
    that stack without wrapping a point, with a ball that covers its
    points' spectra by construction.  Returns the Gram arrows A, shape
    (k, m), per unit in id order; the mask of the points kept after dedup;
    the Gram matrices, symmetrized as the points are, shape (k, m, n, n);
    and the point sets.
    """
    G, n = rep.groupoid, rep.dim
    pos, ids = G.mu > 0.0, G._ids
    A = np.stack([G._out[x][pos[G._arrow_tgt[G._out[x]]]] for x in xs])
    RA = rep.mats[A]
    B = adjoint(RA) @ RA
    # Normalized L2 distances by direct differences (the Gram-matrix trick
    # cannot resolve DEDUP_TOL), summed one real entry at a time so that no
    # (k, m, m, n*n) difference stack is held.
    flat = (B.reshape(*A.shape, -1) / np.sqrt(n)).view(float)
    d2 = np.zeros((*A.shape, A.shape[1]))
    for e in flat.transpose(2, 0, 1):
        d2 += (e[:, :, None] - e[:, None]) ** 2
    near = np.sqrt(d2) <= DEDUP_TOL * (1.0 + np.linalg.norm(flat, axis=-1))[..., None]
    keep = np.ones(A.shape, dtype=bool)
    for j in np.flatnonzero(np.triu(near, 1).any(axis=(0, 1))):
        keep[:, j] = ~(near[:, :j, j] & keep[:, :j]).any(axis=1)
    kept = A[keep]
    h, w = spd_arrays(B[keep], lambda i: f"gram[{ids[kept[i]]}]")
    lo, hi = w[:, 0], w[:, -1]
    counts = keep.sum(axis=1)
    starts = np.cumsum(counts) - counts
    spread = np.maximum.reduceat(np.maximum(hi, 1.0 / lo), starts)
    C = rep.uniform_bound_C
    c = np.maximum(C * C, spread) * (1.0 + 1e-9)
    psets = [
        PointSet(h[a:a + k], lo[a:a + k], hi[a:a + k], GLcBall(float(ck), n))
        for a, k, ck in zip(starts, counts, c)
    ]
    return A, keep, symmetrize(B), psets


@dataclass(frozen=True, eq=False)
class SimilarityWitness:
    """Positive conjugators psi (and the centers sigma = psi**2) per unit."""

    psi: dict
    sigma: dict
    certificates: dict


@dataclass(frozen=True, eq=False)
class UnitarizationReport:
    """Residuals and certificates gathered during a unitarization run."""

    max_unitarity_residual: float
    max_equivariance_residual: float
    max_certificate_bound: float
    per_arrow: dict
    unit_results: dict
    all_converged: bool

    def residual_threshold(self, eps: float, C: float) -> float:
        """Engineering bound 10 * (eps + 1e-8) * C**2 on unitarity residuals."""
        return 10.0 * (eps + 1e-8) * C * C


def unitarize(
    rep: Representation,
    eps: float = 1e-7,
    max_iter: int = 100_000,
    trace: dict | None = None,
):
    """Conjugate a uniformly bounded representation to a unitary one.

    Parameters
    ----------
    rep : Representation
    eps : float
        Certificate target per unit.
    max_iter : int
        Iteration budget per circumcenter solve.
    trace : dict, optional
        When given, filled with unit -> list of per-iteration rows.

    Returns
    -------
    witness : SimilarityWitness
    unitary : Representation
        u(g) = psi(tgt) rho(g) psi(src)**-1; validated on return.
    report : UnitarizationReport

    One circumcenter is solved per orbit, at the orbit's first
    positive-mass unit r.  Every other positive-mass unit x of the orbit
    gets sigma(x) = rho(h)* sigma(r) rho(h) along the first arrow h: x -> r
    in id order, certified by ``_transport``.  Every unit's certificate is
    ``bound(chart, weights)`` at its chart ball's optimal weights or at
    weights carried from r, so ``converged`` is False only when the optimal
    weights leave the bound above ``eps``.  Transported units are reported
    with ``iterations = 0``; the trace of one is the single row ``(0,
    radius_at_center, center_error_bound)``.

    Units whose certificates stall above ``eps`` are reported with
    ``converged = False`` in the witness certificates; the conjugated
    representation is still returned so callers can judge the residuals.
    """
    G = rep.groupoid
    units = G.positive_units
    ids, n = G._ids, rep.dim
    s, t = G._arrow_src, G._arrow_tgt
    pos = np.flatnonzero(G.mu > 0.0)
    found: dict = {}
    rows: dict = {}
    for ri in pos:
        r = G.units[ri]
        if r in found:
            continue
        # The first arrow h: x -> r in id order from each other
        # positive-mass unit x of the orbit.
        into = G._into[ri]
        h = into[np.sort(np.unique(s[into], return_index=True)[1])]
        h = h[(G.mu[s[h]] > 0.0) & (s[h] != ri)]
        grams = _orbit_grams(rep, np.concatenate(([ri], s[h])))
        rows[r] = [] if trace is not None else None
        found[r] = solve(grams[-1][0], eps, max_iter=max_iter, trace=rows[r])
        if h.size:
            for x, res in zip(s[h], _transport(rep, h, grams, found[r], eps)):
                found[G.units[x]] = res
                rows[G.units[x]] = [(0, res.radius_at_center, res.center_error_bound)]
    results = {x: found[x] for x in units}
    if trace is not None:
        trace.update((x, rows[x]) for x in units)

    # psi = sigma**1/2 and its inverse per unit, the identity at null-mass
    # units; every arrow is conjugated in one stacked product.
    sigma = {x: results[x].center for x in units}
    S = np.tile(np.eye(n, dtype=np.complex128), (len(G.units), 1, 1))
    Psi, Psi_inv = S.copy(), S.copy()
    S[pos] = [sigma[x].mat for x in units]
    try:
        _, Psi[pos], Psi_inv[pos] = spectral_calculus(
            S[pos], np.sqrt, lambda w: 1.0 / np.sqrt(w), floor=0.0, name="sigma"
        )
    except NotPositiveDefinite:
        for i, x in zip(pos, units):  # re-raise naming the first failing unit
            spectral_calculus(S[i], floor=0.0, name=f"sigma[{x}]")
        raise
    U = Psi[t] @ rep.mats @ Psi_inv[s]
    unitary = make_representation(G, n, dict(zip(ids, U)))

    ix = _positive_ix(G)
    Ux, Rx = U[ix], rep.mats[ix]
    run = l2_norms(adjoint(Ux) @ Ux - np.eye(n))
    req = l2_norms(adjoint(Rx) @ S[t[ix]] @ Rx - S[s[ix]])
    per_arrow = {ids[i]: (float(a), float(b)) for i, a, b in zip(ix, run, req)}

    witness = SimilarityWitness(
        psi=dict(zip(units, spd_stack(Psi[pos], lambda i: f"psi[{units[i]}]"))),
        sigma=sigma,
        certificates=results,
    )
    report = UnitarizationReport(
        max_unitarity_residual=float(run.max()),
        max_equivariance_residual=float(req.max()),
        max_certificate_bound=max(r.center_error_bound for r in results.values()),
        per_arrow=per_arrow,
        unit_results=dict(results),
        all_converged=all(r.converged for r in results.values()),
    )
    return witness, unitary, report


def _transport(rep: Representation, h: np.ndarray, grams, res, eps: float):
    """Certificates at sigma(x) = rho(h)* sigma(r) rho(h) for the units x = src(h).

    ``h`` indexes ``rep.mats``, ``grams`` is ``_orbit_grams`` of r followed
    by those units, and ``res`` is r's result.  Congruence by rho(h) maps
    r's Gram point of arrow a . h**-1 to x's point of arrow a, and r's
    chart at sigma(r) unitarily onto x's at sigma(x), so r's weights,
    carried along that pairing, are a sound dual in x's chart (``charts_at``,
    one stacked chart).  They certify x unless a weighted point of r has no
    kept partner at x or their bound exceeds ``eps``; then x's
    ``best_weights`` do.
    """
    G = rep.groupoid
    A, keep, H, psets = grams
    Rh = rep.mats[h]
    centers = spd_stack(
        adjoint(Rh) @ res.center.mat @ Rh, lambda i: f"sigma[{G.units[G._arrow_src[h[i]]]}]"
    )
    lam = np.zeros(A.shape[1])
    lam[keep[0]] = res.weights
    at_r = np.full(len(G._ids), -1, dtype=np.intp)
    at_r[A[0]] = np.arange(A.shape[1])
    carried = lam[at_r[G._compose_ix(A[1:], G._inv[h][:, None])]]
    lost = ((carried > 0.0) & ~keep[1:]).any(axis=1)
    out = []
    for i, c in enumerate(charts_at(centers, psets[1:], H[1:], keep[1:])):
        cert = None if lost[i] else result(c, carried[i, keep[i + 1]], eps, 0)
        if cert is None or not cert.converged:
            cert = result(c, best_weights(c), eps, 0)
        out.append(cert)
    return out


def _same_groupoid(A: FiniteMeasuredGroupoid, B: FiniteMeasuredGroupoid) -> bool:
    # Equal units, ids and endpoints lay out the composite tables alike, and
    # a groupoid's composition determines its inverses.
    return A is B or (
        A.units == B.units
        and A._ids == B._ids
        and np.array_equal(A._arrow_src, B._arrow_src)
        and np.array_equal(A._arrow_tgt, B._arrow_tgt)
        and np.array_equal(A._table, B._table)
    )


def verify_similarity(
    rep1: Representation, rep2: Representation, h: dict, tol: float
):
    """Check rho2(g) = h(tgt) rho1(g) h(src)**-1 on positive-mass arrows.

    Parameters
    ----------
    rep1, rep2 : Representation over the same groupoid and dimension.
    h : dict unit -> invertible matrix (positive-mass units suffice).
    tol : float residual tolerance in the normalized L2 norm.

    Returns
    -------
    ok : bool
    residuals : dict arrow id -> residual

    The witnesses are checked as one stack, with one batched SVD; only when
    that check fails are they checked unit by unit, in unit order, and the
    first failing unit raises.  The arrows are read from each ``mats``.
    """
    if rep1.dim != rep2.dim:
        raise DimensionMismatch(f"dimensions differ: {rep1.dim} vs {rep2.dim}")
    if not _same_groupoid(rep1.groupoid, rep2.groupoid):
        raise InvalidRepresentation("representations live on different groupoids")
    G, n = rep1.groupoid, rep1.dim
    units = G.positive_units
    try:
        W = np.array([h[x] for x in units], dtype=np.complex128)
        square = W.shape[1:] == (n, n) and np.isfinite(W).all()
        sv = np.linalg.svd(W, compute_uv=False) if square else None
    except (KeyError, TypeError, ValueError, np.linalg.LinAlgError):
        sv = None
    if sv is None or not np.all(sv[:, -1] > PD_FLOOR * sv[:, 0]):
        checked = []
        for x in units:  # the same checks, one unit at a time
            if x not in h:
                raise UnknownUnit(f"witness misses positive-mass unit {x!r}")
            m = as_square_matrix(h[x], f"h[{x}]")
            if m.shape[0] != n:
                raise DimensionMismatch(f"witness at {x!r} has wrong dimension")
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[-1] <= PD_FLOOR * sv[0]:
                raise SingularTransform(f"witness at {x!r} is numerically singular")
            checked.append(m)
        W = np.stack(checked)
    # One witness and one inverse per unit, the identity at null-mass units;
    # the arrows gather theirs by endpoint.
    H = np.tile(np.eye(n, dtype=np.complex128), (len(G.units), 1, 1))
    H[G.mu > 0.0] = W
    ix = _positive_ix(G)
    R1, R2 = rep1.mats[ix], rep2.mats[ix]
    r = l2_norms(R2 - H[G._arrow_tgt[ix]] @ R1 @ np.linalg.inv(H)[G._arrow_src[ix]])
    return bool(r.max() <= tol), dict(zip([G._ids[i] for i in ix], r.tolist()))


# -- instance generation ---------------------------------------------------


def check_base_rep(group, base_rep: dict, dim: int):
    """The matrices, in element order, of a unitary group representation given as a dict.

    Checked element by element (present, of dimension ``dim``, unitary), then for
    u(a) u(b) = u(ab) on the integer product table ``group.table``, which the group
    check reads too, by the functoriality kernel ``_residuals``.
    """
    elems, mats = group.elements, []
    for g in elems:
        if g not in base_rep:
            raise InvalidBaseRep(f"base representation misses element {g!r}")
        m = as_square_matrix(base_rep[g], f"base[{g}]")
        if m.shape[0] != dim:
            raise InvalidBaseRep(f"base matrix for {g!r} has wrong dimension")
        if l2_norm(m.conj().T @ m - np.eye(dim)) > REP_TOL:
            raise InvalidBaseRep(f"base matrix for {g!r} is not unitary")
        mats.append(m)
    mats, every = np.stack(mats), np.arange(len(elems))
    for a, r in _residuals(_by_entry_row(mats), every, every, group.table):
        bad = np.argwhere(r > REP_TOL)
        if bad.size:
            i, j = bad[0]
            raise InvalidBaseRep(
                f"base representation is not multiplicative on ({elems[a + i]!r}, {elems[j]!r})"
            )
    return mats


def generate_instance(
    spec: ActionGroupoidSpec,
    base_rep: dict,
    cond_bound: float,
    seed: int,
) -> Representation:
    """Pseudorandom uniformly bounded representation of an action groupoid.

    rho(gamma, x) = h(gamma . x) u0(gamma) h(x)**-1 with a seeded random
    invertible h per unit (condition number at most ``cond_bound``) and a
    unitary base representation u0 of the group, formed for every arrow
    in one stacked product.  The same seed yields a bit-identical
    instance; the uniform bound is at most ``cond_bound``.
    """
    if not cond_bound >= 1.0:
        raise ParameterOutOfRange(f"cond_bound must be at least 1, got {cond_bound}")
    G = build_action_groupoid(spec)
    group = spec.group
    # A scalar reads as size 0; check_base_rep names it, or a missing element.
    dims = {(np.shape(base_rep[g]) + (0,))[0] for g in group.elements if g in base_rep}
    if len(dims) > 1:
        raise InvalidBaseRep("base representation has inconsistent dimensions")
    dim = max(dims, default=0)
    U0 = check_base_rep(group, base_rep, dim)

    rng = np.random.default_rng(seed)
    H = np.stack([random_invertible(rng, dim, float(cond_bound)) for _ in spec.units])
    ids = [f"{g}@{x}" for g in group.elements for x in spec.units]  # the arrows (gamma, x)
    gamma, x = np.divmod(np.arange(len(ids)), len(spec.units))
    R = H[G._arrow_tgt[[G._index[a] for a in ids]]] @ U0[gamma] @ np.linalg.inv(H)[x]
    return make_representation(G, dim, dict(zip(ids, R)))


# -- base representation builders ------------------------------------------


def trivial_base_rep(group, dim: int) -> dict:
    """Every element acts as the identity."""
    return {g: np.eye(dim, dtype=np.complex128) for g in group.elements}


def permutation_base_rep(group) -> dict:
    """Permutation matrices for a symmetric group (digit-string elements)."""
    return _permutation_rep(group.elements, [list(map(int, p)) for p in group.elements])


def _permutation_rep(elems, table) -> dict:
    """Per element g, the matrix sending basis vector x to basis vector table[g][x]."""
    return dict(zip(elems, np.eye(len(table[0]), dtype=np.complex128)[table].swapaxes(1, 2)))


def cyclic_character_base_rep(n: int, exponents) -> dict:
    """Direct sum of characters k -> exp(2 pi i k a / n) of Z/n."""
    exps = list(exponents)
    return {
        f"r{a}": np.diag(np.exp(2j * np.pi * np.array([k * a % n for k in exps]) / n))
        for a in range(n)
    }


def direct_sum_base_rep(rep_a: dict, rep_b: dict) -> dict:
    """Blockwise direct sum of two base representations of one group."""
    out = {}
    for g, ma in rep_a.items():
        da, db = ma.shape[0], rep_b[g].shape[0]
        out[g] = m = np.zeros((da + db, da + db), dtype=np.complex128)
        m[:da, :da], m[da:, da:] = ma, rep_b[g]
    return out
