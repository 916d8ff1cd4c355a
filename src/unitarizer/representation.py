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

``unitarize`` runs the certified circumcenter solver once per orbit of
positive-mass units, at its first unit r, and transports the center to
every other positive-mass unit x of the orbit along the first arrow
g: x -> r, sigma(x) = rho(g)* sigma(r) rho(g).  Congruence is an isometry,
so the transported center is certified against x's own Gram set with
``iterations = 0``.  The report carries unitarity and equivariance
residuals along with all certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circumcenter import PointSet, certified_result, point_set, solve
from .errors import (
    DimensionMismatch,
    InvalidBaseRep,
    InvalidRepresentation,
    MissingArrow,
    NotUniformlyBounded,
    ParameterOutOfRange,
    SingularTransform,
    UnknownUnit,
)
from .geometry import congruence
from .groupoid import ActionGroupoidSpec, FiniteMeasuredGroupoid, build_action_groupoid
from .linalg import (
    PD_FLOOR,
    SpdMatrix,
    as_square_matrix,
    l2_norm,
    operator_norm,
    spd,
    spectral_calculus,
)
from .sampling import random_invertible

# Relative tolerance for representation identities (functoriality, units,
# inverses) at validation time.
REP_TOL = 1e-9

# Gram set elements closer than this (relative L2) are duplicates.
DEDUP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Representation:
    """A matrix representation of a finite measured groupoid."""

    groupoid: FiniteMeasuredGroupoid
    dim: int
    rho: dict
    uniform_bound_C: float

    def arrow_matrix(self, g: str) -> np.ndarray:
        try:
            return self.rho[g]
        except KeyError:
            raise MissingArrow(f"no matrix for arrow {g!r}") from None


def _positive_arrows(G: FiniteMeasuredGroupoid):
    """Arrows whose source and target both carry positive mass, sorted."""
    pos = set(G.positive_units)
    return [a for a in sorted(G._by_id) if G.src(a) in pos and G.tgt(a) in pos]


def uniform_bound(G: FiniteMeasuredGroupoid, rho: dict) -> float:
    """Largest operator norm over positive-mass arrows.

    Because inverses are arrows too, this simultaneously bounds all
    inverse matrices of a valid representation.
    """
    C = 0.0
    for g in _positive_arrows(G):
        C = max(C, operator_norm(rho[g]))
    if not np.isfinite(C):
        raise NotUniformlyBounded("representation has no finite uniform bound")
    return C


def _stacked(G: FiniteMeasuredGroupoid, dim: int, rho: dict):
    """Canonically ordered arrow list, index map, and stacked matrices."""
    ids = sorted(G._by_id)
    idx = {g: i for i, g in enumerate(ids)}
    mats = np.stack([as_square_matrix(rho[g], f"rho[{g}]") for g in ids])
    if mats.shape[1] != dim:
        raise DimensionMismatch(
            f"representation matrices are {mats.shape[1]}x{mats.shape[2]},"
            f" expected dimension {dim}"
        )
    return ids, idx, mats


def check_representation(rep: Representation, tol: float = REP_TOL):
    """Functoriality residuals above ``tol``.

    Checks every composable pair among positive-mass units and returns a
    list of ``((left, right), residual)`` with
    ``residual = l2_norm(rho(hg) - rho(h) rho(g))``, worst first.
    """
    G = rep.groupoid
    ids, idx, mats = _stacked(G, rep.dim, rep.rho)
    pos = set(G.positive_units)
    pairs = [
        (h, g, c)
        for (h, g), c in G.composition.items()
        if G.src(g) in pos and G.tgt(g) in pos and G.tgt(h) in pos
    ]
    if not pairs:
        return []
    ih = np.array([idx[h] for h, _, _ in pairs])
    ig = np.array([idx[g] for _, g, _ in pairs])
    ic = np.array([idx[c] for _, _, c in pairs])
    resid = mats[ih] @ mats[ig] - mats[ic]
    norms = np.sqrt(np.sum(np.abs(resid) ** 2, axis=(1, 2)) / rep.dim)
    out = [
        ((pairs[i][0], pairs[i][1]), float(norms[i]))
        for i in np.flatnonzero(norms > tol)
    ]
    out.sort(key=lambda item: (-item[1], item[0]))
    return out


def make_representation(
    G: FiniteMeasuredGroupoid, dim: int, rho: dict, tol: float = REP_TOL
) -> Representation:
    """Validate a matrix assignment and wrap it as a :class:`Representation`.

    Checks arrow coverage, identity arrows, inverses and functoriality on
    the positive-mass part, each within relative ``tol``.
    """
    missing = [g for g in G._by_id if g not in rho]
    if missing:
        raise MissingArrow(f"matrices missing for arrows {sorted(missing)[:5]}")
    extra = [g for g in rho if g not in G._by_id]
    if extra:
        raise InvalidRepresentation(f"matrices for unknown arrows {sorted(extra)[:5]}")
    ids, idx, mats = _stacked(G, dim, rho)
    table = {g: mats[idx[g]] for g in ids}

    eye = np.eye(dim)
    for x in G.positive_units:
        e = G.unit_arrows[x]
        r = l2_norm(table[e] - eye)
        if r > tol:
            raise InvalidRepresentation(
                f"identity arrow {e!r} has residual {r:.3e} above {tol:g}"
            )
    for g in _positive_arrows(G):
        gm = table[g]
        sv = np.linalg.svd(gm, compute_uv=False)
        if sv[-1] <= PD_FLOOR * sv[0]:
            raise InvalidRepresentation(f"matrix for arrow {g!r} is singular")
        gi = G.inv(g)
        r = l2_norm(table[gi] @ gm - eye)
        if r > tol * (1.0 + l2_norm(table[gi]) * l2_norm(gm)):
            raise InvalidRepresentation(
                f"inverse arrow {gi!r} deviates from rho({g!r})**-1 by {r:.3e}"
            )

    rep = Representation(G, dim, table, 0.0)
    bad = check_representation(rep, tol)
    if bad:
        (h, g), r = bad[0]
        raise InvalidRepresentation(
            f"functoriality fails on pair ({h!r}, {g!r}) with residual {r:.3e}"
        )
    C = uniform_bound(G, table)
    return Representation(G, dim, table, C)


def gram_set(rep: Representation, x: str) -> PointSet:
    """Gram set of a positive-mass unit: rho(g)* rho(g) over the arrows g out of it.

    Only arrows into positive-mass units count, as in the uniform bound C,
    so the enclosing ball has c = C**2, widened to the points' own spectra
    where roundoff puts them past it (GL_c balls are geodesically convex,
    so the circumcenter stays inside).  Duplicates within relative
    ``DEDUP_TOL`` collapse to the first occurrence in arrow-id order.
    """
    G = rep.groupoid
    if G.unit_weight(x) <= 0.0:
        raise UnknownUnit(f"unit {x!r} carries no mass")
    pts = []
    kept_raw = []
    for g in G.source_fiber(x):
        if G.unit_weight(G.tgt(g)) <= 0.0:
            continue
        m = rep.rho[g]
        b = m.conj().T @ m
        if any(
            l2_norm(b - prev) <= DEDUP_TOL * (1.0 + l2_norm(prev)) for prev in kept_raw
        ):
            continue
        kept_raw.append(b)
        pts.append(spd(b, f"gram[{g}]"))
    C = rep.uniform_bound_C
    spread = max(max(p.eig_max, 1.0 / p.eig_min) for p in pts)
    return point_set(pts, c=max(C * C, spread) * (1.0 + 1e-9))


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
    gets sigma(x) = rho(g)* sigma(r) rho(g) along the first arrow g: x -> r
    in id order, certified against x's own Gram set and reported with
    ``iterations = 0``; its trace is the single row
    ``(0, radius_at_center, center_error_bound)``.

    Units whose certificates stall above ``eps`` are reported with
    ``converged = False`` in the witness certificates; the conjugated
    representation is still returned so callers can judge the residuals.
    """
    G = rep.groupoid
    units = G.positive_units
    found: dict = {}
    rows: dict = {}
    for r in units:
        if r in found:
            continue
        rows[r] = [] if trace is not None else None
        found[r] = solve(gram_set(rep, r), eps, max_iter=max_iter, trace=rows[r])
        for g in G.target_fiber(r):
            x = G.src(g)
            if x in found or G.unit_weight(x) <= 0.0:
                continue
            center = congruence(rep.rho[g], found[r].center)
            res = found[x] = certified_result(center, gram_set(rep, x), eps, iterations=0)
            rows[x] = [(0, res.radius_at_center, res.center_error_bound)]
    results = {x: found[x] for x in units}
    if trace is not None:
        trace.update((x, rows[x]) for x in units)

    sigma: dict[str, SpdMatrix] = {}
    psi: dict[str, np.ndarray] = {}
    psi_inv: dict[str, np.ndarray] = {}
    eye = np.eye(rep.dim, dtype=np.complex128)
    for x in G.units:
        if x in results:
            center = results[x].center
            _, psi[x], psi_inv[x] = spectral_calculus(
                center.mat, np.sqrt, lambda w: 1.0 / np.sqrt(w), floor=0.0,
                name=f"sigma[{x}]",
            )
            sigma[x] = center
        else:  # null-mass unit: conjugate by the identity
            psi[x] = eye
            psi_inv[x] = eye

    u = {}
    for a in G.arrows:
        u[a.id] = psi[a.tgt] @ rep.rho[a.id] @ psi_inv[a.src]
    unitary = make_representation(G, rep.dim, u)

    per_arrow = {}
    max_unit = 0.0
    max_equi = 0.0
    for g in _positive_arrows(G):
        a = G.arrow(g)
        ug = unitary.rho[g]
        run = l2_norm(ug.conj().T @ ug - eye)
        rg = rep.rho[g]
        req = l2_norm(rg.conj().T @ sigma[a.tgt].mat @ rg - sigma[a.src].mat)
        per_arrow[g] = (run, req)
        max_unit = max(max_unit, run)
        max_equi = max(max_equi, req)
    max_cert = max((results[x].center_error_bound for x in units), default=0.0)

    witness = SimilarityWitness(
        psi={x: spd(psi[x], f"psi[{x}]") for x in units},
        sigma=sigma,
        certificates=results,
    )
    report = UnitarizationReport(
        max_unitarity_residual=max_unit,
        max_equivariance_residual=max_equi,
        max_certificate_bound=max_cert,
        per_arrow=per_arrow,
        unit_results={x: results[x] for x in units},
        all_converged=all(results[x].converged for x in units),
    )
    return witness, unitary, report


def _same_groupoid(A: FiniteMeasuredGroupoid, B: FiniteMeasuredGroupoid) -> bool:
    return (
        A.units == B.units
        and set(A._by_id) == set(B._by_id)
        and all(A.src(g) == B.src(g) and A.tgt(g) == B.tgt(g) for g in A._by_id)
        and A.composition == B.composition
        and A.inverse == B.inverse
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
    """
    if rep1.dim != rep2.dim:
        raise DimensionMismatch(f"dimensions differ: {rep1.dim} vs {rep2.dim}")
    if not _same_groupoid(rep1.groupoid, rep2.groupoid):
        raise InvalidRepresentation("representations live on different groupoids")
    G = rep1.groupoid
    hmat = {}
    hinv = {}
    for x in G.positive_units:
        if x not in h:
            raise UnknownUnit(f"witness misses positive-mass unit {x!r}")
        m = as_square_matrix(h[x], f"h[{x}]")
        if m.shape[0] != rep1.dim:
            raise DimensionMismatch(f"witness at {x!r} has wrong dimension")
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= PD_FLOOR * sv[0]:
            raise SingularTransform(f"witness at {x!r} is numerically singular")
        hmat[x] = m
        hinv[x] = np.linalg.inv(m)
    residuals = {}
    worst = 0.0
    for g in _positive_arrows(G):
        a = G.arrow(g)
        r = l2_norm(rep2.rho[g] - hmat[a.tgt] @ rep1.rho[g] @ hinv[a.src])
        residuals[g] = r
        worst = max(worst, r)
    return worst <= tol, residuals


# -- instance generation ---------------------------------------------------


def check_base_rep(group, base_rep: dict, dim: int, tol: float = REP_TOL):
    """Validate a unitary group representation given as a dict of matrices."""
    for g in group.elements:
        if g not in base_rep:
            raise InvalidBaseRep(f"base representation misses element {g!r}")
        m = as_square_matrix(base_rep[g], f"base[{g}]")
        if m.shape[0] != dim:
            raise InvalidBaseRep(f"base matrix for {g!r} has wrong dimension")
        if l2_norm(m.conj().T @ m - np.eye(dim)) > tol:
            raise InvalidBaseRep(f"base matrix for {g!r} is not unitary")
    for a in group.elements:
        for b in group.elements:
            r = l2_norm(
                base_rep[group.mult[(a, b)]] - base_rep[a] @ base_rep[b]
            )
            if r > tol:
                raise InvalidBaseRep(
                    f"base representation is not multiplicative on ({a!r}, {b!r})"
                )


def generate_instance(
    spec: ActionGroupoidSpec,
    base_rep: dict,
    cond_bound: float,
    seed: int,
) -> Representation:
    """Pseudorandom uniformly bounded representation of an action groupoid.

    rho(gamma, x) = h(gamma . x) u0(gamma) h(x)**-1 with a seeded random
    invertible h per unit (condition number at most ``cond_bound``) and a
    unitary base representation u0 of the group.  The same seed yields a
    bit-identical instance; the uniform bound is at most ``cond_bound``.
    """
    if not cond_bound >= 1.0:
        raise ParameterOutOfRange(f"cond_bound must be at least 1, got {cond_bound}")
    G = build_action_groupoid(spec)
    group = spec.group
    dims = {np.asarray(base_rep[g]).shape[0] for g in group.elements if g in base_rep}
    if len(dims) != 1:
        raise InvalidBaseRep("base representation has inconsistent dimensions")
    dim = dims.pop()
    check_base_rep(group, base_rep, dim)
    u0 = {g: as_square_matrix(base_rep[g]) for g in group.elements}

    rng = np.random.default_rng(seed)
    h = {}
    h_inv = {}
    for x in spec.units:
        h[x] = random_invertible(rng, dim, float(cond_bound))
        h_inv[x] = np.linalg.inv(h[x])
    rho = {}
    for g in group.elements:
        for x in spec.units:
            gx = spec.action[(g, x)]
            rho[f"{g}@{x}"] = h[gx] @ u0[g] @ h_inv[x]
    return make_representation(G, dim, rho)


# -- base representation builders ------------------------------------------


def trivial_base_rep(group, dim: int) -> dict:
    """Every element acts as the identity."""
    eye = np.eye(dim, dtype=np.complex128)
    return {g: eye.copy() for g in group.elements}


def permutation_base_rep(group) -> dict:
    """Permutation matrices for a symmetric group (digit-string elements)."""
    out = {}
    for name in group.elements:
        n = len(name)
        m = np.zeros((n, n), dtype=np.complex128)
        for i, ch in enumerate(name):
            m[int(ch), i] = 1.0
        out[name] = m
    return out


def cyclic_character_base_rep(n: int, exponents) -> dict:
    """Direct sum of characters k -> exp(2 pi i k a / n) of Z/n."""
    exps = list(exponents)
    out = {}
    for a in range(n):
        phases = np.exp(2j * np.pi * np.array([(k * a) % n for k in exps]) / n)
        out[f"r{a}"] = np.diag(phases).astype(np.complex128)
    return out


def direct_sum_base_rep(rep_a: dict, rep_b: dict) -> dict:
    """Blockwise direct sum of two base representations of one group."""
    out = {}
    for g, ma in rep_a.items():
        mb = rep_b[g]
        da, db = ma.shape[0], mb.shape[0]
        m = np.zeros((da + db, da + db), dtype=np.complex128)
        m[:da, :da] = ma
        m[da:, da:] = mb
        out[g] = m
    return out
