"""Randomized property suites over the positive definite geometry.

These drive the metric identities that everything downstream relies on:
the semi-parallelogram inequality (the negative-curvature workhorse),
congruence invariance, the triangle inequality and unit-speed
parametrization of geodesics.  Each check raises on failure, so a clean
run certifies the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalEscape, ParameterOutOfRange
from .geometry import congruence, distance, geodesic, midpoint
from .linalg import SpdMatrix
from .sampling import random_invertible, random_spd, rng_from_seed

# Condition number bound of the random points and congruences.
_COND_BOUND = 1e3


@dataclass(frozen=True)
class GeometryReport:
    trials: int
    dim: int
    max_semi_parallelogram_violation: float
    max_congruence_drift: float
    max_triangle_violation: float
    max_speed_drift: float


def semi_parallelogram_gap(a: SpdMatrix, b: SpdMatrix, z: SpdMatrix) -> float:
    """Violation of d(z,m)^2 <= (d(z,a)^2 + d(z,b)^2)/2 - d(a,b)^2/4.

    Nonpositive (up to roundoff) when m is the midpoint of a and b; a
    positive return is the amount by which the inequality fails.
    """
    m = midpoint(a, b)
    lhs = distance(z, m) ** 2
    rhs = 0.5 * (distance(z, a) ** 2 + distance(z, b) ** 2) - 0.25 * distance(a, b) ** 2
    return lhs - rhs


def run_geometry_suite(dim: int, trials: int, seed, tol: float = 1e-8) -> GeometryReport:
    """Random triples (a, b, z): check the metric identities within ``tol``.

    Geodesic speed is checked at t in {0.25, 0.5, 0.75} with tolerance
    scaled by the endpoint distance.  Raises :class:`NumericalEscape` on
    the first violation.
    """
    if dim < 1 or trials < 1:
        raise ParameterOutOfRange(f"dim and trials must be at least 1, got {dim} and {trials}")
    if not 0.0 <= tol < np.inf:
        raise ParameterOutOfRange(f"tol must be finite and nonnegative, got {tol}")
    rng = rng_from_seed(seed)
    worst_sp = worst_cong = worst_tri = worst_speed = 0.0
    for k in range(trials):
        a = random_spd(rng, dim, _COND_BOUND)
        b = random_spd(rng, dim, _COND_BOUND)
        z = random_spd(rng, dim, _COND_BOUND)
        d_ab = distance(a, b)

        gap = semi_parallelogram_gap(a, b, z)
        worst_sp = max(worst_sp, gap)
        if gap > tol:
            raise NumericalEscape(
                f"semi-parallelogram violated by {gap:.3e} at trial {k}"
            )

        g = random_invertible(rng, dim, _COND_BOUND)
        drift = abs(distance(congruence(g, a), congruence(g, b)) - d_ab)
        worst_cong = max(worst_cong, drift)
        if drift > tol * (1.0 + d_ab):
            raise NumericalEscape(
                f"congruence invariance violated by {drift:.3e} at trial {k}"
            )

        tri = d_ab - (distance(a, z) + distance(z, b))
        worst_tri = max(worst_tri, tri)
        if tri > tol:
            raise NumericalEscape(
                f"triangle inequality violated by {tri:.3e} at trial {k}"
            )

        for t in (0.25, 0.5, 0.75):
            p = geodesic(a, b, t)
            drift = max(
                abs(distance(a, p) - t * d_ab),
                abs(distance(p, b) - (1.0 - t) * d_ab),
            )
            worst_speed = max(worst_speed, drift)
            if drift > 10.0 * tol * (1.0 + d_ab):
                raise NumericalEscape(
                    f"geodesic speed drift {drift:.3e} at trial {k}, t={t}"
                )
    return GeometryReport(trials, dim, worst_sp, worst_cong, worst_tri, worst_speed)
