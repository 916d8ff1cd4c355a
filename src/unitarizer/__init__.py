"""Unitarization of uniformly bounded groupoid representations.

The pipeline: finite measured groupoids carry matrix representations
whose operator norms are uniformly bounded; per unit, the Gram matrices
of the source fiber form a bounded set of positive definite matrices;
the certified circumcenter of that set, taken in the affine-invariant
metric, yields a positive conjugator whose square root turns the
representation into a unitary one.
"""

from .circumcenter import (
    CircumcenterResult,
    PointSet,
    certify,
    point_set,
    radius_at,
    radius_lower_bound,
)
from .circumcenter import solve as solve_circumcenter
from .errors import (
    DimensionMismatch,
    EmptySet,
    InvalidGroupoid,
    InvalidRepresentation,
    NonConvergence,
    NotHermitian,
    NotPositiveDefinite,
    NotUniformlyBounded,
    NumericalEscape,
    ParameterOutOfRange,
    ParseError,
    UnitarizerError,
    UnknownUnit,
)
from .geometry import GLcBall, congruence, distance, geodesic, in_ball, midpoint
from .groupoid import (
    ActionGroupoidSpec,
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
    nu_of,
    ordered_pair_action,
    restrict,
    symmetric_group,
    trivial_action,
    uniform_mu,
)
from .linalg import (
    SpdMatrix,
    hermitian_part,
    identity_spd,
    l2_norm,
    matrix_exp,
    matrix_inv_sqrt,
    matrix_log,
    matrix_power,
    matrix_sqrt,
    ntrace,
    operator_norm,
    spd,
)
from .representation import (
    Representation,
    SimilarityWitness,
    UnitarizationReport,
    check_representation,
    cyclic_character_base_rep,
    direct_sum_base_rep,
    generate_instance,
    gram_set,
    make_representation,
    permutation_base_rep,
    trivial_base_rep,
    uniform_bound,
    unitarize,
    verify_similarity,
)
from .serialization import (
    load_groupoid,
    load_representation,
    matrix_from_json,
    matrix_to_json,
    representation_from_json,
    representation_to_json,
    save_json,
)

__version__ = "0.1.0"
