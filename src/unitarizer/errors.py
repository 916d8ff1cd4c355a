"""Exception taxonomy.

Every error carries a ``category`` used by the command line interface to
pick its exit code: ``validation`` -> 1, ``numerical`` -> 2, ``io`` -> 3.
"""


class UnitarizerError(Exception):
    """Base class for all package errors."""

    category = "validation"


class DimensionMismatch(UnitarizerError):
    """Operands have incompatible shapes or dimensions."""


class InvalidMatrix(UnitarizerError):
    """Matrix entries are not finite, or the payload is not a matrix."""


class NotHermitian(UnitarizerError):
    """Asymmetry of a claimed Hermitian matrix exceeds tolerance."""


class ParameterOutOfRange(UnitarizerError):
    """A scalar parameter lies outside its admissible range."""


class SingularTransform(UnitarizerError):
    """A transform that must be invertible is (numerically) singular."""


class EmptySet(UnitarizerError):
    """A nonempty collection was required."""


class UnknownUnit(UnitarizerError):
    """A unit id is not part of the groupoid, or carries no mass."""


class InvalidAction(UnitarizerError):
    """A group table or group action violates its axioms."""


class InvalidGroupoid(UnitarizerError):
    """A groupoid table violates the groupoid axioms."""


class EmptyRestriction(UnitarizerError):
    """Restriction to an empty set of units."""


class ZeroMassRestriction(UnitarizerError):
    """Restriction to a unit set of total weight zero."""


class MissingArrow(UnitarizerError):
    """A representation does not cover every arrow of its groupoid."""


class InvalidRepresentation(UnitarizerError):
    """A representation table violates functoriality, units or inverses."""


class InvalidBaseRep(UnitarizerError):
    """A base group representation is not unitary or not multiplicative."""


class NotPositiveDefinite(UnitarizerError):
    """A matrix required to be positive definite is not."""

    category = "numerical"


class NonConvergence(UnitarizerError):
    """An eigenvalue or singular value routine failed to converge."""

    category = "numerical"


class NumericalEscape(UnitarizerError):
    """Solver iterates left their spectral ball, or a subsolver its budget."""

    category = "numerical"


class NotUniformlyBounded(UnitarizerError):
    """No finite uniform bound exists for a representation."""

    category = "numerical"


class ParseError(UnitarizerError):
    """Malformed or unreadable input file, or an output file that cannot be written."""

    category = "io"
