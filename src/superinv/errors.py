"""Exception hierarchy shared by all modules.

Each class carries the exit code and stderr label of the `superinv` command:
an `InputError` exits 3, a `PreconditionError` 4, an `InternalError` 5, and
any other `SuperInvError` (a sampling failure included) 1.
"""


class SuperInvError(Exception):
    """Base class for all library errors."""

    exit_code = 1
    label = "error"


class InputError(SuperInvError):
    """The input itself is malformed or does not fit the operation."""

    exit_code = 3
    label = "input error"


class PreconditionError(SuperInvError):
    """Well-formed input that violates a mathematical precondition."""

    exit_code = 4
    label = "precondition error"


class InternalError(SuperInvError):
    """A self-check on a computed result failed: a defect, not bad input."""

    exit_code = 5
    label = "internal error"


class ValidationError(InputError):
    """Malformed input data (bad JSON, parity violation, out-of-range index)."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell  # (row, col), 1-based, when a matrix entry is at fault


class GeneratorCountMismatch(InputError):
    """Operands live over Grassmann algebras with different generator counts."""


class ShapeMismatch(InputError):
    """Matrix shapes are incompatible with the requested operation."""


class UnconstrainedParity(InputError):
    """Operation needs a declared even or odd parity class."""


class ZeroBody(PreconditionError):
    """Scalar with zero body cannot be inverted."""


class SingularBody(PreconditionError):
    """Matrix whose body is singular over the rationals."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class NonSplitting(PreconditionError):
    """Characteristic polynomial has an irrational irreducible factor."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        # ascending coefficient list of the residual factor
        self.residual = residual


class SharedEigenvalue(PreconditionError):
    """Sylvester operator is singular: the two spectra intersect."""


class MultipleEigenvalue(PreconditionError):
    """A repeated eigenvalue where pairwise distinct ones are required."""


class ZeroEigenvalue(PreconditionError):
    """Zero eigenvalue where nonzero ones are required."""


class NotBlockDiagonalSquare(PreconditionError):
    """The square of the matrix is not exactly block diagonal."""


class SingularZ(PreconditionError):
    """Lower-left block has a singular body."""


class NotSymmetric(PreconditionError):
    """Polynomial is not symmetric; carries a witnessing transposition."""

    def __init__(self, message, transposition=None):
        super().__init__(message)
        self.transposition = transposition


class NotInvariant(PreconditionError):
    """Polynomial fails an invariance condition; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInL(PreconditionError):
    """Matrix is outside the common zero locus of the leading invariants."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ZeroDiscriminant(PreconditionError):
    """Closed-form denominator has zero body."""


class SamplingError(SuperInvError):
    """Rejection sampling exceeded its retry cap."""
