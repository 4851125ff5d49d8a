"""Exception types and failure reasons shared across the package."""

from enum import StrEnum


class Failure(StrEnum):
    """Why a refinement run ended without converging.

    The value is the slug the command line writes in its status column;
    the reports carry the free-text explanation in a separate ``detail``.
    """

    SINGULAR_EQUATION = "singular_equation"
    NAN_BREAKDOWN = "nan_breakdown"
    NON_CONVERGENCE = "non_convergence"
    GMRES_STAGNATION = "gmres_stagnation"
    PRECONDITIONER = "preconditioner"


class MpsylvError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MpsylvError, ValueError):
    """Operands have inconsistent shapes."""


class MatrixMarketError(MpsylvError, ValueError):
    """A Matrix Market file does not follow the format."""


class NonFiniteInputError(MpsylvError, ValueError):
    """An input matrix has a NaN or infinite entry."""


class SingularMatrixError(MpsylvError):
    """An exactly zero pivot was met while factorizing a matrix."""


class SingularEquationError(MpsylvError):
    """A triangular Sylvester recurrence met an exactly singular diagonal pair.

    Carries the (row, column) position of the offending pair.
    """

    def __init__(self, row: int, col: int):
        super().__init__(f"singular diagonal pair at position ({row}, {col})")
        self.row = row
        self.col = col


class NumericBreakdownError(MpsylvError):
    """A NaN or infinity appeared in the middle of a recurrence."""


class RankDeficiencyError(MpsylvError):
    """A QR factorization found the input numerically rank deficient."""


class NotHermitianError(MpsylvError, ValueError):
    """An operation requiring a Hermitian matrix received a non-Hermitian one."""


class IterationLimitError(MpsylvError):
    """An iterative factorization failed to converge within its sweep budget."""


class FormatOverflowError(MpsylvError):
    """A matrix entry is not representable in the requested format."""


class PrecisionOverflowWarning(RuntimeWarning):
    """A finite value overflowed to infinity while being rounded into a format."""
