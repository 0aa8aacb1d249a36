"""Exception types shared across the package."""

# rounds of 4 n candidates a rejection loop draws before it raises NumericsError
MAX_REJECTION_ROUNDS = 50


class MetastableError(Exception):
    """Base class for all package errors."""


class InputError(MetastableError, ValueError):
    """Malformed arguments: dimension mismatches, empty grids, bad ranges."""


class StructuralError(MetastableError):
    """The located critical-point structure is not a valid double well."""


class SpectralError(MetastableError):
    """Degenerate or unusable Hessian spectrum."""


class NumericsError(MetastableError):
    """Trajectory blow-up, quadrature non-convergence, or similar failures."""


class ClassificationError(MetastableError):
    """A well-membership or flow decision could not be made reliably."""
