"""Exception and warning types shared across the package."""


class RadwigError(Exception):
    """Base class for all errors raised by radwig."""


class DomainError(RadwigError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegreeOverflowError(RadwigError, ValueError):
    """Requested polynomial degree exceeds the configured maximum."""


class ValidationError(RadwigError, ValueError):
    """A constructed object violates one of its invariants."""


class BasisMismatchError(RadwigError, TypeError):
    """An operator was applied to a state in an incompatible basis."""


class GridAlignmentError(RadwigError, ValueError):
    """Requested output points do not line up with stored samples."""


class GridMismatchError(RadwigError, ValueError):
    """Two grids that must be identical differ."""


class TruncationError(RadwigError, ValueError):
    """Too much probability mass falls outside the sampled window.

    Attributes
    ----------
    lost_mass : float
        Estimate of the probability mass outside the usable window.
    """

    def __init__(self, message, lost_mass=None):
        super().__init__(message)
        self.lost_mass = lost_mass


class AccuracyError(RadwigError, ArithmeticError):
    """A computed error estimate exceeds its tolerance.

    Attributes
    ----------
    residual : float
        The error estimate that was over the tolerance.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedOrderError(RadwigError, ValueError):
    """Requested quasi-distribution ordering parameter is not supported."""


class SchemaError(RadwigError, ValueError):
    """An input file violates the documented schema."""


class TruncationWarning(UserWarning):
    """Probability mass near a grid edge may degrade accuracy."""
