"""Exception types shared across the package."""


class MtmError(Exception):
    """Base class for all domain errors raised by mtmlab."""


class ParameterError(MtmError, ValueError):
    """A scalar parameter is outside its admissible range (e.g. gamma not in (0, pi))."""


class GridMismatchError(MtmError, ValueError):
    """Two fields that must share a grid were sampled on different grids."""


class FieldValidationError(MtmError, ValueError):
    """Field data violates a structural invariant (non-finite samples, wrong length)."""


class DegenerateVectorError(MtmError, ValueError):
    """A Lax vector vanishes (or underflows) at a sample where a division is required."""


class DegenerateExponentError(MtmError, ValueError):
    """lambda**2 is real, so the spatial exponents lose their growing/decaying split."""


class IntegrationError(MtmError, RuntimeError):
    """A one-step integration produced non-finite values."""


class OrthogonalityError(MtmError, ValueError):
    """A solvability (orthogonality) condition is violated beyond tolerance."""


class NoEigenvalueError(MtmError, RuntimeError):
    """Root finding on the Evans function failed to converge near the guess."""
