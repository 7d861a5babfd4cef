"""Exception types raised across the package.

Plain ``ValueError``/``RuntimeError`` are avoided for conditions callers are
expected to distinguish (CLI exit codes, verification suites).
"""


class MixSpecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MixSpecError, ValueError):
    """Raised when an interval is empty or reversed (a >= b)."""


class SizeError(MixSpecError, ValueError):
    """Raised when a size argument is not a positive integer."""


class ParameterError(MixSpecError, ValueError):
    """Raised when a scalar parameter is outside its admissible range."""


class OrderingError(ParameterError):
    """Raised when exponents violate the required ordering p <= r <= q."""


class UndefinedRatioError(ParameterError):
    """Raised when a ratio check is requested for the zero element."""


class MeasureError(MixSpecError, ValueError):
    """Raised when quadrature weights do not define a positive measure."""


class DimensionError(MixSpecError, ValueError):
    """Raised when array shapes or meshes are incompatible."""


class CoupleError(MixSpecError, ValueError):
    """Raised when a Gram matrix pair fails to define a Hilbert couple."""


class NormalizationError(MixSpecError, ValueError):
    """Raised when a couple is not normalized as an operation requires."""


class RequestError(MixSpecError, ValueError):
    """Raised when a structurally valid request cannot be served (k > n, ...)."""


class AccuracyError(MixSpecError, RuntimeError):
    """Raised when a numerical target accuracy is not met."""
