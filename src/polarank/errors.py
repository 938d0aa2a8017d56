"""Exception types shared across the package.

All contract violations and broken internal invariants raise one of these;
the package holds no assert, which ``python -O`` would strip.
"""


class PolarankError(Exception):
    """Base class for all package errors."""


class CompositeP(PolarankError, ValueError):
    """The requested characteristic is not prime."""


class UnsupportedCharacteristic(PolarankError, ValueError):
    """p = 2 requested on a path that requires odd characteristic."""


class DivisionByZero(PolarankError, ZeroDivisionError):
    """Multiplicative inverse of zero."""


class DimensionMismatch(PolarankError, ValueError):
    """Vector or matrix shape does not match the ambient space."""


class RangeError(PolarankError, ValueError):
    """An index or parameter is outside its documented range."""


class NonIntegralSolution(PolarankError, ArithmeticError):
    """The cyclic digit system did not solve in integers (cannot happen for
    valid types; kept as a loud check)."""


class ParityError(PolarankError, ArithmeticError):
    """A quantity that must be even came out odd."""


class InvariantError(PolarankError, ArithmeticError):
    """An identity that two independent routes must satisfy came out false."""


class ContextMismatch(PolarankError, ValueError):
    """Functions from different (m, p, t) contexts were combined."""


class NotSymplectic(PolarankError, ValueError):
    """A matrix does not preserve the alternating form."""


class DegreeError(PolarankError, ValueError):
    """A truncated-ring element has the wrong homogeneous degree."""


class IoError(PolarankError, OSError):
    """Matrix file could not be read or written."""


class FormatError(PolarankError, ValueError):
    """Matrix file is malformed; message carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceCapExceeded(PolarankError, RuntimeError):
    """A job would exceed its resource cap; verify and export move it with --max-cells."""
