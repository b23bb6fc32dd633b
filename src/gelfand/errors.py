"""Exception types shared across the library.

Every exception carries a human-readable message plus a ``details`` dict of
machine-readable context (indices, residuals, tolerances) so batch reports
can embed the failure without parsing strings.
"""

from __future__ import annotations


class GelfandError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def payload(self) -> dict:
        """Machine-readable form used by the CLI error reports."""
        return {"type": type(self).__name__, "message": self.message,
                "details": _plain(self.details)}


def _plain(obj):
    # Best-effort conversion of detail values to JSON-friendly types.
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


class ShapeMismatch(GelfandError):
    """An input array does not have the documented shape."""


class DimensionMismatch(GelfandError):
    """A coordinate vector does not match the algebra dimension."""


class LengthMismatch(GelfandError):
    """A target list does not match the number of characters."""


class NotCommutative(GelfandError):
    """Structure data (or an operator family) fails commutativity."""


class NotAssociative(GelfandError):
    """The structure tensor fails the associativity identity."""


class BadUnit(GelfandError):
    """The claimed unit vector does not act as a multiplicative identity."""


class CertificationFailed(GelfandError):
    """A computed object could not be certified against its invariants."""


class NotDistinct(GelfandError):
    """Two characters expected to be distinct coincide within tolerance."""


class NotMember(GelfandError):
    """A character is not a member of the given collection."""


class InvalidNorm(GelfandError):
    """Norm construction data fails its certificate."""


class ContractionViolated(GelfandError):
    """|phi(x)| exceeded ‖x‖ beyond tolerance; indicates a bug."""


class PropertyViolated(GelfandError):
    """An internal invariant that should always hold was violated."""


class SelfAdjointnessViolated(GelfandError):
    """An operator claimed self-adjoint is not, within tolerance."""


class InvalidGroup(GelfandError):
    """Group data (invariant factors or Cayley table) is not a group."""


class CountMismatch(GelfandError):
    """A character count differs from the theoretically required value."""


class ParseError(GelfandError):
    """An input file is malformed."""
