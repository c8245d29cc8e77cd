"""Exception types shared across the library.

Every failure mode that callers are expected to handle has its own class so
the command line driver can map them onto process exit codes.
"""

from __future__ import annotations


class IIBLabError(Exception):
    """Base class for all library errors."""


class ConfigError(IIBLabError):
    """Run configuration is malformed, inconsistent, or out of range."""


class GridError(IIBLabError):
    """Invalid torus grid construction or mismatched grids in a binary op."""


class DegreeError(IIBLabError):
    """Form bidegree out of range (negative or above the complex dimension)."""


class ValenceError(IIBLabError):
    """Tensor index signature does not match the array that carries it."""


class HermiticityError(IIBLabError):
    """A matrix field that must be Hermitian is not, beyond tolerance."""


class PositivityError(IIBLabError):
    """A metric lost positive definiteness (smallest eigenvalue at fault)."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class DegeneracyError(IIBLabError):
    """Operation undefined at this complex dimension (the n = 2 corner)."""


class SingularSystemError(IIBLabError):
    """The pointwise linear solve in the flux-form velocity is unreliable."""


class SnapshotFormatError(IIBLabError):
    """Snapshot file is corrupt or truncated.

    ``offset`` points at the first byte that failed validation.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class VerificationError(IIBLabError):
    """A trajectory cannot support an evolution identity check.

    Raised when it is not a weighted-formulation run, holds fewer than
    three stored states, or is not uniformly spaced in time where the
    check takes its centered time derivative.
    """
