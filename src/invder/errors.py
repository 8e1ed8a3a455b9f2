"""Exception taxonomy shared by the whole package.

Every error raised on purpose derives from InvderError so callers (and the
command line front end) can distinguish bad input or failed preconditions
from genuine bugs.
"""

from __future__ import annotations


class InvderError(Exception):
    """Base class for all errors raised by this package."""


class InputError(InvderError):
    """Malformed input: bad file, unknown name, dimension mismatch."""


class SingularMatrixError(InvderError):
    """A matrix inversion was requested but the determinant is zero."""


class PreconditionError(InvderError):
    """A construction was invoked on input that fails its precondition."""


class NotInvDerError(PreconditionError):
    """The supplied map is not an invertible derivation with derivation inverse."""
