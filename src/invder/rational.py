"""Exact rational scalars.

The public scalar type is the standard library Fraction, aliased as Q.
Fractions are always kept in lowest terms with a positive denominator, and
str() on a Fraction already produces the canonical wire format: "p/q", or
just "p" when the denominator is one.  The helpers below add strict parsing
so malformed coefficient strings in input files fail loudly instead of
being coerced.

Inside the hot loops (the sparse kernels of model and axioms, matmul and
DerivationSpace.combination) a scalar is lean: an int when it is
integral, a Fraction otherwise (see lean).  Sums there start at the int 0
and never divide, so integral tables and maps run on int arithmetic alone
and stay exact; a value is turned back into a Fraction with Q where it
leaves the loop.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

Q = Fraction

ZERO = Q(0)
ONE = Q(1)

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def lean(value: Q) -> int | Q:
    """The kernel form of a scalar: its numerator when it is integral."""
    return value.numerator if value.denominator == 1 else value


def parse_rational(text: str) -> Q:
    """Parse "p/q" or "p" (lowest terms not required on input)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise InputError(f"not a rational coefficient: {text!r}")
    try:
        return Q(text.strip())
    except ValueError as exc:  # beyond the interpreter's int-string digit limit
        raise InputError(f"rational coefficient too long: {len(text)} "
                         "characters") from exc


def format_rational(value: Q) -> str:
    """Canonical string form: "p/q" in lowest terms, "p" when integral."""
    return str(value)
