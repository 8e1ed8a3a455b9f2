"""Sparse multivariate polynomials over the rationals.

Just enough arithmetic to expand the determinant of a matrix whose entries
are linear forms in the coordinates of a derivation space.  The expansion
runs over column subsets (Laplace with memoisation), so an n by n symbolic
determinant costs 2^n polynomial multiplications instead of n! term walks.
Exactness is the point: a polynomial is zero here iff it is the zero
polynomial, with no sampling involved.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Value, _set
from .rational import ONE, Q

Monomial = tuple[int, ...]


class Poly(Value):
    """Polynomial as a map from exponent tuples to nonzero coefficients."""

    __slots__ = ("nvars", "terms")
    _fields = __slots__

    def __init__(self, nvars: int,
                 terms: tuple[tuple[Monomial, Fraction], ...]) -> None:
        _set(self, "nvars", nvars)
        _set(self, "terms", terms)

    @staticmethod
    def _normalise(nvars: int, raw: dict[Monomial, Fraction]) -> "Poly":
        items = tuple(sorted((m, c) for m, c in raw.items() if c != 0))
        return Poly(nvars, items)

    @staticmethod
    def const(nvars: int, value) -> "Poly":
        value = Q(value)
        if value == 0:
            return Poly(nvars, ())
        return Poly(nvars, (((0,) * nvars, value),))

    @staticmethod
    def variable(nvars: int, index: int, coeff=ONE) -> "Poly":
        mono = tuple(1 if k == index else 0 for k in range(nvars))
        return Poly._normalise(nvars, {mono: Q(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Q(0)) + c
        return Poly._normalise(self.nvars, acc)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, Q(0)) + c1 * c2
        return Poly._normalise(self.nvars, acc)


def det_poly(entries: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials."""
    n = len(entries)
    if n == 0:
        raise ValueError("empty matrix")
    nvars = entries[0][0].nvars
    zero = Poly.const(nvars, 0)
    cache: dict[tuple[int, int], Poly] = {}

    def minor(row: int, colmask: int) -> Poly:
        # determinant of rows row.. over the columns still set in colmask
        if row == n:
            return Poly.const(nvars, 1)
        key = (row, colmask)
        if key in cache:
            return cache[key]
        acc = zero
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not colmask & bit:
                continue
            e = entries[row][j]
            if not e.is_zero():
                sub = minor(row + 1, colmask & ~bit)
                term = e * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, (1 << n) - 1)
