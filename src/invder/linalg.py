"""Exact linear algebra over the rationals.

A matrix holds integer numerators over one positive common denominator,
in lowest terms, so its arithmetic is integer arithmetic and two equal
matrices hold the same pair.  Its entries as Fractions, and as lean
scalars (rational.lean: an int where the entry is integral), are built
only where they are read.

Everything here is small and dense: the algebras this package handles live
in dimension six or less, so the eliminations favour a canonical,
reproducible answer over asymptotic cleverness.  There are two of them.
Reduced row echelon form, behind rank and kernel, always chooses the
leftmost available pivot, pivots are normalised to one, and kernel bases
enumerate free columns in ascending order with each free variable set to one
in turn, so a kernel vector's free column is its last nonzero entry.  Two
runs on equal input produce bit-equal output.  Both eliminations are
fraction-free on the integer numerators: rref scales rows by integers and
divides by a pivot only when it writes the reduced form, and determinants
and inverses, which are unique, come from one Bareiss elimination, so they
cost integer arithmetic only.

The value types of the package, Matrix and Vector here and the
operations, maps, algebras, reports and verdicts built on them, are
plain classes with __slots__ on the Value base: written once in
__init__, immutable after, and equal when their fields are.  A cache
that a value fills on first read is a slot set to None in __init__.
No code is generated for them: a class costs its own body at import,
and nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import InputError, SingularMatrixError
from .rational import ZERO, Q

_set = object.__setattr__


class Value:
    """Base of the immutable value types: slots written once, in __init__.

    _fields names the constructor's arguments in order; equality, the hash
    and the repr read the ones _compared names, all of them by default.
    Equal values are of one class, and a value pickles and copies as its
    constructor call.  A slot that caches what is first read off the
    fields is set to None in __init__ and written with _set when filled.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls) -> None:
        names = cls._compared or cls._fields
        if names:
            cls._key = attrgetter(*names)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}"
            for f in self._compared or self._fields) + ")"


class Vector(Value):
    """Immutable dense column of rationals."""

    __slots__ = ("entries",)
    _fields = ("entries",)

    def __init__(self, entries: tuple[Fraction, ...]) -> None:
        _set(self, "entries", entries)

    @staticmethod
    def of(values) -> "Vector":
        return Vector(tuple(Q(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def _rationals(values) -> tuple:
    return tuple(v if type(v) is int else Q(v) for v in values)


class Matrix(Value):
    """Immutable matrix, row major: entry (i, j) is num[i * cols + j] / den.

    den is positive and gcd(den, *num) is 1, so the pair is unique:
    equality compares it, and the hash is the one of the entries (2 and
    Fraction(2) hash alike).
    """

    __slots__ = ("rows", "cols", "num", "den", "_lean", "_entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        """The matrix with these entries, ints or Fractions, row by row."""
        entries = tuple(entries)
        den = lcm(*(v.denominator for v in entries))
        self._init(rows, cols, tuple(v.numerator * (den // v.denominator)
                                     for v in entries), den)

    @staticmethod
    def over(rows: int, cols: int, num, den: int = 1) -> "Matrix":
        """The matrix of the integers num, row by row, over the nonzero
        integer den, brought to lowest terms."""
        if not den:
            raise InputError("matrix denominator is zero")
        if den < 0:
            num, den = [-v for v in num], -den
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num, den = [v // g for v in num], den // g
        m = Matrix.__new__(Matrix)
        m._init(rows, cols, tuple(num), den)
        return m

    def _init(self, rows: int, cols: int, num: tuple[int, ...],
              den: int) -> None:
        if rows < 0 or cols < 0:
            raise InputError("negative matrix shape")
        if len(num) != rows * cols:
            raise InputError("matrix entry count does not match shape")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "_lean", None)
        _set(self, "_entries", None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.num) \
            == (other.rows, other.cols, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.lean_entries()))

    def __reduce__(self):
        return Matrix.over, (self.rows, self.cols, self.num, self.den)

    def __repr__(self) -> str:
        return f"Matrix.over({self.rows}, {self.cols}, {self.num!r}, {self.den})"

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, row by row; built once, when read."""
        flat = self._entries
        if flat is None:
            den = self.den
            flat = tuple(map(Q, self.num)) if den == 1 \
                else tuple(Q(v, den) for v in self.num)
            _set(self, "_entries", flat)
        return flat

    def lean_entries(self) -> tuple:
        """The entries as lean scalars, row by row: the numerators
        themselves when the matrix is integral."""
        flat = self._lean
        if flat is None:
            den = self.den
            flat = self.num if den == 1 else tuple(
                Q(v, den) if v % den else v // den for v in self.num)
            _set(self, "_lean", flat)
        return flat

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise InputError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("ragged matrix rows")
        return Matrix(len(rows), width, _rationals(v for r in rows for v in r))

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = [list(c) for c in cols]
        if not cols:
            raise InputError("matrix needs at least one column")
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise InputError("ragged matrix columns")
        return Matrix(height, len(cols), _rationals(
            cols[j][i] for i in range(height) for j in range(len(cols))))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.over(n, n, [int(i == j) for i in range(n)
                                  for j in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix.over(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def scale(self, c) -> "Matrix":
        c = Q(c)
        return Matrix.over(self.rows, self.cols,
                           [c.numerator * v for v in self.num],
                           c.denominator * self.den)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        b = other.num
        width = other.cols
        out = []
        for i in range(self.rows):
            row = [(k * width, a) for k, a in
                   enumerate(self.num[i * self.cols:(i + 1) * self.cols])
                   if a]
            for j in range(width):
                acc = 0
                for base, a in row:
                    acc += a * b[base + j]
                out.append(acc)
        return Matrix.over(self.rows, width, out, self.den * other.den)

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise InputError(f"cannot apply {self.rows}x{self.cols} to vector "
                             f"of length {len(v)}")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for k in range(self.cols):
                a = self.num[base + k]
                if a:
                    acc += a * v[k]
            out.append(acc / self.den)
        return Vector(tuple(out))

    def _num_rows(self) -> list[list[int]]:
        w = self.cols
        return [list(self.num[i * w:(i + 1) * w]) for i in range(self.rows)]

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        The elimination runs on the integer numerators.  A pivot row is
        negated to a positive pivot, and any other row is only ever
        multiplied by a positive integer, less a multiple of the pivot row,
        and divided by the gcd of its entries.  None of that moves the row
        space, and the reduced form is unique, so it is each pivot row over
        its pivot, written over the lcm of the pivots.  Only the rows with
        a nonzero in the pivot column take part, and when the pivot divides
        that entry, as the unit pivots of the Leibniz systems do, only the
        nonzero cells of the pivot row are read, so the mostly zero
        systems cost what their nonzero entries cost.
        """
        m = self._num_rows()
        w = self.cols
        pivots: list[int] = []
        r = 0
        for c in range(w):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            row = m[r]
            if row[c] < 0:
                row = m[r] = [-v for v in row]
            p = row[c]
            # cells left of the pivot are already zero
            cells = [(j, v) for j in range(c, w) if (v := row[j])]
            for i, other in enumerate(m):
                f = other[c]
                if not f or i == r:
                    continue
                # p / g times the row, less f / g times the pivot row
                g = gcd(p, f)
                if g != p:
                    s = p // g
                    other = m[i] = [s * v for v in other]
                q = f // g
                for j, v in cells:
                    other[j] -= q * v
                if g != p and (h := gcd(*other)) > 1:
                    m[i] = [v // h for v in other]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        heads = [m[k][c] for k, c in enumerate(pivots)]
        den = lcm(*heads)
        for k, head in enumerate(heads):
            if head != den:
                s = den // head
                m[k] = [s * v for v in m[k]]
        return (Matrix.over(self.rows, w, [v for row in m for v in row], den),
                tuple(pivots))

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> tuple[list[list[int]], int]:
        """Canonical null space basis as integer vectors over one positive
        denominator: one vector per free column, ascending, with that free
        variable at one and the other free variables at zero."""
        reduced, pivots = self.rref()
        num, den, w = reduced.num, reduced.den, self.cols
        pivot_set = set(pivots)
        basis = []
        for f in range(w):
            if f in pivot_set:
                continue
            v = [0] * w
            v[f] = den
            for r, p in enumerate(pivots):
                v[p] = -num[r * w + f]
            basis.append(v)
        return basis, den

    def det(self) -> Fraction:
        if not self.is_square:
            raise InputError("determinant of a non-square matrix")
        eliminated = _fraction_free(self._num_rows(), self.rows)
        if eliminated is None:
            return ZERO
        sign, d = eliminated
        return Q(sign * d, self.den ** self.rows)

    def invert(self) -> "Matrix":
        """Inverse matrix; raises SingularMatrixError when det = 0."""
        if not self.is_square:
            raise InputError("inverse of a non-square matrix")
        n = self.rows
        rows = self._num_rows()
        for i, row in enumerate(rows):
            row.extend(int(j == i) for j in range(n))
        eliminated = _fraction_free(rows, n)
        if eliminated is None:
            raise SingularMatrixError("matrix is singular")
        # the rows end as [d I | d N^-1] for the numerators N = den A, so
        # A^-1 = den N^-1 is den times the right block over d
        den = self.den
        return Matrix.over(n, n, [v * den for row in rows for v in row[n:]],
                           eliminated[1])


def _fraction_free(rows: list[list[int]], n: int) -> tuple[int, int] | None:
    """Fraction-free Gauss-Jordan elimination on the first n columns.

    Works in place on the integer rows of [A | B], A of size n (Bareiss
    1968): after step k every entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact.  The rows end as
    [d I | d A^-1 B]; the result is the sign of the row swaps and d, so
    det A = sign * d.  None when A is singular.
    """
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return None
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        prow = rows[k]
        pivot = prow[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            if f:
                rows[i] = [(pivot * a - f * b) // prev
                           for a, b in zip(row, prow)]
            elif pivot != prev:
                rows[i] = [a * pivot // prev for a in row]
        prev = pivot
    return sign, prev
