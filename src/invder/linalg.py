"""Exact linear algebra over the rationals.

Everything here is small and dense: the algebras this package handles live
in dimension six or less, so the solvers favour a canonical, reproducible
answer over asymptotic cleverness.  Reduced row echelon form always chooses
the leftmost available pivot, pivots are normalised to one, and kernel bases
enumerate free columns in ascending order with each free variable set to one
in turn.  Two runs on equal input produce bit-equal output.  Determinants
and inverses, which are unique, come from one fraction-free elimination on
the rows scaled to integers, so they cost integer arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import InputError, SingularMatrixError
from .rational import ONE, ZERO, Q, lean


@dataclass(frozen=True)
class Vector:
    """Immutable dense column of rationals."""

    entries: tuple[Fraction, ...]

    @staticmethod
    def of(values) -> "Vector":
        return Vector(tuple(Q(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix, stored row major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InputError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("matrix entry count does not match shape")

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise InputError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("ragged matrix rows")
        return Matrix(len(rows), width, tuple(Q(v) for r in rows for v in r))

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = [list(c) for c in cols]
        if not cols:
            raise InputError("matrix needs at least one column")
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise InputError("ragged matrix columns")
        return Matrix(height, len(cols),
                      tuple(Q(cols[j][i]) for i in range(height) for j in range(len(cols))))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(ONE if i == j else ZERO
                                  for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i * self.cols:(i + 1) * self.cols])

    def column(self, j: int) -> Vector:
        return Vector(tuple(self.entry(i, j) for i in range(self.rows)))

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Matrix":
        c = Q(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        # lean scalars inside, so integral products stay int arithmetic
        b = [lean(v) for v in other.entries]
        width = other.cols
        out = []
        for i in range(self.rows):
            row = [(k * width, lean(a)) for k, a in
                   enumerate(self.entries[i * self.cols:(i + 1) * self.cols])
                   if a]
            for j in range(width):
                acc = 0
                for base, a in row:
                    acc += a * b[base + j]
                out.append(Q(acc))
        return Matrix(self.rows, width, tuple(out))

    def apply(self, v: Vector) -> Vector:
        if self.cols != len(v):
            raise InputError(f"cannot apply {self.rows}x{self.cols} to vector "
                             f"of length {len(v)}")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = ZERO
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    acc += a * v[k]
            out.append(acc)
        return Vector(tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entry(i, j)
                            for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        Only the nonzero cells of the pivot row take part in an update, so
        the mostly zero Leibniz systems and augmented identities cost what
        their nonzero entries cost.  The form is unique, so the result does
        not depend on the order of the updates.
        """
        m = self.row_lists()
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            row = m[r]
            # cells left of the pivot are already zero
            cells = [(j, row[j]) for j in range(c, self.cols) if row[j]]
            if row[c] != 1:
                inv = ONE / row[c]
                cells = [(j, inv * v) for j, v in cells]
                for j, v in cells:
                    row[j] = v
            for i in range(self.rows):
                f = m[i][c]
                if f and i != r:
                    other = m[i]
                    for j, v in cells:
                        other[j] -= f * v
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.rows, self.cols,
                      tuple(v for row in m for v in row)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[Vector]:
        """Canonical null space basis: one vector per free column, ascending."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -reduced.entry(r, f)
            basis.append(Vector(tuple(v)))
        return basis

    def det(self) -> Fraction:
        if not self.is_square:
            raise InputError("determinant of a non-square matrix")
        rows, scales = self._integral_rows()
        eliminated = _fraction_free(rows, self.rows)
        if eliminated is None:
            return ZERO
        sign, d = eliminated
        return Q(sign * d, prod(scales))

    def invert(self) -> "Matrix":
        """Inverse matrix; raises SingularMatrixError when det = 0."""
        if not self.is_square:
            raise InputError("inverse of a non-square matrix")
        n = self.rows
        rows, scales = self._integral_rows()
        for i, row in enumerate(rows):
            row.extend(int(j == i) for j in range(n))
        eliminated = _fraction_free(rows, n)
        if eliminated is None:
            raise SingularMatrixError("matrix is singular")
        d = eliminated[1]
        # rows i of A were scaled by s_i, so A^-1 = (SA)^-1 S
        return Matrix(n, n, tuple(Q(rows[i][n + j] * scales[j], d)
                                  for i in range(n) for j in range(n)))

    def _integral_rows(self) -> tuple[list[list[int]], list[int]]:
        """Each row times the lcm of its denominators, and those scales."""
        rows, scales = [], []
        for i in range(self.rows):
            row = self.entries[i * self.cols:(i + 1) * self.cols]
            s = lcm(*(v.denominator for v in row))
            rows.append([v.numerator * (s // v.denominator) for v in row])
            scales.append(s)
        return rows, scales

    def _check_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("matrix shape mismatch")


def _fraction_free(rows: list[list[int]], n: int) -> tuple[int, int] | None:
    """Fraction-free Gauss-Jordan elimination on the first n columns.

    Works in place on the integer rows of [A | B], A of size n (Bareiss
    1968): after step k every entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact, and only the nonzero cells of
    the pivot row are read.  The rows end as [d I | d A^-1 B]; the result
    is the sign of the row swaps and d, so det A = sign * d.  None when A
    is singular.
    """
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return None
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        cells = [(j, v) for j, v in enumerate(rows[k]) if v]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            if f:
                for j in range(len(row)):
                    row[j] *= pivot
                for j, v in cells:
                    row[j] -= f * v
                if prev != 1:
                    for j in range(len(row)):
                        row[j] //= prev
            elif pivot != prev:
                for j in range(len(row)):
                    row[j] = row[j] * pivot // prev
        prev = pivot
    return sign, prev


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of A x = b: one particular solution plus the kernel basis."""

    particular: Vector
    kernel: tuple[Vector, ...]


def solve(a: Matrix, b: Vector) -> SolutionSet | None:
    """Solve A x = b exactly; None when the system is inconsistent.

    The particular solution sets every free variable to zero, so the answer
    is canonical and reproducible.
    """
    if a.rows != len(b):
        raise InputError(f"system shape mismatch: {a.rows} rows vs {len(b)} rhs")
    aug = Matrix(a.rows, a.cols + 1,
                 tuple(v for i in range(a.rows)
                       for v in (*a.row(i).entries, b[i])))
    reduced, pivots = aug.rref()
    if pivots and pivots[-1] == a.cols:
        return None
    x = [ZERO] * a.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entry(r, a.cols)
    return SolutionSet(Vector(tuple(x)), tuple(a.kernel_basis()))
