"""Exact linear algebra over rationals."""
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invder.errors import InputError, SingularMatrixError
from invder.linalg import Matrix, Vector, solve

ints = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.from_rows)


def vec(n):
    return st.lists(ints, min_size=n, max_size=n).map(Vector.of)


class TestMatrixBasics:
    def test_columns_and_rows_agree(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m == Matrix.from_columns([[1, 3], [2, 4]])
        assert m.row(0) == Vector.of([1, 2])
        assert m.column(0) == Vector.of([1, 3])
        assert m.transpose() == Matrix.from_rows([[1, 3], [2, 4]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            Matrix.from_rows([[1, 2], [3]])

    def test_apply_is_matrix_vector_product(self):
        m = Matrix.from_rows([[1, 2], [0, 1]])
        assert m.apply(Vector.of([1, 1])) == Vector.of([3, 1])

    def test_shape_mismatch_rejected(self):
        m = Matrix.from_rows([[1, 2], [0, 1]])
        with pytest.raises(InputError):
            m.apply(Vector.of([1, 1, 1]))
        with pytest.raises(InputError):
            m.matmul(Matrix.zeros(3, 2))
        with pytest.raises(InputError):
            m + Matrix.zeros(3, 2)


class TestDeterminantAndInverse:
    def test_known_inverse(self):
        m = Matrix.from_rows([[1, -1], [3, 1]])
        assert m.det() == 4
        expected = Matrix.from_rows([[Q(1, 4), Q(1, 4)], [Q(-3, 4), Q(1, 4)]])
        assert m.invert() == expected

    def test_singular_matrix_has_no_inverse(self):
        m = Matrix.from_rows([[1, 2], [2, 4]])
        assert m.det() == 0
        with pytest.raises(SingularMatrixError):
            m.invert()

    def test_non_square_rejected(self):
        m = Matrix.zeros(2, 3)
        with pytest.raises(InputError):
            m.det()
        with pytest.raises(InputError):
            m.invert()

    @given(square(3))
    def test_inverse_exists_exactly_when_det_nonzero(self, m):
        if m.det() == 0:
            with pytest.raises(SingularMatrixError):
                m.invert()
        else:
            assert m.matmul(m.invert()) == Matrix.identity(3)
            assert m.invert().matmul(m) == Matrix.identity(3)

    @given(square(3), square(3))
    def test_determinant_is_multiplicative(self, a, b):
        assert a.matmul(b).det() == a.det() * b.det()


class TestRankAndKernel:
    def test_zero_matrix_kernel_is_full(self):
        ker = Matrix.zeros(2, 3).kernel_basis()
        assert len(ker) == 3
        assert Matrix.zeros(2, 3).rank() == 0

    @given(square(4))
    def test_rank_plus_nullity_is_column_count(self, m):
        assert m.rank() + len(m.kernel_basis()) == 4

    @given(square(3))
    def test_kernel_vectors_map_to_zero(self, m):
        for k in m.kernel_basis():
            assert m.apply(k).is_zero()

    @given(square(3))
    def test_rref_is_idempotent(self, m):
        r, pivots = m.rref()
        assert r.rref() == (r, pivots)


class TestSolve:
    def test_underdetermined_system(self):
        a = Matrix.from_rows([[1, 2], [2, 4]])
        sol = solve(a, Vector.of([1, 2]))
        assert sol.particular == Vector.of([1, 0])
        assert sol.kernel == (Vector.of([-2, 1]),)

    def test_inconsistent_system_returns_none(self):
        a = Matrix.from_rows([[1, 2], [2, 4]])
        assert solve(a, Vector.of([1, 3])) is None

    @given(square(3), vec(3))
    def test_answers_satisfy_the_system(self, a, b):
        sol = solve(a, b)
        if sol is None:
            # Inconsistency means appending b raises the rank.
            aug = Matrix.from_columns(
                [list(a.column(j).entries) for j in range(3)]
                + [list(b.entries)])
            assert aug.rank() == a.rank() + 1
        else:
            assert a.apply(sol.particular) == b
            for k in sol.kernel:
                assert a.apply(k).is_zero()
            assert len(sol.kernel) == len(a.kernel_basis())
