"""Exact linear algebra over rationals."""
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from invder.errors import InputError, SingularMatrixError
from invder.linalg import Matrix, Vector

ints = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.from_rows)


class TestMatrixBasics:
    def test_columns_and_rows_agree(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m == Matrix.from_columns([[1, 3], [2, 4]])

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
        ker, den = Matrix.zeros(2, 3).kernel()
        assert len(ker) == 3 and den > 0
        assert Matrix.zeros(2, 3).rank() == 0

    @given(square(4))
    def test_rank_plus_nullity_is_column_count(self, m):
        assert m.rank() + len(m.kernel()[0]) == 4

    @given(square(3))
    def test_kernel_vectors_map_to_zero(self, m):
        ker, den = m.kernel()
        for k in ker:
            assert any(k)
            assert m.apply(Vector.of(Q(v, den) for v in k)).is_zero()

    @given(st.lists(st.lists(ints, min_size=5, max_size=5), min_size=1,
                    max_size=5))
    def test_free_column_is_each_kernel_vector_last_nonzero(self, rows):
        """The shape DerivationSpace.coordinates_of reads coordinates off:
        each kernel vector is den at its last nonzero entry, those
        entries' positions ascend, and every other vector is 0 there."""
        ker, den = Matrix.from_rows(rows).kernel()
        last = [max(j for j, v in enumerate(k) if v) for k in ker]
        assert last == sorted(set(last))
        for k, f in zip(ker, last):
            assert k[f] == den
        for t, k in enumerate(ker):
            assert all(k[f] == 0 for s, f in enumerate(last) if s != t)

    @given(square(3))
    def test_rref_is_idempotent(self, m):
        r, pivots = m.rref()
        assert r.rref() == (r, pivots)
