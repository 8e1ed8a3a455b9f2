"""Structure-constant model: operations, maps, algebras, serialization."""
import json
from fractions import Fraction as Q

import pytest

from invder import (Algebra, AlgebraDocument, BilinearOp, LinearMap,
                    algebra_from_dict, algebra_to_dict, catalog, entry,
                    load_algebra, save_algebra)
from invder.errors import InputError, SingularMatrixError
from invder.linalg import Matrix, Vector

SO3 = {
    (0, 1): {2: 1}, (1, 0): {2: -1},
    (1, 2): {0: 1}, (2, 1): {0: -1},
    (2, 0): {1: 1}, (0, 2): {1: -1},
}
HEIS = {(0, 1): {2: 1}, (1, 0): {2: -1}}


def so3_op():
    return BilinearOp.from_dict(3, SO3)


def heis_op():
    return BilinearOp.from_dict(3, HEIS)


class TestBilinearOp:
    def test_basis_product_reads_the_table(self):
        op = so3_op()
        assert op.basis_product(0, 1) == {2: Q(1)}
        assert op.basis_product(1, 1) == {}

    def test_zero_coefficients_are_dropped(self):
        op = BilinearOp.from_dict(2, {(0, 0): {1: 0}})
        assert not op.constants
        assert op.basis_product(0, 0) == {}

    def test_mul_sparse_is_bilinear_expansion(self):
        # [e1+e2, e2+e3] = e3 - e2 + e1; the dense oracle in
        # test_exactness checks mul_sparse on random vectors
        assert so3_op().mul_sparse({0: 1, 1: 1}, {1: 1, 2: 1}) \
            == {0: 1, 1: -1, 2: 1}

    def test_opposite_swaps_arguments(self):
        star = entry("a3").algebra.op()
        assert star.opposite().basis_product(0, 1) == {2: Q(-1)}
        assert star.opposite().opposite() == star

    def test_additive_structure(self):
        op = so3_op()
        assert not (op - op).constants
        assert op + op == op.scale(2)

    def test_twist_post_composes_the_map(self):
        delta = LinearMap.from_columns([[1, 3, 0], [-1, 1, 0], [0, 0, 2]])
        twisted = heis_op().twist(delta)
        assert twisted.basis_product(0, 1) == {2: Q(2)}
        assert twisted.basis_product(1, 0) == {2: Q(-2)}

    def test_twist_of_generic_skew_map(self):
        # A skew matrix built from derivation coordinates sends the
        # bracket of the first two basis vectors to e1 - 3 e2.
        delta = LinearMap.from_columns([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
        twisted = so3_op().twist(delta)
        assert twisted.basis_product(0, 1) == {0: Q(1), 1: Q(-3)}

    def test_compose_left_acts_on_first_argument(self):
        r = LinearMap.diagonal([2, 1, 1])
        assert heis_op().compose_left(r).basis_product(0, 1) == {2: Q(2)}
        assert heis_op().compose_left(r).basis_product(1, 0) == {2: Q(-1)}

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            heis_op().twist(LinearMap.identity(2))
        with pytest.raises(InputError):
            heis_op() + BilinearOp.from_dict(2, {})


class TestLinearMap:
    def test_column_is_image_of_basis_vector(self):
        m = LinearMap.from_columns([[0, 1], [1, 0]])
        assert m.matrix.apply(Vector.of([1, 0])) == Vector.of([0, 1])
        assert m.column_sparse(0) == {1: Q(1)}

    def test_rows_and_columns_are_transposes(self):
        assert LinearMap(Matrix.from_rows([[1, 2], [3, 4]])) == \
            LinearMap.from_columns([[1, 3], [2, 4]])

    def test_apply_sparse_matches_apply(self):
        m = LinearMap.from_columns([[1, 3, 0], [-1, 1, 0], [0, 0, 2]])
        dense = m.matrix.apply(Vector.of([1, 0, 2]))
        sparse = m.apply_sparse({0: Q(1), 2: Q(2)})
        assert dense == Vector.of([sparse.get(i, Q(0)) for i in range(3)])

    def test_compose_and_square(self):
        d = LinearMap.diagonal([1, 2, 3])
        assert d.compose(d) == LinearMap.diagonal([1, 4, 9])
        assert d.compose(d).matrix.apply(Vector.of([0, 1, 0])) \
            == Vector.of([0, 4, 0])

    def test_inverse_round_trip(self):
        m = LinearMap.from_columns([[1, 3, 0], [-1, 1, 0], [0, 0, 2]])
        assert m.matrix.det() == Q(8)
        assert m.compose(m.inverse()) == LinearMap.identity(3)
        assert not LinearMap.zero(3).is_invertible()
        with pytest.raises(SingularMatrixError):
            LinearMap.zero(3).inverse()

    def test_commutes_with(self):
        a = LinearMap.diagonal([1, 2])
        b = LinearMap.diagonal([5, 7])
        c = LinearMap.from_columns([[0, 1], [1, 0]])
        assert a.commutes_with(b)
        assert not a.commutes_with(c)

    def test_column_string_round_trip(self):
        cols = [["1", "3", "0"], ["-1", "1", "0"], ["0", "0", "1/2"]]
        m = LinearMap.from_column_strings(cols, 3)
        assert m.to_columns() == cols

    def test_bad_rational_string_rejected(self):
        with pytest.raises(InputError):
            LinearMap.from_column_strings([["1", "0.5"], ["0", "1"]], 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InputError):
            LinearMap.from_column_strings([["1", "0"]], 2)


class TestAlgebra:
    def test_single_op_is_the_default(self):
        alg = Algebra.build("h", ["x", "y", "z"], {"bracket": heis_op()})
        assert alg.op() is alg.op("bracket")
        assert alg.op_names() == ("bracket",)

    def test_two_op_algebra_needs_an_explicit_name(self):
        d2 = entry("d2").algebra
        with pytest.raises(InputError):
            d2.op()
        assert d2.op("right").basis_product(0, 0) == {1: Q(1)}

    def test_unknown_op_rejected(self):
        alg = entry("so3").algebra
        with pytest.raises(InputError):
            alg.op("missing")

    def test_basis_length_must_match_op_dimension(self):
        with pytest.raises(InputError):
            Algebra.build("bad", ["x", "y"], {"bracket": heis_op()})

    def test_document_map_lookup(self):
        doc = entry("heisenberg3").document
        assert "delta_w" in doc.map_names()
        with pytest.raises(InputError):
            doc.map("missing")


class TestSerialization:
    def test_catalog_round_trips_through_dict_form(self):
        for e in catalog():
            doc = algebra_from_dict(algebra_to_dict(e.document))
            assert doc.algebra.name == e.algebra.name
            assert doc.algebra.kind_hint == e.algebra.kind_hint
            assert doc.map_names() == e.document.map_names()
            for name, _ in e.document.maps:
                assert doc.map(name) == e.document.map(name)
            for op_name in e.algebra.op_names():
                assert doc.algebra.op(op_name) == e.algebra.op(op_name)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "heis.json")
        save_algebra(entry("heisenberg3").document, path)
        doc = load_algebra(path)
        assert doc.algebra.op().basis_product(0, 1) == {2: Q(1)}
        assert doc.map("delta_w").to_columns() == \
            entry("heisenberg3").document.map("delta_w").to_columns()

    def test_skew_flag_fills_mirror_entries(self):
        data = {
            "name": "h", "dimension": 3, "basis": ["x", "y", "z"],
            "operations": {"bracket": {
                "skew": True, "table": [{"i": 0, "j": 1, "v": [["1", 2]]}]}},
        }
        op = algebra_from_dict(data).algebra.op()
        assert op.basis_product(1, 0) == {2: Q(-1)}

    def test_skew_diagonal_must_vanish(self):
        data = {
            "name": "h", "dimension": 2, "basis": ["x", "y"],
            "operations": {"bracket": {
                "skew": True, "table": [{"i": 0, "j": 0, "v": [["1", 1]]}]}},
        }
        with pytest.raises(InputError):
            algebra_from_dict(data)

    def test_duplicate_pair_rejected(self):
        data = {
            "name": "h", "dimension": 2, "basis": ["x", "y"],
            "operations": {"mul": {"table": [
                {"i": 0, "j": 0, "v": [["1", 1]]},
                {"i": 0, "j": 0, "v": [["2", 1]]}]}},
        }
        with pytest.raises(InputError):
            algebra_from_dict(data)

    @pytest.mark.parametrize("mutation", [
        lambda d: d.pop("basis"),
        lambda d: d.__setitem__("dimension", 0),
        lambda d: d.__setitem__("basis", ["x"]),
        lambda d: d.__setitem__("operations", {}),
        lambda d: d.__setitem__("operations", {"m": {}}),
        lambda d: d.__setitem__(
            "operations", {"m": {"table": [{"i": 0, "v": [["1", 0]]}]}}),
        lambda d: d.__setitem__(
            "operations", {"m": {"table": [{"i": 0, "j": 0, "v": [["x", 0]]}]}}),
        lambda d: d.__setitem__("maps", {"f": [["1"], ["0"]]}),
    ])
    def test_malformed_documents_rejected(self, mutation):
        data = {
            "name": "a", "dimension": 2, "basis": ["x", "y"],
            "operations": {"m": {"table": [{"i": 0, "j": 1, "v": [["1", 0]]}]}},
        }
        mutation(data)
        with pytest.raises(InputError):
            algebra_from_dict(data)

    def test_unreadable_and_invalid_files(self, tmp_path):
        with pytest.raises(InputError):
            load_algebra(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            load_algebra(str(bad))

    def test_save_produces_stable_json(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_algebra(entry("a3").document, a)
        save_algebra(entry("a3").document, b)
        with open(a) as fa, open(b) as fb:
            text = fa.read()
            assert text == fb.read()
        json.loads(text)
