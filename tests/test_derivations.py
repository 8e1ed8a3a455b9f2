"""Derivation spaces, InvDer verdicts, bounded search."""
import functools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invder import (Algebra, BilinearOp, InvDerAlgebra, LinearMap, axioms,
                    catalog, derivation_space, entry, generic_determinant,
                    invder_search, is_derivation, is_invder, load_algebra,
                    run_axiom)
from invder.catalog import SearchConfig, _family_algebras
from invder.errors import InputError, NotInvDerError
from invder.linalg import Matrix
from invder.model import FAMILIES
from test_basis_change import move_algebra, unimodular


class TestDerivationSpace:
    @pytest.mark.parametrize("entry_id,expected_dim", [
        ("so3", 3), ("heisenberg3", 6), ("abelian_2", 4), ("solvable2", 2),
        ("filiform_n4", 7), ("a3", 6), ("m2", 3), ("z3", 3), ("d2", 2),
    ])
    def test_catalog_dimensions(self, entry_id, expected_dim):
        assert derivation_space(entry(entry_id).algebra).dim == expected_dim

    def test_inner_maps_span_the_space_for_so3(self):
        e = entry("so3")
        space = derivation_space(e.algebra)
        for name in ("ad_e1", "ad_e2", "ad_e3"):
            assert space.coordinates_of(e.document.map(name)) is not None
        assert space.coordinates_of(LinearMap.identity(3)) is None

    def test_every_combination_is_a_derivation(self):
        space = derivation_space(entry("heisenberg3").algebra)
        rng = random.Random(11)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(space.dim)]
            d = space.combination(coeffs)
            assert is_derivation(d, entry("heisenberg3").algebra)

    def test_space_is_closed_under_commutator(self):
        # The bracket of two derivations is again one.
        for e in catalog():
            space = derivation_space(e.algebra, e.algebra.op_names())
            if space.dim < 2:
                continue
            rng = random.Random(f"closure:{e.id}")
            for _ in range(3):
                a = space.combination(
                    [rng.randint(-2, 2) for _ in range(space.dim)])
                b = space.combination(
                    [rng.randint(-2, 2) for _ in range(space.dim)])
                ab, ba = a.compose(b).matrix, b.compose(a).matrix
                comm = LinearMap(Matrix(ab.rows, ab.cols, [
                    p - q for p, q in zip(ab.entries, ba.entries)]))
                assert space.coordinates_of(comm) is not None, e.id

    def test_draws_are_the_nonzero_combinations_in_order(self):
        # two coefficients in [-1, 1]: about one draw in nine is zero
        space = derivation_space(entry("solvable2").algebra)
        rng, twin = random.Random(5), random.Random(5)
        draws = list(space.draws(rng, 1, 40))
        want = []
        for i in range(40):
            coeffs = [twin.randint(-1, 1) for _ in range(space.dim)]
            if any(coeffs):
                want.append((i, space.combination(coeffs)))
        assert draws == want and len(draws) < 40
        assert rng.getstate() == twin.getstate()

    def test_zero_dimensional_space_draws_nothing(self):
        # e e = e: delta e = c e must satisfy c e = 2 c e, so c = 0
        alg = Algebra.build("idempotent", ["e"],
                            {"m": BilinearOp.from_dict(1, {(0, 0): {0: 1}})})
        space = derivation_space(alg)
        assert space.dim == 0
        rng = random.Random(3)
        state = rng.getstate()
        assert list(space.draws(rng, 3, 10)) == []
        assert rng.getstate() == state

    def test_combination_length_checked(self):
        space = derivation_space(entry("so3").algebra)
        with pytest.raises(InputError):
            space.combination([1])

    def test_round_trip_coordinates(self):
        space = derivation_space(entry("heisenberg3").algebra)
        d = space.combination([1, -2, 0, 3, 5, -1])
        coords = space.coordinates_of(d)
        assert coords is not None
        assert space.combination(list(coords.entries)) == d

    def test_multi_op_space_requires_all_ops(self):
        e = entry("a3_dendriform")
        both = derivation_space(e.algebra)
        left_only = derivation_space(e.algebra, ["left"])
        assert both.dim <= left_only.dim
        assert both.coordinates_of(e.document.map("delta_A")) is not None

    def test_to_dict_shape(self):
        data = derivation_space(entry("solvable2").algebra).to_dict()
        assert data["dim"] == 2
        assert data["ops"] == ["bracket"]
        assert len(data["basis"]) == 2


@functools.cache
def spaces():
    """The derivation spaces of the catalog and of the search families up
    to dimension five, each also moved to two seeded bases."""
    algebras = [e.algebra for e in catalog()] + [
        alg for family in FAMILIES for alg in _family_algebras(SearchConfig(
            family, max_dim=5, tables_per_dim=3))[0]]
    moved = []
    for alg in algebras:
        for seed in range(2):
            p = unimodular(random.Random(f"coords:{alg.name}:{seed}"),
                           alg.dim)
            moved.append(move_algebra(alg, p, p.invert()))
    return [derivation_space(alg) for alg in algebras + moved]


coefficient = st.one_of(st.integers(-3, 3),
                        st.fractions(-3, 3, max_denominator=4))


class TestCoordinates:
    """coordinates_of reads each coordinate off its basis map's free cell."""

    @settings(deadline=None)
    @given(st.data())
    def test_coordinates_of_a_combination_are_its_coefficients(self, data):
        space = data.draw(st.sampled_from(spaces()))
        coeffs = data.draw(st.lists(coefficient, min_size=space.dim,
                                    max_size=space.dim))
        coords = space.coordinates_of(space.combination(coeffs))
        assert coords is not None and coords.entries == tuple(coeffs)

    @settings(deadline=None)
    @given(st.data())
    def test_outside_the_span_exactly_when_not_a_derivation(self, data):
        # a combination with sparse integer noise added: the Leibniz rows,
        # not the kernel basis, decide whether the sum is a derivation
        space = data.draw(st.sampled_from(spaces()))
        n = space.algebra.dim
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=space.dim,
                                    max_size=space.dim))
        noise = data.draw(st.dictionaries(st.integers(0, n * n - 1),
                                          st.integers(-2, 2), max_size=2))
        base = space.combination(coeffs).matrix
        m = LinearMap(Matrix(n, n, [a + noise.get(e, 0) for e, a in
                                    enumerate(base.entries)]))
        coords = space.coordinates_of(m)
        assert (coords is None) == \
            (not is_derivation(m, space.algebra).holds)
        if coords is not None:
            assert space.combination(coords.entries) == m

    def test_reading_coordinates_runs_no_elimination(self, monkeypatch):
        space = derivation_space(entry("heisenberg3").algebra)
        inside = space.combination([1, -2, 0, 3, 5, -1])

        def eliminate(*args):
            raise AssertionError("coordinates_of ran an elimination")

        for name in ("rref", "kernel"):
            monkeypatch.setattr(Matrix, name, eliminate)
        assert space.coordinates_of(inside).entries == (1, -2, 0, 3, 5, -1)
        assert space.coordinates_of(LinearMap.identity(3)) is None


class TestIsInvder:
    def test_accepted_map(self):
        e = entry("heisenberg3")
        v = is_invder(e.document.map("delta_w"), e.algebra)
        assert v.accepted
        assert v.to_dict() == {
            "is_derivation": True, "is_invertible": True,
            "inverse_is_derivation": True, "square_condition": True,
            "accepted": True}

    def test_grading_derivation_is_rejected_by_both_routes(self):
        e = entry("heisenberg3")
        v = is_invder(e.document.map("diag112"), e.algebra)
        assert v.is_derivation and v.is_invertible
        assert not v.inverse_is_derivation
        assert not v.square_condition
        assert not v.accepted

    def test_non_derivation_and_singular_map(self):
        e = entry("heisenberg3")
        v = is_invder(LinearMap.identity(3), e.algebra)
        assert not v.is_derivation
        v = is_invder(e.document.map("proj_center"), e.algebra)
        assert not v.accepted

    def test_zero_map_on_zero_product(self):
        e = entry("zero_prelie")
        v = is_invder(LinearMap.zero(2), e.algebra)
        assert v.is_derivation and not v.is_invertible

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_both_routes_always_agree_on_invertible_derivations(self, coeffs):
        # Equivalence of the inverse route and the square route; the
        # checker raises internally if they ever disagree.
        e = entry("heisenberg3")
        space = derivation_space(e.algebra)
        d = space.combination(coeffs)
        v = is_invder(d, e.algebra)
        if v.is_invertible:
            assert v.inverse_is_derivation == v.square_condition

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            is_invder(LinearMap.identity(2), entry("so3").algebra)


class TestInvDerAlgebra:
    def test_create_accepts_good_pair(self):
        e = entry("heisenberg3")
        wrapped = InvDerAlgebra.create(e.algebra, e.document.map("delta_w"))
        assert wrapped.delta == e.document.map("delta_w")
        assert wrapped.delta_inv == e.document.map("delta_w").inverse()

    def test_create_rejects_bad_pair(self):
        e = entry("heisenberg3")
        with pytest.raises(NotInvDerError):
            InvDerAlgebra.create(e.algebra, e.document.map("diag112"))


class TestGenericDeterminant:
    def test_vanishes_identically_for_so3(self):
        poly = generic_determinant(derivation_space(entry("so3").algebra))
        assert poly.is_zero()

    def test_nonzero_for_heisenberg(self):
        poly = generic_determinant(
            derivation_space(entry("heisenberg3").algebra))
        assert not poly.is_zero()


class TestSearch:
    def test_finds_a_witness_on_heisenberg(self):
        r = invder_search(entry("heisenberg3").algebra)
        assert r.found is not None
        assert r.samples_tried == 17
        assert r.found.to_columns() == \
            [["-1", "1", "3"], ["-3", "-1", "1"], ["0", "0", "-2"]]
        assert is_invder(r.found, entry("heisenberg3").algebra).accepted

    def test_finds_quickly_on_abelian(self):
        r = invder_search(entry("abelian_2").algebra)
        assert r.found is not None
        assert r.samples_tried == 2

    @pytest.mark.parametrize("entry_id", ["so3", "solvable2", "m2"])
    def test_certificate_when_determinant_vanishes(self, entry_id):
        r = invder_search(entry(entry_id).algebra)
        assert r.found is None
        assert r.samples_tried == 0
        assert r.certificate == "generic determinant vanishes"
        assert "certificate" in r.to_dict()

    @pytest.mark.parametrize("entry_id", ["filiform_n4", "z3", "d2"])
    def test_exhausted_budget_without_certificate(self, entry_id):
        r = invder_search(entry(entry_id).algebra)
        assert r.found is None
        assert r.certificate is None
        assert r.to_dict()["found"] is None

    def test_search_is_deterministic(self):
        a = invder_search(entry("heisenberg3").algebra, seed=9)
        b = invder_search(entry("heisenberg3").algebra, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_found_maps_are_always_accepted(self):
        for e in catalog():
            r = invder_search(e.algebra, e.algebra.op_names(),
                              max_samples=60)
            if r.found is not None:
                assert is_invder(r.found, e.algebra,
                                 e.algebra.op_names()).accepted, e.id

    def test_bad_parameters_rejected(self):
        alg = entry("so3").algebra
        with pytest.raises(InputError):
            invder_search(alg, coefficient_range=0)
        with pytest.raises(InputError):
            invder_search(alg, max_samples=0)


class TestLeibnizOperator:
    """Each operation builds its Leibniz rows once, for every use."""

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = []
        original = axioms.Identity.linear_rows

        def counted(row, op):
            seen.append(row.id)
            return original(row, op)

        monkeypatch.setattr(axioms.Identity, "linear_rows", counted)
        return seen

    @pytest.mark.parametrize("entry_id,operations", [
        ("heisenberg3", 1), ("a3", 1), ("a3_dendriform", 2)])
    def test_one_build_per_operation(self, builds, algebra_dir, entry_id,
                                     operations):
        # a freshly loaded file, so no earlier test has built the rows
        doc = load_algebra(str(algebra_dir / f"{entry_id}.json"))
        alg = doc.algebra
        space = derivation_space(alg)
        assert builds == ["leibniz"] * operations
        maps = [m for _, m in doc.maps] + list(space.basis) \
            + [space.combination(range(1, space.dim + 1))]
        for m in maps:
            is_derivation(m, alg)
            is_invder(m, alg)
            for name in alg.op_names():
                derivation_space(alg, [name])
                is_invder(m, alg, [name])
        if alg.kind_hint == "lie":
            run_axiom(alg, "identity_25", None, doc.map("delta_w"))
        assert len(builds) == operations

    def test_compiling_rows_calls_no_traced_method(self, monkeypatch):
        """Compiling an operation's rows calls none of the methods the
        benchmark's tracer wraps and counts (bench/spans.py: mul_sparse of
        BilinearOp, and rref, det, invert and matmul of Matrix).

        The rows are built once per operation and kept with it, so a traced
        call made while compiling them is made on the first pass over a
        workload only.  The traced call counts then differ between passes,
        and the tracer counts every operation of such a run as failed.
        """
        hunt, _ = _family_algebras(SearchConfig(
            "random_nilpotent_tables", max_dim=5, tables_per_dim=3))
        sources = [op for e in catalog() for _, op in e.algebra.ops] \
            + [alg.op() for alg in hunt]
        # new instances, without the rows the shared ones may have cached
        ops = [BilinearOp(op.dim, op.constants) for op in sources]

        def traced(*args):
            raise AssertionError("a traced method was called")

        for cls, names in ((BilinearOp, ("mul_sparse",)),
                           (Matrix, ("rref", "det", "invert", "matmul"))):
            for name in names:
                monkeypatch.setattr(cls, name, traced)
        jacobi = axioms.IDENTITIES["invder_jacobi"]
        for op in ops:
            op.leibniz()
            jacobi.linear_rows(op)
        assert any(op.leibniz() for op in ops)
