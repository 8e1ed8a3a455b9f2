"""Axiom checkers: verdicts, witnesses, dispatch."""
from fractions import Fraction as Q

import pytest

from invder import (AXIOM_IDS, DELTA_AXIOMS, Algebra, BilinearOp, LinearMap,
                    check_associativity, check_dendriform, check_identity_25,
                    check_invder_jacobi, check_jacobi, check_skew_symmetry,
                    check_squared_leibniz, check_zinbiel, entry,
                    invder_identity_axioms, kind_axioms, kinds_satisfied,
                    leibniz_witness, run_axiom)
from invder.errors import InputError


def broken_so3():
    """so3 with the bracket of the last two basis vectors redirected."""
    return Algebra.build("broken", ["e1", "e2", "e3"], {"bracket": BilinearOp.from_dict(3, {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (1, 2): {0: 1}, (2, 1): {0: -1},
        (2, 0): {0: 1}, (0, 2): {0: -1},
    })})


class TestPlainAxioms:
    def test_so3_is_a_lie_table(self):
        alg = entry("so3").algebra
        assert check_skew_symmetry(alg).holds
        assert check_jacobi(alg).holds

    def test_broken_table_fails_jacobi_with_witness(self):
        rep = check_jacobi(broken_so3())
        assert not rep.holds
        assert rep.witness.indices == (0, 1, 2)
        assert rep.witness.to_dict() == {
            "indices": [0, 1, 2], "lhs": ["0", "0", "-1"], "rhs": ["0", "0", "0"]}

    def test_skew_failure_reports_first_bad_pair(self):
        alg = entry("m2").algebra
        rep = check_skew_symmetry(alg)
        assert not rep.holds
        assert rep.witness.indices == (0, 0)

    def test_zinbiel_holds_on_catalog_entry(self):
        assert check_zinbiel(entry("z3").algebra).holds

    def test_zinbiel_fails_when_coefficient_is_changed(self):
        bad = Algebra.build("bad_z3", ["u", "v", "w"], {"diamond": BilinearOp.from_dict(3, {
            (0, 0): {1: 1}, (0, 1): {2: 1}, (1, 0): {2: 1},
        })})
        rep = check_zinbiel(bad)
        assert not rep.holds

    def test_dendriform_trio_holds_on_catalog_entry(self):
        reps = check_dendriform(entry("d2").algebra)
        assert [r.axiom for r in reps] == \
            ["dendriform_1", "dendriform_2", "dendriform_3"]
        assert all(r.holds for r in reps)

    def test_dendriform_needs_left_and_right_ops(self):
        with pytest.raises(InputError):
            check_dendriform(entry("so3").algebra)


class TestDeltaAxioms:
    def test_inner_derivation_breaks_the_invder_identity(self):
        alg = entry("so3").algebra
        rep = check_invder_jacobi(alg, None, entry("so3").document.map("ad_e1"))
        assert not rep.holds
        assert rep.witness.indices == (0, 1, 2)
        assert rep.witness.to_dict()["lhs"] == ["-2", "0", "0"]

    def test_identity_25_fails_on_the_same_derivation(self):
        alg = entry("so3").algebra
        rep = check_identity_25(alg, None, entry("so3").document.map("ad_e1"))
        assert not rep.holds
        assert rep.witness.indices == (0, 1, 2)
        assert rep.witness.to_dict()["lhs"] == ["2", "0", "0"]
        assert rep.witness.to_dict()["rhs"] == ["-2", "0", "0"]

    def test_identity_25_rejects_non_derivations(self):
        alg = entry("so3").algebra
        assert leibniz_witness(alg.op(), LinearMap.identity(3)) is not None
        with pytest.raises(InputError):
            check_identity_25(alg, None, LinearMap.identity(3))

    def test_accepted_map_satisfies_its_kind_identities(self):
        e = entry("heisenberg3")
        reps = invder_identity_axioms(e.algebra, "lie", e.document.map("delta_w"))
        assert [r.axiom for r in reps] == ["invder_jacobi"]
        assert all(r.holds for r in reps)
        rep = check_identity_25(e.algebra, None, e.document.map("delta_w"))
        assert rep.holds

    def test_zinbiel_identities_on_accepted_map(self):
        e = entry("a3_zinbiel")
        reps = invder_identity_axioms(e.algebra, "zinbiel",
                                      e.document.map("delta_A"))
        assert [r.axiom for r in reps] == \
            ["invder_zinbiel", "zinbiel_aux_44", "zinbiel_aux_45"]
        assert all(r.holds for r in reps)

    def test_dendriform_identities_on_accepted_map(self):
        e = entry("a3_dendriform")
        reps = invder_identity_axioms(e.algebra, "dendriform",
                                      e.document.map("delta_A"))
        assert [r.axiom for r in reps] == \
            ["invder_dend_47", "invder_dend_48", "invder_dend_49"]
        assert all(r.holds for r in reps)

    def test_squared_leibniz(self):
        e = entry("heisenberg3")
        assert check_squared_leibniz(e.algebra, None,
                                     e.document.map("delta_w")).holds

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            check_invder_jacobi(entry("so3").algebra, None, LinearMap.identity(2))


class TestDispatch:
    def test_every_listed_axiom_dispatches(self):
        heis = entry("heisenberg3")
        d2 = entry("d2")
        delta = heis.document.map("delta_w")
        for axiom in AXIOM_IDS:
            if axiom.startswith(("dendriform", "invder_dend")):
                alg, op_name, d = d2.algebra, None, d2.document.map("diag12")
            else:
                alg, op_name, d = heis.algebra, None, delta
            rep = run_axiom(alg, axiom, op_name,
                            d if axiom in DELTA_AXIOMS else None)
            assert rep.axiom == axiom

    def test_delta_axioms_require_a_map(self):
        with pytest.raises(InputError):
            run_axiom(entry("so3").algebra, "invder_jacobi")
        with pytest.raises(InputError):
            run_axiom(entry("d2").algebra, "invder_dend_47")

    def test_unknown_axiom_rejected(self):
        with pytest.raises(InputError):
            run_axiom(entry("so3").algebra, "nonsense")

    def test_kind_axioms_lists(self):
        alg = entry("so3").algebra
        assert [r.axiom for r in kind_axioms(alg, "lie")] == \
            ["skew_symmetry", "jacobi"]
        with pytest.raises(InputError):
            kind_axioms(alg, "unknown")
        with pytest.raises(InputError):
            invder_identity_axioms(alg, "unknown", LinearMap.identity(3))

    def test_kinds_satisfied(self):
        assert kinds_satisfied(entry("so3").algebra) == ("lie",)
        assert kinds_satisfied(entry("m2").algebra) == ("prelie", "associative")
        assert kinds_satisfied(entry("heisenberg3").algebra) == \
            ("lie", "prelie", "associative", "zinbiel")


class TestReportShape:
    def test_passing_report_omits_witness(self):
        rep = check_jacobi(entry("so3").algebra)
        assert rep.to_dict() == {"axiom": "jacobi", "holds": True}

    def test_failing_report_carries_witness(self):
        rep = check_jacobi(broken_so3())
        data = rep.to_dict()
        assert data["holds"] is False
        assert data["witness"]["indices"] == [0, 1, 2]


class TestTable:
    def test_bundles_and_map_axioms_are_views_of_the_table(self):
        from invder.axioms import BUNDLES, IDENTITIES
        assert list(BUNDLES) == [
            "lie", "prelie", "associative", "zinbiel", "dendriform",
            "invder-lie", "invder-prelie", "invder-associative",
            "invder-zinbiel", "invder-dendriform"]
        assert BUNDLES["lie"] == ("skew_symmetry", "jacobi")
        assert BUNDLES["invder-lie"] == ("invder_jacobi", "identity_25")
        assert DELTA_AXIOMS == {a for a in AXIOM_IDS
                                if a.startswith(("invder", "zinbiel_aux",
                                                 "identity"))}
        assert set(AXIOM_IDS) < set(IDENTITIES)
        assert all(IDENTITIES[a].arity == (2 if a in ("skew_symmetry",
                                                       "commutativity") else 3)
                   for a in AXIOM_IDS)

    def test_proper_subterms_are_evaluated_once_per_assignment(self,
                                                               monkeypatch):
        calls = []
        original = BilinearOp.mul_sparse

        def counted(self, x, y):
            calls.append(1)
            return original(self, x, y)

        monkeypatch.setattr(BilinearOp, "mul_sparse", counted)
        assert check_associativity(entry("abelian_3").algebra).holds
        # (x y) z and x (y z) once per triple; x y and y z are products of
        # basis vectors, read off the index with no product computed
        assert len(calls) == 2 * 27

    def test_proper_map_subterms_are_memoised(self, monkeypatch):
        calls = []
        original = LinearMap.apply_sparse

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(LinearMap, "apply_sparse", counted)
        e = entry("heisenberg3")
        assert check_identity_25(e.algebra, None,
                                 e.document.map("delta_w")).holds
        # d(op(y, z)), d(op(z, x)) and d(op(x, y)) once per pair each; the
        # images d(x), d(y), d(z) are columns, read with no product
        assert len(calls) == 3 * 9

    def test_lie_bundle_scans_skew_symmetry_once(self, monkeypatch):
        import invder.axioms as axioms
        calls, scanned = [], []
        original, scan = BilinearOp.mul_sparse, axioms._scan

        def counted(self, x, y):
            calls.append(1)
            return original(self, x, y)

        def counted_scan(row, *args, **kwargs):
            scanned.append(row.id)
            return scan(row, *args, **kwargs)

        monkeypatch.setattr(BilinearOp, "mul_sparse", counted)
        monkeypatch.setattr(axioms, "_scan", counted_scan)
        kind_axioms(entry("abelian_3").algebra, "lie")
        assert scanned == ["skew_symmetry", "jacobi"]
        # skew symmetry reads basis products only; Jacobi: the one triple
        # i < j < k, whose 3 inner products are read and 3 outer computed
        assert len(calls) == 3

    def test_alternating_rows_read_skew_symmetry_off_the_operation(
            self, monkeypatch):
        import invder.axioms as axioms
        scanned, scan = [], axioms._scan

        def counted_scan(row, *args, **kwargs):
            scanned.append(row.id)
            return scan(row, *args, **kwargs)

        monkeypatch.setattr(axioms, "_scan", counted_scan)
        e = entry("heisenberg3")
        assert check_invder_jacobi(e.algebra, None,
                                   e.document.map("delta_w")).holds
        assert scanned == ["invder_jacobi"]
