"""Twists, passages between structure kinds, operator constructions."""
from fractions import Fraction as Q

import pytest

from invder import constructions
from invder import (Algebra, LinearMap, commutator_lie,
                    dendriform_to_assoc, dendriform_to_prelie,
                    dendriform_to_zinbiel, endo_lie_from_assoc, entry,
                    is_invder, is_rota_baxter, kind_axioms, rb_prelie_from_assoc,
                    rb_prelie_from_lie, twist, twist_by, yau_from_twist,
                    yau_iff_check, zinbiel_to_assoc, zinbiel_to_lie)
from invder.errors import (CommutationFailureError, InputError, InvderError,
                           NotIdempotentError, NotInvDerError,
                           NotMultiplicativeError, NotRotaBaxterError,
                           SourceAxiomFailureError,
                           SymmetryPreconditionFailureError)


class TestTwist:
    def test_accepted_map_twists_and_keeps_the_kind(self):
        e = entry("heisenberg3")
        res = twist(e.algebra, e.document.map("delta_w"), "lie")
        assert res.ok
        assert res.algebra.op().basis_product(0, 1) == {2: Q(2)}
        assert res.carried_delta == e.document.map("delta_w")
        axioms = [r.axiom for r in res.verification]
        assert "skew_symmetry" in axioms and "jacobi" in axioms
        assert "derivation" in axioms and "inverse_derivation" in axioms

    def test_twist_by_inverse_recovers_the_source(self):
        e = entry("heisenberg3")
        delta = e.document.map("delta_w")
        forward = twist(e.algebra, delta, "lie")
        back = twist(forward.algebra, delta.inverse(), "lie")
        assert back.algebra.op() == e.algebra.op()

    def test_kind_defaults_to_the_file_hint(self):
        e = entry("a3")
        res = twist(e.algebra, e.document.map("delta_A"))
        assert res.ok
        assert res.algebra.kind_hint == "prelie"

    def test_missing_kind_is_an_input_error(self):
        alg = Algebra.build("anon", ["x", "y"],
                            {"m": entry("solvable2").algebra.op()})
        with pytest.raises(InputError):
            twist(alg, LinearMap.identity(2))

    def test_rejected_map_raises_without_force(self):
        e = entry("heisenberg3")
        with pytest.raises(NotInvDerError):
            twist(e.algebra, e.document.map("diag112"), "lie")

    def test_force_twists_anyway_and_reports(self):
        e = entry("heisenberg3")
        res = twist(e.algebra, e.document.map("diag112"), "lie", force=True)
        assert res.algebra.op().basis_product(0, 1) == {2: Q(2)}
        assert {r.axiom for r in res.verification} >= \
            {"skew_symmetry", "jacobi"}

    def test_every_kind_twists_on_its_catalog_entry(self):
        pairs = [("heisenberg3", "delta_w"), ("a3", "delta_A"),
                 ("a3_zinbiel", "delta_A"), ("a3_dendriform", "delta_A")]
        for entry_id, map_name in pairs:
            e = entry(entry_id)
            res = twist(e.algebra, e.document.map(map_name))
            assert res.ok, entry_id

    def test_dendriform_twist_twists_both_ops(self):
        e = entry("a3_dendriform")
        res = twist(e.algebra, e.document.map("delta_A"))
        d = e.document.map("delta_A")
        for name in ("left", "right"):
            assert res.algebra.op(name) == e.algebra.op(name).twist(d)

    def test_result_document_carries_the_map(self):
        e = entry("heisenberg3")
        res = twist(e.algebra, e.document.map("delta_w"), "lie")
        doc = res.to_document()
        assert doc.map_names() == ("delta",)
        data = res.to_dict()
        assert data["ok"] is True
        assert data["algebra"]["kind"] == "lie"

    def test_twist_is_its_gate_in_front_of_twist_by(self):
        for entry_id, map_name in [("heisenberg3", "delta_w"),
                                   ("heisenberg3", "diag112"),
                                   ("a3_dendriform", "delta_A")]:
            e = entry(entry_id)
            d = e.document.map(map_name)
            kind = e.algebra.kind_hint
            verdict = is_invder(d, e.algebra)
            assert twist_by(e.algebra, d, kind, verdict) == \
                twist(e.algebra, d, force=not verdict.accepted), entry_id


class TestYau:
    def test_yau_from_twist_agrees_with_yau_iff_check(self):
        for entry_id, map_name in [("heisenberg3", "delta_w"),
                                   ("a3_zinbiel", "delta_A"),
                                   ("a3_dendriform", "delta_A")]:
            e = entry(entry_id)
            d, kind = e.document.map(map_name), e.algebra.kind_hint
            verdict = is_invder(d, e.algebra)
            res = twist_by(e.algebra, d, kind, verdict)
            assert yau_from_twist(e.algebra, kind, True, verdict, res) == \
                yau_iff_check(e.algebra, d), entry_id

    def test_one_sided_equivalence_is_an_internal_defect(self):
        e = entry("heisenberg3")
        d = e.document.map("delta_w")
        verdict = is_invder(d, e.algebra)
        res = twist_by(e.algebra, d, "lie", verdict)
        with pytest.raises(InvderError):
            yau_from_twist(e.algebra, "lie", False, verdict, res)

    def test_yau_from_twist_needs_an_accepted_verdict(self):
        e = entry("heisenberg3")
        d = e.document.map("diag112")
        verdict = is_invder(d, e.algebra)
        res = twist_by(e.algebra, d, "lie", verdict)
        with pytest.raises(InputError):
            yau_from_twist(e.algebra, "lie", True, verdict, res)

    def test_forward_and_backward_hold_on_accepted_pairs(self):
        for entry_id, map_name, kind in [
                ("heisenberg3", "delta_w", "lie"), ("a3", "delta_A", "prelie"),
                ("a3_zinbiel", "delta_A", "zinbiel"),
                ("a3_dendriform", "delta_A", "dendriform")]:
            e = entry(entry_id)
            v = yau_iff_check(e.algebra, e.document.map(map_name), kind)
            assert v.forward and v.backward, entry_id
            assert v.source_holds and v.twisted_holds

    def test_verdict_dict_shape(self):
        e = entry("a3")
        v = yau_iff_check(e.algebra, e.document.map("delta_A"), "prelie")
        assert v.to_dict() == {
            "kind": "prelie", "source_holds": True, "twisted_holds": True,
            "delta_invder_source": True, "delta_invder_twisted": True,
            "forward": True, "backward": True}

    def test_rejected_map_cannot_run_the_equivalence(self):
        e = entry("heisenberg3")
        with pytest.raises(NotInvDerError):
            yau_iff_check(e.algebra, e.document.map("diag112"), "lie")

    def test_twisted_identities_are_not_scanned(self, monkeypatch):
        # yau_from_twist never reads them, so the check does not pay for them
        calls = []
        original = constructions.invder_identity_axioms

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(constructions, "invder_identity_axioms", counted)
        for entry_id, map_name, kind in [
                ("heisenberg3", "delta_w", None), ("a3", "delta_A", None),
                ("a3", "delta_A", "associative"),
                ("a3_zinbiel", "delta_A", None),
                ("a3_dendriform", "delta_A", None)]:
            e = entry(entry_id)
            v = yau_iff_check(e.algebra, e.document.map(map_name), kind)
            assert v.forward and v.backward, entry_id
        assert calls == []


class TestCommutatorPassage:
    def test_commutator_of_catalog_prelie(self):
        res = commutator_lie(entry("a3").algebra)
        assert res.ok
        assert res.algebra.op().basis_product(0, 1) == {2: Q(2)}
        assert res.algebra.kind_hint == "lie"

    def test_carried_map_stays_a_derivation(self):
        e = entry("a3")
        res = commutator_lie(e.algebra, delta=e.document.map("delta_A"))
        assert res.ok
        assert res.carried_delta == e.document.map("delta_A")

    def test_commutator_commutes_with_twisting(self):
        e = entry("a3")
        d = e.document.map("delta_A")
        route_one = commutator_lie(twist(e.algebra, d, "prelie").algebra)
        route_two = twist(commutator_lie(e.algebra).algebra, d, "lie")
        assert route_one.algebra.op() == route_two.algebra.op()
        assert route_one.algebra.op().basis_product(0, 1) == {2: Q(4)}

    def test_non_prelie_source_is_rejected(self):
        with pytest.raises(SourceAxiomFailureError):
            commutator_lie(entry("so3").algebra)

    def test_carried_map_must_be_a_derivation(self):
        e = entry("a3")
        with pytest.raises(InputError):
            commutator_lie(e.algebra, delta=LinearMap.identity(3))


class TestZinbielPassages:
    def test_symmetrisation_is_associative(self):
        res = zinbiel_to_assoc(entry("z3").algebra)
        assert res.ok
        assert res.algebra.op().basis_product(0, 0) == {1: Q(2)}
        axioms = [r.axiom for r in res.verification]
        assert "associativity" in axioms and "commutativity" in axioms

    def test_antisymmetrisation_is_lie(self):
        res = zinbiel_to_lie(entry("z3").algebra)
        assert res.ok
        assert res.algebra.op().basis_product(0, 1) == {2: Q(1, 2)}
        assert res.algebra.op().basis_product(0, 0) == {}

    def test_zero_product_passes_through(self):
        res = zinbiel_to_assoc(entry("zero_zinbiel").algebra)
        assert res.ok and not res.algebra.op().constants

    def test_carried_map_rides_along(self):
        e = entry("a3_zinbiel")
        res = zinbiel_to_lie(e.algebra, delta=e.document.map("delta_A"))
        assert res.ok
        assert res.carried_delta == e.document.map("delta_A")

    def test_non_zinbiel_source_needs_force(self):
        so3 = entry("so3").algebra
        with pytest.raises(SourceAxiomFailureError):
            zinbiel_to_assoc(so3)
        res = zinbiel_to_assoc(so3, force=True)
        # Symmetrising a skew table kills it, so the target axioms hold.
        assert not res.algebra.op().constants


class TestDendriformPassages:
    def test_total_product_is_associative(self):
        res = dendriform_to_assoc(entry("d2").algebra)
        assert res.ok
        assert res.algebra.op().basis_product(0, 0) == {1: Q(1)}

    def test_right_minus_opposite_left_is_prelie(self):
        res = dendriform_to_prelie(entry("d2").algebra)
        assert res.ok
        assert res.algebra.op().basis_product(0, 0) == {1: Q(1)}

    def test_mirror_pairs_collapse_to_zinbiel(self):
        right = entry("a3").algebra.op()
        mirror = Algebra.build("mirror", ["x", "y", "z"],
                               {"left": right.opposite(), "right": right},
                               "dendriform")
        res = dendriform_to_zinbiel(mirror)
        assert res.ok
        assert res.algebra.op() == right

    def test_unmirrored_pair_is_rejected(self):
        with pytest.raises(SymmetryPreconditionFailureError):
            dendriform_to_zinbiel(entry("d2").algebra)

    def test_carried_map_rides_along(self):
        e = entry("a3_dendriform")
        res = dendriform_to_assoc(e.algebra, delta=e.document.map("delta_A"))
        assert res.ok
        assert res.carried_delta == e.document.map("delta_A")

    def test_passages_need_dendriform_ops(self):
        with pytest.raises(InputError):
            dendriform_to_assoc(entry("so3").algebra)


class TestRotaBaxter:
    def test_center_projection_has_weight_zero(self):
        e = entry("heisenberg3")
        rep = is_rota_baxter(e.document.map("proj_center"), e.algebra)
        assert rep.holds

    def test_identity_has_weight_minus_one(self):
        a3 = entry("a3").algebra
        assert is_rota_baxter(LinearMap.identity(3), a3, None, Q(-1)).holds
        rep = is_rota_baxter(LinearMap.identity(3), a3)
        assert not rep.holds
        assert rep.witness.to_dict() == {
            "indices": [0, 1], "lhs": ["0", "0", "1"], "rhs": ["0", "0", "2"]}

    def test_weight_argument_overrides(self):
        a3 = entry("a3").algebra
        assert is_rota_baxter(LinearMap.identity(3), a3, weight=Q(-1)).holds

    def test_prelie_from_lie_passage(self):
        e = entry("heisenberg3")
        res = rb_prelie_from_lie(e.algebra, e.document.map("proj_center"))
        assert res.ok
        assert not res.algebra.op().constants
        assert [r.axiom for r in res.verification] == ["pre_lie", "jacobi"]

    def test_prelie_from_lie_rejects_non_rbo(self):
        e = entry("heisenberg3")
        with pytest.raises(NotRotaBaxterError):
            rb_prelie_from_lie(e.algebra, LinearMap.identity(3))

    def test_passages_demand_weight_zero(self):
        # the identity is a Rota-Baxter operator of weight -1, not of 0
        with pytest.raises(NotRotaBaxterError):
            rb_prelie_from_assoc(entry("a3").algebra, LinearMap.identity(3))

    def test_prelie_from_assoc_passage(self):
        e = entry("a3")
        res = rb_prelie_from_assoc(e.algebra, e.document.map("proj_z"))
        assert res.ok

    def test_carried_map_must_be_accepted(self):
        e = entry("a3")
        with pytest.raises(NotInvDerError):
            rb_prelie_from_assoc(e.algebra, e.document.map("proj_z"),
                                 delta=LinearMap.identity(3))

    def test_carried_map_must_commute_with_the_operator(self):
        e = entry("a3")
        d = LinearMap.from_column_strings(
            [["1", "1", "1"], ["-3", "1", "0"], ["0", "0", "2"]], 3)
        assert is_invder(d, e.algebra).accepted
        assert not d.commutes_with(e.document.map("proj_z"))
        with pytest.raises(CommutationFailureError):
            rb_prelie_from_assoc(e.algebra, e.document.map("proj_z"), delta=d)

    def test_accepted_commuting_map_rides_along(self):
        e = entry("a3")
        d = e.document.map("delta_A")
        if d.commutes_with(e.document.map("proj_z")):
            res = rb_prelie_from_assoc(e.algebra, e.document.map("proj_z"),
                                       delta=d)
            assert res.carried_delta == d

    def test_operator_dimension_checked(self):
        with pytest.raises(InputError):
            is_rota_baxter(LinearMap.identity(2), entry("a3").algebra)


class TestEndomorphismPassage:
    def test_identity_endomorphism_gives_the_commutator(self):
        res = endo_lie_from_assoc(entry("m2").algebra, LinearMap.identity(4))
        assert res.ok
        assert res.algebra.op().basis_product(1, 2) == {0: Q(1), 3: Q(-1)}
        assert res.algebra.op().basis_product(2, 1) == {0: Q(-1), 3: Q(1)}

    def test_non_multiplicative_operator_rejected(self):
        with pytest.raises(NotMultiplicativeError):
            endo_lie_from_assoc(entry("m2").algebra,
                                LinearMap.diagonal([1, 0, 0, 0]))

    def test_non_idempotent_operator_rejected(self):
        with pytest.raises(NotIdempotentError):
            endo_lie_from_assoc(entry("m2").algebra,
                                LinearMap.identity(4).scale(2))

    def test_result_is_a_lie_table(self):
        res = endo_lie_from_assoc(entry("m2").algebra, LinearMap.identity(4))
        assert all(r.holds for r in kind_axioms(res.algebra, "lie"))
