"""Pinned witnesses: the first failing basis tuple and both evaluated sides.

Every case runs a check on a fixed input that fails it and compares the
witness with a literal.  The literals pin the scan order (lexicographic,
i < j < k for Jacobi on skew tables) and the split of each identity into
its two sides, so any change to how identities are evaluated must leave
them untouched.
"""
from fractions import Fraction as Q

import pytest

from invder import (Algebra, BilinearOp, InvDerVerdict, LinearMap,
                    check_squared_leibniz, endo_lie_from_assoc, entry,
                    is_invder, is_rota_baxter, leibniz_witness, run_axiom)
from invder.errors import NotMultiplicativeError


def broken_so3():
    """so3 with the bracket of the last two basis vectors redirected."""
    return Algebra.build("broken", ["e1", "e2", "e3"], {
        "bracket": BilinearOp.from_dict(3, {
            (0, 1): {2: 1}, (1, 0): {2: -1},
            (1, 2): {0: 1}, (2, 1): {0: -1},
            (2, 0): {0: 1}, (0, 2): {0: -1}})})


def broken_dendriform():
    """A left/right pair failing all three dendriform axioms."""
    return Algebra.build("broken_dend", ["u", "v", "w"], {
        "left": BilinearOp.from_dict(3, {(1, 2): {1: -1}, (2, 2): {1: 1}}),
        "right": BilinearOp.from_dict(3, {(2, 1): {1: 1}})})


DEND_DELTA = LinearMap.from_columns([[1, 0, 1], [2, 1, 0], [0, -1, 1]])


def _input(case):
    """(algebra, map) of each case; the map is None for plain axioms."""
    so3 = entry("so3")
    if case == "skew_symmetry" or case == "jacobi@m2":
        return entry("m2").algebra, None
    if case == "jacobi":
        return broken_so3(), None
    if case.startswith("dendriform"):
        return broken_dendriform(), None
    if case.startswith("invder_dend"):
        return broken_dendriform(), DEND_DELTA
    if case in ("associativity", "pre_lie", "zinbiel", "commutativity"):
        return so3.algebra, None
    return so3.algebra, so3.document.map("ad_e1")


AXIOM_WITNESSES = {
    "skew_symmetry": {"indices": [0, 0], "lhs": ["1", "0", "0", "0"],
                      "rhs": ["-1", "0", "0", "0"]},
    "jacobi": {"indices": [0, 1, 2], "lhs": ["0", "0", "-1"],
               "rhs": ["0", "0", "0"]},
    "jacobi@m2": {"indices": [0, 0, 0], "lhs": ["3", "0", "0", "0"],
                  "rhs": ["0", "0", "0", "0"]},
    "associativity": {"indices": [0, 0, 1], "lhs": ["0", "0", "0"],
                      "rhs": ["0", "-1", "0"]},
    "pre_lie": {"indices": [0, 1, 0], "lhs": ["0", "0", "0"],
                "rhs": ["0", "1", "0"]},
    "zinbiel": {"indices": [0, 0, 1], "lhs": ["0", "-1", "0"],
                "rhs": ["0", "0", "0"]},
    "commutativity": {"indices": [0, 1], "lhs": ["0", "0", "1"],
                      "rhs": ["0", "0", "-1"]},
    "dendriform_1": {"indices": [1, 2, 2], "lhs": ["0", "1", "0"],
                     "rhs": ["0", "0", "0"]},
    "dendriform_2": {"indices": [2, 2, 2], "lhs": ["0", "0", "0"],
                     "rhs": ["0", "1", "0"]},
    "dendriform_3": {"indices": [2, 2, 1], "lhs": ["0", "1", "0"],
                     "rhs": ["0", "0", "0"]},
    "invder_dend_47": {"indices": [1, 2, 0], "lhs": ["0", "1", "0"],
                       "rhs": ["0", "0", "0"]},
    "invder_dend_48": {"indices": [0, 1, 2], "lhs": ["0", "0", "0"],
                       "rhs": ["0", "-1", "0"]},
    "invder_dend_49": {"indices": [0, 2, 1], "lhs": ["0", "1", "0"],
                       "rhs": ["0", "0", "0"]},
    "invder_jacobi": {"indices": [0, 1, 2], "lhs": ["-2", "0", "0"],
                      "rhs": ["0", "0", "0"]},
    "invder_prelie": {"indices": [0, 1, 2], "lhs": ["-1", "0", "0"],
                      "rhs": ["2", "0", "0"]},
    "invder_assoc": {"indices": [0, 1, 2], "lhs": ["0", "0", "0"],
                     "rhs": ["1", "0", "0"]},
    "invder_zinbiel": {"indices": [1, 0, 2], "lhs": ["1", "0", "0"],
                       "rhs": ["0", "0", "0"]},
    "zinbiel_aux_44": {"indices": [0, 1, 2], "lhs": ["0", "0", "0"],
                       "rhs": ["-1", "0", "0"]},
    "zinbiel_aux_45": {"indices": [0, 1, 2], "lhs": ["1", "0", "0"],
                       "rhs": ["-1", "0", "0"]},
    "identity_25": {"indices": [0, 1, 2], "lhs": ["2", "0", "0"],
                    "rhs": ["-2", "0", "0"]},
}


@pytest.mark.parametrize("case", sorted(AXIOM_WITNESSES))
def test_axiom_witness(case):
    axiom = case.split("@")[0]
    alg, delta = _input(case)
    rep = run_axiom(alg, axiom, None, delta)
    assert rep.axiom == axiom
    assert not rep.holds
    assert rep.witness.to_dict() == AXIOM_WITNESSES[case]


def test_every_axiom_is_pinned():
    from invder import AXIOM_IDS
    assert {case.split("@")[0] for case in AXIOM_WITNESSES} == set(AXIOM_IDS)


def test_leibniz_witness():
    w = leibniz_witness(entry("so3").algebra.op(), LinearMap.identity(3))
    assert w.to_dict() == {"indices": [0, 1], "lhs": ["0", "0", "1"],
                           "rhs": ["0", "0", "2"]}


def test_squared_leibniz_witness():
    e = entry("heisenberg3")
    rep = check_squared_leibniz(e.algebra, None, e.document.map("proj_center"))
    assert rep.to_dict() == {
        "axiom": "squared_leibniz", "holds": False,
        "witness": {"indices": [0, 1], "lhs": ["0", "0", "1"],
                    "rhs": ["0", "0", "0"]}}


def test_square_condition_witness():
    # [delta e1, delta e2] = e3, while delta^2 [e1, e2] = 4 e3
    e = entry("heisenberg3")
    verdict = is_invder(e.document.map("diag112"), e.algebra)
    assert verdict.square.to_dict() == {
        "axiom": "square_condition", "holds": False,
        "witness": {"indices": [0, 1], "lhs": ["0", "0", "1"],
                    "rhs": ["0", "0", "4"]}}
    assert verdict.square_condition is False
    # the report rides outside to_dict, repr and equality
    assert list(verdict.to_dict()) == [
        "is_derivation", "is_invertible", "inverse_is_derivation",
        "square_condition", "accepted"]
    assert "square=" not in repr(verdict)
    assert verdict == InvDerVerdict(True, True, False, False)


def test_rota_baxter_witness_weight_zero():
    e = entry("heisenberg3")
    rep = is_rota_baxter(e.document.map("diag112"), e.algebra)
    assert rep.to_dict() == {
        "axiom": "rota_baxter", "holds": False,
        "witness": {"indices": [0, 1], "lhs": ["0", "0", "1"],
                    "rhs": ["0", "0", "4"]}}


def test_rota_baxter_witness_weight_one():
    e = entry("heisenberg3")
    rep = is_rota_baxter(LinearMap.diagonal([1, 2, 3]), e.algebra, None, Q(1))
    assert rep.to_dict() == {
        "axiom": "rota_baxter", "holds": False,
        "witness": {"indices": [0, 1], "lhs": ["0", "0", "2"],
                    "rhs": ["0", "0", "12"]}}


def test_multiplicativity_failure_names_the_pair():
    with pytest.raises(NotMultiplicativeError,
                       match=r"^operator is not multiplicative at \(1, 2\)$"):
        endo_lie_from_assoc(entry("m2").algebra,
                            LinearMap.diagonal([1, 0, 0, 0]))
