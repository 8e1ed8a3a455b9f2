"""Value semantics of the immutable value types.

Every value type is a plain slotted class: its fields cannot be assigned
or deleted, equality and the hash read its fields (an InvDerVerdict only
its four flags), and a deep copy or a pickle round trip gives an equal
value.  Each case is a pair of values of one class that differ.
"""
import copy
import pickle

import pytest

from invder import (AlgebraDocument, InvDerAlgebra, InvDerVerdict, Witness,
                    counterexample_search, derivation_space, entry,
                    invder_search, is_invder, run_axiom, run_property_suite,
                    twist, yau_iff_check)
from invder.catalog import SearchConfig
from invder.linalg import Vector
from invder.poly import Poly


def _pairs():
    h3, so3, a3 = (entry(e) for e in ("heisenberg3", "so3", "a3"))
    heis, delta = h3.algebra, h3.document.map("delta_w")
    broken = [run_axiom(a3.algebra, "commutativity"),
              run_axiom(so3.algebra, "associativity")]
    config = SearchConfig("abelian", max_dim=2)
    return {
        "Vector": (Vector.of([1, 2]), Vector.of([1, 3])),
        "BilinearOp": (heis.op(), so3.algebra.op()),
        "LinearMap": (delta, h3.document.map("diag112")),
        "Algebra": (heis, so3.algebra),
        "AlgebraDocument": (h3.document, so3.document),
        "Witness": tuple(r.witness for r in broken),
        "CheckReport": tuple(broken),
        "DerivationSpace": (derivation_space(heis),
                            derivation_space(so3.algebra)),
        "InvDerVerdict": (is_invder(delta, heis),
                          is_invder(h3.document.map("diag112"), heis)),
        "InvDerAlgebra": (InvDerAlgebra.create(heis, delta),
                          InvDerAlgebra.create(heis, delta.scale(2))),
        "InvDerSearchResult": (invder_search(heis, max_samples=20),
                               invder_search(so3.algebra)),
        "ConstructionResult": (twist(heis, delta, "lie"),
                               twist(heis, delta.scale(2), "lie")),
        "YauVerdict": (yau_iff_check(heis, delta),
                       yau_iff_check(a3.algebra, a3.document.map("delta_A"))),
        "Poly": (Poly.variable(2, 0, 3), Poly.variable(2, 1, 3)),
        "CatalogEntry": (h3, so3),
        "SuiteReport": (run_property_suite(0, 1), run_property_suite(1, 1)),
        "SearchConfig": (config, SearchConfig("abelian", max_dim=3)),
        "SearchReport": (counterexample_search(config),
                         counterexample_search(SearchConfig("abelian",
                                                            max_dim=1))),
    }


PAIRS = _pairs()
# classes with a dict or list field are unhashable
UNHASHABLE = {"CatalogEntry", "SuiteReport", "SearchReport"}


@pytest.fixture(params=list(PAIRS))
def pair(request):
    a, b = PAIRS[request.param]
    assert type(a).__name__ == type(b).__name__ == request.param
    return request.param, a, b


def test_fields_cannot_be_assigned_or_deleted(pair):
    _, a, _ = pair
    for name in (type(a)._fields[0], "unknown"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(a, name)
    assert not hasattr(a, "__dict__")


def test_equality_and_hash_read_the_fields(pair):
    name, a, b = pair
    twin = type(a)(*a.__reduce__()[1])
    assert twin is not a and twin == a and not twin != a
    assert a != b and b != a
    assert a != object() and a.__eq__(object()) is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(twin) == hash(a)
        assert len({a, twin, b}) == 2


def test_deep_copy_and_pickle_give_an_equal_value(pair):
    _, a, _ = pair
    for other in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert other == a and type(other) is type(a)
        assert repr(other) == repr(a)


def test_verdicts_compare_their_flags_only():
    h3 = entry("heisenberg3")
    verdict = is_invder(h3.document.map("delta_w"), h3.algebra)
    bare = InvDerVerdict(*(getattr(verdict, f) for f in
                           ("is_derivation", "is_invertible",
                            "inverse_is_derivation", "square_condition")))
    assert bare.derivation is None and verdict.derivation is not None
    assert bare == verdict and hash(bare) == hash(verdict)
    assert repr(bare) == repr(verdict) == (
        "InvDerVerdict(is_derivation=True, is_invertible=True, "
        "inverse_is_derivation=True, square_condition=True)")


def test_witness_sides_are_read_off_the_scaled_sparse_sides():
    halved = Witness((0, 1), 3, {0: 1, 2: 3}, {}, 2)
    assert halved.lhs == Vector.of(["1/2", 0, "3/2"])
    assert halved.rhs == Vector.of([0, 0, 0])
    assert halved == Witness((0, 1), 3, {0: 2, 2: 6}, {}, 4)
    assert halved.to_dict() == {"indices": [0, 1], "lhs": ["1/2", "0", "3/2"],
                                "rhs": ["0", "0", "0"]}


def test_a_document_built_without_maps_has_none():
    alg = entry("so3").algebra
    assert AlgebraDocument.build(alg).maps == ()
    assert AlgebraDocument(alg).maps == ()
