"""Exact arithmetic for algebras twisted by invertible derivations.

The package represents finite-dimensional algebras over the rationals by
structure constants, solves the Leibniz system for their derivation
spaces, recognises invertible derivations whose inverses are again
derivations, applies the twist and the passages between structure kinds,
and verifies every identity involved with exact witnesses.
"""

from .axioms import (AXIOM_IDS, DELTA_AXIOMS, CheckReport, Witness,
                     check_associativity, check_commutativity,
                     check_dendriform, check_identity_25,
                     check_invder_assoc, check_invder_dendriform,
                     check_invder_jacobi, check_invder_prelie,
                     check_invder_zinbiel, check_jacobi, check_pre_lie,
                     check_skew_symmetry, check_zinbiel,
                     check_zinbiel_aux_44, check_zinbiel_aux_45,
                     invder_identity_axioms, kind_axioms, kinds_satisfied,
                     leibniz_witness, run_axiom)
from .catalog import (FAMILIES, CatalogEntry, SearchConfig, SearchReport,
                      SuiteReport, catalog, counterexample_search, entry,
                      max_dimension, run_property_suite, verify_entry)
from .constructions import (ConstructionResult, RotaBaxterOp, YauVerdict,
                            commutator_lie, commutes, dendriform_to_assoc,
                            dendriform_to_prelie, dendriform_to_zinbiel,
                            endo_lie_from_assoc, is_rota_baxter,
                            rb_prelie_from_assoc, rb_prelie_from_lie, twist,
                            twist_by, yau_from_twist, yau_iff_check,
                            zinbiel_to_assoc, zinbiel_to_lie)
from .derivations import (DerivationSpace, InvDerAlgebra, InvDerSearchResult,
                          InvDerVerdict, check_squared_leibniz,
                          derivation_space, generic_determinant,
                          invder_search, is_derivation, is_invder)
from .errors import (CommutationFailureError, InputError, InvderError,
                     NotIdempotentError, NotInvDerError,
                     NotMultiplicativeError, NotRotaBaxterError,
                     PreconditionError, SingularMatrixError,
                     SourceAxiomFailureError,
                     SymmetryPreconditionFailureError)
from .model import (KINDS, Algebra, AlgebraDocument, BilinearOp, LinearMap,
                    algebra_from_dict, algebra_to_dict, load_algebra,
                    save_algebra)
from .rational import Q, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "AXIOM_IDS", "DELTA_AXIOMS", "CheckReport", "Witness",
    "check_associativity", "check_commutativity", "check_dendriform",
    "check_identity_25", "check_invder_assoc", "check_invder_dendriform",
    "check_invder_jacobi", "check_invder_prelie", "check_invder_zinbiel",
    "check_jacobi", "check_pre_lie", "check_skew_symmetry", "check_zinbiel",
    "check_zinbiel_aux_44", "check_zinbiel_aux_45",
    "invder_identity_axioms", "kind_axioms", "kinds_satisfied",
    "leibniz_witness", "run_axiom",
    "FAMILIES", "CatalogEntry", "SearchConfig", "SearchReport",
    "SuiteReport", "catalog", "counterexample_search", "entry",
    "max_dimension", "run_property_suite", "verify_entry",
    "ConstructionResult", "RotaBaxterOp", "YauVerdict", "commutator_lie",
    "commutes", "dendriform_to_assoc", "dendriform_to_prelie",
    "dendriform_to_zinbiel", "endo_lie_from_assoc", "is_rota_baxter",
    "rb_prelie_from_assoc", "rb_prelie_from_lie", "twist", "twist_by",
    "yau_from_twist", "yau_iff_check", "zinbiel_to_assoc", "zinbiel_to_lie",
    "DerivationSpace", "InvDerAlgebra", "InvDerSearchResult",
    "InvDerVerdict", "check_squared_leibniz", "derivation_space",
    "generic_determinant", "invder_search", "is_derivation", "is_invder",
    "CommutationFailureError", "InputError", "InvderError",
    "NotIdempotentError", "NotInvDerError", "NotMultiplicativeError",
    "NotRotaBaxterError", "PreconditionError", "SingularMatrixError",
    "SourceAxiomFailureError", "SymmetryPreconditionFailureError",
    "KINDS", "Algebra", "AlgebraDocument", "BilinearOp", "LinearMap",
    "algebra_from_dict", "algebra_to_dict", "load_algebra", "save_algebra",
    "Q", "format_rational", "parse_rational",
    "__version__",
]
