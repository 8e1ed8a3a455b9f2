"""Exact arithmetic for algebras twisted by invertible derivations.

The package represents finite-dimensional algebras over the rationals by
structure constants, solves the Leibniz system for their derivation
spaces, recognises invertible derivations whose inverses are again
derivations, applies the twist and the passages between structure kinds,
and verifies every identity involved with exact witnesses.

`import invder` loads none of the submodules.  Each exported name is
listed once below, under its home module, and that module is imported on
first use of the name (PEP 562), so a command or a script pays only for
the modules it runs.  `invder.catalog` is the function `catalog()`, not
the module of the same name, whatever was imported first; the module is
`sys.modules["invder.catalog"]`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "axioms": (
        "AXIOM_IDS", "DELTA_AXIOMS", "CheckReport", "Witness",
        "identity_report", "invder_identity_axioms", "kind_axioms",
        "kinds_satisfied", "leibniz_witness", "run_axiom"),
    "catalog": (
        "CatalogEntry", "SearchConfig", "SearchReport", "SuiteReport",
        "catalog", "counterexample_search", "entry", "run_property_suite",
        "verify_entry"),
    "constructions": (
        "ConstructionResult", "YauVerdict", "commutator_lie",
        "dendriform_to_assoc", "dendriform_to_prelie", "dendriform_to_zinbiel",
        "endo_lie_from_assoc", "is_rota_baxter", "rb_prelie_from_assoc",
        "rb_prelie_from_lie", "twist", "twist_by", "yau_from_twist",
        "yau_iff_check", "zinbiel_to_assoc", "zinbiel_to_lie"),
    "derivations": (
        "DerivationSpace", "InvDerAlgebra", "InvDerSearchResult",
        "InvDerVerdict", "derivation_space", "generic_determinant",
        "invder_search", "is_derivation", "is_invder"),
    "errors": (
        "InputError", "InvderError", "NotInvDerError", "PreconditionError",
        "SingularMatrixError"),
    "model": (
        "FAMILIES", "KINDS", "Algebra", "AlgebraDocument", "BilinearOp",
        "LinearMap", "algebra_from_dict", "algebra_to_dict", "load_algebra",
        "max_dimension", "save_algebra"),
    "rational": ("Q", "format_rational", "parse_rational"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Keeps an exported name from being replaced by a submodule.

    The import system binds each submodule it loads as an attribute of the
    package; for `catalog`, whose exported name is the function of the
    same name, the function is bound instead.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _HOME.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
