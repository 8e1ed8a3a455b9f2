"""Shared fixtures: catalog entries, a fresh catalog, and a directory of
serialized files; and a report hook that keeps a failing hypothesis test
reportable under -W error."""
import importlib
import warnings

import pytest

from invder import LinearMap, catalog, is_invder, save_algebra, twist
from invder.catalog import _family_algebras


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    """Make each report with one DeprecationWarning ignored.  Reporting a
    failed hypothesis test imports hypothesis.extra._patching, and through
    it libcst, which calls the deprecated mypy_extensions.TypedDict where
    that package is installed; under -W error the warning would abort the
    whole run with INTERNALERROR instead of showing the failing example."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated",
            DeprecationWarning)
        return (yield)


@pytest.fixture
def fresh_catalog(monkeypatch):
    """The catalog built anew for one test, and the shared one restored
    after it.  Catalog entries keep their caches (a map's inverse, columns
    and integral multiple, an operation's Leibniz rows) for the process,
    so a work count taken on them would otherwise depend on which tests
    ran first."""
    # the package's catalog attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("invder.catalog"),
                        "_CATALOG", None)


@pytest.fixture(scope="session")
def entries():
    return {e.id: e for e in catalog()}


@pytest.fixture(scope="session")
def algebra_dir(tmp_path_factory):
    """Every catalog entry written to disk once, for file-based tests."""
    out = tmp_path_factory.mktemp("algebras")
    for e in catalog():
        save_algebra(e.document, str(out / f"{e.id}.json"))
    return out


@pytest.fixture(scope="session")
def reverify_findings():
    """Re-derive every finding of a hunt from its record alone: the algebra
    rebuilt from the config, the map read back from its columns, and the
    forced twist failing the recorded check with the recorded witness."""
    def check(config, report):
        algebras = {a.name: a for a in _family_algebras(config)[0]}
        for f in report.findings:
            alg = algebras[f["algebra"]]
            delta = LinearMap.from_column_strings(f["delta"], alg.dim)
            verdict = is_invder(delta, alg)
            assert verdict.is_derivation and verdict.is_invertible
            assert not verdict.inverse_is_derivation
            reports = {r.axiom: r for r in
                       twist(alg, delta, "lie", force=True).verification}
            assert not reports[f["check"]].holds
            assert reports[f["check"]].witness.to_dict() == f["witness"]
    return check
