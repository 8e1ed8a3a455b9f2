"""Shared fixtures: catalog entries plus a directory of serialized files."""
import pytest

from invder import LinearMap, catalog, is_invder, save_algebra, twist
from invder.catalog import _family_algebras


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
