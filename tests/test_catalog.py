"""Built-in catalog, randomized property suite, counterexample search."""
import hashlib
import importlib
import json
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invder import (FAMILIES, Algebra, LinearMap, SearchConfig, catalog,
                    counterexample_search, derivation_space, entry, is_invder,
                    kinds_satisfied, max_dimension, run_axiom,
                    run_property_suite, twist, verify_entry)
from invder import derivations
from invder.axioms import CheckReport
from invder.catalog import _family_algebras
from invder.derivations import DerivationSpace
from invder.linalg import Matrix
from invder.model import AlgebraDocument, BilinearOp, algebra_to_dict
from invder.errors import InputError, InvderError

# the module; the package exports its function catalog under that name
catalog_module = importlib.import_module("invder.catalog")


class TestEntries:
    def test_ids_are_unique_and_lookup_works(self):
        ids = [e.id for e in catalog()]
        assert len(ids) == len(set(ids)) == 18
        assert entry("so3").algebra.dim == 3
        with pytest.raises(InputError):
            entry("missing")

    def test_every_entry_matches_its_recorded_facts(self):
        for e in catalog():
            rows = verify_entry(e)
            bad = [r for r in rows if not r["ok"]]
            assert not bad, (e.id, bad)

    def test_kind_hints_are_truthful(self):
        for e in catalog():
            kind = e.algebra.kind_hint
            if kind == "dendriform":
                reps = [run_axiom(e.algebra, f"dendriform_{i}")
                        for i in (1, 2, 3)]
                assert all(r.holds for r in reps), e.id
            elif kind is not None:
                assert kind in kinds_satisfied(e.algebra), e.id

    def test_stored_maps_have_matching_dimension(self):
        for e in catalog():
            for _, m in e.document.maps:
                assert m.dim == e.algebra.dim

    def test_family_closures_emit_accepted_maps(self):
        for e in catalog():
            if e.invder_family is None:
                continue
            rng = random.Random(f"family:{e.id}")
            for _ in range(10):
                d = e.invder_family(rng)
                assert is_invder(d, e.algebra,
                                 e.algebra.op_names()).accepted, e.id


def _sha256(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def test_built_in_examples_are_pinned():
    """Every entry's document, facts and whether it has a family, and every
    table the hunt builds for each family, are pinned byte for byte."""
    assert _sha256([algebra_to_dict(e.document), e.expected,
                    e.invder_family is not None] for e in catalog()) == \
        "984e49109be4334c5541fba093b2081573b6db055b84891baf3ff1f680d3dcfb"
    tables = []
    for family in FAMILIES:
        algebras, rejected = _family_algebras(
            SearchConfig(family, max_dim=6, seed=7, tables_per_dim=10))
        tables.append([family, rejected, [
            algebra_to_dict(AlgebraDocument.build(a)) for a in algebras]])
    assert _sha256(tables) == \
        "30e3a419c00af344e66271255cc930806f079bbfa76b3be0a17adb643eb70a32"
    assert FAMILIES == ("abelian", "heisenberg_like", "filiform", "solvable",
                        "random_nilpotent_tables")


def test_each_entry_owns_its_facts():
    """The catalog lives for the whole process, so no two entries may share
    a mutable fact; and one table row builds each deterministic family."""
    def mutables(value):
        if isinstance(value, (dict, list)):
            yield value
            for v in value.values() if isinstance(value, dict) else value:
                yield from mutables(v)

    seen = [id(m) for e in catalog() for m in mutables(e.expected)]
    assert len(seen) == len(set(seen))
    assert FAMILIES == (*catalog_module._FAMILY_PAIRS,
                        "random_nilpotent_tables")


class TestPropertySuite:
    def test_small_run_is_clean(self):
        report = run_property_suite(seed=1, samples=5)
        assert report.ok
        assert report.violations == []
        assert report.entries == 18
        assert report.accepted_pairs > 0
        assert report.prop21_instances > 0

    def test_reports_are_reproducible(self):
        a = run_property_suite(seed=4, samples=8)
        b = run_property_suite(seed=4, samples=8)
        assert a.to_json() == b.to_json()

    def test_different_seeds_draw_different_candidates(self):
        a = run_property_suite(seed=1, samples=8)
        b = run_property_suite(seed=2, samples=8)
        assert a.to_dict() != b.to_dict()

    def test_check_instances_span_source_and_twist(self):
        report = run_property_suite(seed=1, samples=10)
        names = set(report.checks)
        assert "prop21_route_agreement" in names
        assert "yau_iff" in names
        assert any(n.startswith("twist:") for n in names)
        assert any(n.startswith("source:") for n in names)

    def test_counts_add_up(self):
        report = run_property_suite(seed=1, samples=6)
        data = report.to_dict()
        assert data["ok"] is True
        assert data["accepted_pairs"] == report.accepted_pairs
        total = sum(c["instances"] for c in data["checks"].values())
        assert total >= report.accepted_pairs
        assert all(c["violations"] == 0 for c in data["checks"].values())

    def test_bad_parameters_rejected(self):
        with pytest.raises(InputError):
            run_property_suite(samples=0)


class TestSearchConfig:
    def test_family_enum_is_closed(self):
        assert set(FAMILIES) == {"abelian", "heisenberg_like", "filiform",
                                 "solvable", "random_nilpotent_tables"}
        with pytest.raises(InputError):
            SearchConfig("diagonal").validate()

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            SearchConfig("abelian", max_dim=max_dimension() + 1).validate()

    def test_range_cap(self):
        with pytest.raises(InputError):
            SearchConfig("abelian", coefficient_range=9).validate()
        with pytest.raises(InputError):
            SearchConfig("abelian", coefficient_range=0).validate()

    def test_sample_and_table_budgets(self):
        with pytest.raises(InputError):
            SearchConfig("abelian", max_samples=0).validate()
        with pytest.raises(InputError):
            SearchConfig("random_nilpotent_tables", tables_per_dim=0).validate()

    def test_dimension_cap_respects_environment(self, monkeypatch):
        monkeypatch.setenv("INVDER_MAX_DIM", "3")
        assert max_dimension() == 3
        with pytest.raises(InputError):
            SearchConfig("abelian", max_dim=4).validate()
        monkeypatch.setenv("INVDER_MAX_DIM", "junk")
        with pytest.raises(InputError):
            max_dimension()
        monkeypatch.setenv("INVDER_MAX_DIM", "0")
        with pytest.raises(InputError, match="must be positive"):
            max_dimension()


# a hunt with findings: 238 candidates, 13 of whose twists break Jacobi
SMALL_HUNT = SearchConfig("random_nilpotent_tables", max_dim=6,
                          max_samples=10, seed=7)
HUNT_TABLES_6 = [a for a in _family_algebras(SMALL_HUNT)[0] if a.dim == 6]


class TestCounterexampleSearch:
    def test_structured_families_produce_no_findings(self):
        for family in ("heisenberg_like", "abelian", "filiform", "solvable"):
            report = counterexample_search(
                SearchConfig(family, max_dim=4, max_samples=60))
            assert report.ok
            assert report.findings == []
            assert report.algebras_examined > 0
            data = report.to_dict()
            assert data["bounds"]["max_dim"] == 4
            assert data["bounds"]["coefficient_range"] == 3
            assert data["bounds"]["max_samples"] == 60

    def test_abelian_tables_have_no_candidates(self):
        # Every inverse of an invertible derivation of a zero product is
        # again a derivation, so nothing survives the filter.
        report = counterexample_search(
            SearchConfig("abelian", max_dim=3, max_samples=40))
        assert report.candidates_found == 0

    def test_heisenberg_like_candidates_exist_but_stay_lie(self):
        report = counterexample_search(
            SearchConfig("heisenberg_like", max_dim=4, max_samples=60))
        assert report.candidates_found > 0
        assert report.findings == []

    def test_random_tables_are_reproducible(self):
        cfg = SearchConfig("random_nilpotent_tables", max_dim=4,
                           max_samples=40, seed=5, tables_per_dim=3)
        a = counterexample_search(cfg)
        b = counterexample_search(cfg)
        assert a.to_json() == b.to_json()
        data = a.to_dict()
        assert "rejected_tables" in data
        assert "tables_per_dim" in data["bounds"]
        assert data["algebras_examined"] == len(data["rows"])

    def test_findings_always_reverify(self, reverify_findings):
        # Every reported break must reproduce: the map is an invertible
        # derivation whose inverse is not one, and the forced twist
        # fails the recorded axiom at the recorded witness.
        report = counterexample_search(SMALL_HUNT)
        assert report.candidates_found == 238
        assert len(report.findings) == 13
        rows = {r["algebra"]: r for r in report.rows}
        assert {f["algebra"] for f in report.findings} <= set(rows)
        reverify_findings(SMALL_HUNT, report)

    def test_rows_describe_every_algebra(self):
        report = counterexample_search(
            SearchConfig("heisenberg_like", max_dim=4, max_samples=20))
        for row in report.rows:
            assert set(row) == {"algebra", "dim", "derivation_dim",
                                "twisted_candidates"}
            assert 3 <= row["dim"] <= 4


def twist_is_lie(alg, delta) -> bool:
    """The forced twist's own skew symmetry and Jacobi reports."""
    return all(r.holds for r in twist(alg, delta, "lie", force=True).verification
               if r.axiom in ("skew_symmetry", "jacobi"))


COEFFICIENTS = [Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(1, 2)]


@st.composite
def sparse_lie_tables(draw):
    """A sparse skew table that satisfies Jacobi.  Products land on later
    basis vectors (nilpotent, as the hunt's tables) or anywhere."""
    n = draw(st.integers(2, 5))
    anywhere = draw(st.booleans()) and n <= 3
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            targets = range(n) if anywhere else range(j + 1, n)
            if targets and draw(st.booleans()):
                entry_ = {draw(st.sampled_from(targets)):
                          draw(st.sampled_from(COEFFICIENTS))}
                table[(i, j)] = entry_
                table[(j, i)] = {k: -c for k, c in entry_.items()}
    alg = Algebra.build("t", [f"e{t}" for t in range(n)],
                        {"bracket": BilinearOp.from_dict(n, table)}, "lie")
    assume(run_axiom(alg, "jacobi").holds)
    return alg


@st.composite
def lie_tables_and_invertible_derivations(draw):
    """A Lie table, sparse or one of the hunt's dim-6 tables (two of which
    have twists that break Jacobi), and an invertible derivation of it."""
    alg = draw(st.one_of(sparse_lie_tables(),
                         st.sampled_from(HUNT_TABLES_6)))
    space = derivation_space(alg)
    delta = space.combination(
        draw(st.lists(st.sampled_from(COEFFICIENTS), min_size=space.dim,
                      max_size=space.dim)))
    assume(delta.is_invertible())
    return alg, delta


class TestTwistLemma:
    """For an invertible derivation delta of a Lie bracket, the twist
    delta[x, y] is Lie exactly when delta satisfies invder_jacobi on the
    source, the lemma the hunt decides its candidates by."""

    def test_every_invertible_draw_of_a_hunt(self):
        cfg = SMALL_HUNT
        candidates, broken = 0, []
        for alg in _family_algebras(cfg)[0]:
            space = derivation_space(alg)
            # the hunt's own draws, in its order
            rng = random.Random(f"{cfg.seed}:{alg.name}")
            for _ in range(cfg.max_samples):
                coeffs = [rng.randint(-cfg.coefficient_range,
                                      cfg.coefficient_range)
                          for _ in range(space.dim)]
                if not any(coeffs):
                    continue
                delta = space.combination(coeffs)
                verdict = is_invder(delta, alg)
                if not verdict.is_invertible:
                    continue
                holds = run_axiom(alg, "invder_jacobi", None, delta).holds
                assert holds == twist_is_lie(alg, delta), alg.name
                if not verdict.inverse_is_derivation:
                    candidates += 1
                    if not holds:
                        broken.append((alg.name, delta.to_columns()))
        report = counterexample_search(cfg)
        assert candidates == report.candidates_found == 238
        assert broken == [(f["algebra"], f["delta"])
                          for f in report.findings]
        assert len(broken) == 13

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(lie_tables_and_invertible_derivations())
    def test_skew_tables(self, pair):
        alg, delta = pair
        assert run_axiom(alg, "invder_jacobi", None, delta).holds \
            == twist_is_lie(alg, delta)

    def test_jacobiator_of_the_twist_is_minus_delta_of_the_cyclic_sum(self):
        # sum_cyc delta[x, delta[y, z]] = -delta(sum_cyc [delta x, [y, z]])
        # on every basis triple, for seeded derivations of the hunt's tables
        def add(parts):
            out = {}
            for part in parts:
                for k, v in part.items():
                    out[k] = out.get(k, 0) + v
            return {k: v for k, v in out.items() if v}

        nonzero = 0
        for alg in HUNT_TABLES_6:
            mul, n = alg.op().mul_sparse, alg.dim
            units = [{i: 1} for i in range(n)]
            rng = random.Random(f"lemma:{alg.name}")
            for _, delta in derivation_space(alg).draws(rng, 3, 3):
                d = delta.apply_sparse
                for i, j, k in combinations(range(n), 3):
                    cyclic = ((i, j, k), (j, k, i), (k, i, j))
                    jacobiator = add(d(mul(units[a], d(mul(units[b],
                                                           units[c]))))
                                     for a, b, c in cyclic)
                    total = add(mul(delta.columns()[a],
                                    mul(units[b], units[c]))
                                for a, b, c in cyclic)
                    assert jacobiator == {e: -v for e, v in d(total).items()}
                    nonzero += bool(total)
        assert nonzero > 0

    def test_hunt_twists_only_its_findings(self, monkeypatch):
        calls = []
        original = catalog_module.twist_by

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(catalog_module, "twist_by", counted)
        report = counterexample_search(SMALL_HUNT)
        assert calls == [f["algebra"] for f in report.findings]
        assert len(calls) == 13

    def test_a_twist_that_stays_lie_is_refused(self, monkeypatch):
        # a candidate failing invder_jacobi whose twist reports no failure
        # contradicts the lemma: the hunt stops instead of skipping it
        original = catalog_module.run_axiom

        def patched(alg, axiom, *args):
            if axiom == "invder_jacobi":
                return CheckReport("invder_jacobi", False)
            return original(alg, axiom, *args)

        monkeypatch.setattr(catalog_module, "run_axiom", patched)
        with pytest.raises(InvderError, match="internal inconsistency"):
            counterexample_search(SearchConfig(
                "heisenberg_like", max_dim=4, max_samples=20))


class TestOneVerdictPerMap:
    """Each (map, algebra) pair gets its InvDer verdict exactly once."""

    @pytest.fixture
    def verdicts(self, monkeypatch):
        """Algebra names of every is_invder call, wherever it is made."""
        seen = []
        original = derivations.is_invder

        def counted(delta, alg, *args, **kwargs):
            seen.append(alg.name)
            return original(delta, alg, *args, **kwargs)

        for name in ("catalog", "constructions", "derivations"):
            module = importlib.import_module(f"invder.{name}")
            monkeypatch.setattr(module, "is_invder", counted)
        return seen

    def test_hunt_decides_each_draw_once(self, verdicts, monkeypatch):
        draws = []
        original = DerivationSpace.combination

        def counted(space, coeffs):
            draws.append(coeffs)
            return original(space, coeffs)

        monkeypatch.setattr(DerivationSpace, "combination", counted)
        counterexample_search(SearchConfig(
            "random_nilpotent_tables", max_dim=4, max_samples=8, seed=1))
        assert len(verdicts) == len(draws) == 160

    def test_suite_decides_each_candidate_and_twist_once(self, verdicts,
                                                         fresh_catalog,
                                                         monkeypatch):
        calls = {"invert": 0, "leibniz": 0}

        def counting(key, original):
            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(Matrix, "invert",
                            counting("invert", Matrix.invert))
        for name in ("axioms", "derivations"):
            module = importlib.import_module(f"invder.{name}")
            monkeypatch.setattr(module, "leibniz_witness", counting(
                "leibniz", module.leibniz_witness))
        report = run_property_suite(seed=0, samples=1)
        twisted = [name for name in verdicts if name.endswith(".twist")]
        assert len(twisted) == report.accepted_pairs
        assert len(verdicts) == 70
        # one inversion per map: the 23 verdicts on a twisted side reuse
        # the inverse of their source's verdict; every Leibniz scan is a
        # verdict's own but the 11 of the forced twists of the stored
        # non-InvDer maps
        assert calls == {"invert": 47, "leibniz": 158}


def test_hunt_scans_skew_symmetry_once_per_table_and_twist(monkeypatch):
    """The hunt's rows that gain symmetries on a skew table read skew
    symmetry off the operation; the skew_symmetry row is scanned by each
    table's Lie bundle and each forced twist."""
    import invder.axioms as axioms
    scanned, scan = [], axioms._scan

    def counted_scan(row, *args, **kwargs):
        scanned.append(row.id)
        return scan(row, *args, **kwargs)

    monkeypatch.setattr(axioms, "_scan", counted_scan)
    report = counterexample_search(SearchConfig(
        "random_nilpotent_tables", max_dim=6, max_samples=10, seed=7))
    assert (report.algebras_examined, len(report.findings)) == (40, 13)
    assert scanned.count("skew_symmetry") == 53


def test_hunt_decides_the_leibniz_rule_by_rows(monkeypatch):
    """The Leibniz rule costs no products, nor does a product of two basis
    vectors, nor one with a zero operand; the square condition, the
    twisted kind axioms and the witnesses make all of these."""
    calls = []
    original = BilinearOp.mul_sparse

    def counted(op, x, y):
        calls.append(1)
        return original(op, x, y)

    monkeypatch.setattr(BilinearOp, "mul_sparse", counted)
    report = counterexample_search(SearchConfig(
        "random_nilpotent_tables", max_dim=4, max_samples=8, seed=1))
    assert report.candidates_found == 73
    # the products with an empty operand, such as d(x) (y z) on a zero
    # basis product y z or d(x) d(y) on a zero column of delta, are skipped
    assert len(calls) == 769


def test_no_kernel_is_called_on_a_zero_operand(monkeypatch):
    """A compiled row takes the shared empty product for a product or an
    image with an empty operand instead of calling a kernel; the
    witnesses that hold that dict leave it empty."""
    import invder.axioms as axioms
    calls = []
    mul, apply = BilinearOp.mul_sparse, LinearMap.apply_sparse

    def counted_mul(op, x, y):
        calls.append((x, y))
        return mul(op, x, y)

    def counted_apply(m, x):
        calls.append((x,))
        return apply(m, x)

    monkeypatch.setattr(BilinearOp, "mul_sparse", counted_mul)
    monkeypatch.setattr(LinearMap, "apply_sparse", counted_apply)
    assert not run_property_suite(seed=0, samples=1).violations
    report = counterexample_search(SearchConfig(
        "random_nilpotent_tables", max_dim=4, max_samples=8, seed=1))
    assert report.candidates_found
    assert calls and all(all(operands) for operands in calls)
    assert axioms._NO_PRODUCT == {}
