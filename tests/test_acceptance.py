"""Acceptance gate: nine end-to-end criteria, exact arithmetic throughout.

Each test prints exactly one PASS or FAIL line so the gate can be read off
the terminal.  Every numeric comparison is exact equality on rationals;
there are no tolerances anywhere.
"""
import hashlib
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest

from invder import (LinearMap, SearchConfig, catalog, counterexample_search,
                    dendriform_to_assoc, dendriform_to_prelie,
                    dendriform_to_zinbiel, derivation_space, commutator_lie,
                    endo_lie_from_assoc, entry, invder_identity_axioms,
                    invder_search, is_invder, leibniz_witness, load_algebra,
                    rb_prelie_from_lie, run_axiom, run_property_suite,
                    save_algebra, twist, yau_iff_check, zinbiel_to_assoc,
                    zinbiel_to_lie, Algebra)
from invder.errors import InputError


@contextmanager
def criterion(number, name, capfd):
    """Announce the verdict on the real terminal, past pytest's capture."""
    verdict = "PASS"
    try:
        yield
    except BaseException:
        verdict = "FAIL"
        raise
    finally:
        with capfd.disabled():
            print(f"ACCEPTANCE {number} ({name}): {verdict}", flush=True)


@contextmanager
def wall_clock(limit_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, \
        f"took {elapsed:.2f}s, limit {limit_seconds}s"


def test_criterion_1_lie_regression(capfd):
    with criterion(1, "lie regression", capfd), wall_clock(1.0):
        e = entry("so3")
        assert run_axiom(e.algebra, "skew_symmetry").holds
        assert run_axiom(e.algebra, "jacobi").holds
        space = derivation_space(e.algebra)
        assert space.dim == 3
        for name in ("ad_e1", "ad_e2", "ad_e3"):
            assert space.coordinates_of(e.document.map(name)) is not None
        result = invder_search(e.algebra)
        assert result.found is None
        assert result.certificate == "generic determinant vanishes"


def test_criterion_2_invder_detector(capfd):
    with criterion(2, "invder detector", capfd), wall_clock(10.0):
        e = entry("heisenberg3")
        delta = e.document.map("delta_w")
        verdict = is_invder(delta, e.algebra)
        assert verdict.accepted and verdict.square_condition
        # The square route in explicit numbers: both sides are 4 e3.
        op = e.algebra.op()
        lhs = op.mul_sparse(delta.apply_sparse({0: Q(1)}),
                            delta.apply_sparse({1: Q(1)}))
        rhs = delta.apply_sparse(delta.apply_sparse(op.basis_product(0, 1)))
        assert lhs == rhs == {2: Q(4)}

        grading = e.document.map("diag112")
        gv = is_invder(grading, e.algebra)
        assert gv.is_derivation and gv.is_invertible
        assert gv.inverse_is_derivation is False
        assert gv.square_condition is False

        # Route equivalence on sampled invertible derivations, everywhere.
        checked = 0
        for ent in catalog():
            space = derivation_space(ent.algebra, ent.algebra.op_names())
            if space.dim == 0:
                continue
            rng = random.Random(f"acc2:{ent.id}")
            for _ in range(150):
                coeffs = [rng.randint(-4, 4) for _ in range(space.dim)]
                if not any(coeffs):
                    continue
                d = space.combination(coeffs)
                v = is_invder(d, ent.algebra, ent.algebra.op_names())
                if v.is_invertible:
                    checked += 1
                    assert v.inverse_is_derivation == v.square_condition
            if checked >= 1200:
                break
        assert checked >= 1000, f"only {checked} invertible samples"


def test_criterion_3_twist_preserves_kind(capfd):
    with criterion(3, "twist preserves kind", capfd), wall_clock(60.0):
        report = run_property_suite(seed=3, samples=100)
        assert report.violations == []
        assert report.ok
        assert report.accepted_pairs >= 1000
        checks = set(report.checks)
        # Twisted-table axioms for every structure kind must have run.
        for axiom in ("skew_symmetry", "jacobi", "pre_lie", "associativity",
                      "zinbiel", "dendriform_1", "dendriform_2",
                      "dendriform_3"):
            assert f"twist:{axiom}" in checks, axiom


def test_criterion_4_derived_identities(capfd):
    with criterion(4, "derived identities", capfd):
        instances = 0
        for ent in catalog():
            kind = ent.algebra.kind_hint
            if kind is None:
                continue
            candidates = [m for _, m in ent.document.maps]
            if ent.invder_family is not None:
                rng = random.Random(f"acc4:{ent.id}")
                candidates.extend(ent.invder_family(rng) for _ in range(30))
            for d in candidates:
                if not is_invder(d, ent.algebra,
                                 ent.algebra.op_names()).accepted:
                    continue
                reports = invder_identity_axioms(ent.algebra, kind, d)
                if kind == "lie":
                    reports.append(
                        run_axiom(ent.algebra, "identity_25", None, d))
                for rep in reports:
                    assert rep.holds, (ent.id, rep.axiom)
                    instances += 1
        assert instances >= 200, f"only {instances} identity instances"
        # Precondition enforcement: a non-derivation is refused outright.
        so3 = entry("so3").algebra
        assert leibniz_witness(so3.op(), LinearMap.identity(3)) is not None
        with pytest.raises(InputError):
            run_axiom(so3, "identity_25", None, LinearMap.identity(3))


def test_criterion_5_passages(capfd):
    with criterion(5, "cross-structure passages", capfd):
        a3 = entry("a3")
        comm = commutator_lie(a3.algebra, delta=a3.document.map("delta_A"))
        assert comm.ok
        assert comm.algebra.op().basis_product(0, 1) == {2: Q(2)}

        z3 = entry("z3").algebra
        sym = zinbiel_to_assoc(z3)
        assert sym.ok and sym.algebra.op().basis_product(0, 0) == {1: Q(2)}
        anti = zinbiel_to_lie(z3)
        assert anti.ok
        assert anti.algebra.op().basis_product(0, 1) == {2: Q(1, 2)}

        d2 = entry("d2").algebra
        total = dendriform_to_assoc(d2)
        assert total.ok and total.algebra.op().basis_product(0, 0) == {1: Q(1)}
        pre = dendriform_to_prelie(d2)
        assert pre.ok and pre.algebra.op().basis_product(0, 0) == {1: Q(1)}

        heis = entry("heisenberg3")
        rb = rb_prelie_from_lie(heis.algebra,
                                heis.document.map("proj_center"))
        assert rb.ok and not rb.algebra.op().constants

        endo = endo_lie_from_assoc(entry("m2").algebra, LinearMap.identity(4))
        assert endo.ok
        assert endo.algebra.op().basis_product(1, 2) == {0: Q(1), 3: Q(-1)}

        right = entry("a3").algebra.op()
        mirror = Algebra.build("mirror", ["x", "y", "z"],
                               {"left": right.opposite(), "right": right},
                               "dendriform")
        zres = dendriform_to_zinbiel(mirror)
        assert zres.ok and zres.algebra.op() == right


def test_criterion_6_yau_equivalence(capfd):
    with criterion(6, "yau equivalence", capfd):
        per_kind = {"lie": 0, "prelie": 0, "associative": 0, "zinbiel": 0}
        sources = [("heisenberg3", "lie"), ("a3", "prelie"),
                   ("zero_associative", "associative"),
                   ("a3_zinbiel", "zinbiel")]
        for entry_id, kind in sources:
            ent = entry(entry_id)
            rng = random.Random(f"acc6:{entry_id}")
            for _ in range(60):
                d = ent.invder_family(rng)
                v = yau_iff_check(ent.algebra, d, kind)
                assert v.forward and v.backward
                assert v.forward == v.backward
                per_kind[kind] += 1
        assert sum(per_kind.values()) >= 200
        assert all(count >= 50 for count in per_kind.values())


PLAIN_AXIOMS = ("skew_symmetry", "jacobi", "associativity", "pre_lie",
                "zinbiel", "commutativity")
DELTA_AXIOMS_SINGLE = ("invder_jacobi", "invder_prelie", "invder_assoc",
                       "invder_zinbiel", "zinbiel_aux_44", "zinbiel_aux_45")
DENDRIFORM_AXIOMS = ("dendriform_1", "dendriform_2", "dendriform_3")
DENDRIFORM_DELTA = ("invder_dend_47", "invder_dend_48", "invder_dend_49")


def _rand_vec(rng, n):
    return tuple(Q(rng.randint(-3, 3)) for _ in range(n))


def _ev(op, x, y):
    """Bilinear evaluation straight from the structure constants."""
    out = [Q(0)] * op.dim
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, c in op.basis_product(i, j).items():
                        out[k] += xi * yj * c
    return tuple(out)


def _app(columns, x):
    out = [Q(0)] * len(x)
    for j, xj in enumerate(x):
        if xj:
            for i in range(len(x)):
                out[i] += columns[j][i] * xj
    return tuple(out)


def _add(*vectors):
    return tuple(sum(components) for components in zip(*vectors))


def _neg(v):
    return tuple(-c for c in v)


def _naive_sides(axiom, alg, op_name, delta_columns):
    """Both sides of an identity on arbitrary full vectors.

    This deliberately re-derives every identity from scratch instead of
    calling the checkers, so agreement is meaningful evidence.
    """
    if axiom in DENDRIFORM_AXIOMS + DENDRIFORM_DELTA:
        lt, rt = alg.op("left"), alg.op("right")
    else:
        op = alg.op(op_name)
    zero = (Q(0),) * alg.dim

    def sides(x, y, z):
        if axiom == "skew_symmetry":
            return _ev(op, x, y), _neg(_ev(op, y, x))
        if axiom == "commutativity":
            return _ev(op, x, y), _ev(op, y, x)
        if axiom == "jacobi":
            return _add(_ev(op, x, _ev(op, y, z)), _ev(op, y, _ev(op, z, x)),
                        _ev(op, z, _ev(op, x, y))), zero
        if axiom == "associativity":
            return _ev(op, _ev(op, x, y), z), _ev(op, x, _ev(op, y, z))
        if axiom == "pre_lie":
            one = _add(_ev(op, x, _ev(op, y, z)),
                       _neg(_ev(op, _ev(op, x, y), z)))
            two = _add(_ev(op, y, _ev(op, x, z)),
                       _neg(_ev(op, _ev(op, y, x), z)))
            return one, two
        if axiom == "zinbiel":
            return _ev(op, x, _ev(op, y, z)), \
                _add(_ev(op, _ev(op, x, y), z), _ev(op, _ev(op, y, x), z))
        if axiom == "dendriform_1":
            return _ev(lt, _ev(lt, x, y), z), \
                _ev(lt, x, _add(_ev(lt, y, z), _ev(rt, y, z)))
        if axiom == "dendriform_2":
            return _ev(lt, _ev(rt, x, y), z), _ev(rt, x, _ev(lt, y, z))
        if axiom == "dendriform_3":
            return _ev(rt, x, _ev(rt, y, z)), \
                _ev(rt, _add(_ev(lt, x, y), _ev(rt, x, y)), z)
        dx, dy, dz = (_app(delta_columns, v) for v in (x, y, z))
        if axiom == "invder_jacobi":
            return _add(_ev(op, dx, _ev(op, y, z)),
                        _ev(op, dy, _ev(op, z, x)),
                        _ev(op, dz, _ev(op, x, y))), zero
        if axiom == "identity_25":
            lhs = _add(_ev(op, x, _app(delta_columns, _ev(op, y, z))),
                       _ev(op, y, _app(delta_columns, _ev(op, z, x))),
                       _ev(op, z, _app(delta_columns, _ev(op, x, y))))
            rhs = _add(_ev(op, dx, _ev(op, y, z)),
                       _ev(op, dy, _ev(op, z, x)),
                       _ev(op, dz, _ev(op, x, y)))
            return lhs, rhs
        if axiom == "invder_prelie":
            one = _add(_ev(op, dx, _ev(op, y, z)),
                       _neg(_ev(op, _ev(op, x, y), dz)))
            two = _add(_ev(op, dy, _ev(op, x, z)),
                       _neg(_ev(op, _ev(op, y, x), dz)))
            return one, two
        if axiom == "invder_assoc":
            return _ev(op, dx, _ev(op, y, z)), _ev(op, _ev(op, x, y), dz)
        if axiom == "invder_zinbiel":
            return _ev(op, dx, _ev(op, y, z)), \
                _add(_ev(op, _ev(op, x, y), dz), _ev(op, _ev(op, y, x), dz))
        if axiom == "zinbiel_aux_44":
            return _ev(op, dx, _ev(op, z, y)), _ev(op, dz, _ev(op, x, y))
        if axiom == "zinbiel_aux_45":
            return _ev(op, _ev(op, x, y), dz), _ev(op, _ev(op, x, z), dy)
        if axiom == "invder_dend_47":
            return _ev(lt, _ev(lt, x, y), dz), \
                _ev(lt, dx, _add(_ev(lt, y, z), _ev(rt, y, z)))
        if axiom == "invder_dend_48":
            return _ev(lt, _ev(rt, x, y), dz), _ev(rt, dx, _ev(lt, y, z))
        if axiom == "invder_dend_49":
            return _ev(rt, dx, _ev(rt, y, z)), \
                _ev(rt, _add(_ev(lt, x, y), _ev(rt, x, y)), dz)
        raise AssertionError(axiom)
    return sides


def _naive_holds(axiom, alg, op_name, delta, seed_label):
    columns = None
    if delta is not None:
        columns = [[Q(v) for v in col] for col in delta.to_columns()]
    sides = _naive_sides(axiom, alg, op_name, columns)
    rng = random.Random(seed_label)
    for _ in range(50):
        x, y, z = (_rand_vec(rng, alg.dim) for _ in range(3))
        lhs, rhs = sides(x, y, z)
        if lhs != rhs:
            return False
    return True


def test_criterion_7_checker_oracle_equivalence(capfd):
    with criterion(7, "checker oracle equivalence", capfd):
        combos = 0
        for ent in catalog():
            alg = ent.algebra
            assert alg.dim <= 4
            two_op = set(alg.op_names()) == {"left", "right"}
            op_names = ["left", "right"] if two_op else [alg.op_names()[0]]
            for axiom in PLAIN_AXIOMS:
                for op_name in op_names:
                    verdict = run_axiom(alg, axiom, op_name).holds
                    label = f"acc7:{ent.id}:{axiom}:{op_name}"
                    assert verdict == _naive_holds(axiom, alg, op_name, None,
                                                   label), (ent.id, axiom)
                    combos += 1
            if two_op:
                for axiom in DENDRIFORM_AXIOMS:
                    verdict = run_axiom(alg, axiom).holds
                    label = f"acc7:{ent.id}:{axiom}"
                    assert verdict == _naive_holds(axiom, alg, None, None,
                                                   label), (ent.id, axiom)
                    combos += 1
            for map_name, delta in ent.document.maps:
                delta_axioms = DENDRIFORM_DELTA if two_op \
                    else DELTA_AXIOMS_SINGLE
                for axiom in delta_axioms:
                    op_name = None if two_op else op_names[0]
                    verdict = run_axiom(alg, axiom, op_name, delta).holds
                    label = f"acc7:{ent.id}:{axiom}:{map_name}"
                    assert verdict == _naive_holds(axiom, alg, op_name, delta,
                                                   label), \
                        (ent.id, axiom, map_name)
                    combos += 1
                if not two_op and all(
                        leibniz_witness(alg.op(o), delta) is None
                        for o in op_names):
                    verdict = run_axiom(alg, "identity_25", op_names[0],
                                        delta).holds
                    label = f"acc7:{ent.id}:identity_25:{map_name}"
                    assert verdict == _naive_holds("identity_25", alg,
                                                   op_names[0], delta, label), \
                        (ent.id, map_name)
                    combos += 1
        assert combos >= 200, f"only {combos} checker/oracle comparisons"


def test_criterion_8_counterexample_search(capfd, reverify_findings):
    with criterion(8, "counterexample search", capfd):
        for family in ("heisenberg_like", "abelian"):
            report = counterexample_search(
                SearchConfig(family, max_dim=4, max_samples=200))
            assert report.findings == []
            assert report.ok
            assert "bounds" in report.to_dict()

        config = SearchConfig("random_nilpotent_tables", max_dim=6,
                              max_samples=200, seed=7, tables_per_dim=10)
        with wall_clock(300.0):
            first = counterexample_search(config)
        second = counterexample_search(config)
        assert first.to_json() == second.to_json()
        # the report bytes, which every derivation space and verdict of the
        # hunt feeds
        assert hashlib.sha256(first.to_json().encode()).hexdigest() == \
            "f0d13c963c819dd83bb01bd2af763123d296c7a2cff221737399d9548052d016"
        assert first.algebras_examined == len(first.rows)

        # Every reported finding must reproduce from its record.
        assert len(first.findings) == 235
        assert {f["check"] for f in first.findings} == {"jacobi"}
        reverify_findings(config, first)


def test_criterion_9_cli_contract(tmp_path, capfd):
    with criterion(9, "cli contract", capfd):
        for e in (entry("heisenberg3"), entry("so3")):
            save_algebra(e.document, str(tmp_path / f"{e.id}.json"))
        heis_file = str(tmp_path / "heisenberg3.json")
        so3_file = str(tmp_path / "so3.json")

        passed = subprocess.run(
            [sys.executable, "-m", "invder", "check", heis_file],
            capture_output=True, text=True)
        assert passed.returncode == 0

        refuted = subprocess.run(
            [sys.executable, "-m", "invder", "check", so3_file,
             "--axiom", "invder_jacobi", "--map", "ad_e1"],
            capture_output=True, text=True)
        assert refuted.returncode == 1
        assert "(0, 1, 2)" in refuted.stdout

        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        usage = subprocess.run(
            [sys.executable, "-m", "invder", "check", str(bad)],
            capture_output=True, text=True)
        assert usage.returncode == 2
        assert usage.stderr.startswith("error:")

        out_file = str(tmp_path / "twisted.json")
        twisted = subprocess.run(
            [sys.executable, "-m", "invder", "twist", heis_file,
             "--map", "delta_w", "-o", out_file],
            capture_output=True, text=True)
        assert twisted.returncode == 0
        doc = load_algebra(out_file)
        assert doc.algebra.op().basis_product(0, 1) == {2: Q(2)}
        assert run_axiom(doc.algebra, "jacobi").holds
        assert run_axiom(doc.algebra, "skew_symmetry").holds
        reverify = subprocess.run(
            [sys.executable, "-m", "invder", "check", out_file],
            capture_output=True, text=True)
        assert reverify.returncode == 0
