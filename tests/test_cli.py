"""Command line interface: exit codes, output contract, file round trips."""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from invder import InvderError, load_algebra
from invder.cli import PASSAGES, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(algebra_dir, entry_id):
    return str(algebra_dir / f"{entry_id}.json")


class TestCheck:
    def test_kind_bundle_from_file(self, capsys, algebra_dir):
        code, out, err = run(capsys, "check", path(algebra_dir, "heisenberg3"))
        assert code == 0
        assert "skew_symmetry: holds" in out
        assert "jacobi: holds" in out
        assert err == ""

    def test_single_axiom(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "check", path(algebra_dir, "so3"),
                           "--axiom", "jacobi")
        assert code == 0
        assert out.strip() == "jacobi: holds"

    def test_failing_identity_exits_one_with_witness(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "check", path(algebra_dir, "so3"),
                           "--axiom", "invder-lie", "--map", "ad_e1")
        assert code == 1
        assert "invder_jacobi: fails at (0, 1, 2)" in out

    def test_json_report(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "check", path(algebra_dir, "so3"),
                           "--axiom", "invder_jacobi", "--map", "ad_e1",
                           "--json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        reports = data["axioms"]
        assert reports[0]["axiom"] == "invder_jacobi"
        assert reports[0]["holds"] is False
        assert reports[0]["witness"]["indices"] == [0, 1, 2]
        assert reports[0]["witness"]["lhs"] == ["-2", "0", "0"]

    def test_refused_row_keeps_the_verdicts_that_ran(self, capsys,
                                                     algebra_dir):
        # proj_center is not a derivation, so identity_25 is refused, but
        # the invder_jacobi row of the same bundle still has its verdict
        argv = ("check", path(algebra_dir, "heisenberg3"), "--axiom",
                "invder-lie", "--map", "proj_center")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "invder_jacobi: holds\n"
        assert err == ("error: identity_25 requires delta to be a "
                       "derivation\n")
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out) == {
            "algebra": "heisenberg3",
            "axioms": [{"axiom": "invder_jacobi", "holds": True}],
            "ok": False,
            "error": "identity_25 requires delta to be a derivation"}
        assert err.startswith("error: identity_25")

    def test_delta_axiom_needs_map(self, capsys, algebra_dir):
        code, _, err = run(capsys, "check", path(algebra_dir, "so3"),
                           "--axiom", "invder_jacobi")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_axiom(self, capsys, algebra_dir):
        code, _, err = run(capsys, "check", path(algebra_dir, "so3"),
                           "--axiom", "nonsense")
        assert code == 2
        assert "error:" in err

    def test_dendriform_bundle(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "check", path(algebra_dir, "d2"),
                           "--axiom", "dendriform")
        assert code == 0
        assert out.count("holds") == 3

    @pytest.mark.parametrize("argv, axiom", [
        (("--axiom", "dendriform", "--op", "nope"), "dendriform_1"),
        (("--axiom", "invder-dendriform", "--map", "diag12", "--op", "zzz"),
         "invder_dend_47"),
        (("--axiom", "dendriform_2", "--op", "left"), "dendriform_2"),
    ])
    def test_dendriform_rows_refuse_op(self, capsys, algebra_dir, argv,
                                       axiom):
        code, out, err = run(capsys, "check", path(algebra_dir, "d2"), *argv)
        assert code == 2
        assert out == ""
        assert err == (f"error: axiom {axiom!r} reads the ops \"left\" and "
                       "\"right\" and takes no op name\n")


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/alg.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error:" in err

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_missing_required_option(self, capsys, algebra_dir):
        code = main(["invder", path(algebra_dir, "heisenberg3")])
        capsys.readouterr()
        assert code == 2

    def test_no_arguments(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2


def _long_coefficient(doc):
    doc["maps"]["delta_w"][0][0] = "1" + "0" * 5000


MALFORMED = {
    "maps-not-object": lambda doc: doc.update(maps="x"),
    "map-coefficient-too-long": pytest.param(
        _long_coefficient,
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="interpreter has no digit limit")),
    "fractional-index": lambda doc: doc["operations"]["bracket"][
        "table"][0].update(i=0.5),
    "skew-not-boolean": lambda doc: doc["operations"]["bracket"].update(
        skew="no"),
    # (1, 0) listed as +e3 beside (0, 1) = e3 contradicts the skew flag
    "skew-pair-not-negated": lambda doc: doc["operations"]["bracket"][
        "table"].append({"i": 1, "j": 0, "v": [["1", 2]]}),
    "dimension-boolean": lambda doc: doc.update(
        dimension=True, basis=["e1"], maps={},
        operations={"bracket": {"table": []}}),
    "name-null": lambda doc: doc.update(name=None),
    "basis-object": lambda doc: doc.update(
        basis={"e1": 0, "e2": 1, "e3": 2}),
    "dendriform-without-left-right": lambda doc: doc.update(
        kind="dendriform"),
    "lie-with-two-operations": lambda doc: doc["operations"].update(
        other={"table": []}),
    # a mutation that returns a document replaces the whole file
    "top-level-not-object": lambda doc: [doc],
}


@pytest.mark.parametrize("mutate", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_file_is_an_input_error(capsys, tmp_path, mutate):
    doc = {"name": "heisenberg3", "dimension": 3, "basis": ["e1", "e2", "e3"],
           "kind": "lie",
           "operations": {"bracket": {"skew": True, "table": [
               {"i": 0, "j": 1, "v": [["1", 2]]}]}},
           "maps": {"delta_w": [["1", "3", "0"], ["-1", "1", "0"],
                                ["0", "0", "2"]]}}
    replacement = mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc if replacement is None else replacement))
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deeply_nested_file_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text('{"name": ' + "[" * 100000 + "]" * 100000 + "}")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("exc, code, line", [
    (RuntimeError("simulated defect\nsecond line"), 3,
     "internal error: RuntimeError: simulated defect second line\n"),
    # an internal cross-check that refutes itself is a verdict, not a crash
    (InvderError("routes disagree"), 1, "refuted: routes disagree\n"),
], ids=["defect", "refuted"])
def test_crash_exits_three_not_one(capsys, algebra_dir, monkeypatch, exc,
                                   code, line):
    import invder.cli

    def boom(args):
        raise exc

    monkeypatch.setattr(invder.cli, "cmd_check", boom)
    assert run(capsys, "check", path(algebra_dir, "so3")) == (code, "", line)


def test_dimension_cap_applies_to_every_file_command(capsys, algebra_dir,
                                                     monkeypatch):
    monkeypatch.setenv("INVDER_MAX_DIM", "3")
    code, out, err = run(capsys, "derivations",
                         path(algebra_dir, "filiform_n4"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: algebra dimension 4 exceeds")


def test_dimension_cap_comes_before_any_parse_error(capsys, tmp_path,
                                                   monkeypatch):
    # the map is malformed too, but the file is refused for its dimension
    monkeypatch.setenv("INVDER_MAX_DIM", "6")
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "name": "big", "dimension": 7, "basis": [f"e{t}" for t in range(7)],
        "operations": {"m": {"table": []}}, "maps": {"bad": [["1"]]}}))
    assert run(capsys, "check", str(big)) == (
        2, "", "error: algebra dimension 7 exceeds the dimension cap 6 "
               "(INVDER_MAX_DIM)\n")


TWO_OPS = "error: operation name required: algebra has left, right\n"
NO_LEFT = "error: no operation named 'left' in algebra 'heisenberg3'\n"


# Algebra.select is the one rule for the operations a command reads, so
# a check and a construction refuse the same file in the same words
@pytest.mark.parametrize("argv, line", [
    (("transform", "commutator-lie", "d2"), TWO_OPS),
    (("check", "d2", "--axiom", "jacobi"), TWO_OPS),
    (("check", "heisenberg3", "--axiom", "dendriform_1"), NO_LEFT),
    (("verify-theorem", "thm-4-dendriform", "heisenberg3", "--map",
      "delta_w"), NO_LEFT),
    (("transform", "dendriform-to-assoc", "heisenberg3"), NO_LEFT),
], ids=["passage-two-ops", "check-two-ops", "check-no-pair",
        "statement-no-pair", "passage-no-pair"])
@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_one_fault_one_refusal(capsys, algebra_dir, argv, line, fmt):
    files = {e: path(algebra_dir, e) for e in ("d2", "heisenberg3")}
    assert run(capsys, *(files.get(a, a) for a in argv), *fmt) == (
        2, "", line)


@pytest.mark.parametrize("argv", [
    ("twist", "heisenberg3", "--map", "delta_w", "-o", ""),
    ("transform", "commutator-lie", "a3", "-o", ""),
    ("catalog", "--dump", ""),
], ids=["twist", "transform", "catalog"])
@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_empty_output_path_is_an_input_error(capsys, algebra_dir, tmp_path,
                                             monkeypatch, argv, fmt):
    monkeypatch.chdir(tmp_path)
    files = {"heisenberg3": path(algebra_dir, "heisenberg3"),
             "a3": path(algebra_dir, "a3")}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv), *fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry_id,argv", [
    ("heisenberg3", ("twist", "in.json", "--map", "delta_w")),
    ("a3", ("transform", "commutator-lie", "in.json")),
], ids=["twist", "transform"])
@pytest.mark.parametrize("spelling", ["in.json", "./in.json", "link.json",
                                      "abs"])
def test_output_naming_the_input_is_an_input_error(capsys, algebra_dir,
                                                   tmp_path, monkeypatch,
                                                   entry_id, argv, spelling):
    monkeypatch.chdir(tmp_path)
    with open(path(algebra_dir, entry_id), "rb") as fh:
        before = fh.read()
    (tmp_path / "in.json").write_bytes(before)
    (tmp_path / "link.json").symlink_to(tmp_path / "in.json")
    target = str(tmp_path / "in.json") if spelling == "abs" else spelling
    code, out, err = run(capsys, *argv, "-o", target)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert (tmp_path / "in.json").read_bytes() == before
    # a fresh path beside it is still written
    code, out, _ = run(capsys, *argv, "-o", "fresh.json")
    assert code == 0 and out.endswith("wrote fresh.json\n")
    assert load_algebra("fresh.json").algebra.name != \
        load_algebra("in.json").algebra.name


@pytest.mark.parametrize("argv", [
    ("catalog", "--entry", ""),
    ("catalog", "--entry", "", "--verify"),
    ("transform", "commutator-lie", "a3", "--map", ""),
    ("verify-theorem", "prop-3.5", "a3", "--map", ""),
    ("check", "a3_dendriform", "--op", ""),
    ("derivations", "a3", "--op", ""),
    ("invder", "heisenberg3", "--map", "delta_w", "--op", ""),
    ("invder-search", "heisenberg3", "--op", ""),
], ids=["catalog", "catalog-verify", "transform-map", "theorem-map",
        "check-op", "derivations-op", "invder-op", "search-op"])
@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_empty_option_value_is_an_input_error(capsys, algebra_dir, argv,
                                              fmt):
    files = {name: path(algebra_dir, name)
             for name in ("a3", "a3_dendriform", "heisenberg3")}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv), *fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


class TestInvderVerdict:
    def test_accepted_map(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "invder", path(algebra_dir, "heisenberg3"),
                           "--map", "delta_w")
        assert code == 0
        assert "accepted: yes" in out
        assert "square_condition: yes" in out

    def test_rejected_map(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "invder", path(algebra_dir, "heisenberg3"),
                           "--map", "diag112")
        assert code == 1
        assert "inverse_is_derivation: no" in out
        assert "square_condition: no" in out

    def test_json_verdict(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "invder", path(algebra_dir, "heisenberg3"),
                           "--map", "delta_w", "--json")
        assert code == 0
        assert json.loads(out)["accepted"] is True


class TestDerivations:
    def test_plain_listing(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "derivations", path(algebra_dir, "solvable2"))
        assert code == 0
        assert "dim 2" in out

    def test_json_listing(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "derivations", path(algebra_dir, "so3"),
                           "--json")
        assert code == 0
        assert json.loads(out)["dim"] == 3


class TestInvderSearch:
    def test_found(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "invder-search",
                           path(algebra_dir, "heisenberg3"))
        assert code == 0
        assert "found" in out

    def test_certificate(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "invder-search", path(algebra_dir, "so3"))
        assert code == 1
        assert "generic determinant vanishes" in out

    def test_not_found_within_the_samples(self, capsys, algebra_dir):
        assert run(capsys, "invder-search",
                   path(algebra_dir, "filiform_n4")) == (
            1, "not found within 400 samples (derivation space dim 7)\n", "")

    def test_json(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "invder-search", path(algebra_dir, "so3"),
                           "--json")
        assert code == 1
        assert json.loads(out)["found"] is None


class TestTwist:
    def test_twist_writes_a_loadable_verified_file(self, capsys, algebra_dir,
                                                   tmp_path):
        src = path(algebra_dir, "heisenberg3")
        with open(src, "rb") as fh:
            before = fh.read()
        out_file = str(tmp_path / "twisted.json")
        code, out, _ = run(capsys, "twist", src, "--map", "delta_w",
                           "-o", out_file)
        assert code == 0
        with open(src, "rb") as fh:
            assert fh.read() == before
        doc = load_algebra(out_file)
        assert doc.algebra.op().basis_product(0, 1) == {2: Q(2)}
        assert doc.map_names() == ("delta",)
        code, out, _ = run(capsys, "check", out_file)
        assert code == 0

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_failed_write_prints_no_report(self, capsys, algebra_dir,
                                           tmp_path, fmt):
        code, out, err = run(capsys, "twist", path(algebra_dir, "heisenberg3"),
                             "--map", "delta_w", "-o", str(tmp_path), *fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_rejected_map_suggests_force(self, capsys, algebra_dir):
        code, _, err = run(capsys, "twist", path(algebra_dir, "heisenberg3"),
                           "--map", "diag112")
        assert code == 2
        assert "--force" in err

    def test_force_twists_anyway(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "twist", path(algebra_dir, "heisenberg3"),
                           "--map", "diag112", "--force")
        assert code == 0

    def test_twist_json_payload(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "twist", path(algebra_dir, "heisenberg3"),
                           "--map", "delta_w", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["algebra"]["kind"] == "lie"


DENDRIFORM_OP = ("error: kind 'dendriform' reads the ops \"left\" and "
                 "\"right\" and takes no op name\n")


# each passage of one operation on the "right" half of d2: its exit code
# and its first line
RIGHT_OF_D2 = {
    "commutator-lie": (0, "built d2.lie (kind lie)"),
    "rb-prelie-from-lie": (2, "error: source is not a Lie bracket: "
                              "skew_symmetry fails at (0, 0)"),
    "rb-prelie-from-assoc": (2, "error: operator fails the weight zero "
                                "identity at (0, 0)"),
    "endo-lie-from-assoc": (2, "error: operator is not idempotent"),
    "zinbiel-to-assoc": (0, "built d2.assoc (kind associative)"),
    "zinbiel-to-lie": (0, "built d2.lie (kind lie)"),
}


class TestTransform:
    def test_commutator(self, capsys, algebra_dir, tmp_path):
        out_file = str(tmp_path / "comm.json")
        code, out, _ = run(capsys, "transform", "commutator-lie",
                           path(algebra_dir, "a3"), "-o", out_file)
        assert code == 0
        assert "kind lie" in out
        doc = load_algebra(out_file)
        assert doc.algebra.op().basis_product(0, 1) == {2: Q(2)}
        assert run(capsys, "check", out_file)[0] == 0

    def test_rb_prelie_from_lie(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "transform", "rb-prelie-from-lie",
                           path(algebra_dir, "heisenberg3"),
                           "--operator", "proj_center")
        assert code == 0

    def test_rb_prelie_from_assoc(self, capsys, algebra_dir):
        code, _, _ = run(capsys, "transform", "rb-prelie-from-assoc",
                         path(algebra_dir, "a3"), "--operator", "proj_z")
        assert code == 0

    def test_zinbiel_passages(self, capsys, algebra_dir):
        for name in ("zinbiel-to-assoc", "zinbiel-to-lie"):
            code, _, _ = run(capsys, "transform", name,
                             path(algebra_dir, "z3"))
            assert code == 0

    def test_dendriform_passages(self, capsys, algebra_dir):
        for name in ("dendriform-to-assoc", "dendriform-to-prelie"):
            code, _, _ = run(capsys, "transform", name,
                             path(algebra_dir, "d2"))
            assert code == 0

    def test_failed_precondition_is_usage_error(self, capsys, algebra_dir):
        code, _, err = run(capsys, "transform", "dendriform-to-zinbiel",
                           path(algebra_dir, "d2"))
        assert code == 2
        assert "error:" in err

    def test_missing_operator_is_usage_error(self, capsys, algebra_dir):
        code, _, err = run(capsys, "transform", "rb-prelie-from-lie",
                           path(algebra_dir, "heisenberg3"))
        assert code == 2

    def test_unknown_transform(self, capsys, algebra_dir):
        code = main(["transform", "no-such-passage",
                     path(algebra_dir, "a3")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("transform", "rb-prelie-from-assoc"),
        ("verify-theorem", "thm-3-rbo")])
    def test_weight_belongs_to_rota_baxter_only(self, capsys, algebra_dir,
                                                argv):
        code, out, err = run(capsys, *argv, path(algebra_dir, "a3"),
                             "--operator", "proj_z", "--weight=0")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --weight=0" in err

    @pytest.mark.parametrize("argv,entry_id,line", [
        (("transform", "rb-prelie-from-lie", "--operator", "ad_E12",
          "--force"), "m2", "error: rb-prelie-from-lie does not take --force\n"),
        (("verify-theorem", "prop-3.5", "--force"), "so3",
         "error: commutator-lie does not take --force\n"),
        (("verify-theorem", "thm-3-rbo", "--operator", "proj_z", "--force"),
         "a3", "error: the pre-Lie passage does not take --force\n"),
        (("transform", "commutator-lie", "--operator", "nope"), "a3",
         "error: commutator-lie does not take --operator\n"),
        (("transform", "dendriform-to-prelie", "--op", "nope"), "d2",
         "error: dendriform-to-prelie does not take --op\n"),
        # the statements that build no passage refuse what they do not read
        (("verify-theorem", "thm-2.1", "--map", "delta_w", "--operator",
          "nope"), "heisenberg3",
         "error: the twist statement does not take --operator\n"),
        (("verify-theorem", "prop-2.2", "--map", "delta_w", "--force"),
         "heisenberg3", "error: the identity does not take --force\n"),
        (("verify-theorem", "thm-yau", "--map", "delta_A", "--force",
          "--operator", "zzz"), "a3",
         "error: the equivalence does not take --operator\n"),
        (("verify-theorem", "prop-2.1", "--map", "delta_w", "--force"),
         "heisenberg3", "error: the equivalence does not take --force\n"),
        # a dendriform twist reads "left" and "right", never an op name
        # (the file goes after the first two words, so twist's --op first)
        (("twist", "--op=nope", "--map", "delta_A"), "a3_dendriform",
         DENDRIFORM_OP),
        (("verify-theorem", "thm-4-dendriform", "--map", "delta_A", "--op",
          "nope"), "a3_dendriform", DENDRIFORM_OP),
        (("verify-theorem", "cor-yau", "--map", "delta_A", "--op", "nope"),
         "a3_dendriform", DENDRIFORM_OP),
    ])
    def test_unread_option_is_refused(self, capsys, algebra_dir, argv,
                                      entry_id, line):
        code, out, err = run(capsys, *argv[:2], path(algebra_dir, entry_id),
                             *argv[2:])
        assert (code, out, err) == (2, "", line)

    # on the dendriform pair d2 a passage of one operation reads the one
    # --op names, and without --op it is refused
    @pytest.mark.parametrize("op", [(), ("--op", "right")],
                             ids=["no-op", "op-right"])
    @pytest.mark.parametrize("name", RIGHT_OF_D2)
    def test_single_op_passages_on_a_pair(self, capsys, algebra_dir, name,
                                          op):
        operator = ("--operator", "diag12") if "operator" in PASSAGES[name] \
            else ()
        code, out, err = run(capsys, "transform", name,
                             path(algebra_dir, "d2"), *operator, *op)
        assert not (out and err)
        assert (code, (out or err).splitlines()[0]) == (
            RIGHT_OF_D2[name] if op else (2, TWO_OPS.strip()))

    @pytest.mark.parametrize("name", PASSAGES)
    def test_every_passage_refuses_what_it_does_not_read(self, capsys,
                                                         algebra_dir, name):
        given = {"op": ("--op", "x"), "operator": ("--operator", "x"),
                 "force": ("--force",)}
        for option, argv in given.items():
            if option not in PASSAGES[name]:
                code, out, err = run(capsys, "transform", name,
                                     path(algebra_dir, "a3"), *argv)
                assert (code, out, err) == (
                    2, "", f"error: {name} does not take --{option}\n")


class TestRotaBaxter:
    def test_weight_zero_operator(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "rota-baxter",
                           path(algebra_dir, "heisenberg3"),
                           "--map", "proj_center")
        assert code == 0
        assert "weight 0:" in out

    def test_identity_fails_weight_zero(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "rota-baxter", path(algebra_dir, "a3"),
                           "--map", "identity")
        assert code == 1
        assert "fails at (0, 1)" in out

    def test_identity_holds_weight_minus_one(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "rota-baxter", path(algebra_dir, "a3"),
                           "--map", "identity", "--weight=-1")
        assert code == 0

    def test_bad_weight_string(self, capsys, algebra_dir):
        code, _, err = run(capsys, "rota-baxter", path(algebra_dir, "a3"),
                           "--map", "identity", "--weight=0.5")
        assert code == 2


class TestVerifyTheorem:
    @pytest.mark.parametrize("name,entry_id,map_name", [
        ("thm-2.1", "heisenberg3", "delta_w"),
        ("prop-2.1", "heisenberg3", "delta_w"),
        ("thm-2.2", "a3", "delta_A"),
        ("prop-2.3", "a3", "delta_A"),
        ("thm-3.4", "a3", "delta_A"),
        ("prop-3.4", "a3", "delta_A"),
        ("thm-4.2", "a3_zinbiel", "delta_A"),
        ("prop-4.3", "a3_zinbiel", "delta_A"),
        ("prop-4.4-4.5", "a3_zinbiel", "delta_A"),
        ("thm-4-dendriform", "a3_dendriform", "delta_A"),
        ("thm-yau", "a3", "delta_A"),
        ("cor-yau", "heisenberg3", "delta_w"),
    ])
    def test_verified_statements(self, capsys, algebra_dir, name, entry_id,
                                 map_name):
        code, out, _ = run(capsys, "verify-theorem", name,
                           path(algebra_dir, entry_id), "--map", map_name)
        assert code == 0
        assert f"theorem {name}: verified" in out

    def test_statements_without_maps(self, capsys, algebra_dir):
        for name, entry_id in [("prop-3.5", "a3"), ("thm-4-zinbiel-lie", "z3")]:
            code, out, _ = run(capsys, "verify-theorem", name,
                               path(algebra_dir, entry_id))
            assert code == 0, name

    def test_operator_statements(self, capsys, algebra_dir):
        code, _, _ = run(capsys, "verify-theorem", "thm-3-rbo",
                         path(algebra_dir, "a3"), "--operator", "proj_z")
        assert code == 0
        code, _, _ = run(capsys, "verify-theorem", "prop-3.6",
                         path(algebra_dir, "a3"), "--operator", "identity")
        assert code == 0

    @pytest.mark.parametrize("name,passage,entry_id,options", [
        ("prop-3.5", "commutator-lie", "a3", ()),
        ("prop-3.5", "commutator-lie", "heisenberg3", ("--map", "delta_w")),
        ("prop-3.6", "endo-lie-from-assoc", "a3",
         ("--operator", "identity", "--map", "delta_A")),
        ("thm-3-rbo", "rb-prelie-from-assoc", "a3", ("--operator", "proj_z")),
        ("thm-4-zinbiel-lie", "zinbiel-to-lie", "z3", ()),
        ("thm-4-zinbiel-lie", "zinbiel-to-lie", "a3_zinbiel",
         ("--map", "delta_A")),
        ("thm-4-zinbiel-lie", "zinbiel-to-lie", "a3", ("--force",)),
    ])
    def test_passage_statements_build_what_transform_builds(
            self, capsys, algebra_dir, name, passage, entry_id, options):
        file = path(algebra_dir, entry_id)
        code, out, _ = run(capsys, "verify-theorem", name, file, *options,
                           "--json")
        built_code, built, _ = run(capsys, "transform", passage, file,
                                   *options, "--json")
        assert code == built_code == 0
        assert json.loads(out)["construction"] == json.loads(built)

    @pytest.mark.parametrize("argv,entry_id,line", [
        (("transform", "rb-prelie-from-lie"), "heisenberg3",
         "error: rb-prelie-from-lie needs --operator naming a stored map "
         "(ad_e1, delta_w, diag112, proj_center, zero)\n"),
        (("verify-theorem", "prop-3.6"), "a3",
         "error: the endomorphism bracket needs --operator naming a stored "
         "map (delta_A, identity, proj_x, proj_z)\n"),
        (("verify-theorem", "thm-3-rbo"), "a3",
         "error: the pre-Lie passage needs --operator naming a stored map "
         "(delta_A, identity, proj_x, proj_z)\n"),
    ])
    def test_missing_operator_message(self, capsys, algebra_dir, argv,
                                      entry_id, line):
        code, out, err = run(capsys, *argv, path(algebra_dir, entry_id))
        assert (code, out, err) == (2, "", line)

    def test_refuted_statement_exits_one(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "verify-theorem", "prop-2.2",
                           path(algebra_dir, "so3"), "--map", "ad_e1")
        assert code == 1
        assert "theorem prop-2.2: refuted" in out

    def test_precondition_failure_exits_two(self, capsys, algebra_dir):
        code, _, err = run(capsys, "verify-theorem", "prop-2.1",
                           path(algebra_dir, "heisenberg3"),
                           "--map", "proj_center")
        assert code == 2
        code, _, err = run(capsys, "verify-theorem", "thm-2.1",
                           path(algebra_dir, "heisenberg3"),
                           "--map", "diag112")
        assert code == 2
        assert "--force" in err

    def test_equivalence_output_bytes(self, capsys, algebra_dir):
        # yau_iff_check leaves the twisted identities out; the bytes it
        # prints must not depend on them
        cases = [("thm-yau", "a3", "delta_A"),
                 ("thm-yau", "heisenberg3", "delta_w"),
                 ("cor-yau", "heisenberg3", "delta_w"),
                 ("cor-yau", "a3", "delta_A"),
                 ("cor-yau", "a3_zinbiel", "delta_A"),
                 ("cor-yau", "a3_dendriform", "delta_A"),
                 ("cor-yau", "heisenberg3", "diag112")]
        outputs = []
        for name, entry_id, map_name in cases:
            for fmt in ((), ("--json",)):
                code, out, _ = run(capsys, "verify-theorem", name,
                                   path(algebra_dir, entry_id),
                                   "--map", map_name, *fmt)
                outputs.append(f"{code}\n{out}")
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == ("383dfbe3baf84d478aac6ee80be96de2"
                          "99ec50e16ce442d3e7a237429260f319")

    def test_unknown_theorem(self, capsys, algebra_dir):
        code = main(["verify-theorem", "thm-9.9",
                     path(algebra_dir, "heisenberg3")])
        capsys.readouterr()
        assert code == 2

    def test_json_payload(self, capsys, algebra_dir):
        code, out, _ = run(capsys, "verify-theorem", "prop-2.1",
                           path(algebra_dir, "heisenberg3"),
                           "--map", "delta_w", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["theorem"] == "prop-2.1"
        assert data["verified"] is True


class TestSuiteAndSearch:
    def test_suite_summary(self, capsys):
        code, out, _ = run(capsys, "suite", "--samples", "3")
        assert code == 0
        assert "violations: 0" in out

    def test_suite_json_is_deterministic(self, capsys):
        code_a, out_a, _ = run(capsys, "suite", "--samples", "3", "--json")
        code_b, out_b, _ = run(capsys, "suite", "--samples", "3", "--json")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert json.loads(out_a)["ok"] is True

    def test_search_counterexample_bounds_line(self, capsys):
        code, out, _ = run(capsys, "search-counterexample", "--family",
                           "abelian", "--max-dim", "3", "--samples", "30")
        assert code == 0
        assert "no findings within bounds" in out

    def test_search_counterexample_json(self, capsys):
        code, out, _ = run(capsys, "search-counterexample", "--family",
                           "heisenberg_like", "--samples", "20", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["findings"] == []
        assert data["family"] == "heisenberg_like"

    def test_search_counterexample_bytes_with_findings(self, capsys):
        # a hunt with findings (238 candidates, 13 of them break Jacobi):
        # the text and the JSON bytes are pinned
        argv = ("search-counterexample", "--family",
                "random_nilpotent_tables", "--max-dim", "6",
                "--samples", "10", "--seed", "7")
        digests = []
        for fmt in ((), ("--json",)):
            code, out, _ = run(capsys, *argv, *fmt)
            assert code == 1
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests == [
            "e3fb38942b3daf151fff83d707b3f391178f46461f38406b7add076d3d101596",
            "1d993842f77e204a1b9fffa45c7968bd830ab4587075fd4b8f62ec25eef5a7e1"]

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "search-counterexample", "--family",
                           "diagonal")
        assert code == 2

    def test_dimension_cap_enforced(self, capsys, monkeypatch):
        monkeypatch.setenv("INVDER_MAX_DIM", "3")
        code, _, err = run(capsys, "search-counterexample", "--family",
                           "abelian", "--max-dim", "4")
        assert code == 2


class TestCatalog:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert len(out.strip().splitlines()) == 18
        assert "so3: dim 3, kind lie" in out

    def test_single_entry_verify(self, capsys):
        code, out, _ = run(capsys, "catalog", "--entry", "so3", "--verify")
        assert code == 0
        assert "mismatches" in out

    def test_dump_writes_loadable_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "--dump", str(tmp_path))
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(files) == 18
        doc = load_algebra(str(tmp_path / "heisenberg3.json"))
        assert doc.algebra.kind_hint == "lie"

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "catalog", "--entry", "missing")
        assert code == 2

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    def test_dump_with_verify_is_refused(self, capsys, tmp_path, fmt):
        # a dump verifies nothing, so the pair must not exit 0
        target = tmp_path / "out"
        code, out, err = run(capsys, "catalog", "--dump", str(target),
                             "--verify", *fmt)
        assert (code, out) == (2, "")
        assert err == ("error: --dump writes the entries and verifies "
                       "nothing; run --verify on its own\n")
        assert not target.exists()


class TestSubprocess:
    def test_module_entry_point(self, algebra_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "invder", "check",
             path(algebra_dir, "heisenberg3")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "jacobi: holds" in proc.stdout

    def test_exit_codes_through_the_real_process(self, algebra_dir):
        refuted = subprocess.run(
            [sys.executable, "-m", "invder", "check",
             path(algebra_dir, "so3"), "--axiom", "invder-lie",
             "--map", "ad_e1"], capture_output=True, text=True)
        assert refuted.returncode == 1
        usage = subprocess.run(
            [sys.executable, "-m", "invder", "check", "/missing.json"],
            capture_output=True, text=True)
        assert usage.returncode == 2
        assert usage.stderr.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("check", "heisenberg3.json"), ("suite", "--samples", "3"),
        ("catalog", "--verify"), ("no-such-command",), ("--help",),
        ("transform", "--help")])
    def test_closed_output_exits_two(self, algebra_dir, argv):
        # stdout and stderr on one pipe whose read end is closed before
        # the command starts, with stdout buffered and unbuffered; the
        # last three are a usage error and help, which argparse writes
        argv = [str(algebra_dir / a) if a.endswith(".json") else a
                for a in argv]
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "invder", *argv],
                    stdout=write_end, stderr=write_end, env={**env, **extra})
            finally:
                os.close(write_end)
            assert proc.returncode == 2, extra


# the shape of every subcommand of build_parser(), in order: its help, and
# each argument's positional name or option strings, nargs, required,
# default, choices, type name and help.  Unlike the --help bytes, whose
# layout is argparse's, this does not depend on the Python version.
FILE = ("file", None, True, None, None, None, "algebra file (JSON)")
JSON = ("--json", 0, False, False, None, None,
        "emit a JSON report instead of plain text")


def one_of(choices):
    return "one of: " + ", ".join(choices)


def seeded(samples):
    return [("--seed", None, False, 0, None, "int", "random seed"),
            ("--samples", None, False, samples, None, "int",
             "sampling budget")]


RANGE = ("--range", None, False, 3, None, "int",
         "coefficient range for sampled combinations")
PASSAGE_NAMES = (
    "commutator-lie", "rb-prelie-from-lie", "rb-prelie-from-assoc",
    "endo-lie-from-assoc", "zinbiel-to-assoc", "zinbiel-to-lie",
    "dendriform-to-zinbiel", "dendriform-to-assoc", "dendriform-to-prelie")
STATEMENTS = (
    "thm-2.1", "thm-2.2", "prop-2.1", "prop-2.2", "prop-2.3", "thm-3.4",
    "prop-3.4", "prop-3.5", "prop-3.6", "thm-3-rbo", "thm-4.2", "prop-4.3",
    "prop-4.4-4.5", "thm-4-zinbiel-lie", "thm-4-dendriform", "thm-yau",
    "cor-yau")
FAMILY_NAMES = ("abelian", "heisenberg_like", "filiform", "solvable",
                "random_nilpotent_tables")


def option(names, help_, required=False):
    return (names, None, required, None, None, None, help_)


def flag(names, help_):
    return (names, 0, False, False, None, None, help_)


PARSER_SHAPE = [
    ("check", "run axiom checks against an algebra file", [
        FILE, JSON,
        option("--op", "operation name (single-op algebras may omit it)"),
        option("--axiom", "axiom identifier or bundle name (default: the "
                          "file's kind bundle)"),
        option("--map", "stored map for the identities that take one")]),
    ("derivations", "compute the derivation space", [
        FILE, JSON, option("--op", "restrict to one operation")]),
    ("invder", "report the four verdict flags for a stored map", [
        FILE, JSON, option("--map", "stored map to test", required=True),
        option("--op", "restrict to one operation")]),
    ("invder-search", "search the derivation space for an accepted map", [
        FILE, JSON, option("--op", "restrict to one operation"),
        *seeded(400), RANGE]),
    ("twist", "twist the product by a stored map and verify", [
        FILE, JSON, option("--map", "stored map to twist by", required=True),
        option("--op", "operation name for multi-op files"),
        flag("--force", "twist even when the map is not accepted"),
        option("-o --output", "write the twisted algebra to FILE")]),
    ("transform", "apply a passage between structure kinds", [
        JSON,
        ("name", None, True, None, PASSAGE_NAMES, None,
         one_of(PASSAGE_NAMES)),
        FILE, option("--op", "operation name for multi-op files"),
        option("--map", "carried map, verified on the result"),
        option("--operator", "stored map used as the Rota-Baxter operator "
                             "or endomorphism"),
        flag("--force", "skip the source axiom gate (zinbiel and "
                        "dendriform passages)"),
        option("-o --output", "write the constructed algebra to FILE")]),
    ("rota-baxter", "check the Rota-Baxter identity for a stored map", [
        FILE, JSON, option("--map", "stored map to test", required=True),
        option("--op", "operation name for multi-op files"),
        ("--weight", None, False, "0", None, None,
         "weight as a rational (default 0)")]),
    ("verify-theorem", "verify one named statement on a concrete instance", [
        JSON,
        ("name", None, True, None, STATEMENTS, None, one_of(STATEMENTS)),
        FILE, option("--op", "operation name for multi-op files"),
        option("--map", "stored map the statement quantifies over"),
        option("--operator", "stored map used as the operator"),
        flag("--force", "run the construction even when a gate fails")]),
    ("suite", "run the randomized property suite over the catalog", [
        JSON, *seeded(100)]),
    ("search-counterexample", "hunt for twists that break Jacobi when the "
                              "inverse is not a derivation", [
        JSON,
        ("--family", None, True, None, FAMILY_NAMES, None,
         one_of(FAMILY_NAMES)),
        ("--max-dim", None, False, 4, None, "int",
         "largest dimension to generate"),
        *seeded(200), RANGE,
        ("--tables-per-dim", None, False, 10, None, "int",
         "random tables kept per dimension")]),
    ("catalog", "list, dump, or re-verify the built-in examples", [
        JSON, option("--entry", "restrict to one entry id"),
        option("--dump", "write each entry to DIR as an algebra file"),
        flag("--verify", "re-derive and compare every recorded fact")]),
]


def test_parser_shape_is_pinned():
    parser = build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    shape = [
        (name, helps[name], [
            (" ".join(a.option_strings) or a.dest, a.nargs, a.required,
             a.default, None if a.choices is None else tuple(a.choices),
             a.type and a.type.__name__, a.help)
            for a in sp._actions if not isinstance(a, argparse._HelpAction)])
        for name, sp in sub.choices.items()]
    assert shape == PARSER_SHAPE
