"""One benchmark workload, run in a fresh interpreter.

    PYTHONPATH=src python3 bench/workloads.py --workload search --seed 1 \
        --seconds 25 --trace 0

`run.py` starts this script once per run; call that instead.  The script
imports invder, builds the workload's inputs from the seed, runs a fixed
reference set as the untimed warm-up, then runs whole passes over the
inputs until the time is used up.  A pass is a fixed list of calls, so its
wall time is a measure of fixed work; its report bytes are hashed and must
be the same on every pass.  The last line of stdout is one JSON object with
the timings (or, with --trace 1, the per-layer metrics), the report hashes
and the failure counts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

_T0 = time.perf_counter()
import invder  # noqa: E402  (the import is part of the timed set-up)
from invder import Algebra, BilinearOp, LinearMap  # noqa: E402
from invder.linalg import Matrix  # noqa: E402
IMPORT_S = time.perf_counter() - _T0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(BENCH_DIR, ".work")
SETUP_REPEATS = 7
MIN_PASSES = 3

# Sizes per workload: the full run, then the toy size of the self-check.
# A full pass takes a few seconds, so a run times every call several times.
# The hunt stops at dim 5: the cost of one dim-6 random table varies so
# much with the seed that it would dominate the run-to-run spread.
SIZES = {
    "search": ({"calls": 24, "max_dim": 5, "tables_per_dim": 1,
                "samples": 8},
               {"calls": 2, "max_dim": 4, "tables_per_dim": 1, "samples": 5}),
    "suite": ({"calls": 10, "samples": 1}, {"calls": 1, "samples": 1}),
    "derive": ({"samples": 4, "only": None},
               {"samples": 2, "only": ("T3", "so3@P", "a3_dendriform@P")}),
    "cli": ({"samples": 20, "commands": None},
            {"samples": 2, "commands": 4}),
}


class Call:
    """One timed operation.

    `fn(*args)` is the timed work.  `check(result)` runs afterwards, untimed
    and untraced, and returns (report bytes, ok, exit code or None); `ok` is
    the workload's own correctness check on the result.
    """

    def __init__(self, label: str, fn, args: tuple, check):
        self.label = label
        self.fn = fn
        self.args = args
        self.check = check


def _sub_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


# ------------------------------------------------------------------ search
# The open question hunt: sample derivation spaces of random nilpotent Lie
# tables (dims 3-5), force-twist by the invertible non-InvDer draws and scan
# Jacobi.  Time goes to the per-candidate loop; poly is never touched.


def _search(config):
    return invder.counterexample_search(config)


def _search_check(report):
    ok = sum(r["twisted_candidates"] for r in report.rows) \
        == report.candidates_found
    return report.to_json().encode(), ok, None


def _search_call(label: str, seed: int, size: dict) -> Call:
    config = invder.SearchConfig(
        "random_nilpotent_tables", max_dim=size["max_dim"],
        max_samples=size["samples"], seed=seed,
        tables_per_dim=size["tables_per_dim"])
    return Call(label, _search, (config,), _search_check)


def search_calls(seed: int, size: dict) -> tuple[list[Call], list[Call]]:
    calls = [_search_call(f"search[{_sub_seed(seed, i)}]", _sub_seed(seed, i),
                          size)
             for i in range(size["calls"])]
    reference = [_search_call("search[ref]", 0, {
        "max_dim": 5, "samples": 12, "tables_per_dim": 1})]
    return calls, reference


# ------------------------------------------------------------------- suite
# The catalog's randomized property suite: the same is_invder/twist code as
# the search, but on accepted maps, so the time goes to the derived-identity
# triple scans, yau_iff_check and mul_sparse.


def _suite(seed: int, samples: int):
    return invder.run_property_suite(seed=seed, samples=samples)


def _suite_check(report):
    return report.to_json().encode(), report.ok, None


def suite_calls(seed: int, size: dict) -> tuple[list[Call], list[Call]]:
    calls = [Call(f"suite[{_sub_seed(seed, i)}]", _suite,
                  (_sub_seed(seed, i), size["samples"]), _suite_check)
             for i in range(size["calls"])]
    return calls, [Call("suite[ref]", _suite, (0, 1), _suite_check)]


# ------------------------------------------------------------------ derive
# Per algebra: derivation space, generic determinant, coordinates of a known
# derivation, and a short invder_search.  Classical algebras in their sparse
# matrix-unit basis (dims 6, 9 and 10) give large Leibniz systems for rref;
# small catalog and family algebras moved to a seeded unimodular basis have
# dense tables, which is what makes poly.det_poly expensive.  Not in
# BENCHMARK.json: its timings were not steady enough (see README.md).


def matrix_algebra(name: str, n: int, keep, lie: bool) -> Algebra:
    """Span of the matrix units E_ij with keep(i, j), under the associative
    product or the commutator bracket."""
    units = [(i, j) for i in range(n) for j in range(n) if keep(i, j)]
    index = {u: t for t, u in enumerate(units)}
    table = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            out: dict[int, int] = {}
            if j == k:
                out[index[(i, l)]] = 1
            if lie and l == i:
                t = index[(k, j)]
                out[t] = out.get(t, 0) - 1
            out = {t: c for t, c in out.items() if c}
            if out:
                table[(a, b)] = out
    op = "bracket" if lie else "product"
    return Algebra.build(name, [f"E{i + 1}{j + 1}" for i, j in units],
                         {op: BilinearOp.from_dict(len(units), table)},
                         "lie" if lie else "associative")


def classical_algebras() -> list[Algebra]:
    full = lambda i, j: True  # noqa: E731
    upper = lambda i, j: i <= j  # noqa: E731
    strict = lambda i, j: i < j  # noqa: E731
    return [matrix_algebra("M3", 3, full, False),
            matrix_algebra("T3", 3, upper, False),
            matrix_algebra("n4", 4, strict, True),
            matrix_algebra("n5", 5, strict, True),
            matrix_algebra("b3", 3, upper, True)]


def family_algebra(family: str, dim: int) -> Algebra:
    """The dim-dimensional member of one of the search's Lie families."""
    catalog = importlib.import_module("invder.catalog")
    algebras, _ = catalog._family_algebras(
        invder.SearchConfig(family, max_dim=dim))
    return algebras[-1]


def unimodular(rng: random.Random, n: int) -> Matrix:
    """L times U, unit triangular factors with signs off the diagonal.

    No off-diagonal entry is zero, so every seed gives a dense basis and
    the cost of an input does not hinge on how many zeros were drawn.
    """
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower).matmul(Matrix.from_rows(upper))


def transport(alg: Algebra, p: Matrix, p_inv: Matrix) -> Algebra:
    """The same algebra in the basis given by the columns of p."""
    n = alg.dim
    ops = {}
    for name, op in alg.ops:
        table = {}
        for a in range(n):
            for b in range(n):
                acc: dict[int, object] = {}
                for i in range(n):
                    pia = p.entry(i, a)
                    if not pia:
                        continue
                    for j in range(n):
                        pjb = p.entry(j, b)
                        if not pjb:
                            continue
                        for k, c in op.entry(i, j):
                            acc[k] = acc.get(k, 0) + pia * pjb * c
                out = {}
                for r in range(n):
                    v = sum(p_inv.entry(r, k) * c for k, c in acc.items())
                    if v:
                        out[r] = v
                if out:
                    table[(a, b)] = out
        ops[name] = BilinearOp.from_dict(n, table)
    return alg.with_ops(f"{alg.name}@P", ops, alg.kind_hint)


def _inner_derivation(alg: Algebra, rng: random.Random) -> LinearMap:
    """y -> x y - y x for a seeded x: a derivation of any associative or
    Lie table."""
    op = alg.op()
    x = {i: c for i in range(alg.dim) if (c := rng.randint(-2, 2))}
    cols = []
    for j in range(alg.dim):
        col = dict(op.mul_sparse(x, {j: 1}))
        for k, c in op.mul_sparse({j: 1}, x).items():
            col[k] = col.get(k, 0) - c
        cols.append([col.get(i, 0) for i in range(alg.dim)])
    return LinearMap.from_columns(cols)


def _derive(alg: Algebra, known: LinearMap, samples: int, search_seed: int):
    space = invder.derivation_space(alg)
    det = invder.generic_determinant(space)
    coords = space.coordinates_of(known)
    found = invder.invder_search(alg, max_samples=samples, seed=search_seed)
    return alg, known, space, det, coords, found


def _derive_check(expected_dim, vanishes, result):
    alg, known, space, det, coords, found = result
    # the space comes from an rref solve; each basis element is checked
    # again by evaluating the Leibniz rule directly
    ok = (coords is not None and space.combination(coords.entries) == known
          and all(invder.leibniz_witness(op, b) is None
                  for b in space.basis for _, op in alg.ops)
          and not (det.is_zero() and known.is_invertible()))
    if expected_dim is not None:
        ok = ok and space.dim == expected_dim and det.is_zero() == vanishes
    report = {"algebra": alg.name, "space": space.to_dict(),
              "generic_determinant_terms": len(det.terms),
              "coordinates": ([str(c) for c in coords.entries]
                              if coords is not None else None),
              "search": found.to_dict()}
    return (json.dumps(report, sort_keys=True) + "\n").encode(), ok, None


def _derive_inputs(seed: int, samples: int, only) -> list[Call]:
    rng = random.Random(f"derive:{seed}")
    todo = []
    for alg in classical_algebras():
        todo.append((alg, _inner_derivation(alg, rng), None, None))
    canonical = [invder.entry(e).algebra
                 for e in ("so3", "heisenberg3", "filiform_n4", "a3", "m2",
                           "z3", "a3_dendriform")]
    families = [family_algebra(f, 5)
                for f in ("heisenberg_like", "filiform", "solvable")]
    for alg in canonical + families:
        space = invder.derivation_space(alg)
        vanishes = space.dim == 0 or \
            invder.generic_determinant(space).is_zero()
        coeffs = [rng.randint(-2, 2) for _ in range(space.dim)]
        p = unimodular(rng, alg.dim)
        p_inv = p.invert()
        known = LinearMap(
            p_inv.matmul(space.combination(coeffs).matrix).matmul(p))
        todo.append((transport(alg, p, p_inv), known, space.dim, vanishes))
    return [Call(alg.name, _derive, (alg, known, samples, _sub_seed(seed, i)),
                 functools.partial(_derive_check, dim, vanishes))
            for i, (alg, known, dim, vanishes) in enumerate(todo)
            if only is None or alg.name in only]


def derive_calls(seed: int, size: dict) -> tuple[list[Call], list[Call]]:
    calls = _derive_inputs(seed, size["samples"], size["only"])
    reference = _derive_inputs(0, 2, ("T3", "so3@P", "a3_dendriform@P"))
    return calls, reference


# --------------------------------------------------------------------- cli
# Sequential `python -m invder` subprocesses over files from `catalog
# --dump` plus seeded transported files.  Start-up, JSON load and save and
# formatting dominate; the maths is small.  Every expected exit code below
# follows from the mathematics and holds for every seed.

CLI_COMMANDS = [
    # (label, argv without the --json flag, expected exit code)
    ("check", ["check", "files/heisenberg3.json"], 0),
    ("invder", ["invder", "files/heisenberg3.json", "--map", "delta_w"], 0),
    ("invder-rejected", ["invder", "files/heisenberg3.json",
                         "--map", "diag112"], 1),
    ("derivations", ["derivations", "files/filiform_n4.json"], 0),
    ("invder-search-cert", ["invder-search", "files/so3.json",
                            "--seed", "{seed}", "--samples", "{samples}"], 1),
    ("invder-search-found", ["invder-search", "files/abelian_4.json",
                             "--seed", "{seed}", "--samples", "{samples}"],
     0),
    ("twist", ["twist", "files/heisenberg3.json", "--map", "delta_w",
               "-o", "out/twist{json}.json"], 0),
    ("transform", ["transform", "commutator-lie", "files/a3.json",
                   "--map", "delta_A", "-o", "out/transform{json}.json"], 0),
    ("rota-baxter", ["rota-baxter", "files/heisenberg3.json",
                     "--map", "proj_center"], 0),
    ("verify-theorem", ["verify-theorem", "thm-2.1", "files/heisenberg3.json",
                        "--map", "delta_w"], 0),
    ("seeded-check", ["check", "files/seeded_filiform_6.json"], 0),
    ("seeded-derivations", ["derivations",
                            "files/seeded_heisenberg_like_6.json"], 0),
    ("seeded-invder", ["invder", "files/seeded_heisenberg3.json",
                       "--map", "delta_w"], 0),
    ("seeded-twist", ["twist", "files/seeded_a3.json", "--map", "delta_A",
                      "-o", "out/seeded_twist{json}.json"], 0),
    ("seeded-verify-theorem", ["verify-theorem", "thm-2.2",
                               "files/seeded_a3.json", "--map", "delta_A"],
     0),
]

# fixed commands on catalog files only, the same for every seed
CLI_REFERENCE = [
    ("ref-invder-search+json", ["invder-search", "files/abelian_4.json",
                                "--seed", "0", "--samples", "4", "--json"], 0),
    ("ref-twist+json", ["twist", "files/heisenberg3.json", "--map",
                        "delta_w", "-o", "out/ref_twist.json", "--json"], 0),
]


def _write_seeded_files(rng: random.Random, files: str) -> None:
    docs = [invder.AlgebraDocument.build(family_algebra(f, 6))
            for f in ("filiform", "heisenberg_like")]
    docs += [invder.entry("heisenberg3").document, invder.entry("a3").document]
    for doc in docs:
        alg = doc.algebra
        p = unimodular(rng, alg.dim)
        p_inv = p.invert()
        maps = {name: LinearMap(p_inv.matmul(m.matrix).matmul(p))
                for name, m in doc.maps}
        moved = invder.AlgebraDocument.build(transport(alg, p, p_inv), maps)
        invder.save_algebra(moved,
                            os.path.join(files, f"seeded_{alg.name}.json"))


def _cli_check(argv, expected: int, result):
    code, stdout = result
    blob = [f"$ invder {' '.join(argv)}\nexit {code}\n".encode(), stdout]
    out = argv[argv.index("-o") + 1] if "-o" in argv else None
    if out is not None and os.path.exists(out):
        with open(out, "rb") as fh:
            blob.append(fh.read())
        os.remove(out)
    return b"".join(blob), code == expected, code


def _cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "invder", *argv],
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout


def _cli_in_process(argv):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = importlib.import_module("invder.cli").main(list(argv))
    return code, buf.getvalue().encode()


def cli_argvs(seed: int, size: dict) -> list[tuple[str, list, int]]:
    out = []
    for label, argv, expected in CLI_COMMANDS:
        # the seeded files differ in size, not in format, from the catalog's
        for json_flag in ("",) if label.startswith("seeded") \
                else ("", "--json"):
            filled = [a.format(seed=_sub_seed(seed, 0),
                               samples=size["samples"],
                               json="-json" if json_flag else "")
                      for a in argv]
            if json_flag:
                filled.append(json_flag)
            out.append((label + json_flag.replace("--", "+"), filled,
                        expected))
    return out


def cli_calls(seed: int, size: dict, in_process: bool = False
              ) -> tuple[list[Call], list[Call]]:
    """Commands on files under the working directory, which must be the
    run's scratch directory.  The reference commands always run as
    subprocesses; the first of them is the untimed warm-up that compiles
    bytecode, so that cost lands in set-up."""
    os.makedirs("out", exist_ok=True)
    subprocess.run([sys.executable, "-m", "invder", "catalog", "--dump",
                    "files"], check=True, stdout=subprocess.DEVNULL)
    _write_seeded_files(random.Random(f"cli:{seed}"), "files")
    run = _cli_in_process if in_process else _cli_subprocess
    calls = [Call(label, run, (argv,),
                  functools.partial(_cli_check, argv, expected))
             for label, argv, expected in
             cli_argvs(seed, size)[:size["commands"]]]
    reference = [Call(label, _cli_subprocess, (argv,),
                      functools.partial(_cli_check, argv, expected))
                 for label, argv, expected in CLI_REFERENCE]
    return calls, reference


WORKLOADS = {"search": search_calls, "suite": suite_calls,
             "derive": derive_calls, "cli": cli_calls}


# ------------------------------------------------------------------ timing


def run_pass(calls: list[Call], pause=contextlib.nullcontext) -> dict:
    """Run every call once; collect times, the report digest and failures.

    Only `fn` is timed; the checks run inside `pause()`, which in a traced
    run stops recording, so they add neither time nor spans.
    """
    digest = hashlib.sha256()
    times, codes = [], []
    failed = 0
    start = time.perf_counter()
    for call in calls:
        t = time.perf_counter()
        try:
            result = call.fn(*call.args)
            times.append(time.perf_counter() - t)
            with pause():
                report, ok, code = call.check(result)
        except Exception as exc:  # a crash is a failed operation, not an abort
            print(f"error: {call.label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            if len(times) == len(codes):
                times.append(time.perf_counter() - t)
            report, ok, code = b"", False, None
        digest.update(call.label.encode() + b"\n" + report)
        codes.append(code)
        if not ok:
            print(f"error: {call.label}: check failed", file=sys.stderr)
            failed += 1
    return {"wall_s": time.perf_counter() - start, "call_s": times,
            "sha256": digest.hexdigest(), "exit_codes": codes,
            "failed": failed}


def percentile_support(n: int) -> str:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    for q, name in ((0.99, "p99"), (0.90, "p90"), (0.50, "p50")):
        if n * (1 - q) >= 10:
            return name
    return "none"


def measure(calls: list[Call], seconds: float,
            tracer=None) -> tuple[list, list]:
    """At least MIN_PASSES whole passes, then more until the next one would
    overrun `seconds`."""
    passes, layers = [], []
    pause = contextlib.nullcontext if tracer is None else tracer.paused
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(calls, pause))
        if tracer is not None:
            layers.append(tracer.totals())
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes, layers


def layer_metrics(layers: list[dict], startup_ms: float) -> dict:
    """Per-layer metrics: counts from the first pass, seconds the median."""
    first = layers[0]
    calls, counts = first["calls"], first["counts"]

    def self_s(name):
        return statistics.median(t["self_s"][name] for t in layers)

    def ratio(num, den):
        return counts.get(num, 0) / calls[den] if calls[den] else 0.0

    values = {
        "linalg.rref.calls": calls["linalg.Matrix.rref"],
        "linalg.rref.cells": counts.get("linalg.Matrix.rref.cells", 0),
        "linalg.rref.self_s": self_s("linalg.Matrix.rref"),
        "linalg.det.calls": calls["linalg.Matrix.det"],
        "linalg.det.self_s": self_s("linalg.Matrix.det"),
        "linalg.invert.self_s": self_s("linalg.Matrix.invert"),
        "linalg.matmul.self_s": self_s("linalg.Matrix.matmul"),
        "poly.det_poly.calls": calls["poly.det_poly"],
        "poly.det_poly.terms": counts.get("poly.det_poly.terms", 0),
        "poly.det_poly.self_s": self_s("poly.det_poly"),
        "model.mul_sparse.calls": calls["model.BilinearOp.mul_sparse"],
        "model.mul_sparse.self_s": self_s("model.BilinearOp.mul_sparse"),
        "model.load_algebra.self_s": self_s("model.load_algebra"),
        "model.save_algebra.self_s": self_s("model.save_algebra"),
        "axioms.leibniz_witness.calls": calls["axioms.leibniz_witness"],
        "axioms.leibniz_witness.self_s": self_s("axioms.leibniz_witness"),
        "axioms.leibniz_witness.witness_ratio": ratio(
            "axioms.leibniz_witness.witnesses", "axioms.leibniz_witness"),
        "axioms.invder_identity_axioms.self_s": self_s(
            "axioms.invder_identity_axioms"),
        "axioms.kind_axioms.self_s": self_s("axioms.kind_axioms"),
        "derivations.is_invder.calls": calls["derivations.is_invder"],
        "derivations.is_invder.self_s": self_s("derivations.is_invder"),
        "derivations.is_invder.accept_ratio": ratio(
            "derivations.is_invder.accepted", "derivations.is_invder"),
        "derivations.combination.calls": calls[
            "derivations.DerivationSpace.combination"],
        "derivations.combination.self_s": self_s(
            "derivations.DerivationSpace.combination"),
        "derivations.derivation_space.calls": calls[
            "derivations.derivation_space"],
        "derivations.derivation_space.self_s": self_s(
            "derivations.derivation_space"),
        "derivations.generic_determinant.self_s": self_s(
            "derivations.generic_determinant"),
        "derivations.invder_search.samples_tried": counts.get(
            "derivations.invder_search.samples_tried", 0),
        "constructions.twist.calls": calls["constructions.twist"],
        "constructions.twist.self_s": self_s("constructions.twist"),
        "constructions.yau_iff_check.self_s": self_s(
            "constructions.yau_iff_check"),
        "catalog.counterexample_search.self_s": self_s(
            "catalog.counterexample_search"),
        "catalog.run_property_suite.self_s": self_s(
            "catalog.run_property_suite"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.startup_ms": startup_ms,
    }
    return values


def import_seconds() -> float:
    """Import time of invder in another fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import invder; "
             "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    size = SIZES[args.workload][1 if args.toy else 0]
    work_dir = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.chdir(work_dir)
    try:
        setup_times, ref_passes = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            calls, reference = WORKLOADS[args.workload](args.seed, size)
            ref_passes.append(run_pass(reference))
            setup_times.append(time.perf_counter() - t)
        import_times = [IMPORT_S] + [import_seconds()
                                     for _ in range(SETUP_REPEATS - 1)]
        result = {"setup_s": statistics.median(import_times)
                  + statistics.median(setup_times),
                  "import_s": import_times, "build_s": setup_times,
                  "size": size}
        if args.trace:
            result.update(traced(args, size, calls))
        else:
            passes, _ = measure(calls, args.seconds)
            result.update(summarise(passes))
    finally:
        os.chdir(BENCH_DIR)
        shutil.rmtree(work_dir, ignore_errors=True)
    reference = summarise(ref_passes)
    result["reference_sha256"] = reference["sha256"]
    result["attempted"] += reference["attempted"]
    result["failed"] += reference["failed"]
    result["deterministic"] = (result["deterministic"]
                               and reference["deterministic"])
    print(json.dumps(result, sort_keys=True))
    return 0


def summarise(passes: list[dict]) -> dict:
    """Medians over the passes of the run; see README.md for why."""
    med_s = [statistics.median(times)
             for times in zip(*(p["call_s"] for p in passes))]
    call_ms = sorted(t * 1000 for t in med_s)
    hashes = {p["sha256"] for p in passes}
    codes = {tuple(p["exit_codes"]) for p in passes}
    return {
        "wall_s": statistics.median(sum(p["call_s"]) for p in passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "call_p50_ms": statistics.median(call_ms),
        "call_ms": call_ms,
        "percentile_support": percentile_support(len(call_ms)),
        "attempted": sum(len(p["call_s"]) for p in passes),
        # a pass whose report differs from the first counts wholly failed
        "failed": sum(p["failed"] if p["sha256"] == passes[0]["sha256"]
                      else len(p["call_s"]) for p in passes),
        "sha256": passes[0]["sha256"],
        "deterministic": len(hashes) == 1 and len(codes) == 1,
        "exit_codes": list(passes[0]["exit_codes"]),
    }


def traced(args, size: dict, calls: list[Call]) -> dict:
    from spans import Tracer

    startup_ms = 0.0
    mismatched = 0
    if args.workload == "cli":
        # same commands in-process: the difference is interpreter start-up
        # and import, which every real invocation pays
        in_process, _ = cli_calls(args.seed, size, in_process=True)
        sub = run_pass(calls)
        local = run_pass(in_process)
        startup_ms = 1000 * statistics.median(
            a - b for a, b in zip(sub["call_s"], local["call_s"]))
        if sub["sha256"] != local["sha256"]:
            print("error: in-process and subprocess reports differ",
                  file=sys.stderr)
            mismatched = len(in_process)
        calls = in_process
    tracer = Tracer()
    tracer.install()
    try:
        passes, layers = measure(calls, args.seconds, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    tracer.write_spans(os.path.join(
        BENCH_DIR, "out", f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    same_counts = all(t["calls"] == layers[0]["calls"]
                      and t["counts"] == layers[0]["counts"] for t in layers)
    out = summarise(passes)
    out["deterministic"] = out["deterministic"] and same_counts
    out["failed"] += mismatched
    out["layers"] = layer_metrics(layers, startup_ms)
    return out


if __name__ == "__main__":
    sys.exit(main())
