"""Command line front end.

Every invocation runs exactly one command and exits with 0 when all
requested checks passed or an object was produced, 1 when a requested
mathematical check failed (a verdict, not an error), 2 on bad input,
bad usage, a failed construction precondition or an output that cannot
be written (a closed pipe included), and 3 when the program
itself failed unexpectedly (a bug, never a verdict).  Every algebra file
is held to the INVDER_MAX_DIM dimension cap.  Results go to stdout,
diagnostics to stderr.  With identical arguments, input files and seeds
the output bytes are identical; no command ever modifies its input file.

A command's handler writes no output: it returns its exit code, its JSON
payload and its text lines, and main renders one of the two through
_render, the one writer of stdout.  Only a check with a refused row
renders its partial result itself, before it raises.

Each command imports the modules it runs when it runs, so start-up loads
no mathematics that the command does not use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (InputError, InvderError, NotInvDerError,
                     PreconditionError, SingularMatrixError)
from .model import (FAMILIES, Algebra, AlgebraDocument, LinearMap,
                    load_algebra, max_dimension, save_algebra)
from .rational import parse_rational

# the annotations, never evaluated, also name CheckReport and
# ConstructionResult, which a command imports when it runs

# each passage, named as its construction with "-" for "_", and the options
# it reads, in the order the construction takes them ("map" is the carried
# map); a passage refuses --op, --operator or --force when it does not
# read it
PASSAGES = {
    "commutator-lie": ("op", "map"),
    "rb-prelie-from-lie": ("operator", "op", "map"),
    "rb-prelie-from-assoc": ("operator", "op", "map"),
    "endo-lie-from-assoc": ("operator", "op", "map"),
    "zinbiel-to-assoc": ("op", "map", "force"),
    "zinbiel-to-lie": ("op", "map", "force"),
    "dendriform-to-zinbiel": ("map", "force"),
    "dendriform-to-assoc": ("map", "force"),
    "dendriform-to-prelie": ("map", "force"),
}

# what every handler returns: exit code, JSON payload, text lines
Result = tuple[int, dict, list[str]]


def _render(args, payload: dict, lines: list[str]) -> None:
    """Write a command's result to stdout: the payload under --json, one
    line per element otherwise."""
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.json
                     else "".join(f"{line}\n" for line in lines))


def _fmt_combination(coeffs, basis_names) -> str:
    terms = []
    for c, label in zip(coeffs, basis_names):
        if not c:
            continue
        if c == 1:
            terms.append(f"+ {label}")
        elif c == -1:
            terms.append(f"- {label}")
        elif c < 0:
            terms.append(f"- {-c}*{label}")
        else:
            terms.append(f"+ {c}*{label}")
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


def _map_lines(m: LinearMap, alg: Algebra) -> list[str]:
    lines = []
    for j, label in enumerate(alg.basis_names):
        col = [m.matrix.entry(i, j) for i in range(alg.dim)]
        lines.append(f"  {label} -> {_fmt_combination(col, alg.basis_names)}")
    return lines


def _report_lines(reports: list[CheckReport]) -> list[str]:
    lines = []
    for rep in reports:
        if rep.holds:
            lines.append(f"{rep.axiom}: holds")
        elif rep.witness is None:
            lines.append(f"{rep.axiom}: fails")
        else:
            w = rep.witness
            lines += [
                f"{rep.axiom}: fails at ({', '.join(map(str, w.indices))})",
                f"  lhs = ({', '.join(map(str, w.lhs.entries))})",
                f"  rhs = ({', '.join(map(str, w.rhs.entries))})"]
    return lines


def _load(args) -> AlgebraDocument:
    """The command's algebra file, refused above the dimension cap."""
    doc = load_algebra(args.file)
    cap = max_dimension()
    if doc.algebra.dim > cap:
        raise InputError(
            f"algebra dimension {doc.algebra.dim} exceeds the dimension cap "
            f"{cap} (INVDER_MAX_DIM)")
    return doc


def _single_op(args) -> list[str] | None:
    return None if args.op is None else [args.op]


def _optional_map(doc: AlgebraDocument, args) -> LinearMap | None:
    return None if args.map is None else doc.map(args.map)


def _required_map(doc: AlgebraDocument, args, why: str,
                  option: str = "map") -> LinearMap:
    """The stored map named by --map, or by the option given."""
    name = getattr(args, option)
    if not name:
        stored = ", ".join(doc.map_names()) or "none stored"
        raise InputError(
            f"{why} needs --{option} naming a stored map ({stored})")
    return doc.map(name)


# options naming a stored object or a path; an empty value is bad input,
# never the same as leaving the option out
NAMED_OPTIONS = (("op", "--op", "name"), ("map", "--map", "name"),
                 ("operator", "--operator", "name"), ("entry", "--entry", "id"),
                 ("output", "-o/--output", "path"), ("dump", "--dump", "path"))


def _reject_empty(args) -> None:
    for attr, flag, what in NAMED_OPTIONS:
        if getattr(args, attr, None) == "":
            raise InputError(f"{flag} needs a non-empty {what}")


def _construction_output(res: ConstructionResult, args, what: str) -> Result:
    """A built algebra's result, headed "what name (kind k)"."""
    # the file is written before main renders, so a failed write prints no
    # report
    lines = [f"{what} {res.algebra.name} (kind {res.algebra.kind_hint})",
             *_report_lines(res.verification),
             *(f"note: {note}" for note in res.notes)]
    if args.output is not None:
        if os.path.exists(args.output) and os.path.samefile(args.output,
                                                            args.file):
            raise InputError(f"-o {args.output} names the input file")
        save_algebra(res.to_document(), args.output)
        lines.append(f"wrote {args.output}")
    return 0 if res.ok else 1, res.to_dict(), lines


# ---------------------------------------------------------------- commands


def cmd_check(args) -> Result:
    from .axioms import AXIOM_IDS, BUNDLES, DELTA_AXIOMS, run_axiom

    doc = _load(args)
    alg = doc.algebra
    if args.axiom is None:
        if alg.kind_hint is None:
            raise InputError(
                "no --axiom given and the algebra file declares no kind")
        axioms = BUNDLES[alg.kind_hint]
    elif args.axiom in BUNDLES:
        axioms = BUNDLES[args.axiom]
    elif args.axiom in AXIOM_IDS:
        axioms = (args.axiom,)
    else:
        known = ", ".join(list(BUNDLES) + list(AXIOM_IDS))
        raise InputError(f"unknown axiom {args.axiom!r}; known: {known}")
    delta = _optional_map(doc, args)
    # a row refused as bad input (no map, a map that is not a derivation)
    # does not cost the verdicts of the rows that could run
    reports = []
    refused = None
    for axiom in axioms:
        try:
            if axiom in DELTA_AXIOMS and delta is None:
                raise InputError(
                    f"axiom {axiom!r} needs --map naming a stored map")
            reports.append(run_axiom(alg, axiom, args.op, delta))
        except InputError as exc:
            refused = refused or exc
    ok = refused is None and all(r.holds for r in reports)
    payload = {"algebra": alg.name,
               "axioms": [r.to_dict() for r in reports], "ok": ok}
    if refused is None:
        return 0 if ok else 1, payload, _report_lines(reports)
    if reports:
        payload["error"] = str(refused)
        _render(args, payload, _report_lines(reports))
    raise refused


def cmd_derivations(args) -> Result:
    from .derivations import derivation_space

    alg = _load(args).algebra
    space = derivation_space(alg, _single_op(args))
    lines = [f"derivation space of {alg.name} "
             f"(ops: {', '.join(space.op_names)}): dim {space.dim}"]
    for t, b in enumerate(space.basis):
        lines += [f"basis {t}:", *_map_lines(b, alg)]
    return 0, {"algebra": alg.name, **space.to_dict()}, lines


def cmd_invder(args) -> Result:
    from .derivations import is_invder

    doc = _load(args)
    delta = _required_map(doc, args, "the verdict")
    verdict = is_invder(delta, doc.algebra, _single_op(args)).to_dict()
    lines = [f"{key}: {'yes' if value else 'no'}"
             for key, value in verdict.items()]
    return (0 if verdict["accepted"] else 1,
            {"algebra": doc.algebra.name, "map": args.map, **verdict}, lines)


def cmd_invder_search(args) -> Result:
    from .derivations import invder_search

    alg = _load(args).algebra
    result = invder_search(alg, _single_op(args),
                           coefficient_range=args.range,
                           max_samples=args.samples, seed=args.seed)
    payload = {"algebra": alg.name, **result.to_dict()}
    if result.found is not None:
        return 0, payload, [
            f"found after {result.samples_tried} samples "
            f"(derivation space dim {result.space_dim}):",
            *_map_lines(result.found, alg)]
    if result.certificate is not None:
        line = (f"not found: {result.certificate} "
                "(no invertible derivation exists)")
    else:
        line = (f"not found within {result.samples_tried} samples "
                f"(derivation space dim {result.space_dim})")
    return 1, payload, [line]


def _twist(doc: AlgebraDocument, args, kind: str | None, why: str
           ) -> ConstructionResult:
    from .constructions import twist

    delta = _required_map(doc, args, why)
    try:
        return twist(doc.algebra, delta, kind, args.op, args.force)
    except NotInvDerError as exc:
        raise NotInvDerError(f"{exc}; rerun with --force to twist anyway")


def cmd_twist(args) -> Result:
    res = _twist(_load(args), args, None, "the twist")
    return _construction_output(res, args, "twisted algebra")


def _refuse_unread(args, reads, why: str) -> None:
    """Refuse any of --op, --operator and --force that reads leaves out;
    why names the command in the refusal."""
    for option in ("op", "operator", "force"):
        if option not in reads and getattr(args, option):
            raise InputError(f"{why} does not take --{option}")


def _passage(name: str, doc: AlgebraDocument, args,
             why: str) -> ConstructionResult:
    """Build one of the PASSAGES; why names it in a refusal."""
    from . import constructions

    reads = PASSAGES[name]
    _refuse_unread(args, reads, why)
    given = {"op": args.op, "map": _optional_map(doc, args),
             "force": args.force}
    if "operator" in reads:
        given["operator"] = _required_map(doc, args, why, "operator")
    build = getattr(constructions, name.replace("-", "_"))
    return build(doc.algebra, *(given[option] for option in reads))


def cmd_transform(args) -> Result:
    res = _passage(args.name, _load(args), args, args.name)
    return _construction_output(res, args, "built")


def cmd_rota_baxter(args) -> Result:
    from .constructions import is_rota_baxter

    doc = _load(args)
    operator = _required_map(doc, args, "the identity")
    weight = parse_rational(args.weight)
    rep = is_rota_baxter(operator, doc.algebra, args.op, weight)
    payload = {"algebra": doc.algebra.name, "map": args.map,
               "weight": str(weight), "report": rep.to_dict()}
    return (0 if rep.holds else 1, payload,
            [f"weight {weight}:", *_report_lines([rep])])


def _theorem_twist(kind: str):
    def run(doc: AlgebraDocument, args):
        _refuse_unread(args, ("op", "force"), "the twist statement")
        res = _twist(doc, args, kind, "the twist statement")
        return res.ok, {"construction": res.to_dict()}, res.verification
    return run


def _theorem_axioms(*axioms: str):
    def run(doc: AlgebraDocument, args):
        from .axioms import run_axiom

        _refuse_unread(args, ("op",), "the identity")
        delta = _required_map(doc, args, "the identity")
        reports = [run_axiom(doc.algebra, axiom, args.op, delta)
                   for axiom in axioms]
        ok = all(r.holds for r in reports)
        return ok, {"reports": [r.to_dict() for r in reports]}, reports
    return run


def _theorem_prop21(doc: AlgebraDocument, args):
    from .axioms import CheckReport
    from .derivations import is_invder

    _refuse_unread(args, ("op",), "the equivalence")
    delta = _required_map(doc, args, "the equivalence")
    verdict = is_invder(delta, doc.algebra, _single_op(args))
    if not (verdict.is_derivation and verdict.is_invertible):
        raise PreconditionError(
            "the equivalence quantifies over invertible derivations and the "
            f"map is not one: {verdict.to_dict()}")
    ok = verdict.inverse_is_derivation == verdict.square_condition
    reports = [CheckReport("inverse_is_derivation",
                           verdict.inverse_is_derivation),
               CheckReport("square_condition", verdict.square_condition),
               CheckReport("routes_agree", ok)]
    return ok, {"verdict": verdict.to_dict()}, reports


def _theorem_yau(kind: str | None):
    def run(doc: AlgebraDocument, args):
        from .axioms import CheckReport
        from .constructions import yau_iff_check

        _refuse_unread(args, ("op",), "the equivalence")
        delta = _required_map(doc, args, "the equivalence")
        verdict = yau_iff_check(doc.algebra, delta, kind, args.op)
        ok = verdict.forward == verdict.backward
        reports = [CheckReport("forward", verdict.forward),
                   CheckReport("backward", verdict.backward),
                   CheckReport("directions_agree", ok)]
        return ok, {"verdict": verdict.to_dict()}, reports
    return run


def _theorem_passage(name: str, why: str | None = None):
    """A statement checked by building the passage transform builds."""
    def run(doc: AlgebraDocument, args):
        res = _passage(name, doc, args, why or name)
        return res.ok, {"construction": res.to_dict()}, res.verification
    return run


THEOREMS = {
    "thm-2.1": _theorem_twist("lie"),
    "thm-2.2": _theorem_twist("prelie"),
    "prop-2.1": _theorem_prop21,
    "prop-2.2": _theorem_axioms("identity_25"),
    "prop-2.3": _theorem_axioms("invder_prelie"),
    "thm-3.4": _theorem_twist("associative"),
    "prop-3.4": _theorem_axioms("invder_assoc"),
    "prop-3.5": _theorem_passage("commutator-lie"),
    "prop-3.6": _theorem_passage("endo-lie-from-assoc",
                                 "the endomorphism bracket"),
    "thm-3-rbo": _theorem_passage("rb-prelie-from-assoc",
                                  "the pre-Lie passage"),
    "thm-4.2": _theorem_twist("zinbiel"),
    "prop-4.3": _theorem_axioms("invder_zinbiel"),
    "prop-4.4-4.5": _theorem_axioms("zinbiel_aux_44", "zinbiel_aux_45"),
    "thm-4-zinbiel-lie": _theorem_passage("zinbiel-to-lie"),
    "thm-4-dendriform": _theorem_twist("dendriform"),
    "thm-yau": _theorem_yau("associative"),
    "cor-yau": _theorem_yau(None),
}

THEOREM_NAMES = tuple(THEOREMS)


def cmd_verify_theorem(args) -> Result:
    ok, payload, reports = THEOREMS[args.name](_load(args), args)
    lines = [*_report_lines(reports),
             f"theorem {args.name}: {'verified' if ok else 'refuted'}"]
    return (0 if ok else 1,
            {"theorem": args.name, "verified": ok, **payload}, lines)


def cmd_suite(args) -> Result:
    from .catalog import run_property_suite

    report = run_property_suite(seed=args.seed, samples=args.samples)
    total = sum(slot["instances"] for slot in report.checks.values())
    lines = [f"suite seed={report.seed} samples={report.samples}",
             f"entries: {report.entries}",
             f"accepted (algebra, map) pairs: {report.accepted_pairs}",
             f"route agreement instances: {report.prop21_instances}",
             f"check instances: {total} across {len(report.checks)} checks",
             f"violations: {len(report.violations)}"]
    lines += [f"  {row['entry']} {row['delta']} {row['check']} "
              f"at {row['indices']}" for row in report.violations]
    return 0 if report.ok else 1, report.to_dict(), lines


def cmd_search_counterexample(args) -> Result:
    from .catalog import SearchConfig, counterexample_search

    config = SearchConfig(family=args.family, max_dim=args.max_dim,
                          coefficient_range=args.range,
                          max_samples=args.samples, seed=args.seed,
                          tables_per_dim=args.tables_per_dim)
    report = counterexample_search(config)
    lines = [f"family {config.family}: examined {report.algebras_examined} "
             f"algebras, {report.candidates_found} twist candidates"]
    lines += [f"  {row['algebra']} dim {row['dim']} "
              f"derivations {row['derivation_dim']} "
              f"candidates {row['twisted_candidates']}" for row in report.rows]
    if report.findings:
        lines.append(f"findings: {len(report.findings)}")
        lines += [f"  {f['algebra']}: twisted {f['check']} fails at "
                  f"({', '.join(map(str, f['witness']['indices']))})"
                  for f in report.findings]
    else:
        lines.append(
            "no findings within bounds "
            f"(max_dim {config.max_dim}, range {config.coefficient_range}, "
            f"samples {config.max_samples}, seed {config.seed})")
    return 0 if report.ok else 1, report.to_dict(), lines


def cmd_catalog(args) -> Result:
    from .catalog import catalog, entry, verify_entry

    entries = list(catalog()) if args.entry is None else [entry(args.entry)]
    if args.dump is not None:
        os.makedirs(args.dump, exist_ok=True)
        written = []
        for e in entries:
            path = os.path.join(args.dump, f"{e.id}.json")
            save_algebra(e.document, path)
            written.append(path)
        return 0, {"written": written}, [f"wrote {p}" for p in written]
    if args.verify:
        all_rows = {e.id: verify_entry(e) for e in entries}
        ok = all(row["ok"] for rows in all_rows.values() for row in rows)
        lines = []
        for entry_id, rows in all_rows.items():
            bad = [row for row in rows if not row["ok"]]
            lines.append(f"{entry_id}: {len(rows)} facts, "
                         f"{len(bad)} mismatches")
            lines += [f"  {row['fact']}: expected {row['expected']}, "
                      f"derived {row['derived']}" for row in bad]
        return 0 if ok else 1, {"ok": ok, "entries": all_rows}, lines
    payload = {"entries": [
        {"id": e.id, "dim": e.algebra.dim, "kind": e.algebra.kind_hint,
         "ops": list(e.algebra.op_names()),
         "maps": list(e.document.map_names())} for e in entries]}
    lines = [f"{e.id}: dim {e.algebra.dim}, "
             f"kind {e.algebra.kind_hint or 'untagged'}, "
             f"maps {', '.join(e.document.map_names()) or 'none'}"
             for e in entries]
    return 0, payload, lines


# ------------------------------------------------------------------ parser


def _add_command(sub, name: str, handler, help_: str, *, file: bool = True):
    sp = sub.add_parser(name, help=help_, description=help_)
    if file:
        sp.add_argument("file", help="algebra file (JSON)")
    sp.add_argument("--json", action="store_true",
                    help="emit a JSON report instead of plain text")
    sp.set_defaults(handler=handler)
    return sp


def _seeded(sp, samples_default: int) -> None:
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--samples", type=int, default=samples_default,
                    help="sampling budget")


class _Parser(argparse.ArgumentParser):
    """argparse, except that help stdout cannot take exits 2: argparse
    itself drops the write error and exits 0.  The subcommand parsers are
    of the same class."""

    def print_help(self, file=None) -> None:
        try:
            (file or sys.stdout).write(self.format_help())
        except OSError:
            self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invder",
        description="Exact verification of algebras twisted by invertible "
                    "derivations whose inverses are derivations.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    sp = _add_command(sub, "check", cmd_check,
                      "run axiom checks against an algebra file")
    sp.add_argument("--op", help="operation name (single-op algebras "
                                 "may omit it)")
    sp.add_argument("--axiom", help="axiom identifier or bundle name "
                                    "(default: the file's kind bundle)")
    sp.add_argument("--map", help="stored map for the identities that "
                                  "take one")

    sp = _add_command(sub, "derivations", cmd_derivations,
                      "compute the derivation space")
    sp.add_argument("--op", help="restrict to one operation")

    sp = _add_command(sub, "invder", cmd_invder,
                      "report the four verdict flags for a stored map")
    sp.add_argument("--map", required=True, help="stored map to test")
    sp.add_argument("--op", help="restrict to one operation")

    sp = _add_command(sub, "invder-search", cmd_invder_search,
                      "search the derivation space for an accepted map")
    sp.add_argument("--op", help="restrict to one operation")
    _seeded(sp, 400)
    sp.add_argument("--range", type=int, default=3,
                    help="coefficient range for sampled combinations")

    sp = _add_command(sub, "twist", cmd_twist,
                      "twist the product by a stored map and verify")
    sp.add_argument("--map", required=True, help="stored map to twist by")
    sp.add_argument("--op", help="operation name for multi-op files")
    sp.add_argument("--force", action="store_true",
                    help="twist even when the map is not accepted")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write the twisted algebra to FILE")

    sp = _add_command(sub, "transform", cmd_transform,
                      "apply a passage between structure kinds", file=False)
    sp.add_argument("name", choices=PASSAGES, metavar="name",
                    help="one of: " + ", ".join(PASSAGES))
    sp.add_argument("file", help="algebra file (JSON)")
    sp.add_argument("--op", help="operation name for multi-op files")
    sp.add_argument("--map", help="carried map, verified on the result")
    sp.add_argument("--operator", help="stored map used as the Rota-Baxter "
                                       "operator or endomorphism")
    sp.add_argument("--force", action="store_true",
                    help="skip the source axiom gate (zinbiel and "
                         "dendriform passages)")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write the constructed algebra to FILE")

    sp = _add_command(sub, "rota-baxter", cmd_rota_baxter,
                      "check the Rota-Baxter identity for a stored map")
    sp.add_argument("--map", required=True, help="stored map to test")
    sp.add_argument("--op", help="operation name for multi-op files")
    sp.add_argument("--weight", default="0",
                    help="weight as a rational (default 0)")

    sp = _add_command(sub, "verify-theorem", cmd_verify_theorem,
                      "verify one named statement on a concrete instance",
                      file=False)
    sp.add_argument("name", choices=THEOREM_NAMES, metavar="name",
                    help="one of: " + ", ".join(THEOREM_NAMES))
    sp.add_argument("file", help="algebra file (JSON)")
    sp.add_argument("--op", help="operation name for multi-op files")
    sp.add_argument("--map", help="stored map the statement quantifies over")
    sp.add_argument("--operator", help="stored map used as the operator")
    sp.add_argument("--force", action="store_true",
                    help="run the construction even when a gate fails")

    sp = _add_command(sub, "suite", cmd_suite,
                      "run the randomized property suite over the catalog",
                      file=False)
    _seeded(sp, 100)

    sp = _add_command(sub, "search-counterexample", cmd_search_counterexample,
                      "hunt for twists that break Jacobi when the inverse "
                      "is not a derivation", file=False)
    sp.add_argument("--family", required=True, choices=FAMILIES,
                    metavar="family", help="one of: " + ", ".join(FAMILIES))
    sp.add_argument("--max-dim", type=int, default=4,
                    help="largest dimension to generate")
    _seeded(sp, 200)
    sp.add_argument("--range", type=int, default=3,
                    help="coefficient range for sampled combinations")
    sp.add_argument("--tables-per-dim", type=int, default=10,
                    help="random tables kept per dimension")

    sp = _add_command(sub, "catalog", cmd_catalog,
                      "list, dump, or re-verify the built-in examples",
                      file=False)
    sp.add_argument("--entry", help="restrict to one entry id")
    sp.add_argument("--dump", metavar="DIR",
                    help="write each entry to DIR as an algebra file")
    sp.add_argument("--verify", action="store_true",
                    help="re-derive and compare every recorded fact")

    return parser


def _settle(stream, text: str = "") -> bool:
    """Write text to stream and flush it; whether the stream took it.  A
    stream that cannot take it, a closed pipe, is pointed at os.devnull
    instead, so that the interpreter's own flush at exit cannot fail and
    turn the exit code into 120."""
    try:
        stream.write(text)
        stream.flush()
        return True
    except OSError:
        try:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), stream.fileno())
        except OSError:  # no descriptor, as under a capturing harness
            pass
        return False


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has written its usage error or help and chosen the code;
        # help still buffered that stdout does not take is an output error
        took = _settle(sys.stdout)
        _settle(sys.stderr)
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code == 0 and not took else code
    try:
        _reject_empty(args)
        code, payload, lines = args.handler(args)
        _render(args, payload, lines)
        # a closed stdout fails here, while the exit code can still say so
        sys.stdout.flush()
        return code
    except (InputError, SingularMatrixError, PreconditionError) as exc:
        code, line = 2, f"error: {exc}"
    except InvderError as exc:
        # an internal cross-check refuted itself: a verdict, not bad input
        code, line = 1, f"refuted: {exc}"
    except OSError as exc:
        code, line = 2, f"error: {exc}"
    except Exception as exc:  # a defect here, which must not read as "false"
        message = " ".join(str(exc).split())
        code, line = 3, f"internal error: {type(exc).__name__}: {message}"
    _settle(sys.stdout)
    _settle(sys.stderr, line + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
