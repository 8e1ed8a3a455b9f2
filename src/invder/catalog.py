"""Built-in example algebras, the randomized property suite, and searches.

Each catalog entry stores an algebra document, the maps studied with it,
and a frozen dictionary of facts (derivation space dimension, structure
kinds, verdict flags, search outcome) that verify_entry re-derives from
scratch with the engine.  The suite and the counterexample search both
draw their randomness from seeds threaded through string-keyed Random
instances, so identical inputs always reproduce identical reports.

Each entry's id is its algebra's name.  Every Lie table, of the catalog
and of the hunt's families, is built by _lie on e1...en from its pairs
i < j alone; these and the other skew tables are completed by
skew_completion, as the loader completes a table flagged skew.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable

from .axioms import (identity_report, invder_identity_axioms, kind_axioms,
                     kinds_satisfied, run_axiom)
from .constructions import is_rota_baxter, twist_by, yau_from_twist
from .derivations import (VANISHING_DET, derivation_space, invder_search,
                          is_invder)
from .errors import InputError, InvderError
from .linalg import Value, _set
from .model import (FAMILIES, SINGLE_KINDS, Algebra, AlgebraDocument,
                    BilinearOp, LinearMap, max_dimension, skew_completion)
from .rational import Q

SEARCH_SEED = 0
SEARCH_RANGE = 3
SEARCH_SAMPLES = 400

class CatalogEntry(Value):
    __slots__ = ("id", "document", "expected", "invder_family")
    _fields = __slots__

    def __init__(self, id: str, document: AlgebraDocument, expected: dict,
                 invder_family: Callable[[random.Random], LinearMap]
                 | None = None) -> None:
        _set(self, "id", id)
        _set(self, "document", document)
        _set(self, "expected", expected)
        _set(self, "invder_family", invder_family)

    @property
    def algebra(self) -> Algebra:
        return self.document.algebra


def _op(dim: int, table: dict) -> BilinearOp:
    return BilinearOp.from_dict(dim, table)


def _skew(dim: int, pairs: dict) -> BilinearOp:
    """The skew operation whose pairs i < j are listed, the others
    completed as the loader completes a skew table."""
    return _op(dim, skew_completion(pairs))


def _lie(name: str, dim: int, pairs: dict) -> Algebra:
    """The Lie algebra on e1...en whose bracket lists the pairs i < j."""
    return Algebra.build(name, [f"e{t + 1}" for t in range(dim)],
                         {"bracket": _skew(dim, pairs)}, "lie")


def _invertible_family(dim: int):
    def sample(rng: random.Random) -> LinearMap:
        while True:
            m = LinearMap.from_columns([[rng.randint(-3, 3) for _ in range(dim)]
                                        for _ in range(dim)])
            if m.is_invertible():
                return m
    return sample


def _block_family(rng: random.Random) -> LinearMap:
    """Accepted maps for the dim 3 product-onto-last-basis-vector entries.

    The two by two corner B acts on the productive plane and the last basis
    vector scales by trace of B; acceptance needs det B = (trace B)^2, which
    is solved for one corner entry instead of sampled.
    """
    while True:
        a, d = rng.randint(-3, 3), rng.randint(-3, 3)
        if a + d:
            break
    b = rng.choice([1, 2, 3, -1, -2, -3])
    c = Q(a * d - (a + d) ** 2, b)
    x, y = rng.randint(-3, 3), rng.randint(-3, 3)
    return LinearMap.from_columns([[a, c, x], [b, d, y], [0, 0, a + d]])


def _entries() -> list[CatalogEntry]:
    out: list[CatalogEntry] = []

    def add(alg: Algebra, maps: dict | None, expected: dict,
            found: bool, certificate: str | None = None,
            family: Callable[[random.Random], LinearMap] | None = None
            ) -> None:
        expected["search"] = {"found": found, "certificate": certificate}
        out.append(CatalogEntry(alg.name, AlgebraDocument.build(alg, maps),
                                expected, family))

    def delta() -> LinearMap:
        # the accepted map of the dim 3 entries whose product e1 e2 is e3,
        # one object per entry, as a map caches its inverse
        return LinearMap.from_columns([[1, 3, 0], [-1, 1, 0], [0, 0, 2]])

    for dim in range(1, 5):
        add(_lie(f"abelian_{dim}", dim, {}), None,
            {"derivation_dim": dim * dim, "kinds": SINGLE_KINDS}, True,
            family=_invertible_family(dim))

    add(_lie("so3", 3, {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (0, 2): [(1, -1)]}),
        {"ad_e1": LinearMap.from_columns([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
         "ad_e2": LinearMap.from_columns([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
         "ad_e3": LinearMap.from_columns([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])},
        {"derivation_dim": 3, "kinds": ["lie"],
         "maps": {"ad_e1": {"is_derivation": True, "is_invertible": False,
                            "accepted": False},
                  "ad_e2": {"is_derivation": True, "is_invertible": False},
                  "ad_e3": {"is_derivation": True, "is_invertible": False}}},
        False, VANISHING_DET)

    add(_lie("heisenberg3", 3, {(0, 1): [(2, 1)]}),
        {"delta_w": delta(),
         "diag112": LinearMap.diagonal([1, 1, 2]),
         "ad_e1": LinearMap.from_columns([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
         "proj_center": LinearMap.diagonal([0, 0, 1]),
         "zero": LinearMap.zero(3)},
        {"derivation_dim": 6, "kinds": SINGLE_KINDS,
         "maps": {"delta_w": {"accepted": True, "square_condition": True},
                  "diag112": {"is_derivation": True, "is_invertible": True,
                              "inverse_is_derivation": False,
                              "square_condition": False, "accepted": False},
                  "ad_e1": {"is_derivation": True, "is_invertible": False},
                  "proj_center": {"is_derivation": False},
                  "zero": {"is_derivation": True, "is_invertible": False}},
         "rota_baxter": {"proj_center": True, "zero": True}},
        True, family=_block_family)

    add(_lie("filiform_n4", 4, {(0, 1): [(2, 1)], (0, 2): [(3, 1)]}),
        {"grading": LinearMap.diagonal([1, 1, 2, 3])},
        {"derivation_dim": 7, "kinds": ["lie"],
         "maps": {"grading": {"is_derivation": True, "is_invertible": True,
                              "inverse_is_derivation": False,
                              "square_condition": False, "accepted": False}}},
        False)

    add(_lie("solvable2", 2, {(0, 1): [(1, 1)]}), None,
        {"derivation_dim": 2, "kinds": ["lie"]}, False, VANISHING_DET)

    add(Algebra.build("a3", ["x", "y", "z"],
                      {"star": _skew(3, {(0, 1): [(2, 1)]})}, "prelie"),
        {"delta_A": delta(),
         "identity": LinearMap.identity(3),
         "proj_x": LinearMap.diagonal([1, 0, 0]),
         "proj_z": LinearMap.diagonal([0, 0, 1])},
        {"derivation_dim": 6, "kinds": SINGLE_KINDS,
         "maps": {"delta_A": {"accepted": True},
                  "identity": {"is_derivation": False},
                  "proj_x": {"is_derivation": False},
                  "proj_z": {"is_derivation": False}},
         "rota_baxter": {"proj_z": True}},
        True, family=_block_family)

    add(Algebra.build("m2", ["E11", "E12", "E21", "E22"],
                      {"product": _op(4, {
                          (0, 0): {0: 1}, (0, 1): {1: 1},
                          (1, 2): {0: 1}, (1, 3): {1: 1},
                          (2, 0): {2: 1}, (2, 1): {3: 1},
                          (3, 2): {2: 1}, (3, 3): {3: 1}})}, "associative"),
        {"ad_E12": LinearMap.from_columns(
            [[0, -1, 0, 0], [0, 0, 0, 0], [1, 0, 0, -1], [0, 1, 0, 0]])},
        {"derivation_dim": 3, "kinds": ["prelie", "associative"],
         "maps": {"ad_E12": {"is_derivation": True, "is_invertible": False,
                             "accepted": False}}},
        False, VANISHING_DET)

    add(Algebra.build("z3", ["u", "v", "w"], {"diamond": _op(3, {
            (0, 0): {1: 1}, (0, 1): {2: 1}, (1, 0): {2: Q(1, 2)}})},
                      "zinbiel"),
        {"grading123": LinearMap.diagonal([1, 2, 3])},
        {"derivation_dim": 3, "kinds": ["prelie", "zinbiel"],
         "maps": {"grading123": {"is_derivation": True, "is_invertible": True,
                                 "inverse_is_derivation": False,
                                 "square_condition": False,
                                 "accepted": False}}},
        False)

    add(Algebra.build("d2", ["u", "v"], {
            "left": _op(2, {}), "right": _op(2, {(0, 0): {1: 1}})},
                      "dendriform"),
        {"diag12": LinearMap.diagonal([1, 2])},
        {"derivation_dim": 2, "dendriform": True,
         "maps": {"diag12": {"is_derivation": True, "is_invertible": True,
                             "inverse_is_derivation": False,
                             "square_condition": False, "accepted": False}}},
        False)

    for kind, op_names in (("prelie", ["star"]), ("associative", ["product"]),
                           ("zinbiel", ["diamond"]),
                           ("dendriform", ["left", "right"])):
        facts = ({"dendriform": True} if kind == "dendriform"
                 else {"kinds": SINGLE_KINDS})
        add(Algebra.build(f"zero_{kind}", ["u", "v"],
                          {name: _op(2, {}) for name in op_names}, kind),
            None, {"derivation_dim": 4, **facts}, True,
            family=_invertible_family(2))

    add(Algebra.build("a3_zinbiel", ["u", "v", "w"],
                      {"diamond": _skew(3, {(0, 1): [(2, 1)]})}, "zinbiel"),
        {"delta_A": delta()},
        {"derivation_dim": 6, "kinds": SINGLE_KINDS,
         "maps": {"delta_A": {"accepted": True}}},
        True, family=_block_family)

    add(Algebra.build("a3_dendriform", ["u", "v", "w"], {
            "left": _op(3, {}), "right": _skew(3, {(0, 1): [(2, 1)]})},
                      "dendriform"),
        {"delta_A": delta()},
        {"derivation_dim": 6, "dendriform": True,
         "maps": {"delta_A": {"accepted": True}}},
        True, family=_block_family)

    return out


_CATALOG: tuple[CatalogEntry, ...] | None = None


def catalog() -> tuple[CatalogEntry, ...]:
    """The catalog entries, built once and shared by every call, so their
    operations and maps keep what they cache for the life of the process."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = tuple(_entries())
    return _CATALOG


def entry(entry_id: str) -> CatalogEntry:
    for e in catalog():
        if e.id == entry_id:
            return e
    raise InputError(f"no catalog entry named {entry_id!r}")


def verify_entry(e: CatalogEntry) -> list[dict]:
    """Re-derive every expected fact of one entry with the engine."""
    alg = e.algebra
    rows: list[dict] = []

    def row(fact: str, expected, derived) -> None:
        rows.append({"fact": fact, "expected": expected, "derived": derived,
                     "ok": expected == derived})

    exp = e.expected
    if "derivation_dim" in exp:
        row("derivation_dim", exp["derivation_dim"], derivation_space(alg).dim)
    if "kinds" in exp:
        row("kinds", list(exp["kinds"]), list(kinds_satisfied(alg)))
    if "dendriform" in exp:
        row("dendriform", exp["dendriform"],
            all(r.holds for r in kind_axioms(alg, "dendriform")))
    for name, flags in exp.get("maps", {}).items():
        verdict = is_invder(e.document.map(name), alg).to_dict()
        row(f"map:{name}", flags, {k: verdict[k] for k in flags})
    for name, holds in exp.get("rota_baxter", {}).items():
        row(f"rota_baxter:{name}", holds,
            is_rota_baxter(e.document.map(name), alg).holds)
    if "search" in exp:
        sr = invder_search(alg, coefficient_range=SEARCH_RANGE,
                           max_samples=SEARCH_SAMPLES, seed=SEARCH_SEED)
        row("search", exp["search"],
            {"found": sr.found is not None, "certificate": sr.certificate})
    return rows


class SuiteReport(Value):
    __slots__ = ("seed", "samples", "entries", "accepted_pairs",
                 "prop21_instances", "checks", "violations", "informational")
    _fields = __slots__

    def __init__(self, seed: int, samples: int, entries: int,
                 accepted_pairs: int, prop21_instances: int, checks: dict,
                 violations: list, informational: list) -> None:
        _set(self, "seed", seed)
        _set(self, "samples", samples)
        _set(self, "entries", entries)
        _set(self, "accepted_pairs", accepted_pairs)
        _set(self, "prop21_instances", prop21_instances)
        _set(self, "checks", checks)
        _set(self, "violations", violations)
        _set(self, "informational", informational)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "entries": self.entries,
            "accepted_pairs": self.accepted_pairs,
            "prop21_instances": self.prop21_instances,
            "ok": self.ok,
            "checks": self.checks,
            "violations": self.violations,
            "informational": self.informational,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def run_property_suite(seed: int = 0, samples: int = 100) -> SuiteReport:
    """Randomized verification of the twist statements over the catalog.

    Every accepted map found among the stored maps and the per-entry
    generated families is pushed through the twist, the two-way kind
    equivalence, and the derived identities for the entry's declared kind.
    Derivations that are not accepted get informational forced twists only;
    nothing they do counts against the theorems.
    """
    if samples < 1:
        raise InputError("samples must be positive")
    checks: dict[str, dict] = {}
    violations: list[dict] = []
    informational: list[dict] = []
    accepted_pairs = 0
    prop21 = 0

    def record(entry_id: str, label: str, check: str, holds: bool,
               counted: bool, indices=None) -> None:
        if counted:
            slot = checks.setdefault(check, {"instances": 0, "violations": 0})
            slot["instances"] += 1
            if not holds:
                slot["violations"] += 1
                violations.append({"entry": entry_id, "delta": label,
                                   "check": check,
                                   "indices": list(indices or [])})
        else:
            informational.append({"entry": entry_id, "delta": label,
                                  "check": check, "holds": holds})

    for e in catalog():
        alg = e.algebra
        kind = alg.kind_hint
        source_holds = None  # the kind axioms of alg, scanned once if needed
        rng = random.Random(f"{seed}:{e.id}")
        candidates: list[tuple[str, LinearMap]] = list(e.document.maps)
        if e.invder_family is not None:
            candidates.extend((f"family[{i}]", e.invder_family(rng))
                              for i in range(samples))
        space = derivation_space(alg)
        candidates.extend((f"der[{i}]", m) for i, m in
                          space.draws(rng, 3, max(1, samples // 2)))

        for label, m in candidates:
            try:
                verdict = is_invder(m, alg)
            except InvderError:
                record(e.id, label, "prop21_route_agreement", False, True)
                continue
            if verdict.is_derivation and verdict.is_invertible:
                prop21 += 1
                record(e.id, label, "prop21_route_agreement", True, True)
            if verdict.accepted and kind is not None:
                accepted_pairs += 1
                try:
                    res = twist_by(alg, m, kind, verdict)
                    for rep in res.verification:
                        record(e.id, label, f"twist:{rep.axiom}", rep.holds,
                               True,
                               rep.witness.indices if rep.witness else None)
                    if source_holds is None:
                        source_holds = all(r.holds
                                           for r in kind_axioms(alg, kind))
                    yv = yau_from_twist(alg, kind, source_holds, verdict, res)
                    record(e.id, label, "yau_iff",
                           yv.forward == yv.backward, True)
                    source = invder_identity_axioms(alg, kind, m)
                    if kind == "lie":
                        # the verdict has established the row's precondition
                        source.append(
                            identity_report("identity_25", alg.op(), d=m))
                    for rep in source:
                        record(e.id, label, f"source:{rep.axiom}", rep.holds,
                               True,
                               rep.witness.indices if rep.witness else None)
                except InvderError as exc:
                    record(e.id, label, f"internal:{exc}", False, True)
            elif verdict.is_derivation and not verdict.accepted \
                    and kind is not None and label in dict(e.document.maps):
                forced = twist_by(alg, m, kind, verdict)
                for rep in forced.verification:
                    record(e.id, label, f"forced-twist:{rep.axiom}",
                           rep.holds, False)

    return SuiteReport(seed, samples, len(catalog()), accepted_pairs, prop21,
                       checks, violations, informational)


class SearchConfig(Value):
    __slots__ = ("family", "max_dim", "coefficient_range", "max_samples",
                 "seed", "tables_per_dim")
    _fields = __slots__

    def __init__(self, family: str, max_dim: int = 4,
                 coefficient_range: int = 3, max_samples: int = 200,
                 seed: int = 0, tables_per_dim: int = 10) -> None:
        _set(self, "family", family)
        _set(self, "max_dim", max_dim)
        _set(self, "coefficient_range", coefficient_range)
        _set(self, "max_samples", max_samples)
        _set(self, "seed", seed)
        _set(self, "tables_per_dim", tables_per_dim)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")
        cap = min(max_dimension(), 6)
        if self.max_dim > cap:
            raise InputError(
                f"max_dim {self.max_dim} exceeds the dimension cap {cap}")
        if self.coefficient_range > 8:
            raise InputError("coefficient range is capped at 8")
        if self.max_dim < 1 or self.coefficient_range < 1 \
                or self.max_samples < 1 or self.tables_per_dim < 1:
            raise InputError("search bounds must be positive")


class SearchReport(Value):
    __slots__ = ("config", "algebras_examined", "candidates_found", "rows",
                 "findings", "rejected_tables")
    _fields = __slots__

    def __init__(self, config: SearchConfig, algebras_examined: int,
                 candidates_found: int, rows: list, findings: list,
                 rejected_tables: int) -> None:
        _set(self, "config", config)
        _set(self, "algebras_examined", algebras_examined)
        _set(self, "candidates_found", candidates_found)
        _set(self, "rows", rows)
        _set(self, "findings", findings)
        _set(self, "rejected_tables", rejected_tables)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        data = {
            "family": self.config.family,
            "bounds": {
                "max_dim": self.config.max_dim,
                "coefficient_range": self.config.coefficient_range,
                "max_samples": self.config.max_samples,
                "seed": self.config.seed,
            },
            "algebras_examined": self.algebras_examined,
            "candidates_found": self.candidates_found,
            "ok": self.ok,
            "rows": self.rows,
            "findings": self.findings,
        }
        if self.config.family == "random_nilpotent_tables":
            data["bounds"]["tables_per_dim"] = self.config.tables_per_dim
            data["rejected_tables"] = self.rejected_tables
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


# each deterministic family of the hunt: its smallest dimension and its
# bracket's pairs i < j in dimension d
_FAMILY_PAIRS = {
    "abelian": (1, lambda d: {}),
    "heisenberg_like": (3, lambda d: {(2 * t, 2 * t + 1): [(d - 1, 1)]
                                      for t in range((d - 1) // 2)}),
    "filiform": (3, lambda d: {(0, i): [(i + 1, 1)] for i in range(1, d - 1)}),
    "solvable": (2, lambda d: {(0, i): [(i, 1)] for i in range(1, d)}),
}


def _family_algebras(config: SearchConfig) -> tuple[list[Algebra], int]:
    if config.family in _FAMILY_PAIRS:
        low, pairs = _FAMILY_PAIRS[config.family]
        return [_lie(f"{config.family}_{d}", d, pairs(d))
                for d in range(low, config.max_dim + 1)], 0
    algebras: list[Algebra] = []
    rejected = 0
    for d in range(3, config.max_dim + 1):
        rng = random.Random(f"{config.seed}:tables:{d}")
        kept = 0
        for _ in range(40 * config.tables_per_dim):
            if kept >= config.tables_per_dim:
                break
            # sparse strictly triangular tables, else Jacobi rejects
            # nearly everything beyond dimension four
            pairs = {}
            for i in range(d):
                for j in range(i + 1, d):
                    entry_ = [(k, c) for k in range(j + 1, d)
                              if (c := rng.choice(
                                  (0, 0, 0, 0, 0, 1, -1, 2, -2)))]
                    if entry_:
                        pairs[(i, j)] = entry_
            cand = _lie(f"random_{d}_{kept}", d, pairs)
            if run_axiom(cand, "jacobi").holds:
                algebras.append(cand)
                kept += 1
            else:
                rejected += 1
    return algebras, rejected


def counterexample_search(config: SearchConfig) -> SearchReport:
    """Hunt for twists by invertible non-InvDer derivations that break Jacobi.

    The twist theorem only promises a Lie algebra when the inverse of the
    derivation is itself a derivation; whether dropping that hypothesis can
    actually break Jacobi in small dimension is open.  For every family
    instance this samples the derivation space, keeps the invertible
    elements whose inverse fails the Leibniz rule, and records each Jacobi
    or skew failure of the twist by one as a finding with its witness.
    An empty findings list is a bounds report, never a nonexistence proof.

    No twist is built for most candidates.  For a derivation delta of a
    Lie bracket, the Jacobiator of the twist delta[x, y] is minus delta
    applied to the cyclic sum of [delta x, [y, z]], the invder_jacobi
    identity on the source; so for an invertible delta the twist is Lie
    exactly when delta satisfies invder_jacobi.  The twist keeps skew
    symmetry, which the source is checked for first.  Only a candidate
    failing invder_jacobi is twisted, for the witness on the twisted
    algebra, and a twist of one that then reports no failure raises
    InvderError.
    """
    config.validate()
    algebras, rejected = _family_algebras(config)
    rows: list[dict] = []
    findings: list[dict] = []
    candidates = 0
    for alg in algebras:
        if not all(r.holds for r in kind_axioms(alg, "lie")):
            raise InvderError(f"generated table {alg.name!r} is not Lie")
        space = derivation_space(alg)
        rng = random.Random(f"{config.seed}:{alg.name}")
        checked = 0
        for _, delta in space.draws(rng, config.coefficient_range,
                                    config.max_samples):
            verdict = is_invder(delta, alg)
            if not verdict.is_invertible or verdict.inverse_is_derivation:
                continue
            checked += 1
            candidates += 1
            if run_axiom(alg, "invder_jacobi", None, delta).holds:
                continue
            forced = twist_by(alg, delta, "lie", verdict)
            broken = [rep for rep in forced.verification
                      if rep.axiom in ("skew_symmetry", "jacobi")
                      and not rep.holds]
            if not broken:
                raise InvderError(
                    "internal inconsistency: a derivation failing "
                    "invder_jacobi twists into a Lie bracket")
            for rep in broken:
                findings.append({
                    "algebra": alg.name, "delta": delta.to_columns(),
                    "check": rep.axiom, "witness": rep.witness.to_dict()})
        rows.append({"algebra": alg.name, "dim": alg.dim,
                     "derivation_dim": space.dim,
                     "twisted_candidates": checked})
    return SearchReport(config, len(algebras), candidates, rows, findings,
                        rejected)
