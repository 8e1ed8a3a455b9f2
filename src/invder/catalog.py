"""Built-in example algebras, the randomized property suite, and searches.

Each catalog entry stores an algebra document, the maps studied with it,
and a frozen dictionary of facts (derivation space dimension, structure
kinds, verdict flags, search outcome) that verify_entry re-derives from
scratch with the engine.  The suite and the counterexample search both
draw their randomness from seeds threaded through string-keyed Random
instances, so identical inputs always reproduce identical reports.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from .axioms import (check_dendriform, check_invder_jacobi, check_jacobi,
                     identity_witness, invder_identity_axioms, kind_axioms,
                     kinds_satisfied)
from .constructions import is_rota_baxter, twist_by, yau_from_twist
from .derivations import derivation_space, invder_search, is_invder
from .errors import InputError, InvderError
from .model import (FAMILIES, Algebra, AlgebraDocument, BilinearOp, LinearMap,
                    max_dimension)
from .rational import Q

SEARCH_SEED = 0
SEARCH_RANGE = 3
SEARCH_SAMPLES = 400

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    document: AlgebraDocument
    expected: dict
    invder_family: Callable[[random.Random], LinearMap] | None = None

    @property
    def algebra(self) -> Algebra:
        return self.document.algebra


def _op(dim: int, table: dict) -> BilinearOp:
    return BilinearOp.from_dict(dim, table)


def _labels(dim: int) -> list[str]:
    return [f"e{t + 1}" for t in range(dim)]


def _cols(columns: list[list[str]], dim: int) -> LinearMap:
    return LinearMap.from_column_strings(columns, dim)


def _invertible_family(dim: int):
    def sample(rng: random.Random) -> LinearMap:
        while True:
            entries = [[str(rng.randint(-3, 3)) for _ in range(dim)]
                       for _ in range(dim)]
            m = LinearMap.from_column_strings(entries, dim)
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
    return _cols([[str(a), str(c), str(x)],
                  [str(b), str(d), str(y)],
                  ["0", "0", str(a + d)]], 3)


ALL_SINGLE_KINDS = ["lie", "prelie", "associative", "zinbiel"]


def _entries() -> list[CatalogEntry]:
    out: list[CatalogEntry] = []

    for dim in range(1, 5):
        doc = AlgebraDocument.build(Algebra.build(
            f"abelian_{dim}", _labels(dim), {"bracket": _op(dim, {})}, "lie"))
        out.append(CatalogEntry(
            f"abelian_{dim}", doc,
            {"derivation_dim": dim * dim, "kinds": ALL_SINGLE_KINDS,
             "search": {"found": True, "certificate": None}},
            _invertible_family(dim)))

    so3 = Algebra.build("so3", _labels(3), {"bracket": _op(3, {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (1, 2): {0: 1}, (2, 1): {0: -1},
        (2, 0): {1: 1}, (0, 2): {1: -1}})}, "lie")
    out.append(CatalogEntry(
        "so3",
        AlgebraDocument.build(so3, {
            "ad_e1": _cols([["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]], 3),
            "ad_e2": _cols([["0", "0", "-1"], ["0", "0", "0"], ["1", "0", "0"]], 3),
            "ad_e3": _cols([["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]], 3),
        }),
        {"derivation_dim": 3, "kinds": ["lie"],
         "maps": {"ad_e1": {"is_derivation": True, "is_invertible": False,
                            "accepted": False},
                  "ad_e2": {"is_derivation": True, "is_invertible": False},
                  "ad_e3": {"is_derivation": True, "is_invertible": False}},
         "search": {"found": False,
                    "certificate": "generic determinant vanishes"}}))

    heis = Algebra.build("heisenberg3", _labels(3), {"bracket": _op(3, {
        (0, 1): {2: 1}, (1, 0): {2: -1}})}, "lie")
    out.append(CatalogEntry(
        "heisenberg3",
        AlgebraDocument.build(heis, {
            "delta_w": _cols([["1", "3", "0"], ["-1", "1", "0"],
                              ["0", "0", "2"]], 3),
            "diag112": LinearMap.diagonal([1, 1, 2]),
            "ad_e1": _cols([["0", "0", "0"], ["0", "0", "1"],
                            ["0", "0", "0"]], 3),
            "proj_center": LinearMap.diagonal([0, 0, 1]),
            "zero": LinearMap.zero(3),
        }),
        {"derivation_dim": 6, "kinds": ALL_SINGLE_KINDS,
         "maps": {"delta_w": {"accepted": True, "square_condition": True},
                  "diag112": {"is_derivation": True, "is_invertible": True,
                              "inverse_is_derivation": False,
                              "square_condition": False, "accepted": False},
                  "ad_e1": {"is_derivation": True, "is_invertible": False},
                  "proj_center": {"is_derivation": False},
                  "zero": {"is_derivation": True, "is_invertible": False}},
         "rota_baxter": {"proj_center": True, "zero": True},
         "search": {"found": True, "certificate": None}},
        _block_family))

    filiform = Algebra.build("filiform_n4", _labels(4), {"bracket": _op(4, {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (0, 2): {3: 1}, (2, 0): {3: -1}})}, "lie")
    out.append(CatalogEntry(
        "filiform_n4",
        AlgebraDocument.build(filiform, {
            "grading": LinearMap.diagonal([1, 1, 2, 3])}),
        {"derivation_dim": 7, "kinds": ["lie"],
         "maps": {"grading": {"is_derivation": True, "is_invertible": True,
                              "inverse_is_derivation": False,
                              "square_condition": False, "accepted": False}},
         "search": {"found": False, "certificate": None}}))

    solvable2 = Algebra.build("solvable2", _labels(2), {"bracket": _op(2, {
        (0, 1): {1: 1}, (1, 0): {1: -1}})}, "lie")
    out.append(CatalogEntry(
        "solvable2", AlgebraDocument.build(solvable2),
        {"derivation_dim": 2, "kinds": ["lie"],
         "search": {"found": False,
                    "certificate": "generic determinant vanishes"}}))

    a3 = Algebra.build("a3", ["x", "y", "z"], {"star": _op(3, {
        (0, 1): {2: 1}, (1, 0): {2: -1}})}, "prelie")
    out.append(CatalogEntry(
        "a3",
        AlgebraDocument.build(a3, {
            "delta_A": _cols([["1", "3", "0"], ["-1", "1", "0"],
                              ["0", "0", "2"]], 3),
            "identity": LinearMap.identity(3),
            "proj_x": LinearMap.diagonal([1, 0, 0]),
            "proj_z": LinearMap.diagonal([0, 0, 1]),
        }),
        {"derivation_dim": 6, "kinds": ALL_SINGLE_KINDS,
         "maps": {"delta_A": {"accepted": True},
                  "identity": {"is_derivation": False},
                  "proj_x": {"is_derivation": False},
                  "proj_z": {"is_derivation": False}},
         "rota_baxter": {"proj_z": True},
         "search": {"found": True, "certificate": None}},
        _block_family))

    m2 = Algebra.build("m2", ["E11", "E12", "E21", "E22"],
                       {"product": _op(4, {
                           (0, 0): {0: 1}, (0, 1): {1: 1},
                           (1, 2): {0: 1}, (1, 3): {1: 1},
                           (2, 0): {2: 1}, (2, 1): {3: 1},
                           (3, 2): {2: 1}, (3, 3): {3: 1}})}, "associative")
    out.append(CatalogEntry(
        "m2",
        AlgebraDocument.build(m2, {
            "ad_E12": _cols([["0", "-1", "0", "0"], ["0", "0", "0", "0"],
                             ["1", "0", "0", "-1"], ["0", "1", "0", "0"]], 4)}),
        {"derivation_dim": 3, "kinds": ["prelie", "associative"],
         "maps": {"ad_E12": {"is_derivation": True, "is_invertible": False,
                             "accepted": False}},
         "search": {"found": False,
                    "certificate": "generic determinant vanishes"}}))

    z3 = Algebra.build("z3", ["u", "v", "w"], {"diamond": _op(3, {
        (0, 0): {1: 1}, (0, 1): {2: 1}, (1, 0): {2: Q(1, 2)}})}, "zinbiel")
    out.append(CatalogEntry(
        "z3",
        AlgebraDocument.build(z3, {"grading123": LinearMap.diagonal([1, 2, 3])}),
        {"derivation_dim": 3, "kinds": ["prelie", "zinbiel"],
         "maps": {"grading123": {"is_derivation": True, "is_invertible": True,
                                 "inverse_is_derivation": False,
                                 "square_condition": False,
                                 "accepted": False}},
         "search": {"found": False, "certificate": None}}))

    d2 = Algebra.build("d2", ["u", "v"], {
        "left": _op(2, {}), "right": _op(2, {(0, 0): {1: 1}})}, "dendriform")
    out.append(CatalogEntry(
        "d2",
        AlgebraDocument.build(d2, {"diag12": LinearMap.diagonal([1, 2])}),
        {"derivation_dim": 2, "dendriform": True,
         "maps": {"diag12": {"is_derivation": True, "is_invertible": True,
                             "inverse_is_derivation": False,
                             "square_condition": False, "accepted": False}},
         "search": {"found": False, "certificate": None}}))

    for kind, op_name in (("prelie", "star"), ("associative", "product"),
                          ("zinbiel", "diamond")):
        doc = AlgebraDocument.build(Algebra.build(
            f"zero_{kind}", ["u", "v"], {op_name: _op(2, {})}, kind))
        out.append(CatalogEntry(
            f"zero_{kind}", doc,
            {"derivation_dim": 4, "kinds": ALL_SINGLE_KINDS,
             "search": {"found": True, "certificate": None}},
            _invertible_family(2)))
    out.append(CatalogEntry(
        "zero_dendriform",
        AlgebraDocument.build(Algebra.build(
            "zero_dendriform", ["u", "v"],
            {"left": _op(2, {}), "right": _op(2, {})}, "dendriform")),
        {"derivation_dim": 4, "dendriform": True,
         "search": {"found": True, "certificate": None}},
        _invertible_family(2)))

    a3z = Algebra.build("a3_zinbiel", ["u", "v", "w"], {"diamond": _op(3, {
        (0, 1): {2: 1}, (1, 0): {2: -1}})}, "zinbiel")
    out.append(CatalogEntry(
        "a3_zinbiel",
        AlgebraDocument.build(a3z, {
            "delta_A": _cols([["1", "3", "0"], ["-1", "1", "0"],
                              ["0", "0", "2"]], 3)}),
        {"derivation_dim": 6, "kinds": ALL_SINGLE_KINDS,
         "maps": {"delta_A": {"accepted": True}},
         "search": {"found": True, "certificate": None}},
        _block_family))

    a3d = Algebra.build("a3_dendriform", ["u", "v", "w"], {
        "left": _op(3, {}),
        "right": _op(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})}, "dendriform")
    out.append(CatalogEntry(
        "a3_dendriform",
        AlgebraDocument.build(a3d, {
            "delta_A": _cols([["1", "3", "0"], ["-1", "1", "0"],
                              ["0", "0", "2"]], 3)}),
        {"derivation_dim": 6, "dendriform": True,
         "maps": {"delta_A": {"accepted": True}},
         "search": {"found": True, "certificate": None}},
        _block_family))

    return out


_CATALOG: tuple[CatalogEntry, ...] | None = None


def catalog() -> tuple[CatalogEntry, ...]:
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
            all(r.holds for r in check_dendriform(alg)))
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


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    samples: int
    entries: int
    accepted_pairs: int
    prop21_instances: int
    checks: dict
    violations: list
    informational: list

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
        nonlocal violations
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
                    for rep in invder_identity_axioms(alg, kind, m):
                        record(e.id, label, f"source:{rep.axiom}", rep.holds,
                               True,
                               rep.witness.indices if rep.witness else None)
                    if kind == "lie":
                        # the verdict has established the row's precondition
                        w = identity_witness("identity_25", alg.op(), d=m)
                        record(e.id, label, "source:identity_25", w is None,
                               True, w.indices if w else None)
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


@dataclass(frozen=True)
class SearchConfig:
    family: str
    max_dim: int = 4
    coefficient_range: int = 3
    max_samples: int = 200
    seed: int = 0
    tables_per_dim: int = 10

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


@dataclass(frozen=True)
class SearchReport:
    config: SearchConfig
    algebras_examined: int
    candidates_found: int
    rows: list
    findings: list
    rejected_tables: int

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


def _skew_table(pairs: dict) -> dict:
    full = dict(pairs)
    for (i, j), entry_ in pairs.items():
        full[(j, i)] = {k: -c for k, c in entry_.items()}
    return full


def _family_algebras(config: SearchConfig) -> tuple[list[Algebra], int]:
    algebras: list[Algebra] = []
    rejected = 0
    if config.family == "abelian":
        for d in range(1, config.max_dim + 1):
            algebras.append(Algebra.build(f"abelian_{d}", _labels(d),
                                          {"bracket": _op(d, {})}, "lie"))
    elif config.family == "heisenberg_like":
        for d in range(3, config.max_dim + 1):
            pairs = {(2 * t, 2 * t + 1): {d - 1: 1}
                     for t in range((d - 1) // 2)}
            algebras.append(Algebra.build(
                f"heisenberg_like_{d}", _labels(d),
                {"bracket": _op(d, _skew_table(pairs))}, "lie"))
    elif config.family == "filiform":
        for d in range(3, config.max_dim + 1):
            pairs = {(0, i): {i + 1: 1} for i in range(1, d - 1)}
            algebras.append(Algebra.build(
                f"filiform_{d}", _labels(d),
                {"bracket": _op(d, _skew_table(pairs))}, "lie"))
    elif config.family == "solvable":
        for d in range(2, config.max_dim + 1):
            pairs = {(0, i): {i: 1} for i in range(1, d)}
            algebras.append(Algebra.build(
                f"solvable_{d}", _labels(d),
                {"bracket": _op(d, _skew_table(pairs))}, "lie"))
    else:
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
                        entry_ = {k: c for k in range(j + 1, d)
                                  if (c := rng.choice(
                                      (0, 0, 0, 0, 0, 1, -1, 2, -2)))}
                        if entry_:
                            pairs[(i, j)] = entry_
                cand = Algebra.build(f"random_{d}_{kept}", _labels(d),
                                     {"bracket": _op(d, _skew_table(pairs))},
                                     "lie")
                if check_jacobi(cand).holds:
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
    Lie bracket, the Jacobiator of the twist delta[x, y] is delta applied
    to the cyclic sum of [delta x, [y, z]], the invder_jacobi identity on
    the source; so for an invertible delta the twist is Lie exactly when
    delta satisfies invder_jacobi.  The twist keeps skew symmetry, which
    the source is checked for first.  Only a candidate failing
    invder_jacobi is twisted, for the witness on the twisted algebra, and
    a twist of one that then reports no failure raises InvderError.
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
            if check_invder_jacobi(alg, None, delta).holds:
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
