"""Passages between structures carried by invertible derivations.

Each function here builds a new algebra from an old one (twisting by a map,
taking a commutator bracket, composing with a Rota-Baxter or endomorphism
operator) and returns it wrapped in a ConstructionResult together with the
verification reports for the axioms the output is supposed to satisfy.
Preconditions on the inputs are enforced eagerly with typed errors, so a
result object always describes a construction that was actually allowed to
run; the reports then record whether the advertised identities hold.

A map carried along is reported on by one helper for every construction:
an accepted map is decided on the output by is_invder, whose verdict
supplies its derivation and inverse_derivation reports; any other map gets
only its derivation report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import (BUNDLES, CheckReport, check_associativity,
                     check_commutativity, check_jacobi, check_pre_lie,
                     check_zinbiel, identity_witness, invder_identity_axioms,
                     kind_axioms, run_axiom)
from .derivations import (InvDerVerdict, is_derivation, is_invder,
                          require_invder)
from .errors import (CommutationFailureError, InputError, InvderError,
                     NotIdempotentError, NotMultiplicativeError,
                     NotRotaBaxterError, SourceAxiomFailureError,
                     SymmetryPreconditionFailureError)
from .model import Algebra, AlgebraDocument, BilinearOp, LinearMap, algebra_to_dict
from .rational import Q, ZERO


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed algebra plus the reports that vouch for it."""

    algebra: Algebra
    carried_delta: LinearMap | None
    verification: tuple[CheckReport, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.verification)

    def to_document(self) -> AlgebraDocument:
        maps = {"delta": self.carried_delta} if self.carried_delta else {}
        return AlgebraDocument.build(self.algebra, maps)

    def to_dict(self) -> dict:
        data = {
            "algebra": algebra_to_dict(self.to_document()),
            "ok": self.ok,
            "verification": [r.to_dict() for r in self.verification],
        }
        if self.notes:
            data["notes"] = list(self.notes)
        return data


def _resolve_single(alg: Algebra, op_name: str | None) -> str:
    if op_name is None:
        if len(alg.ops) != 1:
            raise InputError(
                "algebra has several operations; select one explicitly")
        return alg.ops[0][0]
    alg.op(op_name)
    return op_name


def _kind_op_names(alg: Algebra, kind: str, op_name: str | None) -> list[str]:
    """The operations a structure of this kind is made of."""
    if kind == "dendriform":
        for name in ("left", "right"):
            alg.op(name)
        return ["left", "right"]
    return [_resolve_single(alg, op_name)]


def _require_source(reports: list[CheckReport], what: str,
                    force: bool) -> None:
    bad = [r for r in reports if not r.holds]
    if bad and not force:
        raise SourceAxiomFailureError(
            f"source is not {what}: {bad[0].axiom} fails at "
            f"{bad[0].witness.indices}")


def _leibniz_reports(out: Algebra, delta: LinearMap,
                     verdict: InvDerVerdict) -> list[CheckReport]:
    """The carried map's Leibniz reports on out.

    verdict is the map's verdict on the source.  When it accepts, is_invder
    decides the map on out, cross-checking its two routes there, and gives
    both reports; otherwise only the map's Leibniz rule on out is checked.
    """
    if verdict.accepted:
        carried = is_invder(delta, out)
        return [carried.derivation, carried.inverse_derivation]
    return [is_derivation(delta, out)]


def _result(out: Algebra, kind: str, reports: list[CheckReport],
            delta: LinearMap | None, verdict: InvDerVerdict | None,
            notes: tuple[str, ...] = ()) -> ConstructionResult:
    """The constructed algebra with the carried map's reports appended:
    its Leibniz reports, and for an accepted map the twisted identities of
    the kind."""
    if delta is not None:
        reports += _leibniz_reports(out, delta, verdict)
        if verdict.accepted:
            reports += invder_identity_axioms(out, kind, delta)
    return ConstructionResult(out, delta, tuple(reports), notes)


def twist(alg: Algebra, delta: LinearMap, kind: str | None = None,
          op_name: str | None = None, force: bool = False) -> ConstructionResult:
    """Replace each product x y by delta(x y).

    This is the gate in front of twist_by, the construction: the map must
    be an accepted invertible derivation of the structure being twisted;
    with force=True that gate is skipped and the verification reports
    simply record which axioms survive.  Either way the verdict is computed
    here once and handed to the construction.
    """
    kind = kind or alg.kind_hint
    if kind is None:
        raise InputError("twist needs a structure kind, from the algebra "
                         "file or the kind argument")
    names = _kind_op_names(alg, kind, op_name)
    verdict = is_invder(delta, alg, names) if force \
        else require_invder(delta, alg, names)
    return twist_by(alg, delta, kind, verdict, op_name)


def twist_by(alg: Algebra, delta: LinearMap, kind: str, verdict: InvDerVerdict,
             op_name: str | None = None) -> ConstructionResult:
    """The twist construction, for a caller that already holds the verdict.

    verdict must be is_invder of delta on the operations of the kind; it is
    trusted, not recomputed.  It decides which reports on the carried map
    are added: the derivation rule always, the inverse and the twisted
    identities of the kind only for an accepted map.
    """
    out = _twisted(alg, delta, kind, op_name)
    return _result(out, kind, kind_axioms(out, kind), delta, verdict)


def _twisted(alg: Algebra, delta: LinearMap, kind: str,
             op_name: str | None) -> Algebra:
    names = _kind_op_names(alg, kind, op_name)
    return alg.with_ops(f"{alg.name}.twist",
                        {n: alg.op(n).twist(delta) for n in names}, kind)


@dataclass(frozen=True)
class YauVerdict:
    """Both sides of the twist equivalence for one kind.

    forward states the twisted algebra together with the map is a full
    structure of the kind (axioms plus the map staying accepted); backward
    states the same of the source.  The equivalence asserts they agree.
    """

    kind: str
    source_holds: bool
    twisted_holds: bool
    delta_invder_source: bool
    delta_invder_twisted: bool

    @property
    def forward(self) -> bool:
        return self.twisted_holds and self.delta_invder_twisted

    @property
    def backward(self) -> bool:
        return self.source_holds and self.delta_invder_source

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source_holds": self.source_holds,
            "twisted_holds": self.twisted_holds,
            "delta_invder_source": self.delta_invder_source,
            "delta_invder_twisted": self.delta_invder_twisted,
            "forward": self.forward,
            "backward": self.backward,
        }


def yau_iff_check(alg: Algebra, delta: LinearMap, kind: str | None = None,
                  op_name: str | None = None) -> YauVerdict:
    """Evaluate both sides of the twist equivalence on one instance.

    The gate (the source verdict, which must accept), then the twist with
    the reports yau_from_twist reads: the kind axioms and the map's
    Leibniz reports there, without the twisted identities twist_by adds.
    The source kind axioms are scanned here.
    """
    kind = kind or alg.kind_hint
    if kind is None:
        raise InputError("iff check needs a structure kind")
    names = _kind_op_names(alg, kind, op_name)
    verdict = require_invder(delta, alg, names)
    out = _twisted(alg, delta, kind, op_name)
    result = ConstructionResult(out, delta, tuple(
        kind_axioms(out, kind) + _leibniz_reports(out, delta, verdict)))
    single = names[0] if len(names) == 1 else None
    source_holds = all(r.holds for r in kind_axioms(alg, kind, single))
    return yau_from_twist(alg, kind, source_holds, verdict, result)


def yau_from_twist(alg: Algebra, kind: str, source_holds: bool,
                   verdict: InvDerVerdict,
                   result: ConstructionResult) -> YauVerdict:
    """Both sides of the twist equivalence from a twist already built.

    source_holds is the verdict of the kind axioms on alg and verdict the
    accepted InvDer verdict of the carried map there (InputError for any
    other); result is the twist, from twist_by or built with just the
    reports read here.  Its kind axiom reports give the twisted side, and
    its derivation and inverse_derivation reports, with the map's
    invertibility, say whether the map stays InvDer there; nothing is
    scanned here.  A disagreement is treated as an internal defect rather
    than a verdict, because the twist by the inverse map recovers the
    source, so the two sides stand or fall together.
    """
    if not verdict.accepted:
        raise InputError("the twist equivalence needs an accepted verdict")
    axioms = BUNDLES[kind]
    holds = {r.axiom: r.holds for r in result.verification}
    out = YauVerdict(
        kind,
        source_holds,
        all(holds[a] for a in axioms),
        verdict.accepted,
        verdict.is_invertible and holds["derivation"]
        and holds["inverse_derivation"],
    )
    if out.forward != out.backward:
        raise InvderError(
            "internal inconsistency: twist equivalence failed one-sided "
            f"on {alg.name!r} ({out.to_dict()})")
    return out


def commutator_lie(alg: Algebra, op_name: str | None = None,
                   delta: LinearMap | None = None) -> ConstructionResult:
    """Bracket [x, y] = x*y - y*x of a pre-Lie product.

    An optional map rides along: any derivation of the product is a
    derivation of the bracket, and an accepted invertible derivation stays
    accepted, so the bracket verification extends accordingly.
    """
    name = _resolve_single(alg, op_name)
    star = alg.op(name)
    _require_source([check_pre_lie(alg, name)], "pre-Lie", force=False)
    bracket = star - star.opposite()
    out = alg.with_ops(f"{alg.name}.lie", {"bracket": bracket}, "lie")
    verdict = None
    if delta is not None:
        verdict = is_invder(delta, alg, [name])
        if not verdict.is_derivation:
            raise InputError("map is not a derivation of the source product")
    return _result(out, "lie", kind_axioms(out, "lie"), delta, verdict)


def is_rota_baxter(r: LinearMap, alg: Algebra, op_name: str | None = None,
                   weight: Q = ZERO) -> CheckReport:
    """Rota-Baxter identity of the given weight on all basis pairs."""
    op = alg.op(op_name)
    if r.dim != alg.dim:
        raise InputError("map dimension does not match algebra dimension")
    witness = identity_witness("rota_baxter", op, R=r,
                               lam=LinearMap.identity(alg.dim).scale(weight))
    return CheckReport("rota_baxter", witness is None, witness)


def _carried(alg: Algebra, names: list[str], delta: LinearMap | None,
             operator: LinearMap | None = None) -> InvDerVerdict | None:
    """The gate for a carried map: accepted, and commuting with operator."""
    if delta is None:
        return None
    verdict = require_invder(delta, alg, names, "carried map")
    if operator is not None and not delta.commutes_with(operator):
        raise CommutationFailureError(
            "carried map does not commute with the operator")
    return verdict


def _require_rota_baxter(r: LinearMap, alg: Algebra, name: str) -> None:
    rb = is_rota_baxter(r, alg, name)
    if not rb.holds:
        raise NotRotaBaxterError(
            f"operator fails the weight zero identity at {rb.witness.indices}")


def rb_prelie_from_lie(alg: Algebra, r: LinearMap,
                       op_name: str | None = None,
                       delta: LinearMap | None = None) -> ConstructionResult:
    """Pre-Lie product x*y = [Rx, y] from a weight zero Rota-Baxter map."""
    name = _resolve_single(alg, op_name)
    _require_source(kind_axioms(alg, "lie", name), "a Lie bracket", force=False)
    _require_rota_baxter(r, alg, name)
    verdict = _carried(alg, [name], delta, r)
    star = alg.op(name).compose_left(r)
    out = alg.with_ops(f"{alg.name}.rb_prelie", {"star": star}, "prelie")
    reports = [check_pre_lie(out)]
    # consistency at the level the source theorem uses the product: the
    # commutator of the new product must again satisfy Jacobi
    comm = alg.with_ops(f"{alg.name}.rb_prelie_comm",
                        {"bracket": star - star.opposite()}, "lie")
    reports.append(check_jacobi(comm))
    return _result(out, "prelie", reports, delta, verdict,
                   ("weight 0 Rota-Baxter product",))


def rb_prelie_from_assoc(alg: Algebra, r: LinearMap,
                         op_name: str | None = None,
                         delta: LinearMap | None = None) -> ConstructionResult:
    """Pre-Lie product x*y = (Rx) y - y (Rx) from an associative product."""
    name = _resolve_single(alg, op_name)
    _require_source(kind_axioms(alg, "associative", name), "associative",
                    force=False)
    _require_rota_baxter(r, alg, name)
    verdict = _carried(alg, [name], delta, r)
    if delta is not None:
        _require_source([run_axiom(alg, "invder_assoc", name, delta)],
                        "InvDer associative", force=False)
    mu = alg.op(name)
    star = mu.compose_left(r) - mu.opposite().compose_left(r)
    out = alg.with_ops(f"{alg.name}.rb_prelie", {"star": star}, "prelie")
    return _result(out, "prelie", [check_pre_lie(out)], delta, verdict,
                   ("weight 0 Rota-Baxter product",))


def endo_lie_from_assoc(alg: Algebra, endo: LinearMap,
                        op_name: str | None = None,
                        delta: LinearMap | None = None) -> ConstructionResult:
    """Bracket [x, y] = (Px) y - (Py) x through an idempotent endomorphism.

    The operator must be an algebra endomorphism of the associative product
    (multiplicative and linear) and idempotent; under those hypotheses the
    bracket is Lie, and a commuting accepted map is carried across.
    """
    name = _resolve_single(alg, op_name)
    _require_source(kind_axioms(alg, "associative", name), "associative",
                    force=False)
    mu = alg.op(name)
    if endo.dim != alg.dim:
        raise InputError("map dimension does not match algebra dimension")
    if endo.compose(endo) != endo:
        raise NotIdempotentError("operator is not idempotent")
    witness = identity_witness("multiplicative", mu, P=endo)
    if witness is not None:
        raise NotMultiplicativeError(
            f"operator is not multiplicative at {witness.indices}")
    verdict = _carried(alg, [name], delta, endo)
    if delta is not None:
        _require_source([run_axiom(alg, "invder_assoc", name, delta)],
                        "InvDer associative", force=False)
    half = mu.compose_left(endo)
    bracket = half - half.opposite()
    out = alg.with_ops(f"{alg.name}.endo_lie", {"bracket": bracket}, "lie")
    return _result(
        out, "lie", kind_axioms(out, "lie"), delta, verdict,
        ("operator taken as an idempotent multiplicative endomorphism",))


def _zinbiel_source(alg: Algebra, op_name: str | None,
                    force: bool) -> tuple[str, BilinearOp]:
    name = _resolve_single(alg, op_name)
    _require_source([check_zinbiel(alg, name)], "zinbiel", force)
    return name, alg.op(name)


def zinbiel_to_assoc(alg: Algebra, op_name: str | None = None,
                     delta: LinearMap | None = None,
                     force: bool = False) -> ConstructionResult:
    """Symmetrised product x y = x<>y + y<>x, commutative associative."""
    name, dia = _zinbiel_source(alg, op_name, force)
    verdict = _carried(alg, [name], delta)
    mu = dia + dia.opposite()
    out = alg.with_ops(f"{alg.name}.assoc", {"product": mu}, "associative")
    return _result(out, "associative",
                   [check_associativity(out), check_commutativity(out)],
                   delta, verdict)


def zinbiel_to_lie(alg: Algebra, op_name: str | None = None,
                   delta: LinearMap | None = None,
                   force: bool = False) -> ConstructionResult:
    """Bracket [x, y] = x<>y - y<>x of a zinbiel product."""
    name, dia = _zinbiel_source(alg, op_name, force)
    verdict = _carried(alg, [name], delta)
    bracket = dia - dia.opposite()
    out = alg.with_ops(f"{alg.name}.lie", {"bracket": bracket}, "lie")
    return _result(out, "lie", kind_axioms(out, "lie"), delta, verdict)


def _dendriform_source(alg: Algebra, force: bool) -> tuple[BilinearOp, BilinearOp]:
    left, right = alg.op("left"), alg.op("right")
    _require_source(kind_axioms(alg, "dendriform"), "dendriform", force)
    return left, right


def dendriform_to_zinbiel(alg: Algebra, delta: LinearMap | None = None,
                          force: bool = False) -> ConstructionResult:
    """Read the right half-product as zinbiel when the halves mirror."""
    left, right = _dendriform_source(alg, force)
    if left != right.opposite():
        raise SymmetryPreconditionFailureError(
            "half-products are not mirror images of each other")
    verdict = _carried(alg, ["left", "right"], delta)
    out = alg.with_ops(f"{alg.name}.zinbiel", {"diamond": right}, "zinbiel")
    return _result(out, "zinbiel", [check_zinbiel(out)], delta, verdict)


def dendriform_to_assoc(alg: Algebra, delta: LinearMap | None = None,
                        force: bool = False) -> ConstructionResult:
    """Total product x y = x<y + x>y of a dendriform pair."""
    left, right = _dendriform_source(alg, force)
    verdict = _carried(alg, ["left", "right"], delta)
    mu = left + right
    out = alg.with_ops(f"{alg.name}.assoc", {"product": mu}, "associative")
    return _result(out, "associative", [check_associativity(out)], delta,
                   verdict)


def dendriform_to_prelie(alg: Algebra, delta: LinearMap | None = None,
                         force: bool = False) -> ConstructionResult:
    """Pre-Lie product x*y = x>y - y<x of a dendriform pair."""
    left, right = _dendriform_source(alg, force)
    verdict = _carried(alg, ["left", "right"], delta)
    star = right - left.opposite()
    out = alg.with_ops(f"{alg.name}.prelie", {"star": star}, "prelie")
    return _result(out, "prelie", [check_pre_lie(out)], delta, verdict)
