"""Every multilinear identity of the package, as one table and one scan.

Every identity handled here is multilinear, so it holds for all vectors iff
it holds on all basis tuples.  Each one is a row of IDENTITIES: two sides
written as signed sums of products over the variables x, y, z, under named
operations ("op", or "left" and "right" for a dendriform pair) and named
linear maps ("d" for delta, applied twice for its square, "R" and "lam"
for a Rota-Baxter operator and its weight, "P" for an endomorphism).  One
scan walks basis tuples in lexicographic order and reports the first
violation as a witness carrying the offending indices and both evaluated
sides.  A subterm on basis vectors alone, such as [y, z] or delta x, is
read off the operation's index of basis products or the map's columns,
so it costs no product at all; every other proper subterm is evaluated
once per assignment of the variables it mentions, so delta [y, z] costs
n^2 map applications per scan, not n^3.
Verdicts are computed from the structure constants themselves; a kind
hint on the algebra is never trusted.  The Leibniz rule alone is decided
by the sparse integer rows of BilinearOp.leibniz, and its row of the table
only builds the witness, on the first pair those rows reject.

Axiom identifiers form a closed set (AXIOM_IDS).  The ones prefixed with
"invder" and the two "zinbiel_aux" identities take a linear map delta in
addition to the operation; "identity_25" requires delta to be a derivation
of the operation and refuses to run otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from operator import itemgetter, mul

from .errors import InputError
from .linalg import Vector
from .model import KINDS, Algebra, BilinearOp, LinearMap, sparse_to_vector

VARIABLES = ("x", "y", "z")


class Term:
    """A variable, a named map of one term, a named operation of two terms,
    or a signed sum (head "+", one integer coefficient per term).

    The variables a term mentions, and the names it applies with their
    argument counts, are collected once, when it is built.
    """

    __slots__ = ("head", "args", "coeffs", "variables", "names")

    def __init__(self, head: str, args: tuple["Term", ...] = (),
                 coeffs: tuple[int, ...] = ()):
        self.head, self.args, self.coeffs = head, args, coeffs
        if head in VARIABLES:
            self.variables, self.names = frozenset((head,)), frozenset()
            return
        self.variables = frozenset().union(*(a.variables for a in args))
        self.names = frozenset().union(*(a.names for a in args))
        if head != "+":
            self.names |= {(head, len(args))}

    def _signed(self) -> tuple[tuple[int, "Term"], ...]:
        if self.head == "+":
            return tuple(zip(self.coeffs, self.args))
        return ((1, self),)

    def __add__(self, other: "Term") -> "Term":
        return _sum(self._signed() + other._signed())

    def __rmul__(self, c: int) -> "Term":
        return _sum(tuple((c * k, t) for k, t in self._signed()))

    def __neg__(self) -> "Term":
        return -1 * self

    def __sub__(self, other: "Term") -> "Term":
        return self + -other


def _sum(signed) -> Term:
    return Term("+", tuple(t for _, t in signed), tuple(c for c, _ in signed))


class Identity:
    """One row of the table: lhs = rhs on every basis tuple.

    bundle names the group the row belongs to: a structure kind for its
    defining axioms, "invder-" plus the kind for the identities of a map
    twisting it.  Rows that are not axioms (the Leibniz rule and the other
    map conditions) are run only through their callers.  An alternating
    row needs only strictly increasing tuples when the table is skew; a
    row that needs a derivation refuses maps that are not.  The arity and
    the operations and maps a row names are read off its two sides.
    """

    def __init__(self, id: str, lhs: Term, rhs: Term,
                 bundle: str | None = None, *, axiom: bool = True,
                 alternating: bool = False, needs_derivation: bool = False):
        self.id, self.lhs, self.rhs, self.bundle = id, lhs, rhs, bundle
        self.axiom, self.alternating = axiom, alternating
        self.needs_derivation = needs_derivation
        names = lhs.names | rhs.names
        self.arity = len(lhs.variables | rhs.variables)
        self.ops = frozenset(h for h, n in names if n == 2)
        self.maps = frozenset(h for h, n in names if n == 1)

    @cached_property
    def plan(self) -> tuple[tuple, int, int]:
        """Distinct subterms in evaluation order, and where the sides are.

        Each step is (head, child steps, coefficients, variable positions,
        how).  how is "read" for a variable, for an operation of two
        variables and for a map of one variable: on basis vectors these
        are a unit vector, a basis product and a column, read off tables
        built once.  It is "memo" for any other subterm that mentions
        fewer variables than the identity, since it then repeats across
        the scan, and "eval" for the rest.
        """
        steps: list[tuple] = []
        seen: dict[tuple, int] = {}

        def visit(t: Term) -> int:
            kids = tuple(visit(a) for a in t.args)
            key = (t.head, kids, t.coeffs)
            if key not in seen:
                pos = tuple(i for i, v in enumerate(VARIABLES)
                            if v in t.variables)
                if t.head in VARIABLES or t.head != "+" and all(
                        steps[k][0] in VARIABLES for k in kids):
                    how = "read"
                elif len(pos) < self.arity:
                    how = "memo"
                else:
                    how = "eval"
                seen[key] = len(steps)
                steps.append((t.head, kids, t.coeffs, pos, how))
            return seen[key]

        lhs, rhs = visit(self.lhs), visit(self.rhs)
        return tuple(steps), lhs, rhs


def _table() -> dict[str, Identity]:
    x, y, z = (Term(v) for v in VARIABLES)
    zero = Term("+")

    def binary(name):
        return lambda a, b: Term(name, (a, b))

    def unary(name):
        return lambda a: Term(name, (a,))

    op, left, right = binary("op"), binary("left"), binary("right")
    d, R, lam, P = (unary(m) for m in ("d", "R", "lam", "P"))

    rows = [
        Identity("skew_symmetry", op(x, y), -op(y, x), "lie"),
        Identity("jacobi",
                 op(x, op(y, z)) + op(y, op(z, x)) + op(z, op(x, y)), zero,
                 "lie", alternating=True),
        Identity("associativity", op(op(x, y), z), op(x, op(y, z)),
                 "associative"),
        # the left associator is symmetric in its first two arguments
        Identity("pre_lie", op(x, op(y, z)) - op(op(x, y), z),
                 op(y, op(x, z)) - op(op(y, x), z), "prelie"),
        Identity("zinbiel", op(x, op(y, z)),
                 op(op(x, y), z) + op(op(y, x), z), "zinbiel"),
        Identity("dendriform_1", left(left(x, y), z),
                 left(x, left(y, z) + right(y, z)), "dendriform"),
        Identity("dendriform_2", left(right(x, y), z),
                 right(x, left(y, z)), "dendriform"),
        Identity("dendriform_3", right(x, right(y, z)),
                 right(left(x, y) + right(x, y), z), "dendriform"),
        Identity("commutativity", op(x, y), op(y, x)),
        # for a skew op the cyclic sum is alternating, as the Jacobiator is
        Identity("invder_jacobi",
                 op(d(x), op(y, z)) + op(d(y), op(z, x))
                 + op(d(z), op(x, y)), zero, "invder-lie", alternating=True),
        Identity("invder_prelie", op(d(x), op(y, z)) - op(op(x, y), d(z)),
                 op(d(y), op(x, z)) - op(op(y, x), d(z)), "invder-prelie"),
        Identity("invder_assoc", op(d(x), op(y, z)), op(op(x, y), d(z)),
                 "invder-associative"),
        Identity("invder_zinbiel", op(d(x), op(y, z)),
                 op(op(x, y), d(z)) + op(op(y, x), d(z)), "invder-zinbiel"),
        Identity("zinbiel_aux_44", op(d(x), op(z, y)), op(d(z), op(x, y)),
                 "invder-zinbiel"),
        Identity("zinbiel_aux_45", op(op(x, y), d(z)), op(op(x, z), d(y)),
                 "invder-zinbiel"),
        Identity("invder_dend_47", left(left(x, y), d(z)),
                 left(d(x), left(y, z) + right(y, z)), "invder-dendriform"),
        Identity("invder_dend_48", left(right(x, y), d(z)),
                 right(d(x), left(y, z)), "invder-dendriform"),
        Identity("invder_dend_49", right(d(x), right(y, z)),
                 right(left(x, y) + right(x, y), d(z)), "invder-dendriform"),
        # the cyclic sums of [x, delta[y, z]] and [delta x, [y, z]] agree
        Identity("identity_25",
                 op(x, d(op(y, z))) + op(y, d(op(z, x)))
                 + op(z, d(op(x, y))),
                 op(d(x), op(y, z)) + op(d(y), op(z, x))
                 + op(d(z), op(x, y)), "invder-lie", needs_derivation=True),
        Identity("leibniz", d(op(x, y)), op(d(x), y) + op(x, d(y)),
                 axiom=False),
        # for a derivation; the cross term keeps delta^2 from being one
        Identity("squared_leibniz", d(d(op(x, y))),
                 op(d(d(x)), y) + op(x, d(d(y))) + 2 * op(d(x), d(y)),
                 axiom=False),
        Identity("square_condition", op(d(x), d(y)), d(d(op(x, y))),
                 axiom=False),
        Identity("rota_baxter", op(R(x), R(y)),
                 R(op(R(x), y) + op(x, R(y)) + lam(op(x, y))), axiom=False),
        Identity("multiplicative", P(op(x, y)), op(P(x), P(y)), axiom=False),
    ]
    return {row.id: row for row in rows}


IDENTITIES = _table()

AXIOM_IDS = tuple(row.id for row in IDENTITIES.values() if row.axiom)

DELTA_AXIOMS = frozenset(a for a in AXIOM_IDS if "d" in IDENTITIES[a].maps)

BUNDLES = {name: tuple(a for a in AXIOM_IDS if IDENTITIES[a].bundle == name)
           for name in KINDS + tuple(f"invder-{k}" for k in KINDS)}


@dataclass(frozen=True)
class Witness:
    """First basis tuple where an identity breaks, with both sides."""

    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "lhs": [str(c) for c in self.lhs.entries],
            "rhs": [str(c) for c in self.rhs.entries],
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one axiom check; witness present iff the check failed."""

    axiom: str
    holds: bool
    witness: Witness | None = None

    def to_dict(self) -> dict:
        data: dict = {"axiom": self.axiom, "holds": self.holds}
        if self.witness is not None:
            data["witness"] = self.witness.to_dict()
        return data


# ---------------------------------------------------------------- the scan


# the product of a basis pair absent from an operation's index; like the
# index itself it is only ever read
_NO_PRODUCT: dict = {}


def _variable(units, p):
    return lambda t: units[t[p]]


def _basis_product(index, p, q):
    return lambda t: index[t[p]].get(t[q], _NO_PRODUCT)


def _basis_image(column, p):
    return lambda t: column(t[p])


def _mapped(apply, a):
    return lambda t: apply(a(t))


def _product(mul, a, b):
    return lambda t: mul(a(t), b(t))


def _signed_sum(coeffs, parts):
    pairs = tuple(zip(coeffs, parts))

    def ev(t):
        out = {}
        for c, part in pairs:
            for k, v in part(t).items():
                out[k] = out.get(k, 0) + (v if c == 1 else c * v)
        return {k: v for k, v in out.items() if v}
    return ev


def _memo(f, pos):
    key = itemgetter(*pos) if pos else (lambda t: ())
    memo: dict = {}

    def ev(t):
        k = key(t)
        value = memo.get(k)
        if value is None:
            value = memo[k] = f(t)
        return value
    return ev


def _scan(row: Identity, dim: int, ops: dict[str, BilinearOp],
          maps: dict[str, LinearMap], alternating: bool = False,
          tuples=None) -> Witness | None:
    """First basis tuple where the row's sides differ, or None.

    tuples, when given, replaces the walk over every basis tuple.  The
    evaluation runs on the lean scalars of the sparse kernels (ints where
    integral); the witness converts both sides back to Fractions.  The
    steps that read a basis product or a column return the dicts shared
    with the operation's index and the map's column cache, which no step
    mutates.
    """
    units = [{i: 1} for i in range(dim)]
    steps, lhs_at, rhs_at = row.plan
    fns: list = []
    for head, kids, coeffs, pos, how in steps:
        if head in VARIABLES:
            f = _variable(units, pos[0])
        elif head == "+":
            f = _signed_sum(coeffs, [fns[k] for k in kids])
        elif how == "read":
            at = [steps[k][3][0] for k in kids]
            if len(kids) == 1:
                f = _basis_image(maps[head].column_sparse, *at)
            else:
                f = _basis_product(ops[head]._index(), *at)
        elif len(kids) == 1:
            f = _mapped(maps[head].apply_sparse, fns[kids[0]])
        else:
            f = _product(ops[head].mul_sparse, fns[kids[0]], fns[kids[1]])
        fns.append(_memo(f, pos) if how == "memo" else f)
    lhs, rhs = fns[lhs_at], fns[rhs_at]
    if tuples is None:
        tuples = combinations(range(dim), row.arity) if alternating \
            else product(range(dim), repeat=row.arity)
    for t in tuples:
        left, right = lhs(t), rhs(t)
        if left != right:
            return Witness(t, sparse_to_vector(dim, left),
                           sparse_to_vector(dim, right))
    return None


def identity_witness(identity: str, op: BilinearOp,
                     **maps: LinearMap) -> Witness | None:
    """Scan a single-operation row of the table with the maps it names."""
    return _scan(IDENTITIES[identity], op.dim, {"op": op}, maps)


def leibniz_witness(op: BilinearOp, delta: LinearMap,
                    entries=None) -> Witness | None:
    """First basis pair where delta fails the Leibniz rule, if any.

    The pair is the first one with a row of op.leibniz() that does not
    vanish on delta's lean entries, or on entries when given: any nonzero
    multiple of them, such as an integral one of a Fraction map.  The
    leibniz row of the scan then builds the witness on that pair alone,
    with delta itself.
    """
    if delta.dim != op.dim:
        raise InputError("map dimension does not match operation dimension")
    flat = delta.lean_entries() if entries is None else entries
    for pair, rows in op.leibniz():
        for cells, coeffs in rows:
            if sum(map(mul, coeffs, map(flat.__getitem__, cells))):
                return _scan(IDENTITIES["leibniz"], op.dim, {"op": op},
                             {"d": delta}, tuples=(pair,))
    return None


# ------------------------------------------------------------ the axioms


def run_axiom(alg: Algebra, axiom: str, op_name: str | None = None,
              delta: LinearMap | None = None) -> CheckReport:
    """Dispatch a single axiom check by identifier.

    An alternating row walks only strictly increasing tuples on a skew
    operation, which the operation decides once for all its rows.
    """
    row = IDENTITIES.get(axiom)
    if row is None or not row.axiom:
        raise InputError(f"unknown axiom {axiom!r}")
    maps = {}
    if "d" in row.maps:
        if delta is None:
            raise InputError(f"axiom {axiom!r} needs a map")
        if delta.dim != alg.dim:
            raise InputError("map dimension does not match algebra dimension")
        maps["d"] = delta
    if "op" in row.ops:
        ops = {"op": alg.op(op_name)}
    elif {"left", "right"} <= set(alg.op_names()):
        ops = {"left": alg.op("left"), "right": alg.op("right")}
    else:
        raise InputError('dendriform checks need ops named "left" and "right"')
    if row.needs_derivation and leibniz_witness(ops["op"], delta) is not None:
        raise InputError(f"{axiom} requires delta to be a derivation")
    alternating = row.alternating and ops["op"].is_skew()
    witness = _scan(row, alg.dim, ops, maps, alternating)
    return CheckReport(axiom, witness is None, witness)


def _reports(alg: Algebra, axioms, op_name: str | None = None,
             delta: LinearMap | None = None):
    for axiom in axioms:
        yield run_axiom(alg, axiom, op_name, delta)


def _plain_check(axiom: str):
    def check(alg: Algebra, op_name: str | None = None) -> CheckReport:
        return run_axiom(alg, axiom, op_name)
    check.__name__ = check.__qualname__ = f"check_{axiom}"
    return check


def _delta_check(axiom: str):
    def check(alg: Algebra, op_name: str | None,
              delta: LinearMap) -> CheckReport:
        return run_axiom(alg, axiom, op_name, delta)
    check.__name__ = check.__qualname__ = f"check_{axiom}"
    return check


check_skew_symmetry = _plain_check("skew_symmetry")
check_commutativity = _plain_check("commutativity")
check_jacobi = _plain_check("jacobi")
check_associativity = _plain_check("associativity")
check_pre_lie = _plain_check("pre_lie")
check_zinbiel = _plain_check("zinbiel")
check_invder_jacobi = _delta_check("invder_jacobi")
check_identity_25 = _delta_check("identity_25")
check_invder_prelie = _delta_check("invder_prelie")
check_invder_assoc = _delta_check("invder_assoc")
check_invder_zinbiel = _delta_check("invder_zinbiel")
check_zinbiel_aux_44 = _delta_check("zinbiel_aux_44")
check_zinbiel_aux_45 = _delta_check("zinbiel_aux_45")


def check_dendriform(alg: Algebra) -> tuple[CheckReport, CheckReport, CheckReport]:
    """The three dendriform axioms, in order."""
    return tuple(_reports(alg, BUNDLES["dendriform"]))


def _known_kind(kind: str) -> str:
    if kind not in KINDS:
        raise InputError(f"unknown structure kind {kind!r}")
    return kind


def kind_axioms(alg: Algebra, kind: str,
                op_name: str | None = None) -> list[CheckReport]:
    """Reports for the defining axioms of a structure kind."""
    return list(_reports(alg, BUNDLES[_known_kind(kind)], op_name))


def invder_identity_axioms(alg: Algebra, kind: str, delta: LinearMap,
                           op_name: str | None = None) -> list[CheckReport]:
    """Reports for the twist compatibility identities attached to a kind.

    Identities that presuppose a derivation are left to callers that have
    established it.
    """
    axioms = [a for a in BUNDLES[f"invder-{_known_kind(kind)}"]
              if not IDENTITIES[a].needs_derivation]
    return list(_reports(alg, axioms, op_name, delta))


def kinds_satisfied(alg: Algebra, op_name: str | None = None) -> tuple[str, ...]:
    """Single-operation kinds whose axioms actually hold for the table."""
    return tuple(kind for kind in KINDS if kind != "dendriform"
                 and all(r.holds for r in _reports(alg, BUNDLES[kind], op_name)))
