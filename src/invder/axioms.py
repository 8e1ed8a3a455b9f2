"""Every multilinear identity of the package, as one table and one scan.

Every identity handled here is multilinear, so it holds for all vectors iff
it holds on all basis tuples.  Each one is a row of IDENTITIES: two sides
written as signed sums of products over the variables x, y, z, under named
operations ("op", or "left" and "right" for a dendriform pair) and named
linear maps ("d" for delta, applied twice for its square, "R" and "lam"
for a Rota-Baxter operator and its weight, "P" for an endomorphism).  One
scan walks basis tuples in lexicographic order and reports the first
violation as a witness carrying the offending indices and both evaluated
sides.  It walks one tuple per orbit of the row's symmetries: the swaps
of two variables that take lhs - rhs, multiplied out, to plus or minus
itself, as written or, when every operation of the row is skew, by the
rule op(a, b) = -op(b, a).  Its first violation is the first of the walk
over every tuple.  A subterm on basis vectors alone, such as [y, z] or
delta x, is read off the operation's index of basis products or the
map's columns, so it costs no product at all; every other subterm is
evaluated at most once per walked tuple, however often the row repeats
it.  A product or map image with an empty operand, a sum whose parts are
all empty and an empty side are the shared empty product, with no kernel
called; on the catalog's nilpotent, sparse tables most products have an
empty operand.
Verdicts are computed from the structure constants themselves; a kind
hint on the algebra is never trusted.  The Leibniz rule is decided by its
row compiled into integer rows over the map's entries (Identity.linear_rows,
BilinearOp.leibniz); its scan only builds the witness, on the first pair
those rows reject.

Axiom identifiers form a closed set (AXIOM_IDS).  The ones prefixed with
"invder" and the two "zinbiel_aux" identities take a linear map delta in
addition to the operation; "identity_25" requires delta to be a derivation
of the operation and refuses to run otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import gcd, lcm
from operator import mul

from .errors import InputError, InvderError
from .linalg import Value, Vector, _set
from .model import (KINDS, SINGLE_KINDS, Algebra, BilinearOp, LinearMap,
                    sparse_to_vector)

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
    twisting it.  Rows that are not axioms run through identity_report,
    and the Leibniz rule through leibniz_witness.  A row that needs a
    derivation refuses maps that are not.  The arity and the operations
    and maps a row names are read off its two sides, and so, when a scan
    first needs them, are its degrees in the maps and the symmetries of
    its residual lhs - rhs: symmetries lists each pair (i, j), i < j, of
    variable positions whose swap takes the residual to itself (sign 1)
    or to its negative (-1) on any table, and skew_symmetries does the
    same once every operation of the row obeys op(a, b) = -op(b, a).
    """

    def __init__(self, id: str, lhs: Term, rhs: Term,
                 bundle: str | None = None, *, axiom: bool = True,
                 needs_derivation: bool = False):
        self.id, self.lhs, self.rhs, self.bundle = id, lhs, rhs, bundle
        self.axiom, self.needs_derivation = axiom, needs_derivation
        names = lhs.names | rhs.names
        self.arity = len(lhs.variables | rhs.variables)
        self.ops = frozenset(h for h, n in names if n == 2)
        self.maps = frozenset(h for h, n in names if n == 1)

    @cached_property
    def degrees(self) -> dict[str, int]:
        """The maps whose every monomial, on both sides multiplied out, has
        one degree in them, with that degree."""
        out = {}
        for name in self.maps:
            found = {_degree(m, name) for side in (self.lhs, self.rhs)
                     for m in _monomials(side)}
            if len(found) == 1:
                out[name] = found.pop()
        return out

    @cached_property
    def residual(self) -> dict[tuple, int]:
        """lhs - rhs as a formal sum of monomials (_monomials)."""
        return _collect(_monomials(self.lhs).items(),
                        ((m, -c) for m, c in _monomials(self.rhs).items()))

    @cached_property
    def symmetries(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return _symmetries(self.residual, self.arity, False)

    @cached_property
    def skew_symmetries(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return _symmetries(self.residual, self.arity, True)

    @cached_property
    def evaluate(self):
        """The row compiled once into a function of (tuples, ops, maps,
        units) that returns the first tuple where the sides differ, with
        both sides, or None.

        One recursive pass over the two sides writes each distinct subterm
        as one line of the loop body, just before its first use, on the
        local names of the variables (_STEP_CODE).  An operation of two
        variables and a map of one are reads, an index into the
        operation's index of basis products or the map's columns; a
        variable that anything else takes is its unit vector.  Every line
        runs on every tuple, but a product or an image with an empty
        operand, and a sum whose parts are all empty, calls no kernel and
        takes the shared empty product NO instead; an empty side is NO.
        The operations and maps are looked up on every call, so the
        function is shared by every scan of the row.
        """
        bound: dict[str, str] = {}
        lines: dict[str, str] = {}  # expression -> the local name it sets

        def visit(t: Term) -> str:
            if t.head in VARIABLES:
                expr = f"units[{t.head}]"
            elif t.head == "+":
                if not t.args:
                    return "NO"
                parts = [(c, visit(a)) for c, a in t._signed()]
                expr = "signed((" + "".join(
                    f"({c}, {a}), " for c, a in parts) + ")) if " \
                    + " or ".join(a for _, a in parts) + " else NO"
            else:
                read = all(a.head in VARIABLES for a in t.args)
                source, name, form = _STEP_CODE[len(t.args) == 1, read]
                name = name.format(t.head)
                bound[name] = source.format(t.head)
                expr = form.format(name, *(a.head if read else visit(a)
                                           for a in t.args))
            return lines.setdefault(expr, f"s{len(lines)}")

        lhs, rhs = visit(self.lhs), visit(self.rhs)
        source = "\n".join([
            "def evaluate(tuples, ops, maps, units):",
            *(f"    {name} = {value}" for name, value in bound.items()),
            "    for t in tuples:",
            f"        {', '.join(VARIABLES[:self.arity])}, = t",
            *(f"        {name} = {expr}" for expr, name in lines.items()),
            f"        if {lhs} != {rhs}:",
            f"            return t, {lhs}, {rhs}",
            "    return None"])
        namespace = {"signed": _signed_sum, "NO": _NO_PRODUCT}
        exec(compile(source, f"<identity {self.id}>", "exec"), namespace)
        return namespace["evaluate"]

    def walk(self, ops: dict[str, BilinearOp], dim: int) -> tuple:
        """The orbit walk (_orbit_walk) of this row on ops: of its
        skew_symmetries when every operation it names is skew, and of its
        symmetries otherwise."""
        return _orbit_walk(self.arity, self.skew_symmetries if all(
            ops[name].is_skew() for name in self.ops) else self.symmetries,
            dim)

    def linear_rows(self, op: BilinearOp) -> Rows:
        """This row, of one operation and linear in its one map, as integer
        rows over the map's entries, entry (a, b) at a*n + b, grouped by
        the tuple of the row's walk on op (walk) that first gives them:
        each coordinate of the residual (_linear_forms), scaled by
        _primitive.  A map satisfies the row iff every row vanishes on it.
        """
        if self.ops != {"op"} or len(self.maps) != 1 \
                or set(self.degrees.values()) != {1}:
            raise ValueError(f"{self.id} is not linear in one map of op")
        forms, seen, grouped = _linear_forms(self, op), set(), []
        for t in self.walk({"op": op}, op.dim):
            fresh = []
            for _, form in sorted(forms.get(t, {}).items()):
                r = _primitive(form)
                if r is not None and r not in seen:
                    seen.add(r)
                    fresh.append(r)
            if fresh:
                grouped.append((t, tuple(fresh)))
        return tuple(grouped)


# how a compiled row writes a map or operation subterm, keyed (is a map, is
# a read): what it binds once per call, under which local name, and the
# expression on that name and the subterm's arguments; a kernel is called
# only on nonempty operands, and NO stands for its zero result otherwise
_STEP_CODE = {
    (True, True): ("maps[{0!r}].columns()", "cols_{0}", "{0}[{1}]"),
    (True, False): ("maps[{0!r}].apply_sparse", "apply_{0}",
                    "{0}({1}) if {1} else NO"),
    (False, True): ("ops[{0!r}]._index()", "index_{0}", "{0}[{1}].get({2}, NO)"),
    (False, False): ("ops[{0!r}].mul_sparse", "mul_{0}",
                     "{0}({1}, {2}) if {1} and {2} else NO"),
}


def _monomials(t: Term) -> dict[tuple, int]:
    """t as a formal sum: each monomial a nested tuple (head, *arguments),
    a variable (name,), with its nonzero integer coefficient.  Sums inside
    an operation or a map are multiplied out."""
    if t.head in VARIABLES:
        return {(t.head,): 1}
    if t.head == "+":
        return _collect(*([(m, c * k) for m, k in _monomials(a).items()]
                          for c, a in zip(t.coeffs, t.args)))
    parts = [((t.head,), 1)]
    for a in t.args:
        parts = [(m + (n,), c * k) for m, c in parts
                 for n, k in _monomials(a).items()]
    return _collect(parts)


def _collect(*sums) -> dict[tuple, int]:
    """The monomials of the (monomial, coefficient) pairs of sums, with
    their coefficients added up, and those that cancel left out."""
    out: dict[tuple, int] = {}
    for pairs in sums:
        for m, c in pairs:
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _renamed(m: tuple, swap: dict[str, str]) -> tuple:
    if m[0] in VARIABLES:
        return (swap.get(m[0], m[0]),)
    return (m[0], *(_renamed(a, swap) for a in m[1:]))


def _skew_normal(m: tuple, c: int) -> tuple[tuple, int]:
    """m with the two arguments of every operation in order, by the rule
    op(a, b) = -op(b, a), and c times the sign that puts them so."""
    if m[0] in VARIABLES:
        return m, c
    args = []
    for a in m[1:]:
        a, c = _skew_normal(a, c)
        args.append(a)
    if len(args) == 2 and args[1] < args[0]:
        args, c = args[::-1], -c
    return (m[0], *args), c


def _symmetries(residual: dict[tuple, int], arity: int,
                skew: bool) -> tuple[tuple[tuple[int, int], int], ...]:
    """Each pair i < j of variable positions, in order, with 1 if swapping
    the two variables takes the residual to itself and -1 if to its
    negative (a residual that vanishes formally counts as the latter);
    with skew, both sides are first brought to the skew normal form.
    Pairs with neither are left out."""
    def normal(pairs):
        return _collect(_skew_normal(m, c) for m, c in pairs) if skew \
            else _collect(pairs)

    residual = normal(residual.items())
    negated = {m: -c for m, c in residual.items()}
    out = []
    for i, j in combinations(range(arity), 2):
        swap = {VARIABLES[i]: VARIABLES[j], VARIABLES[j]: VARIABLES[i]}
        image = normal((_renamed(m, swap), c) for m, c in residual.items())
        if image == negated:
            out.append(((i, j), -1))
        elif image == residual:
            out.append(((i, j), 1))
    return tuple(out)


def _degree(m: tuple, name: str) -> int:
    """The degree in the map name of the monomial m (_monomials)."""
    if m[0] in VARIABLES:
        return 0
    return (m[0] == name) + sum(_degree(a, name) for a in m[1:])


# a sparse integer row: the positions of its nonzero coefficients, and them
IntRow = tuple[tuple[int, ...], tuple[int, ...]]
Rows = tuple[tuple[tuple[int, ...], tuple[IntRow, ...]], ...]


def _linear_forms(row: Identity,
                  op: BilinearOp) -> dict[tuple, dict[int, dict[int, int]]]:
    """The residual of row on the basis tuples where any term lands, per
    coordinate the coefficient of each entry of the map: each monomial on
    all tuples at once, by joins over the nonzero products of op's index."""
    n, idx = op.dim, op._index()
    products = [(i, j, p) for i, r in enumerate(idx) for j, p in r.items()]
    if not products:  # every monomial joins its variables by op
        return {}
    rows, cols = {i for i, _, _ in products}, {j for _, j, _ in products}
    weights = [n ** (row.arity - 1 - q) for q in range(row.arity)]

    def value(m: tuple, need) -> dict[int, list[tuple[int, int, int]]]:
        # per coordinate in need, (tuple coded by weights, entry, coefficient)
        # terms; the entry is -1 until the map, once in each monomial, sets it
        if m[0] in VARIABLES:
            w = weights[VARIABLES.index(m[0])]
            return {a: [(a * w, -1, 1)] for a in need}
        if len(m) == 2:
            terms = [(s, j, c) for j, at in value(m[1], range(n)).items()
                     for s, _, c in at]
            return {i: [(s, i * n + j, c) for s, j, c in terms] for i in need}
        left, right, out = value(m[1], rows), value(m[2], cols), {}
        for i, j, p in products:
            for s, e, a in left.get(i, ()):
                for r, f, b in right.get(j, ()):
                    t, g, c = s + r, max(e, f), a * b
                    for k, v in p.items():
                        out.setdefault(k, []).append((t, g, c * v))
        return out

    forms: dict[int, dict[int, dict[int, int]]] = {}
    for m, c in row.residual.items():
        for k, at in value(m, range(n)).items():
            for s, e, v in at:
                form = forms.setdefault(s, {}).setdefault(k, {})
                form[e] = form.get(e, 0) + c * v
    return {tuple(s // w % n for w in weights): form
            for s, form in forms.items()}


def _primitive(row: dict) -> IntRow | None:
    """A nonzero row as coprime integers with a positive first one."""
    cells = sorted(e for e, v in row.items() if v)
    if not cells:
        return None
    values = [row[e] for e in cells]
    if Fraction in map(type, values):
        den = lcm(*(v.denominator for v in values))
        values = [int(v * den) for v in values]
    g = gcd(*values) if values[0] > 0 else -gcd(*values)
    return tuple(cells), tuple(values if g == 1 else [v // g for v in values])


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
                 "lie"),
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
        Identity("invder_jacobi",
                 op(d(x), op(y, z)) + op(d(y), op(z, x))
                 + op(d(z), op(x, y)), zero, "invder-lie"),
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


class Witness(Value):
    """First basis tuple where an identity breaks, with both sides.

    The sides are kept as the scan found them: sparse vectors of dimension
    dim, both scale times the true ones, and shared with the scan's tables,
    so never mutated.  The Fraction vectors lhs and rhs are built from
    them when first read, so a witness nobody reads costs no Fraction;
    equality, the hash and the repr read those vectors.
    """

    __slots__ = ("indices", "dim", "left", "right", "scale", "_lhs", "_rhs")
    _fields = ("indices", "dim", "left", "right", "scale")
    _compared = ("indices", "lhs", "rhs")

    def __init__(self, indices: tuple[int, ...], dim: int, left: dict,
                 right: dict, scale: int = 1) -> None:
        _set(self, "indices", indices)
        _set(self, "dim", dim)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "scale", scale)
        _set(self, "_lhs", None)
        _set(self, "_rhs", None)

    @property
    def lhs(self) -> Vector:
        if self._lhs is None:
            _set(self, "_lhs", sparse_to_vector(self.dim, self.left,
                                                self.scale))
        return self._lhs

    @property
    def rhs(self) -> Vector:
        if self._rhs is None:
            _set(self, "_rhs", sparse_to_vector(self.dim, self.right,
                                                self.scale))
        return self._rhs

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "lhs": [str(c) for c in self.lhs.entries],
            "rhs": [str(c) for c in self.rhs.entries],
        }


class CheckReport(Value):
    """Outcome of one axiom check; witness present iff the check failed."""

    __slots__ = ("axiom", "holds", "witness")
    _fields = __slots__

    def __init__(self, axiom: str, holds: bool,
                 witness: Witness | None = None) -> None:
        _set(self, "axiom", axiom)
        _set(self, "holds", holds)
        _set(self, "witness", witness)

    def to_dict(self) -> dict:
        data: dict = {"axiom": self.axiom, "holds": self.holds}
        if self.witness is not None:
            data["witness"] = self.witness.to_dict()
        return data


# ---------------------------------------------------------------- the scan


# the product of a basis pair absent from an operation's index, and the
# value of every compiled line with a zero operand and of an empty side;
# like the index itself it is only ever read
_NO_PRODUCT: dict = {}


def _signed_sum(pairs) -> dict:
    out: dict = {}
    for c, part in pairs:
        for k, v in part.items():
            out[k] = out.get(k, 0) + (v if c == 1 else c * v)
    return {k: v for k, v in out.items() if v}


@cache
def _units(dim: int) -> tuple[dict[int, int], ...]:
    return tuple({i: 1} for i in range(dim))


@cache
def _orbit_walk(arity: int, symmetries: tuple, dim: int) -> tuple:
    """The basis tuples t of the dimension with t_i <= t_j for each pair
    (i, j) of positions the residual is symmetric in and t_i < t_j for
    each it is antisymmetric in, in lexicographic order: every tuple when
    there is no such pair.  Built once, and shared by the rows with these
    symmetries.

    Swapping such a pair keeps the set of failing tuples, and swapping one
    out of order gives a lexicographically smaller tuple, so the first
    failure of the walk over every tuple meets each bound; an
    antisymmetric residual vanishes where the two indices are equal.  The
    first failure of this walk is therefore that one.
    """
    return tuple(t for t in product(range(dim), repeat=arity)
                 if all(t[i] < t[j] if sign < 0 else t[i] <= t[j]
                        for (i, j), sign in symmetries))


def _scan(row: Identity, dim: int, ops: dict[str, BilinearOp],
          maps: dict[str, LinearMap], tuples=None) -> Witness | None:
    """First basis tuple where the row's sides differ, or None.

    The walk is the row's orbit walk on ops (Identity.walk), whose witness
    is the first failure of the walk over every basis tuple; tuples, when
    given, replaces it.  The evaluation runs on the lean scalars of the
    sparse kernels (ints where integral) through the row's compiled
    evaluate; the witness keeps both sides so, and converts them to
    Fractions only where they are read.  A map with a denominator that the row is homogeneous
    in, of degree k, is replaced by its integral multiple: both sides are
    then den^k times the true ones, so they differ on the same tuples, and
    the witness divides them back when it converts them.  The lines that
    read a basis product or a column return the dicts shared with the
    operation's index and the map's column cache, which no line mutates.
    """
    scale = 1
    for name, degree in row.degrees.items():
        den = maps[name].matrix.den
        if den != 1:
            maps = {**maps, name: maps[name].integral_multiple()}
            scale *= den ** degree
    found = row.evaluate(row.walk(ops, dim) if tuples is None else tuples,
                         ops, maps, _units(dim))
    if found is None:
        return None
    t, left, right = found
    return Witness(t, dim, left, right, scale)


def identity_report(identity: str, *ops: BilinearOp,
                    **maps: LinearMap) -> CheckReport:
    """Scan a single-operation row of the table on each operation in turn,
    with the maps it names; the witness is the first failing tuple of the
    first operation that fails."""
    row = IDENTITIES[identity]
    return _first_failure(identity, (_scan(row, op.dim, {"op": op}, maps)
                                     for op in ops))


def _first_failure(name: str, witnesses) -> CheckReport:
    """The report of name on the first witness that is not None, which
    ends the walk of witnesses, or that name holds when there is none."""
    for witness in witnesses:
        if witness is not None:
            return CheckReport(name, False, witness)
    return CheckReport(name, True)


def leibniz_witness(op: BilinearOp, delta: LinearMap) -> Witness | None:
    """First basis pair where delta fails the Leibniz rule, if any.

    The pair is the first one with a row of op.leibniz(), the leibniz row
    compiled by Identity.linear_rows, that does not vanish on delta's integer
    numerators, which are delta times its denominator.  The leibniz row of
    the scan then builds the witness on that pair alone; should that scan
    find the pair holding, the two routes disagree, which is a defect of
    this package, and InvderError says so.
    """
    if delta.dim != op.dim:
        raise InputError("map dimension does not match operation dimension")
    flat = delta.matrix.num
    for pair, rows in op.leibniz():
        for cells, coeffs in rows:
            if sum(map(mul, coeffs, map(flat.__getitem__, cells))):
                witness = _scan(IDENTITIES["leibniz"], op.dim, {"op": op},
                                {"d": delta}, tuples=(pair,))
                if witness is None:
                    raise InvderError(
                        "internal inconsistency: a compiled Leibniz row "
                        f"rejects the pair {pair} that the leibniz scan "
                        "accepts")
                return witness
    return None


# ------------------------------------------------------------ the axioms


def run_axiom(alg: Algebra, axiom: str, op_name: str | None = None,
              delta: LinearMap | None = None) -> CheckReport:
    """Run one axiom row by identifier, on the operations Algebra.select
    picks for it: the one op_name names, else the only one, or for a
    dendriform row, which takes no op_name, the pair "left" and "right".
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
    ops = {"op": alg.op(op_name)} if "op" in row.ops \
        else alg.select(op_name, f"axiom {axiom!r}")
    if row.needs_derivation and leibniz_witness(ops["op"], delta) is not None:
        raise InputError(f"{axiom} requires delta to be a derivation")
    witness = _scan(row, alg.dim, ops, maps)
    return CheckReport(axiom, witness is None, witness)


def _known_kind(kind: str) -> str:
    if kind not in KINDS:
        raise InputError(f"unknown structure kind {kind!r}")
    return kind


def kind_axioms(alg: Algebra, kind: str,
                op_name: str | None = None) -> list[CheckReport]:
    """Reports for the defining axioms of a structure kind."""
    return [run_axiom(alg, a, op_name) for a in BUNDLES[_known_kind(kind)]]


def invder_identity_axioms(alg: Algebra, kind: str, delta: LinearMap,
                           op_name: str | None = None) -> list[CheckReport]:
    """Reports for the twist compatibility identities attached to a kind.

    Identities that presuppose a derivation are left to callers that have
    established it.
    """
    axioms = [a for a in BUNDLES[f"invder-{_known_kind(kind)}"]
              if not IDENTITIES[a].needs_derivation]
    return [run_axiom(alg, a, op_name, delta) for a in axioms]


def kinds_satisfied(alg: Algebra, op_name: str | None = None) -> tuple[str, ...]:
    """Single-operation kinds whose axioms actually hold for the table."""
    return tuple(kind for kind in SINGLE_KINDS
                 if all(run_axiom(alg, a, op_name).holds
                        for a in BUNDLES[kind]))
