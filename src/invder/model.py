"""Finite-dimensional algebras over Q as structure constant tables.

A bilinear operation on an n-dimensional space is a sparse table
c[i][j][k]: the product of basis vectors i and j is the vector with
coordinate k equal to c_ij^k.  Linear maps follow the column convention:
column j of the matrix is the image of basis vector j.

The on-disk format is JSON:

    {
      "name": "heisenberg3",
      "dimension": 3,
      "basis": ["e1", "e2", "e3"],
      "operations": {
        "bracket": {"skew": true, "table": [{"i": 0, "j": 1, "v": [["1", 2]]}]}
      },
      "maps": {"delta_w": [["1", "3", "0"], ["-1", "1", "0"], ["0", "0", "2"]]}
    }

Each map is stored as a list of columns.  A table flagged "skew" may list
only pairs with i < j; the loader fills in the transposed pairs with negated
coefficients, and refuses a transposed pair listed as anything else.
Coefficients are exact rational strings.

The sparse kernels (mul_sparse, apply_sparse and the scans built on them)
run on lean scalars: a value is held as an int when it is integral and as
a Fraction otherwise, so products of integral tables never pay for
Fraction arithmetic.  Each operation keeps one index of its basis
products, keyed [i][j], and each map one tuple of its sparse columns,
each in a slot filled when first read (linalg.Value); the kernels read
them, and a scan reads a product of two basis vectors or the
image of one straight from them, so those shared dicts must never be
mutated.  A map's matrix holds integer numerators over one denominator
(linalg.Matrix); its lean entries and columns are read off them, and its
integral multiple, the map of the numerators alone, is what the integer
checks of a map with a denominator run on.  Every value that leaves the
kernels (matrix and vector entries, structure constants, table entries,
witnesses) is a Fraction again.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .errors import InputError
from .linalg import Matrix, Value, Vector, _set
from .rational import ZERO, Q, format_rational, lean, parse_rational

KINDS = ("lie", "prelie", "associative", "zinbiel", "dendriform")
# the kinds of one operation: all but the dendriform pair
SINGLE_KINDS = tuple(k for k in KINDS if k != "dendriform")

# the Lie families the counterexample search generates (catalog.py); they
# live here so that the command line parser can offer them without
# loading the catalog
FAMILIES = ("abelian", "heisenberg_like", "filiform", "solvable",
            "random_nilpotent_tables")

Sparse = dict[int, Fraction]
# row i maps j to the nonzero coordinates of e_i e_j, as lean scalars;
# pairs whose product is zero are absent
ProductIndex = tuple[dict[int, Sparse], ...]


def _normalise_entry(dim: int, pairs) -> tuple[tuple[int, Fraction], ...]:
    acc: Sparse = {}
    if isinstance(pairs, dict):
        pairs = pairs.items()
    for k, coeff in pairs:
        if not 0 <= k < dim:
            raise InputError(f"basis index {k} out of range for dimension {dim}")
        c = Q(coeff)
        if c:
            acc[k] = acc.get(k, ZERO) + c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


class BilinearOp(Value):
    """Sparse bilinear operation given by rational structure constants."""

    __slots__ = ("dim", "constants", "_idx", "_leibniz", "_skew")
    _fields = ("dim", "constants")

    def __init__(self, dim: int, constants: tuple[tuple[tuple[int, int],
                 tuple[tuple[int, Fraction], ...]], ...]) -> None:
        _set(self, "dim", dim)
        _set(self, "constants", constants)
        _set(self, "_idx", None)
        _set(self, "_leibniz", None)
        _set(self, "_skew", None)

    @staticmethod
    def from_dict(dim: int, table: dict) -> "BilinearOp":
        if dim < 1:
            raise InputError("operation dimension must be at least 1")
        cleaned = {}
        for (i, j), pairs in table.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"pair ({i}, {j}) out of range for dimension {dim}")
            entry = _normalise_entry(dim, pairs)
            if entry:
                cleaned[(i, j)] = entry
        return BilinearOp(dim, tuple(sorted(cleaned.items())))

    def entry(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        return tuple((k, Q(c)) for k, c in self._index()[i].get(j, {}).items())

    def _index(self) -> ProductIndex:
        """The basis products keyed [i][j], with lean coefficients.

        Shared by every kernel and scan of this operation: read it, never
        mutate it.
        """
        cached = self._idx
        if cached is None:
            cached = tuple({} for _ in range(self.dim))
            for (i, j), pairs in self.constants:
                cached[i][j] = {k: lean(c) for k, c in pairs}
            _set(self, "_idx", cached)
        return cached

    def leibniz(self) -> axioms.Rows:
        """The leibniz row compiled by Identity.linear_rows on this product,
        once per instance: a map is a derivation exactly when every row
        vanishes on its entries."""
        cached = self._leibniz
        if cached is None:
            from . import axioms  # axioms imports this module
            cached = axioms.IDENTITIES["leibniz"].linear_rows(self)
            _set(self, "_leibniz", cached)
        return cached

    def is_skew(self) -> bool:
        """Whether e_j e_i = -(e_i e_j) on every basis pair, as the
        skew_symmetry row decides it; read off the index once per instance.
        """
        cached = self._skew
        if cached is None:
            idx = self._index()
            cached = all(idx[j].get(i) == {k: -v for k, v in pairs.items()}
                         for i, row in enumerate(idx)
                         for j, pairs in row.items())
            _set(self, "_skew", cached)
        return cached

    def basis_product(self, i: int, j: int) -> Sparse:
        return dict(self.entry(i, j))

    def mul_sparse(self, x: Sparse, y: Sparse) -> Sparse:
        """Product of two sparse vectors, nonzero coordinates only.

        A kernel: the result holds lean scalars, int wherever a value is
        integral, so it is exact but not always a Fraction.
        """
        idx = self._index()
        out: Sparse = {}
        for i, xi in x.items():
            row = idx[i]
            if not row:
                continue
            for j, yj in y.items():
                pairs = row.get(j)
                if pairs:
                    f = xi * yj
                    for k, c in pairs.items():
                        out[k] = out.get(k, 0) + f * c
        return {k: v for k, v in out.items() if v}

    def opposite(self) -> "BilinearOp":
        flipped = {(j, i): pairs for (i, j), pairs in self.constants}
        return BilinearOp.from_dict(self.dim, flipped)

    def __add__(self, other: "BilinearOp") -> "BilinearOp":
        self._check_dim(other)
        acc: dict[tuple[int, int], list] = {}
        for (i, j), pairs in self.constants + other.constants:
            acc.setdefault((i, j), []).extend(pairs)
        return BilinearOp.from_dict(self.dim, acc)

    def __sub__(self, other: "BilinearOp") -> "BilinearOp":
        return self + other.scale(-1)

    def scale(self, c) -> "BilinearOp":
        c = Q(c)
        scaled = {key: [(k, c * v) for k, v in pairs]
                  for key, pairs in self.constants}
        return BilinearOp.from_dict(self.dim, scaled)

    def twist(self, delta: "LinearMap") -> "BilinearOp":
        """Post-compose with delta: the new product of x and y is delta(x y)."""
        if delta.dim != self.dim:
            raise InputError("map dimension does not match operation dimension")
        return BilinearOp.from_dict(self.dim, {
            (i, j): delta.apply_sparse(pairs)
            for i, row in enumerate(self._index()) for j, pairs in row.items()})

    def compose_left(self, r: "LinearMap") -> "BilinearOp":
        """New product of x and y is (R x) y."""
        if r.dim != self.dim:
            raise InputError("map dimension does not match operation dimension")
        idx = self._index()
        out: dict[tuple[int, int], list] = {}
        for i in range(self.dim):
            for l, c in r.columns()[i].items():
                for j, pairs in idx[l].items():
                    out.setdefault((i, j), []).extend(
                        (k, c * v) for k, v in pairs.items())
        return BilinearOp.from_dict(self.dim, out)

    def _check_dim(self, other: "BilinearOp") -> None:
        if self.dim != other.dim:
            raise InputError("operation dimension mismatch")


class LinearMap(Value):
    """Square matrix acting on the algebra, column j = image of basis j."""

    __slots__ = ("matrix", "_cols", "_integral", "_inverse")
    _fields = ("matrix",)

    def __init__(self, matrix: Matrix) -> None:
        if not matrix.is_square:
            raise InputError("linear maps on an algebra must be square")
        _set(self, "matrix", matrix)
        _set(self, "_cols", None)
        _set(self, "_integral", None)
        _set(self, "_inverse", None)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @staticmethod
    def from_columns(cols) -> "LinearMap":
        return LinearMap(Matrix.from_columns(cols))

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(Matrix.identity(n))

    @staticmethod
    def zero(n: int) -> "LinearMap":
        return LinearMap(Matrix.zeros(n, n))

    @staticmethod
    def diagonal(values) -> "LinearMap":
        values = [Q(v) for v in values]
        n = len(values)
        return LinearMap(Matrix(n, n, tuple(values[i] if i == j else ZERO
                                            for i in range(n) for j in range(n))))

    def apply_sparse(self, x: Sparse) -> Sparse:
        """Image of a sparse vector, nonzero coordinates only.

        A kernel like BilinearOp.mul_sparse: the result holds lean
        scalars, int wherever a value is integral.
        """
        cols = self.columns()
        out: Sparse = {}
        for j, xj in x.items():
            for i, m in cols[j].items():
                out[i] = out.get(i, 0) + xj * m
        return {k: v for k, v in out.items() if v}

    def columns(self) -> tuple[Sparse, ...]:
        """The nonzero entries of every column, as lean scalars; built
        once per map and shared, so never mutated."""
        cols = self._cols
        if cols is None:
            n, flat = self.dim, self.lean_entries()
            cols = tuple({i: v for i in range(n) if (v := flat[i * n + j])}
                         for j in range(n))
            _set(self, "_cols", cols)
        return cols

    def lean_entries(self) -> tuple:
        """The entries row by row, as lean scalars: entry (a, b) at
        a*n + b, where Identity.linear_rows puts it."""
        return self.matrix.lean_entries()

    def integral_multiple(self) -> "LinearMap":
        """The map of the matrix numerators: this map times its
        denominator, itself when integral; built once per map."""
        a = self.matrix
        if a.den == 1:
            return self
        m = self._integral
        if m is None:
            m = LinearMap(Matrix.over(a.rows, a.cols, a.num))
            _set(self, "_integral", m)
        return m

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        return LinearMap(self.matrix.matmul(other.matrix))

    def inverse(self) -> "LinearMap":
        """The inverse map, computed once per map; SingularMatrixError,
        on every call, for a singular one."""
        m = self._inverse
        if m is None:
            m = LinearMap(self.matrix.invert())
            _set(self, "_inverse", m)
        return m

    def is_invertible(self) -> bool:
        return self.matrix.det() != 0

    def scale(self, c) -> "LinearMap":
        return LinearMap(self.matrix.scale(c))

    def commutes_with(self, other: "LinearMap") -> bool:
        return self.compose(other) == other.compose(self)

    def to_columns(self) -> list[list[str]]:
        n, flat = self.dim, self.lean_entries()
        return [[format_rational(flat[i * n + j]) for i in range(n)]
                for j in range(n)]

    @staticmethod
    def from_column_strings(cols, dim: int) -> "LinearMap":
        if not isinstance(cols, list) or len(cols) != dim \
                or any(not isinstance(c, list) or len(c) != dim for c in cols):
            raise InputError("map must be a square array of columns")
        return LinearMap.from_columns([[parse_rational(v) for v in col]
                                       for col in cols])


def sparse_to_vector(dim: int, s: Sparse, den: int = 1) -> Vector:
    """Dense Fraction vector of a sparse one over den, lean scalars
    included."""
    return Vector(tuple(Q(s[i], den) if i in s else ZERO for i in range(dim)))


class Algebra(Value):
    """Named algebra: basis labels plus one or more operations."""

    __slots__ = ("name", "dim", "basis_names", "ops", "kind_hint")
    _fields = __slots__

    def __init__(self, name: str, dim: int, basis_names: tuple[str, ...],
                 ops: tuple[tuple[str, BilinearOp], ...],
                 kind_hint: str | None = None) -> None:
        if dim < 1:
            raise InputError("algebra dimension must be at least 1")
        if len(basis_names) != dim:
            raise InputError("basis label count does not match dimension")
        if not ops:
            raise InputError("algebra needs at least one operation")
        for op_name, op in ops:
            if op.dim != dim:
                raise InputError(f"operation {op_name!r} has wrong dimension")
        if kind_hint is not None and kind_hint not in KINDS:
            raise InputError(f"unknown kind hint {kind_hint!r}")
        if kind_hint == "dendriform":
            if {op_name for op_name, _ in ops} != {"left", "right"}:
                raise InputError('dendriform algebras need ops "left" and "right"')
        elif kind_hint is not None and len(ops) != 1:
            raise InputError(f"kind {kind_hint!r} expects a single operation")
        _set(self, "name", name)
        _set(self, "dim", dim)
        _set(self, "basis_names", basis_names)
        _set(self, "ops", ops)
        _set(self, "kind_hint", kind_hint)

    @staticmethod
    def build(name: str, basis_names, ops: dict[str, BilinearOp],
              kind_hint: str | None = None) -> "Algebra":
        basis = tuple(basis_names)
        return Algebra(name, len(basis), basis, tuple(sorted(ops.items())), kind_hint)

    def op_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def select(self, name: str | None = None,
               pair_reader: str | None = None) -> dict[str, BilinearOp]:
        """The operations a check, twist or passage reads, by name: the
        one op picks, or for a reader of the dendriform pair, which
        pair_reader names ("axiom 'x'"), "left" and "right", and never an
        op name."""
        if pair_reader is None:
            op = self.op(name)
            return dict(self.ops) if name is None else {name: op}
        if name is not None:
            raise InputError(f'{pair_reader} reads the ops "left" and '
                             '"right" and takes no op name')
        return {"left": self.op("left"), "right": self.op("right")}

    def op(self, name: str | None = None) -> BilinearOp:
        """The operation named, looked up directly, else the only one."""
        if name is None:
            if len(self.ops) != 1:
                raise InputError("operation name required: algebra has "
                                 + ", ".join(self.op_names()))
            return self.ops[0][1]
        for op_name, op in self.ops:
            if op_name == name:
                return op
        raise InputError(f"no operation named {name!r} in algebra {self.name!r}")

    def with_ops(self, name: str, ops: dict[str, BilinearOp],
                 kind_hint: str | None = None) -> "Algebra":
        return Algebra.build(name, self.basis_names, ops, kind_hint)


class AlgebraDocument(Value):
    """An algebra together with the named linear maps stored beside it."""

    __slots__ = ("algebra", "maps")
    _fields = __slots__

    def __init__(self, algebra: Algebra,
                 maps: tuple[tuple[str, LinearMap], ...] = ()) -> None:
        _set(self, "algebra", algebra)
        _set(self, "maps", maps)

    @staticmethod
    def build(algebra: Algebra, maps: dict[str, LinearMap] | None = None
              ) -> "AlgebraDocument":
        return AlgebraDocument(algebra, tuple(sorted((maps or {}).items())))

    def map(self, name: str) -> LinearMap:
        for map_name, m in self.maps:
            if map_name == name:
                return m
        raise InputError(f"no map named {name!r} in algebra {self.algebra.name!r}")

    def map_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.maps)


def _int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def skew_completion(table: dict) -> dict:
    """The table, whose entries are lists of (index, coefficient) pairs,
    with the entry of each pair (i, j) negated at (j, i) where it lists
    no (j, i)."""
    full = dict(table)
    for (i, j), pairs in table.items():
        if (j, i) not in table:
            full[(j, i)] = [(k, -c) for k, c in pairs]
    return full


def _parse_table(dim: int, spec: dict) -> BilinearOp:
    if not isinstance(spec, dict) or not isinstance(spec.get("table"), list):
        raise InputError('operation spec must be an object with a "table" list')
    skew = spec.get("skew", False)
    if not isinstance(skew, bool):
        raise InputError(f'"skew" must be true or false, got {skew!r}')
    table: dict[tuple[int, int], list] = {}
    for row in spec["table"]:
        try:
            i, j = _int(row["i"], "table index"), _int(row["j"], "table index")
            pairs = [(_int(k, "basis index"), parse_rational(coeff))
                     for coeff, k in row["v"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed table row: {row!r}") from exc
        if (i, j) in table:
            raise InputError(f"duplicate table entry for pair ({i}, {j})")
        if skew and i == j and any(c for _, c in pairs):
            raise InputError(f"skew table lists a nonzero diagonal pair ({i}, {i})")
        table[(i, j)] = pairs
    op = BilinearOp.from_dict(dim, skew_completion(table) if skew else table)
    if skew and not op.is_skew():
        raise InputError("skew table lists a pair both ways, not negated")
    return op


def algebra_from_dict(data: dict) -> AlgebraDocument:
    """Parse the JSON object form of an algebra file, held to the
    max_dimension cap as soon as its dimension is read, so that no table
    or map of an oversized file is parsed."""
    if not isinstance(data, dict):
        raise InputError("algebra file must be a JSON object")
    try:
        name = data["name"]
        dim = _int(data["dimension"], "dimension")
        basis = data["basis"]
        op_specs = data["operations"]
    except KeyError as exc:
        raise InputError("algebra file needs name, dimension, basis, operations") from exc
    cap = max_dimension()
    if dim > cap:
        raise InputError(f"algebra dimension {dim} exceeds the dimension cap "
                         f"{cap} (INVDER_MAX_DIM)")
    if not isinstance(name, str):
        raise InputError(f"name must be a string, got {name!r}")
    if not isinstance(basis, list):
        raise InputError("basis must be a list of labels")
    if dim < 1:
        raise InputError("algebra dimension must be at least 1")
    if len(basis) != dim:
        raise InputError("basis list length does not match dimension")
    if not isinstance(op_specs, dict) or not op_specs:
        raise InputError("operations must be a non-empty object")
    ops = {op_name: _parse_table(dim, spec) for op_name, spec in op_specs.items()}
    kind = data.get("kind")
    algebra = Algebra.build(name, [str(b) for b in basis], ops, kind)
    map_specs = data.get("maps", {})
    if not isinstance(map_specs, dict):
        raise InputError("maps must be an object of named column lists")
    maps = {}
    for map_name, cols in map_specs.items():
        maps[str(map_name)] = LinearMap.from_column_strings(cols, dim)
    return AlgebraDocument.build(algebra, maps)


def algebra_to_dict(doc: AlgebraDocument) -> dict:
    """Serialise back to the JSON object form, full tables, no skew flag."""
    alg = doc.algebra
    operations = {}
    for op_name, op in alg.ops:
        rows = [{"i": i, "j": j,
                 "v": [[format_rational(c), k] for k, c in pairs]}
                for (i, j), pairs in op.constants]
        operations[op_name] = {"table": rows}
    data: dict = {
        "name": alg.name,
        "dimension": alg.dim,
        "basis": list(alg.basis_names),
        "operations": operations,
    }
    if alg.kind_hint is not None:
        data["kind"] = alg.kind_hint
    if doc.maps:
        data["maps"] = {name: m.to_columns() for name, m in doc.maps}
    return data


def max_dimension() -> int:
    """The INVDER_MAX_DIM dimension cap, 6 by default: algebra_from_dict
    refuses any algebra file above it, and SearchConfig.validate any
    search beyond it or beyond 6."""
    raw = os.environ.get("INVDER_MAX_DIM", "6")
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"INVDER_MAX_DIM must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError("INVDER_MAX_DIM must be positive")
    return cap


def load_algebra(path: str) -> AlgebraDocument:
    """The algebra file at path, through algebra_from_dict; InputError
    for a file that cannot be read or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer beyond the digit limit, or nesting too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return algebra_from_dict(data)


def save_algebra(doc: AlgebraDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(doc), fh, indent=2)
        fh.write("\n")
