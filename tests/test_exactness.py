"""The lean kernels, the matrix representation, the elimination, the
Leibniz operator and the scan's lookups against plain references.

The sparse kernels hold integral values as ints, a matrix holds integer
numerators over one denominator, rref, det and invert eliminate
fraction-free on integer rows, the Leibniz rule is decided by the sparse
integer rows that Identity.linear_rows compiles from the leibniz row
(BilinearOp.leibniz) on a map's numerators, the scan runs a row compiled
once, reads products of basis vectors and their images off shared tables,
and it walks one basis tuple per orbit of the symmetries each row derives
from its sides.  Each is compared here with a plain computation written
out in this file (dense Fractions, the square rows by their definition
with the matrix square of delta, the full scan of the leibniz row and its
residual on every pair, the dense Leibniz system, the walk over every
tuple), on tables, maps and matrices with zero rows and columns and with
non-integral entries, and every public value is checked to be a
Fraction.
"""
import hashlib
import json
from fractions import Fraction as Q
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invder import (FAMILIES, Algebra, BilinearOp, LinearMap, SearchConfig,
                    catalog, derivation_space, entry, identity_report,
                    is_derivation, is_invder, run_axiom)
from invder.axioms import (BUNDLES, IDENTITIES, VARIABLES, _linear_forms,
                           _orbit_walk, _scan, leibniz_witness)
from invder.catalog import _family_algebras
from invder.errors import SingularMatrixError
from invder.linalg import Matrix
from invder.rational import lean

# integral and non-integral values, the 1/2 of the z3 table among them
VALUES = [Q(0), Q(0), Q(0), Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-2, 3),
          Q(5, 4)]
values = st.sampled_from(VALUES)
nonzero_values = st.sampled_from([v for v in VALUES if v])

# the single-operation rows, each with the maps it names
SINGLE_OP_ROWS = sorted(row.id for row in IDENTITIES.values()
                        if row.ops == {"op"})


@st.composite
def tables(draw, max_dim=3):
    return draw(tables_of(draw(st.integers(1, max_dim))))


@st.composite
def tables_of(draw, n):
    table = {(i, j): {k: draw(values) for k in range(n)}
             for i in range(n) for j in range(n)}
    return BilinearOp.from_dict(n, table)


def square_maps(n):
    return st.lists(values, min_size=n * n, max_size=n * n).map(
        lambda v: LinearMap(Matrix(n, n, tuple(v))))


def z3_with_its_grading():
    doc = entry("z3").document
    return doc.algebra.op(), doc.map("grading123")


@st.composite
def tables_and_maps(draw):
    op = draw(tables())
    return op, draw(square_maps(op.dim))


def sparse_vectors(n):
    return st.lists(values, min_size=n, max_size=n).map(
        lambda v: {i: c for i, c in enumerate(v) if c})


def ref_mul(op: BilinearOp, x: list, y: list) -> list:
    out = [Q(0)] * op.dim
    for (i, j), pairs in op.constants:
        for k, c in pairs:
            out[k] += x[i] * y[j] * c
    return out


def ref_apply(m: LinearMap, x: list) -> list:
    n = m.dim
    return [sum((m.matrix.entry(i, j) * x[j] for j in range(n)), Q(0))
            for i in range(n)]


def ref_eval(term, ops, maps, units):
    """A term on dense Fraction vectors, under the named operations."""
    if term.head in VARIABLES:
        return units[term.head]
    args = [ref_eval(a, ops, maps, units) for a in term.args]
    if term.head == "+":
        out = [Q(0)] * len(units["x"])
        for c, arg in zip(term.coeffs, args):
            out = [o + c * a for o, a in zip(out, arg)]
        return out
    if len(args) == 1:
        return ref_apply(maps[term.head], args[0])
    return ref_mul(ops[term.head], *args)


def ref_witness(identity: str, ops: dict, maps: dict):
    """First basis tuple where the row fails, by dense Fraction evaluation
    over every basis tuple."""
    row = IDENTITIES[identity]
    n = next(iter(ops.values())).dim
    for t in product(range(n), repeat=row.arity):
        units = {v: [Q(int(k == i)) for k in range(n)]
                 for v, i in zip(VARIABLES, t)}
        lhs = ref_eval(row.lhs, ops, maps, units)
        rhs = ref_eval(row.rhs, ops, maps, units)
        if lhs != rhs:
            return t, lhs, rhs
    return None


def as_tuple(witness):
    return None if witness is None else (
        witness.indices, list(witness.lhs.entries), list(witness.rhs.entries))


def dense(sparse: dict, n: int) -> list:
    return [Q(sparse.get(i, 0)) for i in range(n)]


def assert_fractions(values) -> None:
    assert all(type(c) is Q for c in values)


def assert_caches_untouched(ops, maps) -> None:
    """The scan reads the operations' product indices and the maps'
    column caches in place; they must still equal freshly built ones."""
    for op in ops:
        assert op._index() == BilinearOp(op.dim, op.constants)._index()
    for m in maps:
        fresh = LinearMap(m.matrix)
        assert m.columns() == fresh.columns()


class TestLeanKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mul_sparse_matches_plain_fractions(self, data):
        op = data.draw(tables())
        x = data.draw(sparse_vectors(op.dim))
        y = data.draw(sparse_vectors(op.dim))
        out = op.mul_sparse(x, y)
        assert all(type(v) in (int, Q) and v for v in out.values())
        assert dense(out, op.dim) == ref_mul(op, dense(x, op.dim),
                                             dense(y, op.dim))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_apply_sparse_matches_plain_fractions(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(square_maps(n))
        x = data.draw(sparse_vectors(n))
        out = m.apply_sparse(x)
        assert all(type(v) in (int, Q) and v for v in out.values())
        assert dense(out, n) == ref_apply(m, dense(x, n))

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_combination_matches_plain_fractions(self, data):
        op = data.draw(st.sampled_from(STRUCTURED_OPS))
        n = op.dim
        space = derivation_space(Algebra.build(
            "t", [f"e{i}" for i in range(n)], {"m": op}))
        coeffs = [data.draw(values) for _ in range(space.dim)]
        mix = space.combination(coeffs)
        assert list(mix.matrix.entries) == [
            sum((c * b.matrix.entries[e] for c, b in zip(coeffs, space.basis)),
                Q(0)) for e in range(n * n)]
        assert_fractions(mix.matrix.entries)
        # the lean caches it starts with are the ones the map would build
        fresh = LinearMap(mix.matrix)
        assert [(type(v), v) for v in mix.lean_entries()] \
            == [(type(v), v) for v in fresh.lean_entries()]
        assert mix.columns() == fresh.columns()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SINGLE_OP_ROWS), tables_and_maps())
    @example("leibniz", z3_with_its_grading())
    @example("squared_leibniz", z3_with_its_grading())
    @example("square_condition", z3_with_its_grading())
    def test_identity_witness_matches_plain_fractions(self, identity, pair):
        op, d = pair
        maps = {"d": d, "R": d, "P": d,
                "lam": LinearMap.identity(op.dim).scale(Q(1, 2))}
        maps = {k: v for k, v in maps.items()
                if k in IDENTITIES[identity].maps}
        got = identity_report(identity, op, **maps).witness
        assert as_tuple(got) == ref_witness(identity, {"op": op}, maps)
        if got is not None:
            assert_fractions(got.lhs.entries + got.rhs.entries)
        assert_caches_untouched([op], maps.values())

    @settings(max_examples=200, deadline=None)
    @given(tables_and_maps())
    @example(z3_with_its_grading())
    @example((entry("heisenberg3").algebra.op(),
              entry("heisenberg3").document.map("diag112")))
    def test_inverse_report_matches_the_fraction_inverse(self, pair):
        # is_invder scans an integral multiple of the inverse
        op, d = pair
        assume(d.is_invertible())
        alg = Algebra.build("t", [f"e{i}" for i in range(op.dim)], {"m": op})
        got = is_invder(d, alg).inverse_derivation.witness
        want = leibniz_witness(op, d.inverse())
        assert got == want
        if got is not None:
            assert_fractions(got.lhs.entries + got.rhs.entries)

    def test_public_values_stay_fractions(self):
        op = entry("z3").algebra.op()
        assert_fractions(c for _, pairs in op.constants for _, c in pairs)
        assert_fractions(c for i in range(3) for j in range(3)
                         for _, c in op.entry(i, j))
        for e in catalog():
            space = derivation_space(e.algebra)
            for b in space.basis:
                assert_fractions(b.matrix.entries)
            mix = space.combination([(-1) ** t * (t + 1)
                                     for t in range(space.dim)])
            assert_fractions(mix.matrix.entries)
            assert_fractions(mix.compose(mix).matrix.entries)
        delta = entry("heisenberg3").document.map("delta_w")
        assert_fractions(delta.inverse().matrix.entries)


# ------------------------------------------------------- the elimination


def ref_rref(rows: list) -> tuple[list, tuple]:
    """The dense elimination: every cell of every touched row is updated."""
    m = [list(r) for r in rows]
    height, width = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(width):
        pivot_row = next((i for i in range(r, height) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [inv * v for v in m[r]]
        for i in range(height):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == height:
            break
    return m, tuple(pivots)


def ref_det(rows: list) -> Q:
    m = [list(r) for r in rows]
    n = len(m)
    sign, result = Q(1), Q(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Q(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result


@st.composite
def matrices(draw, square=False):
    """Rational matrices, some of their rows and columns zeroed."""
    height = draw(st.integers(1, 5))
    width = height if square else draw(st.integers(1, 6))
    rows = [[draw(values) for _ in range(width)] for _ in range(height)]
    for i in draw(st.sets(st.integers(0, height - 1), max_size=2)):
        rows[i] = [Q(0)] * width
    for j in draw(st.sets(st.integers(0, width - 1), max_size=2)):
        for row in rows:
            row[j] = Q(0)
    return rows


class TestElimination:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_rref_matches_the_dense_elimination(self, rows):
        reduced, pivots = Matrix.from_rows(rows).rref()
        want, want_pivots = ref_rref(rows)
        assert pivots == want_pivots
        assert reduced.row_lists() == want
        assert_fractions(reduced.entries)

    @settings(max_examples=200, deadline=None)
    @given(matrices(square=True))
    def test_det_and_invert_match_the_dense_elimination(self, rows):
        a = Matrix.from_rows(rows)
        n = a.rows
        det = a.det()
        assert type(det) is Q and det == ref_det(rows)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                a.invert()
            return
        inv = a.invert()
        assert_fractions(inv.entries)
        assert a.matmul(inv) == Matrix.identity(n)
        want, _ = ref_rref([row + [Q(int(i == j)) for j in range(n)]
                            for i, row in enumerate(rows)])
        assert inv.row_lists() == [row[n:] for row in want]


# ---------------------------------------------------- the representation


class TestRepresentation:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lean_numerator_and_fraction_forms_agree(self, data):
        height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        entries = [data.draw(values) for _ in range(height * width)]
        den = lcm(*(v.denominator for v in entries)) \
            * data.draw(st.integers(1, 3)) * data.draw(st.sampled_from((1, -1)))
        forms = [Matrix(height, width, tuple(entries)),
                 Matrix(height, width, tuple(lean(v) for v in entries)),
                 # not in lowest terms, and with a negative denominator
                 Matrix.over(height, width, [int(v * den) for v in entries],
                             den)]
        first = forms[0]
        assert first.den > 0 and gcd(first.den, *first.num) == 1
        for m in forms:
            assert m == first and hash(m) == hash(first)
            assert (m.num, m.den) == (first.num, first.den)
            assert list(m.entries) == entries
            assert_fractions(m.entries)
            # an int where integral, a Fraction otherwise
            assert [(type(v), v) for v in m.lean_entries()] \
                == [(type(lean(v)), v) for v in entries]
        # the hash of the entries, as when they were stored as Fractions
        assert hash(first) == hash((height, width, tuple(entries)))
        if height == width:
            columns = [LinearMap(m).to_columns() for m in forms]
            assert columns == [[[str(entries[i * width + j])
                                 for i in range(height)]
                                for j in range(width)]] * len(forms)


# ------------------------------------------------------ the Leibniz operator


def scanned_leibniz(op: BilinearOp, delta: LinearMap):
    """The leibniz row of the scan, walked over every basis pair."""
    return _scan(IDENTITIES["leibniz"], op.dim, {"op": op}, {"d": delta})


def as_dict(witness):
    return None if witness is None else witness.to_dict()


def dense_derivation_basis(ops, n: int) -> list:
    """Kernel of the dense n^3 x n^2 Fraction Leibniz system, one row per
    operation, basis pair and coordinate."""
    rows = []
    for op in ops:
        table = {key: dict(pairs) for key, pairs in op.constants}
        for i, j, k in product(range(n), repeat=3):
            row = [Q(0)] * (n * n)
            for l, c in table.get((i, j), {}).items():
                row[k * n + l] += c
            for m in range(n):
                row[m * n + i] -= table.get((m, j), {}).get(k, 0)
                row[m * n + j] -= table.get((i, m), {}).get(k, 0)
            if any(row):
                rows.append(row)
    if not rows:
        return [tuple(Q(int(e == t)) for e in range(n * n))
                for t in range(n * n)]
    kernel, den = Matrix(len(rows), n * n,
                         tuple(v for row in rows for v in row)).kernel()
    return [tuple(Q(v, den) for v in k) for k in kernel]


@st.composite
def leibniz_candidates(draw, op):
    """A map for op: arbitrary, a derivation, or a derivation with one entry
    changed, so that it fails late in the walk as well as early."""
    n = op.dim
    how = draw(st.sampled_from(("any", "derivation", "changed")))
    if how == "any":
        return draw(square_maps(n))
    space = derivation_space(Algebra.build(
        "t", [f"e{i}" for i in range(n)], {"m": op}))
    delta = space.combination([draw(values) for _ in range(space.dim)])
    if how == "changed":
        entries = list(delta.matrix.entries)
        entries[draw(st.integers(0, n * n - 1))] += draw(nonzero_values)
        delta = LinearMap(Matrix(n, n, tuple(entries)))
    return delta


# structured operations, whose derivation spaces are not zero
STRUCTURED_OPS = [e.algebra.op() for e in catalog()
                  if len(e.algebra.ops) == 1] \
    + [a.op() for family in FAMILIES for a in _family_algebras(
        SearchConfig(family, max_dim=4, tables_per_dim=2))[0]]


# the rows of one operation that are linear in their one map, delta
LINEAR_ROWS = [row for row in IDENTITIES.values() if row.ops == {"op"}
               and row.maps == {"d"} and row.degrees["d"] == 1]


SKEW_OPS = [op for op in STRUCTURED_OPS
            if identity_report("skew_symmetry", op).holds]


def integral_multiple(m: LinearMap) -> tuple:
    scale = lcm(*(v.denominator for v in m.matrix.entries))
    return tuple(int(v * scale) for v in m.matrix.entries)


class TestLeibnizOperator:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_witness_matches_the_full_scan(self, data):
        op = data.draw(st.one_of(tables(), st.sampled_from(STRUCTURED_OPS)))
        delta = data.draw(leibniz_candidates(op))
        got = leibniz_witness(op, delta)
        assert got == scanned_leibniz(op, delta)
        assert as_dict(got) == as_dict(scanned_leibniz(op, delta))
        if not delta.is_invertible():
            return
        inv = delta.inverse()
        want = scanned_leibniz(op, inv)
        assert leibniz_witness(op, inv) == want
        # the rows decide on the numerators, the inverse times the lcm of
        # its denominators, and the witness is the inverse's own
        assert inv.matrix.num == integral_multiple(inv)
        assert as_dict(leibniz_witness(op, inv)) == as_dict(want)
        alg = Algebra.build("t", [f"e{i}" for i in range(op.dim)], {"m": op})
        assert is_invder(delta, alg).inverse_derivation.witness == want

    @pytest.mark.parametrize("entry_id,map_name", [
        ("z3", "grading123"), ("heisenberg3", "delta_w"),
        ("heisenberg3", "diag112"), ("so3", "ad_e1"), ("a3", "delta_A")])
    def test_catalog_maps_match_the_full_scan(self, entry_id, map_name):
        e = entry(entry_id)
        op, delta = e.algebra.op(), e.document.map(map_name)
        for m in (delta, LinearMap.identity(op.dim), delta.compose(delta)):
            assert as_dict(leibniz_witness(op, m)) \
                == as_dict(scanned_leibniz(op, m))

    @staticmethod
    def assert_first_scan_failure(delta: LinearMap, alg: Algebra) -> None:
        report = is_derivation(delta, alg)
        want = next((w for w in (scanned_leibniz(op, delta)
                                 for _, op in alg.ops) if w is not None), None)
        assert report.holds == (want is None)
        assert as_dict(report.witness) == as_dict(want)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_two_operations_match_the_full_scans(self, data):
        left = data.draw(tables())
        right = data.draw(tables_of(left.dim))
        alg = Algebra.build("t", [f"e{i}" for i in range(left.dim)],
                            {"left": left, "right": right})
        for op in (left, right):
            self.assert_first_scan_failure(
                data.draw(leibniz_candidates(op)), alg)

    def test_catalog_dendriform_pair_matches_the_full_scans(self):
        e = entry("a3_dendriform")
        for _, delta in e.document.maps:
            for m in (delta, delta.compose(delta), LinearMap.identity(3)):
                self.assert_first_scan_failure(m, e.algebra)

    def test_derivation_spaces_match_the_dense_system(self):
        algebras = [e.algebra for e in catalog()]
        for family in FAMILIES:
            algebras += _family_algebras(SearchConfig(
                family, max_dim=6, tables_per_dim=3))[0]
        for alg in algebras:
            selections = [None] + ([[name] for name in alg.op_names()]
                                   if len(alg.ops) > 1 else [])
            for names in selections:
                ops = [alg.op(name) for name in names or alg.op_names()]
                space = derivation_space(alg, names)
                assert [b.matrix.entries for b in space.basis] \
                    == dense_derivation_basis(ops, alg.dim), (alg.name, names)
                for b in space.basis:
                    assert_fractions(b.matrix.entries)

    def test_fractional_derivation_bases_match_the_dense_system(self):
        # bases whose maps have denominators 2, 3 and 4: the kernel is read
        # off the integer elimination over one denominator
        algebras = [entry("z3").algebra] + _family_algebras(SearchConfig(
            "random_nilpotent_tables", max_dim=6, tables_per_dim=3))[0]
        for alg in algebras:
            space = derivation_space(alg)
            if all(b.matrix.den == 1 for b in space.basis):
                continue
            ops = [op for _, op in alg.ops]
            dense = dense_derivation_basis(ops, alg.dim)
            assert [b.matrix.entries for b in space.basis] == dense, alg.name
            coeffs = [(-1) ** t * (t + 2) for t in range(space.dim)]
            mix = space.combination(coeffs)
            assert list(mix.matrix.entries) == [
                sum((c * b[e] for c, b in zip(coeffs, dense)), Q(0))
                for e in range(alg.dim ** 2)]
            assert_fractions(mix.matrix.entries)
            assert is_derivation(mix, alg).holds

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_compiled_forms_are_the_scanned_residual(self, data):
        # on every basis tuple, not only those of the orbit walk, the forms
        # at delta's numerators are the scan's residual on its integral
        # multiple, den times the true one; for the leibniz row and every
        # other row linear_rows takes
        row = data.draw(st.sampled_from(LINEAR_ROWS))
        op = data.draw(st.one_of(
            tables(), st.integers(1, 4).flatmap(
                lambda n: sparse_tables_of(n, skew=True)),
            st.sampled_from(STRUCTURED_OPS)))
        delta = data.draw(leibniz_candidates(op))
        forms, num = _linear_forms(row, op), delta.matrix.num
        for t in product(range(op.dim), repeat=row.arity):
            got = {k: sum(c * num[e] for e, c in form.items())
                   for k, form in forms.get(t, {}).items()}
            w = _scan(row, op.dim, {"op": op}, {"d": delta}, tuples=(t,))
            want = {} if w is None else {
                k: w.left.get(k, 0) - w.right.get(k, 0)
                for k in w.left.keys() | w.right.keys()}
            assert {k: v for k, v in got.items() if v} \
                == {k: v for k, v in want.items() if v}, t

    def test_rows_and_bases_are_pinned(self):
        # hashes taken before the rows were compiled from the leibniz row:
        # the grouped rows (pairs, their order, the integer rows) of every
        # catalog operation and criterion-8 hunt table, and the derivation
        # space bases of those algebras, of all their operations and of
        # each one
        algebras = [e.algebra for e in catalog()] + _family_algebras(
            SearchConfig("random_nilpotent_tables", max_dim=6, seed=7,
                         tables_per_dim=10))[0]
        rows, bases = hashlib.sha256(), hashlib.sha256()
        for alg in algebras:
            for _, op in alg.ops:
                rows.update(repr(op.leibniz()).encode() + b"\n")
            for names in [None] + [[name] for name in alg.op_names()]:
                bases.update(json.dumps(
                    derivation_space(alg, names).to_dict()).encode())
        assert rows.hexdigest() == "e333345661d2d157bb4c2790f0dc526b" \
            "42eb0d1f7d0cc1f7b795494f4b558dfa"
        assert bases.hexdigest() == "3c8df6906f1b3f075dbbbcae94a19538" \
            "ea2cc951d65c1913775d1ab86920395e"

    def test_only_rows_linear_in_one_map_compile(self):
        op = entry("heisenberg3").algebra.op()
        for identity in ("jacobi", "square_condition", "rota_baxter"):
            with pytest.raises(ValueError, match="not linear in one map"):
                IDENTITIES[identity].linear_rows(op)
        assert IDENTITIES["leibniz"].linear_rows(op) == op.leibniz()


# ------------------------------------------------- the lookups of the scan


def ref_square_sides(op: BilinearOp, d: LinearMap, identity: str, i, j):
    """Both sides of a square row on (e_i, e_j), by its definition: dense
    Fractions, with delta^2 the matrix square of delta."""
    n = op.dim
    d2 = d.compose(d)
    ei, ej = ([Q(int(k == m)) for k in range(n)] for m in (i, j))
    cross = ref_mul(op, ref_apply(d, ei), ref_apply(d, ej))
    image = ref_apply(d2, ref_mul(op, ei, ej))
    if identity == "square_condition":
        return cross, image
    terms = (ref_mul(op, ref_apply(d2, ei), ej),
             ref_mul(op, ei, ref_apply(d2, ej)), cross, cross)
    return image, [sum(vs, Q(0)) for vs in zip(*terms)]


@st.composite
def structured_derivations(draw):
    op = draw(st.sampled_from(STRUCTURED_OPS))
    return op, draw(leibniz_candidates(op))


@st.composite
def sparse_tables_of(draw, n, skew=False):
    """Tables with few nonzero pairs, so rows fail late or hold; skew
    tables list i < j and negate the transposed pair."""
    pairs = [(i, j) for i in range(n) for j in range(n)
             if not skew or i < j]
    table = {}
    for i, j in pairs:
        if draw(st.booleans()):
            table[(i, j)] = {draw(st.integers(0, n - 1)): draw(nonzero_values)}
            if skew:
                table[(j, i)] = {k: -c for k, c in table[(i, j)].items()}
    return BilinearOp.from_dict(n, table)


class TestScanLookups:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(("square_condition", "squared_leibniz")),
           st.one_of(tables_and_maps(), structured_derivations()))
    @example("squared_leibniz", z3_with_its_grading())
    @example("square_condition", z3_with_its_grading())
    @example("square_condition", (entry("heisenberg3").algebra.op(),
                                  entry("heisenberg3").document.map("delta_w")))
    def test_square_rows_match_the_matrix_square(self, identity, pair):
        op, d = pair
        want = None
        for t in product(range(op.dim), repeat=2):
            lhs, rhs = ref_square_sides(op, d, identity, *t)
            if lhs != rhs:
                want = t, lhs, rhs
                break
        report = identity_report(identity, op, d=d)
        assert as_tuple(report.witness) == want
        if identity == "square_condition":
            alg = Algebra.build("t", [f"e{i}" for i in range(op.dim)],
                                {"m": op})
            report = is_invder(d, alg).square
        assert report.holds == (want is None)
        assert as_tuple(report.witness) == want
        assert_caches_untouched([op], [d])

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_dendriform_rows_match_plain_fractions(self, data):
        n = data.draw(st.integers(1, 3))
        left, right = (data.draw(st.one_of(tables_of(n), sparse_tables_of(n)))
                       for _ in range(2))
        d = data.draw(square_maps(n))
        alg = Algebra.build("t", [f"e{i}" for i in range(n)],
                            {"left": left, "right": right})
        ops = {"left": left, "right": right}
        for axiom in BUNDLES["dendriform"] + BUNDLES["invder-dendriform"]:
            maps = {"d": d} if "d" in IDENTITIES[axiom].maps else {}
            got = run_axiom(alg, axiom, None, maps.get("d")).witness
            assert as_tuple(got) == ref_witness(axiom, ops, maps)
        assert_caches_untouched([left, right], [d])

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(st.integers(1, 4).flatmap(
        lambda n: sparse_tables_of(n, skew=True)),
        st.sampled_from([entry(name).algebra.op()
                         for name in ("so3", "heisenberg3", "filiform_n4")])))
    def test_alternating_jacobi_matches_plain_fractions(self, op):
        alg = Algebra.build("t", [f"e{i}" for i in range(op.dim)], {"m": op})
        assert run_axiom(alg, "skew_symmetry").holds
        got = run_axiom(alg, "jacobi").witness
        want = ref_witness("jacobi", {"op": op}, {})
        assert as_tuple(got) == want
        # on a skew table the first failing tuple of the full walk is
        # strictly increasing, the only tuples the orbit walk takes
        assert want is None or list(want[0]) == sorted(set(want[0]))
        assert_caches_untouched([op], [])

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_alternating_invder_jacobi_matches_the_full_walk(self, data):
        op = data.draw(st.one_of(
            st.integers(1, 4).flatmap(lambda n: sparse_tables_of(n, skew=True)),
            st.sampled_from(SKEW_OPS)))
        # arbitrary maps, derivations, and derivations with one entry changed
        delta = data.draw(leibniz_candidates(op))
        alg = Algebra.build("t", [f"e{i}" for i in range(op.dim)], {"m": op})
        assert run_axiom(alg, "skew_symmetry").holds
        got = run_axiom(alg, "invder_jacobi", None, delta).witness
        want = _scan(IDENTITIES["invder_jacobi"], op.dim, {"op": op},
                     {"d": delta}, tuples=product(range(op.dim), repeat=3))
        assert got == want
        assert as_dict(got) == as_dict(want)
        assert_caches_untouched([op], [delta])


class TestCompiledRows:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(SINGLE_OP_ROWS), tables_and_maps(),
           st.one_of(tables_and_maps(), structured_derivations()))
    def test_interleaved_scans_keep_apart(self, identity, first, second):
        # each row is compiled once; a second scan of it, run while the
        # first is part way through its walk, on another operation and
        # map, must neither see nor change what the first one reads
        row = IDENTITIES[identity]

        def scan_of(pair, tuples=None):
            op, d = pair
            maps = {"d": d, "R": d, "P": d,
                    "lam": LinearMap.identity(op.dim).scale(Q(1, 2))}
            maps = {k: v for k, v in maps.items() if k in row.maps}
            return _scan(row, op.dim, {"op": op}, maps, tuples=tuples), maps

        def alone(pair):
            witness, maps = scan_of(pair)
            assert as_tuple(witness) == ref_witness(identity, {"op": pair[0]},
                                                    maps)
            return witness

        inner = []

        def walk(n):
            for i, t in enumerate(product(range(n), repeat=row.arity)):
                if i == 1:
                    inner.append(scan_of(second)[0])
                yield t

        outer, _ = scan_of(first, walk(first[0].dim))
        assert outer == alone(first)
        assert inner in ([], [alone(second)])
        assert scan_of(second)[0] == alone(second)


@st.composite
def skew_variants(draw):
    """A table and whether it is skew: a skew table, one with a nonzero
    diagonal product or with one coefficient changed, or any table."""
    n = draw(st.integers(1, 4))
    how = draw(st.sampled_from(("skew", "diagonal", "changed", "any")))
    if how == "any":
        return draw(st.one_of(tables_of(n), sparse_tables_of(n))), None
    op = draw(sparse_tables_of(n, skew=True))
    if how == "skew":
        return op, True
    table = {key: dict(pairs) for key, pairs in op.constants}
    i = draw(st.integers(0, n - 1))
    j = i if how == "diagonal" else draw(st.integers(0, n - 1))
    cell = table.setdefault((i, j), {})
    k = draw(st.integers(0, n - 1))
    cell[k] = cell.get(k, 0) + draw(nonzero_values)
    return BilinearOp.from_dict(n, table), False


class TestSkewSymmetry:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(skew_variants())
    @example((entry("so3").algebra.op(), True))
    @example((entry("z3").algebra.op(), False))
    def test_is_skew_is_the_verdict_of_the_row(self, case):
        op, skew = case
        alg = Algebra.build("t", [f"e{i}" for i in range(op.dim)], {"m": op})
        holds = run_axiom(alg, "skew_symmetry").holds
        assert op.is_skew() == holds
        assert skew is None or holds == skew
        assert_caches_untouched([op], [])


# the symmetries each row derives from its sides, on any table and on
# skew tables: the pairs of variables whose swap takes lhs - rhs to itself
# (1) or to its negative (-1)
ROW_SYMMETRIES = {
    "skew_symmetry": ({"xy": 1}, {"xy": -1}),
    "jacobi": ({}, {"xy": -1, "xz": -1, "yz": -1}),
    "associativity": ({}, {"xz": -1}),
    "pre_lie": ({"xy": -1}, {"xy": -1}),
    "zinbiel": ({}, {"yz": -1}),
    "dendriform_1": ({}, {}),
    "dendriform_2": ({}, {}),
    "dendriform_3": ({}, {}),
    "commutativity": ({"xy": -1}, {"xy": -1}),
    "invder_jacobi": ({}, {"xy": -1, "xz": -1, "yz": -1}),
    "invder_prelie": ({"xy": -1}, {"xy": -1}),
    "invder_assoc": ({}, {"xz": -1}),
    "invder_zinbiel": ({}, {"yz": -1}),
    "zinbiel_aux_44": ({"xz": -1}, {"xz": -1}),
    "zinbiel_aux_45": ({"yz": -1}, {"yz": -1}),
    "invder_dend_47": ({}, {}),
    "invder_dend_48": ({}, {}),
    "invder_dend_49": ({}, {}),
    "identity_25": ({}, {"xy": -1, "xz": -1, "yz": -1}),
    "leibniz": ({}, {"xy": -1}),
    "squared_leibniz": ({}, {"xy": -1}),
    "square_condition": ({}, {"xy": -1}),
    "rota_baxter": ({}, {"xy": -1}),
    "multiplicative": ({}, {"xy": -1}),
}

# each row's degree in every map it is homogeneous in, which the scan
# scales a map with a denominator by
ROW_DEGREES = {
    "skew_symmetry": {}, "jacobi": {}, "associativity": {}, "pre_lie": {},
    "zinbiel": {}, "dendriform_1": {}, "dendriform_2": {},
    "dendriform_3": {}, "commutativity": {},
    "invder_jacobi": {"d": 1}, "invder_prelie": {"d": 1},
    "invder_assoc": {"d": 1}, "invder_zinbiel": {"d": 1},
    "zinbiel_aux_44": {"d": 1}, "zinbiel_aux_45": {"d": 1},
    "invder_dend_47": {"d": 1}, "invder_dend_48": {"d": 1},
    "invder_dend_49": {"d": 1}, "identity_25": {"d": 1},
    "leibniz": {"d": 1}, "squared_leibniz": {"d": 2},
    "square_condition": {"d": 2},
    # R and lam appear in summands of different degrees, as P does
    "rota_baxter": {}, "multiplicative": {},
}


def meets(t: tuple, symmetries: tuple) -> bool:
    """Whether t has t_i < t_j for each antisymmetric pair and t_i <= t_j
    for each symmetric one."""
    return all(t[i] < t[j] if sign < 0 else t[i] <= t[j]
               for (i, j), sign in symmetries)


class TestOrbitWalk:
    def test_rows_derive_the_pinned_symmetries(self):
        def named(symmetries):
            return {VARIABLES[i] + VARIABLES[j]: sign
                    for (i, j), sign in symmetries}

        assert {row.id: (named(row.symmetries), named(row.skew_symmetries))
                for row in IDENTITIES.values()} == ROW_SYMMETRIES

    def test_rows_derive_the_pinned_degrees(self):
        assert {row.id: row.degrees
                for row in IDENTITIES.values()} == ROW_DEGREES

    @pytest.mark.parametrize("n", range(6))
    def test_walk_is_the_ordered_tuples_meeting_the_bounds(self, n):
        # each pinned symmetry pattern against a closed form of its own
        basis = range(n)
        for identity, pinned in ROW_SYMMETRIES.items():
            row = IDENTITIES[identity]
            for symmetries, named in zip(
                    (row.symmetries, row.skew_symmetries), pinned):
                walk = list(_orbit_walk(row.arity, symmetries, n))
                if not named:
                    assert walk == list(product(basis, repeat=row.arity))
                elif named == {"xy": 1}:
                    assert walk == list(
                        combinations_with_replacement(basis, 2))
                elif len(named) == row.arity * (row.arity - 1) // 2:
                    # antisymmetric in every pair
                    assert set(named.values()) == {-1}
                    assert walk == list(combinations(basis, row.arity))
                else:
                    # one antisymmetric pair of three variables
                    (pair, sign), = named.items()
                    i, j = (VARIABLES.index(v) for v in pair)
                    assert sign == -1 and all(t[i] < t[j] for t in walk)
                    assert walk == sorted(set(walk))
                    assert len(walk) == n * comb(n, 2)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(sorted(IDENTITIES)), st.data())
    def test_witness_is_the_first_failure_of_the_full_walk(self, identity,
                                                           data):
        row = IDENTITIES[identity]
        n = data.draw(st.integers(1, 4))
        skew = data.draw(st.booleans())
        ops = {name: data.draw(sparse_tables_of(n, skew=skew))
               for name in sorted(row.ops)}
        # arbitrary maps, derivations, and derivations with one entry
        # changed, of the first operation
        d = data.draw(leibniz_candidates(ops[min(ops)]))
        maps = {"d": d, "R": d, "P": d,
                "lam": LinearMap.identity(n).scale(Q(1, 2))}
        maps = {k: v for k, v in maps.items() if k in row.maps}
        want = ref_witness(identity, ops, maps)
        assert as_tuple(_scan(row, n, ops, maps)) == want
        # the first failure of the full walk lies on the orbit walk
        symmetries = row.skew_symmetries \
            if all(op.is_skew() for op in ops.values()) else row.symmetries
        assert want is None or meets(want[0], symmetries)
        assert_caches_untouched(ops.values(), maps.values())


@st.composite
def triangular_tables_of(draw, n):
    """Strictly triangular tables: e_i e_j in the span of the e_k with
    k > max(i, j), so most products of three basis vectors vanish."""
    table = {(i, j): {k: draw(values) for k in range(max(i, j) + 1, n)}
             for i in range(n) for j in range(n)}
    return BilinearOp.from_dict(n, table)


@st.composite
def zero_heavy(draw):
    """An operation, a dendriform pair and a map, with many empty
    products and images: the zero operation with any map, any table with
    the zero map, or a strictly triangular table with any map or one of
    its derivations; the pair has the zero operation for one half."""
    n = draw(st.integers(1, 3))
    how = draw(st.sampled_from(("zero op", "zero map", "triangular")))
    zero = BilinearOp.from_dict(n, {})
    some_op = st.one_of(tables_of(n), sparse_tables_of(n),
                        triangular_tables_of(n))
    if how == "zero op":
        op, d = zero, draw(square_maps(n))
    elif how == "zero map":
        op, d = draw(some_op), LinearMap.zero(n)
    else:
        op = draw(triangular_tables_of(n))
        d = draw(leibniz_candidates(op))
    half = draw(some_op)
    pair = (half, zero) if draw(st.booleans()) else (zero, half)
    return op, pair, d


# strictly triangular in dimension 4, where a product of three basis
# vectors need not vanish
FILIFORM = entry("filiform_n4").algebra.op()


class TestZeroOperands:
    """A compiled row takes the shared empty product where an operand is
    empty; on inputs where most are, every row still gives the witness of
    the dense evaluation."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(zero_heavy())
    @example((FILIFORM, (BilinearOp.from_dict(4, {}), FILIFORM),
              entry("filiform_n4").document.map("grading")))
    @example((FILIFORM, (FILIFORM, BilinearOp.from_dict(4, {})),
              LinearMap.zero(4)))
    def test_every_row_matches_plain_fractions(self, case):
        op, pair, d = case
        n = op.dim
        maps = {"d": d, "R": d, "P": d,
                "lam": LinearMap.identity(n).scale(Q(1, 2))}
        for row in IDENTITIES.values():
            ops = {"op": op} if row.ops == {"op"} \
                else dict(zip(("left", "right"), pair))
            used = {k: v for k, v in maps.items() if k in row.maps}
            want = ref_witness(row.id, ops, used)
            assert as_tuple(_scan(row, n, ops, used)) == want, row.id
        assert as_tuple(leibniz_witness(op, d)) \
            == ref_witness("leibniz", {"op": op}, {"d": d})
        assert_caches_untouched([op, *pair], [d])


class TestMirroredCompositions:
    """twist is written through apply_sparse; it is checked against its
    definition."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(tables_and_maps(), structured_derivations(),
                     st.integers(1, 4).flatmap(sparse_tables_of).flatmap(
                         lambda op: st.tuples(st.just(op),
                                              square_maps(op.dim)))))
    def test_match_plain_fractions(self, pair):
        op, m = pair
        n = op.dim
        twisted = op.twist(m)
        for i, j in product(range(n), repeat=2):
            x, y = ([Q(int(k == t)) for k in range(n)] for t in (i, j))
            assert dense(twisted.basis_product(i, j), n) \
                == ref_apply(m, ref_mul(op, x, y))
        assert_fractions(c for _, pairs in twisted.constants for _, c in pairs)
        assert_caches_untouched([op], [m])
