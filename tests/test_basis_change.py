"""Invariance under a change of basis.

Each catalog entry is moved to a seeded unimodular basis P (the columns of
P are the new basis vectors): its products go through P, and a stored map
M becomes P^-1 M P.  Every verdict that is a property of the algebra and
the map, not of the basis they are written in, must come out the same,
and the twist must commute with the move.  A row/column convention slip
anywhere in the model would break one of these.
"""
import random

import pytest

from invder import (Algebra, BilinearOp, LinearMap, catalog,
                    derivation_space, entry, is_invder, is_rota_baxter,
                    kind_axioms, kinds_satisfied, twist)
from invder.linalg import Matrix

SEEDS = range(6)


def unimodular(rng: random.Random, n: int) -> Matrix:
    """L times U, unit triangular factors with entries +-1 off the
    diagonal, so det P = 1 and P^-1 is integral too."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower).matmul(Matrix.from_rows(upper))


def move_op(op: BilinearOp, p: Matrix, p_inv: Matrix) -> BilinearOp:
    """The product of f_a = P e_a and f_b = P e_b, in the f basis."""
    n = op.dim
    table = {}
    for a in range(n):
        for b in range(n):
            acc = {}
            for i in range(n):
                for j in range(n):
                    f = p.entry(i, a) * p.entry(j, b)
                    if f:
                        for k, c in op.entry(i, j):
                            acc[k] = acc.get(k, 0) + f * c
            table[(a, b)] = {r: sum(p_inv.entry(r, k) * c
                                    for k, c in acc.items())
                             for r in range(n)}
    return BilinearOp.from_dict(n, table)


def move_algebra(alg: Algebra, p: Matrix, p_inv: Matrix) -> Algebra:
    return alg.with_ops(f"{alg.name}@P",
                        {name: move_op(op, p, p_inv) for name, op in alg.ops},
                        alg.kind_hint)


def move_map(m: LinearMap, p: Matrix, p_inv: Matrix) -> LinearMap:
    return LinearMap(p_inv.matmul(m.matrix).matmul(p))


def kinds(alg: Algebra):
    """The kinds a single operation satisfies, or the three dendriform
    verdicts of a pair."""
    if len(alg.ops) == 1:
        return kinds_satisfied(alg)
    return [r.holds for r in kind_axioms(alg, "dendriform")]


@pytest.mark.parametrize("entry_id", [e.id for e in catalog()])
def test_verdicts_do_not_depend_on_the_basis(entry_id):
    e = entry(entry_id)
    alg = e.algebra
    single = len(alg.ops) == 1
    maps = []
    for _, m in e.document.maps:
        verdict = is_invder(m, alg)
        maps.append((m, verdict,
                     is_rota_baxter(m, alg).holds if single else None,
                     twist(alg, m) if verdict.accepted else None))
    for seed in SEEDS:
        rng = random.Random(f"basis:{entry_id}:{seed}")
        p = unimodular(rng, alg.dim)
        p_inv = p.invert()
        moved = move_algebra(alg, p, p_inv)
        assert kinds(moved) == kinds(alg), seed
        assert derivation_space(moved).dim == derivation_space(alg).dim, seed
        for m, verdict, rota_baxter, twisted in maps:
            m_moved = move_map(m, p, p_inv)
            assert is_invder(m_moved, moved).to_dict() \
                == verdict.to_dict(), seed
            if single:
                assert is_rota_baxter(m_moved, moved).holds \
                    == rota_baxter, seed
            if twisted is not None:
                res = twist(moved, m_moved)
                assert res.ok == twisted.ok, seed
                assert res.algebra.ops \
                    == move_algebra(twisted.algebra, p, p_inv).ops, seed
