"""Derivation spaces and invertible derivations.

A linear map delta is a derivation of an operation when
delta(x y) = (delta x) y + x (delta y) on all basis pairs.  Collecting that
rule over every pair and every operation gives a homogeneous linear system
in the n^2 matrix entries of delta, the integer rows of
BilinearOp.leibniz, the leibniz row of the identity table compiled by
Identity.linear_rows; its kernel is the derivation space, returned with the
canonical basis the fraction-free elimination of linalg produces, over one
common denominator, so that a combination of the basis is summed on
integers.

An InvDer map is an invertible derivation whose inverse is again a
derivation.  For any invertible derivation this is equivalent to the square
condition mu(delta x, delta y) = delta^2 mu(x, y); is_invder computes both
routes independently and refuses to return if they ever disagree.  It is
the one place that decides the question, on a source algebra or on one a
construction has built: its verdict also carries the two Leibniz reports,
the square-condition report and the inverse it computed, so no caller
scans or inverts again.
"""

from __future__ import annotations

import random
from math import lcm

from .axioms import (CheckReport, _first_failure, identity_report,
                     leibniz_witness)
from .errors import (InputError, InvderError, NotInvDerError,
                     SingularMatrixError)
from .linalg import Matrix, Value, Vector, _set
from .model import Algebra, BilinearOp, LinearMap
from .rational import Q

VANISHING_DET = "generic determinant vanishes"


def _selected_ops(alg: Algebra, op_names) -> list[BilinearOp]:
    if op_names is None:
        return [op for _, op in alg.ops]
    return [alg.op(name) for name in op_names]


def _leibniz_report(name: str, delta: LinearMap, ops) -> CheckReport:
    return _first_failure(name, (leibniz_witness(op, delta) for op in ops))


def is_derivation(delta: LinearMap, alg: Algebra,
                  op_names=None) -> CheckReport:
    """Leibniz rule for delta on every selected operation."""
    if delta.dim != alg.dim:
        raise InputError("map dimension does not match algebra dimension")
    return _leibniz_report("derivation", delta, _selected_ops(alg, op_names))


class DerivationSpace(Value):
    """Kernel of the Leibniz system, as column-convention matrices."""

    __slots__ = ("algebra", "op_names", "basis", "_basis_cells")
    _fields = ("algebra", "op_names", "basis")

    def __init__(self, algebra: Algebra, op_names: tuple[str, ...],
                 basis: tuple[LinearMap, ...]) -> None:
        _set(self, "algebra", algebra)
        _set(self, "op_names", op_names)
        _set(self, "basis", basis)
        _set(self, "_basis_cells", None)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combination(self, coeffs) -> LinearMap:
        """The map sum of c_t basis_t, accumulated on integers in one pass
        over the nonzero numerators of the basis maps."""
        coeffs = [c if type(c) is int else Q(c) for c in coeffs]
        if len(coeffs) != self.dim:
            raise InputError("coefficient count does not match space dimension")
        n = self.algebra.dim
        cells, den = self._cells()
        # rational coefficients are taken over their common denominator
        scale = lcm(*(c.denominator for c in coeffs))
        total = [0] * (n * n)
        for c, basis_cells in zip(coeffs, cells):
            if c:
                c = c.numerator * (scale // c.denominator)
                for e, v in basis_cells:
                    total[e] += c * v
        return LinearMap(Matrix.over(n, n, total, den * scale))

    def draws(self, rng: random.Random, coefficient_range: int, count: int):
        """The nonzero maps among count draws from the space, as (i, map)
        with i the index of the draw.

        Each draw takes one integer coefficient per basis map, uniform in
        [-coefficient_range, coefficient_range], so a zero-dimensional
        space draws nothing and leaves rng untouched.
        """
        for i in range(count):
            coeffs = [rng.randint(-coefficient_range, coefficient_range)
                      for _ in range(self.dim)]
            if any(coeffs):
                yield i, self.combination(coeffs)

    def _cells(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
        """Each basis map's nonzero numerators over the basis's common
        denominator, with their row-by-row positions, and that
        denominator; collected once per space."""
        cached = self._basis_cells
        if cached is None:
            den = lcm(*(b.matrix.den for b in self.basis))
            cached = tuple(tuple((e, v * (den // b.matrix.den))
                                 for e, v in enumerate(b.matrix.num) if v)
                           for b in self.basis), den
            _set(self, "_basis_cells", cached)
        return cached

    def coordinates_of(self, candidate: LinearMap) -> Vector | None:
        """Coordinates of a map in this basis, or None when outside the span.

        Each canonical basis map is 1 at its free cell, its last nonzero
        one, where the others are 0, so coordinate t is the map's entry at
        basis map t's free cell; the map is in the span when they give it.
        """
        if candidate.dim != self.algebra.dim:
            raise InputError("map dimension does not match algebra dimension")
        entries = candidate.matrix.entries
        coords = tuple(entries[cells[-1][0]] for cells in self._cells()[0])
        in_span = self.combination(coords) == candidate
        return Vector(coords) if in_span else None

    def to_dict(self) -> dict:
        return {"dim": self.dim,
                "ops": list(self.op_names),
                "basis": [b.to_columns() for b in self.basis]}


def derivation_space(alg: Algebra, op_names=None) -> DerivationSpace:
    """Solve the Leibniz system exactly for all selected operations.

    The system is the Leibniz rows of the selected operations, each row
    once; the basis comes from the unique reduced row echelon form, so it
    does not depend on which rows or in which order.
    """
    n = alg.dim
    names = tuple(alg.op_names() if op_names is None else op_names)
    rows = dict.fromkeys(row for op in _selected_ops(alg, names)
                         for _, group in op.leibniz() for row in group)
    cells = [0] * (len(rows) * n * n)
    for r, (positions, coeffs) in enumerate(rows):
        for e, c in zip(positions, coeffs):
            cells[r * n * n + e] = c
    # with no rows (all products vanish) the kernel is every unit map
    kernel, den = Matrix.over(len(rows), n * n, cells).kernel()
    basis = tuple(LinearMap(Matrix.over(n, n, v, den)) for v in kernel)
    return DerivationSpace(alg, names, basis)


class InvDerVerdict(Value):
    """Flags for one candidate map; accepted means all three hold.

    The reports behind the two derivation flags and the square condition,
    and the inverse, ride along for callers that need them; they are left
    out of equality, of the repr and of to_dict.  inverse and
    inverse_derivation are None for a singular map.
    """

    __slots__ = ("is_derivation", "is_invertible", "inverse_is_derivation",
                 "square_condition", "derivation", "inverse_derivation",
                 "inverse", "square")
    _fields = __slots__
    _compared = __slots__[:4]

    def __init__(self, is_derivation: bool, is_invertible: bool,
                 inverse_is_derivation: bool, square_condition: bool,
                 derivation: CheckReport | None = None,
                 inverse_derivation: CheckReport | None = None,
                 inverse: LinearMap | None = None,
                 square: CheckReport | None = None) -> None:
        _set(self, "is_derivation", is_derivation)
        _set(self, "is_invertible", is_invertible)
        _set(self, "inverse_is_derivation", inverse_is_derivation)
        _set(self, "square_condition", square_condition)
        _set(self, "derivation", derivation)
        _set(self, "inverse_derivation", inverse_derivation)
        _set(self, "inverse", inverse)
        _set(self, "square", square)

    @property
    def accepted(self) -> bool:
        return (self.is_derivation and self.is_invertible
                and self.inverse_is_derivation)

    def to_dict(self) -> dict:
        return {
            "is_derivation": self.is_derivation,
            "is_invertible": self.is_invertible,
            "inverse_is_derivation": self.inverse_is_derivation,
            "square_condition": self.square_condition,
            "accepted": self.accepted,
        }


def is_invder(delta: LinearMap, alg: Algebra, op_names=None) -> InvDerVerdict:
    """Full verdict for one map, with the two equivalent routes cross-checked."""
    deriv = is_derivation(delta, alg, op_names)
    try:
        inv = delta.inverse()
    except SingularMatrixError:
        inv = None
    ops = _selected_ops(alg, op_names)
    square = identity_report("square_condition", *ops, d=delta)
    # the Leibniz rows decide on the inverse's integer numerators
    inverse = None if inv is None else _leibniz_report(
        "inverse_derivation", inv, ops)
    inverse_deriv = inverse is not None and inverse.holds
    if deriv.holds and inv is not None and inverse_deriv != square.holds:
        # the two characterisations are provably equivalent for invertible
        # derivations; disagreement means a defect in this package
        raise InvderError(
            "internal inconsistency: inverse-derivation and square-condition "
            "routes disagree for an invertible derivation")
    return InvDerVerdict(deriv.holds, inv is not None, inverse_deriv,
                         square.holds, deriv, inverse, inv, square)


def require_invder(delta: LinearMap, alg: Algebra, op_names=None,
                   what: str = "map") -> InvDerVerdict:
    """The verdict of an accepted map; NotInvDerError for any other."""
    verdict = is_invder(delta, alg, op_names)
    if not verdict.accepted:
        raise NotInvDerError(
            f"{what} is not InvDer for {alg.name!r}: {verdict.to_dict()}")
    return verdict


class InvDerAlgebra(Value):
    """An algebra packaged with an accepted InvDer map and its inverse."""

    __slots__ = ("algebra", "delta", "delta_inv")
    _fields = __slots__

    def __init__(self, algebra: Algebra, delta: LinearMap,
                 delta_inv: LinearMap) -> None:
        _set(self, "algebra", algebra)
        _set(self, "delta", delta)
        _set(self, "delta_inv", delta_inv)

    @staticmethod
    def create(alg: Algebra, delta: LinearMap) -> "InvDerAlgebra":
        return InvDerAlgebra(alg, delta, require_invder(delta, alg).inverse)


class InvDerSearchResult(Value):
    """Outcome of a bounded search over the derivation space."""

    __slots__ = ("found", "certificate", "samples_tried", "space_dim")
    _fields = __slots__

    def __init__(self, found: LinearMap | None, certificate: str | None,
                 samples_tried: int, space_dim: int) -> None:
        _set(self, "found", found)
        _set(self, "certificate", certificate)
        _set(self, "samples_tried", samples_tried)
        _set(self, "space_dim", space_dim)

    def to_dict(self) -> dict:
        data: dict = {
            "found": self.found.to_columns() if self.found else None,
            "samples_tried": self.samples_tried,
            "derivation_space_dim": self.space_dim,
        }
        if self.certificate is not None:
            data["certificate"] = self.certificate
        return data


def generic_determinant(space: DerivationSpace) -> Poly:
    """Determinant of a generic element of the space, as an exact polynomial."""
    # only the search and the catalog need polynomials; the other commands
    # do not load them
    from .poly import Poly, det_poly

    n, m = space.algebra.dim, space.dim
    flats = [b.lean_entries() for b in space.basis]
    # entry e of the generic element is the sum of x_t times entry e of map t
    return det_poly([[sum((Poly.variable(m, t, flat[e])
                           for t, flat in enumerate(flats) if flat[e]),
                          Poly.const(m, 0))
                      for e in range(r * n, r * n + n)] for r in range(n)])


def invder_search(alg: Algebra, op_names=None, *, coefficient_range: int = 3,
                  max_samples: int = 400, seed: int = 0) -> InvDerSearchResult:
    """Look for an accepted InvDer map inside the derivation space.

    Candidates are rational combinations of the derivation basis with integer
    coefficients drawn uniformly from [-coefficient_range, coefficient_range]
    under the given seed, filtered by invertibility and then by the square
    condition.  When the determinant of a generic space element is the zero
    polynomial no invertible derivation exists at all; that is detected
    exactly up front and returned as a certificate instead of sampling.
    """
    if coefficient_range < 1:
        raise InputError("coefficient range must be at least 1")
    if max_samples < 1:
        raise InputError("sample budget must be at least 1")
    space = derivation_space(alg, op_names)
    if space.dim == 0 or generic_determinant(space).is_zero():
        return InvDerSearchResult(None, VANISHING_DET, 0, space.dim)
    ops = _selected_ops(alg, op_names)
    tried = 0
    for _, candidate in space.draws(random.Random(seed), coefficient_range,
                                    max_samples):
        tried += 1
        if not candidate.is_invertible():
            continue
        if not identity_report("square_condition", *ops, d=candidate).holds:
            continue
        verdict = is_invder(candidate, alg, op_names)
        if verdict.accepted:
            return InvDerSearchResult(candidate, None, tried, space.dim)
    return InvDerSearchResult(None, None, tried, space.dim)
