"""Derivation spaces and invertible derivations.

A linear map delta is a derivation of an operation when
delta(x y) = (delta x) y + x (delta y) on all basis pairs.  Collecting that
rule over every pair and every operation gives a homogeneous linear system
in the n^2 matrix entries of delta; its kernel is the derivation space,
returned with the canonical basis produced by the exact solver.

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
from dataclasses import dataclass, field
from math import lcm
from typing import TYPE_CHECKING

from .axioms import CheckReport, identity_witness, leibniz_witness
from .errors import (InputError, InvderError, NotInvDerError,
                     SingularMatrixError)
from .linalg import Matrix, Vector, solve
from .model import Algebra, BilinearOp, LinearMap
from .rational import Q, ZERO, lean

if TYPE_CHECKING:
    from .poly import Poly

VANISHING_DET = "generic determinant vanishes"


def _selected_ops(alg: Algebra, op_names) -> list[tuple[str, BilinearOp]]:
    if op_names is None:
        return list(alg.ops)
    return [(name, alg.op(name)) for name in op_names]


def _leibniz_report(name: str, delta: LinearMap, ops,
                    entries=None) -> CheckReport:
    for _, op in ops:
        w = leibniz_witness(op, delta, entries)
        if w is not None:
            return CheckReport(name, False, w)
    return CheckReport(name, True)


def is_derivation(delta: LinearMap, alg: Algebra,
                  op_names=None) -> CheckReport:
    """Leibniz rule for delta on every selected operation."""
    if delta.dim != alg.dim:
        raise InputError("map dimension does not match algebra dimension")
    return _leibniz_report("derivation", delta, _selected_ops(alg, op_names))


def check_squared_leibniz(alg: Algebra, op_name: str | None,
                          delta: LinearMap) -> CheckReport:
    """Second order Leibniz expansion for a derivation delta.

    delta^2 (x y) = (delta^2 x) y + x (delta^2 y) + 2 (delta x)(delta y);
    the cross term is what keeps delta^2 from being a derivation itself.
    """
    witness = identity_witness("squared_leibniz", alg.op(op_name), d=delta)
    return CheckReport("squared_leibniz", witness is None, witness)


@dataclass(frozen=True)
class DerivationSpace:
    """Kernel of the Leibniz system, as column-convention matrices."""

    algebra: Algebra
    op_names: tuple[str, ...]
    basis: tuple[LinearMap, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combination(self, coeffs) -> LinearMap:
        """The map sum of c_t basis_t, accumulated in one pass over the
        nonzero entries of the basis maps."""
        coeffs = [c if type(c) is int else lean(Q(c)) for c in coeffs]
        if len(coeffs) != self.dim:
            raise InputError("coefficient count does not match space dimension")
        n = self.algebra.dim
        total = [0] * (n * n)  # lean scalars, as in the sparse kernels
        for c, cells in zip(coeffs, self._cells()):
            if c:
                for e, v in cells:
                    total[e] += c * v
        return LinearMap.from_kernel(n, total)

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

    def _cells(self) -> tuple[tuple[tuple[int, int | Q], ...], ...]:
        """Each basis map's nonzero lean entries with their row-by-row
        positions, collected once per space."""
        cached = getattr(self, "_basis_cells", None)
        if cached is None:
            cached = tuple(tuple((e, v) for e, v in
                                 enumerate(b.lean_entries()) if v)
                           for b in self.basis)
            object.__setattr__(self, "_basis_cells", cached)
        return cached

    def coordinates_of(self, candidate: LinearMap) -> Vector | None:
        """Coordinates of a map in this basis, or None when outside the span."""
        n = self.algebra.dim
        if candidate.dim != n:
            raise InputError("map dimension does not match algebra dimension")
        if self.dim == 0:
            return Vector(()) if candidate.matrix.is_zero() else None
        cols = [b.matrix.entries for b in self.basis]
        system = Matrix(n * n, self.dim,
                        tuple(cols[t][e] for e in range(n * n)
                              for t in range(self.dim)))
        sol = solve(system, Vector(candidate.matrix.entries))
        return sol.particular if sol is not None else None

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
    selected = _selected_ops(alg, op_names)
    rows = dict.fromkeys(row for _, op in selected
                         for _, group in op.leibniz() for row in group)
    cells = []
    for positions, coeffs in rows:
        dense = [ZERO] * (n * n)
        for e, c in zip(positions, coeffs):
            dense[e] = Q(c)
        cells.extend(dense)
    # with no rows (all products vanish) the kernel is every unit map
    kernel = Matrix(len(rows), n * n, tuple(cells)).kernel_basis()
    basis = tuple(LinearMap(Matrix(n, n, v.entries)) for v in kernel)
    return DerivationSpace(alg, tuple(name for name, _ in selected), basis)


@dataclass(frozen=True)
class InvDerVerdict:
    """Flags for one candidate map; accepted means all three hold.

    The reports behind the two derivation flags and the square condition,
    and the inverse, ride along for callers that need them; they are left
    out of equality and of to_dict.  inverse and inverse_derivation are
    None for a singular map.
    """

    is_derivation: bool
    is_invertible: bool
    inverse_is_derivation: bool
    square_condition: bool
    derivation: CheckReport | None = field(default=None, compare=False,
                                           repr=False)
    inverse_derivation: CheckReport | None = field(default=None,
                                                   compare=False, repr=False)
    inverse: LinearMap | None = field(default=None, compare=False, repr=False)
    square: CheckReport | None = field(default=None, compare=False,
                                       repr=False)

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


def _square_condition(delta: LinearMap, ops) -> CheckReport:
    """mu(delta x, delta y) = delta(delta mu(x, y)) on every selected op;
    the witness is the first failing pair of the first failing op."""
    for _, op in ops:
        w = identity_witness("square_condition", op, d=delta)
        if w is not None:
            return CheckReport("square_condition", False, w)
    return CheckReport("square_condition", True)


def _inverse_report(inv: LinearMap, alg: Algebra, op_names) -> CheckReport:
    """is_derivation of the inverse, decided on int arithmetic.

    The Leibniz rows vanish on a map exactly when they vanish on a nonzero
    multiple of it, so they run on the inverse's entries times the lcm of
    their denominators; the witness is built on the inverse itself.
    """
    scale = lcm(*(v.denominator for v in inv.matrix.entries))
    entries = tuple(v.numerator * (scale // v.denominator)
                    for v in inv.matrix.entries)
    return _leibniz_report("inverse_derivation", inv,
                           _selected_ops(alg, op_names), entries)


def is_invder(delta: LinearMap, alg: Algebra, op_names=None) -> InvDerVerdict:
    """Full verdict for one map, with the two equivalent routes cross-checked."""
    deriv = is_derivation(delta, alg, op_names)
    try:
        inv = delta.inverse()
    except SingularMatrixError:
        inv = None
    square = _square_condition(delta, _selected_ops(alg, op_names))
    inverse = None if inv is None else _inverse_report(inv, alg, op_names)
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


@dataclass(frozen=True)
class InvDerAlgebra:
    """An algebra packaged with an accepted InvDer map and its inverse."""

    algebra: Algebra
    delta: LinearMap
    delta_inv: LinearMap

    @staticmethod
    def create(alg: Algebra, delta: LinearMap) -> "InvDerAlgebra":
        return InvDerAlgebra(alg, delta, require_invder(delta, alg).inverse)


@dataclass(frozen=True)
class InvDerSearchResult:
    """Outcome of a bounded search over the derivation space."""

    found: LinearMap | None
    certificate: str | None
    samples_tried: int
    space_dim: int

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

    n = space.algebra.dim
    m = space.dim
    entries = []
    for r in range(n):
        row = []
        for c in range(n):
            p = Poly.const(m, 0)
            for t, b in enumerate(space.basis):
                coeff = b.matrix.entry(r, c)
                if coeff:
                    p = p + Poly.variable(m, t, coeff)
            row.append(p)
        entries.append(row)
    return det_poly(entries)


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
        if not _square_condition(candidate, ops).holds:
            continue
        verdict = is_invder(candidate, alg, op_names)
        if verdict.accepted:
            return InvDerSearchResult(candidate, None, tried, space.dim)
    return InvDerSearchResult(None, None, tried, space.dim)
