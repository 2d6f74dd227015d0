"""Jet spaces: the monomial basis of m/m^(k+1) and the matrix actions on it.

A diffeomorphism acts on k-jets by g -> g o phi, a vector field by g -> X(g).
Columns of the matrices are indexed by the graded-lex monomial basis, so the
degree filtration makes diffeo actions block-triangular and nilpotent-field
actions nilpotent.
"""

from __future__ import annotations

from math import comb

from .fields import BudgetExceededError, DerivationCache
from .laurent import _LAYOUTS, ExponentVector, LaurentPoly, SubstitutionCache, _monomials
from .laurent import validate_order
from .matrices import Matrix
from .scalars import Scalar


# The largest jet dimension C(dim + order, dim) - 1 of a dense action
# matrix: at dim 3, order 16 (size 968) the jet-matrix command takes 0.7 s
# and 33 MB on a 2-vCPU KVM guest, and the memory grows with the square of
# the size.
JET_MATRIX_BUDGET = 1000


def jet_basis(dim: int, order: int) -> tuple[ExponentVector, ...]:
    """All monomial exponent vectors of total degree 1..order, graded-lex."""
    validate_order(order)
    return tuple(e for d in range(1, order + 1) for e in _monomials(dim, d))


class JetMatrix:
    """A square matrix over the scalars indexed by the jet monomial basis."""

    __slots__ = ("dim", "order", "basis", "matrix")

    def __init__(self, dim: int, order: int, matrix: Matrix, basis=None):
        basis = tuple(basis) if basis is not None else jet_basis(dim, order)
        size = len(basis)
        if len(matrix) != size or any(len(row) != size for row in matrix):
            raise ValueError(f"jet matrix must be {size}x{size} for dim={dim}, order={order}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("JetMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, JetMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.basis == other.basis
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"JetMatrix(dim={self.dim}, order={self.order}, size={self.size})"

    def export_text(self) -> str:
        """Dense row-major listing preceded by the basis monomial header."""
        from .parsing import format_monomial_header, format_scalar

        lines = ["basis: " + format_monomial_header(self.basis)]
        for row in self.matrix:
            lines.append(" ".join(format_scalar(c) for c in row))
        return "\n".join(lines)


def poly_to_coords(g: LaurentPoly, basis, index: dict | None = None) -> list[Scalar]:
    if index is None:
        index = {e: i for i, e in enumerate(basis)}
    coords = [Scalar(0)] * len(basis)
    for exps, coeff in g.terms.items():
        if sum(exps) == 0:
            raise ValueError("jet coordinates are defined for elements of m only")
        coords[index[exps]] = coeff
    return coords


def _action_matrix(dim: int, order: int, column) -> JetMatrix:
    """The jet matrix whose column j holds the coordinates of column(key),
    the cached image of basis monomial j with packed key ``key``.  Raises
    BudgetExceededError, before building the basis, when the jet dimension
    exceeds JET_MATRIX_BUDGET."""
    size = comb(dim + validate_order(order), dim) - 1
    if size > JET_MATRIX_BUDGET:
        raise BudgetExceededError(
            f"the jet matrix at dim {dim}, order {order} would be {size}x{size}, "
            f"over the budget of {JET_MATRIX_BUDGET} rows"
        )
    basis = jet_basis(dim, order)
    index = {e: i for i, e in enumerate(basis)}
    pack = _LAYOUTS[dim].pack
    cols = [poly_to_coords(column(pack(exps)), basis, index) for exps in basis]
    matrix = [list(row) for row in zip(*cols)]
    return JetMatrix(dim, order, matrix, basis)


def to_jet_matrix(phi) -> JetMatrix:
    """Matrix of the action g -> g o phi on m/m^(order+1).

    Column j holds the coordinates of (basis monomial j) o phi.  With this
    convention the action is contravariant: the matrix of phi o psi equals
    matrix(psi) . matrix(phi).
    """
    cache = SubstitutionCache(phi.components, phi.order)
    return _action_matrix(phi.dim, phi.order, cache.monomial_image)


def field_to_jet_matrix(X, order: int) -> JetMatrix:
    """Matrix of the derivation action g -> X(g) on m/m^(order+1).

    Requires a formal field so that the action preserves m.  The matrix of a
    bracket is the commutator of the matrices in operator order:
    matrix([X, Y]) = matrix(X) matrix(Y) - matrix(Y) matrix(X).
    """
    if not X.is_formal():
        raise ValueError("jet action is defined for formal fields only")
    return _action_matrix(X.dim, order, DerivationCache(X, order).monomial_image)
