"""Formal vector fields as derivations.

A field is an n-tuple of Laurent-polynomial coefficients read as
a_1 d/dx_1 + ... + a_n d/dx_n.  Laurent coefficients are first class: the
meromorphic first-integral machinery of the nilpotent example family needs
them.  Operations that only make sense for formal fields (coefficients in the
maximal ideal) enforce that precondition themselves.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .laurent import _LAYOUTS, LaurentPoly, _combine, _shifted, _unit_triangles
from .laurent import linear_coefficients, sum_of_products, validate_order
from .scalars import Scalar


class BudgetExceededError(RuntimeError):
    """Raised when an iteration or degree budget runs out.

    Distinct from any finite answer: the caller learns that the computation
    was cut off, not that the answer is infinite.
    """


class VectorField:
    """Sigma a_i d/dx_i with exact Laurent-polynomial coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, coeffs: Sequence[LaurentPoly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a vector field needs at least one component")
        dim = coeffs[0].dim
        if len(coeffs) != dim:
            raise ValueError(f"expected {dim} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if c.dim != dim:
                raise ValueError("coefficient dimensions disagree")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @staticmethod
    def zero(dim: int) -> "VectorField":
        return VectorField([LaurentPoly.zero(dim)] * dim)

    @staticmethod
    def from_terms(dim: int, *terms: tuple[LaurentPoly, int]) -> "VectorField":
        """Build from (coefficient, 1-based component index) pairs."""
        coeffs = [LaurentPoly.zero(dim) for _ in range(dim)]
        for poly, index in terms:
            if not 1 <= index <= dim:
                raise ValueError(f"component index {index} out of range 1..{dim}")
            coeffs[index - 1] = coeffs[index - 1] + poly
        return VectorField(coeffs)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_formal(self) -> bool:
        """True iff every coefficient lies in the maximal ideal m."""
        return all(c.in_maximal_ideal() for c in self.coeffs)

    def linear_part(self) -> list[list[Scalar]]:
        """The first-jet matrix A with A[i][j] = coefficient of x_(j+1) in a_(i+1)."""
        if not self.is_formal():
            raise ValueError("linear part is only defined for formal fields")
        return linear_coefficients(self.coeffs)

    def is_nilpotent(self) -> bool:
        """Exact test: the linear part A satisfies A^dim == 0.  A strictly
        triangular A is read off the coefficients' numerators."""
        if self.is_formal() and any(_unit_triangles(self.coeffs, 0)):
            return True
        from .matrices import is_nilpotent_matrix

        return is_nilpotent_matrix(self.linear_part())

    def truncate(self, order: int) -> "VectorField":
        return VectorField([c.truncate(order) for c in self.coeffs])

    def abs_degree(self) -> int:
        return max(c.abs_degree() for c in self.coeffs)

    # -- derivation action ----------------------------------------------------

    def apply(self, g: LaurentPoly, order: int | None = None) -> LaurentPoly:
        """The derivation applied to a function: sum_i a_i dg/dx_i.

        With ``order``, the result truncated at that total degree, formed
        without the products of higher degree; as for ``truncate``, no
        exponent of g or of the coefficients may then be negative.
        """
        if g.dim != self.dim:
            raise ValueError(f"dimension mismatch: field {self.dim}, function {g.dim}")
        if order is not None:
            validate_order(order)
            if not all(p.is_polynomial() for p in (g, *self.coeffs)):
                raise ValueError("truncation is undefined for terms with negative exponents")
        pairs = []
        for i, a in enumerate(self.coeffs, start=1):
            if a.is_zero():
                continue
            dg = g.partial_derivative(i)
            if not dg.is_zero():
                pairs.append((a, dg))
        return sum_of_products(self.dim, pairs, order)

    def bracket(self, other: "VectorField", order: int | None = None) -> "VectorField":
        """Lie bracket [X, Y]: coefficient i is X(Y_i) - Y(X_i), that is
        sum_j X_j dY_i/dx_j - Y_j dX_i/dx_j, formed as one sum of products.

        With ``order``, the bracket truncated at that total degree, formed
        without the products of higher degree; as for ``apply``, no exponent
        of either field may then be negative.
        """
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if order is not None:
            validate_order(order)
            if not all(p.is_polynomial() for p in (*self.coeffs, *other.coeffs)):
                raise ValueError("truncation is undefined for terms with negative exponents")
        xs = [(a, j) for j, a in enumerate(self.coeffs, start=1) if a]
        ys = [(-b, j) for j, b in enumerate(other.coeffs, start=1) if b]
        coeffs = []
        for a, b in zip(self.coeffs, other.coeffs):
            pairs = []
            if b:
                for c, j in xs:
                    db = b.partial_derivative(j)
                    if db:
                        pairs.append((c, db))
            if a:
                for c, j in ys:
                    da = a.partial_derivative(j)
                    if da:
                        pairs.append((c, da))
            coeffs.append(sum_of_products(self.dim, pairs, order))
        return VectorField(coeffs)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __repr__(self):
        return f"VectorField({list(self.coeffs)!r})"

    def __str__(self):
        from .parsing import format_field

        return format_field(self)

    # -- sparse-vector view (for span computations) ---------------------------

    def sparse(self) -> dict[int, tuple[int, int]]:
        """{packed exponent key * dim + component index: (re, im)}, the
        Gaussian-integer numerators of the coefficients over the lcm of
        their denominators: a nonzero multiple of the field, which spans
        the same line.  Ascending keys order the terms by monomial (as
        ``grlex_key`` does), then by component."""
        parts = [c.numerators() for c in self.coeffs]
        den = lcm(*(d for _, d in parts))
        n = self.dim
        out: dict[int, tuple[int, int]] = {}
        for i, (terms, d) in enumerate(parts):
            scale = den // d
            if scale == 1:
                for key, c in terms.items():
                    out[key * n + i] = c
            else:
                for key, (re, im) in terms.items():
                    out[key * n + i] = (re * scale, im * scale)
        return out


class DerivationCache:
    """Memoized images X(x^e) at a jet order of monomials under a formal
    field X (``is_formal``): the columns of its jet action, as
    ``SubstitutionCache`` holds those of a diffeomorphism."""

    def __init__(self, X: VectorField, order: int):
        self.dim = X.dim
        self._layout = _LAYOUTS[X.dim]
        self._cut = self._layout.cut(validate_order(order))
        self._coeffs = [(j, a) for j, a in enumerate(X.coeffs) if a]
        self._images: dict[int, LaurentPoly] = {}

    def monomial_image(self, key: int) -> LaurentPoly:
        """X(x^e) = sum_j e_j x^(e - e_j) a_j truncated at order, for the
        monomial x^e with packed key ``key``."""
        image = self._images.get(key)
        if image is None:
            n, layout, cut = self.dim, self._layout, self._cut
            exps = layout.unpack(key)
            image = self._images[key] = _combine(n, [
                (exps[j], 0, 1, _shifted(n, a._t, a._d, key + layout.lower[j], 1, 0, cut))
                for j, a in self._coeffs if exps[j]
            ])
        return image


def is_first_integral(g: LaurentPoly, fields: Iterable[VectorField]) -> bool:
    """True iff every field kills g."""
    return all(X.apply(g).is_zero() for X in fields)


def default_a_budget(dim: int) -> int:
    """Step budget for nilpotency_degree_a: the example family's maximum
    3*2^(dim-2) - 2 plus slack."""
    return 3 * 2 ** max(dim - 2, 0) + 8


def nilpotency_degree_a(v: LaurentPoly, gens: Sequence[VectorField]) -> int:
    """Largest j such that some composition of j generator-derivations does
    not kill v.

    Works on the linear span of iterated images rather than on composition
    words: the span of all length-(j+1) images is determined by the span of
    length-j images, so saturating spans until one is {0} computes the same
    maximum with polynomially many derivation applications.

    Raises BudgetExceededError when the span has not died within
    ``default_a_budget(v.dim)`` steps; the engine cannot certify
    a(v) = infinity, so running out of budget is reported distinctly from
    every finite answer.
    """
    for X in gens:
        if X.dim != v.dim:
            raise ValueError("generator dimension disagrees with the function")
    if v.is_zero():
        raise ValueError("a(v) is defined for nonzero v only")
    budget = default_a_budget(v.dim)
    from .spans import SparseEchelon

    current = [v]
    depth = 0
    while True:
        ech = SparseEchelon()
        images: list[LaurentPoly] = []
        for w in current:
            for X in gens:
                im = X.apply(w)
                # the numerators span the same line as im
                if not im.is_zero() and ech.insert(im.numerators()[0]):
                    images.append(im)
        if not images:
            return depth
        depth += 1
        if depth > budget:
            raise BudgetExceededError(
                f"a(v) exceeded the step budget {budget}; not decidable at this budget"
            )
        current = images
