"""Sparse multivariate Laurent polynomials with exact Gaussian-rational coefficients.

A value is a finite map from exponent vectors (one integer per variable,
negative exponents allowed) to nonzero scalars.  The same type plays three
roles:

* polynomials and truncated power series (all exponents >= 0),
* elements of the maximal ideal m (additionally every term has total
  degree >= 1),
* genuine Laurent objects such as the meromorphic first-integral data of the
  nilpotent example family, whose intermediates need exponents far below zero.

All operations are pure; no value is mutated after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalars import Scalar

ExponentVector = tuple[int, ...]


def grlex_key(exponents: ExponentVector):
    """Sort key for graded-lex order with x1 > x2 > ... > xn.

    Degree-major; within a degree the monomial with the larger x1 exponent
    comes first.  Used for canonical display order and jet-basis enumeration.
    """
    return (sum(exponents), tuple(-e for e in exponents))


def validate_order(k: int) -> int:
    """Check that a truncation order is a positive integer."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"truncation order must be a positive integer, got {k!r}")
    return k


class LaurentPoly:
    """A sparse Laurent polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[ExponentVector, Scalar] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        clean: dict[ExponentVector, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != dim:
                    raise ValueError(
                        f"exponent vector {exps} has length {len(exps)}, expected {dim}"
                    )
                coeff = Scalar.of(coeff)
                if coeff:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(dim: int, terms: dict[ExponentVector, Scalar]) -> "LaurentPoly":
        """Wrap a terms dict that is valid by construction, skipping the checks.

        For results of the arithmetic only: every key must be an exponent
        tuple of length dim and every value a nonzero Scalar.  The dict is
        taken over, not copied.
        """
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "LaurentPoly":
        return LaurentPoly(dim)

    @staticmethod
    def constant(dim: int, value) -> "LaurentPoly":
        return LaurentPoly(dim, {(0,) * dim: Scalar.of(value)})

    @staticmethod
    def one(dim: int) -> "LaurentPoly":
        return LaurentPoly.constant(dim, 1)

    @staticmethod
    def variable(dim: int, index: int) -> "LaurentPoly":
        """The coordinate x_index (1-based index)."""
        return LaurentPoly.monomial(dim, {index: 1})

    @staticmethod
    def monomial(dim: int, exps: Mapping[int, int] | Iterable[int], coeff=1) -> "LaurentPoly":
        """A single term.  ``exps`` is either a full exponent tuple or a
        {1-based variable index: exponent} mapping."""
        if isinstance(exps, Mapping):
            vec = [0] * dim
            for idx, e in exps.items():
                if not 1 <= idx <= dim:
                    raise ValueError(f"variable index {idx} out of range 1..{dim}")
                vec[idx - 1] = e
            exps = vec
        return LaurentPoly(dim, {tuple(exps): Scalar.of(coeff)})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """True iff no exponent is negative."""
        return all(e >= 0 for exps in self.terms for e in exps)

    def in_maximal_ideal(self) -> bool:
        """True iff the value lies in m: a power series with every term of
        total degree >= 1."""
        return all(
            min(exps) >= 0 and sum(exps) >= 1 for exps in self.terms
        )

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.dim, Scalar(0))

    def min_total_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(sum(exps) for exps in self.terms)

    def abs_degree(self) -> int:
        """Max of sum(|e_i|) over terms; 0 for zero.  Used for degree budgets,
        where Laurent blowup can happen in either direction."""
        if not self.terms:
            return 0
        return max(sum(abs(e) for e in exps) for exps in self.terms)

    def coefficient(self, exps: ExponentVector) -> Scalar:
        return self.terms.get(tuple(exps), Scalar(0))

    def degree_part(self, d: int) -> "LaurentPoly":
        """The homogeneous part of total degree d."""
        return LaurentPoly(
            self.dim, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    # -- ring arithmetic ----------------------------------------------------

    def _check_dim(self, other: "LaurentPoly"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.constant(self.dim, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            s = coeff if acc is None else acc + coeff
            if s:
                terms[exps] = s
            elif acc is not None:
                del terms[exps]
        return LaurentPoly._trusted(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.of(other)
            if not c:
                return LaurentPoly.zero(self.dim)
            return LaurentPoly._trusted(self.dim, {e: v * c for e, v in self.terms.items()})
        self._check_dim(other)
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

    def mul_truncated(self, other: "LaurentPoly", order: int | None) -> "LaurentPoly":
        """Product, dropping terms of total degree > order when order is given.

        The truncated form is only meaningful when both factors are power
        series; callers enforce that.
        """
        self._check_dim(other)
        terms: dict[ExponentVector, Scalar] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if order is not None and sum(exps) > order:
                    continue
                p = ca * cb
                acc = terms.get(exps)
                s = p if acc is None else acc + p
                if s:
                    terms[exps] = s
                elif acc is not None:
                    del terms[exps]
        return LaurentPoly._trusted(self.dim, terms)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        result = LaurentPoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term value (the only invertible elements we need)."""
        if len(self.terms) != 1:
            raise ValueError("only single-term values are invertible in the Laurent ring")
        ((exps, coeff),) = self.terms.items()
        return LaurentPoly(self.dim, {tuple(-e for e in exps): Scalar.of(1) / coeff})

    # -- calculus --------------------------------------------------------

    def partial_derivative(self, index: int) -> "LaurentPoly":
        """Formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.dim:
            raise ValueError(f"variable index {index} out of range 1..{self.dim}")
        i = index - 1
        terms: dict[ExponentVector, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            c = coeff * e
            acc = terms.get(new)
            s = c if acc is None else acc + c
            if s:
                terms[new] = s
            elif acc is not None:
                del terms[new]
        return LaurentPoly(self.dim, terms)

    def truncate(self, order: int) -> "LaurentPoly":
        """Drop every term of total degree > order.

        Only defined for power-series inputs: a negative exponent means the
        value is not in the jet ring and truncation would be meaningless.
        """
        validate_order(order)
        if not self.is_polynomial():
            raise ValueError("truncate is undefined for terms with negative exponents")
        return LaurentPoly(
            self.dim, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.constant(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in graded-lex order (canonical display order)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __repr__(self):
        return f"LaurentPoly({self.dim}, {dict(self.sorted_terms())!r})"

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)


def linear_coefficients(polys: Sequence[LaurentPoly]) -> list[list[Scalar]]:
    """The matrix A with A[i][j] = coefficient of x_(j+1) in polys[i]: the
    linear part of a field's coefficients or of a map's components."""
    dim = polys[0].dim
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    return [[p.coefficient(e) for e in units] for p in polys]


def substitute(
    g: LaurentPoly,
    phi: list[LaurentPoly] | tuple[LaurentPoly, ...],
    order: int,
    _cache: "SubstitutionCache | None" = None,
) -> LaurentPoly:
    """Truncated composition g(phi_1, ..., phi_n) mod m^(order+1).

    Requires g to be a polynomial (no negative exponents) and every phi_i to
    be a power-series element with zero constant term, so each monomial image
    has minimal degree >= its total degree and the result is well defined at
    the given order.
    """
    validate_order(order)
    if not g.is_polynomial():
        raise ValueError("substitution target has negative exponents")
    if len(phi) != g.dim:
        raise ValueError(f"expected {g.dim} substitution components, got {len(phi)}")
    cache = _cache if _cache is not None else SubstitutionCache(phi, order)
    if cache.order != order or len(cache.phi) != g.dim:
        raise ValueError("substitution cache does not match this call")
    terms: dict[ExponentVector, Scalar] = {}
    for exps, coeff in g.terms.items():
        if sum(exps) > order:
            continue  # the image lies in m^(order+1)
        for e, c in cache.monomial_image(exps).terms.items():
            p = c * coeff
            acc = terms.get(e)
            s = p if acc is None else acc + p
            if s:
                terms[e] = s
            elif acc is not None:
                del terms[e]
    return LaurentPoly._trusted(cache.out_dim, terms)


class SubstitutionCache:
    """Memoized truncated powers of a substitution tuple.

    Composition, jet-matrix assembly and the jet-action logarithm all
    substitute many monomials into the same tuple; sharing the power cache is
    what makes those paths polynomial in the number of monomials of degree
    <= order.
    """

    def __init__(self, phi, order: int):
        phi = tuple(phi)
        if not phi:
            raise ValueError("empty substitution tuple")
        out_dim = phi[0].dim
        for i, comp in enumerate(phi, start=1):
            if comp.dim != out_dim:
                raise ValueError("substitution components have mixed dimensions")
            if not comp.is_polynomial():
                raise ValueError(f"substitution component {i} has negative exponents")
            if comp.constant_term():
                raise ValueError(f"substitution component {i} has a nonzero constant term")
        self.phi = tuple(comp.truncate(order) for comp in phi)
        self.order = order
        self.out_dim = out_dim
        # powers[i][a] = phi_i ** a truncated at order
        self._powers: list[dict[int, LaurentPoly]] = [
            {0: LaurentPoly.one(out_dim), 1: comp} for comp in self.phi
        ]
        self._images: dict[ExponentVector, LaurentPoly] = {}

    def component_power(self, i: int, a: int) -> LaurentPoly:
        powers = self._powers[i]
        if a not in powers:
            prev = self.component_power(i, a - 1)
            powers[a] = prev.mul_truncated(self.phi[i], self.order)
        return powers[a]

    def monomial_image(self, exps: ExponentVector) -> LaurentPoly:
        image = self._images.get(exps)
        if image is None:
            image = LaurentPoly.one(self.out_dim)
            for i, a in enumerate(exps):
                if a:
                    image = image.mul_truncated(self.component_power(i, a), self.order)
            self._images[exps] = image
        return image
