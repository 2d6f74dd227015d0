"""Rational functions over the Laurent ring: the fraction field K_n at desk scale.

Used where coefficients genuinely live in the function field: decomposing
fields over a generic-rank basis and applying fields to the coefficients.  No
multivariate gcd is attempted; normalization strips monomial content and
tries exact division, which is all the shipped instances need and keeps the
arithmetic honest (equality is decided by cross multiplication, which is
exact regardless of normalization).
"""

from __future__ import annotations

from .laurent import ExponentVector, LaurentPoly
from .scalars import Scalar
from .spans import FieldEchelon


def monomial_split(p: LaurentPoly) -> tuple[ExponentVector, LaurentPoly]:
    """Factor p = x^shift * q where q is a polynomial whose per-variable
    minimum exponent is 0.  Zero splits as (0, 0)."""
    shift = p.min_exponents()
    if not any(shift):
        return shift, p
    return shift, p.times_monomial(tuple(-m for m in shift))


def poly_divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """a / b when b divides a exactly in the polynomial ring, else None.

    Plain leading-term elimination: when the division is exact the leading
    term of the remainder is always divisible by the leading term of b, so
    the loop either terminates with remainder 0 or proves non-divisibility.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    lb, cb = b.leading_term()
    quotient = {}  # the leading monomials strictly decrease, so each is new
    r = a
    while not r.is_zero():
        lr, cr = r.leading_term()
        exps = tuple(x - y for x, y in zip(lr, lb))
        if any(e < 0 for e in exps):
            return None
        c = cr / cb
        quotient[exps] = c
        r = r - b.times_monomial(exps, c)
    return LaurentPoly(a.dim, quotient)


def laurent_divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """a / b in the Laurent ring when exact, else None.  Monomial factors
    divide freely; only the primitive parts need polynomial division."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero")
    if a.is_zero():
        return a
    shift_a, pa = monomial_split(a)
    shift_b, pb = monomial_split(b)
    q = poly_divide_exact(pa, pb)
    if q is None:
        return None
    shift = tuple(x - y for x, y in zip(shift_a, shift_b))
    return q.times_monomial(shift)


class RationalFunction:
    """num/den with LaurentPoly parts, den != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.dim)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.dim != den.dim:
            raise ValueError("numerator/denominator dimension mismatch")
        num, den = self._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _normalize(num: LaurentPoly, den: LaurentPoly):
        if num.is_zero():
            return num, LaurentPoly.one(num.dim)
        q = laurent_divide_exact(num, den)
        if q is not None:
            return q, LaurentPoly.one(num.dim)
        # pull the denominator's monomial content and leading coefficient out
        shift, pden = monomial_split(den)
        inv_lead = Scalar(1) / pden.leading_term()[1]
        return num.times_monomial(tuple(-s for s in shift), inv_lead), pden * inv_lead

    @staticmethod
    def of(value, dim: int | None = None) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, LaurentPoly):
            return RationalFunction(value)
        if dim is None:
            raise ValueError("dim is required to lift a scalar")
        return RationalFunction(LaurentPoly.constant(dim, value))

    @property
    def dim(self) -> int:
        return self.num.dim

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_laurent(self) -> bool:
        return self.den == LaurentPoly.one(self.dim)

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent():
            q = laurent_divide_exact(self.num, self.den)
            if q is None:
                raise ValueError(f"{self!r} is not a Laurent polynomial")
            return q
        return self.num

    def __add__(self, other):
        other = RationalFunction.of(other, self.dim)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.of(other, self.dim))

    def __mul__(self, other):
        other = RationalFunction.of(other, self.dim)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.of(other, self.dim)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFunction.of(other, self.dim) / self

    def __eq__(self, other):
        if isinstance(other, (LaurentPoly, int, Scalar)):
            other = RationalFunction.of(other, self.dim)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalFunction is unhashable (no canonical form)")

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def apply_field_rational(X, h: RationalFunction) -> RationalFunction:
    """Derivation extended to the fraction field by the quotient rule."""
    num, den = h.num, h.den
    return RationalFunction(
        X.apply(num) * den - num * X.apply(den), den * den
    )


def solve_rational(matrix, rhs_columns) -> list[list[RationalFunction]] | None:
    """Solve A x = b for every b in ``rhs_columns`` over the fraction field.

    ``matrix`` is a list of rows of RationalFunction and each right-hand
    column a list with one entry per row.  The rows augmented by all the
    columns go into one ``FieldEchelon``, keyed by column index (A's columns
    first), so A is eliminated once however many columns there are.  Returns
    one solution per column, or None when any column is inconsistent; raises
    on an underdetermined consistent system (callers always supply
    independent columns).
    """
    n_cols = len(matrix[0]) if matrix else 0
    ech = FieldEchelon()
    for i, row in enumerate(matrix):
        augmented = {c: x for c, x in enumerate(row) if x}
        augmented.update((n_cols + j, b[i]) for j, b in enumerate(rhs_columns) if b[i])
        ech.insert(augmented)
    if any(pivot >= n_cols for pivot in ech.rows):
        return None  # a reduced row reads 0 = b_j with b_j != 0
    if ech.dim < n_cols:
        raise ValueError("underdetermined system: columns are not independent")
    return [
        [ech.rows[c].get(j) or RationalFunction.of(0, b[0].dim) for c in range(n_cols)]
        for j, b in enumerate(rhs_columns, start=n_cols)
    ]
