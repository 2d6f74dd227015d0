"""Exact Gaussian-rational scalars.

A scalar is a + b*i with a, b arbitrary-precision rationals.  This is the
coefficient field for everything else in the package: keeping it exact turns
every identity check downstream into a plain equality test.

``Fraction`` already stores rationals in canonical reduced form (coprime
numerator/denominator, positive denominator), so structural equality of the
two parts is the right notion of equality.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction
_ZERO = Fraction(0)


class Scalar:
    """An exact Gaussian rational a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational | int = 0, im: Rational | int = 0):
        # a Fraction is immutable, so one that is passed in is kept, not copied
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(
            self, "im", im if type(im) is Fraction else Fraction(im) if im else _ZERO
        )

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: "Scalar | Rational | int") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar(value)

    @staticmethod
    def rational(p: int, q: int = 1) -> "Scalar":
        return Scalar(Fraction(p, q))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __mul__(self, other):
        other = Scalar.of(other)
        # Real-only values dominate in practice; skip the full complex product.
        if not self.im and not other.im:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if not self.im and not other.im:
            return Scalar(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display ---------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        from .parsing import format_scalar

        return format_scalar(self)


I = Scalar(0, 1)
