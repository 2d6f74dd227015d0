import pytest

from germcalc.fields import VectorField
from germcalc.laurent import LaurentPoly
from germcalc.ratfunc import poly_divide_exact
from germcalc.verification import _triangular_coefficients


def var(dim, i):
    return LaurentPoly.variable(dim, i)


def test_poly_divide_exact():
    x, y = var(2, 1), var(2, 2)
    a = (x + y) * (x - y)
    assert poly_divide_exact(a, x + y) == x - y
    assert poly_divide_exact(a, x + y * 2) is None


def test_laurent_divide_exact_with_monomials():
    # division by a monomial is exact in the Laurent ring: multiply by its inverse
    x = var(1, 1)
    assert x * (x ** 2).monomial_inverse() == x ** -1
    a = (x + x ** 2) * LaurentPoly.monomial(1, {1: -3})
    assert a * (x ** -3).monomial_inverse() == x + x ** 2
    with pytest.raises(ValueError):
        (x + x ** 2).monomial_inverse()


def test_apply_field_rational_quotient_rule():
    # X = x^2 d/dx applied to 1/x gives -1
    x = var(1, 1)
    X = VectorField([x ** 2])
    assert X.apply(x.monomial_inverse()) == LaurentPoly.constant(1, -1)


def test_solve_rational_cramer():
    # [x 0; 0 y] [a; b] = [x^2; y], solved by back-substitution over the
    # columns as a triangular field basis
    x, y = var(2, 1), var(2, 2)
    zero = LaurentPoly.zero(2)
    columns = [VectorField([x, zero]), VectorField([zero, y])]
    inverses = [x.monomial_inverse(), y.monomial_inverse()]
    a, b = _triangular_coefficients(VectorField([x * x, y]), columns, inverses)
    assert a == x
    assert b == LaurentPoly.one(2)
