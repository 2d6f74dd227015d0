from fractions import Fraction

import pytest

from germcalc.laurent import LaurentPoly, SubstitutionCache, substitute
from germcalc.scalars import Scalar


def var(dim, i):
    return LaurentPoly.variable(dim, i)


def test_difference_of_squares():
    x1, x2 = var(2, 1), var(2, 2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_laurent_exponent_addition():
    x3inv = LaurentPoly.monomial(3, {3: -1})
    x3sq = LaurentPoly.monomial(3, {3: 2})
    assert x3inv * x3sq == var(3, 3)


def test_meromorphic_inverse_pair():
    # u1 * u1^(-1) = 1 for the three-variable first-integral data
    u1 = LaurentPoly.monomial(3, {2: -2, 3: -2})
    assert u1 * u1.monomial_inverse() == LaurentPoly.one(3)


def test_no_zero_terms_stored():
    x = var(1, 1)
    assert not (x - x).terms
    assert (x * 0).is_zero()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        var(1, 1) + var(2, 1)


def test_truncate_degree_filter():
    x = var(1, 1)
    p = x + x ** 2 + x ** 5
    assert p.truncate(3) == x + x ** 2
    assert p.truncate(3).truncate(3) == p.truncate(3)


def test_truncate_zero():
    assert LaurentPoly.zero(1).truncate(1).is_zero()


def test_truncate_expand_then_filter():
    x = var(1, 1)
    p = (x + x ** 2) ** 2
    assert p.truncate(3) == x ** 2 + x ** 3 * 2


def test_truncate_rejects_laurent():
    with pytest.raises(ValueError):
        LaurentPoly.monomial(1, {1: -1}).truncate(2)


def test_substitute_basic():
    x = var(1, 1)
    g = x ** 2
    assert substitute(g, [x + x ** 2], 3) == x ** 2 + x ** 3 * 2


def test_substitute_identity():
    x1 = var(3, 1)
    phi = [var(3, i) for i in range(1, 4)]
    assert substitute(x1, phi, 5) == x1


def test_substitute_coordinate():
    x = var(1, 1)
    series = x + x ** 2 + x ** 3 + x ** 4
    assert substitute(x, [series], 4) == series


def test_substitute_rejects_constant_term():
    x = var(1, 1)
    with pytest.raises(ValueError):
        substitute(x, [x + LaurentPoly.one(1)], 3)


def test_substitute_rejects_negative_exponents():
    x = var(1, 1)
    with pytest.raises(ValueError):
        substitute(LaurentPoly.monomial(1, {1: -1}), [x], 3)


def test_substitution_cache_reuse():
    x = var(1, 1)
    phi = [x + x ** 2]
    cache = SubstitutionCache(phi, 4)
    a = substitute(x ** 2, phi, 4, _cache=cache)
    b = substitute(x ** 3, phi, 4, _cache=cache)
    assert a == substitute(x ** 2, phi, 4)
    assert b == substitute(x ** 3, phi, 4)


def test_partial_derivative_power_rule():
    p = LaurentPoly.monomial(3, {3: -1})
    assert p.partial_derivative(3) == LaurentPoly.monomial(3, {3: -2}, -1)
    q = LaurentPoly.monomial(3, {2: 2})
    assert q.partial_derivative(1).is_zero()
    r = LaurentPoly.monomial(3, {2: 2, 3: 1})
    assert r.partial_derivative(2) == LaurentPoly.monomial(3, {2: 1, 3: 1}, 2)


def test_partial_derivative_index_range():
    with pytest.raises(ValueError):
        var(2, 1).partial_derivative(3)


def test_maximal_ideal_predicate():
    x = var(2, 1)
    assert (x + x * x).in_maximal_ideal()
    assert not LaurentPoly.one(2).in_maximal_ideal()
    assert not LaurentPoly.monomial(2, {1: -1}).in_maximal_ideal()


def test_pow_negative_requires_monomial():
    x1, x2 = var(2, 1), var(2, 2)
    assert x1 ** -2 == LaurentPoly.monomial(2, {1: -2})
    with pytest.raises(ValueError):
        (x1 + x2) ** -1


def test_scalar_coefficient_arithmetic():
    x = var(1, 1)
    p = x * Scalar(0, 1)  # i*x
    assert p * p == x ** 2 * Scalar(-1)
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
