import random

import pytest

from conftest import random_poly

from germcalc.laurent import LaurentPoly
from germcalc.ratfunc import (
    RationalFunction,
    apply_field_rational,
    laurent_divide_exact,
    poly_divide_exact,
    solve_rational,
)
from germcalc.fields import VectorField


def var(dim, i):
    return LaurentPoly.variable(dim, i)


def test_poly_divide_exact():
    x, y = var(2, 1), var(2, 2)
    a = (x + y) * (x - y)
    assert poly_divide_exact(a, x + y) == x - y
    assert poly_divide_exact(a, x + y * 2) is None


def test_laurent_divide_exact_with_monomials():
    x = var(1, 1)
    assert laurent_divide_exact(x, x ** 2) == x ** -1
    a = (x + x ** 2) * LaurentPoly.monomial(1, {1: -3})
    assert laurent_divide_exact(a, x ** -3) == x + x ** 2


def test_rational_normalization():
    x = var(1, 1)
    r = RationalFunction(x ** 3 + x ** 2, x)
    assert r.is_laurent()
    assert r.as_laurent() == x ** 2 + x


def test_rational_equality_cross_multiplication():
    x, y = var(2, 1), var(2, 2)
    a = RationalFunction(x, y)
    b = RationalFunction(x * x, x * y)
    assert a == b
    assert a + a == RationalFunction(x * 2, y)
    assert (a * RationalFunction(y, x)) == RationalFunction(LaurentPoly.one(2))


def test_rational_zero_denominator():
    x = var(1, 1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, LaurentPoly.zero(1))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x) / RationalFunction(LaurentPoly.zero(1))


def test_apply_field_rational_quotient_rule():
    # X = x^2 d/dx applied to 1/x gives -1
    x = var(1, 1)
    X = VectorField([x ** 2])
    h = RationalFunction(LaurentPoly.one(1), x)
    assert apply_field_rational(X, h) == RationalFunction(LaurentPoly.constant(1, -1))


def test_solve_rational_cramer():
    x, y = var(2, 1), var(2, 2)
    one = LaurentPoly.one(2)
    # [x 0; 0 y] [a; b] = [x^2; y]
    matrix = [
        [RationalFunction(x), RationalFunction(LaurentPoly.zero(2))],
        [RationalFunction(LaurentPoly.zero(2)), RationalFunction(y)],
    ]
    rhs = [RationalFunction(x * x), RationalFunction(y)]
    [[a, b]] = solve_rational(matrix, [rhs])
    assert a == RationalFunction(x)
    assert b == RationalFunction(one)


def test_solve_rational_inconsistent():
    x = var(2, 1)
    zero = RationalFunction(LaurentPoly.zero(2))
    matrix = [[RationalFunction(x)], [zero]]
    rhs = [RationalFunction(x), RationalFunction(LaurentPoly.one(2))]
    assert solve_rational(matrix, [rhs]) is None


def random_nonzero_poly(rng, dim, max_terms):
    p = LaurentPoly.zero(dim)
    while p.is_zero():
        p = random_poly(rng, dim, max_terms=max_terms, max_degree=2, min_exp=-1)
    return p


def random_entry(rng, size):
    """A random element of K_2: a quotient of small Laurent polynomials for
    2x2 systems, a Laurent monomial for 3x3 ones (without a gcd, eliminating
    a 3x3 matrix of general quotients swells past test budgets)."""
    if size == 3:
        return RationalFunction(random_nonzero_poly(rng, 2, 1))
    return RationalFunction(random_nonzero_poly(rng, 2, 2), random_nonzero_poly(rng, 2, 2))


def mat_vec(matrix, x):
    zero = RationalFunction.of(0, x[0].dim)
    return [sum((a * b for a, b in zip(row, x)), zero) for row in matrix]


def test_solve_rational_columns_match_single_solves():
    # every seeded draw below is nonsingular
    for size in (2, 3):
        for seed in range(4):
            rng = random.Random(100 * size + seed)
            matrix = [[random_entry(rng, size) for _ in range(size)] for _ in range(size)]
            columns = [[random_entry(rng, size) for _ in range(size)] for _ in range(3)]
            singles = [solve_rational(matrix, [b])[0] for b in columns]
            assert solve_rational(matrix, columns) == singles


def test_solve_rational_one_inconsistent_column_gives_none():
    rng = random.Random(7)
    matrix = [[random_entry(rng, 3) for _ in range(2)] for _ in range(3)]
    xs = [[random_entry(rng, 3) for _ in range(2)] for _ in range(2)]
    b1, b2 = (mat_vec(matrix, x) for x in xs)
    stray = [b + random_entry(rng, 3) for b in b1]
    assert solve_rational(matrix, [stray]) is None
    assert solve_rational(matrix, [b1, stray, b2]) is None
    assert solve_rational(matrix, [b1, b2]) == xs


def test_rational_truthiness_and_reciprocal():
    # what FieldEchelon needs of a field element: zero is false, 1 / x works
    x = var(2, 1)
    assert not RationalFunction(LaurentPoly.zero(2))
    assert RationalFunction(x - x * x)
    assert 1 / RationalFunction(x, x + LaurentPoly.one(2)) == RationalFunction(
        x + LaurentPoly.one(2), x
    )
    with pytest.raises(ZeroDivisionError):
        1 / RationalFunction(LaurentPoly.zero(2))


def test_solve_rational_underdetermined_raises():
    # consistent (a = 1, b = 0 solves both) but the two columns are equal
    x, y = var(2, 1), var(2, 2)
    matrix = [[RationalFunction(x), RationalFunction(x)], [RationalFunction(y), RationalFunction(y)]]
    with pytest.raises(ValueError):
        solve_rational(matrix, [[RationalFunction(x), RationalFunction(y)]])
    with pytest.raises(ValueError):
        solve_rational([[RationalFunction(x), RationalFunction(y)]], [[RationalFunction(x)]])


def test_solve_rational_without_columns():
    x, y = var(2, 1), var(2, 2)
    zero = RationalFunction(LaurentPoly.zero(2))
    matrix = [[RationalFunction(x), zero], [zero, RationalFunction(y)]]
    assert solve_rational(matrix, []) == []
