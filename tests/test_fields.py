import pytest

from germcalc.fields import (
    BudgetExceededError,
    VectorField,
    default_a_budget,
    is_first_integral,
    nilpotency_degree_a,
)
from germcalc.laurent import LaurentPoly
from germcalc.scalars import Scalar
from germcalc.families import build_nilpotent_example


def X_field(dim, *terms):
    return VectorField.from_terms(dim, *terms)


def test_apply_single_term():
    X = X_field(1, (LaurentPoly.monomial(1, {1: 2}), 1))
    x = LaurentPoly.variable(1, 1)
    assert X.apply(x) == x ** 2


def test_apply_kills_constants():
    X = X_field(2, (LaurentPoly.monomial(2, {1: 1, 2: 1}), 1))
    assert X.apply(LaurentPoly.one(2)).is_zero()


def test_apply_meromorphic_value():
    # the last family field applied to x3^(-1) gives exactly -1
    _, xs, _ = build_nilpotent_example(3)
    u2 = LaurentPoly.monomial(3, {3: -1})
    assert xs[2].apply(u2) == LaurentPoly.constant(3, -1)


def test_apply_dimension_mismatch():
    X = X_field(1, (LaurentPoly.monomial(1, {1: 2}), 1))
    with pytest.raises(ValueError):
        X.apply(LaurentPoly.variable(2, 1))


def test_bracket_known_value():
    # [x d/dx, x^2 d/dx] = x^2 d/dx
    x = LaurentPoly.variable(1, 1)
    X = VectorField([x])
    Y = VectorField([x ** 2])
    assert X.bracket(Y) == Y


def test_bracket_self_is_zero():
    X = X_field(2, (LaurentPoly.monomial(2, {2: 2}), 1))
    assert X.bracket(X).is_zero()


def test_bracket_commuting_family_pair():
    # the planar-family pair in three variables commutes
    X2 = X_field(
        3,
        (LaurentPoly.monomial(3, {1: 1, 2: 1, 3: 1}, 4), 1),
        (LaurentPoly.monomial(3, {2: 2, 3: 1}), 2),
    )
    X3 = X_field(
        3,
        (LaurentPoly.monomial(3, {2: 1, 3: 1}, -1), 2),
        (LaurentPoly.monomial(3, {3: 2}), 3),
    )
    assert X2.bracket(X3).is_zero()


def apply_times(X, g, j):
    """X applied j times to g; j = 0 gives g."""
    for _ in range(j):
        g = X.apply(g)
    return g


def test_iterate_apply():
    x = LaurentPoly.variable(1, 1)
    X = VectorField([x ** 2])
    assert apply_times(X, x, 0) == x
    assert apply_times(X, x, 3) == x ** 4 * 6


def test_iterate_apply_family_value():
    # two applications of the middle field to the deeper integral give 2
    n = 3
    us, xs, _ = build_nilpotent_example(n)
    assert apply_times(xs[1], us[0], 2) == LaurentPoly.constant(n, 2)


def test_is_nilpotent_field():
    x = LaurentPoly.variable(1, 1)
    assert VectorField([x ** 2]).is_nilpotent()
    assert not VectorField([x]).is_nilpotent()
    # s*x + t*x^2 with s = 1 is not nilpotent
    assert not VectorField([x + x ** 2]).is_nilpotent()


def test_is_nilpotent_requires_formal():
    X = VectorField([LaurentPoly.monomial(1, {1: -1})])
    with pytest.raises(ValueError):
        X.is_nilpotent()


def test_linear_part():
    X = X_field(2, (LaurentPoly.monomial(2, {2: 1}, 3), 1))
    A = X.linear_part()
    assert A[0][1] == Scalar(3)
    assert A[0][0] == Scalar(0)


def test_nilpotency_degree_trivial_cases():
    us, _, zs = build_nilpotent_example(3)
    one = LaurentPoly.one(3)
    assert nilpotency_degree_a(one, zs) == 0
    with pytest.raises(ValueError):
        nilpotency_degree_a(LaurentPoly.zero(3), zs)


def test_nilpotency_degree_family_values():
    us, _, zs = build_nilpotent_example(3)
    assert nilpotency_degree_a(us[1], zs) == 1  # a(u_(n-1)) = 1
    assert nilpotency_degree_a(us[0], zs) == 4  # a(u_(n-2)) = 3*2 - 2


def test_nilpotency_degree_budget():
    x = LaurentPoly.variable(1, 1)
    X = VectorField([x])  # x d/dx never kills powers of x
    with pytest.raises(BudgetExceededError, match=f"step budget {default_a_budget(1)};"):
        nilpotency_degree_a(x, [X])


def test_is_first_integral():
    n = 3
    us, xs, _ = build_nilpotent_example(n)
    # u_(n-1) is killed by all but the last field
    assert is_first_integral(us[1], xs[:2])
    assert not is_first_integral(us[1], xs)
    assert is_first_integral(LaurentPoly.one(n), xs)


def test_is_first_integral_simple_counterexample():
    g = LaurentPoly.variable(2, 1)
    X = VectorField.from_terms(2, (LaurentPoly.monomial(2, {2: 2}), 1))
    assert not is_first_integral(g, [X])


def test_apply_literal_last_field_value():
    # -x2*x3 d2 + x3^2 d3 applied to x3^(-1) is exactly -1 (three variables)
    X = X_field(
        3,
        (LaurentPoly.monomial(3, {2: 1, 3: 1}, -1), 2),
        (LaurentPoly.monomial(3, {3: 2}), 3),
    )
    assert X.apply(LaurentPoly.monomial(3, {3: -1})) == LaurentPoly.constant(3, -1)


def test_truncated_apply_matches_apply_then_truncate(rng):
    from conftest import random_field, random_poly

    for _ in range(30):
        X = random_field(rng, 3, max_degree=4)
        g = random_poly(rng, 3, max_terms=4, max_degree=4)
        for order in (1, 3, 6):
            assert X.apply(g, order) == X.apply(g).truncate(order)
    with pytest.raises(ValueError):
        X.apply(LaurentPoly.monomial(3, {1: -1}), 3)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_truncated_bracket_matches_bracket_then_truncate(rng, dim):
    from conftest import random_field

    for _ in range(20):
        X = random_field(rng, dim, max_degree=4)
        Y = random_field(rng, dim, max_degree=4)
        full = X.bracket(Y)
        for order in (1, 2, 4, 7):
            assert X.bracket(Y, order) == full.truncate(order)
    assert X.bracket(X, 3).is_zero()


def test_truncated_bracket_rejects_negative_exponents():
    X = VectorField([LaurentPoly.monomial(2, {1: 2}), LaurentPoly.zero(2)])
    Y = VectorField([LaurentPoly.zero(2), LaurentPoly.monomial(2, {1: 1, 2: -1})])
    assert not X.bracket(Y).is_zero()
    for a, b in ((X, Y), (Y, X)):
        with pytest.raises(ValueError):
            a.bracket(b, 3)
    with pytest.raises(ValueError):
        X.bracket(X, 0)
