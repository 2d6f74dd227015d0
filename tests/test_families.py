import math
import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import geometric_inverse_power, moebius_component

from germcalc import families
from germcalc.fields import BudgetExceededError

from germcalc.diffeos import FormalDiffeo
from germcalc.fields import VectorField
from germcalc.laurent import LaurentPoly
from germcalc.lie import span_reduce
from germcalc.scalars import Scalar
from germcalc.families import (
    build_nilpotent_example,
    build_chain_algebra,
    chain_composition_value,
    chain_exponent,
    chain_space_size,
    expected_a_value,
    expected_nilpotency_class,
    intro_member,
    nilpotent_seed_functions,
)


def test_intro_family_identity_member():
    phi = intro_member(2, LaurentPoly.zero(2), Scalar(0), 4)
    assert phi == FormalDiffeo.identity(2, 4)


def test_intro_family_pure_shift():
    phi = intro_member(2, LaurentPoly.monomial(2, {2: 2}), Scalar(0), 4)
    x1, x2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    assert phi == FormalDiffeo([x1 + x2 ** 2, x2], 4)


def test_intro_family_geometric_expansion():
    phi = intro_member(2, LaurentPoly.zero(2), Scalar(1), 4)
    x1, x2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    first = x1 * (LaurentPoly.one(2) - x2 * 2 + x2 ** 2 * 3 - x2 ** 3 * 4)
    second = x2 - x2 ** 2 + x2 ** 3 - x2 ** 4
    assert phi == FormalDiffeo([first.truncate(4), second], 4)


def reference_geometric_inverse_power(dim, var, t, power, order):
    """(1 + t*x_var)^(-power) built as products: the truncated geometric
    series 1/(1 + t*x) = sum (-t*x)^j, raised to the power-th power."""
    base = LaurentPoly.one(dim)
    step = LaurentPoly.monomial(dim, {var: 1}, -t)
    geom = LaurentPoly.one(dim)
    for _ in range(order):
        geom = geom.mul_truncated(step, order) + base
    out = LaurentPoly.one(dim)
    for _ in range(power):
        out = out.mul_truncated(geom, order)
    return out


def test_geometric_inverse_power_matches_products():
    ts = [Scalar(0), Scalar(1), Scalar(-1), Scalar.rational(1, 2), Scalar(0, 1), Scalar(1, -1)]
    for dim, var in ((1, 1), (2, 1), (2, 2)):
        for t in ts:
            for power in range(1, 7):
                for order in range(11):
                    assert geometric_inverse_power(dim, var, t, power, order) == (
                        reference_geometric_inverse_power(dim, var, t, power, order)
                    ), (dim, var, t, power, order)


def test_geometric_inverse_power_zero_and_negative_power():
    assert geometric_inverse_power(2, 2, Scalar(3), 0, 5) == LaurentPoly.one(2)
    with pytest.raises(ValueError):
        geometric_inverse_power(1, 1, Scalar(1), -1, 5)
    with pytest.raises(ValueError):
        geometric_inverse_power(2, 1, Scalar(Fraction(1, 2), 3), -2, 5)
    with pytest.raises(ValueError):
        geometric_inverse_power(1, 1, Scalar(1), 2, -1)


def scalar_series(dim, var, coefficients):
    """sum_j coefficients[j] * x_var^j, built term by term from Scalars."""
    terms = {}
    for j, c in enumerate(coefficients):
        exps = [0] * dim
        exps[var - 1] = j
        terms[tuple(exps)] = c
    return LaurentPoly(dim, terms)


SERIES_TS = [
    Scalar(0),
    Scalar(1),
    Scalar(-3),
    Scalar(Fraction(2, 3)),
    Scalar(Fraction(-5, 4)),
    Scalar(0, 1),
    Scalar(Fraction(1, 2), Fraction(-3, 5)),
    Scalar(-2, Fraction(1, 3)),
]


def test_geometric_series_match_the_scalar_formula():
    # intro_member's numerators w_j / q^order are the powers (-t)^j, the
    # coefficient of x_var^j in (1 + t*x)^(-p) is C(p + j - 1, j) * (-t)^j,
    # and the Moebius map lambda*x/(1 + mu*x) has lambda * (-mu)^(j - 1) at x^j
    lam = Scalar(Fraction(-3, 2), 1)
    for t in SERIES_TS:
        powers = [Scalar(1)]
        for _ in range(12):
            powers.append(powers[-1] * -t)
        for order in range(13):
            numerators, den = families._power_numerators(t, order)
            assert [Scalar(Fraction(re, den), Fraction(im, den)) for re, im in numerators] == (
                powers[:order + 1]
            ), (t, order)
        for dim in (1, 2, 3):
            for var in range(1, dim + 1):
                for order in range(1, 13):
                    assert geometric_inverse_power(dim, var, t, 0, order) == LaurentPoly.one(dim)
                    for p in range(1, 7):
                        coefficients = [powers[j] * math.comb(p + j - 1, j) for j in range(order + 1)]
                        expected = scalar_series(dim, var, coefficients)
                        assert geometric_inverse_power(dim, var, t, p, order) == expected
                    expected = scalar_series(
                        dim, var, [Scalar(0)] + [lam * powers[j] for j in range(order)]
                    )
                    assert moebius_component(dim, var, lam, t, order) == expected


def test_moebius_component_rejects_a_zero_multiplier():
    with pytest.raises(ValueError, match="the multiplier lambda must be nonzero"):
        moebius_component(2, 2, Scalar(0), Scalar(1), 5)


def test_intro_member_validation():
    with pytest.raises(ValueError):
        intro_member(3, LaurentPoly.variable(2, 2), Scalar(0), 5)  # linear term
    with pytest.raises(ValueError):
        intro_member(3, LaurentPoly.monomial(2, {2: 4}), Scalar(0), 5)  # too high
    with pytest.raises(ValueError):
        intro_member(3, LaurentPoly.monomial(2, {1: 2}), Scalar(0), 5)  # uses x1


def _intro_member_by_products(k_param, P, t, order):
    """The planar member as the truncated products it is defined by."""
    x = LaurentPoly.variable(2, 1)
    first = (x + P).mul_truncated(geometric_inverse_power(2, 2, t, k_param, order), order)
    return first, moebius_component(2, 2, Scalar(1), t, order)


@pytest.mark.parametrize("order", range(4, 13))
def test_intro_member_closed_form_matches_the_products(order):
    rng = random.Random(order)
    ts = [Scalar(0), Scalar(1), Scalar(Fraction(-3, 2)), Scalar(Fraction(1, 3), Fraction(-2, 5)),
          Scalar(0, 1), Scalar(Fraction(-1, 2), 2)]
    for k_param in range(2, 7):
        for t in ts:
            terms = {(0, d): (rng.randint(-4, 4), rng.randint(-2, 2))
                     for d in range(2, k_param + 1)}
            P = LaurentPoly.from_numerators(2, terms, rng.choice([1, 2, 6]))
            for P in (LaurentPoly.zero(2), P):
                member = intro_member(k_param, P, t, order)
                assert member.components == _intro_member_by_products(k_param, P, t, order)


@pytest.mark.parametrize(
    "P, message",
    [
        ("x1*x2^2 + x2^3", "P may only involve the second variable"),
        ("x2^3 + 2*x2", r"P must lie in \(y\^2\)"),
        ("x2^2 - x2^5", "deg P must be <= 4"),
        # the first bad term in graded-lex order decides
        ("x2^5 + x1^2", "P may only involve the second variable"),
    ],
)
def test_intro_member_reports_the_first_bad_term_of_p(P, message):
    from germcalc.parsing import parse_poly

    with pytest.raises(ValueError, match=message):
        intro_member(4, parse_poly(P, 2), Scalar(1), 6)


@pytest.mark.parametrize("k_param", [1, 0, -1])
def test_intro_member_rejects_small_family_parameter(k_param):
    with pytest.raises(ValueError):
        intro_member(k_param, LaurentPoly.zero(2), Scalar(1), 5)


def test_random_intro_members_pass_the_checked_constructor():
    # the members are built unchecked; the public constructor must accept
    # each one and keep its components as they are
    rng = random.Random(13)
    for i in range(200):
        k_param = 2 + i % 4
        order = k_param + rng.randint(1, 4)
        member = families.random_intro_member(rng, k_param, order)
        checked = FormalDiffeo(member.components, order)
        assert (member.dim, member.order) == (2, order)
        assert checked.components == member.components


def test_intro_family_closed_under_composition():
    a = intro_member(3, LaurentPoly.monomial(2, {2: 2}), Scalar(1), 6)
    b = intro_member(3, LaurentPoly.monomial(2, {2: 3}), Scalar(-2), 6)
    c = a.compose(b)
    # second component stays Moebius with parameter t1 + t2
    assert c.components[1] == moebius_component(2, 2, Scalar(1), Scalar(-1), 6)


def test_chain_summands():
    # index 4 is zero, and each lower index adds one summand: U_1 and V_1
    # have the five monomials in x2 of degree 2..6 and 1..5, U_2 = x2^2 d2
    # and V_2 = x2 d2 one each
    assert [chain_space_size(2, index, 6) for index in range(4, -1, -1)] == [0, 5, 10, 11, 12]
    for index in (-1, 5):
        with pytest.raises(ValueError, match=f"chain index {index} out of range 0..4"):
            chain_space_size(2, index, 6)
        with pytest.raises(ValueError, match=f"chain index {index} out of range 0..4"):
            build_chain_algebra(2, index, 6)


def test_chain_algebra_one_variable():
    g = build_chain_algebra(1, 0, 6)
    x = LaurentPoly.variable(1, 1)
    assert g.dimension == 2
    assert g.contains_field(VectorField([x ** 2]))
    assert g.contains_field(VectorField([x]))


def test_chain_algebra_top_is_zero():
    assert build_chain_algebra(2, 4, 8).is_zero()


def test_chain_algebra_index_three_is_first_summand_only():
    g = build_chain_algebra(2, 3, 6)
    assert all(c.is_zero() for X in g.basis for c in X.coeffs[1:])


def test_chain_exponents():
    assert [chain_exponent(j) for j in (2, 3, 4, 5)] == [3, 8, 18, 38]
    with pytest.raises(ValueError):
        chain_exponent(1)


def test_seed_functions():
    u1, u2 = nilpotent_seed_functions(3)
    assert u2 == LaurentPoly.monomial(3, {3: -1})
    assert u1 == LaurentPoly.monomial(3, {2: -2, 3: -2})
    v = nilpotent_seed_functions(4)
    assert v[0] == LaurentPoly.monomial(4, {2: -2, 3: -4, 4: -4})


def test_nilpotent_example_shapes():
    for n in (2, 3, 4, 5):
        us, xs, zs = build_nilpotent_example(n)
        assert len(us) == n - 1 and len(xs) == n and len(zs) == n
        # Z1 = x2^2 d1 in every dimension
        assert zs[0] == VectorField.from_terms(n, (LaurentPoly.monomial(n, {2: 2}), 1))
        for Z in zs:
            assert Z.is_formal() and Z.is_nilpotent()
        # u_k * X_k = Z_k for k < n
        for k in range(1, n):
            scaled = VectorField([us[k - 1] * c for c in xs[k - 1].coeffs])
            assert scaled == zs[k - 1]


def test_nilpotent_example_last_field_large_n():
    _, _, zs = build_nilpotent_example(5)
    assert zs[4] == VectorField.from_terms(
        5,
        (LaurentPoly.monomial(5, {4: 1, 5: 1}, -1), 4),
        (LaurentPoly.monomial(5, {5: 2}), 5),
    )


def test_nilpotent_example_commutes():
    for n in (2, 3, 4, 5):
        _, xs, _ = build_nilpotent_example(n)
        for i in range(n):
            for j in range(i + 1, n):
                assert xs[i].bracket(xs[j]).is_zero()


def test_minimum_dimension():
    with pytest.raises(ValueError):
        build_nilpotent_example(1)


def test_expected_values():
    assert [expected_nilpotency_class(n) for n in (2, 3, 4)] == [2, 5, 11]
    assert [expected_a_value(4, k) for k in (1, 2, 3)] == [1, 4, 10]


def test_chain_composition_nonzero_constants():
    for n in (3, 4):
        family = build_nilpotent_example(n)
        for k in range(1, n):
            value = chain_composition_value(n, k)
            assert value.is_constant() and not value.is_zero()
            assert chain_composition_value(n, k, family) == value


def _chain_summand_fields(dim, order):
    """The summands U_1, V_1, ..., U_n, V_n of chain space 0 up to total
    degree ``order``, straight from their definitions, by brute force over
    the exponent box [0, order]^dim.  For j < n, x^e d/dx_j lies in U_j when
    e has no x_1..x_j and degree >= 2, and in V_j when e has no
    x_1..x_(j-1), x_j to the first power and degree >= 2; U_n is
    x_n^2 d/dx_n and V_n is x_n d/dx_n.  Each summand lists its fields by
    degree, then in ascending lex order of the exponents, each field a
    ``from_terms`` sum of one monomial ``LaurentPoly``."""
    box = sorted(
        (e for e in product(range(order + 1), repeat=dim) if sum(e) <= order),
        key=lambda e: (sum(e), e),
    )
    summands = []
    for j in range(1, dim + 1):
        u, v = [], []
        for e in box:
            if any(e[: j - 1]):
                continue
            lead, tail = e[j - 1], sum(e[j:])
            if j < dim:
                in_u, in_v = lead == 0 and tail >= 2, lead == 1 and tail >= 1
            else:
                in_u, in_v = lead == 2, lead == 1
            if in_u or in_v:
                field = VectorField.from_terms(dim, (LaurentPoly(dim, {e: Scalar(1)}), j))
                (u if in_u else v).append(field)
        summands += [u, v]
    return summands


def test_chain_generator_count_matches_the_generators():
    for dim in range(1, 4):
        for order in range(1, 9):
            summands = _chain_summand_fields(dim, order)
            for index in range(2 * dim + 1):
                built = sum(len(s) for s in summands[: 2 * dim - index])
                assert chain_space_size(dim, index, order) == built
    # the n = 3 claim at its default order stays under the budget
    assert chain_space_size(3, 0, 41) == 1842
    assert 1842 <= families.CHAIN_GENERATOR_BUDGET


@pytest.mark.parametrize("order", [1, 2, 6, 12])
def test_chain_spaces_are_prefixes_of_chain_space_zero(order):
    for dim in range(1, 4):
        g0 = build_chain_algebra(dim, 0, order)
        sizes = [chain_space_size(dim, index, order) for index in range(2 * dim + 1)]
        for index, size in enumerate(sizes):
            assert build_chain_algebra(dim, index, order).basis == g0.basis[:size]
        # index 1 adds U_n = x_n^2 d_n to index 2, a field of degree 2; at
        # order 1 only V_n = x_n d_n is left
        assert sizes[1] - sizes[2] == (order >= 2)
        if order == 1:
            assert sizes == [1] + [0] * (2 * dim)


def test_chain_algebra_over_budget_fails_before_building(monkeypatch):
    def fail(*args):
        raise AssertionError("built a generator")

    monkeypatch.setattr(families, "_chain_entries", fail)
    monkeypatch.setattr(families, "VectorField", fail)
    with pytest.raises(BudgetExceededError, match="1456882 generators"):
        build_chain_algebra(4, 0, 161)


def test_chain_algebra_is_its_monomial_generators_unreduced():
    # build_chain_algebra lists the summands' monomial fields and skips span
    # reduction; reducing them at the order must change nothing
    for dim in range(1, 4):
        for order in range(1, 13):
            summands = _chain_summand_fields(dim, order)
            for index in range(2 * dim + 1):
                g = build_chain_algebra(dim, index, order)
                assert g.closed and g.order == order
                gens = [X for s in summands[: 2 * dim - index] for X in s]
                assert list(g.basis) == gens
                if gens:
                    assert g.basis == span_reduce(gens, order).basis
                else:
                    assert g.is_zero()


def test_chain_algebra_needs_a_positive_dimension():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="the solvable chain needs dimension >= 1"):
            build_chain_algebra(dim, 0, 5)
