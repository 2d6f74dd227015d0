from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from germcalc import laurent
from germcalc.cli import EXIT_PRECONDITION, main
from germcalc.laurent import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    LaurentPoly,
    SubstitutionCache,
    evaluate,
    grlex_key,
    substitute,
)
from germcalc.parsing import parse_poly
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


def test_from_numerators_is_the_normal_form():
    p = LaurentPoly.from_numerators(2, {(0, 2): (6, -4), (1, -1): (0, 0), (3, 0): (2, 0)}, 8)
    assert p == LaurentPoly(2, {(0, 2): Scalar(Fraction(3, 4), Fraction(-1, 2)),
                                (3, 0): Scalar(Fraction(1, 4))})
    assert p.numerators()[1] == 4
    assert LaurentPoly.from_numerators(1, {(1,): (0, 0)}, 5) == LaurentPoly.zero(1)
    assert LaurentPoly.from_numerators(1, {(-2,): (3, 0)}) == LaurentPoly.monomial(1, (-2,), 3)
    for den in (0, -2, Fraction(1, 2)):
        with pytest.raises(ValueError):
            LaurentPoly.from_numerators(1, {(1,): (1, 0)}, den)
    with pytest.raises(ValueError):
        LaurentPoly.from_numerators(1, {(1, 0): (1, 0)})


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


def test_substitute_keeps_its_checks():
    # the checks stay on the public path; the caches that compose and the
    # commutator build skip them for jets that are valid by construction
    x1, x2 = var(2, 1), var(2, 2)
    with pytest.raises(ValueError, match="target has negative exponents"):
        substitute(x1 * x2.monomial_inverse(), [x1, x2], 3)
    with pytest.raises(ValueError, match="component 2 has negative exponents"):
        substitute(x1, [x1, x1 * x2.monomial_inverse()], 3)
    with pytest.raises(ValueError, match="component 1 has a nonzero constant term"):
        substitute(x1, [x1 + 1, x2], 3)
    with pytest.raises(ValueError, match="component 2 has a nonzero constant term"):
        SubstitutionCache([x1, x2 - 2], 3)


def test_trusted_cache_images_match_substitute():
    x1, x2 = var(2, 1), var(2, 2)
    phi = [x1 + x2 ** 2 * Scalar(0, 1), x2 + x1 * x2 * Fraction(1, 3)]
    cache = SubstitutionCache.trusted(phi, 5)
    for g in (x1, x2 ** 3, x1 * x2 + x1 ** 6, LaurentPoly.one(2), LaurentPoly.zero(2)):
        assert cache.image(g) == substitute(g, phi, 5)


def test_substitution_cache_reuse():
    x = var(1, 1)
    phi = [x + x ** 2]
    cache = SubstitutionCache(phi, 4)
    a = cache.image(x ** 2)
    b = cache.image(x ** 3)
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


# -- reference loops ---------------------------------------------------------
#
# Term-by-term loops over {exponent tuple: Scalar} dicts, kept as oracles:
# the packed kernel must agree with them exactly.


def _accumulate(terms, exps, value):
    acc = terms.get(exps)
    s = value if acc is None else acc + value
    if s:
        terms[exps] = s
    elif acc is not None:
        del terms[exps]


def reference_mul_truncated(a, b, order):
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            if order is not None and sum(exps) > order:
                continue
            _accumulate(terms, exps, ca * cb)
    return terms


def reference_partial_derivative(p, index):
    i = index - 1
    terms = {}
    for exps, coeff in p.items():
        e = exps[i]
        if e:
            _accumulate(terms, exps[:i] + (e - 1,) + exps[i + 1:], coeff * e)
    return terms


def reference_substitute(g, phi, out_dim, order):
    phi = [{e: c for e, c in comp.items() if sum(e) <= order} for comp in phi]
    terms = {}
    for exps, coeff in g.items():
        if sum(exps) > order:
            continue
        image = {(0,) * out_dim: Scalar(1)}
        for i, a in enumerate(exps):
            for _ in range(a):
                image = reference_mul_truncated(image, phi[i], order)
        for e, c in image.items():
            _accumulate(terms, e, c * coeff)
    return terms


# -- strategies ------------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 9])
)
gaussians = st.builds(Scalar, rationals, st.one_of(st.just(0), rationals))
orders = st.one_of(st.none(), st.integers(1, 8))


def term_dicts(dim, lo, hi, min_degree=None, max_size=5):
    exps = st.tuples(*[st.integers(lo, hi)] * dim)
    if min_degree is not None:
        exps = exps.filter(lambda e: sum(e) >= min_degree)
    return st.dictionaries(exps, gaussians, max_size=max_size).map(
        lambda d: {e: c for e, c in d.items() if c}
    )


@st.composite
def laurent_pairs(draw):
    dim = draw(st.integers(1, 4))
    return (
        dim,
        draw(term_dicts(dim, -3, 4)),
        draw(term_dicts(dim, -3, 4)),
    )


@st.composite
def substitutions(draw):
    dim = draw(st.integers(1, 4))
    out_dim = draw(st.integers(1, 4))
    g = draw(term_dicts(dim, 0, 4))
    phi = [draw(term_dicts(out_dim, 0, 3, min_degree=1, max_size=3)) for _ in range(dim)]
    return dim, out_dim, g, phi, draw(st.integers(1, 8))


def assert_normal(p):
    """The stored form: no zero numerator pair, gcd(den, numerators) = 1."""
    assert p._d > 0
    assert all(r or i for r, i in p._t.values())
    assert gcd(p._d, *(x for pair in p._t.values() for x in pair)) == 1


@settings(max_examples=150, deadline=None)
@given(laurent_pairs(), orders)
def test_mul_truncated_matches_reference(case, order):
    dim, a, b = case
    pa, pb = LaurentPoly(dim, a), LaurentPoly(dim, b)
    product = pa.mul_truncated(pb, order)
    assert product.terms == reference_mul_truncated(a, b, order)
    assert_normal(product)


@settings(max_examples=100, deadline=None)
@given(laurent_pairs())
def test_partial_derivative_matches_reference(case):
    dim, a, _ = case
    p = LaurentPoly(dim, a)
    for index in range(1, dim + 1):
        d = p.partial_derivative(index)
        assert d.terms == reference_partial_derivative(a, index)
        assert_normal(d)


@settings(max_examples=100, deadline=None)
@given(substitutions())
def test_substitute_matches_reference(case):
    dim, out_dim, g, phi, order = case
    polys = [LaurentPoly(out_dim, comp) for comp in phi]
    result = substitute(LaurentPoly(dim, g), polys, order)
    assert result.dim == out_dim
    assert result.terms == reference_substitute(g, phi, out_dim, order)
    assert_normal(result)


@settings(max_examples=100, deadline=None)
@given(laurent_pairs())
def test_normal_form_is_unique(case):
    dim, a, b = case
    p, q = LaurentPoly(dim, a), LaurentPoly(dim, b)
    assert p.terms == a
    for same in (p + q - q, (p * 3) * Fraction(1, 3), (p * Scalar(0, 2)) * Scalar(0, Fraction(-1, 2))):
        assert same == p
        assert hash(same) == hash(p)
        assert same.terms == a
        assert_normal(same)


def test_terms_is_a_cached_read_only_view():
    p = LaurentPoly(2, {(0, 2): 3, (1, 0): Fraction(1, 2), (1, 1): 1, (2, 0): Scalar(0, 1)})
    assert p.terms is p.terms
    with pytest.raises(TypeError):
        p.terms[(1, 1)] = Scalar(1)
    assert list(p.terms) == [(1, 0), (2, 0), (1, 1), (0, 2)]
    assert list(p.terms) == sorted(p.terms, key=grlex_key)


# -- exponent range ----------------------------------------------------------


def test_exponent_range_dim_1():
    top = LaurentPoly.monomial(1, {1: EXPONENT_MAX})
    bottom = LaurentPoly.monomial(1, {1: EXPONENT_MIN})
    assert top.coefficient((EXPONENT_MAX,)) == 1
    assert (top * bottom).terms == {(-1,): Scalar(1)}
    for e in (EXPONENT_MAX + 1, EXPONENT_MIN - 1):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, {1: e})
    x = LaurentPoly.variable(1, 1)
    with pytest.raises(ValueError):
        top * x
    with pytest.raises(ValueError):
        bottom * x.monomial_inverse()
    with pytest.raises(ValueError):
        bottom.partial_derivative(1)
    with pytest.raises(ValueError):
        x ** (EXPONENT_MAX + 1)
    assert (top - top.times_monomial((0,))).is_zero()
    with pytest.raises(ValueError):
        top.times_monomial((1,))


def test_exponent_range_dim_4():
    def mono(*exps):
        return LaurentPoly(4, {exps: Scalar(1)})

    # every exponent at the edge of its field, total degree in range
    edge = mono(EXPONENT_MAX, EXPONENT_MIN, EXPONENT_MAX, EXPONENT_MIN)
    assert edge.terms == {(EXPONENT_MAX, EXPONENT_MIN, EXPONENT_MAX, EXPONENT_MIN): 1}
    # the total degree has its own range
    with pytest.raises(ValueError):
        mono(EXPONENT_MAX, 1, 0, 0)
    with pytest.raises(ValueError):
        mono(0, 0, EXPONENT_MIN, -1)
    # products that leave the range in one field, with the total in range
    with pytest.raises(ValueError):
        mono(EXPONENT_MAX, -1, 0, 0) * mono(1, 0, 0, 0)
    with pytest.raises(ValueError):
        mono(1, 0, 0, EXPONENT_MIN) * mono(0, 0, 0, -1)
    with pytest.raises(ValueError):
        mono(0, 0, 1, EXPONENT_MIN).partial_derivative(4)
    # and products whose total degree leaves it
    with pytest.raises(ValueError):
        mono(EXPONENT_MAX, 0, 0, 0) * mono(0, 0, 0, 1)
    with pytest.raises(ValueError):
        mono(0, EXPONENT_MIN, 0, 0) * mono(0, 0, -1, 0)
    assert (mono(EXPONENT_MAX - 1, 0, 0, 0) * mono(0, 0, 0, 1)).terms == {
        (EXPONENT_MAX - 1, 0, 0, 1): 1
    }


def _general_product(a, b, order):
    """a * b through the general accumulate path: a second, zero pair keeps
    ``sum_of_products`` off the one-term shift."""
    return laurent.sum_of_products(a.dim, [(a, b), (a, LaurentPoly.zero(a.dim))], order)


@pytest.mark.parametrize("order", [None, 1, 3, 6])
@pytest.mark.parametrize(
    "one, other",
    [
        ("x2^2", "x1 + 2*x1*x2 - 3*x2^4 + x1^2*x2^3"),
        ("(1/2 + 3*i)*x1*x2", "(2 - i)*x1 + 1/3*x2^2 + i*x1^3*x2"),
        ("-2", "1/4*x1 + (1/6)*i*x2^2 + x1^5"),
        ("(1/3)*i*x1^2", "(x1 + x2)^4 + i*x2"),
        ("x1^-1*x2^3", "x1^2*x2^-1 + 7/5*x1"),
    ],
)
def test_one_term_product_is_the_general_product(one, other, order):
    a, b = parse_poly(one, 2), parse_poly(other, 2)
    assert len(a.terms) == 1
    for x, y in ((a, b), (b, a)):
        product = x.mul_truncated(y, order)
        assert product == _general_product(x, y, order)
        assert product.terms == reference_mul_truncated(x.terms, y.terms, order)
        assert_normal(product)


@pytest.mark.parametrize("order", [None, 3])
def test_one_term_product_leaving_the_range_raises(order):
    top = LaurentPoly.monomial(2, {1: EXPONENT_MAX - 1})
    low = LaurentPoly.monomial(2, {2: EXPONENT_MIN}, Scalar(2, 1))
    for x, y in ((top, var(2, 1) ** 2), (low * 3, low + var(2, 1))):
        for a, b in ((x, y), (y, x)):
            if order is None or (a.min_total_degree() + b.min_total_degree() <= order):
                with pytest.raises(ValueError, match="outside the supported range"):
                    a.mul_truncated(b, order)
                with pytest.raises(ValueError, match="outside the supported range"):
                    _general_product(a, b, order)
            else:
                assert a.mul_truncated(b, order) == _general_product(a, b, order)


def _forbid_products(monkeypatch):
    def no_product(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(laurent, "sum_of_products", no_product)


def test_pow_rejects_an_out_of_range_power_before_any_product(monkeypatch):
    x1, x2 = var(2, 1), var(2, 2)
    zero, two = LaurentPoly.zero(2), LaurentPoly.constant(2, 2)
    _forbid_products(monkeypatch)
    # the full computation would form products of about 8,000 x 8,000 terms
    with pytest.raises(ValueError, match="outside the supported range"):
        (x1 + x2) ** 20000
    monkeypatch.undo()
    assert zero ** 20000 == zero
    assert (two ** 20000).constant_term() == 2 ** 20000


@pytest.mark.parametrize(
    "p",
    [
        "x1^3000*x2^3000 + x2^-1",  # the top total degree leaves first
        "x1^-3000*x2^-3000 + x1",  # the bottom total degree
        "x1^5000*x2^-5000 + 1",  # one variable's top, another's bottom, degree 0
        "x1^3000*x2^-1000 - x1^-4100*x2^4000",  # one variable's bottom
    ],
)
def test_pow_range_check_agrees_with_the_products(p, monkeypatch):
    base = parse_poly(p, 2)
    product = base
    for n in range(2, 6):
        try:
            product = product * base
        except ValueError:
            # the products leave the range at n; the power says so without one
            _forbid_products(monkeypatch)
            with pytest.raises(ValueError, match="outside the supported range"):
                base ** n
            return
        assert base ** n == product
    pytest.fail("no power left the range")


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "--dim", "1", f"x1^{EXPONENT_MAX} d1", "x1^2 d1"],
        ["bracket", "--dim", "1", f"x1^{EXPONENT_MAX + 1} d1", "x1^2 d1"],
        ["bracket", "--dim", "4", f"x1^{EXPONENT_MAX - 5}*x4^5 d1", "x4^2 d4"],
        ["bracket", "--dim", "2", "(x1+x2)^20000 d1", "x1 d1"],
    ],
)
def test_cli_exits_3_outside_the_exponent_range(argv, capsys):
    assert main(argv) == EXIT_PRECONDITION
    assert "outside the supported range" in capsys.readouterr().err


def _evaluate_by_terms(p, point):
    total = Scalar(0)
    for exps, c in p.terms.items():
        value = Fraction(1)
        for x, e in zip(point, exps):
            value *= Fraction(x) ** e
        total = total + c * Scalar(value)
    return total


def test_evaluate_against_term_sum(rng):
    from conftest import random_poly

    for dim, point in ((1, (2,)), (2, (2, 3)), (3, (2, -3, 5)), (3, (-1, 1, 7))):
        for _ in range(20):
            p = random_poly(rng, dim, max_terms=5, max_degree=4, min_exp=-3)
            assert evaluate(p, point) == _evaluate_by_terms(p, point)
    assert evaluate(LaurentPoly.zero(2), (2, 3)) == Scalar(0)
    x1 = LaurentPoly.monomial(2, {1: 1})
    assert evaluate(x1 - 2, (2, 3)) == Scalar(0)
    with pytest.raises(ValueError):
        evaluate(x1, (0, 3))
    with pytest.raises(ValueError):
        evaluate(x1, (2,))
