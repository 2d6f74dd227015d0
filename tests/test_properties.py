"""Property-based checks of the algebraic laws the engine relies on.

Hypothesis drives small random Laurent polynomials and fields; every law is
an exact equality, so any counterexample would be a real bug, not noise.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from germcalc.diffeos import exp_field, log_diffeo
from germcalc.laurent import LaurentPoly, substitute
from germcalc.fields import VectorField
from germcalc.scalars import Scalar

DIM = 2

coeffs = st.sampled_from(
    [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(1, -1)]
)
exponents = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
poly_exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


def poly_strategy(exps):
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda terms: LaurentPoly(DIM, terms)
    )


laurents = poly_strategy(exponents)
polys = poly_strategy(poly_exponents)
m_elements = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) >= 1),
    coeffs,
    max_size=3,
).map(lambda terms: LaurentPoly(DIM, terms))


def field_strategy():
    return st.tuples(m_elements, m_elements).map(lambda cs: VectorField(list(cs)))


fields = field_strategy()


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_truncation_is_multiplicative(a, b):
    k = 3
    assert (a * b).truncate(k) == (a.truncate(k) * b.truncate(k)).truncate(k)


@given(laurents)
def test_partials_commute(a):
    assert a.partial_derivative(1).partial_derivative(2) == a.partial_derivative(
        2
    ).partial_derivative(1)


@settings(max_examples=40)
@given(polys, m_elements, m_elements, m_elements, m_elements)
def test_substitution_associativity(g, p1, p2, q1, q2):
    k = 4
    phi = [p1, p2]
    psi = [q1, q2]
    composed = [substitute(p, psi, k) for p in phi]
    left = substitute(substitute(g, phi, k), psi, k)
    right = substitute(g, composed, k)
    assert left == right


@given(fields, fields)
def test_bracket_antisymmetry(X, Y):
    B = X.bracket(Y)
    assert B == VectorField([-c for c in Y.bracket(X).coeffs])


@settings(max_examples=40)
@given(fields, fields, fields)
def test_jacobi_identity(X, Y, Z):
    total = (
        X.bracket(Y.bracket(Z)).coeffs,
        Y.bracket(Z.bracket(X)).coeffs,
        Z.bracket(X.bracket(Y)).coeffs,
    )
    for a, b, c in zip(*total):
        assert (a + b + c).is_zero()


@given(fields, laurents, laurents)
def test_leibniz_rule(X, g, h):
    assert X.apply(g * h) == X.apply(g) * h + g * X.apply(h)


@settings(max_examples=30)
@given(fields, fields, laurents)
def test_commuting_fields_commute_as_operators(X, Y, g):
    if X.bracket(Y).is_zero():
        assert X.apply(Y.apply(g)) == Y.apply(X.apply(g))


@st.composite
def nilpotent_field_pairs(draw):
    """(order, X, Y): two nilpotent formal fields in 1 to 3 variables, each
    with a strictly upper or strictly lower triangular linear part and a
    few terms of degree 2 to order."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(2, 5))
    higher = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: 2 <= sum(e) <= order)

    def field():
        upper = draw(st.booleans())
        components = []
        for i in range(n):
            terms = {}
            for j in range(i + 1, n) if upper else range(i):
                terms[tuple(int(m == j) for m in range(n))] = draw(coeffs_or_zero)
            for e in draw(st.lists(higher, max_size=2)):
                terms[e] = draw(coeffs)
            components.append(LaurentPoly(n, terms))
        return VectorField(components)

    return order, field(), field()


coeffs_or_zero = st.sampled_from([Scalar(0), Scalar(1), Scalar(-2), Scalar(Fraction(1, 3), 1)])


@settings(max_examples=60, deadline=None)
@given(nilpotent_field_pairs())
def test_log_of_a_conjugate_is_the_adjoint_series(case):
    # log(exp X o exp Y o exp(-X)) = e^(-ad X) Y = sum_m (-1)^m ad_X^m Y / m!,
    # with ad_X Z = [X, Z]: g -> g o phi is contravariant, so the jet action
    # of the conjugate is e^(-X) e^Y e^X
    order, X, Y = case
    conjugate = exp_field(X, 1, order).compose(exp_field(Y, 1, order)).compose(
        exp_field(X, -1, order)
    )
    total = list(Y.truncate(order).coeffs)
    Z, weight = Y.truncate(order), Fraction(1)
    for m in range(1, 200):
        Z = X.bracket(Z, order)
        if Z.is_zero():
            break
        weight /= -m
        total = [a + b * weight for a, b in zip(total, Z.coeffs)]
    else:
        raise AssertionError("ad_X is not nilpotent on the jets")
    assert log_diffeo(conjugate) == VectorField(total)
