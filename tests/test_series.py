"""Derived and central series against a full-closure reference.

The engine forms the next series term as the plain span of the brackets of
basis pairs and skips pairs that truncation or the Z^n weight grading rule
out.  The reference here does none of that: it brackets every pair and then
closes the result under the bracket, so agreement checks both the ideal
argument and the skip rules.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_field

from germcalc import lie
from germcalc.families import build_chain_algebra, build_nilpotent_example
from germcalc.fields import BudgetExceededError, VectorField
from germcalc.laurent import EXPONENT_MIN, LaurentPoly
from germcalc.lie import (
    LieAlgebraSpan,
    bracket_closure,
    central_series,
    derived_series,
    kappa_sequence,
    nilpotency_class,
    soluble_length,
    span_reduce,
)
from germcalc.scalars import Scalar
from germcalc.spans import SparseEchelon


def _closed_bracket_span(g: LieAlgebraSpan, pairs) -> LieAlgebraSpan:
    """Bracket closure of the brackets of the given pairs."""
    brackets = []
    for X, Y in pairs:
        Z = X.bracket(Y)
        if g.order is not None:
            Z = Z.truncate(g.order)
        if not Z.is_zero():
            brackets.append(Z)
    if not brackets:
        return LieAlgebraSpan(g.dim, (), g.order, g.degree_budget)
    return bracket_closure(brackets, g.order, g.degree_budget)


def _same_span(a: LieAlgebraSpan, b: LieAlgebraSpan) -> bool:
    return a.dimension == b.dimension and a.contains_span(b)


def reference_derived_series(g: LieAlgebraSpan) -> list[LieAlgebraSpan]:
    levels = [g]
    while not levels[-1].is_zero():
        nxt = _closed_bracket_span(g, combinations(levels[-1].basis, 2))
        stable = _same_span(nxt, levels[-1])
        levels.append(nxt)
        if stable:
            break
    return levels


def reference_central_series(g: LieAlgebraSpan) -> list[LieAlgebraSpan]:
    levels = [g]
    while not levels[-1].is_zero():
        nxt = _closed_bracket_span(g, product(g.basis, levels[-1].basis))
        stable = _same_span(nxt, levels[-1])
        levels.append(nxt)
        if stable:
            break
    return levels


def assert_same_series(levels, expected):
    assert [lv.dimension for lv in levels] == [lv.dimension for lv in expected]
    for a, b in zip(levels, expected):
        assert a.contains_span(b) and b.contains_span(a)


def mono_field(dim, exps, direction, coeff=1):
    return VectorField.from_terms(dim, (LaurentPoly.monomial(dim, exps, coeff), direction))


@pytest.mark.parametrize("n, k", [(1, 6), (2, 8), (2, 12), (3, 9)])
def test_chain_derived_series_matches_reference(n, k):
    g = build_chain_algebra(n, 0, k)
    levels = derived_series(g)
    assert_same_series(levels, reference_derived_series(g))
    assert kappa_sequence(g, levels) == kappa_sequence(g)


def test_chain_n3_dimensions_and_kappa():
    g = build_chain_algebra(3, 0, 9)
    levels = derived_series(g)
    assert [lv.dimension for lv in levels] == [114, 104, 83, 43, 1, 0]
    assert kappa_sequence(g, levels).values == (3, 3, 2, 2, 1, 0)


def test_chain_n3_dimensions_and_kappa_order_12():
    g = build_chain_algebra(3, 0, 12)
    levels = derived_series(g)
    assert [lv.dimension for lv in levels] == [189, 176, 149, 94, 21, 0]
    assert kappa_sequence(g, levels).values == (3, 3, 2, 2, 1, 0)


def _gaussian_rationals(h):
    """The components of a ``_weight`` tuple as {k: (re, im)} Fractions."""
    _, _, nums, den = h
    return {k: (Fraction(re, den), Fraction(im, den)) for k, re, im in nums}


@pytest.mark.parametrize("n, k", [(3, 9), (3, 12), (2, 12)])
def test_carried_weights_match_the_recomputed_ones(monkeypatch, n, k):
    # each level hands the next the _graded entries of its kept brackets,
    # formed from the closed form instead of read back by _weight
    g = build_chain_algebra(n, 0, k)
    bracket_span = lie._bracket_span
    handed = []

    def recording(ideal, right, outer=None):
        span, entries = bracket_span(ideal, right, outer)
        handed.append((span, entries))
        return span, entries

    monkeypatch.setattr(lie, "_bracket_span", recording)
    levels = derived_series(g)
    assert [span for span, _ in handed] == levels[1:]
    for span, entries in handed:
        expected = lie._graded(span.basis)
        assert [e[0] for e in entries] == [e[0] for e in expected]
        assert [e[1:3] for e in entries] == [e[1:3] for e in expected]
        for (*_, h), (*_, hh) in zip(entries, expected):
            assert h[:2] == hh[:2]
            assert _gaussian_rationals(h) == _gaussian_rationals(hh)
    # the same levels when every level reads its weights with _weight
    monkeypatch.setattr(
        lie, "_bracket_span", lambda ideal, right, outer=None: bracket_span(ideal, None, outer)
    )
    assert [lv.basis for lv in derived_series(g)] == [lv.basis for lv in levels]


@pytest.mark.parametrize("n, k", [(2, 8), (3, 7)])
def test_weight_skip_keeps_the_bases(monkeypatch, n, k):
    # a skipped bracket is one the echelon would reject, so the series
    # keeps the same basis fields, in the same order, without the weight test
    g = build_chain_algebra(n, 0, k)
    derived, central = derived_series(g), central_series(g)
    monkeypatch.setattr(lie, "_weight", lambda X: None)
    assert [lv.basis for lv in derived_series(g)] == [lv.basis for lv in derived]
    assert [lv.basis for lv in central_series(g)] == [lv.basis for lv in central]


def test_chain_central_series_matches_reference():
    g = build_chain_algebra(2, 0, 8)
    assert_same_series(central_series(g), reference_central_series(g))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nilpotent_family_series_match_reference(n):
    _, _, zs = build_nilpotent_example(n)
    g = bracket_closure(zs)
    derived = derived_series(g)
    assert_same_series(derived, reference_derived_series(g))
    assert len(derived) - 1 == soluble_length(g) == n
    assert_same_series(central_series(g), reference_central_series(g))


def _all_pairs_central_series(g: LieAlgebraSpan) -> list[LieAlgebraSpan]:
    """The central series with the whole basis as the outer row."""
    return central_series(LieAlgebraSpan(g.dim, g.basis, g.order, g.degree_budget, closed=True))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_central_series_from_the_generators_nilpotent_family(n):
    _, _, zs = build_nilpotent_example(n)
    g = bracket_closure(zs)
    assert g.generators == n < g.dimension
    assert g.basis[:n] == span_reduce(zs).basis
    assert_same_series(central_series(g), _all_pairs_central_series(g))


@pytest.mark.parametrize("homogeneous", [True, False])
def test_central_series_from_the_generators_jet_closure(homogeneous):
    gens = [mono_field(2, {2: 2}, 1), mono_field(2, {1: 1, 2: 1}, 2, 3), mono_field(2, {2: 3}, 2)]
    if not homogeneous:
        gens[0] = VectorField.from_terms(
            2, (LaurentPoly.monomial(2, {1: 1}), 1), (LaurentPoly.monomial(2, {2: 2}), 1)
        )
    g = bracket_closure(gens, 7)
    assert g.generators == 3 < g.dimension
    levels = central_series(g)
    assert len(levels) > 3
    assert_same_series(levels, _all_pairs_central_series(g))
    assert_same_series(levels, reference_central_series(g))


def _derived_series_of_the_basis(g: LieAlgebraSpan) -> list[LieAlgebraSpan]:
    """The derived series of g's basis as a span that records no generators."""
    return derived_series(LieAlgebraSpan(g.dim, g.basis, g.order, closed=True))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_derived_series_first_step_from_the_generators_nilpotent_family(n):
    # g^(1) = [g, g] = [S, g] when g records its generators S
    _, _, zs = build_nilpotent_example(n)
    g = bracket_closure(zs)
    assert g.generators == n < g.dimension
    levels = derived_series(g)
    assert len(levels) == n + 1
    assert_same_series(levels, _derived_series_of_the_basis(g))


def test_derived_series_first_step_from_the_generators_random_jet_closure():
    rng = random.Random(17)
    gens = [random_field(rng, 2, 3) for _ in range(3)]
    g = bracket_closure(gens, 6)
    assert g.generators == 3 < g.dimension
    assert not all(_is_weight_homogeneous(X) for X in g.basis)
    levels = derived_series(g)
    assert len(levels) > 2
    assert_same_series(levels, _derived_series_of_the_basis(g))


def _is_weight_homogeneous(X: VectorField) -> bool:
    weights = {
        tuple(e - (j == i) for j, e in enumerate(exps))
        for i, c in enumerate(X.coeffs)
        for exps in c.terms
    }
    return len(weights) <= 1


def test_inhomogeneous_jet_span_matches_reference():
    # x1 d1 + x2^2 d1 mixes weights (0, 0) and (-1, 2), so only the
    # truncation rule may skip brackets
    gens = [
        VectorField.from_terms(
            2, (LaurentPoly.monomial(2, {1: 1}), 1), (LaurentPoly.monomial(2, {2: 2}), 1)
        ),
        mono_field(2, {2: 2}, 2),
        mono_field(2, {1: 1, 2: 1}, 2, 3),
    ]
    g = bracket_closure(gens, 6)
    assert not all(_is_weight_homogeneous(X) for X in g.basis)
    assert_same_series(derived_series(g), reference_derived_series(g))
    assert_same_series(central_series(g), reference_central_series(g))


def test_series_never_recloses(monkeypatch):
    g = build_chain_algebra(2, 0, 8)

    def fail(*args, **kwargs):
        raise AssertionError("series step called bracket_closure")

    monkeypatch.setattr(lie, "bracket_closure", fail)
    assert [lv.dimension for lv in derived_series(g)][-1] == 0
    central_series(g)


def test_kappa_sequence_calls_derived_series_through_the_module(monkeypatch):
    # the chain-n3-jet benchmark workload records the series this way
    inner = lie.derived_series
    calls = []

    def recording(g, *args, **kwargs):
        levels = inner(g, *args, **kwargs)
        calls.append([level.dimension for level in levels])
        return levels

    monkeypatch.setattr(lie, "derived_series", recording)
    kappa = lie.kappa_sequence(build_chain_algebra(2, 0, 8))
    assert len(calls) == 1
    assert len(calls[0]) == len(kappa.values) and calls[0][-1] == 0


def test_jet_mode_rejects_non_formal_fields():
    with pytest.raises(ValueError):
        span_reduce([mono_field(1, {}, 1)], 4)
    g = build_chain_algebra(1, 0, 4)
    with pytest.raises(ValueError):
        g.contains_field(mono_field(1, {}, 1))


@st.composite
def monomial_generators(draw):
    """Up to three monomial fields c x^a d_i in two variables, and a jet
    order of at most 6 that keeps them nonzero."""
    order = draw(st.integers(2, 6))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, order))
        a1 = draw(st.integers(0, degree))
        direction = draw(st.integers(1, 2))
        coeff = draw(st.sampled_from([1, -1, 2]))
        gens.append(mono_field(2, {1: a1, 2: degree - a1}, direction, coeff))
    return gens, order


def monomial_algebras():
    """The jet-mode closure of ``monomial_generators``."""
    return monomial_generators().map(lambda case: bracket_closure(case[0], case[1]))


@settings(max_examples=30, deadline=None)
@given(monomial_algebras())
def test_random_monomial_algebras_match_reference(g):
    assert_same_series(derived_series(g), reference_derived_series(g))
    assert_same_series(central_series(g), reference_central_series(g))


@st.composite
def mixed_generators(draw):
    """Monomial generators, some with a second term (so that the algebra
    need not be weight-homogeneous), and the same generators permuted with
    some of them repeated at a nonzero multiple."""
    gens, order = draw(monomial_generators())
    for i, X in enumerate(gens):
        if draw(st.booleans()):
            degree = draw(st.integers(1, order))
            a1 = draw(st.integers(0, degree))
            extra = mono_field(2, {1: a1, 2: degree - a1}, draw(st.integers(1, 2)))
            gens[i] = VectorField([a + b for a, b in zip(X.coeffs, extra.coeffs)])
    repeats = [
        VectorField([c * Scalar(2, -1) for c in X.coeffs])
        for X in draw(st.lists(st.sampled_from(gens), max_size=2))
    ]
    return gens, draw(st.permutations(gens + repeats)), order


@settings(max_examples=25, deadline=None)
@given(mixed_generators())
def test_invariants_ignore_generator_order_and_repeats(case):
    gens, shuffled, order = case
    g = bracket_closure(gens, order)
    h = bracket_closure(shuffled, order)
    assert g.dimension == h.dimension and g.contains_span(h)
    for reader in (soluble_length, nilpotency_class):
        assert _outcome(reader, h) == _outcome(reader, g)


def _outcome(reader, g):
    """The value of a series reader on g, or the type and message of its
    error when the series stabilizes nonzero."""
    try:
        return reader(g)
    except BudgetExceededError as e:
        return type(e), str(e)


def _weight_tuples(coeffs):
    """The weight a - e_i of every term x^a d_i, as a set of tuples."""
    return {
        tuple(e - (j == i) for j, e in enumerate(exps))
        for i, c in enumerate(coeffs)
        for exps in c.terms
    }


def test_weight_keys_add_as_weights_do():
    dim = 3
    zero = LaurentPoly.zero(dim)
    fields = [
        [LaurentPoly.monomial(dim, {1: 2}), zero, zero],
        [zero, LaurentPoly.monomial(dim, {1: 1, 2: 1}, 3), zero],
        [zero, zero, LaurentPoly.monomial(dim, {2: 4})],
        [LaurentPoly.monomial(dim, {1: 1, 3: 2}), LaurentPoly.monomial(dim, {2: 1, 3: 2}), zero],
        [LaurentPoly.monomial(dim, {1: -3, 2: 5}), zero, zero],
        [zero, LaurentPoly.monomial(dim, {3: 1}), zero],
    ]
    weights = {}
    for coeffs in fields:
        (w,) = _weight_tuples(coeffs)
        key, exps, _, _ = lie._weight(VectorField(coeffs))
        assert exps == w
        weights[w] = key
    assert len(set(weights.values())) == len(weights)
    for u, ku in weights.items():
        for v, kv in weights.items():
            total = tuple(a + b for a, b in zip(u, v))
            for w, kw in weights.items():
                assert (ku + kv == kw) == (total == w)
    x = LaurentPoly.variable(dim, 1)
    assert lie._weight(VectorField([zero, zero, zero])) is None
    assert lie._weight(VectorField([x + x * x, zero, zero])) is None
    assert lie._weight(VectorField([x, LaurentPoly.variable(dim, 3), zero])) is None
    # x_1^EXPONENT_MIN d_1 has a weight outside the key range
    low = LaurentPoly.monomial(dim, {1: EXPONENT_MIN})
    assert lie._weight(VectorField([low, zero, zero])) is None
    edge = LaurentPoly.monomial(dim, {2: EXPONENT_MIN + 1})
    assert lie._weight(VectorField([edge, zero, zero])) is not None


def test_weight_reads_numerators_over_one_denominator():
    # (1/2) x1^2 x2 d1 + (i/3) x1 x2^2 d2 has weight (1, 1)
    X = VectorField([
        LaurentPoly.monomial(2, {1: 2, 2: 1}, Fraction(1, 2)),
        LaurentPoly.monomial(2, {1: 1, 2: 2}, Scalar(0, Fraction(1, 3))),
    ])
    _, exps, nums, den = lie._weight(X)
    assert exps == (1, 1)
    assert (nums, den) == (((0, 3, 0), (1, 0, 2)), 6)


GAUSSIAN = st.sampled_from([
    Scalar(1), Scalar(-1), Scalar(3), Scalar(Fraction(1, 2)), Scalar(Fraction(-2, 3)),
    Scalar(0, 1), Scalar(1, -1), Scalar(Fraction(1, 3), Fraction(-5, 2)),
])


@st.composite
def homogeneous_pairs(draw):
    """Two weight-homogeneous fields in 1-3 variables with Gaussian-rational
    coefficients, and a jet order or None.  In exact mode the exponents may
    be negative; in jet mode the fields are formal."""
    dim = draw(st.integers(1, 3))
    order = draw(st.one_of(st.none(), st.integers(1, 8)))
    low = -3 if order is None else -1

    def field():
        u = draw(st.lists(st.integers(low, 3), min_size=dim, max_size=dim))
        support = draw(st.sets(st.integers(0, dim - 1), min_size=1))
        exps = [[e + (j == k) for j, e in enumerate(u)] for k in support]
        if order is not None:
            assume(sum(u) >= 0 and all(e >= 0 for a in exps for e in a))
        coeffs = [LaurentPoly.zero(dim)] * dim
        for k, a in zip(support, exps):
            coeffs[k] = LaurentPoly.monomial(dim, a, draw(GAUSSIAN))
        return VectorField(coeffs)

    return field(), field(), order


@settings(max_examples=200, deadline=None)
@given(homogeneous_pairs())
def test_closed_form_bracket_matches_the_general_bracket(case):
    X, Y, order = case
    n = X.dim
    hx, hy = lie._weight(X), lie._weight(Y)
    vec = lie._weight_bracket(hx, hy, n)
    closed = lie._vector_field(vec, hx[3] * hy[3], n)
    assert (not vec) == closed.is_zero()
    if order is None:
        expected = X.bracket(Y)
    elif sum(hx[1]) + sum(hy[1]) + 1 <= order:
        # the degree break of the pair loop keeps only these pairs
        expected = X.bracket(Y, order)
    else:
        assert X.bracket(Y, order).is_zero()
        return
    assert closed == expected
    if vec:
        # the vector the echelon receives spans the bracket's line
        ech = SparseEchelon()
        ech.insert(vec)
        assert ech.contains(expected.sparse())
        # and the entry handed to the next level is the one _graded reads
        degree = sum(hx[1]) + sum(hy[1]) + 1
        entry = lie._bracket_entry(vec, hx[0] + hy[0], degree, hx, hy, n)
        assert entry == (closed, *lie._graded([closed])[0][1:])


def test_graded_series_rejects_negative_exponents_in_jet_mode():
    # a span marked closed is trusted, so only the per-level check sees the
    # Laurent term x1^2 x2^-1 d1
    X = mono_field(2, {1: 2, 2: -1}, 1)
    g = LieAlgebraSpan(2, (X, mono_field(2, {2: 1}, 2)), 4, closed=True)
    with pytest.raises(ValueError, match="negative exponents"):
        derived_series(g)
