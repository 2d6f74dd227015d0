import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import good_monomials, random_field, random_poly, random_scalar

from germcalc import lie
from germcalc.fields import BudgetExceededError, VectorField
from germcalc.laurent import LaurentPoly, evaluate, evaluate_parts
from germcalc.lie import (
    LieAlgebraSpan,
    _bareiss_rank,
    bracket_closure,
    central_series,
    derived_series,
    generic_rank,
    kappa_sequence,
    nilpotency_class,
    soluble_length,
    span_reduce,
)
from germcalc.parsing import parse_fields
from germcalc.scalars import Scalar
from germcalc.families import build_nilpotent_example, build_chain_algebra
from germcalc.verification import _triangular_coefficients


def mono_field(dim, exps, direction, coeff=1):
    return VectorField.from_terms(dim, (LaurentPoly.monomial(dim, exps, coeff), direction))


def test_span_reduce_scalar_multiple():
    X = mono_field(2, {2: 2}, 1)
    X2 = mono_field(2, {2: 2}, 1, 2)
    span = span_reduce([X, X2])
    assert span.dimension == 1


def test_span_reduce_rank_two():
    a = mono_field(2, {2: 2}, 1)
    b = mono_field(2, {1: 1, 2: 1}, 1)
    c = VectorField([a.coeffs[0] + b.coeffs[0], LaurentPoly.zero(2)])
    span = span_reduce([a, b, c])
    assert span.dimension == 2


def test_span_reduce_jet_mode_counts_monomials():
    # two-variable chain space at jet order 4: functions of x2 in m^2 give 3
    # monomials, x1 * (functions of x2 in m) gives 3 more
    gens = build_chain_algebra(2, 2, 4)  # U1 + V1
    count_u = 3  # x2^2, x2^3, x2^4
    count_v = 3  # x1 x2, x1 x2^2, x1 x2^3
    assert gens.dimension == count_u + count_v


def test_a_span_is_exact_exactly_when_it_has_no_order():
    _, _, zs = build_nilpotent_example(3)
    g = bracket_closure(zs)
    assert g.order is None and g.dimension == 9
    assert kappa_sequence(g).jet_order is None
    assert max(X.abs_degree() for X in g.basis) == 6
    # at jet order 5 the degree-6 field is truncated away
    h = bracket_closure(zs, 5)
    assert h.order == 5 and h.dimension == 8
    assert max(X.abs_degree() for X in h.basis) == 5
    assert kappa_sequence(h).jet_order == 5
    assert h != g


def test_bracket_closure_single_field():
    X = mono_field(1, {1: 2}, 1)
    assert bracket_closure([X]).dimension == 1


def test_bracket_closure_commuting_family():
    _, xs, _ = build_nilpotent_example(4)
    span = bracket_closure(xs)
    assert span.dimension == 4


def test_bracket_closure_planar_pair():
    # the literal four-coefficient planar pair closes in dimension 4 and the
    # good-monomial oracle agrees
    Z1 = mono_field(2, {2: 2}, 1)
    Z2 = VectorField.from_terms(
        2,
        (LaurentPoly.monomial(2, {1: 1, 2: 1}, 4), 1),
        (LaurentPoly.monomial(2, {2: 2}), 2),
    )
    g = bracket_closure([Z1, Z2])
    assert g.dimension == 4
    oracle = span_reduce(good_monomials([Z1, Z2], 8))
    assert oracle.dimension == g.dimension
    assert g.contains_span(oracle) and oracle.contains_span(g)


def test_bracket_closure_order_independent():
    _, _, zs = build_nilpotent_example(3)
    g1 = bracket_closure(zs)
    g2 = bracket_closure(list(reversed(zs)))
    assert g1.dimension == g2.dimension
    assert g1.contains_span(g2) and g2.contains_span(g1)


def test_degree_budget_guard():
    # x1^2 d1 bracketed with x1^3 d1 grows without bound
    X = mono_field(1, {1: 2}, 1)
    Y = mono_field(1, {1: 3}, 1)
    with pytest.raises(BudgetExceededError):
        bracket_closure([X, Y], degree_budget=10)


def _closure_by_all_pairs(gens, order=None, degree_budget=lie.DEFAULT_DEGREE_BUDGET):
    """Oracle: the plain saturation loop, which brackets each new field with
    the whole current basis, itself and the other new fields included, in
    both orders, through the general ``VectorField.bracket``."""
    span = span_reduce(gens, order, degree_budget)
    ech = span.echelon()
    basis = list(span.basis)
    frontier = list(basis)
    while frontier:
        new = []
        for X in frontier:
            for Y in basis:
                if order is not None:
                    Z = X.bracket(Y, order)
                else:
                    Z = X.bracket(Y)
                    if Z.abs_degree() > degree_budget:
                        raise BudgetExceededError(
                            f"bracket degree {Z.abs_degree()} exceeds budget {degree_budget}"
                        )
                if not Z.is_zero() and ech.insert(Z.sparse()):
                    new.append(Z)
        basis.extend(new)
        frontier = new
    return tuple(basis)


def _closure_against_all_pairs(gens, order=None, degree_budget=lie.DEFAULT_DEGREE_BUDGET):
    """Check ``bracket_closure`` against the oracle and return the oracle's
    basis, or the type of its error.

    The closure brackets each round with the generators only, so its kept
    basis and the first bracket it finds over budget are not the oracle's:
    it must span the same algebra, lead with the reduced generators, and
    raise the same exception type where the oracle raises.
    """
    try:
        expected = _closure_by_all_pairs(gens, order, degree_budget)
    except (BudgetExceededError, ValueError) as exc:
        with pytest.raises((BudgetExceededError, ValueError)) as info:
            bracket_closure(gens, order, degree_budget)
        assert info.type is type(exc)
        return type(exc)
    g = bracket_closure(gens, order, degree_budget)
    oracle = LieAlgebraSpan(g.dim, expected, order, degree_budget)
    assert g.dimension == oracle.dimension
    assert g.contains_span(oracle) and oracle.contains_span(g)
    assert g.basis[:g.generators] == span_reduce(gens, order, degree_budget).basis
    return expected


def _random_homogeneous_field(rng, dim, polynomial):
    """sum_k c_k x^(u+e_k) d_k for a random weight u; with ``polynomial``
    every term has nonnegative exponents and positive degree."""
    while True:
        u = [rng.randint(-1, 2) for _ in range(dim)]
        coeffs = []
        for k in range(dim):
            exps = list(u)
            exps[k] += 1
            c = random_scalar(rng)
            if polynomial and (min(exps) < 0 or sum(exps) < 1):
                c = 0
            coeffs.append(LaurentPoly.monomial(dim, exps, c))
        X = VectorField(coeffs)
        if not X.is_zero():
            return X


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closure_matches_all_pairs_on_the_nilpotent_family(n):
    _, _, zs = build_nilpotent_example(n)
    _closure_against_all_pairs(zs)


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("mode", ["exact", "jet"])
def test_closure_matches_all_pairs_on_random_generators(mode, homogeneous):
    # exact mode often runs into the small budget, which must then raise
    # there too
    rng = random.Random(2026 + homogeneous + 2 * (mode == "jet"))
    outcomes = set()
    for _ in range(12):
        dim = rng.randint(1, 3)
        order = rng.randint(3, 6 if dim < 3 else 4)
        jet = mode == "jet"
        if homogeneous:
            gens = [_random_homogeneous_field(rng, dim, jet) for _ in range(rng.randint(1, 3))]
        else:
            gens = [random_field(rng, dim, 3, formal=jet) for _ in range(rng.randint(1, 3))]
        if all(X.is_zero() for X in gens):
            continue
        args = (gens, order if jet else None, 12)
        expected = _closure_against_all_pairs(*args)
        outcomes.add(expected if isinstance(expected, type) else len(expected))
    assert len(outcomes) >= 3, outcomes


def test_closure_matches_all_pairs_on_mixed_combinations():
    # invertible combinations of the n = 3 generators are not homogeneous,
    # so the general bracket closes the same algebra
    _, _, (z1, z2, z3) = build_nilpotent_example(3)

    def plus(*fields):
        return VectorField([sum((X.coeffs[i] for X in fields), LaurentPoly.zero(3)) for i in range(3)])

    gens = [plus(z1, z2), plus(z2, z3), z3]
    assert len(_closure_against_all_pairs(gens)) == 9
    assert bracket_closure([z1, z2, z3]).dimension == 9


def _pairs_formed(monkeypatch, name, factors):
    """Record the factors (the arguments at ``factors``) of every bracket
    that ``lie.<name>`` forms."""
    pairs = []
    inner = getattr(lie, name)

    def recording(*args):
        pairs.append(args[factors])
        return inner(*args)

    monkeypatch.setattr(lie, name, recording)
    return pairs


def _weight_field_key(h):
    """A field's identity read off its ``_weight`` tuple: the weight key and
    the rational coefficients."""
    _, _, nums, den = h
    return h[0], frozenset((k, Fraction(re, den), Fraction(im, den)) for k, re, im in nums)


@pytest.mark.parametrize("homogeneous", [True, False])
def test_closure_brackets_with_the_generators_only(monkeypatch, homogeneous):
    _, _, zs = build_nilpotent_example(4)
    if homogeneous:
        pairs = _pairs_formed(monkeypatch, "_weight_bracket", slice(0, 2))
        monkeypatch.setattr(VectorField, "bracket", None)  # the closed form only
        factor, field = _weight_field_key, lambda X: _weight_field_key(lie._weight(X))
    else:
        zs = [VectorField([a + b for a, b in zip(zs[0].coeffs, zs[1].coeffs)])] + zs[1:]
        pairs = _pairs_formed(monkeypatch, "_bracket_in_mode", slice(1, 3))
        factor = field = lambda X: X
    g = bracket_closure(zs)
    index = {field(X): i for i, X in enumerate(g.basis)}
    pairs = [(index[factor(a)], index[factor(b)]) for a, b in pairs]
    # the left factor is a generator, and no unordered pair repeats
    assert all(a < g.generators for a, _ in pairs)
    assert all(a != b for a, b in pairs)
    assert len(pairs) == len({frozenset(pair) for pair in pairs})
    # [S, S] once, then S with every other basis field: 6 + 4 * 27 brackets,
    # where bracketing every unordered pair of the basis forms 31 * 30 / 2
    s = g.generators
    assert (s, g.dimension) == (4, 31)
    assert len(pairs) == s * (s - 1) // 2 + s * (g.dimension - s) == 114


def test_closure_budget_raises_at_the_same_bracket():
    gens = [mono_field(1, {1: 2}, 1), mono_field(1, {1: 3}, 1)]
    assert _closure_against_all_pairs(gens, None, 20) is BudgetExceededError


@pytest.mark.parametrize("order", [None, 20000], ids=["exact-None", "jet-20000"])
def test_closure_weight_out_of_key_range_raises(order):
    # [x1^10000 d1, x1^9000 d1] = -1000 x1^18999 d1: the exponent leaves the
    # packed range, which the general bracket's product rejects too
    gens = [mono_field(1, {1: 10000}, 1), mono_field(1, {1: 9000}, 1)]
    with pytest.raises(ValueError, match="outside the supported range"):
        bracket_closure(gens, order, degree_budget=10 ** 6)
    with pytest.raises(ValueError, match="outside the supported range"):
        _closure_by_all_pairs(gens, order, degree_budget=10 ** 6)


def test_good_monomials_basics():
    _, _, zs = build_nilpotent_example(2)
    depth1 = good_monomials(zs, 1)
    assert len(depth1) == 2
    depth2 = good_monomials(zs, 2)
    # [Z1, Z1] = 0 is dropped; [Z2, Z1] and [Z2, Z2] = 0 leave one new monomial
    assert len(depth2) == 3


def test_good_monomials_span_central_series():
    # good monomials of degree >= j+1 span the j-th central term
    _, _, zs = build_nilpotent_example(3)
    g = bracket_closure(zs)
    levels = central_series(g)
    by_depth = {}
    n_class = len(levels) - 1
    all_monos = []
    level_sets = []
    for depth in range(1, n_class + 1):
        level_sets.append(good_monomials(zs, depth))
    for j, level in enumerate(levels[:-1]):
        # monomials of degree >= j+1: drop the first j levels' degrees
        monos = [m for d in range(j, n_class) for m in _fresh(level_sets, d)]
        oracle = span_reduce(monos)
        assert oracle.dimension == level.dimension
        assert level.contains_span(oracle)


def _fresh(level_sets, depth_index):
    """Monomials of exact degree depth_index+1 (level_sets[d] holds all
    monomials up to degree d+1)."""
    current = level_sets[depth_index]
    if depth_index == 0:
        return current
    previous = level_sets[depth_index - 1]
    return current[len(previous):]


def test_derived_series_abelian():
    _, xs, _ = build_nilpotent_example(3)
    g = span_reduce(xs)
    levels = derived_series(g)
    assert [lv.dimension for lv in levels] == [3, 0]
    assert soluble_length(g) == 1


def test_derived_series_one_variable_chain():
    g = build_chain_algebra(1, 0, 6)
    levels = derived_series(g)
    assert [lv.dimension for lv in levels] == [2, 1, 0]
    assert soluble_length(g) == 2


@pytest.mark.parametrize(
    "reader, build, error, message",
    [
        # exact spans: a stable nonzero term is definite
        (soluble_length, lambda: bracket_closure(parse_fields("1 d1; x1 d1; x1^2 d1", 1)),
         ValueError, "the algebra is not solvable; soluble length undefined"),
        (nilpotency_class, lambda: bracket_closure(parse_fields("x1 d1; x1^2 d1", 1)),
         ValueError, "the algebra is not nilpotent; nilpotency class undefined"),
        # jet spans: the order may only be too low
        (nilpotency_class, lambda: build_chain_algebra(1, 0, 6), BudgetExceededError,
         "central series does not terminate at jet order 6; nilpotency class undefined"),
        (soluble_length, lambda: bracket_closure(parse_fields("x1 d2; x2 d1", 2), 3),
         BudgetExceededError,
         "derived series does not terminate at jet order 3; soluble length undefined"),
    ],
    ids=["exact-sl2", "exact-affine", "jet-chain", "jet-linear-sl2"],
)
def test_series_readers_raise_when_the_series_does_not_terminate(reader, build, error, message):
    with pytest.raises(error) as info:
        reader(build())
    assert type(info.value) is error and str(info.value) == message


def test_nilpotency_class_abelian():
    _, xs, _ = build_nilpotent_example(3)
    g = span_reduce(xs)
    assert nilpotency_class(g) == 1


def test_zero_algebra_lengths():
    from germcalc.lie import LieAlgebraSpan

    zero = LieAlgebraSpan(2, ())
    assert soluble_length(zero) == 0
    assert nilpotency_class(zero) == 0


def test_series_nesting_and_inclusion():
    g = build_chain_algebra(2, 0, 8)
    der = derived_series(g)
    cen = central_series(g)
    for a, b in zip(der[1:], der):
        assert b.contains_span(a)
    for a, b in zip(cen[1:], cen):
        assert b.contains_span(a)
    # derived term m sits inside central term m
    for m in range(min(len(der), len(cen))):
        assert cen[m].contains_span(der[m])


def test_generic_rank_examples():
    assert generic_rank([mono_field(2, {2: 2}, 1)]) == 1
    # proportional over the function field
    assert generic_rank([mono_field(2, {2: 2}, 1), mono_field(2, {1: 1, 2: 1}, 1)]) == 1
    g = build_chain_algebra(2, 0, 6)
    assert generic_rank(g) == 2


def test_generic_rank_laurent_rows():
    _, xs, _ = build_nilpotent_example(3)
    assert generic_rank(xs) == 3


def test_generic_rank_matches_fraction_field_elimination(rng):
    # dual route: Bareiss rank == rank computed over the fraction field
    for _ in range(15):
        fields = [random_field(rng, 2, 3) for _ in range(rng.randint(1, 4))]
        expected = _rank_by_fraction_field(fields)
        assert generic_rank(fields) == expected


def _rank_by_fraction_field(fields):
    """The rank of the coefficient rows over Q(i)(x_1, ..., x_n), by sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    dim = fields[0].dim
    xs = sympy.symbols(f"x1:{dim + 1}")
    K = QQ_I.frac_field(*xs)

    def element(p):
        expr = sympy.Integer(0)
        for exps, c in p.terms.items():
            monomial = sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
            expr += (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * monomial
        return K.from_sympy(expr)

    rows = [[element(c) for c in X.coeffs] for X in fields]
    return DomainMatrix(rows, (len(rows), dim), K).rank()


def _bareiss_only(fields):
    """Generic rank by the elimination alone, without the certificate."""
    rows = [list(X.coeffs) for X in fields if not X.is_zero()]
    return _bareiss_rank(rows) if rows else 0


def _field(dim, *coeffs):
    return VectorField([LaurentPoly(dim, c) for c in coeffs])


def _counting_fallback(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return _bareiss_rank(rows)

    monkeypatch.setattr(lie, "_bareiss_rank", counting)
    return calls


def test_generic_rank_falls_back_on_rank_deficient_full_columns(monkeypatch):
    # (x, y) and (x^2, xy) are proportional over the function field, but
    # both columns are nonzero, so the bounds 1 <= rank <= 2 do not meet
    calls = _counting_fallback(monkeypatch)
    fields = [_field(2, {(1, 0): 1}, {(0, 1): 1}), _field(2, {(2, 0): 1}, {(1, 1): 1})]
    assert generic_rank(fields) == 1 == _bareiss_only(fields)
    assert calls == [2]


def test_generic_rank_row_vanishing_at_the_evaluation_point(monkeypatch):
    # x1 - 2 is zero at x1 = 2, so only the elimination can see rank 1
    calls = _counting_fallback(monkeypatch)
    fields = [_field(2, {(1, 0): 1, (0, 0): -2}, {})]
    assert generic_rank(fields) == 1 == _bareiss_only(fields)
    assert calls == [1]


def test_generic_rank_certificate_skips_the_elimination(monkeypatch):
    calls = _counting_fallback(monkeypatch)
    assert generic_rank(build_chain_algebra(2, 0, 6)) == 2
    assert calls == []


def test_generic_rank_laurent_entries_against_elimination():
    fields = [
        _field(2, {(-1, 0): 1}, {(1, -2): 1}),
        _field(2, {(-2, 1): 2}, {(0, -1): 1, (3, 0): -1}),
        _field(2, {(-3, 1): 2}, {(-1, -1): 1, (2, 0): -1}),
    ]
    for family in (fields[:1], fields[:2], fields, [fields[0], fields[2]]):
        assert generic_rank(family) == _bareiss_only(family)
    # the third row is 1/x1 times the second
    assert generic_rank(fields) == 2


def test_generic_rank_random_families_against_elimination(monkeypatch):
    # r random fields plus combinations of them with polynomial and Laurent
    # multipliers: rank at most r over the function field, usually below the
    # row and column counts, so both the certificate and the fallback decide
    calls = _counting_fallback(monkeypatch)
    rng = random.Random(4242)
    ranks = set()
    for _ in range(30):
        dim = rng.randint(1, 3)
        formal = rng.random() < 0.5
        base = [random_field(rng, dim, 3, formal=formal) for _ in range(rng.randint(1, dim))]
        fields = list(base)
        for _ in range(rng.randint(0, 3)):
            multipliers = [random_poly(rng, dim, 2, 2, min_exp=-1) for _ in base]
            fields.append(VectorField([
                sum((m * X.coeffs[i] for m, X in zip(multipliers, base)), LaurentPoly.zero(dim))
                for i in range(dim)
            ]))
        rng.shuffle(fields)
        rank = generic_rank(fields)
        assert rank == _bareiss_only(fields)
        assert rank <= len(base)
        ranks.add((rank, dim))
    assert len(calls) >= 5 and len(ranks) >= 5


@st.composite
def planted_rows(draw):
    """Fields for generic_rank whose rows have planted zero columns, supports
    drawn from a small pool (so they repeat), multiples of earlier rows, and
    entries or whole rows that vanish at the evaluation point (2, 3, 5, 7)."""
    dim = draw(st.integers(2, 4))
    point = lie._evaluation_point(dim)
    live = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    pool = draw(st.lists(st.sets(st.sampled_from(live), min_size=1), min_size=1, max_size=3))
    # x_i - p_i is zero at the point
    vanish = [LaurentPoly.variable(dim, i + 1) - point[i] for i in range(dim)]
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 3), Scalar(0, 1), Scalar(1, -2)])

    def entry():
        exps = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))
        p = LaurentPoly.monomial(dim, exps, draw(coeffs))
        if draw(st.integers(0, 3)) == 0:
            p = p * vanish[draw(st.integers(0, dim - 1))]
        return p

    fields = []
    for _ in range(draw(st.integers(1, 6))):
        if fields and draw(st.booleans()):
            factor = entry()
            row = [factor * p for p in draw(st.sampled_from(fields)).coeffs]
        else:
            support = draw(st.sampled_from(pool))
            row = [entry() if j in support else LaurentPoly.zero(dim) for j in range(dim)]
        if draw(st.integers(0, 4)) == 0:
            row = [vanish[0] * p for p in row]
        fields.append(VectorField(row))
    return fields


@settings(max_examples=150, deadline=None)
@given(planted_rows())
def test_rank_at_point_skips_only_dependent_rows(fields):
    # the skip must leave the rank at the point, and so the certified
    # generic rank, as the elimination finds them
    assert generic_rank(fields) == _bareiss_only(fields)
    rows = [list(X.coeffs) for X in fields if not X.is_zero()]
    if not rows:
        return
    dim = fields[0].dim
    point = lie._evaluation_point(dim)
    values = [[LaurentPoly.constant(dim, evaluate(p, point)) for p in row] for row in rows]
    assert lie._rank_at_point(rows, len(rows)) == _bareiss_rank(values)


@settings(max_examples=100, deadline=None)
@given(planted_rows(), st.data())
def test_generic_rank_with_planted_zero_fields(fields, data):
    # generic_rank keeps zero rows: the rank must be that of the nonzero ones
    dim = fields[0].dim
    padded = list(fields)
    for _ in range(data.draw(st.integers(1, 4))):
        padded.insert(data.draw(st.integers(0, len(padded))), VectorField.zero(dim))
    assert generic_rank(padded) == _bareiss_only(fields)


def test_generic_rank_of_zero_fields(monkeypatch):
    calls = _counting_fallback(monkeypatch)
    assert generic_rank([VectorField.zero(2)] * 3) == 0
    assert generic_rank(span_reduce([VectorField.zero(2)])) == 0
    # rank 1 with two nonzero columns: the elimination decides, zero rows included
    zero = VectorField.zero(2)
    fields = [zero, _field(2, {(1, 0): 1}, {(0, 1): 1}), zero, _field(2, {(2, 0): 1}, {(1, 1): 1})]
    assert generic_rank(fields) == 1
    assert calls == [4]


def test_rank_at_point_evaluates_each_column_once_on_the_chain(monkeypatch):
    # every derived level of the chain has as many independent rows as
    # nonzero columns, so once the columns are covered no row is evaluated
    levels = derived_series(build_chain_algebra(3, 0, 9))
    calls = []

    def counting(p, point):
        calls.append(p)
        return evaluate_parts(p, point)

    monkeypatch.setattr(lie, "evaluate_parts", counting)
    for level in levels[:-1]:
        calls.clear()
        columns = sum(1 for j in range(3) if any(X.coeffs[j] for X in level.basis))
        assert generic_rank(level) == columns
        assert len(calls) <= columns


def test_kappa_sequence_one_variable():
    g = span_reduce([mono_field(1, {1: 2}, 1)])
    ks = kappa_sequence(g)
    assert ks.values == (1, 0)


def test_kappa_sequence_nilpotent_family():
    _, _, zs = build_nilpotent_example(2)
    g = bracket_closure(zs)
    assert kappa_sequence(g).values == (2, 1, 0)


def test_kappa_strict_drop_property():
    g = build_chain_algebra(2, 0, 12)
    ks = kappa_sequence(g)
    assert ks.values == (2, 2, 1, 1, 0)
    assert ks.strict_two_step_drop()


def _x_coefficients(Z, xs):
    """Z's coefficients over the triangular X basis of the nilpotent family,
    by back-substitution in the Laurent ring."""
    inverses = [X.coeffs[k].monomial_inverse() for k, X in enumerate(xs)]
    return _triangular_coefficients(Z, xs, inverses)


def test_decompose_over_split_coefficients():
    _, xs, _ = build_nilpotent_example(3)
    Z = VectorField([xs[0].coeffs[0] * 3 + xs[1].coeffs[0],
                     xs[1].coeffs[1],
                     LaurentPoly.zero(3)])
    assert _x_coefficients(Z, xs) == [
        LaurentPoly.constant(3, 3), LaurentPoly.one(3), LaurentPoly.zero(3),
    ]


def test_decompose_over_split_rejects_one_stranger():
    # fields in the span of X1, X2 have no X3 coefficient; X3 itself has one
    _, xs, _ = build_nilpotent_example(3)
    combo = VectorField([a * 2 - b for a, b in zip(xs[0].coeffs, xs[1].coeffs)])
    decomposed = [_x_coefficients(Z, xs) for Z in (xs[0], xs[1], combo)]
    assert decomposed == [
        [LaurentPoly.constant(3, c) for c in row] for row in ([1, 0, 0], [0, 1, 0], [2, -1, 0])
    ]
    assert _x_coefficients(xs[2], xs)[2] == LaurentPoly.one(3)


def test_eigenfunction_vanishing_for_nilpotent_fields():
    # a nilpotent formal field admits no monomial eigenfunction with a
    # nonzero eigenvalue; scan all Laurent monomials with exponents
    # bounded by 3
    from itertools import product as iproduct

    candidates = []
    for exps in iproduct(range(-3, 4), repeat=2):
        if any(exps):
            candidates.append(LaurentPoly(2, {exps: Scalar(1)}))
    _, _, zs = build_nilpotent_example(2)
    nilpotent_fields = list(zs) + [
        X for X in build_chain_algebra(2, 0, 6).basis if X.is_nilpotent()
    ]
    for X in nilpotent_fields:
        for h in candidates:
            image = X.apply(h)
            if image.is_zero():
                continue
            # image = lambda * h with scalar lambda would need identical
            # monomial support
            if set(image.terms) == set(h.terms):
                ((e, c),) = list(h.terms.items())
                lam = image.terms[e] / c
                assert not lam, f"eigenfunction {h!r} for {X!r}"


def test_intro_family_lie_counterpart_class():
    # logs of planar-family members generate a jet-level algebra of
    # nilpotency class k_param - 1
    import random as _random

    from germcalc.diffeos import log_diffeo
    from germcalc.families import random_intro_member

    for k_param in (3, 4):
        order = k_param + 3
        rng = _random.Random(5)
        logs = [
            log_diffeo(random_intro_member(rng, k_param, order)) for _ in range(8)
        ]
        g = bracket_closure([X for X in logs if not X.is_zero()], order)
        assert nilpotency_class(g) == k_param - 1


def test_span_reduce_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        span_reduce([mono_field(2, {2: 2}, 1), mono_field(3, {2: 2}, 1)])


def test_series_reject_an_unclosed_span():
    # x1^2 d1 and x1^3 d1 generate x1^j d1 for j = 2..10, of soluble length
    # 3; their span alone is not closed and would give 1
    gens = [mono_field(1, {1: 2}, 1), mono_field(1, {1: 3}, 1)]
    span = span_reduce(gens, 10)
    for series in (derived_series, central_series, soluble_length, nilpotency_class, kappa_sequence):
        with pytest.raises(ValueError, match="not closed"):
            series(span)
    assert soluble_length(bracket_closure(gens, 10)) == 3


def test_series_reject_a_span_falsely_marked_closed():
    # the span of these four fields is not closed at jet order 5, so its
    # "series" would grow (4, 6, 12, ... and 4, 6, 18, ...)
    fields = parse_fields(
        "x1^2 d1 + x2^2 d2; x1*x2 d1 + x1^2 d2; x2^2 d1 + x1*x2 d2; x1^2 d2 + x2^3 d1", 2
    )
    span = LieAlgebraSpan(2, span_reduce(fields, 5).basis, 5, closed=True)
    assert span.closed
    for series in (derived_series, central_series):
        with pytest.raises(ValueError, match="not closed"):
            series(span)


def test_central_series_runs_to_its_end():
    # x1^2 d1 and x1^3 d1 generate x1^j d1 for j = 2..260, of dimension 259;
    # C^j is spanned by x1^(j+3) d1, ..., x1^260 d1, so the class is 258
    g = bracket_closure([mono_field(1, {1: 2}, 1), mono_field(1, {1: 3}, 1)], 260)
    assert g.dimension == 259
    assert nilpotency_class(g) == 258


def test_closed_spans_are_marked():
    _, _, zs = build_nilpotent_example(2)
    g = bracket_closure(zs)
    assert g.closed
    assert all(level.closed for level in derived_series(g) + central_series(g))
    assert not span_reduce(zs).closed
    # the marks and the echelon take no part in equality
    g.contains_field(g.basis[0])  # builds the echelon
    bare = LieAlgebraSpan(g.dim, g.basis, g.order, g.degree_budget)
    assert (bare.closed, bare.generators, bare._echelon) == (False, None, None)
    assert g.generators == 2 and g._echelon is not None
    assert bare == g and hash(bare) == hash(g)
    assert LieAlgebraSpan(g.dim, g.basis[1:], closed=True, generators=1) != g
    # spans and kappa sequences are immutable values
    ks = kappa_sequence(g)
    for value, name in ((g, "closed"), (g, "basis"), (g, "other"), (ks, "values"), (ks, "other")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        del g.generators
    assert g.closed and g.generators == 2
    assert pickle.loads(pickle.dumps(ks)) == ks and hash(ks) == hash(kappa_sequence(bare))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_algebras_are_closed(n):
    for index in range(2 * n + 1):
        g = build_chain_algebra(n, index, 5)
        assert g.closed
        if g.basis:
            assert bracket_closure(list(g.basis), 5).dimension == g.dimension
