from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    moebius_component,
    random_nilpotent_field,
    random_scalar,
    random_unipotent_diffeo,
)

from germcalc.diffeos import (
    FormalDiffeo,
    WordComm,
    WordLeaf,
    evaluate_word,
    exp_field,
    log_diffeo,
    word_depth,
)
from germcalc.fields import VectorField
from germcalc.laurent import LaurentPoly, substitute
from germcalc.matrices import identity, is_nilpotent_matrix, is_unipotent_matrix, mat_inverse
from germcalc.scalars import I, Scalar


def onevar(terms):
    return LaurentPoly(1, terms)


def test_construction_invariants():
    x = LaurentPoly.variable(1, 1)
    with pytest.raises(ValueError):
        FormalDiffeo([x + LaurentPoly.one(1)], 3)  # constant term
    with pytest.raises(ValueError):
        FormalDiffeo([x ** 2], 3)  # singular linear part
    with pytest.raises(ValueError):
        FormalDiffeo([LaurentPoly.monomial(1, {1: -1})], 3)  # Laurent


def test_compose_cancellation():
    x = LaurentPoly.variable(1, 1)
    phi = FormalDiffeo([x + x ** 2], 3)
    psi = FormalDiffeo([x - x ** 2 + x ** 3 * 2], 3)
    assert phi.compose(psi) == FormalDiffeo.identity(1, 3)


def test_compose_identity():
    phi = FormalDiffeo([LaurentPoly.variable(2, 1) + LaurentPoly.monomial(2, {2: 2}),
                        LaurentPoly.variable(2, 2)], 4)
    ident = FormalDiffeo.identity(2, 4)
    assert ident.compose(phi) == phi
    assert phi.compose(ident) == phi


def test_moebius_composition_law():
    # one-variable Moebius maps compose by multiplying the scale factors and
    # pushing the translation parameter through: mu = mu2 + mu1*lam2
    order = 6
    l1, m1 = Scalar(2), Scalar(1)
    l2, m2 = Scalar(3), Scalar(-2)
    a = FormalDiffeo([moebius_component(1, 1, l1, m1, order)], order)
    b = FormalDiffeo([moebius_component(1, 1, l2, m2, order)], order)
    expected = FormalDiffeo(
        [moebius_component(1, 1, l1 * l2, m2 + m1 * l2, order)], order
    )
    assert a.compose(b) == expected


def test_invert_example():
    x = LaurentPoly.variable(1, 1)
    phi = FormalDiffeo([x + x ** 2], 3)
    assert phi.invert() == FormalDiffeo([x - x ** 2 + x ** 3 * 2], 3)


def test_invert_identity_and_linear():
    ident = FormalDiffeo.identity(2, 3)
    assert ident.invert() == ident
    lin = FormalDiffeo.linear([[Scalar(2), Scalar(1)], [Scalar(0), Scalar(1)]], 3)
    inv = lin.invert()
    assert lin.compose(inv) == ident and inv.compose(lin) == ident


def test_invert_random_round_trip(rng):
    for _ in range(5):
        phi = random_unipotent_diffeo(rng, 2, 5)
        ident = FormalDiffeo.identity(2, 5)
        assert phi.compose(phi.invert()) == ident
        assert phi.invert().compose(phi) == ident


def test_exp_field_example():
    X = VectorField([LaurentPoly.monomial(1, {1: 2})])
    phi = exp_field(X, 1, 4)
    x = LaurentPoly.variable(1, 1)
    assert phi == FormalDiffeo([x + x ** 2 + x ** 3 + x ** 4], 4)


def test_exp_field_is_a_valid_diffeo():
    # the inputs of acceptance criterion 7: exp_field skips the constructor's
    # checks, which must accept its result unchanged
    import random

    rng = random.Random(12345)
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        k = rng.randint(2, 6)
        X = random_nilpotent_field(rng, n, min(k, 4))
        phi = exp_field(X, 1, k)
        assert phi == FormalDiffeo(list(phi.components), k)
        assert phi.is_unipotent()


def test_exp_zero_field():
    assert exp_field(VectorField.zero(2), 1, 3) == FormalDiffeo.identity(2, 3)


def test_exp_moebius_slice():
    # exp(-mu x^2 d/dx) is the Moebius map x / (1 + mu x)
    mu = Scalar(2)
    X = VectorField([LaurentPoly.monomial(1, {1: 2})])
    phi = exp_field(X, -mu, 5)
    assert phi.components[0] == moebius_component(1, 1, Scalar(1), mu, 5)


def test_exp_rejects_non_nilpotent():
    X = VectorField([LaurentPoly.variable(1, 1)])
    with pytest.raises(ValueError):
        exp_field(X, 1, 3)


def test_log_example_and_round_trips():
    x = LaurentPoly.variable(1, 1)
    phi = FormalDiffeo([x + x ** 2 + x ** 3 + x ** 4], 4)
    X = log_diffeo(phi)
    assert X == VectorField([x ** 2])
    assert log_diffeo(FormalDiffeo.identity(2, 3)).is_zero()


def test_log_rejects_non_unipotent():
    x = LaurentPoly.variable(1, 1)
    with pytest.raises(ValueError):
        log_diffeo(FormalDiffeo([x * 2], 3))


def test_log_exp_round_trip_planar_generator():
    # round trip through the four-coefficient planar generator
    Z2 = VectorField.from_terms(
        2,
        (LaurentPoly.monomial(2, {1: 1, 2: 1}, 4), 1),
        (LaurentPoly.monomial(2, {2: 2}), 2),
    )
    phi = exp_field(Z2, 1, 5)
    assert log_diffeo(phi) == Z2.truncate(5)


def test_log_exp_round_trip_random(rng):
    for _ in range(10):
        X = random_nilpotent_field(rng, 2, 4)
        k = 4
        assert log_diffeo(exp_field(X, 1, k)) == X.truncate(k)


def test_exp_is_homomorphism_in_t():
    X = VectorField.from_terms(2, (LaurentPoly.monomial(2, {2: 2}), 1))
    a = exp_field(X, Scalar(1), 4)
    b = exp_field(X, Scalar(2), 4)
    assert a.compose(b) == exp_field(X, Scalar(3), 4)


def test_group_commutator_trivial_cases():
    phi = FormalDiffeo([LaurentPoly.variable(1, 1) + LaurentPoly.monomial(1, {1: 2})], 4)
    ident = FormalDiffeo.identity(1, 4)
    assert phi.commutator(phi) == ident
    assert phi.commutator(ident) == ident


def test_commutator_of_unipotents_is_unipotent(rng):
    from germcalc.jets import to_jet_matrix
    from germcalc.matrices import is_unipotent_matrix

    for _ in range(5):
        a = random_unipotent_diffeo(rng, 2, 4)
        b = random_unipotent_diffeo(rng, 2, 4)
        c = a.commutator(b)
        assert c.is_unipotent()
        assert is_unipotent_matrix(to_jet_matrix(c).matrix)


def test_intro_pair_commutator_shape():
    # commutator of two planar-family elements translates the first
    # coordinate by a polynomial in the second with no linear part
    from germcalc.families import intro_member

    order = 6
    P1 = LaurentPoly.monomial(2, {2: 2})
    P2 = LaurentPoly.zero(2)
    a = intro_member(3, P1, Scalar(1), order)
    b = intro_member(3, P2, Scalar(2), order)
    c = a.commutator(b)
    assert c.components[1] == LaurentPoly.variable(2, 2)
    q = c.components[0] - LaurentPoly.variable(2, 1)
    assert not q.is_zero()
    assert all(e[0] == 0 and e[1] >= 2 for e in q.terms)


@pytest.mark.parametrize(
    "components, tangent",
    [
        (("x1 + x2", "x2"), False),  # another degree-1 key in the component
        (("2*x1", "x2"), False),  # the diagonal numerator is not the denominator
        (("i*x1", "x2"), False),  # an imaginary diagonal coefficient
        (("x1 + x1^2", "x2"), True),  # only higher-degree terms besides x1
        (("x1 + 1/2*x1^2", "x2"), True),  # x1's numerator equals a denominator != 1
        (("x1", "x2 - 1/3*x1 + x1^3"), False),
        (("x1", "1/2*x2 + x2^2"), False),
    ],
)
def test_is_tangent_to_identity_reads_the_degree_one_keys(components, tangent):
    from germcalc.parsing import parse_poly

    phi = FormalDiffeo([parse_poly(c, 2) for c in components], 5)
    assert phi.is_tangent_to_identity() is tangent
    assert tangent == (phi.linear_part() == [[1, 0], [0, 1]])


def test_word_evaluation():
    x = LaurentPoly.variable(1, 1)
    g0 = FormalDiffeo([x + x ** 2], 5)
    g1 = FormalDiffeo([x * 2], 5)
    assert evaluate_word(WordLeaf(0), [g0, g1]) == g0
    assert evaluate_word(WordLeaf(1, inverse=True), [g0, g1]) == g1.invert()
    w = WordComm(WordLeaf(0), WordLeaf(0))
    assert evaluate_word(w, [g0, g1]) == FormalDiffeo.identity(1, 5)
    w2 = WordComm(WordLeaf(0), WordLeaf(1))
    assert not evaluate_word(w2, [g0, g1]).is_identity()
    assert word_depth(w2) == 1
    assert word_depth(WordComm(w2, WordComm(WordLeaf(0), WordLeaf(1)))) == 2


def test_word_depth_certifies_derived_level():
    # depth-1 words on scale maps land in the translation-free part
    x = LaurentPoly.variable(1, 1)
    g0 = FormalDiffeo([x * 2], 6)
    g1 = FormalDiffeo([moebius_component(1, 1, Scalar(1), Scalar(1), 6)], 6)
    w = WordComm(WordLeaf(0), WordLeaf(1))
    val = evaluate_word(w, [g0, g1])
    assert val.is_tangent_to_identity()
    assert not val.is_identity()


def test_evaluate_word_index_error():
    x = LaurentPoly.variable(1, 1)
    g0 = FormalDiffeo([x + x ** 2], 3)
    with pytest.raises(ValueError):
        evaluate_word(WordLeaf(3), [g0])


def _evaluate_unshared(word, gens):
    """evaluate_word without sharing: one evaluation per tree node."""
    if isinstance(word, WordLeaf):
        return gens[word.index].invert() if word.inverse else gens[word.index]
    return _evaluate_unshared(word.left, gens).commutator(_evaluate_unshared(word.right, gens))


def _commutator_nodes(word) -> set:
    if isinstance(word, WordLeaf):
        return set()
    return {word} | _commutator_nodes(word.left) | _commutator_nodes(word.right)


def _counting(monkeypatch, name):
    """Wrap FormalDiffeo.<name> so that each call is recorded."""
    calls = []
    method = getattr(FormalDiffeo, name)

    def wrapper(self, *args):
        calls.append(self)
        return method(self, *args)

    monkeypatch.setattr(FormalDiffeo, name, wrapper)
    return calls


def test_evaluate_word_shares_subwords(monkeypatch):
    # the n = 2 witness word [[[g1,g3],[g0,g1]],[[g2,g3],[g1,g3]]] holds
    # [g1,g3] twice: seven commutator nodes, six distinct
    from germcalc.verification import load_witness_fixture

    fx = load_witness_fixture("group_witness_n2.txt")
    (word,) = fx.words
    expected = _evaluate_unshared(word, fx.generators)
    calls = _counting(monkeypatch, "commutator")
    assert evaluate_word(word, fx.generators) == expected
    assert len(calls) == len(_commutator_nodes(word)) == 6


def test_evaluate_word_inverts_a_repeated_leaf_once(monkeypatch):
    x = LaurentPoly.variable(1, 1)
    gens = [FormalDiffeo([x * 2 + x ** 2], 6), FormalDiffeo([x + x ** 3], 6)]
    inv = WordLeaf(0, inverse=True)
    word = WordComm(WordComm(inv, WordLeaf(1)), WordComm(WordLeaf(1), inv))
    expected = _evaluate_unshared(word, gens)
    inverted = _counting(monkeypatch, "invert")
    commuted = _counting(monkeypatch, "commutator")
    assert evaluate_word(word, gens) == expected
    assert inverted == [gens[0]]
    assert len(commuted) == 3


def test_word_nodes_compare_by_type_and_fields():
    assert WordLeaf(0) == WordLeaf(0, False) == WordLeaf(index=0, inverse=False)
    assert hash(WordLeaf(0)) == hash(WordLeaf(0, False))
    assert WordLeaf(0) != WordLeaf(0, True) and WordLeaf(0) != WordLeaf(1)
    comm = WordComm(WordLeaf(0), WordLeaf(1, True))
    assert comm == WordComm(WordLeaf(0), WordLeaf(1, inverse=True))
    assert hash(comm) == hash(WordComm(WordLeaf(0), WordLeaf(1, True)))
    assert comm != WordComm(WordLeaf(1, True), WordLeaf(0))
    # a leaf is never a node, nor the tuple of its fields
    assert WordLeaf(0) != WordComm(WordLeaf(0), WordLeaf(0))
    assert WordComm(WordLeaf(0), WordLeaf(0)) != WordLeaf(0)
    assert WordLeaf(0) != (0, False)


def test_word_nodes_are_immutable():
    leaf, comm = WordLeaf(0), WordComm(WordLeaf(0), WordLeaf(1))
    for node, name, value in ((leaf, "index", 1), (leaf, "inverse", True),
                              (comm, "left", leaf), (leaf, "other", 0)):
        with pytest.raises(AttributeError):
            setattr(node, name, value)
    with pytest.raises(AttributeError):
        del leaf.index
    assert (leaf.index, leaf.inverse) == (0, False)
    assert comm.left == WordLeaf(0)


def test_word_node_repr_pickle_and_copy():
    import copy
    import pickle

    comm = WordComm(WordLeaf(0), WordLeaf(1, inverse=True))
    assert repr(WordLeaf(0)) == "WordLeaf(index=0, inverse=False)"
    assert repr(comm) == (
        "WordComm(left=WordLeaf(index=0, inverse=False), right=WordLeaf(index=1, inverse=True))"
    )
    assert pickle.loads(pickle.dumps(comm)) == comm
    assert copy.deepcopy(comm) == comm


@pytest.mark.parametrize("name", ["group_witness_n1.txt", "group_witness_n2.txt"])
def test_witness_words_round_trip_through_text(name):
    from germcalc.parsing import format_word, parse_word
    from germcalc.verification import load_witness_fixture

    words = load_witness_fixture(name).words
    assert words
    for word in words:
        assert parse_word(format_word(word)) == word


def test_evaluate_word_shares_equal_but_distinct_subwords(monkeypatch):
    x = LaurentPoly.variable(1, 1)
    gens = [FormalDiffeo([x * 2 + x ** 2], 6), FormalDiffeo([x + x ** 3], 6)]
    first, second = WordComm(WordLeaf(0), WordLeaf(1)), WordComm(WordLeaf(0), WordLeaf(1))
    assert first is not second and first == second
    word = WordComm(first, WordComm(second, WordLeaf(0)))
    expected = _evaluate_unshared(word, gens)
    commuted = _counting(monkeypatch, "commutator")
    assert evaluate_word(word, gens) == expected
    assert len(commuted) == 3


def test_compose_requires_matching_order_and_dim():
    x = LaurentPoly.variable(1, 1)
    a = FormalDiffeo([x + x ** 2], 3)
    b = FormalDiffeo([x + x ** 2], 4)
    with pytest.raises(ValueError):
        a.compose(b)
    c = FormalDiffeo.identity(2, 3)
    with pytest.raises(ValueError):
        a.compose(c)


# -- oracles for the group operations ------------------------------------------


def reference_invert(phi: FormalDiffeo) -> FormalDiffeo:
    """The inverse jet solved degree by degree: k - 1 full-order compositions.

    With psi correct through degree d-1, the error r = phi o psi - id starts
    at degree d and the linear part A of phi acts on the degree-d correction,
    so psi -= A^{-1} r_d fixes degree d without disturbing lower degrees.
    """
    n, k = phi.dim, phi.order
    a_inv = mat_inverse(phi.linear_part())
    psi = FormalDiffeo.linear(a_inv, k)
    ident = FormalDiffeo.identity(n, k)
    for d in range(2, k + 1):
        err = [c - i for c, i in zip(phi.compose(psi).components, ident.components)]
        correction = [e.degree_part(d) for e in err]
        if all(c.is_zero() for c in correction):
            continue
        new_comps = []
        for i in range(n):
            delta = LaurentPoly.zero(n)
            for j in range(n):
                if a_inv[i][j]:
                    delta = delta + correction[j] * a_inv[i][j]
            new_comps.append(psi.components[i] - delta)
        psi = FormalDiffeo(new_comps, k)
    return psi


LINEAR_POOL = [0, 0, 1, -1, 2, I, Scalar(1, -1), Fraction(1, 2)]

# non-unipotent linear parts pinned by hand: scalings by 2 and i, a
# non-diagonal, non-triangular 2x2, and a 3x3 cyclic map with Gaussian entries
PINNED_LINEAR = {
    1: [[[2]], [[I]]],
    2: [[[1, 2], [I, 1]], [[2, 1], [0, I]]],
    3: [[[0, 1, 0], [0, 0, 2], [I, 0, 0]]],
}


def random_diffeo(rng, dim, order, linear=None) -> FormalDiffeo:
    """A random jet with the given (or a random invertible) linear part and a
    few higher-order terms of degree 2..order."""
    while linear is None:
        m = [[Scalar.of(rng.choice(LINEAR_POOL)) for _ in range(dim)] for _ in range(dim)]
        try:
            mat_inverse(m)
        except ValueError:
            continue
        linear = m
    comps = []
    for i in range(dim):
        terms = {}
        for j in range(dim):
            e = [0] * dim
            e[j] = 1
            terms[tuple(e)] = Scalar.of(linear[i][j])
        for _ in range(3):
            d = rng.randint(2, max(2, order))
            e = [0] * dim
            for _ in range(d):
                e[rng.randrange(dim)] += 1
            terms[tuple(e)] = terms.get(tuple(e), Scalar(0)) + random_scalar(rng)
        comps.append(LaurentPoly(dim, terms))
    return FormalDiffeo(comps, order)


def assert_valid(r: FormalDiffeo):
    """A result of a group operation passes the public constructor's checks."""
    assert FormalDiffeo(r.components, r.order) == r


@pytest.mark.parametrize(
    "dim,orders", [(1, range(1, 13)), (2, range(1, 10)), (3, range(1, 7))]
)
def test_invert_matches_degree_by_degree_reference(rng, dim, orders):
    for order in orders:
        cases = [random_diffeo(rng, dim, order) for _ in range(2)]
        cases += [random_diffeo(rng, dim, order, m) for m in PINNED_LINEAR[dim]]
        for phi in cases:
            inv = phi.invert()
            assert inv == reference_invert(phi)
            assert_valid(inv)
            assert phi.compose(inv) == FormalDiffeo.identity(dim, order)


@pytest.mark.parametrize("dim,order", [(1, 9), (2, 6), (3, 4)])
def test_commutator_is_four_fold_product(rng, dim, order):
    cases = [random_diffeo(rng, dim, order) for _ in range(3)]
    cases += [random_diffeo(rng, dim, order, m) for m in PINNED_LINEAR[dim]]
    for a, b in zip(cases, cases[1:]):
        c = a.commutator(b)
        expected = a.compose(b).compose(reference_invert(a)).compose(reference_invert(b))
        assert c == expected
        assert_valid(c)
        assert_valid(a.compose(b))


def test_series_reversion_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.rings import ring
    from sympy.polys.ring_series import rs_series_reversion

    def to_sympy(s: Scalar):
        return QQ_I.from_sympy(
            sympy.Rational(s.re.numerator, s.re.denominator)
            + sympy.I * sympy.Rational(s.im.numerator, s.im.denominator)
        )

    def from_sympy(c) -> Scalar:
        re, im = QQ_I.to_sympy(c).as_real_imag()
        return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))

    R, x, y = ring("x, y", QQ_I)
    for order in range(1, 11):
        for lin in ([[2]], [[I]], [[Scalar(1, -1)]], [[Fraction(-1, 2)]]):
            phi = random_diffeo(rng, 1, order, lin)
            p = R.zero
            for (e,), c in phi.components[0].terms.items():
                p += to_sympy(c) * x ** e
            rev = rs_series_reversion(p, x, order + 1, y)
            expected = LaurentPoly(
                1, {(mon[1],): from_sympy(c) for mon, c in rev.terms()}
            )
            assert phi.invert().components == (expected,)


# -- the commutator against the textbook four-fold product -----------------------


def textbook_commutator(a: FormalDiffeo, b: FormalDiffeo) -> FormalDiffeo:
    """a o b o a^-1 o b^-1: two inversions and three compositions."""
    return a.compose(b).compose(a.invert()).compose(b.invert())


GAUSSIAN = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]),
)


@st.composite
def jets(draw, dim, order, low, linear=None):
    """x -> linear x plus one to three terms of degree low..order with
    Gaussian-rational coefficients; linear is the identity when None."""
    comps = []
    for i in range(dim):
        terms = {}
        for j in range(dim):
            c = (1 if i == j else 0) if linear is None else linear[i][j]
            if c:
                e = [0] * dim
                e[j] = 1
                terms[tuple(e)] = Scalar.of(c)
        for _ in range(draw(st.integers(1, 3)) if low <= order else 0):
            d = draw(st.integers(low, order))
            e = [0] * dim
            for v in draw(st.lists(st.integers(0, dim - 1), min_size=d, max_size=d)):
                e[v] += 1
            terms[tuple(e)] = terms.get(tuple(e), Scalar(0)) + draw(GAUSSIAN)
        comps.append(LaurentPoly(dim, terms))
    return FormalDiffeo(comps, order)


@st.composite
def commutator_pairs(draw):
    """Pairs with non-commuting invertible linear parts (ord D = 1),
    commuting pairs (D = 0), near-identity pairs whose terms start at a high
    degree (ord D is high), and pairs with diagonal linear parts other than
    the identity (ord D >= 2 while b o a is not tangent to the identity)."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["linear", "commuting", "near-identity", "diagonal"]))
    if kind == "near-identity":
        # D starts at degree >= low_a + low_b - 1, so keep that <= order
        order = draw(st.integers(1, 10))
        lows = st.integers(2, max(2, (order + 1) // 2))
        return draw(jets(dim, order, draw(lows))), draw(jets(dim, order, draw(lows)))
    # dense linear parts in three variables cost seconds past order 5
    order = draw(st.integers(1, 10 if dim < 3 else 5))
    if kind == "diagonal":
        units = st.sampled_from([c for c in LINEAR_POOL if c]).map(Scalar.of)
        diagonals = st.lists(units, min_size=dim, max_size=dim).filter(
            lambda ds: any(c != 1 for c in ds)
        )
        first = draw(diagonals)
        # keep the linear part of b o a off the identity too
        second = draw(diagonals.filter(lambda ds: any(c * e != 1 for c, e in zip(first, ds))))
        mats = [
            [[c if i == j else Scalar(0) for j in range(dim)] for i, c in enumerate(ds)]
            for ds in (first, second)
        ]
        return draw(jets(dim, order, 2, mats[0])), draw(jets(dim, order, 2, mats[1]))
    entries = st.sampled_from(LINEAR_POOL)
    mats = []
    for _ in range(2):
        m = [[Scalar.of(draw(entries)) for _ in range(dim)] for _ in range(dim)]
        # m + s*I is singular for at most dim values of s
        for s in range(dim + 1):
            shifted = [
                [c + s if i == j else c for j, c in enumerate(row)] for i, row in enumerate(m)
            ]
            try:
                mat_inverse(shifted)
            except ValueError:
                continue
            mats.append(shifted)
            break
    a = draw(jets(dim, order, 2, mats[0]))
    if kind == "commuting":
        b = draw(st.sampled_from([a.compose(a), a.invert(), FormalDiffeo.identity(dim, order)]))
    else:
        b = draw(jets(dim, order, 2, mats[1]))
    return a, b


@settings(max_examples=120, deadline=None)
@given(commutator_pairs())
def test_commutator_matches_the_textbook_product(pair):
    a, b = pair
    c = a.commutator(b)
    assert c == textbook_commutator(a, b)
    assert_valid(c)
    if a.compose(b) == b.compose(a):
        assert c.is_identity()


def test_commutator_of_noncommuting_linear_parts():
    # ord D = 1 and b o a is not tangent to the identity: every degree of
    # the solve runs the substitution of L^-1
    a = FormalDiffeo.linear([[Scalar(1), Scalar(1)], [Scalar(0), Scalar(1)]], 6)
    b = FormalDiffeo.linear([[Scalar(1), Scalar(0)], [I, Scalar(2)]], 6)
    x, y = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    b = b.compose(FormalDiffeo([x + y ** 3, y - x ** 2 * Fraction(1, 2)], 6))
    assert a.commutator(b) == textbook_commutator(a, b)
    assert not a.commutator(b).is_identity()


def test_commutator_never_inverts(monkeypatch):
    # [a, b] solves E o (b o a) = a o b - b o a degree by degree, so no
    # inverse is formed, whatever the linear parts
    from germcalc.families import intro_member

    order = 8
    y = LaurentPoly.variable(2, 2)
    a = intro_member(5, y ** 2, Scalar(1), order)
    b = intro_member(5, y ** 3 * 2 - y ** 5, Scalar(-2), order)
    c = intro_member(5, y ** 4 * Fraction(1, 2), Scalar(Fraction(1, 2)), order)
    inner = b.commutator(a)
    x1, x2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    # ord D = 1: the pair of test_commutator_of_noncommuting_linear_parts
    p = FormalDiffeo.linear([[Scalar(1), Scalar(1)], [Scalar(0), Scalar(1)]], 6)
    q = FormalDiffeo.linear([[Scalar(1), Scalar(0)], [I, Scalar(2)]], 6)
    q = q.compose(FormalDiffeo([x1 + x2 ** 3, x2 - x1 ** 2 * Fraction(1, 2)], 6))
    # diagonal linear parts other than the identity, terms from degree 2
    r = FormalDiffeo([x1 * 2 + x2 ** 2, x2 * I - x1 ** 2 * x2], 6)
    s = FormalDiffeo([x1 * -1 + x1 * x2 ** 2, x2 * 3 + x1 ** 3], 6)
    pairs = [(c, inner), (p, q), (r, s)]

    def failing(self):
        raise AssertionError("the commutator forms no inverse")

    monkeypatch.setattr(FormalDiffeo, "invert", failing)
    values = [u.commutator(v) for u, v in pairs]
    monkeypatch.undo()
    for (u, v), value in zip(pairs, values):
        assert not value.is_identity()
        assert value == textbook_commutator(u, v)


def test_commutator_of_random_dense_jets_in_three_variables(rng):
    # 3-term random jets with random linear parts in dim 3 at order 8: the
    # case where inverting the dense b o a cost more than the textbook product
    for _ in range(2):
        a, b = random_diffeo(rng, 3, 8), random_diffeo(rng, 3, 8)
        assert a.commutator(b) == textbook_commutator(a, b)


def test_commuting_commutator_skips_the_inversion(monkeypatch):
    x = LaurentPoly.variable(1, 1)
    a = FormalDiffeo([x * 2 + x ** 2], 6)

    def failing(self):
        raise AssertionError("commuting pairs need no inversion")

    b = a.compose(a)
    monkeypatch.setattr(FormalDiffeo, "invert", failing)
    assert a.commutator(b) == FormalDiffeo.identity(1, 6)


# -- sympy oracles: composition, exp and log as truncated series ------------------


def _ring_element(p: LaurentPoly, R):
    """A polynomial in the first p.dim generators of the sympy ring R (over
    QQ_I) as an element of R."""
    from sympy.polys.domains import QQ_I

    pad = (0,) * (R.ngens - p.dim)
    return R({
        exps + pad: QQ_I(QQ_I.dom(c.re.numerator, c.re.denominator),
                         QQ_I.dom(c.im.numerator, c.im.denominator))
        for exps, c in p.terms.items()
    })


def _ring_truncate(f, order, count):
    """The terms of f whose degree in the first count generators is <= order."""
    return f.ring({m: c for m, c in f.terms() if sum(m[:count]) <= order})


@pytest.mark.parametrize("dim,orders", [(1, range(1, 11)), (2, range(1, 8))])
def test_compose_against_sympy(rng, dim, orders):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.rings import ring

    R, *gens = ring(",".join(f"x{i}" for i in range(1, dim + 1)), QQ_I)
    for order in orders:
        for _ in range(3):
            a, b = random_diffeo(rng, dim, order), random_diffeo(rng, dim, order)
            inner = list(zip(gens, (_ring_element(c, R) for c in b.components)))
            for got, outer in zip(a.compose(b).components, a.components):
                expected = _ring_truncate(_ring_element(outer, R).compose(inner), order, dim)
                assert _ring_element(got, R) == expected


def _flow(f, t, order):
    """The time-t flow of f(x) d/dx, ord f >= 2, truncated at order: the
    Picard iteration phi <- x + integral_0^s f(phi) ds over QQ_I[x, s]
    gains one x-degree a step, and s = t at the end."""
    R = f.ring
    x, s = R.gens
    coeffs = {a: c for (a, _), c in f.terms()}
    phi = x
    for _ in range(order - 1):
        integrand = R.zero  # f(phi) by Horner, cut at x-degree order
        for d in range(max(coeffs, default=0), -1, -1):
            integrand = _ring_truncate(integrand * phi, order, 1) + coeffs.get(d, 0)
        phi = x + R({(a, b + 1): c / (b + 1) for (a, b), c in integrand.terms()})
    return phi.compose(s, R.ground_new(t))


def _one_variable_field(rng, order):
    """A field f(x) d/dx with ord f >= 2 and Gaussian-rational coefficients."""
    terms = {(d,): random_scalar(rng) for d in range(2, order + 1) if rng.random() < 0.6}
    return VectorField([LaurentPoly(1, terms)])


def test_exp_field_against_sympy_flow(rng):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.rings import ring

    R, x, s = ring("x, s", QQ_I)
    for order in range(1, 11):
        for t in (Scalar(1), Scalar(Fraction(-1, 2)), Scalar(Fraction(1, 3), 1)):
            X = _one_variable_field(rng, order)
            (qt,) = _ring_element(LaurentPoly.constant(1, t), R).coeffs()
            expected = _flow(_ring_element(X.coeffs[0], R), qt, order)
            assert _ring_element(exp_field(X, t, order).components[0], R) == expected


def test_log_diffeo_against_sympy_flow(rng):
    # the generator of a tangent-to-identity jet is the unique field of
    # order >= 2 whose time-1 flow is the jet
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.rings import ring

    R, x, s = ring("x, s", QQ_I)
    for order in range(1, 9):
        for _ in range(2):
            terms = {(1,): Scalar(1)}
            terms.update({(d,): random_scalar(rng) for d in range(2, order + 1)})
            phi = FormalDiffeo([LaurentPoly(1, terms)], order)
            (f,) = log_diffeo(phi).coeffs
            assert f.is_zero() or f.min_total_degree() >= 2
            assert _flow(_ring_element(f, R), QQ_I.one, order) == _ring_element(
                phi.components[0], R
            )


# -- independent oracles for the Krylov kernel of exp and log -----------------------


def _exp_by_apply(X, t, order):
    """exp(tX) from repeated public ``VectorField.apply(w, order)`` and
    Scalar weights t^j/j!."""
    comps = []
    for w in (LaurentPoly.variable(X.dim, i) for i in range(1, X.dim + 1)):
        total, weight = w, Scalar(1)
        for j in range(1, 200):
            w = X.apply(w, order)
            if w.is_zero():
                break
            weight = weight * t / j
            total = total + w * weight
        else:
            raise AssertionError("the reference sum did not terminate")
        comps.append(total)
    return FormalDiffeo(comps, order)


def _log_by_substitute(phi):
    """log(phi) from repeated ``substitute(w, phi) - w`` and Fraction
    weights (-1)^(j+1)/j."""
    coeffs = []
    for w in (LaurentPoly.variable(phi.dim, i) for i in range(1, phi.dim + 1)):
        total = LaurentPoly.zero(phi.dim)
        for j in range(1, 200):
            w = substitute(w, phi.components, phi.order) - w
            if w.is_zero():
                break
            total = total + w * Fraction((-1) ** (j + 1), j)
        else:
            raise AssertionError("the reference sum did not terminate")
        coeffs.append(total)
    return VectorField(coeffs)


# linear parts that are neither upper nor lower triangular, all nilpotent
# but the permutation
_NON_TRIANGULAR = (
    [[1, 1], [-1, -1]],
    [[2, -4], [1, -2]],
    [[1, 1, 0], [-1, -1, 1], [0, 0, 0]],
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    [[1, 0, 1], [0, 0, 0], [-1, 0, -1]],
)


def _with_linear_part(rng, matrix, higher):
    """The polynomials sum_j matrix[i][j] x_j plus random terms of degree >= 2."""
    n = len(matrix)
    polys = []
    for row in matrix:
        terms = {tuple(int(i == j) for i in range(n)): Scalar(c) for j, c in enumerate(row) if c}
        for _ in range(higher):
            e = [0] * n
            for _ in range(rng.randint(2, 4)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = terms.get(tuple(e), Scalar(0)) + random_scalar(rng)
        polys.append(LaurentPoly(n, terms))
    return polys


def _random_linear_part(rng, n):
    """A random integer matrix: triangular (strictly, unitriangular or
    with a random diagonal) in either direction, or unconstrained."""
    kind = rng.choice(["upper", "lower", "any"])
    diag = rng.choice([0, 1, None])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j and diag is not None:
                row.append(diag)
            elif (kind == "upper" and j < i) or (kind == "lower" and j > i):
                row.append(0)
            else:
                row.append(rng.choice([0, 0, 1, -1, 2]))
        rows.append(row)
    return rows


def test_exp_field_matches_repeated_apply(rng):
    for t in (Scalar(1), Scalar(Fraction(-3, 2)), Scalar(Fraction(1, 2), 1), Scalar(0, -2)):
        for n in (1, 2, 3):
            for k in (2, 4, 6):
                X = random_nilpotent_field(rng, n, min(k, 4))
                assert exp_field(X, t, k) == _exp_by_apply(X, t, k)
    for matrix in _NON_TRIANGULAR:
        X = VectorField(_with_linear_part(rng, matrix, 2))
        if X.is_nilpotent():
            t = Scalar(Fraction(1, 3), 1)
            assert exp_field(X, t, 5) == _exp_by_apply(X, t, 5)


def test_log_diffeo_matches_repeated_substitute(rng):
    for n in (1, 2, 3):
        for k in (2, 4, 6):
            phi = random_unipotent_diffeo(rng, n, k)
            assert log_diffeo(phi) == _log_by_substitute(phi)
    for matrix in _NON_TRIANGULAR:
        unipotent = [[c + (i == j) for j, c in enumerate(row)] for i, row in enumerate(matrix)]
        phi = FormalDiffeo(_with_linear_part(rng, unipotent, 2), 5)
        if phi.is_unipotent():
            X = log_diffeo(phi)
            assert X == _log_by_substitute(phi)
            assert exp_field(X, 1, 5) == phi


def test_predicates_match_the_matrix_tests(rng):
    cases = [_random_linear_part(rng, rng.choice([1, 2, 3])) for _ in range(300)]
    cases += [list(map(list, m)) for m in _NON_TRIANGULAR]
    cases += [[[1, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 0], [3, 1]], [[1, 2], [0, 1]]]
    seen = set()
    for matrix in cases:
        A = [[Scalar(c) for c in row] for row in matrix]
        X = VectorField(_with_linear_part(rng, matrix, 1))
        assert X.is_nilpotent() == is_nilpotent_matrix(A), matrix
        seen.add(("nilpotent", X.is_nilpotent()))
        try:
            phi = FormalDiffeo(_with_linear_part(rng, matrix, 1), 4)
        except ValueError:  # singular linear part
            continue
        assert phi.is_unipotent() == is_unipotent_matrix(A), matrix
        assert phi.is_tangent_to_identity() == (A == identity(len(A))), matrix
        seen.add(("unipotent", phi.is_unipotent()))
    # both answers of both predicates occur
    assert len(seen) == 4
