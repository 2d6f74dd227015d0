from fractions import Fraction

import pytest

from conftest import random_nilpotent_field, random_scalar, random_unipotent_diffeo

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
from germcalc.laurent import LaurentPoly
from germcalc.matrices import mat_inverse
from germcalc.scalars import I, Scalar
from germcalc.families import moebius_component


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
