import random
from fractions import Fraction

import pytest

from germcalc.matrices import (
    charpoly,
    identity,
    is_nilpotent_matrix,
    is_unipotent_matrix,
    is_zero_matrix,
    jordan_chevalley,
    mat_add,
    mat_eq,
    mat_inverse,
    mat_mul,
    mat_scale,
    matrix_exp_nilpotent,
    poly_divmod,
    poly_eval_matrix,
    poly_gcd,
    squarefree_part,
)
from germcalc.scalars import Scalar


def S(x):
    return Scalar(x)


def M(rows):
    return [[S(x) for x in row] for row in rows]


def test_inverse():
    a = M([[1, 2], [3, 4]])
    assert mat_eq(mat_mul(a, mat_inverse(a)), identity(2))
    with pytest.raises(ValueError):
        mat_inverse(M([[1, 2], [2, 4]]))


def test_charpoly_companion():
    # char poly of [[0, -c0], [1, -c1]] is t^2 + c1 t + c0
    a = M([[0, -5], [1, -3]])
    assert charpoly(a) == [S(5), S(3), S(1)]


def test_exp_of_a_nilpotent_matrix():
    n = M([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    e = matrix_exp_nilpotent(n)
    assert is_unipotent_matrix(e)
    # n^3 = 0, so exp(n) = I + n + n^2/2
    assert mat_eq(e, mat_add(mat_add(identity(3), n), mat_scale(mat_mul(n, n), S(Fraction(1, 2)))))


def test_is_nilpotent_matrix():
    assert is_nilpotent_matrix(M([[0, 1, 2], [0, 0, 3], [0, 0, 0]]))
    assert is_nilpotent_matrix(M([[0, 0], [5, 0]]))
    assert is_nilpotent_matrix(M([[0, 0], [0, 0]]))
    # not triangular, decided by the power
    assert is_nilpotent_matrix(M([[1, 1], [-1, -1]]))
    assert not is_nilpotent_matrix(M([[0, 1], [1, 0]]))
    assert not is_nilpotent_matrix(M([[0, 1], [0, 2]]))
    assert not is_unipotent_matrix(M([[1, 1], [1, 1]]))
    assert is_unipotent_matrix(M([[1, 7], [0, 1]]))


def test_exp_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        matrix_exp_nilpotent(M([[1, 0], [0, 1]]))


def test_poly_gcd_and_squarefree():
    # p = (t-1)^2 (t-2): squarefree part (t-1)(t-2)
    p = [S(-2), S(5), S(-4), S(1)]
    sf = squarefree_part(p)
    assert sf == [S(2), S(-3), S(1)]
    g = poly_gcd(p, sf)
    assert g[-1] == S(1)


def test_poly_divmod():
    p = [S(1), S(0), S(1)]  # 1 + t^2
    q, r = poly_divmod(p, [S(1), S(1)])  # divide by 1 + t
    # 1 + t^2 = (t - 1)(1 + t) + 2
    assert q == [S(-1), S(1)] and r == [S(2)]


def test_jordan_chevalley_distinct_eigenvalues():
    a = M([[1, 1], [0, 2]])
    s, u = jordan_chevalley(a)
    assert mat_eq(s, a) and mat_eq(u, identity(2))


def test_jordan_chevalley_unipotent_input():
    a = M([[1, 7], [0, 1]])
    s, u = jordan_chevalley(a)
    assert mat_eq(s, identity(2)) and mat_eq(u, a)


def test_jordan_chevalley_diagonal():
    a = M([[3, 0], [0, 5]])
    s, u = jordan_chevalley(a)
    assert mat_eq(s, a) and mat_eq(u, identity(2))


def test_jordan_chevalley_nontrivial_block():
    # eigenvalue 2 with a Jordan block: s must be 2I, u the unipotent part
    a = M([[2, 1], [0, 2]])
    s, u = jordan_chevalley(a)
    assert mat_eq(s, M([[2, 0], [0, 2]]))
    assert mat_eq(mat_mul(s, u), a)


def test_jordan_chevalley_rejects_singular():
    with pytest.raises(ValueError):
        jordan_chevalley(M([[0, 0], [0, 1]]))


def test_jordan_chevalley_gaussian_entries():
    a = [[Scalar(0, 1), Scalar(1)], [Scalar(0), Scalar(0, 1)]]
    s, u = jordan_chevalley(a)
    assert mat_eq(mat_mul(s, u), a)
    assert is_unipotent_matrix(u)


def test_jordan_chevalley_random_properties():
    rng = random.Random(4242)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        a = [
            [Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))) for _ in range(n)]
            for _ in range(n)
        ]
        if not charpoly(a)[0]:
            continue
        s, u = jordan_chevalley(a)
        assert mat_eq(mat_mul(s, u), a)
        assert mat_eq(mat_mul(u, s), a)
        assert is_unipotent_matrix(u)
        f = squarefree_part(charpoly(s))
        assert is_zero_matrix(poly_eval_matrix(f, s))
        s2, u2 = jordan_chevalley(a)
        assert mat_eq(s, s2) and mat_eq(u, u2)
        done += 1


def random_gaussian_matrix(rng, n, singular):
    """A seeded n x n matrix of Gaussian rationals; when ``singular``, its
    last row is a random combination of the others (the zero row for n = 1)."""
    def entry():
        return Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2])), rng.choice([0, 0, 1, -1]))

    rows = [[entry() for _ in range(n)] for _ in range(n - 1 if singular else n)]
    if singular:
        weights = [entry() for _ in rows]
        rows.append([sum((w * r[j] for w, r in zip(weights, rows)), Scalar(0)) for j in range(n)])
    return rows


def test_inverse_random_gaussian_matrices():
    # charpoly is computed by Faddeev-LeVerrier, without elimination, so its
    # constant term (the determinant up to sign) is an independent witness
    rng = random.Random(2024)
    raised = inverted = 0
    for n in range(1, 5):
        for trial in range(12):
            a = random_gaussian_matrix(rng, n, singular=trial % 3 == 0)
            if not charpoly(a)[0]:
                with pytest.raises(ValueError):
                    mat_inverse(a)
                raised += 1
                continue
            inv = mat_inverse(a)
            assert mat_eq(mat_mul(a, inv), identity(n))
            assert mat_eq(mat_mul(inv, a), identity(n))
            inverted += 1
    assert raised >= 16 and inverted >= 24


def _domain_matrix(a):
    """a as a sympy DomainMatrix over the Gaussian rationals."""
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def entry(x):
        return QQ_I.new(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))

    return DomainMatrix([[entry(x) for x in row] for row in a], (len(a), len(a)), QQ_I)


def _scalar(c) -> Scalar:
    """A sympy Gaussian rational as a Scalar."""
    return Scalar(
        Fraction(int(c.x.numerator), int(c.x.denominator)),
        Fraction(int(c.y.numerator), int(c.y.denominator)),
    )


def _from_domain_matrix(m):
    return [[_scalar(c) for c in row] for row in m.to_list()]


def test_charpoly_against_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(77)
    for n in range(2, 5):
        for trial in range(6):
            a = random_gaussian_matrix(rng, n, singular=trial == 0)
            expected = _domain_matrix(a).charpoly()[::-1]
            assert charpoly(a) == [_scalar(c) for c in expected]


def test_jordan_chevalley_against_sympy():
    # a = P (D + N) P^-1 with D diagonal (eigenvalues repeated) and N
    # nilpotent inside the blocks of equal eigenvalue, so that D and N
    # commute: the semisimple part is P D P^-1 and the unipotent part
    # P (I + D^-1 N) P^-1, both formed by sympy
    pytest.importorskip("sympy")
    rng = random.Random(91)
    pool = [Scalar(2), Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2), 1)]
    checked = 0
    for n in range(2, 5):
        for _ in range(4):
            eigen = sorted((rng.choice(pool) for _ in range(n)), key=repr)
            dn = [[Scalar(0)] * n for _ in range(n)]
            for i in range(n):
                dn[i][i] = eigen[i]
                if i + 1 < n and eigen[i + 1] == eigen[i]:
                    dn[i][i + 1] = Scalar(rng.choice([1, -2, Fraction(1, 3)]))
            d = [[dn[i][j] if i == j else Scalar(0) for j in range(n)] for i in range(n)]
            p = random_gaussian_matrix(rng, n, singular=False)
            if not charpoly(p)[0]:
                continue
            P, D, DN = _domain_matrix(p), _domain_matrix(d), _domain_matrix(dn)
            Pinv = P.inv()
            s, u = jordan_chevalley(_from_domain_matrix(P * DN * Pinv))
            assert s == _from_domain_matrix(P * D * Pinv)
            assert u == _from_domain_matrix(P * D.inv() * DN * Pinv)
            checked += 1
    assert checked >= 10
