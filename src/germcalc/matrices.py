"""Exact dense linear algebra over the Gaussian rationals.

Matrices are plain lists of lists of Scalar.  Everything here is small and
desk scale (jet actions, linear parts, Jordan-Chevalley inputs), so the
classical O(n^3)/O(n^4) algorithms are the right tool.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .scalars import Scalar

Matrix = list[list[Scalar]]


def mat_dim(m: Sequence[Sequence[Scalar]]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def identity(n: int) -> Matrix:
    return [[Scalar(1) if i == j else Scalar(0) for j in range(n)] for i in range(n)]


def zeros(n: int) -> Matrix:
    return [[Scalar(0) for _ in range(n)] for _ in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: Scalar) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            s = Scalar(0)
            for k in range(inner):
                x = row_a[k]
                if x:
                    s = s + x * b[k][j]
            row.append(s)
        out.append(row)
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def mat_pow(a: Matrix, k: int) -> Matrix:
    n = mat_dim(a)
    result = identity(n)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def trace(a: Matrix) -> Scalar:
    return sum((a[i][i] for i in range(len(a))), Scalar(0))


def _strictly_triangular(a: Matrix, n: int) -> bool:
    """True iff every entry on or below the diagonal, or every entry on or
    above it, is zero."""
    return not any(a[i][j] for i in range(n) for j in range(i + 1)) or not any(
        a[i][j] for i in range(n) for j in range(i, n)
    )


def is_nilpotent_matrix(a: Matrix) -> bool:
    """Exact test: a^n == 0, decided without powers for a strictly
    triangular a."""
    n = mat_dim(a)
    return _strictly_triangular(a, n) or is_zero_matrix(mat_pow(a, n))


def is_unipotent_matrix(a: Matrix) -> bool:
    n = mat_dim(a)
    return is_nilpotent_matrix(mat_sub(a, identity(n)))


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse by row reduction of [a | I]; raises ValueError on singular input.

    Row i of the augmented matrix is inserted into a ``FieldEchelon`` keyed
    by column index (a's columns 0..n-1, then I's).  a is invertible exactly
    when every column of a becomes a pivot, and then the reduced row with
    pivot j is e_j followed by row j of the inverse.
    """
    from .spans import FieldEchelon

    n = mat_dim(a)
    ech = FieldEchelon()
    for i, row in enumerate(a):
        augmented = {j: x for j, x in enumerate(row) if x}
        augmented[n + i] = Scalar(1)
        ech.insert(augmented)
    if any(j not in ech.rows for j in range(n)):
        raise ValueError("matrix is singular")
    return [[ech.rows[i].get(n + j, Scalar(0)) for j in range(n)] for i in range(n)]


def matrix_exp_nilpotent(a: Matrix) -> Matrix:
    """exp(a) as the finite sum sum_j a^j / j! for nilpotent a."""
    n = mat_dim(a)
    result = identity(n)
    term = identity(n)
    j = 0
    while True:
        j += 1
        term = mat_mul(term, a)
        if is_zero_matrix(term):
            return result
        if j > n:
            raise ValueError("matrix_exp_nilpotent: input is not nilpotent")
        result = mat_add(result, mat_scale(term, Scalar(1) / Scalar.rational(factorial(j))))


# -- univariate polynomials over Scalar (ascending coefficient lists) --------


def poly_trim(p: list[Scalar]) -> list[Scalar]:
    while p and not p[-1]:
        p.pop()
    return p


def poly_eval_matrix(p: Sequence[Scalar], m: Matrix) -> Matrix:
    """Evaluate p at a matrix by Horner's rule."""
    n = mat_dim(m)
    out = zeros(n)
    for c in reversed(p):
        out = mat_mul(out, m)
        for i in range(n):
            out[i][i] = out[i][i] + c
    return out


def poly_derivative(p: Sequence[Scalar]) -> list[Scalar]:
    return poly_trim([c * k for k, c in enumerate(p)][1:])


def poly_divmod(a: Sequence[Scalar], b: Sequence[Scalar]):
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Scalar(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        f = r[-1] / lead
        k = len(r) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] = r[k + i] - f * c
        poly_trim(r)
        if not r:
            break
    return poly_trim(q), r


def poly_gcd(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """Monic gcd by the Euclidean algorithm."""
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def charpoly(m: Matrix) -> list[Scalar]:
    """Characteristic polynomial det(tI - M), ascending coefficients, by the
    Faddeev-LeVerrier recurrence (division-free except by small integers)."""
    n = mat_dim(m)
    coeffs = [Scalar(0)] * (n + 1)
    coeffs[n] = Scalar(1)
    aux = identity(n)
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            mk = mat_mul(m, aux)
        c = -(trace(mk) / Scalar.rational(k))
        coeffs[n - k] = c
        aux = [row[:] for row in mk]
        for i in range(n):
            aux[i][i] = aux[i][i] + c
    return coeffs


def squarefree_part(p: Sequence[Scalar]) -> list[Scalar]:
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divmod(p, g)
    if r:
        raise ArithmeticError("squarefree reduction did not divide exactly")
    return q


def jordan_chevalley(m: Matrix) -> tuple[Matrix, Matrix]:
    """Multiplicative Jordan-Chevalley decomposition m = s * u.

    s is semisimple (its minimal polynomial divides the squarefree part of
    the characteristic polynomial, which has no repeated roots over any
    extension), u is unipotent, and s and u commute.  Everything stays inside
    the commutative algebra Q(i)[m]: Newton's iteration on the squarefree part
    f converges because f(m) is nilpotent and f'(s) stays invertible modulo
    nilpotents, so no eigenvalue or field extension is ever materialized.

    Raises ValueError for singular input (the multiplicative decomposition
    needs an invertible matrix).
    """
    n = mat_dim(m)
    chi = charpoly(m)
    if not chi[0]:
        raise ValueError("jordan_chevalley requires an invertible matrix")
    f = squarefree_part(chi)
    fprime = poly_derivative(f)
    s = [row[:] for row in m]
    # f(m)^r = 0 with r <= n, and Newton squares the vanishing order each
    # step, so log2(n) + 1 iterations always suffice.
    max_iter = n.bit_length() + 2
    for _ in range(max_iter):
        fs = poly_eval_matrix(f, s)
        if is_zero_matrix(fs):
            break
        delta = mat_mul(mat_inverse(poly_eval_matrix(fprime, s)), fs)
        s = mat_sub(s, delta)
    else:
        raise ArithmeticError("Newton iteration failed to converge")
    u = mat_mul(mat_inverse(s), m)
    return s, u
