"""Shared seeded generators for random algebraic test data."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from germcalc.diffeos import FormalDiffeo
from germcalc.fields import VectorField
from germcalc.laurent import LaurentPoly
from germcalc.scalars import Scalar

COEFF_POOL = [0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]


def random_scalar(rng, allow_imag=True) -> Scalar:
    re = rng.choice(COEFF_POOL)
    im = rng.choice(COEFF_POOL) if allow_imag and rng.random() < 0.3 else 0
    return Scalar(re, im)


def random_poly(rng, dim, max_terms=4, max_degree=4, min_exp=0) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(min_exp, max_degree) for _ in range(dim))
        s = random_scalar(rng)
        if s:
            terms[exps] = s
    return LaurentPoly(dim, terms)


def random_series_in_m(rng, dim, max_terms=4, max_degree=4) -> LaurentPoly:
    """A random element of the maximal ideal (degree >= 1 terms only)."""
    p = random_poly(rng, dim, max_terms, max_degree)
    return LaurentPoly(dim, {e: c for e, c in p.terms.items() if sum(e) >= 1})


def random_field(rng, dim, max_degree=4, formal=True) -> VectorField:
    coeffs = []
    for _ in range(dim):
        if formal:
            coeffs.append(random_series_in_m(rng, dim, 3, max_degree))
        else:
            coeffs.append(random_poly(rng, dim, 3, max_degree, min_exp=-2))
    return VectorField(coeffs)


def random_nilpotent_field(rng, dim, max_degree) -> VectorField:
    """Strictly triangular linear part plus random higher-order terms."""
    coeffs = []
    for i in range(dim):
        terms = {}
        for j in range(i + 1, dim):
            c = rng.choice(COEFF_POOL)
            if c:
                e = [0] * dim
                e[j] = 1
                terms[tuple(e)] = Scalar(c)
        for _ in range(3):
            d = rng.randint(2, max(2, max_degree))
            e = [0] * dim
            for _ in range(d):
                e[rng.randrange(dim)] += 1
            s = random_scalar(rng)
            if s:
                terms[tuple(e)] = terms.get(tuple(e), Scalar(0)) + s
        coeffs.append(LaurentPoly(dim, {e: c for e, c in terms.items() if c}))
    return VectorField(coeffs)


def random_unipotent_diffeo(rng, dim, order) -> FormalDiffeo:
    comps = []
    for i in range(dim):
        e_lin = tuple(1 if j == i else 0 for j in range(dim))
        terms = {e_lin: Scalar(1)}
        for j in range(i + 1, dim):
            c = rng.choice(COEFF_POOL)
            if c:
                e = tuple(1 if t == j else 0 for t in range(dim))
                terms[e] = Scalar(c)
        for _ in range(3):
            d = rng.randint(2, order)
            e = [0] * dim
            for _ in range(d):
                e[rng.randrange(dim)] += 1
            s = random_scalar(rng)
            if s:
                terms[tuple(e)] = terms.get(tuple(e), Scalar(0)) + s
        comps.append(LaurentPoly(dim, {e: c for e, c in terms.items() if c}))
    return FormalDiffeo(comps, order)


def geometric_inverse_power(dim, var, t, power, order) -> LaurentPoly:
    """(1 + t*x_var)^(-power) truncated at order, from the closed form: the
    coefficient of x_var^j is C(power + j - 1, j) * (-t)^j.

    Built from Scalars term by term, independently of the numerator
    arithmetic of ``families.intro_member``.  Power 0 gives 1; a negative
    power or order raises ValueError.
    """
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if power == 0:
        return LaurentPoly.one(dim)
    step = -Scalar.of(t)
    coefficient = Scalar(1)  # (-t)^j
    terms = {}
    for j in range(order + 1):
        exps = [0] * dim
        exps[var - 1] = j
        terms[tuple(exps)] = coefficient * math.comb(power + j - 1, j)
        coefficient = coefficient * step
    return LaurentPoly(dim, terms)


def moebius_component(dim, var, lam, mu, order) -> LaurentPoly:
    """lambda * x_var / (1 + mu * x_var) truncated at order."""
    if not lam:
        raise ValueError("the multiplier lambda must be nonzero")
    x = LaurentPoly.monomial(dim, {var: 1}, lam)
    return x.mul_truncated(geometric_inverse_power(dim, var, mu, 1, order), order)


def good_monomials(gens, max_depth: int) -> list[VectorField]:
    """All nonzero good monomials of degree <= max_depth.

    Degree-1 monomials are the generators; Y_(k1,...,kj) brackets the j-th
    generator onto the previous monomial, and the monomial is good when its
    first index is minimal.  Good monomials span the generated algebra, which
    makes this an independent oracle for the bracket-closure route: it forms
    every bracket in full and keeps no echelon.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    n = len(gens)
    out: list[VectorField] = []
    # level holds (first_index, field) for all nonzero monomials of the
    # current degree whose first index is still minimal so far
    level = [(k, gens[k]) for k in range(n) if not gens[k].is_zero()]
    out.extend(Y for _, Y in level)
    for _ in range(2, max_depth + 1):
        nxt = []
        for first, Y in level:
            for k in range(first, n):
                Z = gens[k].bracket(Y)
                if not Z.is_zero():
                    nxt.append((first, Z))
        out.extend(Y for _, Y in nxt)
        level = nxt
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)
