"""Exact division in the polynomial ring.

``lie._bareiss_rank`` divides every fraction-free elimination step by the
previous pivot; the quotient is exact, and ``poly_divide_exact`` finds it
by leading-term elimination without any multivariate gcd.
"""

from __future__ import annotations

from .laurent import LaurentPoly


def poly_divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """a / b when b divides a exactly in the polynomial ring, else None.

    Plain leading-term elimination: when the division is exact the leading
    term of the remainder is always divisible by the leading term of b, so
    the loop either terminates with remainder 0 or proves non-divisibility.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    lb, cb = b.leading_term()
    quotient = {}  # the leading monomials strictly decrease, so each is new
    r = a
    while not r.is_zero():
        lr, cr = r.leading_term()
        exps = tuple(x - y for x, y in zip(lr, lb))
        if any(e < 0 for e in exps):
            return None
        c = cr / cb
        quotient[exps] = c
        r = r - b.times_monomial(exps, c)
    return LaurentPoly(a.dim, quotient)
