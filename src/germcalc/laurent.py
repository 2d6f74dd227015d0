"""Sparse multivariate Laurent polynomials with exact Gaussian-rational coefficients.

A value is a finite map from exponent vectors (one integer per variable,
negative exponents allowed) to nonzero scalars.  The same type plays three
roles:

* polynomials and truncated power series (all exponents >= 0),
* elements of the maximal ideal m (additionally every term has total
  degree >= 1),
* genuine Laurent objects such as the meromorphic first-integral data of the
  nilpotent example family, whose intermediates need exponents far below zero.

All operations are pure; no value is mutated after construction.

Representation.  A polynomial stores one positive integer denominator d and
a dict from packed exponent keys to Gaussian-integer numerator pairs
(re, im); the term's coefficient is (re + i*im) / d.  The normal form has
gcd(d, every numerator) = 1 and no zero pair, so equal values have equal
storage.  A packed key holds each exponent in a FIELD_BITS-wide field, the
total degree in the top field, x_1 in the highest exponent field:

    key = (deg + BIAS) << (n*B)  +  sum_j (BIAS - 1 - e_j) << ((n-1-j)*B)

Keys of a product are sums of keys minus the key of x^0, "degree > order"
is one comparison against a cut, and ascending keys are ascending
``grlex_key``.  Every field's top bit is a guard: a sum whose exponent or
degree leaves EXPONENT_MIN..EXPONENT_MAX sets one, and the operation raises
ValueError rather than wrap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .scalars import Scalar

ExponentVector = tuple[int, ...]

FIELD_BITS = 16
_MASK = (1 << FIELD_BITS) - 1
_BIAS = 1 << (FIELD_BITS - 2)
# the range of every exponent and of every total degree
EXPONENT_MIN = -_BIAS
EXPONENT_MAX = _BIAS - 1
_RANGE_ERROR = f"outside the supported range {EXPONENT_MIN}..{EXPONENT_MAX}"


def grlex_key(exponents: ExponentVector):
    """Sort key for graded-lex order with x1 > x2 > ... > xn.

    Degree-major; within a degree the monomial with the larger x1 exponent
    comes first.  Used for canonical display order and jet-basis enumeration.
    """
    return (sum(exponents), tuple(-e for e in exponents))


def validate_order(k: int) -> int:
    """Check that a truncation order is a positive integer."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"truncation order must be a positive integer, got {k!r}")
    return k


class _Layout:
    """The packed-key constants of one dimension."""

    __slots__ = ("top", "shifts", "zero", "guard", "negative", "lower", "unbounded", "one")

    def __init__(self, dim: int):
        self.top = dim * FIELD_BITS
        self.shifts = tuple((dim - 1 - j) * FIELD_BITS for j in range(dim))
        self.zero = (_BIAS << self.top) + sum((_BIAS - 1) << s for s in self.shifts)
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts + (self.top,))
        # bit B-2 of an exponent field is set exactly when the exponent is < 0
        self.negative = sum(1 << (s + FIELD_BITS - 2) for s in self.shifts)
        # key change of x^e -> x^(e - e_j), the step of d/dx_j
        self.lower = tuple((1 << s) - (1 << self.top) for s in self.shifts)
        # above the sum of any two valid keys: the cut of an untruncated product
        self.unbounded = 1 << (self.top + 2 * FIELD_BITS)
        self.one = _make(dim, {self.zero: (1, 0)}, 1)  # the polynomial 1, shared

    def pack(self, exps) -> int:
        if len(exps) != len(self.shifts):
            raise ValueError(f"exponent vector {tuple(exps)} has length {len(exps)}, "
                             f"expected {len(self.shifts)}")
        key = 0
        total = 0
        for e, s in zip(exps, self.shifts):
            if not EXPONENT_MIN <= e <= EXPONENT_MAX:
                raise ValueError(f"exponent {e} in {tuple(exps)} is {_RANGE_ERROR}")
            key += (_BIAS - 1 - e) << s
            total += e
        if not EXPONENT_MIN <= total <= EXPONENT_MAX:
            raise ValueError(f"total degree {total} of {tuple(exps)} is {_RANGE_ERROR}")
        return key + ((total + _BIAS) << self.top)

    def unpack(self, key: int) -> ExponentVector:
        return tuple(_BIAS - 1 - ((key >> s) & _MASK) for s in self.shifts)

    def cut(self, order: int) -> int:
        """The smallest key of total degree order + 1."""
        return (order + 1 + _BIAS) << self.top

    def degree(self, key: int) -> int:
        return (key >> self.top) - _BIAS

    def check(self, keys):
        """Raise if any key has a guard bit set (an exponent left the range)."""
        if reduce(or_, keys, 0) & self.guard:
            raise ValueError(f"an exponent or total degree is {_RANGE_ERROR}")


class _Layouts(dict):
    def __missing__(self, dim):
        layout = self[dim] = _Layout(dim)
        return layout


_LAYOUTS = _Layouts()
_new = object.__new__
_EMPTY = MappingProxyType({})


def _make(dim: int, terms: dict, den: int) -> "LaurentPoly":
    """Wrap packed terms and a denominator that are already in normal form."""
    p = _new(LaurentPoly)
    _set_dim(p, dim)
    _set_terms(p, terms)
    _set_den(p, den)
    return p


def _normal(dim: int, terms: dict, den: int) -> "LaurentPoly":
    """Wrap packed terms without zero pairs, dividing out gcd(den, numerators)."""
    if den != 1:
        g = den
        for r, i in terms.values():
            g = gcd(g, r, i)
            if g == 1:
                break
        if g != 1:
            terms = {k: (r // g, i // g) for k, (r, i) in terms.items()}
            den //= g
    return _make(dim, terms, den)


def _finish(dim: int, re: dict, im: dict, den: int) -> "LaurentPoly":
    """The normal form of sum_k (re[k] + i*im[k]) x^k / den."""
    if im:
        terms = {}
        pop = im.pop
        for k, r in re.items():
            i = pop(k, 0)
            if r or i:
                terms[k] = (r, i)
        for k, i in im.items():
            if i:
                terms[k] = (0, i)
    else:
        terms = {k: (r, 0) for k, r in re.items() if r}
    return _normal(dim, terms, den)


def _parts(c) -> tuple[int, int, int]:
    """A scalar-like value as (re, im, den) with den > 0: (re + i*im) / den,
    and gcd(den, re, im) = 1."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    c = Scalar.of(c)
    re, im = c.re, c.im
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def _monomial(dim: int, exps: ExponentVector | None, coeff) -> "LaurentPoly":
    """coeff * x^exps; exps is None for the zero value."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    key = None if exps is None else _LAYOUTS[dim].pack(exps)
    cr, ci, cd = _parts(coeff)
    if not (cr or ci):
        return _make(dim, {}, 1)
    # _parts leaves no common factor of cd and the numerators
    return _make(dim, {key: (cr, ci)}, cd)


def _scalar(re: int, im: int, den: int) -> Scalar:
    if den == 1:
        return Scalar(re, im)
    return Scalar(Fraction(re, den), Fraction(im, den) if im else 0)


def _shifted(dim: int, terms: dict, den: int, key: int, cr: int, ci: int, cut: int):
    """(cr + i*ci) x^key times sum (r + i*im) x^k / den over the terms, over
    the product keys below cut: a product with a one-term factor is a shift
    of the other factor's keys."""
    layout = _LAYOUTS[dim]
    shift = key - layout.zero
    limit = cut - shift
    if ci or cr != 1:
        terms = {k + shift: (r * cr - i * ci, r * ci + i * cr)
                 for k, (r, i) in terms.items() if k < limit}
    else:
        terms = {k + shift: v for k, v in terms.items() if k < limit}
    layout.check(terms)
    return _normal(dim, terms, den)


def _split(terms: dict, ordered: bool):
    """The nonzero real and imaginary numerators as (key, value) lists,
    in ascending key order when ``ordered``."""
    re = [(k, r) for k, (r, _) in terms.items() if r]
    im = [(k, i) for k, (_, i) in terms.items() if i]
    if ordered:
        re.sort()
        im.sort()
    return re, im


def _accumulate(acc: dict, xs, ys, scale: int, off: int, cut: int):
    """acc += scale * xs * ys over product keys below cut, for nonempty ys.
    With a finite cut both lists must be in ascending key order, so a row
    ends at its first key past the cut."""
    get = acc.get
    first = ys[0][0]
    for kx, cx in xs:
        base = kx - off
        if base + first >= cut:
            break
        c = cx * scale
        for ky, cy in ys:
            k = base + ky
            if k >= cut:
                break
            acc[k] = get(k, 0) + c * cy


def _combine(dim: int, items) -> "LaurentPoly":
    """sum (cr + i*ci) / cd * p over (cr, ci, cd, p) items, in one dict over
    one common denominator."""
    den = reduce(lcm, (cd * p._d for _, _, cd, p in items), 1)
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    get_re, get_im = re.get, im.get
    for cr, ci, cd, p in items:
        scale = den // (cd * p._d)
        cr *= scale
        if ci:
            ci *= scale
            for k, (r, i) in p._t.items():
                re[k] = get_re(k, 0) + cr * r - ci * i
                im[k] = get_im(k, 0) + cr * i + ci * r
        else:
            for k, (r, i) in p._t.items():
                re[k] = get_re(k, 0) + cr * r
                if i:
                    im[k] = get_im(k, 0) + cr * i
    return _finish(dim, re, im, den)


class LaurentPoly:
    """A sparse Laurent polynomial in ``dim`` variables."""

    __slots__ = ("dim", "_t", "_d", "_view")

    def __init__(self, dim: int, terms: Mapping[ExponentVector, Scalar] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        layout = _LAYOUTS[dim]
        coeffs = []
        if terms:
            for exps, coeff in terms.items():
                key = layout.pack(exps)
                coeff = Scalar.of(coeff)
                if coeff:
                    coeffs.append((key, coeff.re, coeff.im))
        # the lcm of reduced denominators leaves no common factor to divide out
        den = reduce(lcm, (q.denominator for _, re, im in coeffs for q in (re, im)), 1)
        packed = {
            k: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
            for k, re, im in coeffs
        }
        _set_dim(self, dim)
        _set_terms(self, packed)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @property
    def terms(self) -> Mapping[ExponentVector, Scalar]:
        """Read-only {exponent vector: Scalar} view in graded-lex order,
        built on first access and cached."""
        try:
            return self._view
        except AttributeError:
            pass
        if not self._t:
            return _EMPTY
        unpack = _LAYOUTS[self.dim].unpack
        d = self._d
        view = MappingProxyType(
            {unpack(k): _scalar(r, i, d) for k, (r, i) in sorted(self._t.items())}
        )
        _set_view(self, view)
        return view

    def numerators(self) -> tuple[Mapping[int, tuple[int, int]], int]:
        """The stored form: {packed key: (re, im)} and the denominator d,
        the coefficient of key k being (re + i*im) / d.  The map is the
        polynomial's own and must not be changed.  Sparse linear algebra
        keys its vectors by it: ascending keys sort as ``grlex_key`` does."""
        return self._t, self._d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "LaurentPoly":
        return _monomial(dim, None, 0)

    @staticmethod
    def constant(dim: int, value) -> "LaurentPoly":
        return _monomial(dim, (0,) * dim, value)

    @staticmethod
    def one(dim: int) -> "LaurentPoly":
        return LaurentPoly.constant(dim, 1)

    @staticmethod
    def variable(dim: int, index: int) -> "LaurentPoly":
        """The coordinate x_index (1-based index)."""
        return LaurentPoly.monomial(dim, {index: 1})

    @staticmethod
    def monomial(dim: int, exps: Mapping[int, int] | Iterable[int], coeff=1) -> "LaurentPoly":
        """A single term.  ``exps`` is either a full exponent tuple or a
        {1-based variable index: exponent} mapping."""
        if isinstance(exps, Mapping):
            vec = [0] * dim
            for idx, e in exps.items():
                if not 1 <= idx <= dim:
                    raise ValueError(f"variable index {idx} out of range 1..{dim}")
                vec[idx - 1] = e
            exps = vec
        return _monomial(dim, tuple(exps), coeff)

    @staticmethod
    def from_numerators(
        dim: int, terms: Mapping[ExponentVector, tuple[int, int]], den: int = 1
    ) -> "LaurentPoly":
        """sum (re + i*im) / den * x^exps over the {exps: (re, im)} terms, for
        integer numerators and a positive integer denominator: the stored
        form of ``numerators`` on exponent vectors, built without a Scalar."""
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if not isinstance(den, int) or den < 1:
            raise ValueError(f"denominator must be a positive integer, got {den!r}")
        pack = _LAYOUTS[dim].pack
        return _normal(dim, {pack(e): (r, i) for e, (r, i) in terms.items() if r or i}, den)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_polynomial(self) -> bool:
        """True iff no exponent is negative."""
        return not reduce(or_, self._t, 0) & _LAYOUTS[self.dim].negative

    def in_maximal_ideal(self) -> bool:
        """True iff the value lies in m: a power series with every term of
        total degree >= 1."""
        if not self._t:
            return True
        return self.is_polynomial() and self.min_total_degree() >= 1

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and _LAYOUTS[self.dim].zero in t)

    def constant_term(self) -> Scalar:
        return self._scalar_at(_LAYOUTS[self.dim].zero)

    def _scalar_at(self, key: int) -> Scalar:
        pair = self._t.get(key)
        return Scalar(0) if pair is None else _scalar(pair[0], pair[1], self._d)

    def min_total_degree(self) -> int | None:
        if not self._t:
            return None
        return _LAYOUTS[self.dim].degree(min(self._t))

    def abs_degree(self) -> int:
        """Max of sum(|e_i|) over terms; 0 for zero.  Used for degree budgets,
        where Laurent blowup can happen in either direction."""
        if not self._t:
            return 0
        layout = _LAYOUTS[self.dim]
        if self.is_polynomial():
            return layout.degree(max(self._t))
        return max(sum(abs(e) for e in layout.unpack(k)) for k in self._t)

    def coefficient(self, exps: ExponentVector) -> Scalar:
        try:
            key = _LAYOUTS[self.dim].pack(exps)
        except ValueError:
            return Scalar(0)  # no stored term lies outside the range
        return self._scalar_at(key)

    def degree_part(self, d: int) -> "LaurentPoly":
        """The homogeneous part of total degree d."""
        layout = _LAYOUTS[self.dim]
        lo = layout.cut(d - 1)
        hi = layout.cut(d)
        return _normal(self.dim, {k: v for k, v in self._t.items() if lo <= k < hi}, self._d)

    def leading_term(self) -> tuple[ExponentVector, Scalar]:
        """The graded-lex largest term of a nonzero value: the term that
        ``max(terms, key=grlex_key)`` picks."""
        if not self._t:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self._t)
        r, i = self._t[key]
        return _LAYOUTS[self.dim].unpack(key), _scalar(r, i, self._d)

    def min_exponents(self) -> ExponentVector:
        """The per-variable minimum exponent over the terms; zeros for zero."""
        if not self._t:
            return (0,) * self.dim
        # exponent fields store BIAS - 1 - e, so the minimum e is the maximum field
        return tuple(
            _BIAS - 1 - max((k >> s) & _MASK for k in self._t)
            for s in _LAYOUTS[self.dim].shifts
        )

    def times_monomial(self, exps: ExponentVector, coeff=1) -> "LaurentPoly":
        """The product with coeff * x^exps, without a term-by-term product."""
        cr, ci, cd = _parts(coeff)
        if not (cr or ci):
            return LaurentPoly.zero(self.dim)
        layout = _LAYOUTS[self.dim]
        key = layout.pack(exps)
        return _shifted(self.dim, self._t, self._d * cd, key, cr, ci, layout.unbounded)

    # -- ring arithmetic ----------------------------------------------------

    def _check_dim(self, other: "LaurentPoly"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _add(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other."""
        self._check_dim(other)
        if not other._t:
            return self
        return _combine(self.dim, ((1, 0, 1, self), (sign, 0, 1, other)))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.constant(self.dim, other)
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.dim, {k: (-r, -i) for k, (r, i) in self._t.items()}, self._d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.constant(self.dim, other)
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return _combine(self.dim, ((*_parts(other), self),))
        return self.mul_truncated(other, None)

    __rmul__ = __mul__

    def mul_truncated(self, other: "LaurentPoly", order: int | None) -> "LaurentPoly":
        """Product, dropping terms of total degree > order when order is given.

        The truncated form is only meaningful when both factors are power
        series; callers enforce that.
        """
        return sum_of_products(self.dim, ((self, other),), order)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        if n > 1 and self._t:
            # the extreme degrees and exponents of p^n are n times those of p
            # (the extreme parts cannot cancel), so an out-of-range power is
            # rejected before any product is formed
            layout = _LAYOUTS[self.dim]
            extremes = [layout.degree(min(self._t)), layout.degree(max(self._t))]
            for s in layout.shifts:
                fields = [(k >> s) & _MASK for k in self._t]
                extremes += (_BIAS - 1 - min(fields), _BIAS - 1 - max(fields))
            if not all(EXPONENT_MIN <= n * e <= EXPONENT_MAX for e in extremes):
                raise ValueError(f"an exponent or total degree is {_RANGE_ERROR}")
        result = LaurentPoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term value (the only invertible elements we need)."""
        if len(self._t) != 1:
            raise ValueError("only single-term values are invertible in the Laurent ring")
        ((exps, coeff),) = self.terms.items()
        return LaurentPoly(self.dim, {tuple(-e for e in exps): Scalar.of(1) / coeff})

    # -- calculus --------------------------------------------------------

    def partial_derivative(self, index: int) -> "LaurentPoly":
        """Formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.dim:
            raise ValueError(f"variable index {index} out of range 1..{self.dim}")
        layout = _LAYOUTS[self.dim]
        s = layout.shifts[index - 1]
        step = layout.lower[index - 1]
        top = _BIAS - 1
        terms = {}
        for k, (r, i) in self._t.items():
            e = top - ((k >> s) & _MASK)
            if e:
                terms[k + step] = (r * e, i * e)  # distinct keys stay distinct
        if not terms:
            return _make(self.dim, terms, 1)
        layout.check(terms)
        return _normal(self.dim, terms, self._d)

    def truncate(self, order: int) -> "LaurentPoly":
        """Drop every term of total degree > order.

        Only defined for power-series inputs: a negative exponent means the
        value is not in the jet ring and truncation would be meaningless.
        """
        validate_order(order)
        if not self.is_polynomial():
            raise ValueError("truncate is undefined for terms with negative exponents")
        cut = _LAYOUTS[self.dim].cut(order)
        if max(self._t, default=0) < cut:
            return self
        return _normal(self.dim, {k: v for k, v in self._t.items() if k < cut}, self._d)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.constant(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self._d == other._d and self._t == other._t

    def __bool__(self):
        return bool(self._t)

    def __hash__(self):
        return hash((self.dim, self._d, frozenset(self._t.items())))

    def __repr__(self):
        return f"LaurentPoly({self.dim}, {dict(self.terms)!r})"

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)


_set_dim = LaurentPoly.dim.__set__
_set_terms = LaurentPoly._t.__set__
_set_den = LaurentPoly._d.__set__
_set_view = LaurentPoly._view.__set__


def sum_of_products(
    dim: int, pairs: Iterable[tuple[LaurentPoly, LaurentPoly]], order: int | None = None
) -> LaurentPoly:
    """sum a*b over the (a, b) pairs, accumulated in one dict over one common
    denominator; terms of total degree > order are dropped when order is
    given, as in ``mul_truncated``."""
    pairs = tuple(pairs)
    if not pairs:
        return _make(dim, {}, 1)
    layout = _LAYOUTS[dim]
    cut = layout.unbounded if order is None else layout.cut(order)
    if len(pairs) == 1:
        ((a, b),) = pairs
        if len(a._t) != 1:
            a, b = b, a
        if len(a._t) == 1 and a.dim == b.dim == dim:
            ((key, (cr, ci)),) = a._t.items()
            return _shifted(dim, b._t, a._d * b._d, key, cr, ci, cut)
    ordered = order is not None
    off = layout.zero
    den = reduce(lcm, (a._d * b._d for a, b in pairs), 1)
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for a, b in pairs:
        if a.dim != dim or b.dim != dim:
            raise ValueError(f"dimension mismatch: {a.dim}, {b.dim} vs {dim}")
        if not a._t or not b._t:
            continue
        scale = den // (a._d * b._d)
        ar, ai = _split(a._t, ordered)
        br, bi = _split(b._t, ordered)
        if br:
            _accumulate(re, ar, br, scale, off, cut)
            if ai:
                _accumulate(im, ai, br, scale, off, cut)
        if bi:
            _accumulate(im, ar, bi, scale, off, cut)
            if ai:
                _accumulate(re, ai, bi, -scale, off, cut)
    layout.check(re)
    if im:
        layout.check(im)
    return _finish(dim, re, im, den)


def evaluate(p: LaurentPoly, point: Sequence[int]) -> Scalar:
    """The exact value of p at a point with nonzero integer coordinates."""
    re, im, den = evaluate_parts(p, point)
    g = gcd(den, re, im)
    return _scalar(re // g, im // g, den // g)


def evaluate_parts(p: LaurentPoly, point: Sequence[int]) -> tuple[int, int, int]:
    """``evaluate`` as integers (re, im, den) with den > 0, the value being
    (re + i*im) / den, without dividing out their common factor."""
    layout = _LAYOUTS[p.dim]
    if len(point) != p.dim:
        raise ValueError(f"expected {p.dim} coordinates, got {len(point)}")
    if not all(point):
        raise ValueError("evaluation point has a zero coordinate")
    # scale by prod x_j^(-m_j) so that every power is an integer
    lows = [min(m, 0) for m in p.min_exponents()]
    den = p._d
    for x, m in zip(point, lows):
        den *= x ** -m
    re = im = 0
    for k, (r, i) in p._t.items():
        v = 1
        for x, e, m in zip(point, layout.unpack(k), lows):
            v *= x ** (e - m)
        re += r * v
        im += i * v
    if den < 0:
        return -re, -im, -den
    return re, im, den


def linear_combination(dim: int, pairs: Iterable[tuple[object, LaurentPoly]]) -> LaurentPoly:
    """sum c*p over the (scalar c, polynomial p) pairs, accumulated in one dict."""
    items = []
    for c, p in pairs:
        if p.dim != dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {dim}")
        items.append((*_parts(c), p))
    return _combine(dim, items)


def linear_coefficients(polys: Sequence[LaurentPoly]) -> list[list[Scalar]]:
    """The matrix A with A[i][j] = coefficient of x_(j+1) in polys[i]: the
    linear part of a field's coefficients or of a map's components."""
    dim = polys[0].dim
    layout = _LAYOUTS[dim]
    units = [layout.pack(tuple(int(i == j) for i in range(dim))) for j in range(dim)]
    return [[p._scalar_at(k) for k in units] for p in polys]


def substitute(g: LaurentPoly, phi: Sequence[LaurentPoly], order: int) -> LaurentPoly:
    """Truncated composition g(phi_1, ..., phi_n) mod m^(order+1).

    Requires g to be a polynomial (no negative exponents) and every phi_i to
    be a power-series element with zero constant term, so each monomial image
    has minimal degree >= its total degree and the result is well defined at
    the given order.
    """
    validate_order(order)
    if not g.is_polynomial():
        raise ValueError("substitution target has negative exponents")
    if len(phi) != g.dim:
        raise ValueError(f"expected {g.dim} substitution components, got {len(phi)}")
    if not phi:
        raise ValueError("empty substitution tuple")
    out_dim = phi[0].dim
    for i, comp in enumerate(phi, start=1):
        if comp.dim != out_dim:
            raise ValueError("substitution components have mixed dimensions")
        if not comp.is_polynomial():
            raise ValueError(f"substitution component {i} has negative exponents")
        if comp.constant_term():
            raise ValueError(f"substitution component {i} has a nonzero constant term")
    return SubstitutionCache([comp.truncate(order) for comp in phi], order).image(g)


class SubstitutionCache:
    """Memoized truncated powers of a substitution tuple.

    Composition, jet-matrix assembly and the jet-action logarithm all
    substitute many monomials into the same tuple; sharing the power cache is
    what makes those paths polynomial in the number of monomials of degree
    <= order.
    """

    def __init__(self, phi, order: int):
        """The cache of ``phi``, whose components must be polynomials in m
        of one dimension and of degree <= order, such as a FormalDiffeo's
        components at its order; ``substitute`` checks and truncates
        arbitrary ones."""
        self.phi = phi = tuple(phi)
        self.order = order
        self.out_dim = phi[0].dim
        self._layout = _LAYOUTS[len(phi)]
        self._cut = self._layout.cut(order)  # a term of higher degree maps into m^(order+1)
        one = _LAYOUTS[self.out_dim].one
        # powers[i][a] = phi_i ** a truncated at order
        self._powers: list[dict[int, LaurentPoly]] = [{0: one, 1: comp} for comp in phi]
        self._images: dict[int, LaurentPoly] = {}

    def image(self, g: LaurentPoly) -> LaurentPoly:
        """g o phi truncated at order, for a polynomial g in len(phi)
        variables; ``substitute`` with its checks left out."""
        d, cut, image = g._d, self._cut, self.monomial_image
        items = [(r, i, d, image(k)) for k, (r, i) in g._t.items() if k < cut]
        return _combine(self.out_dim, items)

    def component_power(self, i: int, a: int) -> LaurentPoly:
        powers = self._powers[i]
        if a not in powers:
            prev = self.component_power(i, a - 1)
            powers[a] = prev.mul_truncated(self.phi[i], self.order)
        return powers[a]

    def monomial_image(self, key: int) -> LaurentPoly:
        """x^e o phi truncated at order, for the monomial with packed key
        ``key`` in len(phi) variables."""
        image = self._images.get(key)
        if image is None:
            for i, a in enumerate(self._layout.unpack(key)):
                if a:
                    power = self.component_power(i, a)
                    image = power if image is None else image.mul_truncated(power, self.order)
            if image is None:
                image = self._powers[0][0]  # the image of 1
            self._images[key] = image
        return image
