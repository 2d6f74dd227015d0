"""Lie-algebra structure computations for spans of vector fields.

A span's jet order says how it computes:

* order None (exact) keeps coefficients untruncated (brackets of
  Laurent-polynomial fields stay Laurent-polynomial) and is the default for
  the finitely generated example algebras; a degree budget on the fields
  that ``bracket_closure`` keeps turns runaway growth into a loud error
  instead of a hang,
* order k (jet) truncates every coefficient at total degree k and is
  required for infinite-dimensional inputs.

On top of span reduction and bracket closure this module computes derived and
descending central series, soluble length and nilpotency class, and the
generic rank over the fraction field (kappa).  The closure, the series and
the closedness check all form brackets in one loop, ``_brackets``.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .fields import BudgetExceededError, VectorField
from .laurent import _LAYOUTS, LaurentPoly, _normal, evaluate_parts, grlex_key
from .spans import SparseEchelon


DEFAULT_DEGREE_BUDGET = 256


class LieAlgebraSpan:
    """A finite scalar-basis of vector fields and the jet order it computes at.

    The constructor trusts its caller to pass a linearly independent basis,
    truncated at the order: it runs neither span reduction nor truncation.
    ``span_reduce``, ``bracket_closure``, the series and
    ``build_chain_algebra`` guarantee both.  With a jet ``order`` k every
    coefficient is truncated at total degree k (jet mode); with order None
    nothing is truncated (exact mode).  The keyword-only ``closed`` marks a
    span known to be closed under the bracket of its mode (``bracket_closure``
    results, series terms, the chain family); it does not take part in
    equality, and neither does ``generators``: the number of leading basis
    fields known to generate the algebra (set by ``bracket_closure``), or
    None.  A span stores one form of its members, ``_entries``: the
    ``_entry`` of each basis field, in basis order, formed from the fields
    unless a constructor that formed them in closed form passes them with
    the basis None.  ``basis`` is only a cache of fields built from the
    entries on its first read.  ``_echelon`` is kept by the constructors
    that built it and otherwise built on first use.  A span is immutable.
    """

    __slots__ = ("dim", "_basis", "order", "closed", "generators", "_echelon", "_entries")

    def __init__(
        self,
        dim: int,
        basis: tuple[VectorField, ...] | None,
        order: int | None = None,
        *,
        closed: bool = False,
        generators: int | None = None,
        _echelon: SparseEchelon | None = None,
        _entries: list[tuple] | None = None,
    ):
        if _entries is None:
            _entries = [_entry(X) for X in basis]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_echelon", _echelon)
        object.__setattr__(self, "_entries", _entries)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebraSpan is immutable")

    def __delattr__(self, name):
        raise AttributeError("LieAlgebraSpan is immutable")

    def _key(self) -> tuple:
        # a weight tuple fixes its field, so no field is built
        return (self.dim, tuple(X if h is None else h for X, _, _, h in self._entries), self.order)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"LieAlgebraSpan(dim={self.dim!r}, basis={self.basis!r}, order={self.order!r}, "
            f"closed={self.closed!r}, generators={self.generators!r})"
        )

    @property
    def basis(self) -> tuple[VectorField, ...]:
        basis = self._basis
        if basis is None:
            n = self.dim
            basis = tuple(X if X is not None else _field(h, n) for X, _, _, h in self._entries)
            object.__setattr__(self, "_basis", basis)
        return basis

    @property
    def dimension(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def _own_echelon(self) -> SparseEchelon:
        """The span's own echelon, built once; never inserted into."""
        ech = self._echelon
        if ech is None:
            ech = SparseEchelon()
            for entry in self._entries:
                ech.insert(_vector(entry, self.dim))
            object.__setattr__(self, "_echelon", ech)
        return ech

    def echelon(self) -> SparseEchelon:
        """An echelon of the basis; inserting into it leaves the span's
        own echelon unchanged."""
        return self._own_echelon().copy()

    def contains_field(self, X: VectorField) -> bool:
        X = self._prepare(X)
        return self._own_echelon().contains(X.sparse())

    def contains_span(self, other: "LieAlgebraSpan") -> bool:
        """Whether every basis field of other, truncated at this span's jet
        order, lies in the span; read off other's entries, so no field is
        built."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {other.dim} vs {self.dim}")
        ech = self._own_echelon()
        return all(ech.contains(_vector(entry, self.dim, self.order)) for entry in other._entries)

    def _prepare(self, X: VectorField) -> VectorField:
        if X.dim != self.dim:
            raise ValueError(f"dimension mismatch: {X.dim} vs {self.dim}")
        if self.order is None:
            return X
        # truncation respects brackets only for fields vanishing at 0
        if not X.is_formal():
            raise ValueError("jet mode needs formal fields (coefficients in m)")
        return X.truncate(self.order)


def span_reduce(fields: Iterable[VectorField], order: int | None = None) -> LieAlgebraSpan:
    """A maximal linearly independent subset of the given fields, as a span.

    Jet mode tests independence of the truncated coefficient vectors.
    """
    fields = list(fields)
    dims = {X.dim for X in fields}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions in span: {sorted(dims)}")
    if not fields:
        raise ValueError("cannot infer dimension from an empty field list")
    dim = dims.pop()
    span = LieAlgebraSpan(dim, (), order)
    ech = SparseEchelon()
    kept = []
    for X in fields:
        Xp = span._prepare(X)
        if ech.insert(Xp.sparse()):
            kept.append(Xp)
    return LieAlgebraSpan(dim, tuple(kept), order, _echelon=ech)


def bracket_closure(
    gens: Sequence[VectorField],
    order: int | None = None,
    degree_budget: int = DEFAULT_DEGREE_BUDGET,
) -> LieAlgebraSpan:
    """Smallest span containing the generators and closed under bracket.

    The algebra generated by the reduced generators S is spanned by S and
    the left-normed brackets [s_1, [s_2, ..., [s_m, s_(m+1)]]] with every
    s_i in S, and each one with m >= 2 is [s_1, c] with c such a bracket of
    length m.  So the first round brackets each generator with the ones
    after it ([S, S]), each later round brackets S with the fields the last
    round kept, and the closure ends with a round that keeps nothing.  In
    jet mode the dimension is bounded by n * dim(m/m^(k+1)), so termination
    is unconditional; in exact mode the degree budget bounds every field the
    closure keeps, generators included, which guards against
    infinite-dimensional inputs (a dependent field's terms are terms of
    fields kept before it).  The reduced generators lead the basis, each
    round's kept fields follow, and the span records how many generators
    there are.
    """
    span = span_reduce(gens, order)
    budget = None
    if order is None:
        budget = degree_budget
        for X in span.basis:
            if X.abs_degree() > budget:
                raise BudgetExceededError(f"field degree {X.abs_degree()} exceeds budget {budget}")
    ech = span.echelon()
    S = span._entries
    entries = list(S)
    frontier = None  # the first round pairs S with itself
    while frontier := _brackets(span, S, frontier, ech, None, budget):
        entries += frontier
    return LieAlgebraSpan(
        span.dim, None, order,
        closed=True, generators=span.dimension, _echelon=ech, _entries=entries,
    )


_NOT_CLOSED = (
    "the span is not closed under the bracket; "
    "pass its bracket_closure to the series functions"
)


def _require_algebra(g: LieAlgebraSpan) -> None:
    """Raise ValueError unless g is closed under the bracket of its mode.

    A span marked closed passes at once; any other span brackets each pair
    of its basis fields once, since the series of a span that is not closed
    is not the series of the algebra it generates.
    """
    if not g.closed and _brackets(g, _graded(g), None, g.echelon(), None):
        raise ValueError(_NOT_CLOSED)


# -- derived and central series ----------------------------------------------
#
# Both series bracket a closed algebra g with one of its ideals I (I = g^(j)
# or C^j), and [g, I] is again an ideal of g, so the span of the brackets of
# basis pairs is the next term: no closure is needed.  Jet mode keeps this
# true, because the formal fields with coefficients in m^(k+1) form an ideal.
#
# Every term lies inside the previous one, so two cheap tests decide that a
# bracket cannot add anything and need not be formed:
#
# * truncation: in jet mode a bracket raises the lowest coefficient degree to
#   at least p + q - 1, where p and q are those of its factors,
# * weight saturation: the monomial field x^a d_i has weight a - e_i in Z^n
#   and brackets add weights.  When every basis field is weight-homogeneous
#   each term is a sum of its weight spaces, and a bracket of weight w lies in
#   the weight-w space of the previous term; once the new term holds as many
#   independent fields of weight w as that space (possibly none), every
#   further bracket of weight w is redundant.
#
# Weights are integer keys that add as the weights do, so the weight test of
# a pair is one addition and one lookup.  Both tests run in the one loop over
# pairs of basis entries, ``_brackets``, which also serves the closure.
#
# The bracket of two weight-homogeneous fields has a closed form.  With
# X = sum_k a_k x^(u+e_k) d_k of weight u and Y = sum_k b_k x^(v+e_k) d_k of
# weight v,
#
#     [X, Y] = sum_k (b_k <a, v> - a_k <b, u>) x^(u+v+e_k) d_k,
#
# one term per component, of weight u + v and total degree |u| + |v| + 1.
# When every entry has a weight, the loop forms it straight into the
# echelon's vector, and the entry of a kept bracket comes from the closed
# form too, without a field.  A term keeps these entries and builds its
# basis fields from them only when something reads ``basis``, so ``_weight``
# reads only the fields a span is built from, and the chain's verdict builds
# no field.  Otherwise the loop calls ``VectorField.bracket``; it never meets
# an entry without a field, since only spans whose entries all have a weight
# hold one, and their series stay graded.  Every bracket of a closed span
# lies in its span, hence its terms are terms of basis fields of the same
# weight: no series term exceeds its algebra's degree, and no key leaves the
# packed range.  ``bracket_closure`` and the closedness check have no such
# bound, so they check the range, and an exact closure checks its degree
# budget.  In jet mode the degree break leaves nothing to truncate.


def _weight(X: VectorField):
    """(weight key, weight exponents u, ((k, re, im), ...), den) when every
    term x^a d_k of X has the same weight u = a - e_k; the triples are the
    Gaussian-integer numerators of the nonzero components over their common
    denominator den.

    The weight key is the packed key of x^u less the key of x^0, so that
    the key of a sum of weights is the sum of their keys; sums of two
    weights in range have distinct keys.  None for the zero field, when two
    terms disagree (a component with two terms always does), or when the
    weight leaves the key range.
    """
    layout = _LAYOUTS[X.dim]
    key = None
    parts = []
    den = 1
    for k, c in enumerate(X.coeffs):
        terms, d = c.numerators()
        if not terms:
            continue
        if len(terms) > 1:
            return None
        ((term, num),) = terms.items()
        term += layout.lower[k]
        if key is None:
            key = term
        elif term != key:
            return None
        parts.append((k, num, d))
        if d != den:
            den = lcm(den, d)
    if key is None or key & layout.guard:
        return None
    nums = tuple((k, re * (den // d), im * (den // d)) for k, (re, im), d in parts)
    return key - layout.zero, layout.unpack(key), nums, den


def _entry(X: VectorField) -> tuple:
    """(X, weight key, lowest coefficient degree, ``_weight(X)``); the key
    and the weight are None when X is not weight-homogeneous."""
    h = _weight(X)
    if h is None:
        return X, None, min((c.min_total_degree() for c in X.coeffs if c), default=0), None
    return X, h[0], sum(h[1]) + 1, h


def _monomial_entry(n: int, u: tuple[int, ...], k: int) -> tuple:
    """The ``_entry``, without its field, of x^(u+e_k) d_k in n variables."""
    layout = _LAYOUTS[n]
    w = layout.pack(u) - layout.zero
    return None, w, sum(u) + 1, (w, u, ((k, 1, 0),), 1)


def _graded(span: LieAlgebraSpan, count: int | None = None) -> list[tuple]:
    """The entries of the first ``count`` basis fields of span (all of them
    when None), by ascending lowest degree.

    The order lets the truncation test end a row of pairs early, and it
    brackets the fields of low degree first: they act on the most others
    (x_n d_n rescales every monomial field), so weight spaces fill early and
    the later, mostly commuting pairs are skipped.
    """
    return sorted(span._entries[:count], key=lambda entry: entry[2])


def _field(h: tuple, n: int) -> VectorField:
    """The field in n variables whose ``_weight`` tuple is h, each
    coefficient in normal form."""
    w, _, nums, den = h
    layout = _LAYOUTS[n]
    coeffs = [LaurentPoly.zero(n)] * n
    for k, re, im in nums:
        coeffs[k] = _normal(n, {w + layout.zero - layout.lower[k]: (re, im)}, den)
    return VectorField(coeffs)


def _vector(entry: tuple, n: int, order: int | None = None,
            times: tuple[int, ...] | None = None) -> dict[int, tuple[int, int]]:
    """``VectorField.sparse`` of an entry's field in n variables; for an
    entry with a weight it is read off the weight, so the field need not
    exist.  With ``times`` the field is first multiplied by the monomial
    x^times, which adds one key to each term's; with a jet ``order`` the
    terms of coefficient degree past it are dropped, which leaves a nonzero
    multiple of the truncated field's vector."""
    X, w, _, h = entry
    layout = _LAYOUTS[n]
    if h is None:
        vector = X.sparse()
    else:
        vector = {(w + layout.zero - layout.lower[k]) * n + k: (re, im) for k, re, im in h[2]}
    if order is None and times is None:
        return vector
    shift = 0 if times is None else (layout.pack(times) - layout.zero) * n
    cut = (layout.unbounded if order is None else layout.cut(order)) * n
    return {key + shift: v for key, v in vector.items() if key + shift < cut}


def _weight_bracket(hx: tuple, hy: tuple, n: int) -> dict[int, tuple[int, int]]:
    """[X, Y] in closed form, from the ``_weight`` tuples of two fields in
    n variables: the sparse vector {packed key * n + k: (re, im)} of its
    numerators over den_X * den_Y, empty when the bracket is zero."""
    wx, u, a, _ = hx
    wy, v, b, _ = hy
    layout = _LAYOUTS[n]
    sr = si = 0  # <a, v>
    for k, re, im in a:
        e = v[k]
        if e:
            sr += re * e
            si += im * e
    tr = ti = 0  # <b, u>
    for k, re, im in b:
        e = u[k]
        if e:
            tr += re * e
            ti += im * e
    # the key of x^(u+v+e_k) d_k
    base = (wx + wy + layout.zero) * n
    lower = layout.lower
    vec = {}
    if sr or si:
        for k, re, im in b:
            vec[base + k - lower[k] * n] = (re * sr - im * si, re * si + im * sr)
    if tr or ti:
        for k, re, im in a:
            key = base + k - lower[k] * n
            cr = re * tr - im * ti
            ci = re * ti + im * tr
            old = vec.get(key)
            if old is None:
                vec[key] = (-cr, -ci)
            elif old[0] != cr or old[1] != ci:
                vec[key] = (old[0] - cr, old[1] - ci)
            else:
                del vec[key]
    return vec


def _bracket_entry(vec: dict[int, tuple[int, int]], w: int, degree: int, hx: tuple,
                   hy: tuple, n: int) -> tuple:
    """The ``_entry``, without its field, of the bracket of weight key w and
    lowest degree ``degree`` whose closed form ``_weight_bracket(hx, hy, n)``
    is vec."""
    den = hx[3] * hy[3]
    g = gcd(den, *chain.from_iterable(vec.values()))
    nums = sorted((key % n, re // g, im // g) for key, (re, im) in vec.items())
    u = tuple(map(add, hx[1], hy[1]))
    return None, w, degree, (w, u, tuple(nums), den // g)


def _check_bracket(n: int, vec: dict, w: int, u: tuple, v: tuple, budget: int | None) -> None:
    """Raise as ``VectorField.bracket`` and an exact closure's budget would
    for the closed form vec of weight key w = u + v in n variables:
    ValueError when the weight or a term leaves the packed key range, and
    BudgetExceededError past ``budget``, with the degree read from the
    exponents of its terms x^(u+v+e_k)."""
    if budget is not None:
        s = list(map(add, u, v))
        total = sum(map(abs, s))
        degree = max(total - abs(s[k]) + abs(s[k] + 1) for k in {key % n for key in vec})
        if degree > budget:
            raise BudgetExceededError(f"bracket degree {degree} exceeds budget {budget}")
    layout = _LAYOUTS[n]
    layout.check([w + layout.zero, *(key // n for key in vec)])


def _brackets(span: LieAlgebraSpan, left: list, right: list | None, ech: SparseEchelon,
              room: dict[int, int] | None, budget: int | None = None) -> list[tuple]:
    """The brackets of each left entry with the entries of ``right``, or
    with the left entries after it when ``right`` is None: the ones ``ech``
    keeps, in order, as ``_entry`` tuples.  They are formed in closed form
    when every entry has a weight, else by ``VectorField.bracket`` (the
    entries of the kept fields then have none).  A series passes the
    ``room`` of the weight spaces of its term, which holds only weights in
    the key range that ``_weight`` checks, and rows sorted by degree.  The
    other callers pass None: their rows may be in any order, and each
    closed-form bracket is checked by ``_check_bracket``.  An exact closure
    passes its ``budget``, which bounds the degree of every bracket."""
    n = span.dim
    limit = None if span.order is None else span.order + 1
    graded = all(w is not None for _, w, _, _ in left) and (
        right is None or all(w is not None for _, w, _, _ in right))
    kept = []
    for i, (X, wx, dx, hx) in enumerate(left):
        for Y, wy, dy, hy in (left[i + 1:] if right is None else right):
            if limit is not None and dx + dy > limit:
                if room is None:
                    continue
                break  # the row is sorted by degree
            if room is not None and not room.get(wx + wy):
                continue
            if graded:
                w = wx + wy
                vec = _weight_bracket(hx, hy, n)
                if not vec:
                    continue
                if room is None:
                    _check_bracket(n, vec, w, hx[1], hy[1], budget)
                if ech.insert(vec):
                    kept.append(_bracket_entry(vec, w, dx + dy - 1, hx, hy, n))
                    if room is not None:
                        room[w] -= 1
                continue
            Z = X.bracket(Y, span.order)
            if budget is not None and Z.abs_degree() > budget:
                raise BudgetExceededError(f"bracket degree {Z.abs_degree()} exceeds budget {budget}")
            if not Z.is_zero() and ech.insert(Z.sparse()):
                kept.append(_entry(Z))
    return kept


def _bracket_span(ideal: LieAlgebraSpan, outer: list | None = None) -> LieAlgebraSpan:
    """Span of [outer, ideal], with ``outer`` from ``_graded``, or of
    [ideal, ideal] when ``outer`` is None.  Every bracket must lie in
    ``ideal``, which holds when ideal is an ideal of a Lie algebra containing
    the outer fields."""
    right = _graded(ideal)
    # [I, I] pairs each field with those after it
    left, others = (right, None) if outer is None else (outer, right)
    room = None  # weight key -> independent fields still missing
    if all(w is not None for _, w, _, _ in left) and all(w is not None for _, w, _, _ in right):
        room = {}
        for _, w, _, _ in right:
            room[w] = room.get(w, 0) + 1
    ech = SparseEchelon()
    entries = _brackets(ideal, left, others, ech, room)
    # [g, I] is an ideal of g, hence a subalgebra
    return LieAlgebraSpan(ideal.dim, None, ideal.order, closed=True, _echelon=ech, _entries=entries)


def _series(g: LieAlgebraSpan, first: list | None, outer: list | None) -> list[LieAlgebraSpan]:
    """g, [first, g], [outer, [first, g]], ... (with ``first`` and ``outer``
    as ``outer`` in ``_bracket_span``) until a zero term or a term that is
    not smaller than the one before.  Each term of a Lie algebra's series
    lies in the one before, so a larger term means g was marked closed
    without being closed: ValueError, as from ``_require_algebra``."""
    # the closed form checks no factor as VectorField.bracket does, so a
    # graded jet span is checked once here: brackets of polynomial fields
    # stay polynomial, and entries without a field are polynomial already
    entries = g._entries
    if g.order is not None and all(h for *_, h in entries) and not all(
            c.is_polynomial() for X, *_ in entries if X is not None for c in X.coeffs if c):
        raise ValueError("truncation is undefined for terms with negative exponents")
    levels = [g]
    while not levels[-1].is_zero():
        nxt = _bracket_span(levels[-1], first if len(levels) == 1 else outer)
        grown = nxt.dimension - levels[-1].dimension
        levels.append(nxt)
        if grown > 0:
            raise ValueError(_NOT_CLOSED)
        if grown == 0:
            break
    return levels


def derived_series(g: LieAlgebraSpan) -> list[LieAlgebraSpan]:
    """g = g^(0), g^(1), ...  Stops at the zero span, or with two equal
    consecutive spans when the series stabilizes nonzero, a tail on which
    ``soluble_length`` and ``kappa_sequence`` raise.  Each term lies in the
    one before, so its dimension falls at every step until the series
    stops: it has at most dim g + 1 terms.

    g must be a Lie algebra (closed under the bracket of its mode), for
    example the result of ``bracket_closure``; the series of a span that is
    not closed is not the series of the algebra it generates, so such a
    span raises ValueError.

    When g records its generators S, g^(1) = [g, g] = C^1 = [S, g] (see
    ``central_series``), so the first step brackets g with S only; later
    steps, and every step of a span that records no generators, bracket
    each basis field of the term with the ones after it.
    """
    _require_algebra(g)
    first = None if g.generators is None else _graded(g, g.generators)
    return _series(g, first, None)


def central_series(g: LieAlgebraSpan) -> list[LieAlgebraSpan]:
    """g = C^0, C^1 = [g, C^0], ...  Same precondition (g a Lie algebra) and
    termination contract as derived_series, and likewise at most dim g + 1
    terms, since each C^(j+1) = [g, C^j] lies in C^j.

    For any generating set S of g, C^(j+1) = [S, C^j]: C^j is spanned by
    the brackets [s_1, [s_2, ..., [s_m, s_(m+1)]]] with m >= j and every
    s_i in S, and each one with m >= j + 1 is [s_1, c] with c such a
    bracket in C^j.  So the outer fields are the generators that g records
    (``bracket_closure`` keeps them first in its basis), or the whole basis
    when it records none.
    """
    _require_algebra(g)
    outer = _graded(g, g.generators)
    return _series(g, outer, outer)


def _terminated(
    g: LieAlgebraSpan, levels: Sequence[LieAlgebraSpan] | None, quantity: str,
    central: bool = False,
) -> Sequence[LieAlgebraSpan]:
    """The derived (with ``central``, lower central) series of g, built
    unless the caller passes it as ``levels``.  It must end in the zero
    span, else ``quantity`` is undefined: an exact span is then not solvable
    (not nilpotent), a ValueError, while a jet span may only be truncated
    too low, a BudgetExceededError."""
    if levels is None:
        levels = central_series(g) if central else derived_series(g)
    else:
        _require_algebra(g)
    if levels[-1].is_zero():
        return levels
    series, kind = ("central", "nilpotent") if central else ("derived", "solvable")
    if g.order is None:
        raise ValueError(f"the algebra is not {kind}; {quantity} undefined")
    raise BudgetExceededError(
        f"{series} series does not terminate at jet order {g.order}; {quantity} undefined"
    )


def soluble_length(g: LieAlgebraSpan) -> int:
    """Index of the first zero term of the derived series.  g must be a Lie
    algebra whose derived series terminates: ValueError when an exact span
    is not solvable, BudgetExceededError when a jet span's series
    stabilizes nonzero at its order."""
    return len(_terminated(g, None, "soluble length")) - 1


def nilpotency_class(g: LieAlgebraSpan) -> int:
    """First j with C^j g = 0.  g must be a Lie algebra whose lower central
    series terminates, with the errors of ``soluble_length``."""
    return len(_terminated(g, None, "nilpotency class", central=True)) - 1


# -- generic rank over the fraction field ------------------------------------


def _clear_row(row: list[LaurentPoly]) -> list[LaurentPoly]:
    """Multiply a coefficient row by a monomial so all entries are polynomials
    (rank is invariant under scaling a row by a nonzero monomial)."""
    dim = row[0].dim
    shift = [0] * dim
    for p in row:
        for i, e in enumerate(p.min_exponents()):
            shift[i] = max(shift[i], -e)
    if not any(shift):
        return row
    return [p.times_monomial(tuple(shift)) for p in row]


def _grlex_leading_key(p: LaurentPoly):
    return grlex_key(p.leading_term()[0])


def _evaluation_point(dim: int) -> tuple[int, ...]:
    """The first dim primes: a fixed point with nonzero coordinates."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < dim:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def _rank_at_point(rows: Sequence[Sequence[LaurentPoly]], cap: int) -> int:
    """The rank of the rows evaluated at ``_evaluation_point``, counted up to
    cap: a lower bound for their generic rank, since a minor that is nonzero
    at a point is nonzero.  Each evaluated row is scaled to Gaussian
    integers by the lcm of its denominators, which leaves the rank alone.
    While the rank equals the number of columns the inserted rows touch, a
    row supported on those columns is dependent and is not evaluated."""
    point = _evaluation_point(rows[0][0].dim)
    ech = SparseEchelon()
    rank = 0
    covered: set[int] = set()  # the columns of the inserted rows
    for row in rows:
        support = [j for j, p in enumerate(row) if p]
        if rank == len(covered) and covered.issuperset(support):
            # the inserted rows span every vector supported on covered
            continue
        values = {}
        for j in support:
            re, im, den = evaluate_parts(row[j], point)
            if re or im:
                values[j] = (re, im, den)
        common = lcm(*(den for _, _, den in values.values()))
        vector = {
            j: (re * (common // den), im * (common // den))
            for j, (re, im, den) in values.items()
        }
        if vector and ech.insert(vector):
            rank += 1
            covered.update(support)
            if rank == cap:
                break
    return rank


def _bareiss_rank(rows: Sequence[Sequence[LaurentPoly]]) -> int:
    """Generic rank of coefficient rows by fraction-free Bareiss
    elimination (a zero row is never a pivot).

    Negative exponents are cleared row by row with monomial factors; exact
    polynomial division then keeps every intermediate entry a polynomial.
    Pivot rows are chosen by smallest graded-lex leading monomial of the
    pivot entry (then row order) for determinism.
    """
    from .ratfunc import poly_divide_exact

    rows = [_clear_row(row) for row in rows]
    dim = rows[0][0].dim
    rank = 0
    prev_pivot = LaurentPoly.one(dim)
    col = 0
    while col < dim and rank < len(rows):
        candidates = [
            i for i in range(rank, len(rows)) if not rows[i][col].is_zero()
        ]
        if not candidates:
            col += 1
            continue
        best = min(candidates, key=lambda i: (_grlex_leading_key(rows[i][col]), i))
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[col]
        for i in range(rank + 1, len(rows)):
            if all(p.is_zero() for p in rows[i]):
                continue
            row = rows[i]
            new_row = []
            for j in range(dim):
                if j <= col:
                    new_row.append(LaurentPoly.zero(dim))
                    continue
                num = pivot * row[j] - row[col] * pivot_row[j]
                q = poly_divide_exact(num, prev_pivot)
                if q is None:
                    raise ArithmeticError("Bareiss exact division failed")
                new_row.append(q)
            rows[i] = new_row
        prev_pivot = pivot
        rank += 1
        col += 1
    return rank


def generic_rank(fields_or_span) -> int:
    """Rank over the rational-function field of the coefficient matrix,
    whose rows are the fields' coefficient tuples.

    When every basis field of a span has a weight, row r is
    x^(u_r) (c_r1 x_1, ..., c_rn x_n) with constants c_rk; scaling row r by
    x^(-u_r) and column k by 1/x_k keeps the rank, so it is the rank of the
    constant rows c_r, read off the span's entries.  Otherwise the rank is
    certified by two bounds when they meet: it is at most min(#rows,
    #nonzero columns), and at least the rank of the matrix evaluated exactly
    at a fixed point with nonzero coordinates (2, 3, 5, ...).  When the
    bounds differ, fraction-free Bareiss elimination over the polynomial
    ring decides.
    """
    if isinstance(fields_or_span, LieAlgebraSpan):
        weights = [h for *_, h in fields_or_span._entries]
        if None not in weights:
            return _constant_rank(weights)
        fields = list(fields_or_span.basis)
    else:
        fields = list(fields_or_span)
        if not fields:
            raise ValueError("generic rank of an empty family is undefined")
    # zero rows are kept: they leave min(#rows, #columns) an upper bound, and
    # the rank at a point skips their empty supports
    rows = [X.coeffs for X in fields]
    columns = sum(1 for j in range(len(rows[0])) if any(row[j] for row in rows))
    upper = min(len(rows), columns)
    if _rank_at_point(rows, upper) == upper:
        return upper
    return _bareiss_rank(rows)


def _constant_rank(weights: Sequence[tuple]) -> int:
    """The rank of the constant rows {k: (re, im)} of ``_weight`` tuples.
    As in ``_rank_at_point``, while the rank equals the number of columns
    the inserted rows touch, a row supported on those columns is skipped."""
    ech = SparseEchelon()
    rank = 0
    covered: set[int] = set()
    for _, _, nums, _ in weights:
        support = [k for k, _, _ in nums]
        if rank == len(covered) and covered.issuperset(support):
            continue
        if ech.insert({k: (re, im) for k, re, im in nums}):
            rank += 1
            covered.update(support)
    return rank


class KappaSequence:
    """The generic ranks kappa(0), kappa(1), ... along the derived series."""

    __slots__ = ("values", "jet_order")

    def __init__(self, values: tuple[int, ...], jet_order: int | None):
        if any(values[i + 1] > values[i] for i in range(len(values) - 1)):
            raise ValueError(f"kappa sequence must be non-increasing: {values}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "jet_order", jet_order)

    def __setattr__(self, name, value):
        raise AttributeError("KappaSequence is immutable")

    def __delattr__(self, name):
        raise AttributeError("KappaSequence is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.values, self.jet_order) == (other.values, other.jet_order)

    def __hash__(self):
        return hash((self.values, self.jet_order))

    def __reduce__(self):
        return KappaSequence, (self.values, self.jet_order)

    def __repr__(self):
        return f"KappaSequence(values={self.values!r}, jet_order={self.jet_order!r})"

    def strict_two_step_drop(self) -> bool:
        """kappa(p+2) < kappa(p) whenever kappa(p) > 0 (indices past the end
        of the terminated series count as 0)."""
        vals = self.values

        def at(i: int) -> int:
            return vals[i] if i < len(vals) else 0

        return all(
            at(p + 2) < at(p) for p in range(len(vals)) if at(p) > 0
        )


def kappa_sequence(
    g: LieAlgebraSpan, levels: Sequence[LieAlgebraSpan] | None = None
) -> KappaSequence:
    """Generic rank of every derived-series term.  g must be a Lie algebra
    and its series must terminate at the working jet order; ``levels`` is
    that series when the caller has already built it.  A series that does
    not terminate raises ValueError for an exact span, which is then not
    solvable, and BudgetExceededError for a jet span."""
    levels = _terminated(g, levels, "kappa")
    return KappaSequence(tuple(generic_rank(level) for level in levels), g.order)
