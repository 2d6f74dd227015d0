"""Formal diffeomorphism germs fixing the origin, truncated at a jet order.

The group side of the engine: composition, inversion, group commutators and
commutator words, the exponential of a nilpotent formal field and the
logarithm of a unipotent diffeomorphism.

Composition convention, pinned once and for all:

    compose(phi, psi) = phi o psi,

i.e. component i of the result is substitute(phi_i, psi.components).  Every
matrix identity in jets.py is stated against this convention.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .fields import DerivationCache, VectorField
from .laurent import (
    _LAYOUTS,
    LaurentPoly,
    SubstitutionCache,
    _apply_columns,
    _combine,
    _parts,
    _unit_triangles,
    linear_coefficients,
    validate_order,
)
from .matrices import is_unipotent_matrix, mat_inverse


class FormalDiffeo:
    """A truncated formal diffeomorphism: components have zero constant term,
    no negative exponents, degree <= order, and an invertible linear part."""

    __slots__ = ("dim", "order", "components")

    def __init__(self, components: Sequence[LaurentPoly], order: int):
        validate_order(order)
        components = tuple(components)
        if not components:
            raise ValueError("a diffeomorphism needs at least one component")
        dim = components[0].dim
        if len(components) != dim:
            raise ValueError(f"expected {dim} components, got {len(components)}")
        for i, comp in enumerate(components, start=1):
            if comp.dim != dim:
                raise ValueError("component dimensions disagree")
            if not comp.is_polynomial():
                raise ValueError(f"component {i} has negative exponents")
            if comp.constant_term():
                raise ValueError(f"component {i} has a nonzero constant term")
        components = tuple(c.truncate(order) for c in components)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", components)
        try:
            mat_inverse(self.linear_part())
        except ValueError:
            raise ValueError("linear part is not invertible") from None

    @staticmethod
    def _trusted(dim: int, order: int, components) -> "FormalDiffeo":
        """Wrap components that are valid by construction, skipping the checks.

        For results of the group operations and of ``exp_field``, and for
        the planar members of ``families.intro_member``, only: the
        components must already be dim polynomials with zero constant term,
        truncated at order, whose linear part is invertible.
        """
        out = FormalDiffeo.__new__(FormalDiffeo)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "order", order)
        object.__setattr__(out, "components", tuple(components))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("FormalDiffeo is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(dim: int, order: int) -> "FormalDiffeo":
        return FormalDiffeo(_variables(dim), order)

    @staticmethod
    def linear(matrix, order: int) -> "FormalDiffeo":
        return FormalDiffeo(_linear_components(matrix), order)

    # -- structure -----------------------------------------------------------

    def linear_part(self):
        """The Jacobian at 0: A[i][j] = coefficient of x_(j+1) in component i+1."""
        return linear_coefficients(self.components)

    def is_identity(self) -> bool:
        return self == FormalDiffeo.identity(self.dim, self.order)

    def is_unipotent(self) -> bool:
        """True iff the linear part minus the identity is nilpotent.  A
        unitriangular linear part is read off the components' numerators."""
        return any(_unit_triangles(self.components, 1)) or is_unipotent_matrix(self.linear_part())

    def is_tangent_to_identity(self) -> bool:
        """True iff the linear part is the identity, read off the
        components' numerators."""
        return all(_unit_triangles(self.components, 1))

    # -- group operations ------------------------------------------------------

    def _check_compatible(self, other: "FormalDiffeo"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def compose(self, other: "FormalDiffeo") -> "FormalDiffeo":
        """self o other."""
        self._check_compatible(other)
        image = SubstitutionCache(other.components, self.order).image
        return FormalDiffeo._trusted(self.dim, self.order, [image(c) for c in self.components])

    def invert(self) -> "FormalDiffeo":
        """The inverse jet, by Newton doubling.

        Start from psi = A^{-1} x, A the linear part of self, which is correct
        through degree 1.  Newton step: if the error e = self o psi - x starts
        at degree d, then psi - Dpsi . e is correct through degree 2d - 2.
        Write psi = psi* + delta with psi* the true inverse, so delta starts
        at degree d.  Then Dpsi* . e agrees with delta below degree 2d, since
        Dpsi* = Dself(psi*)^-1, and D(delta) . e starts at degree 2d - 1.
        The error degree goes d -> 2d - 1 (2, 3, 5, 9, 17, ...), and each
        step's composition and products are truncated at min(order, 2d - 2)
        rather than at order: O(log order) compositions instead of order - 1
        (Brent & Kung, "Fast algorithms for manipulating formal power series",
        J. ACM 1978).  The inverse jet is unique, so the result is the one
        that solving degree by degree gives.
        """
        n, k = self.dim, self.order
        psi = _linear_components(mat_inverse(self.linear_part()))
        xs = _variables(n)
        d = 2  # the error of psi starts at degree >= d
        while d <= k:
            t = min(k, 2 * d - 2)
            image = SubstitutionCache(psi, t).image
            err = [image(comp) - x for comp, x in zip(self.components, xs)]
            if any(err):
                new_psi = []
                for p in psi:
                    step = p
                    for j, e in enumerate(err, start=1):
                        if e:
                            step = step - p.partial_derivative(j).mul_truncated(e, t)
                    new_psi.append(step)
                psi = new_psi
            d = t + 1
        return FormalDiffeo._trusted(n, k, psi)

    def commutator(self, other: "FormalDiffeo") -> "FormalDiffeo":
        """Group commutator a o b o a^-1 o b^-1, formed as x + E with E the
        solution of E o g = D, g = b o a and D = a o b - b o a, degree by
        degree and without inverting g.

        Since (b o a)^-1 = a^-1 o b^-1, the commutator is (a o b) o g^-1 =
        (g + D) o g^-1, and substitution is linear in the outer map, so it
        equals x + D o g^-1 = x + E with E o g = D.  Write g = L + h, L the
        linear part and ord h >= 2.  For F homogeneous of degree d,
        F o g = F o L + (terms of degree > d).  So with R = D and m = ord D,
        for d = m, ..., k in turn: E_d = R_d o L^-1 is the degree-d part of
        E, and R <- R - E_d o g (at order k) leaves R with no terms of degree
        <= d; the last degree needs no update.  When L is the identity,
        E_d = R_d and no linear substitution runs.  The jet solution is
        unique, so E = D o g^-1 mod degree k + 1 and the result is the
        four-fold product exactly.  Commuting a, b (D = 0) need no solve.
        The caches on g and on L^-1 skip the checks: both are jets at order
        k by construction.
        """
        self._check_compatible(other)
        n, k = self.dim, self.order
        g = other.compose(self)
        rest = [p - q for p, q in zip(self.compose(other).components, g.components)]
        m = min((p.min_total_degree() for p in rest if p), default=None)
        xs = _variables(n)
        if m is None:
            return FormalDiffeo._trusted(n, k, xs)
        lin_inv = None  # x -> L^-1 x, when L != I
        if not g.is_tangent_to_identity():
            lin = _linear_components(mat_inverse(g.linear_part()))
            lin_inv = SubstitutionCache(lin, k).image
        image = SubstitutionCache(g.components, k).image
        terms = [[(1, 0, 1, x)] for x in xs]  # x_i and the E_d of component i
        for d in range(m, k + 1):
            parts = [r.degree_part(d) for r in rest]
            if not any(parts):
                continue
            if lin_inv is not None:
                parts = [lin_inv(p) for p in parts]
            for i, p in enumerate(parts):
                if p:
                    terms[i].append((1, 0, 1, p))
                    if d < k:
                        rest[i] = rest[i] - image(p)
        return FormalDiffeo._trusted(n, k, [_combine(n, t) for t in terms])

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FormalDiffeo):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.order == other.order
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.dim, self.order, self.components))

    def __repr__(self):
        return f"FormalDiffeo(dim={self.dim}, order={self.order}, {list(self.components)!r})"

    def __str__(self):
        from .parsing import format_diffeo

        return format_diffeo(self)


@functools.cache
def _variables(n: int) -> tuple[LaurentPoly, ...]:
    """The coordinates x_1, ..., x_n."""
    return tuple(LaurentPoly.variable(n, i) for i in range(1, n + 1))


def _linear_components(matrix) -> list[LaurentPoly]:
    """The components of the linear map x -> matrix x."""
    n = len(matrix)
    comps = []
    for i in range(n):
        p = LaurentPoly.zero(n)
        for j in range(n):
            if matrix[i][j]:
                p = p + LaurentPoly.monomial(n, {j + 1: 1}, matrix[i][j])
        comps.append(p)
    return comps


# -- exponential and logarithm -------------------------------------------------


def _krylov(n: int, order: int, column, weights, what: str) -> list[LaurentPoly]:
    """The components sum_j c_j A^j(x_i) for a nilpotent linear map A of the
    jets at order, given by the cached image column(key) of each monomial:
    the Krylov run x_i, A(x_i), ... of each x_i, one ``_apply_columns`` a
    step, ends at its first zero, within the jet dimension, and
    ``weights(m)`` lists c_0, ..., c_(m-1) as integers (re, im, den)."""
    cap = math.comb(n + order, n)  # jet dimension + 1
    cut = _LAYOUTS[n].cut(order)
    runs = []
    for w in _variables(n):
        run = []
        for _ in range(cap):
            run.append(w)
            w = _apply_columns(n, w, column, cut)
            if not w:
                break
        else:
            raise ArithmeticError(f"{what} sum failed to terminate")
        runs.append(run)
    cs = weights(max(map(len, runs)))
    return [_combine(n, [(*c, w) for c, w in zip(cs, run)]) for run in runs]


def exp_field(X: VectorField, t, order: int) -> FormalDiffeo:
    """The time-t exponential of a nilpotent formal field, truncated at order.

    Component i is sum_j t^j/j! X^j(x_i).  Nilpotency of the linear part makes
    the jet action nilpotent, so the sum terminates; for a non-nilpotent field
    the coefficients would be transcendental in t and the whole construction
    leaves the exact scalar field, hence the hard precondition.  Each X^j(x_i)
    is one accumulation over the cached columns X(x^e) of a
    ``DerivationCache``, and with t = (a + ib)/q the weight t^j/j! is the
    integer (a + ib)^j over q^j j!.
    """
    validate_order(order)
    if not X.is_formal():
        raise ValueError("exp is defined for formal fields only")
    if not X.is_nilpotent():
        raise ValueError("exp is only computed for nilpotent fields (finite jet sums)")
    a, b, q = _parts(t)

    def weights(m):
        cs = [(1, 0, 1)]
        for j in range(1, m):
            re, im, den = cs[-1]
            cs.append((re * a - im * b, re * b + im * a, den * q * j))
        return cs

    column = DerivationCache(X, order).monomial_image
    comps = _krylov(X.dim, order, column, weights, "exponential")
    # every X^j(x_i) is a polynomial in m truncated at order, and the linear
    # part exp(A) of a nilpotent A is unipotent, hence invertible
    return FormalDiffeo._trusted(X.dim, order, comps)


def log_diffeo(phi: FormalDiffeo) -> VectorField:
    """The infinitesimal generator of a unipotent diffeomorphism, truncated.

    This is the jet-action logarithm: with M the matrix of g -> g o phi on
    m/m^(order+1), the derivation log(M) is a finite alternating sum because
    M - I is nilpotent, and the field's i-th coefficient is the polynomial
    log(M)(x_i) = sum_j (-1)^(j+1)/j (M - I)^j(x_i).  We never materialize
    M: each (M - I)^j(x_i) is one accumulation over the cached columns
    x^e o phi - x^e of a shared substitution cache.

    exp_field(log_diffeo(phi), 1, order) == phi at the stored order.
    """
    if not phi.is_unipotent():
        raise ValueError("log is defined for unipotent diffeomorphisms only")
    n, k = phi.dim, phi.order

    def weights(m):  # c_0 = 0: the series starts at j = 1
        return [(0, 0, 1)] + [(1 if j % 2 else -1, 0, j) for j in range(1, m)]

    column = SubstitutionCache(phi.components, k).monomial_difference
    return VectorField(_krylov(n, k, column, weights, "logarithm"))


# -- commutator words ------------------------------------------------------------


class _WordNode:
    """An immutable word node: equal to a node of its own type with equal
    fields, hashed by its fields, and shown with them by name."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


class WordLeaf(_WordNode):
    """A generator reference, optionally inverted."""

    __slots__ = ("index", "inverse")

    def __init__(self, index: int, inverse: bool = False):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "inverse", inverse)


class WordComm(_WordNode):
    """The group-commutator node [left, right]."""

    __slots__ = ("left", "right")

    def __init__(self, left: "CommutatorWord", right: "CommutatorWord"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


CommutatorWord = WordLeaf | WordComm


def word_depth(word: CommutatorWord) -> int:
    """Commutator depth: leaves are 0, a node is 1 + min of its children.

    A depth-d word always evaluates into the d-th derived group.
    """
    if isinstance(word, WordLeaf):
        return 0
    return 1 + min(word_depth(word.left), word_depth(word.right))


def evaluate_word(word: CommutatorWord, gens: Sequence[FormalDiffeo]) -> FormalDiffeo:
    """Evaluate a commutator word over the given generators.

    Each distinct subword (and so each inverted leaf) is evaluated once per
    call, so a word that repeats a subtree pays for it once.
    """
    values: dict[CommutatorWord, FormalDiffeo] = {}

    def value(w: CommutatorWord) -> FormalDiffeo:
        v = values.get(w)
        if v is None:
            if isinstance(w, WordLeaf):
                if not 0 <= w.index < len(gens):
                    raise ValueError(f"word leaf index {w.index} out of range")
                v = gens[w.index].invert() if w.inverse else gens[w.index]
            else:
                v = value(w.left).commutator(value(w.right))
            values[w] = v
        return v

    return value(word)
