"""The Gaussian-integer span echelon against the field elimination.

``FieldEchelon`` (Gauss-Jordan over Q(i) with ``Scalar`` entries, kept for
the solvers) is the oracle: scaling rows by Gaussian integers must change no
membership test, no insert verdict, no dimension and no kept basis.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from germcalc import lie
from germcalc.families import build_chain_algebra, build_nilpotent_example
from germcalc.fields import VectorField
from germcalc.laurent import LaurentPoly, grlex_key
from germcalc.lie import bracket_closure, central_series, derived_series, span_reduce
from germcalc.scalars import Scalar
from germcalc.spans import FieldEchelon, SparseEchelon

KEYS = 8

# a Gaussian rational as (re, im) Fractions
gaussian = st.builds(
    lambda a, b, d: (Fraction(a, d), Fraction(b, d)),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(1, 9),
)


def _times(c, w):
    (a, b), (x, y) = c, w
    return (a * x - b * y, a * y + b * x)


@st.composite
def vector_lists(draw):
    """Sparse Gaussian-rational vectors over keys 0..KEYS-1: random ones,
    zero vectors, duplicates and planted combinations of earlier ones."""
    out = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["random", "zero", "duplicate", "combination"]))
        if kind == "zero" or (kind != "random" and not out):
            v = {}
        elif kind == "random":
            v = draw(st.dictionaries(st.integers(0, KEYS - 1), gaussian, max_size=5))
        elif kind == "duplicate":
            v = dict(draw(st.sampled_from(out)))
        else:
            v = {}
            for w in draw(st.lists(st.sampled_from(out), min_size=1, max_size=3)):
                c = draw(gaussian)
                for k, x in w.items():
                    s = _times(c, x)
                    old = v.get(k, (0, 0))
                    v[k] = (old[0] + s[0], old[1] + s[1])
        out.append({k: x for k, x in v.items() if x != (0, 0)})
    return out


def as_integers(v):
    """v scaled by the lcm of its denominators, as Gaussian-integer pairs."""
    den = lcm(*(q.denominator for x in v.values() for q in x))
    return {k: (int(a * den), int(b * den)) for k, (a, b) in v.items()}


def as_scalars(v):
    return {k: Scalar(a, b) for k, (a, b) in v.items()}


def check_row_form(ech):
    for pivot, row in ech.rows.items():
        assert pivot == min(row)
        re, im = row[pivot]
        assert re > 0 and im == 0
        assert gcd(*(part for pair in row.values() for part in pair)) == 1


@settings(max_examples=150, deadline=None)
@given(vector_lists())
def test_echelon_agrees_with_field_elimination(vectors):
    ech, oracle = SparseEchelon(), FieldEchelon()
    for v in vectors:
        iv, sv = as_integers(v), as_scalars(v)
        assert ech.contains(iv) == (not oracle.reduce(sv))
        assert ech.insert(iv) == oracle.insert(sv)
        assert ech.dim == oracle.dim
        assert ech.contains(iv)
    check_row_form(ech)


@settings(max_examples=60, deadline=None)
@given(vector_lists())
def test_echelon_rank_matches_sympy(vectors):
    sympy = pytest.importorskip("sympy")
    ech = SparseEchelon()
    for v in vectors:
        ech.insert(as_integers(v))
    matrix = sympy.Matrix(
        [
            [
                sympy.Rational(a.numerator, a.denominator)
                + sympy.I * sympy.Rational(b.numerator, b.denominator)
                for a, b in (v.get(k, (Fraction(0), Fraction(0))) for k in range(KEYS))
            ]
            for v in vectors
        ]
    )
    assert ech.dim == matrix.rank()


def test_complex_pivot_row_is_made_real_and_primitive():
    ech = SparseEchelon()
    assert ech.insert({3: (1, 2), 5: (0, 4), 7: (-2, 0)})
    # times 1 - 2i: pivot 5, then the content 1 divides nothing
    assert ech.rows == {3: {3: (5, 0), 5: (8, 4), 7: (-2, 4)}}
    assert ech.contains({3: (-2, 1), 5: (-4, 0), 7: (0, -2)})  # i times the vector
    assert ech.contains({3: (-1, 3), 5: (-4, 4), 7: (-2, -2)})  # (1 + i) times it
    assert not ech.contains({3: (1, 2), 5: (0, 4)})
    assert not ech.insert({3: (2, 4), 5: (0, 8), 7: (-4, 0)})
    # a negative real pivot flips sign; the content 6 is divided out
    assert ech.insert({4: (-6, 0), 9: (12, -18)})
    assert ech.rows[4] == {4: (1, 0), 9: (-2, 3)}
    check_row_form(ech)


def test_copy_shares_rows_but_not_inserts():
    ech = SparseEchelon()
    ech.insert({0: (1, 0)})
    twin = ech.copy()
    assert twin.insert({1: (1, 0)})
    assert ech.dim == 1 and twin.dim == 2
    assert not ech.contains({1: (1, 0)})


def test_span_echelon_is_kept_and_private():
    gens = build_chain_algebra(2, 0, 6).basis
    g = span_reduce(gens, 6)  # span_reduce keeps the echelon it built
    assert g._echelon is not None and g._echelon.dim == g.dimension
    x1, x2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    candidates = [VectorField([a, b]) for a in (x1, x2, x1 * x2) for b in (x1, x2, 0 * x1)]
    outside = next(F for F in candidates if not g.contains_field(F))
    ech = g.echelon()
    assert ech.insert(outside.sparse())
    assert not g.contains_field(outside)
    assert g.echelon().dim == g.dimension


def test_laurent_keys_order_and_span():
    x1, x2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    inv1 = x1.monomial_inverse()
    X = VectorField([inv1 ** 3 * Fraction(1, 2), x1 ** 2 * x2.monomial_inverse()])
    Y = VectorField([x2 * inv1 * Scalar(0, 1), x1 * Fraction(2, 3)])
    # ascending keys order the terms by monomial (graded lex), then component
    for field in (X, Y):
        keys = sorted(field.sparse())
        expected = sorted(
            (grlex_key(e), i)
            for i, c in enumerate(field.coeffs)
            for e in c.terms
        )
        assert [k % 2 for k in keys] == [i for _, i in expected]
    span = span_reduce([X, Y, X])
    assert span.basis == (X, Y)
    combo = VectorField(
        [a * Scalar(1, 1) + b * Fraction(-3, 7) for a, b in zip(X.coeffs, Y.coeffs)]
    )
    assert span.contains_field(combo)
    assert not span.contains_field(VectorField([inv1, x2]))


class FieldSpans:
    """``SparseEchelon``'s interface over ``FieldEchelon``: the span code
    run with Gauss-Jordan elimination over Q(i)."""

    def __init__(self, inner=None):
        self.inner = FieldEchelon() if inner is None else inner

    @staticmethod
    def _field(vector):
        return {k: Scalar(a, b) for k, (a, b) in vector.items()}

    @property
    def dim(self):
        return self.inner.dim

    def copy(self):
        twin = FieldEchelon()
        twin.rows = dict(self.inner.rows)
        return FieldSpans(twin)

    def insert(self, vector):
        return self.inner.insert(self._field(vector))

    def contains(self, vector):
        return not self.inner.reduce(self._field(vector))


def with_field_elimination(monkeypatch, compute):
    """compute() with the span code on the Gaussian-integer kernel, then on
    the field elimination."""
    fast = compute()
    with monkeypatch.context() as m:
        m.setattr(lie, "SparseEchelon", FieldSpans)
        slow = compute()
    return fast, slow


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_bases_match_field_elimination(monkeypatch, n):
    for order in range(6, 13):
        def compute():
            g = build_chain_algebra(n, 0, order)
            return [level.basis for level in derived_series(g)]

        fast, slow = with_field_elimination(monkeypatch, compute)
        assert fast == slow, (n, order)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nilpotent_closure_bases_match_field_elimination(monkeypatch, n):
    _, _, zs = build_nilpotent_example(n)

    def compute():
        g = bracket_closure(zs)
        return [level.basis for level in central_series(g)]

    fast, slow = with_field_elimination(monkeypatch, compute)
    assert fast == slow
