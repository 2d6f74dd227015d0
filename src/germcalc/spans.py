"""Incremental exact row reduction for sparse vectors.

Two eliminations, for two jobs:

* ``SparseEchelon`` holds the spans of the Lie computations.  Its vectors
  are dicts from int keys to nonzero Gaussian integers, stored as pairs
  (re, im) of ints.  A span over Q(i) does not change when a vector is
  scaled by a nonzero Gaussian integer, so the echelon works over Z[i]
  without fractions (fraction-free elimination, as in Bareiss, Math. Comp.
  1968) and reads the integer numerators that ``LaurentPoly`` stores.
* ``FieldEchelon`` is Gauss-Jordan elimination over an exact field, for the
  solver ``mat_inverse``, which reads reduced rows.

Both pivot on the smallest key of a vector.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Any, Mapping

GaussianVector = dict[int, tuple[int, int]]
SparseVector = dict[int, Any]


class SparseEchelon:
    """A growing row-echelon basis over the Gaussian integers.

    Every stored row is primitive: the gcd of all its integer parts is 1,
    and its pivot (its smallest key) holds a positive integer.  The form is
    not reduced, so a stored row never changes: an insert touches only the
    rows whose pivots the vector meets, and copies share their rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: dict[int, GaussianVector] | None = None):
        self.rows: dict[int, GaussianVector] = {} if rows is None else rows  # pivot -> row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "SparseEchelon":
        """An echelon of the same rows whose inserts leave this one unchanged."""
        return SparseEchelon(dict(self.rows))

    def reduce(self, vector: Mapping[int, tuple[int, int]]) -> GaussianVector:
        """A nonzero multiple of the remainder of vector modulo the rows:
        empty exactly when vector lies in their span.

        Each pivot p that v meets, in ascending order, is cleared by
        v <- P*v - v[p]*row with P the row's pivot entry (both factors first
        divided by their common integer factor).  A row's keys are at least
        its pivot, so no cleared pivot comes back and one pass suffices.
        """
        rows = self.rows
        v = dict(vector)
        hits = [k for k in v if k in rows]
        heapify(hits)
        while hits:
            p = heappop(hits)
            c = v.get(p)
            if c is None:
                continue
            row = rows[p]
            scale = row[p][0]
            cr, ci = c
            g = gcd(scale, cr, ci)
            if g != 1:
                scale //= g
                cr //= g
                ci //= g
            if scale != 1:
                for k, (a, b) in v.items():
                    v[k] = (a * scale, b * scale)
            for k, (rr, ri) in row.items():
                acc = v.get(k)
                if ci:
                    dr = cr * rr - ci * ri
                    di = cr * ri + ci * rr
                else:
                    dr = cr * rr
                    di = cr * ri
                if acc is None:
                    v[k] = (-dr, -di)
                    if k in rows:
                        heappush(hits, k)
                else:
                    a = acc[0] - dr
                    b = acc[1] - di
                    if a or b:
                        v[k] = (a, b)
                    else:
                        del v[k]
        return v

    def contains(self, vector: Mapping[int, tuple[int, int]]) -> bool:
        return not self.reduce(vector)

    def insert(self, vector: Mapping[int, tuple[int, int]]) -> bool:
        """Add a vector to the span.  Returns True iff it enlarged the span."""
        v = self.reduce(vector)
        if not v:
            return False
        pivot = min(v)
        pr, pi = v[pivot]
        if pi or pr < 0:
            # times the pivot's conjugate: the pivot becomes pr^2 + pi^2 > 0
            v = {k: (a * pr + b * pi, b * pr - a * pi) for k, (a, b) in v.items()}
        g = 0
        for a, b in v.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            v = {k: (a // g, b // g) for k, (a, b) in v.items()}
        self.rows[pivot] = v
        return True


def vec_sub_scaled(v: SparseVector, w: SparseVector, factor) -> SparseVector:
    """v - factor * w as a fresh dict."""
    out = dict(v)
    for key, coeff in w.items():
        delta = coeff * factor
        acc = out.get(key)
        s = -delta if acc is None else acc - delta
        if s:
            out[key] = s
        elif acc is not None:
            del out[key]
    return out


class FieldEchelon:
    """A growing reduced row-echelon basis over an exact field.

    Values are field elements that support ``+ - * /``, ``1 / x`` and
    truthiness (zero is false), such as the Gaussian rationals (``Scalar``)
    of ``mat_inverse``.  ``insert`` reduces a vector against the rows and,
    if a nonzero remainder survives, normalizes it (pivot coefficient 1),
    back-substitutes it into the existing rows and stores it.  Inserting the
    rows of an augmented matrix keyed by column index and reading the
    reduced rows is how ``mat_inverse`` solves its system.
    """

    def __init__(self):
        self.rows: dict[int, SparseVector] = {}  # pivot key -> row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vector: SparseVector) -> SparseVector:
        """Remainder of vector modulo the current row space."""
        v = dict(vector)
        while True:
            hit = None
            for key in v:
                if key in self.rows:
                    hit = key
                    break
            if hit is None:
                return v
            v = vec_sub_scaled(v, self.rows[hit], v[hit])

    def insert(self, vector: SparseVector) -> bool:
        """Add a vector to the span.  Returns True iff it enlarged the span."""
        v = self.reduce(vector)
        if not v:
            return False
        pivot = min(v)
        inv = 1 / v[pivot]
        v = {k: c * inv for k, c in v.items()}
        for key, row in self.rows.items():
            if pivot in row:
                self.rows[key] = vec_sub_scaled(row, v, row[pivot])
        self.rows[pivot] = v
        return True
