"""Incremental exact row reduction for sparse vectors over an exact field.

Vectors are dicts mapping hashable keys to nonzero field elements: Gaussian
rationals (``Scalar``) for spans of fields and matrix inverses, rational
functions (``RationalFunction``) for solves over the fraction field.  Any
exact field works whose elements support ``+ - * /``, ``1 / x`` and
truthiness (zero is false).  Keys carry a total order (supplied as a sort key
function) so pivot choice is deterministic; we always pivot on the smallest
key present.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

SparseVector = dict[Hashable, Any]


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


class SparseEchelon:
    """A growing row-echelon basis.

    ``insert`` reduces a vector against the current rows and, if a nonzero
    remainder survives, normalizes it (pivot coefficient 1), back-substitutes
    it into the existing rows and stores it.  The basis therefore stays in
    reduced row-echelon form, which makes membership tests exact dictionary
    lookups plus one reduction pass.  This is the package's only Gauss-Jordan
    elimination: inserting the rows of an augmented matrix keyed by column
    index and reading the reduced rows is how ``mat_inverse`` and
    ``solve_rational`` solve their systems.
    """

    def __init__(self, sort_key: Callable[[Hashable], object]):
        self.sort_key = sort_key
        self.rows: dict[Hashable, SparseVector] = {}  # pivot key -> row

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

    def contains(self, vector: SparseVector) -> bool:
        return not self.reduce(vector)

    def insert(self, vector: SparseVector) -> bool:
        """Add a vector to the span.  Returns True iff it enlarged the span."""
        v = self.reduce(vector)
        if not v:
            return False
        pivot = min(v, key=self.sort_key)
        inv = 1 / v[pivot]
        v = {k: c * inv for k, c in v.items()}
        for key, row in self.rows.items():
            if pivot in row:
                self.rows[key] = vec_sub_scaled(row, v, row[pivot])
        self.rows[pivot] = v
        return True
