"""Row reduction over a prime field F_p.

Vectors are inserted one at a time and the row set is kept in reduced row
echelon form throughout, so the basis reached at any point is canonical
(depends only on the span, not on the insertion order).  Subspace closure
loops depend on that canonicality.  Spans over Q are algebra._RationalSpan.
"""

from __future__ import annotations

from typing import Sequence

from .fields import Field


class RowReducer:
    """Mutable RREF accumulator over F_p and a fixed ambient dimension."""

    def __init__(self, field: Field, width: int):
        if not field.char:
            raise ValueError("RowReducer needs a prime field")
        self.field = field
        self.p = field.char
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, v: Sequence[int]) -> list[int] | None:
        """Add v to the span.  v may hold any integers (unreduced evaluator
        output).  Returns the new RREF row when the dimension grew, else
        None.  Later inserts replace rows rather than edit them, so the
        returned list keeps its value."""
        if len(v) != self.width:
            raise ValueError(f"vector length {len(v)} != ambient {self.width}")
        p = self.p
        # eliminate the pivot columns; a pivot coefficient is reduced when
        # read and every coordinate once at the end
        work = list(v)
        for row, c in zip(self.rows, self.pivots):
            coeff = work[c] % p
            if coeff:
                work = [x - coeff * y for x, y in zip(work, row)]
        work = [x % p for x in work]
        col = next((i for i, x in enumerate(work) if x), None)
        if col is None:
            return None
        lead = work[col]
        if lead != 1:
            inv = self.field.inv(lead)
            work = [inv * x % p for x in work]
        # eliminate the new pivot column from the existing rows
        rows = self.rows
        for k, row in enumerate(rows):
            coeff = row[col]
            if coeff:
                rows[k] = [(x - coeff * y) % p for x, y in zip(row, work)]
        at = next((k for k, c in enumerate(self.pivots) if c > col), len(self.pivots))
        rows.insert(at, work)
        self.pivots.insert(at, col)
        return work

    def copy(self) -> "RowReducer":
        """An independent reducer holding the same span."""
        twin = RowReducer(self.field, self.width)
        twin.rows = [list(row) for row in self.rows]
        twin.pivots = list(self.pivots)
        return twin
