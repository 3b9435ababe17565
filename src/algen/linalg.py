"""Row reduction over a prime field F_p.

Vectors are inserted one at a time and the row set is kept in reduced row
echelon form throughout, so the basis reached at any point is canonical
(depends only on the span, not on the insertion order).  Subspace closure
loops depend on that canonicality.  Spans over Q are algebra._RationalSpan.

Over F_2 each row is held as one int, coordinate i at bit width - 1 - i, so
a row's pivot column is width - bit_length, rows in RREF order are
descending ints, and reduction is XOR.  Over odd p a row is a list of
coordinates in [0, p).  Either way rows read as coordinate lists.
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
        # RREF rows in pivot order: ints over F_2, coordinate lists otherwise
        self._rows: list = []
        # pivot columns over odd p; over F_2 they are read off the masks
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[int]]:
        """The RREF rows as coordinate lists (the reducer's own list over odd
        p, fresh lists over F_2)."""
        if self.p != 2:
            return self._rows
        return [self._coordinates(m) for m in self._rows]

    def key(self) -> tuple:
        """The span as a hashable value: equal keys, equal spans."""
        if self.p != 2:
            return tuple(map(tuple, self._rows))
        return tuple(self._rows)

    def _coordinates(self, m: int) -> list[int]:
        return [m >> s & 1 for s in range(self.width - 1, -1, -1)]

    def insert(self, v: Sequence[int]) -> list[int] | None:
        """Add v to the span.  v may hold any integers (unreduced evaluator
        output).  Returns the new RREF row as a coordinate list when the
        dimension grew, else None.  Later inserts replace rows rather than
        edit them, so the returned list keeps its value."""
        if len(v) != self.width:
            raise ValueError(f"vector length {len(v)} != ambient {self.width}")
        rows = self._rows
        p = self.p
        if p == 2:
            m = 0
            for x in v:
                m = m << 1 | x & 1
            # a row's leading bit is set in m iff XOR with the row lowers m
            for row in rows:
                low = m ^ row
                if low < m:
                    m = low
            if not m:
                return None
            # clear the new pivot bit from the rows above it, the only rows
            # that can hold it; they stay above m
            lead = 1 << m.bit_length() - 1
            at = 0
            for k, row in enumerate(rows):
                if row < m:
                    break
                if row & lead:
                    rows[k] = row ^ m
                at = k + 1
            rows.insert(at, m)
            return self._coordinates(m)
        # eliminate the pivot columns; a pivot coefficient is reduced when
        # read and every coordinate once at the end
        work = list(v)
        for row, c in zip(rows, self._pivots):
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
        for k, row in enumerate(rows):
            coeff = row[col]
            if coeff:
                rows[k] = [(x - coeff * y) % p for x, y in zip(row, work)]
        at = next((k for k, c in enumerate(self._pivots) if c > col), len(self._pivots))
        rows.insert(at, work)
        self._pivots.insert(at, col)
        return work

    def copy(self) -> "RowReducer":
        """An independent reducer holding the same span.  Rows are replaced,
        never edited, so the twin may share them."""
        twin = RowReducer(self.field, self.width)
        twin._rows = list(self._rows)
        twin._pivots = list(self._pivots)
        return twin
