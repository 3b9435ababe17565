"""Row reduction over a prime field F_p.

Vectors are inserted one at a time and the row set is kept in reduced row
echelon form throughout, so the basis reached at any point is canonical
(depends only on the span, not on the insertion order).  Subspace closure
loops depend on that canonicality.  Spans over Q are algebra._RationalSpan.

Over F_2 each row is held as one int, coordinate i at bit width - 1 - i, so
a row's pivot column is width - bit_length, rows in RREF order are
descending ints, and reduction is XOR.  Over odd p a row is a list of
coordinates in [0, p).  Either way rows read as coordinate lists.

residue reduces a vector modulo the span, and insert adds the residue as a
new row; that reduction is the only one in either field.  Equal residues
mean equal spans after the insert, so a caller can tell apart the spans of
many one-vector extensions without building them.
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

    def residue(self, v: Sequence[int]) -> int | tuple[int, ...]:
        """v reduced modulo the span, with a zero in every pivot column: over
        F_2 a mask, 0 when v lies in the span; over odd p a tuple of
        coordinates in [0, p) scaled to leading coordinate 1, all zero when v
        lies in the span.  v may hold any integers.  Reduction is linear, so
        two vectors have equal residues iff adding either one gives the same
        span."""
        if len(v) != self.width:
            raise ValueError(f"vector length {len(v)} != ambient {self.width}")
        p = self.p
        if p == 2:
            m = 0
            for x in v:
                m = m << 1 | x & 1
            # a row's leading bit is set in m iff XOR with the row lowers m
            for row in self._rows:
                low = m ^ row
                if low < m:
                    m = low
            return m
        # eliminate the pivot columns; a pivot coefficient is reduced when
        # read and every coordinate once at the end
        work = list(v)
        for row, c in zip(self._rows, self._pivots):
            coeff = work[c] % p
            if coeff:
                work = [x - coeff * y for x, y in zip(work, row)]
        work = [x % p for x in work]
        lead = next((x for x in work if x), 1)
        if lead != 1:
            inv = self.field.inv(lead)
            work = [inv * x % p for x in work]
        return tuple(work)

    def insert(self, v: Sequence[int]) -> list[int] | None:
        """Add v to the span.  v may hold any integers (unreduced evaluator
        output).  Returns the new RREF row as a coordinate list when the
        dimension grew, else None.  Later inserts replace rows rather than
        edit them, so the returned list keeps its value."""
        res = self.residue(v)
        rows = self._rows
        if self.p == 2:
            if not res:
                return None
            # clear the new pivot bit from the rows above it, the only rows
            # that can hold it; they stay above res
            lead = 1 << res.bit_length() - 1
            at = 0
            for k, row in enumerate(rows):
                if row < res:
                    break
                if row & lead:
                    rows[k] = row ^ res
                at = k + 1
            rows.insert(at, res)
            return self._coordinates(res)
        if 1 not in res:  # a nonzero residue leads with 1
            return None
        col = res.index(1)
        work = list(res)
        p = self.p
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
