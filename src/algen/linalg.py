"""Row reduction over an exact field.

The workhorse is an incremental reducer: vectors are inserted one at a time
and the row set is kept in reduced row echelon form throughout, so the basis
reached at any point is canonical (depends only on the span, not on the
insertion order).  Subspace closure loops depend on that canonicality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import Field, Scalar, validate_vector


@dataclass(frozen=True)
class EchelonBasis:
    """A canonical (RREF) basis of a subspace of field^width.

    Rows are sorted by pivot column, each pivot is 1 and is the only nonzero
    entry in its column.
    """

    field: Field
    width: int
    rows: tuple[tuple[Scalar, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Residual of v after eliminating all pivot columns."""
        if len(v) != self.width:
            raise ValueError(f"vector length {len(v)} != ambient {self.width}")
        return tuple(_reduce_row(self.field.char, list(v), self.rows, self.pivots))

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

    def __contains__(self, v) -> bool:
        return self.contains(v)


def _reduce_row(p: int, work: list, rows, pivots) -> list:
    """Eliminate the pivot columns from work in place with Python operators.

    Over F_p (p > 0) work may hold any integers: each pivot coefficient is
    reduced when read and every coordinate once at the end.  Over Q (p = 0)
    the scalars are Fractions.
    """
    for row, c in zip(rows, pivots):
        coeff = work[c] % p if p else work[c]
        if coeff:
            work[:] = [x - coeff * y for x, y in zip(work, row)]
    if p:
        work[:] = [x % p for x in work]
    return work


class RowReducer:
    """Mutable RREF accumulator over a fixed field and ambient dimension."""

    def __init__(self, field: Field, width: int):
        self.field = field
        self.p = field.char
        self.width = width
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, v: Sequence[Scalar]) -> list[Scalar]:
        """v with the pivot columns eliminated.  Over F_p, v may hold any
        integers (unreduced evaluator output); the residual is reduced."""
        if len(v) != self.width:
            raise ValueError(f"vector length {len(v)} != ambient {self.width}")
        return _reduce_row(self.p, list(v), self.rows, self.pivots)

    def insert(self, v: Sequence[Scalar]) -> list[Scalar] | None:
        """Add v to the span.  Returns the new RREF row when the dimension
        grew, else None.  Later inserts replace rows rather than edit them,
        so the returned list keeps its value."""
        p = self.p
        work = self.residual(v)
        pivot = next((i for i, x in enumerate(work) if x), None)
        if pivot is None:
            return None
        lead = work[pivot]
        if lead != 1:
            inv = self.field.inv(lead)
            if p:
                work = [inv * x % p for x in work]
            else:
                work = [inv * x for x in work]
        # eliminate the new pivot column from the existing rows
        rows = self.rows
        for k, row in enumerate(rows):
            coeff = row[pivot]
            if coeff:
                if p:
                    rows[k] = [(x - coeff * y) % p for x, y in zip(row, work)]
                else:
                    rows[k] = [x - coeff * y for x, y in zip(row, work)]
        at = next((k for k, c in enumerate(self.pivots) if c > pivot), len(self.pivots))
        rows.insert(at, work)
        self.pivots.insert(at, pivot)
        return work

    def contains(self, v: Sequence[Scalar]) -> bool:
        return not any(self.residual(v))

    def copy(self) -> "RowReducer":
        """An independent reducer holding the same span."""
        twin = RowReducer(self.field, self.width)
        twin.rows = [list(row) for row in self.rows]
        twin.pivots = list(self.pivots)
        return twin

    def snapshot(self) -> EchelonBasis:
        return EchelonBasis(
            field=self.field,
            width=self.width,
            rows=tuple(tuple(row) for row in self.rows),
            pivots=tuple(self.pivots),
        )


def rref(field: Field, rows: Iterable[Sequence[Scalar]], width: int | None = None) -> EchelonBasis:
    """Canonical basis of the row span.  Validates entries against the field."""
    rows = [list(r) for r in rows]
    if width is None:
        if not rows:
            raise ValueError("width is required for an empty row list")
        width = len(rows[0])
    reducer = RowReducer(field, width)
    for r in rows:
        reducer.insert(validate_vector(field, r, width))
    return reducer.snapshot()

