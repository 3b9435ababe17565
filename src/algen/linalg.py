"""Row reduction over a prime field F_p, and exact spans over Q.

Vectors are inserted one at a time and the row set is kept in reduced row
echelon form throughout, so the basis reached at any point is canonical
(depends only on the span, not on the insertion order).  Subspace closure
loops depend on that canonicality.  Spans over Q are RationalSpan, which
keeps the RREF over a common denominator and can also work mod a prime.

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

from math import gcd
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
    def full(self) -> bool:
        return len(self._rows) == self.width

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


class RationalSpan:
    """A subspace of Q^width as its RREF held in integers, or with a modulus
    P the span of integer vectors reduced mod P as its RREF over F_P.

    rows[i] is delta * R_i for the RREF rows R_i (pivot pivots[i]), so every
    pivot entry is delta; mod P, delta is 1.  A vector u lies in the span
    iff delta * u[k] = sum_i u[pivots[i]] * rows[i][k] (mod P) for every
    non-pivot column k, the only candidate combination being sum_i
    u[pivots[i]] R_i.  Test and insert are scale-invariant, so u may be any
    nonzero integer multiple of a value, as scaled tensors on integer
    vectors produce.

    add is the one elimination step.  Over Q it is a fraction-free
    Gauss-Jordan step (Bareiss, Math. Comp. 22, 1968) with no gcd, so delta
    is a minor of the vectors added so far (their determinant at the pivot
    columns, up to sign) and depends on the insertion order; canonical()
    scales the rows by the least positive delta, which does not.
    """

    def __init__(self, width: int, modulus: int = 0):
        self.width = width
        self.modulus = modulus
        self.delta = 1
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        # the column equations, built on the first read after an add
        self._columns: list | None = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def full(self) -> bool:
        return len(self.rows) == self.width

    def canonical(self) -> tuple[int, list[list[int]]]:
        """(delta, rows) for the least positive delta that makes the RREF
        integral: the same for every insertion order.  Mod P the rows come
        as they are, with delta 1."""
        g = gcd(self.delta, *(x for row in self.rows for x in row))
        if self.delta < 0:
            g = -g
        return self.delta // g, [[x // g for x in row] for row in self.rows]

    def size_limit(self, p: int) -> int:
        """(p - 1) // bound for bound = delta + max_k sum_i |rows[i][k]| over
        the non-pivot columns k of the canonical form: an integer vector u
        with max|u| at most this that lies in the span mod the prime p lies
        in the exact span (see algebra._closure_reducer)."""
        delta, rows = self.canonical()
        sums = (sum(abs(row[k]) for row in rows) for k, _ in self._equations())
        return (p - 1) // (delta + max(sums, default=0))

    def _equations(self) -> list:
        # per non-pivot column k, the (pivot, rows[i][k]) terms that are nonzero
        if self._columns is None:
            taken = set(self.pivots)
            self._columns = [
                (k, [(c, row[k]) for c, row in zip(self.pivots, self.rows) if row[k]])
                for k in range(self.width)
                if k not in taken
            ]
        return self._columns

    def insert(self, u: Sequence[int]):
        """Add u unless it lies in the span; returns u if the span grew,
        else None."""
        delta, p = self.delta, self.modulus
        for k, column in self._equations():
            d = delta * u[k] - sum([u[c] * s for c, s in column])
            if d % p if p else d:
                self.add(u)
                return u
        return None

    def add(self, u: Sequence[int]) -> None:
        """Add the integer vector u, which must lie outside the span.

        w = delta * u - sum_i u[pivots[i]] * rows[i] is zero at every pivot
        column; with q its first nonzero column and lead = w[q], the new
        RREF row is w / lead, and each R_i loses R_i[q] times it.  So lead
        is the new delta: w is the row of q and rows[i] becomes
        (lead * rows[i] - rows[i][q] * w) / delta, a division that is exact
        because both deltas are minors of the vectors added.  Mod P, where
        delta is 1, the rows are then scaled by lead^-1 to keep delta 1.
        """
        delta, p = self.delta, self.modulus
        w = [delta * x for x in u]
        for c, row in zip(self.pivots, self.rows):
            a = u[c]
            if a:
                w = [x - a * y for x, y in zip(w, row)]
        if p:
            w = [x % p for x in w]
        q = next(k for k, x in enumerate(w) if x)
        lead = w[q]
        rows = [[(lead * x - row[q] * y) // delta for x, y in zip(row, w)] for row in self.rows]
        at = next((i for i, c in enumerate(self.pivots) if c > q), len(self.pivots))
        rows.insert(at, w)
        if p:
            inv = pow(lead, -1, p)
            rows = [[x * inv % p for x in row] for row in rows]
        else:
            self.delta = lead
        self.rows = rows
        self.pivots.insert(at, q)
        self._columns = None
