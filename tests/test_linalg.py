import itertools
import random
from fractions import Fraction

import pytest

from algen.algebra import _RationalSpan
from algen.fields import GF, QQ
from algen.linalg import RowReducer
from support import span_basis


def span_fp(field, rows):
    """Oracle: enumerate the full row space over a prime field."""
    vectors = set()
    width = len(rows[0]) if rows else 0
    for coeffs in itertools.product(range(field.p), repeat=len(rows)):
        v = tuple(
            sum(c * r[k] for c, r in zip(coeffs, rows)) % field.p for k in range(width)
        )
        vectors.add(v)
    return vectors


def reduced(field, rows, width):
    """A RowReducer (over Q, an exact _RationalSpan) after inserting rows."""
    span = RowReducer(field, width) if field.char else _RationalSpan(width)
    for r in rows:
        span.insert(r)
    return span


def pivots(span):
    """Pivot columns of a RowReducer, read off its RREF rows; over odd p they
    must match the pivot list the reducer keeps.  A _RationalSpan keeps its
    own list."""
    if not isinstance(span, RowReducer):
        return span.pivots
    leads = [next(i for i, x in enumerate(row) if x) for row in span.rows]
    assert all(span.rows[k][c] == 1 for k, c in enumerate(leads))
    if span.p != 2:
        assert span._pivots == leads
    return leads


def test_rref_identity_f5():
    r = reduced(GF(5), [[1, 0], [0, 1]], 2)
    assert r.rows == [[1, 0], [0, 1]]
    assert pivots(r) == [0, 1]
    assert r.dim == 2


def test_rref_proportional_rows_q():
    # the exact span over Q keeps delta * RREF in integers
    span = reduced(QQ, [[2, 4], [1, 2]], 2)
    assert span.dim == 1
    assert span_basis(QQ, span.rows) == ((Fraction(1), Fraction(2)),)


def test_rref_f2_three_rows():
    rows = [[1, 1], [1, 0], [0, 1]]
    # oracle: the row space is all of F_2^2, so the canonical basis is I_2
    assert span_fp(GF(2), rows) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    r = reduced(GF(2), rows, 2)
    assert r.rows == [[1, 0], [0, 1]]
    assert r.dim == 2


def test_rref_span_matches_enumeration():
    rng = random.Random(11)
    for p in (2, 3, 5):
        field = GF(p)
        for _ in range(20):
            rows = [[rng.randrange(p) for _ in range(3)] for _ in range(rng.randint(1, 4))]
            r = reduced(field, rows, 3)
            expected = span_fp(field, rows)
            assert span_fp(field, r.rows or [[0, 0, 0]]) == expected


def test_rref_idempotent_and_order_independent():
    # RowReducer rows are sympy's RREF whatever the insertion order, also
    # from unreduced integers; over Q the exact span has sympy's span
    rng = random.Random(7)
    for field in (GF(2), GF(5), QQ):
        for _ in range(25):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(n)]
            expected = span_basis(field, rows)
            for _ in range(3):
                rng.shuffle(rows)
                r = reduced(field, rows, 4)
                if field.char:
                    assert tuple(map(tuple, r.rows)) == expected
                else:
                    assert span_basis(field, r.rows) == expected
                assert r.dim == len(expected)
                again = reduced(field, r.rows, 4)
                assert (again.rows, pivots(again)) == (r.rows, pivots(r))


def test_rref_rejects_bad_entries():
    with pytest.raises(ValueError):
        RowReducer(GF(3), 2).insert((1, 2, 0))
    with pytest.raises(ValueError):
        RowReducer(GF(3), 2).insert((1,))


def test_row_reducer_needs_a_prime_field():
    with pytest.raises(ValueError, match="prime field"):
        RowReducer(QQ, 2)


def test_row_reducer_incremental():
    r = RowReducer(GF(2), 3)
    assert r.insert((1, 1, 0)) == [1, 1, 0]
    assert r.insert((1, 1, 0)) is None
    assert r.insert((0, 1, 1)) == [0, 1, 1]
    assert r.insert((1, 0, 1)) is None
    assert r.rows == [list(row) for row in span_basis(GF(2), [(1, 1, 0), (0, 1, 1)])]
    assert pivots(r) == [0, 1]
    # insert returns the new RREF row, which later inserts leave as it was
    r = RowReducer(GF(3), 3)
    first = r.insert((1, 1, 0))
    assert first == [1, 1, 0]
    assert r.insert((0, 2, 2)) == [0, 1, 1]
    assert first == [1, 1, 0] and r.rows[0] == [1, 0, 2]


def test_row_reducer_copy_is_independent():
    rng = random.Random(3)
    field = GF(5)
    for _ in range(20):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(rng.randint(0, 3))]
        more = [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
        r = reduced(field, rows, 4)
        before = ([list(row) for row in r.rows], pivots(r))
        twin = r.copy()
        for v in more:
            twin.insert(v)
        assert (r.rows, pivots(r)) == before
        assert tuple(map(tuple, twin.rows)) == span_basis(field, rows + more)
        for v in more:
            r.insert(v)
        assert (r.rows, pivots(r)) == (twin.rows, pivots(twin))


def test_f2_masks_match_sympy():
    # over F_2 rows are ints, one bit per coordinate; widths up to 70 cross
    # the 64-bit boundary.  rows, pivots and key are sympy's GF(2) RREF from
    # unreduced and negative integers (x & 1 reads x mod 2), in any order
    rng = random.Random(2)
    field = GF(2)
    for width in range(1, 71):
        rows = [
            [rng.choice((0, 1, 1, -1, 2, -3, 7)) for _ in range(width)]
            for _ in range(rng.randint(1, min(width, 8) + 2))
        ]
        expected = span_basis(field, rows)
        leads = [row.index(1) for row in expected]
        for _ in range(2):
            rng.shuffle(rows)
            r = reduced(field, rows, width)
            assert tuple(map(tuple, r.rows)) == expected
            assert pivots(r) == leads and r.dim == len(expected)
            assert r.key() == reduced(field, expected, width).key()


def test_f2_insert_returns_fresh_rows_and_copy_is_independent():
    rng = random.Random(5)
    field = GF(2)
    for width in (3, 64, 65, 70):
        rows = [[rng.randrange(-3, 4) for _ in range(width)] for _ in range(6)]
        r = RowReducer(field, width)
        returned = []
        for v in rows:
            g = r.insert(v)
            if g is not None:
                # the new RREF row as coordinates, reduced mod 2
                assert set(g) <= {0, 1} and g in r.rows
                returned.append((g, list(g)))
        # later inserts changed the stored rows, not the returned lists
        assert all(g == kept for g, kept in returned)
        assert span_basis(field, [g for g, _ in returned]) == span_basis(field, rows)
        before = (r.rows, r.key())
        twin = r.copy()
        more = [[rng.randrange(2) for _ in range(width)] for _ in range(width)]
        for v in more:
            twin.insert(v)
        assert (r.rows, r.key()) == before
        assert tuple(map(tuple, twin.rows)) == span_basis(field, rows + more)
