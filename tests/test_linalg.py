import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algen.fields import GF, QQ
from algen.linalg import RationalSpan, RowReducer
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
    """A RowReducer (over Q, an exact RationalSpan) after inserting rows."""
    span = RowReducer(field, width) if field.char else RationalSpan(width)
    for r in rows:
        span.insert(r)
    return span


def pivots(span):
    """Pivot columns of a RowReducer, read off its RREF rows; over odd p they
    must match the pivot list the reducer keeps.  A RationalSpan keeps its
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
    # from unreduced integers; over Q the exact span has sympy's span, and
    # its canonical form, unlike its Bareiss rows, is the same in any order
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
                if field.char:
                    assert (again.rows, pivots(again)) == (r.rows, pivots(r))
                else:
                    assert (again.canonical(), again.pivots) == (r.canonical(), r.pivots)


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


def _lcm_scaled(basis) -> tuple:
    """A span_basis over Q times the lcm of its denominators: (delta, rows)."""
    d = math.lcm(*(x.denominator for row in basis for x in row))
    return d, [[int(x * d) for x in row] for row in basis]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_span_canonical_form_is_sympy_rref(data):
    # one-at-a-time inserts in two random orders: the Bareiss state (delta,
    # rows) depends on the order, canonical() is sympy's RREF scaled by the
    # lcm of its denominators in both; leading zeros of random length make
    # the pivots arrive out of order
    width = data.draw(st.integers(1, 12), label="width")
    entries = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))

    @st.composite
    def vectors(draw):
        zeros = draw(st.integers(0, width - 1))
        return [0] * zeros + draw(st.lists(entries, min_size=width - zeros, max_size=width - zeros))

    drawn = data.draw(st.lists(vectors(), min_size=1, max_size=width + 2), label="vectors")
    basis = span_basis(QQ, drawn)
    pivots = [next(k for k, x in enumerate(row) if x) for row in basis]
    for order in range(2):
        shuffled = data.draw(st.permutations(drawn), label=f"order {order}")
        span = reduced(QQ, shuffled, width)
        assert span.canonical() == _lcm_scaled(basis)
        assert span.pivots == pivots
        assert all(row[c] == span.delta for row, c in zip(span.rows, span.pivots))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_span_mod_p_is_row_reducer(data):
    # mod p, RationalSpan keeps the RREF over F_p that RowReducer keeps:
    # the same rows after the same integer inserts, and both grow on the
    # same vectors
    p = data.draw(st.sampled_from([2, 3, 5, 2**31 - 1]), label="p")
    width = data.draw(st.integers(1, 8), label="width")
    entries = st.one_of(st.integers(-2 * p, 2 * p), st.integers(-(2**40), 2**40))
    drawn = data.draw(
        st.lists(st.lists(entries, min_size=width, max_size=width), max_size=width + 3), label="vectors"
    )
    span, reducer = RationalSpan(width, p), RowReducer(GF(p), width)
    for v in drawn:
        assert (span.insert(v) is None) == (reducer.insert(v) is None)
        assert (span.delta, span.rows, span.pivots) == (1, reducer.rows, pivots(reducer))
        assert span.canonical() == (1, reducer.rows)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_residue_decides_the_span_of_one_more_vector(data):
    # equal residues iff span + u and span + v are the same span, and a zero
    # residue iff insert adds nothing; v is often u times a scalar plus a
    # combination of the span, which has u's residue unless the scalar is 0
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    width = data.draw(st.integers(1, 6), label="width")
    vectors = st.lists(st.integers(-2 * p, 2 * p), min_size=width, max_size=width)
    start = data.draw(st.lists(vectors, max_size=width), label="start")
    u = data.draw(vectors, label="u")
    if data.draw(st.booleans(), label="related"):
        c = data.draw(st.integers(-p, p), label="scalar")
        coeffs = data.draw(st.lists(st.integers(-p, p), min_size=len(start), max_size=len(start)))
        v = [c * x + sum(a * row[k] for a, row in zip(coeffs, start)) for k, x in enumerate(u)]
    else:
        v = data.draw(vectors, label="v")
    span = reduced(GF(p), start, width)
    before = span.key()
    keys = []
    for w in (u, v):
        res = span.residue(w)
        twin = span.copy()
        grew = twin.insert(w)
        assert (not res if p == 2 else not any(res)) == (grew is None)
        if p != 2:
            assert all(0 <= x < p for x in res) and next((x for x in res if x), 1) == 1
        keys.append(twin.key())
    assert span.key() == before
    assert (span.residue(u) == span.residue(v)) == (keys[0] == keys[1])


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
