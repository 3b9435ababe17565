import itertools
import random
from fractions import Fraction

import pytest

from algen.fields import GF, QQ
from algen.linalg import RowReducer, rref


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


def test_rref_identity_f5():
    basis = rref(GF(5), [[1, 0], [0, 1]])
    assert basis.rows == ((1, 0), (0, 1))
    assert basis.pivots == (0, 1)
    assert basis.dim == 2


def test_rref_proportional_rows_q():
    basis = rref(QQ, [[2, 4], [1, 2]])
    assert basis.rows == ((Fraction(1), Fraction(2)),)
    assert basis.dim == 1


def test_rref_f2_three_rows():
    rows = [[1, 1], [1, 0], [0, 1]]
    # oracle: the row space is all of F_2^2, so the canonical basis is I_2
    assert span_fp(GF(2), rows) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    basis = rref(GF(2), rows)
    assert basis.rows == ((1, 0), (0, 1))
    assert basis.dim == 2


def test_rref_span_matches_enumeration():
    rng = random.Random(11)
    for p in (2, 3, 5):
        field = GF(p)
        for _ in range(20):
            rows = [[rng.randrange(p) for _ in range(3)] for _ in range(rng.randint(1, 4))]
            basis = rref(field, rows)
            expected = span_fp(field, rows)
            if basis.rows:
                assert span_fp(field, [list(r) for r in basis.rows]) == expected
            for v in expected:
                assert basis.contains(v)


def test_rref_idempotent_and_order_independent():
    rng = random.Random(7)
    for field in (GF(2), GF(5), QQ):
        for _ in range(25):
            n = rng.randint(1, 4)
            if field is QQ:
                rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(n)]
            else:
                rows = [[rng.randrange(field.p) for _ in range(4)] for _ in range(n)]
            basis = rref(field, rows)
            again = rref(field, [list(r) for r in basis.rows], width=4) if basis.rows else basis
            assert again.rows == basis.rows
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert rref(field, shuffled).rows == basis.rows


def test_rref_rejects_bad_entries():
    with pytest.raises(ValueError):
        rref(GF(3), [[Fraction(1, 3), 0]])
    with pytest.raises(ValueError):
        rref(QQ, [[0.5, 1]])
    with pytest.raises(ValueError):
        rref(QQ, [])


def test_reduce_vector():
    basis = rref(QQ, [[1, 0]])
    assert basis.reduce((Fraction(3), Fraction(7))) == (0, 7)
    assert basis.reduce((Fraction(5), Fraction(0))) == (0, 0)
    full = rref(GF(3), [[1, 2], [0, 1]])
    for v in itertools.product(range(3), repeat=2):
        assert full.reduce(v) == (0, 0)
    with pytest.raises(ValueError):
        basis.reduce((Fraction(1),))


def test_row_reducer_incremental():
    r = RowReducer(GF(2), 3)
    assert r.insert((1, 1, 0))
    assert not r.insert((1, 1, 0))
    assert r.insert((0, 1, 1))
    assert r.contains((1, 0, 1))
    snap = r.snapshot()
    assert snap.dim == 2
    assert snap.pivots == (0, 1)
    # insert returns the new RREF row, which later inserts leave as it was
    r = RowReducer(GF(3), 3)
    first = r.insert((1, 1, 0))
    assert first == [1, 1, 0]
    assert r.insert((0, 2, 2)) == [0, 1, 1]
    assert first == [1, 1, 0] and r.rows[0] == [1, 0, 2]
