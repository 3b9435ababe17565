import itertools
import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

import algen.intmat
from algen.intmat import (
    TRIAL_DIVISION_BOUND,
    Factorization,
    IntegerLattice,
    crt,
    factor,
    lattice_from_vectors,
    snf,
    xgcd,
)
from support import lattice_contains


def test_xgcd():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


# -- HNF ---------------------------------------------------------------------


def subgroup_index_oracle(lat, box):
    """Oracle: count residues of [0, box)^m lying in the subgroup."""
    members = sum(
        1 for v in itertools.product(range(box), repeat=lat.ambient) if lattice_contains(lat, v)
    )
    assert box**lat.ambient % members == 0
    return box**lat.ambient // members


def test_hnf_index_two_subgroup():
    # columns (2,0), (0,2), (1,1)
    lat = lattice_from_vectors(zip(*[[2, 0, 1], [0, 2, 1]]), 2)
    assert lat.rows == ((1, 1), (0, 2))
    assert lat.pivots == (0, 1)
    # derived: brute-force coset count gives index 2
    assert subgroup_index_oracle(lat, 2) == 2
    assert lattice_contains(lat, (1, 1))
    assert lattice_contains(lat, (2, 0))
    assert not lattice_contains(lat, (1, 0))


def test_hnf_identity():
    lat = lattice_from_vectors(zip(*[[1, 0], [0, 1]]), 2)
    assert lat.rows == ((1, 0), (0, 1))
    assert lat.is_full()
    assert lat == IntegerLattice(ambient=2, rows=((1, 0), (0, 1)), pivots=(0, 1))


def test_hnf_single_column():
    lat = lattice_from_vectors(zip(*[[4], [6]]), 2)
    assert lat.rows == ((4, 6),)
    assert lat.pivots == (0,)
    assert not lat.is_full()


def test_hnf_canonical_under_shuffle_and_redundancy():
    rng = random.Random(19)
    for _ in range(30):
        m = rng.randint(1, 3)
        k = rng.randint(1, 4)
        vectors = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(k)]
        lat = lattice_from_vectors(vectors, m)
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert lattice_from_vectors(shuffled, m) == lat
        coeffs = [rng.randint(-2, 2) for _ in vectors]
        combo = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(m)]
        assert lattice_from_vectors(vectors + [combo], m) == lat
        for v in vectors:
            assert lattice_contains(lat, v)


# -- SNF ---------------------------------------------------------------------


def det_int(matrix) -> int:
    """Oracle: exact determinant by fraction-free (Bareiss) elimination."""
    A = [list(map(int, r)) for r in matrix]
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def matmul_int(a, b) -> tuple[tuple[int, ...], ...]:
    """Oracle: the integer matrix product a·b."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def embed_diag(diag, shape):
    m, n = shape
    out = [[0] * n for _ in range(m)]
    for i, d in enumerate(diag):
        out[i][i] = d
    return [tuple(r) for r in out]


def check_snf(matrix):
    """V is unimodular with inverse right_inverse, and A V has the row
    lattice of diag(D), by sympy's Hermite normal form: so U A V = D for
    some unimodular U."""
    dec = snf(matrix)
    m, n = len(matrix), len(matrix[0])
    assert len(dec.diag) == min(m, n)
    assert det_int(dec.right) in (1, -1)
    assert matmul_int(dec.right, dec.right_inverse) == identity(n)
    AV = sympy.Matrix(matmul_int(matrix, dec.right))
    D = sympy.Matrix(embed_diag(dec.diag, (m, n)))
    assert hermite_normal_form(AV.T) == hermite_normal_form(D.T)
    nonzero = [d for d in dec.diag if d]
    zeros = [d for d in dec.diag if not d]
    assert list(dec.diag) == nonzero + zeros
    for a, b in zip(nonzero, nonzero[1:]):
        assert a > 0 and b % a == 0
    return dec


def test_snf_examples():
    assert check_snf([[2, 0], [0, 3]]).diag == (1, 6)
    assert check_snf([[0, 0], [0, 0]]).diag == (0, 0)
    # gcd of entries is 2 and |det| = 8, so the diagonal is (2, 4)
    assert check_snf([[2, 4], [6, 8]]).diag == (2, 4)


def test_snf_shapes():
    assert check_snf([[2, 4, 6]]).diag == (2,)
    assert check_snf([[2], [4], [6]]).diag == (2,)
    assert snf([]).diag == ()


def test_snf_random_property():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(matrix)


def test_snf_right_inverse():
    """right_inverse is a two-sided inverse of right, also on wide and tall
    shapes, where the column operations outnumber the row operations."""
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        dec = snf([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        assert matmul_int(dec.right, dec.right_inverse) == identity(n)
        assert matmul_int(dec.right_inverse, dec.right) == identity(n)


# -- CRT ---------------------------------------------------------------------


def test_crt_examples():
    # derived: scanning 0..5 finds 5 as the first solution
    assert all((x % 2, x % 3) != (1, 2) for x in range(5))
    assert crt([(2, 1), (3, 2)]) == 5
    assert crt([(7, 0)]) == 0
    assert crt([(2, 0), (3, 0), (5, 0)]) == 0
    assert crt([]) == 0


def test_crt_property_and_errors():
    rng = random.Random(31)
    for _ in range(100):
        moduli = rng.sample([2, 3, 5, 7, 11, 13], k=rng.randint(1, 4))
        pairs = [(m, rng.randrange(m)) for m in moduli]
        x = crt(pairs)
        assert 0 <= x < math.prod(moduli)
        for m, r in pairs:
            assert x % m == r
    # consistent non-coprime pair merges
    assert crt([(4, 1), (6, 3)]) == 9
    with pytest.raises(ValueError):
        crt([(2, 1), (4, 0)])
    with pytest.raises(ValueError):
        crt([(0, 0)])


# -- factor ------------------------------------------------------------------


def test_factor_examples():
    assert factor(12).primes == (2, 2, 3)
    assert factor(12).complete
    assert factor(1) == Factorization(n=1, primes=(), cofactor=1)
    f = factor(221)
    assert f.primes == (13, 17)
    assert f.complete
    assert factor(-12).primes == (2, 2, 3)
    with pytest.raises(ValueError):
        factor(0)


def test_factor_rho_beyond_bound():
    # both factors lie past TRIAL_DIVISION_BOUND, so rho splits them
    assert 1000003 > TRIAL_DIVISION_BOUND
    f = factor(1000003 * 1000033)
    assert f.primes == (1000003, 1000033)
    assert f.complete


def test_factor_incomplete_beyond_proof_range():
    huge = 2**89 - 1  # prime, but past the deterministic witness range
    f = factor(2 * huge)
    assert f.primes == (2,)
    assert not f.complete
    assert f.cofactor == huge
    assert f.distinct_primes() == (2,)


def test_factor_matches_oracle():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 10_000)
        f = factor(n)
        assert f.complete
        prod = 1
        for p in f.primes:
            prod *= p
        assert prod == n
        # naive oracle
        m, naive = n, []
        d = 2
        while d * d <= m:
            while m % d == 0:
                naive.append(d)
                m //= d
            d += 1
        if m > 1:
            naive.append(m)
        assert list(f.primes) == naive


# -- sympy as an independent oracle -------------------------------------------


def _random_matrix(rng, rows, cols, height=9):
    return [[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)]


def test_snf_matches_sympy():
    rng = random.Random(5)
    for _ in range(150):
        matrix = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ours = [d for d in snf(matrix).diag if d]
        theirs = smith_normal_form(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert ours == [abs(theirs[i, i]) for i in range(min(theirs.shape)) if theirs[i, i]]


def test_lattice_exponent_matches_sympy_smith_form():
    # the exponent of Z^m / B, read off the HNF, is the last invariant
    # factor; some draws add unit rows, so that pivot-1 columns mix with
    # larger pivots
    rng = random.Random(11)
    checked = 0
    while checked < 300:
        m = rng.randint(1, 5)
        vectors = _random_matrix(rng, rng.randint(m, m + 2), m, height=rng.choice((2, 9, 30)))
        if rng.random() < 0.5:
            vectors += [[int(i == j) for j in range(m)] for i in rng.sample(range(m), rng.randint(1, m))]
        lattice = lattice_from_vectors(vectors, m)
        if lattice.rank < m:
            with pytest.raises(ValueError):
                lattice.exponent()
            continue
        theirs = smith_normal_form(sympy.Matrix(lattice.rows), domain=sympy.ZZ)
        assert lattice.exponent() == abs(theirs[m - 1, m - 1]), lattice
        checked += 1


def _assert_sympy_hnf_lattice(vectors, m):
    """Our HNF against sympy's, compared as lattices: sympy's HNF is
    column-style, so its basis must lie in ours with the same rank and volume."""
    ours = lattice_from_vectors(vectors, m)
    if not any(map(any, vectors)):
        assert ours.rank == 0
        return ours
    theirs = hermite_normal_form(sympy.Matrix(vectors).T)
    assert ours.rank == theirs.cols
    assert all(lattice_contains(ours, list(theirs.col(j))) for j in range(theirs.cols))
    basis = sympy.Matrix(ours.rows)
    assert (basis * basis.T).det() == (theirs.T * theirs).det()
    return ours


def test_lattice_from_vectors_matches_sympy_hnf():
    rng = random.Random(6)
    for _ in range(150):
        m = rng.randint(1, 4)
        _assert_sympy_hnf_lattice(_random_matrix(rng, rng.randint(1, 5), m), m)


def test_hnf_divisible_pivots_match_sympy_hnf():
    # rows whose entry in the pivot column is a multiple of the pivot are
    # reduced by subtraction: duplicates, positive and negative multiples of
    # earlier rows, zero rows, and pivots above 1 dividing later entries
    rng = random.Random(8)
    for _ in range(150):
        m = rng.randint(1, 4)
        pivot = rng.choice((2, 3, -2, 4)) * rng.randint(1, 3)
        vectors = [[pivot] + [rng.randint(-5, 5) for _ in range(m - 1)]]
        vectors += _random_matrix(rng, rng.randint(0, 3), m, height=5)
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                vectors.append(list(rng.choice(vectors)))
            elif kind == 1:
                k = rng.choice((-3, -2, -1, 2, 3))
                vectors.append([k * x for x in rng.choice(vectors)])
            elif kind == 2:
                vectors.append([0] * m)
            else:
                tail = [rng.randint(-5, 5) for _ in range(m - 1)]
                vectors.append([pivot * rng.randint(-3, 3)] + tail)
        ours = _assert_sympy_hnf_lattice(vectors, m)
        for _ in range(3):
            shuffled = vectors[:]
            rng.shuffle(shuffled)
            assert lattice_from_vectors(shuffled, m) == ours


def test_hnf_multiples_of_the_pivot_need_no_xgcd(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(algen.intmat, "xgcd", counting)
    vectors = [[2, 1, 0], [4, 2, 0], [-6, 0, 0], [0, 0, 0], [2, 1, 0], [0, 3, 3]]
    lat = lattice_from_vectors(vectors, 3)
    assert calls == []
    assert lat.rows == ((2, 1, 0), (0, 3, 0), (0, 0, 3))


def test_factor_matches_sympy():
    rng = random.Random(7)
    for _ in range(200):
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= sympy.prime(rng.randint(1, 3000)) ** rng.randint(1, 3)
        if rng.random() < 0.3:
            n *= sympy.nextprime(rng.randrange(10**6, 10**9))
        f = factor(n)
        assert f.complete
        assert f.primes == tuple(sorted(sympy.factorint(n, multiple=True)))

