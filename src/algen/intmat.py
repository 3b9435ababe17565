"""Integer matrix kernels: Hermite and Smith normal forms, CRT, factoring.

Everything here is exact and canonical.  Canonicality is load-bearing:
subgroup equality must be representation equality, so closure loops can
detect a fixed point by comparing forms, and certificates stay byte-stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Sequence

from .fields import proved_prime


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Hermite normal form (row basis for a subgroup of Z^m)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerLattice:
    """A subgroup of Z^ambient in canonical Hermite normal form.

    Basis rows have strictly increasing pivot columns, positive pivots, and
    every entry above a pivot is reduced into [0, pivot).  Two equal
    subgroups produce identical row tuples.
    """

    ambient: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        """True iff the subgroup is all of Z^ambient."""
        return self.rank == self.ambient and all(
            row[c] == 1 for row, c in zip(self.rows, self.pivots)
        )

    def exponent(self) -> int:
        """The exponent of Z^ambient / self, the least e > 0 with e Z^ambient
        inside self; the lattice must have full rank.

        A pivot-1 column is a unit column, since the entries above it are
        reduced into [0, 1), so the quotient is presented by the block of
        rows and columns whose pivot exceeds 1.  Its exponent is the lcm of
        the denominators of that block's inverse, found by back substitution
        in integers: each row of the inverse is kept as an integer row over
        one denominator, in lowest terms.
        """
        if self.rank != self.ambient:
            raise ValueError("a lattice below full rank has an infinite quotient")
        # full rank: row c has its pivot in column c
        big = [c for c in range(self.ambient) if self.rows[c][c] > 1]
        block = [[self.rows[i][j] for j in big] for i in big]
        s = len(big)
        numerators: list[list[int]] = [[] for _ in range(s)]
        denominators = [1] * s
        for i in reversed(range(s)):
            common = lcm(*(denominators[k] for k in range(i + 1, s) if block[i][k]))
            row = [common * (i == j) for j in range(s)]
            for k in range(i + 1, s):
                if block[i][k]:
                    q = block[i][k] * (common // denominators[k])
                    row = [a - q * b for a, b in zip(row, numerators[k])]
            den = common * block[i][i]
            g = gcd(den, *row)
            numerators[i], denominators[i] = [a // g for a in row], den // g
        return lcm(*denominators)


def _hnf_rows(vectors: Iterable[Sequence[int]], ambient: int):
    """Row-style HNF of the subgroup generated by the given vectors."""
    work = []
    for v in vectors:
        row = [int(x) for x in v]
        if len(row) != ambient:
            raise ValueError(f"vector length {len(row)} != ambient {ambient}")
        if any(row):
            work.append(row)
    basis: list[list[int]] = []
    pivots: list[int] = []
    for c in range(ambient):
        pivot_row = None
        for row in work:
            if row[c] == 0:
                continue
            if pivot_row is None:
                pivot_row = row
                continue
            q, r = divmod(row[c], pivot_row[c])
            if not r:
                # a multiple of the pivot: subtraction clears it without a gcd step
                row[:] = [b - q * a for a, b in zip(pivot_row, row)]
                continue
            g, x, y = xgcd(pivot_row[c], row[c])
            qa, qb = pivot_row[c] // g, row[c] // g
            merged = [x * a + y * b for a, b in zip(pivot_row, row)]
            row[:] = [qa * b - qb * a for a, b in zip(pivot_row, row)]
            pivot_row[:] = merged
        if pivot_row is not None:
            work = [row for row in work if row is not pivot_row]
            if pivot_row[c] < 0:
                pivot_row[:] = [-x for x in pivot_row]
            basis.append(pivot_row)
            pivots.append(c)
        work = [row for row in work if any(row)]
    # reduce entries above each pivot into [0, pivot)
    for i in range(len(basis)):
        c = pivots[i]
        p = basis[i][c]
        for j in range(i):
            q = basis[j][c] // p
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis, pivots


def lattice_from_vectors(vectors: Iterable[Sequence[int]], ambient: int) -> IntegerLattice:
    """Canonical lattice generated (as a subgroup of Z^ambient) by vectors."""
    basis, pivots = _hnf_rows(vectors, ambient)
    return IntegerLattice(
        ambient=ambient,
        rows=tuple(tuple(r) for r in basis),
        pivots=tuple(pivots),
    )


# ---------------------------------------------------------------------------
# Smith normal form with unimodular transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U A V = diag(d_1..d_k) embedded in the shape of A, for a unimodular U
    that is not kept.

    d_1 | d_2 | ... | d_k, all nonnegative, zeros last; V (n x n) is
    unimodular, and right_inverse is V^-1.
    """

    diag: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]
    right_inverse: tuple[tuple[int, ...], ...]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form by repeated pivot reduction (Cohen Alg. 2.4.14 style)."""
    A = [list(map(int, r)) for r in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if m and any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    V = _identity(n)
    W = _identity(n)  # V^-1: a column operation on V is a row operation on W
    # row operations act on A alone: no caller reads U

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def col_sub(i, j, q):
        # col i -= q * col j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]
        W[j] = [a + q * b for a, b in zip(W[j], W[i])]

    t = 0
    end = min(m, n)
    while t < end:
        # locate the smallest nonzero entry of the trailing block
        pos = None
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                a = abs(A[i][j])
                if a and (pos is None or a < best):
                    pos, best = (i, j), a
        if pos is None:
            break
        A[t], A[pos[0]] = A[pos[0]], A[t]
        if pos[1] != t:
            swap_cols(t, pos[1])
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        clean = True
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                if A[i][t]:
                    clean = False
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_sub(j, t, q)
                if A[t][j]:
                    clean = False
        if not clean:
            continue  # a smaller remainder appeared; re-select the pivot
        # pivot must divide every remaining entry, else absorb the bad row
        bad = None
        d = A[t][t]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
            continue
        t += 1

    diag = tuple(A[i][i] for i in range(end))
    return SmithDecomposition(
        diag=diag,
        right=tuple(tuple(r) for r in V),
        right_inverse=tuple(tuple(r) for r in W),
    )


# ---------------------------------------------------------------------------
# Chinese remainder theorem
# ---------------------------------------------------------------------------


def crt(residues: Iterable[tuple[int, int]]) -> int:
    """Smallest nonnegative x with x = r (mod m) for every (m, r) pair.

    Moduli need not be coprime; inconsistent congruences raise ValueError.
    An empty list yields 0.
    """
    x, modulus = 0, 1
    for m, r in residues:
        m = int(m)
        r = int(r)
        if m <= 0:
            raise ValueError(f"modulus must be positive, got {m}")
        g, s, _ = xgcd(modulus, m)
        if (r - x) % g:
            raise ValueError(f"inconsistent congruences: x={x} mod {modulus} vs {r} mod {m}")
        lcm = modulus // g * m
        x = (x + (r - x) // g * s % (m // g) * modulus) % lcm
        modulus = lcm
    return x


# ---------------------------------------------------------------------------
# Factoring: trial division, Brent's rho, primes proved by Miller-Rabin
# ---------------------------------------------------------------------------


def decimal_str(x: int) -> str:
    """x in decimal, however many digits: str() refuses an int longer than
    sys.get_int_max_str_digits(), and Decimal's conversion has no limit."""
    # imported here, so that no command pays for it at start
    from decimal import Decimal

    return str(Decimal(x))


class FactorizationIncomplete(RuntimeError):
    """Raised when a computation needs a factorization that was not achieved."""

    def __init__(self, n: int, primes: tuple[int, ...], cofactor: int):
        self.n = n
        self.primes = primes
        self.cofactor = cofactor
        super().__init__(f"could not factor cofactor {decimal_str(cofactor)} of {decimal_str(n)}")


@dataclass(frozen=True)
class Factorization:
    """Prime factors (with multiplicity, ascending) and the unfactored part."""

    n: int
    primes: tuple[int, ...]
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.primes)))


def _brent_rho(n: int) -> int | None:
    """Deterministic Brent cycle-finding; returns a proper factor or None."""
    if n % 2 == 0:
        return 2
    for c in range(1, 21):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        count = 0
        while g == 1 and count < (1 << 20):
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
            count += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


# The one trial-division bound, the same for prover and verifier.  It decides
# only whether factoring finishes, never which primes divide n.
TRIAL_DIVISION_BOUND = 1_000_000


def factor(n: int) -> Factorization:
    """Factor n by trial division up to TRIAL_DIVISION_BOUND, then
    deterministic rho splits.

    Factors are reported only when proven prime; whatever resists ends up in
    the cofactor (complete iff cofactor == 1).
    """
    n = int(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    remaining = abs(n)
    primes: list[int] = []
    if remaining > 1:
        for f in range(2, 4):
            while remaining % f == 0:
                primes.append(f)
                remaining //= f
        f = 5
        step = 2
        while f <= TRIAL_DIVISION_BOUND and f * f <= remaining:
            while remaining % f == 0:
                primes.append(f)
                remaining //= f
            f += step
            step = 6 - step
        if remaining > 1 and f * f > remaining:
            # every candidate up to sqrt(remaining) was tried
            primes.append(remaining)
            remaining = 1
    cofactor = 1
    stack = [remaining] if remaining > 1 else []
    while stack:
        v = stack.pop()
        verdict = proved_prime(v)
        if verdict is True:
            primes.append(v)
            continue
        if verdict is None:
            cofactor *= v
            continue
        d = _brent_rho(v)
        if d is None:
            cofactor *= v
            continue
        stack.append(d)
        stack.append(v // d)
    return Factorization(n=n, primes=tuple(sorted(primes)), cofactor=cofactor)
