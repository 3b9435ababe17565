"""Host speed, measured with fixed work that does not touch algen.

On a shared host the same job can take twice as long for tens of seconds
at a time, with CPU time tracking wall time, so the slowdown is in the
processor, not in scheduling.  A run that falls in such a phase would move
every timing by more than any useful regression bound.  The benchmark
therefore runs ``reference_work`` before every job and scales each job's
wall time by ``REFERENCE_S / (time of the reference work around that
job)``: the result is the job's wall time at the reference host's speed.
The reference work is exact rational elimination and integer arithmetic,
the same kind of interpreter work as algen's, so both slow down together;
on the reference host the ratio of a Mat_4 closure to the reference work
stayed within about 3% while the host speed changed by a factor of 1.8.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds the reference work takes on the reference host (a 2-CPU shared
# container, Python 3.11) in its fast phase.
REFERENCE_S = 0.0016


def reference_work():
    """Exact elimination over Q (Fractions) and over F_3 (small ints), the
    two kinds of arithmetic algen's workloads spend their time in."""
    n = 7
    rows = [[Fraction(1, i + j + 1) + (i * j) % 3 for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    p, n, v = 3, 20, 1
    mod = []
    for _ in range(n):
        row = []
        for _ in range(n):
            v = (v * 1103515245 + 12345) % 2**31
            row.append((v >> 16) % p)
        mod.append(row)
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if mod[r][c]), None)
        if pivot is None:
            continue
        mod[rank], mod[pivot] = mod[pivot], mod[rank]
        inv = pow(mod[rank][c], p - 2, p)
        mod[rank] = [(x * inv) % p for x in mod[rank]]
        for r in range(n):
            if r != rank and mod[r][c]:
                f = mod[r][c]
                mod[r] = [(x - f * y) % p for x, y in zip(mod[r], mod[rank])]
        rank += 1
    return rows, rank


def sample() -> float:
    """Seconds one run of the reference work takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale_factors(samples: list) -> list:
    """Scale for the job between samples[i] and samples[i + 1].

    Uses the two samples before and the two after the job, so that a change
    of host speed is seen from both sides.
    """
    factors = []
    for i in range(len(samples) - 1):
        around = samples[max(0, i - 1) : i + 3]
        factors.append(REFERENCE_S / statistics.median(around))
    return factors
