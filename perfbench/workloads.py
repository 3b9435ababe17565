"""Seeded inputs, job mixes and known answers for the benchmark workloads.

A workload builder takes a seeded ``random.Random`` and a work directory,
writes the algebra documents there and returns one cycle of jobs.  A job is
a proving command for ``algen.cli.main`` plus the answer it must give.

Every expected answer is fixed by construction, never by running algen's
closure or search:

* an automorphism (conjugation by a unimodular matrix) of a generating pair
  of Mat_n generates, and so does any tuple with the same span as a
  generating tuple, or any superset of one;
* elements of a proper subalgebra (upper-triangular matrices, Hermitian
  Albert matrices over the Mat_2 half of the octonions, the Mat_2 half of
  the octonions) cannot generate, and their closure stays inside it;
* split etale F_q^n needs ceil(log_q(n + 1)) generators, or ceil(log_q n)
  with the unit; Mat_2(F_q) needs 2; the zero algebra F_q^r needs r.  A
  basis permutation is an isomorphism, so it keeps these minima;
* a Forster lift with n generators exists exactly when every fiber is
  n-generated, and the fiber sizes above say which n suffice; the first
  prime where n is too small is 2 for every algebra used here;
* one element x of Z^n with the unit generates Z[x], whose index is the
  Vandermonde determinant, so its bad primes are the primes dividing some
  coordinate difference; rows of a unimodular matrix span Z^n already.

The seed changes the inputs (conjugators, recombinations, permutations,
shifts) but never the answers.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from algen import zoo
from algen.fields import GF, QQ
from algen.integral import integral_matrix_algebra, integral_split_etale, integral_zero_module
from algen.ioformat import canonical_json, serialize_algebra

Check = Callable[[int, object], Optional[str]]


@dataclass
class Job:
    """One proving command and the answer it must give."""

    label: str
    algebra: str
    argv: list
    check: Check
    verify: bool
    answer: tuple


# ---------------------------------------------------------------------------
# Documents and small exact helpers
# ---------------------------------------------------------------------------


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(doc))
    return path


def _permuted(doc: dict, perm: list) -> dict:
    """The same algebra document with basis vector i renamed perm[i]."""
    ops = []
    for op in doc["ops"]:
        arity = int(op["arity"])
        entries = []
        for row in op["entries"]:
            idx = [str(perm[int(i)]) for i in row[: arity + 1]]
            entries.append(idx + [row[arity + 1]])
        ops.append(dict(op, entries=sorted(entries)))
    return dict(doc, ops=ops)


def _tuple_text(rows) -> str:
    return json.dumps([[str(x) for x in row] for row in rows])


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unimodular(n: int, rng: random.Random, steps: int):
    """A random product of elementary matrices I +- E_ij, with its inverse."""
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    P = [row[:] for row in ident]
    P_inv = [row[:] for row in ident]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        E = [row[:] for row in ident]
        E[i][j] = c
        E_inv = [row[:] for row in ident]
        E_inv[i][j] = -c
        P = _matmul(P, E)
        P_inv = _matmul(E_inv, P_inv)
    return P, P_inv


def _conjugate(v, n: int, P, P_inv) -> list:
    """P v P^-1 for v a flattened n x n matrix."""
    M = [[v[i * n + j] for j in range(n)] for i in range(n)]
    R = _matmul(_matmul(P, M), P_inv)
    return [R[i][j] for i in range(n) for j in range(n)]


def _recombine(rows, rng: random.Random, steps: int) -> list:
    """Unimodular row operations and a shuffle: the span does not change."""
    rows = [list(r) for r in rows]
    for _ in range(steps):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def _primes_dividing(values) -> list:
    primes = set()
    for v in values:
        v = abs(v)
        f = 2
        while f * f <= v:
            while v % f == 0:
                primes.add(f)
                v //= f
            f += 1
        if v > 1:
            primes.add(v)
    return sorted(primes)


def _difference_primes(x) -> list:
    return _primes_dividing(x[i] - x[j] for i in range(len(x)) for j in range(i + 1, len(x)))


# ---------------------------------------------------------------------------
# Known-answer checks on the printed document
# ---------------------------------------------------------------------------


def _generates(dim: int) -> Check:
    def check(rc, doc):
        if rc != 0:
            return f"exit {rc}, expected 0 (generates)"
        if doc.get("kind") != "generation" or doc.get("closure_dim") != str(dim):
            return f"closure dimension {doc.get('closure_dim')}, expected {dim}"
        return None

    return check


def _stays_inside(dim: int, bound: int) -> Check:
    def check(rc, doc):
        if rc != 1:
            return f"exit {rc}, expected 1 (does not generate)"
        closure = int(doc.get("closure_dim", -1))
        if doc.get("kind") != "generation" or not 0 <= closure <= bound < dim:
            return f"closure dimension {closure}, expected at most {bound}"
        return None

    return check


def _minimum(expected: int) -> Check:
    def check(rc, doc):
        if rc != 0:
            return f"exit {rc}, expected 0 (certified minimum)"
        if doc.get("n_upper") != str(expected) or doc.get("lower_bound_certified") is not True:
            return f"minimum {doc.get('n_upper')}, expected certified {expected}"
        return None

    return check


def _lifted(n: int) -> Check:
    def check(rc, doc):
        if rc != 0:
            return f"exit {rc}, expected 0 (lift exists)"
        if doc.get("kind") != "lift" or len(doc.get("generators", ())) != n + 1:
            return f"expected a lift certificate with {n + 1} generators"
        return None

    return check


def _hypothesis_fails_at(prime: int) -> Check:
    def check(rc, doc):
        if rc != 1:
            return f"exit {rc}, expected 1 (some fiber needs more than n)"
        report = doc.get("report") or {}
        if doc.get("error") != "hypothesis-failure" or report.get("prime") != str(prime):
            return f"expected a hypothesis failure at {prime}, got {report.get('prime')}"
        return None

    return check


def _bad_primes_are(primes) -> Check:
    want = [str(p) for p in primes]

    def check(rc, doc):
        if rc != 0:
            return f"exit {rc}, expected 0"
        report = doc.get("report") or {}
        if report.get("generic_fail") is not False or report.get("primes") != want:
            return f"bad primes {report.get('primes')}, expected {want}"
        return None

    return check


def _global(generates: bool, primes=()) -> Check:
    want = [str(p) for p in primes]

    def check(rc, doc):
        if rc != (0 if generates else 1):
            return f"exit {rc}, expected {0 if generates else 1}"
        report = doc.get("report") or {}
        if doc.get("kind") != "global-generation" or report.get("generates") is not generates:
            return f"expected generates={generates}"
        if (report.get("support") or {}).get("primes") != want:
            return f"support primes {(report.get('support') or {}).get('primes')}, expected {want}"
        return None

    return check


# ---------------------------------------------------------------------------
# generate-q and refute-q
# ---------------------------------------------------------------------------

OCT_ONE = (1, 0, 0, 1, 0, 0, 0, 0)


def _albert_element(diag=(0, 0, 0), e12=None, e13=None, e23=None) -> list:
    """Albert coordinates: three diagonal scalars, then the octonion
    entries at (1,2), (1,3), (2,3), eight coordinates each."""
    v = list(diag) + [0] * 24
    for slot, entry in enumerate((e12, e13, e23)):
        if entry is not None:
            v[3 + 8 * slot : 11 + 8 * slot] = entry
    return v


def albert_peirce_generators(oct_gens) -> list:
    """E_11, E_22, 1 at (1,2) and (2,3), the octonion generators at (1,3).

    With the unit they generate the Albert algebra: Peirce products
    a[ij] o b[jk] = (ab)[ik] / 2 carry the generators to every off-diagonal
    slot and multiply them there, so each slot receives the whole
    octonion algebra, and E_11, E_22, 1 span the diagonal.
    """
    return [
        _albert_element((1, 0, 0)),
        _albert_element((0, 1, 0)),
        _albert_element(e12=OCT_ONE),
        _albert_element(e23=OCT_ONE),
    ] + [_albert_element(e13=list(g)) for g in oct_gens]


def _small(rng, k, height=2):
    return [rng.randint(-height, height) for _ in range(k)]


def _upper_triangular(rng, n) -> list:
    v = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            v[i * n + j] = rng.randint(-2, 2)
    return v


def _q_algebras(workdir):
    albert = zoo.albert(QQ)
    mats = {n: zoo.matrix_algebra(QQ, n) for n in (4, 6)}
    octo = zoo.split_octonion(QQ)
    paths = {"albert": _write(workdir, "albert-q.json", serialize_algebra(albert))}
    paths["octonion"] = _write(workdir, "octonion-q.json", serialize_algebra(octo))
    for n, alg in mats.items():
        paths[f"mat{n}"] = _write(workdir, f"mat{n}-q.json", serialize_algebra(alg))
    return paths


def _check_job(label, path, rows, unital, check, answer) -> Job:
    argv = ["check", path, "--tuple", _tuple_text(rows)] + (["--unital"] if unital else [])
    return Job(label, path, argv, check, True, answer)


def _interleave(groups) -> list:
    """Round-robin over the groups, so each part of a cycle sees every class."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


def _base_rng(label: str) -> random.Random:
    """Draws that fix a job's instance, and with it the job's cost, for every seed."""
    return random.Random(f"base:{label}")


def _signs(rng: random.Random, n: int) -> list:
    return [rng.choice((-1, 1)) for _ in range(n)]


def _resign_matrix(v, n: int, d) -> list:
    """D v D^-1 for D = diag(d), d_i = +-1: an automorphism of Mat_n that
    changes signs only, so the closure does the same work."""
    return [v[i * n + j] * d[i] * d[j] for i in range(n) for j in range(n)]


def _resign_albert(v, d) -> list:
    """D x D for D = diag(d), d_i = +-1: an automorphism of the Albert
    algebra that keeps H_3 over any subalgebra of the octonions."""
    signs = (d[0] * d[1], d[0] * d[2], d[1] * d[2])
    return v[:3] + [x * signs[(k - 3) // 8] for k, x in enumerate(v) if k >= 3]


# Jobs per cycle.  The octonion jobs take a few milliseconds, Mat_4 tens,
# Mat_6 and Albert hundreds: the median falls inside the Mat_4 jobs and the
# 90th percentile inside the Mat_6 jobs, away from the edges between kinds.
GENERATE_Q_MIX = {"octonion-gen": 6, "mat4-gen": 14, "mat6-gen": 3, "albert-gen": 1}


def generate_q(rng: random.Random, workdir: str) -> list:
    paths = _q_algebras(workdir)
    oct_gens = [list(g) for g in zoo.octonion_generators(QQ)]
    jobs = []
    for _ in range(GENERATE_Q_MIX["octonion-gen"]):
        rows = _recombine(oct_gens + [_small(rng, 8, 3)], rng, 3)
        jobs.append(_check_job("octonion-gen", paths["octonion"], rows, False, _generates(8), ("generates", 8)))
    groups = [jobs]
    for n, label in ((4, "mat4-gen"), (6, "mat6-gen")):
        pair = [list(g) for g in zoo.canonical_matrix_generators(QQ, n)]
        base = _base_rng(label)
        jobs = []
        for _ in range(GENERATE_Q_MIX[label]):
            P, P_inv = _unimodular(n, base, n)
            d = _signs(rng, n)
            rows = [_resign_matrix(_conjugate(g, n, P, P_inv), n, d) for g in pair]
            jobs.append(_check_job(label, paths[f"mat{n}"], rows, False, _generates(n * n), ("generates", n * n)))
        groups.append(jobs)
    jobs = []
    for _ in range(GENERATE_Q_MIX["albert-gen"]):
        d = _signs(rng, 3)
        rows = [_resign_albert(r, d) for r in _recombine(albert_peirce_generators(oct_gens), rng, 6)]
        jobs.append(_check_job("albert-gen", paths["albert"], rows, True, _generates(27), ("generates", 27)))
    groups.append(jobs)
    return _interleave(groups)


REFUTE_Q_MIX = {"octonion-ref": 6, "mat4-ref": 14, "mat6-ref": 3, "albert-ref": 1}


def refute_q(rng: random.Random, workdir: str) -> list:
    paths = _q_algebras(workdir)
    jobs = []
    for _ in range(REFUTE_Q_MIX["octonion-ref"]):
        rows = [_small(rng, 4) + [0] * 4 for _ in range(2)]
        jobs.append(_check_job("octonion-ref", paths["octonion"], rows, True, _stays_inside(8, 4), ("inside", 4)))
    groups = [jobs]
    for n, label in ((4, "mat4-ref"), (6, "mat6-ref")):
        bound = n * (n + 1) // 2
        base = _base_rng(label)
        jobs = []
        for _ in range(REFUTE_Q_MIX[label]):
            P, P_inv = _unimodular(n, base, n)
            pair = [_upper_triangular(base, n) for _ in range(2)]
            d = _signs(rng, n)
            rows = [_resign_matrix(_conjugate(g, n, P, P_inv), n, d) for g in pair]
            jobs.append(
                _check_job(label, paths[f"mat{n}"], rows, False, _stays_inside(n * n, bound), ("inside", bound))
            )
        groups.append(jobs)
    base = _base_rng("albert-ref")
    jobs = []
    for _ in range(REFUTE_Q_MIX["albert-ref"]):
        d = _signs(rng, 3)
        rows = [
            _resign_albert(_albert_element(_small(base, 3), *(_small(base, 4) + [0] * 4 for _ in range(3))), d)
            for _ in range(3)
        ]
        jobs.append(_check_job("albert-ref", paths["albert"], rows, True, _stays_inside(27, 15), ("inside", 15)))
    groups.append(jobs)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# mingen-fp
# ---------------------------------------------------------------------------


def _log_ceil(q: int, n: int) -> int:
    k = 0
    while q**k < n:
        k += 1
    return k


# (label, family, p, size, unital, copies per cycle); every size up to the
# minimum fits the default exhaustive budget of 10^6 tuples.  Nine jobs of a
# few milliseconds, nine of about 35 ms and six of 250-400 ms: the median
# falls inside the middle group and the 90th percentile inside the
# etale-f2^5-unital jobs.  The seed permutes the Mat_2 bases, which moves
# the search order, and only the small jobs use Mat_2.
MINGEN_FP_MIX = (
    ("etale-f2^3", "etale", 2, 3, False, 1),
    ("zero-f2^2", "zero", 2, 2, False, 1),
    ("zero-f2^3", "zero", 2, 3, False, 1),
    ("etale-f3^3", "etale", 3, 3, False, 1),
    ("etale-f3^3-unital", "etale", 3, 3, True, 1),
    ("mat2-f2", "matrix", 2, 2, False, 1),
    ("mat2-f2-unital", "matrix", 2, 2, True, 1),
    ("mat2-f3", "matrix", 3, 2, False, 1),
    ("mat2-f3-unital", "matrix", 3, 2, True, 1),
    ("etale-f2^4", "etale", 2, 4, False, 5),
    ("etale-f3^4", "etale", 3, 4, False, 4),
    ("zero-f2^4", "zero", 2, 4, False, 1),
    ("etale-f2^5-unital", "etale", 2, 5, True, 4),
    ("etale-f2^5", "etale", 2, 5, False, 1),
)


def _known_minimum(family: str, p: int, size: int, unital: bool) -> int:
    if family == "etale":
        return _log_ceil(p, size if unital else size + 1)
    if family == "matrix":
        return 2
    return size


def mingen_fp(rng: random.Random, workdir: str) -> list:
    builders = {"etale": zoo.split_etale, "zero": zoo.zero_algebra, "matrix": zoo.matrix_algebra}
    groups = []
    for label, family, p, size, unital, copies in MINGEN_FP_MIX:
        alg = builders[family](GF(p), size)
        doc = serialize_algebra(alg)
        expected = _known_minimum(family, p, size, unital)
        jobs = []
        for copy in range(copies):
            perm = list(range(alg.dim))
            rng.shuffle(perm)
            path = _write(workdir, f"{label}-{copy}.json", _permuted(doc, perm))
            argv = ["mingen", path] + (["--unital"] if unital else [])
            jobs.append(Job(label, path, argv, _minimum(expected), True, ("minimum", expected)))
        groups.append(jobs)
    # the order is fixed, so the warm-up job (the first) is the same for every seed
    return _interleave(groups)


# ---------------------------------------------------------------------------
# lift-z
# ---------------------------------------------------------------------------


def _zero_module_need(factors) -> int:
    """Largest fiber dimension: coordinates with p | d or d = 0, maximized over p."""
    free = sum(1 for d in factors if d == 0)
    primes = _primes_dividing(d for d in factors if d)
    return max([free] + [free + sum(1 for d in factors if d and d % p == 0) for p in primes])


# (label, kind, parameter, n); kinds: matrix (Mat_k(Z), fibers need 2),
# etale (Z^k, fibers need ceil(log_2 k) at p = 2), zero (torsion module).
# The median falls inside the small bad-primes/check jobs and the 90th
# percentile inside the two lift-etale5 jobs.
LIFT_Z_LIFTS = (
    ("lift-mat2", "matrix", 2, 2),
    ("lift-mat3", "matrix", 3, 2),
    ("lift-mat4", "matrix", 4, 2),
    ("lift-etale5", "etale", 5, 3),
    ("lift-etale5", "etale", 5, 3),
    ("lift-etale8", "etale", 8, 3),
    ("lift-etale5-short", "etale", 5, 2),
    ("lift-zero-6.0", "zero", (6, 0), 2),
    ("lift-zero-2.2", "zero", (2, 2), 2),
    ("lift-zero-2.4.0", "zero", (2, 4, 0), 3),
    ("lift-zero-2.2-short", "zero", (2, 2), 1),
)

# Coordinates of the split etale elements before the seeded shift and
# permutation; shifting and permuting keep the set of differences.
ETALE_BASE = (0, 1, 3, 7, 12)
LIFT_Z_SMALL_JOBS = 4


def lift_z(rng: random.Random, workdir: str) -> list:
    lifts = []
    for label, kind, param, n in LIFT_Z_LIFTS:
        if kind == "matrix":
            alg, need = integral_matrix_algebra(param), 2
        elif kind == "etale":
            alg, need = integral_split_etale(param), _log_ceil(2, param)
        else:
            alg, need = integral_zero_module(param), _zero_module_need(param)
        path = _write(workdir, f"{label}-n{n}.json", serialize_algebra(alg))
        argv = ["forster-lift", path, "--n", str(n)]
        if n >= need:
            lifts.append(Job(label, path, argv, _lifted(n), True, ("lift", n + 1)))
        else:
            lifts.append(Job(label, path, argv, _hypothesis_fails_at(2), False, ("fails-at", 2)))

    etale = _write(workdir, "etale5-z.json", serialize_algebra(integral_split_etale(5)))
    mat3 = _write(workdir, "mat3-z.json", serialize_algebra(integral_matrix_algebra(3)))
    small = []
    for _ in range(LIFT_Z_SMALL_JOBS):
        shift = rng.randint(-6, 6)
        x = [c + shift for c in ETALE_BASE]
        rng.shuffle(x)
        primes = _difference_primes(x)
        tup = _tuple_text([x])
        small.append(
            Job("bad-primes-etale5", etale, ["bad-primes", etale, "--tuple", tup],
                _bad_primes_are(primes), True, ("bad-primes", tuple(primes)))
        )
        small.append(
            Job("check-etale5-single", etale, ["check", etale, "--tuple", tup],
                _global(False, primes), True, ("generates", False, tuple(primes)))
        )
        P, _ = _unimodular(9, rng, 9)
        small.append(
            Job("check-mat3-unimodular", mat3, ["check", mat3, "--tuple", _tuple_text(P)],
                _global(True), True, ("generates", True))
        )
    return _interleave([lifts, small])


WORKLOADS = {
    "generate-q": generate_q,
    "refute-q": refute_q,
    "mingen-fp": mingen_fp,
    "lift-z": lift_z,
}
