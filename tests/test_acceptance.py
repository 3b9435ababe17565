"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion checks exact results (no tolerances): generation
certificates are replayed, minimality claims are exhausted or bounded by
the counting invariant, and integral claims are cross-checked against
independent fiber and span oracles.  Run with `pytest -v` for the verdict
per criterion, or `pytest -s` to see the printed lines.
"""

import contextlib
import itertools
import math
import random
from fractions import Fraction

from algen.algebra import is_generating, replay_certificate
from algen.fields import GF, QQ
from algen.forster import forster_lift, local_requirement, replay_lift
from algen.integral import (
    IntegralAlgebra,
    bad_primes,
    fiber_mod_p,
    generic_fiber,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    make_z_tensor,
    reduce_element,
    verify_global_generation,
)
from algen.ioformat import (
    bad_primes_doc,
    generation_certificate_doc,
    global_generation_doc,
    lift_certificate_doc,
    mingen_report_doc,
    parse_algebra,
    serialize_algebra,
    verify_certificate,
)
from algen.search import DEFAULT_BUDGET, min_generators
from algen.zoo import (
    albert,
    albert_generators,
    canonical_matrix_generators,
    distinct_entries_generator,
    etale_logq_generators,
    matrix_algebra,
    octonion_generators,
    split_etale,
    split_octonion,
)

from support import product

PRIMES_TO_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}")


def test_criterion_01_matrix_pair_generates():
    with criterion(1, "canonical pair generates Mat_n over F2, F3, Q for n = 2, 3, 4"):
        for n in (2, 3, 4):
            for field in (GF(2), GF(3), QQ):
                alg = matrix_algebra(field, n)
                ok, cert = is_generating(alg, canonical_matrix_generators(field, n))
                assert ok and cert.closure_dim == n * n
                assert replay_certificate(alg, cert)


def test_criterion_02_matrix_minimum_is_two():
    with criterion(2, "no single matrix generates Mat_2(F2) or Mat_2(F3); minimum 2"):
        for p in (2, 3):
            alg = matrix_algebra(GF(p), 2)
            singles = list(itertools.product(range(p), repeat=4))
            assert len(singles) == p**4
            assert not any(is_generating(alg, [v])[0] for v in singles)
            report = min_generators(alg, DEFAULT_BUDGET)
            assert report.n_upper == 2 and report.lower_bound_certified


def _least_power_at_least(q, target):
    k = 0
    while q**k < target:
        k += 1
    return k


def test_criterion_03_split_etale_logarithmic_counts():
    label = "split etale F_q^n minimal counts are ceil(log_q(n+1)) and ceil(log_q n)"
    empirical = {(2, 2), (2, 3), (3, 3)}
    with criterion(3, label):
        for q, n in ((2, 2), (2, 3), (2, 7), (3, 3), (3, 8)):
            alg = split_etale(GF(q), n)
            m = _least_power_at_least(q, n + 1)
            mu = _least_power_at_least(q, n)
            gens = etale_logq_generators(q, n)
            assert len(gens) == m and is_generating(alg, gens)[0]
            ugens = etale_logq_generators(q, n, unital=True)
            assert len(ugens) == mu and is_generating(alg, ugens, unital=True)[0]
            vectors = list(itertools.product(range(q), repeat=n))
            for k in range(1, m):
                if len(vectors) ** k <= 10**6:
                    dims = [
                        is_generating(alg, tup)[1].closure_dim
                        for tup in itertools.product(vectors, repeat=k)
                    ]
                    assert max(dims) < n
                    if (q, n) in empirical:
                        assert max(dims) <= q**k - 1
                else:
                    assert q**k - 1 < n
            for k in range(1, mu):
                if len(vectors) ** k <= 10**6:
                    assert all(
                        not is_generating(alg, tup, unital=True)[0]
                        for tup in itertools.product(vectors, repeat=k)
                    )
                else:
                    assert q**k < n


def test_criterion_04_split_octonions():
    with criterion(4, "split octonions: dim 8, alternative, non-associative, 3 generators"):
        for field in (GF(2), GF(5), QQ):
            O = split_octonion(field)
            assert O.dim == 8
            basis = [
                tuple(field.one if j == i else field.zero for j in range(8))
                for i in range(8)
            ]
            for x in basis:
                xx = product(O, x, x)
                for y in basis:
                    assert product(O, xx, y) == product(O, x, product(O, x, y))
                    assert product(O, y, xx) == product(O, product(O, y, x), x)
            assert any(
                product(O, product(O, x, y), z) != product(O, x, product(O, y, z))
                for x in basis
                for y in basis
                for z in basis
            )
            ok, cert = is_generating(O, octonion_generators(field))
            assert ok and cert.closure_dim == 8


def test_criterion_05_albert_is_jordan_and_three_generated():
    with criterion(5, "27-dim Albert algebra: commutative, Jordan identity, 3 generators"):
        for field, sample in ((QQ, lambda r: Fraction(r.randint(-3, 3))),
                              (GF(5), lambda r: r.randrange(5))):
            A = albert(field)
            assert A.dim == 27
            basis = [
                tuple(field.one if j == i else field.zero for j in range(27))
                for i in range(27)
            ]
            for x, y in itertools.combinations(basis, 2):
                assert product(A, x, y) == product(A, y, x)
            rng = random.Random(5)
            for _ in range(100):
                x = tuple(sample(rng) for _ in range(27))
                y = tuple(sample(rng) for _ in range(27))
                xx = product(A, x, x)
                xy = product(A, x, y)
                assert product(A, xy, xx) == product(A, x, product(A, y, xx))
            ok, cert = is_generating(A, albert_generators(A))
            assert ok and cert.closure_dim == 27


def test_criterion_06_distinct_entries_generate_split_rationals():
    with criterion(6, "(1, 2, ..., n) generates the split etale Q^n for n <= 6"):
        for n in range(1, 7):
            vec = distinct_entries_generator(QQ, n)
            assert vec == tuple(Fraction(i) for i in range(1, n + 1))
            ok, cert = is_generating(split_etale(QQ, n), [vec])
            assert ok and cert.closure_dim == n


def _random_integral_algebra(rng):
    """A valid random module algebra: rank <= 4, mixed torsion and free part."""
    torsion = []
    d = rng.choice([2, 3, 4, 5])
    for _ in range(rng.randint(0, 2)):
        torsion.append(d)
        d *= rng.choice([1, 2, 3])
    free = rng.randint(0 if torsion else 1, 4 - len(torsion))
    factors = tuple(torsion) + (0,) * free
    m = len(factors)

    def coefficient(ins, out):
        d_out = factors[out]
        if d_out == 0:
            if any(factors[i] for i in ins):
                return 0
            return rng.randint(-2, 2)
        scale = 1
        for i in ins:
            d_in = factors[i]
            if d_in:
                scale = math.lcm(scale, d_out // math.gcd(d_out, d_in))
        return scale * rng.randint(-2, 2)

    triples = []
    for i, j, out in itertools.product(range(m), repeat=3):
        if rng.random() < 0.3:
            triples.append(((i, j), out, coefficient((i, j), out)))
    ops = [make_z_tensor(factors, 2, triples)]
    if rng.random() < 0.5:
        const = [((), out, coefficient((), out)) for out in range(m)]
        ops.append(make_z_tensor(factors, 0, const))
    return IntegralAlgebra(factors=factors, ops=tuple(ops), product_index=0)


def test_criterion_07_bad_primes_match_direct_fiber_closures():
    with criterion(7, "bad_primes agrees with direct fiber closure at every p <= 50"):
        rng = random.Random(7)
        for _ in range(50):
            A = _random_integral_algebra(rng)
            tup = [
                reduce_element(A.factors, [rng.randint(-6, 6) for _ in A.factors])
                for _ in range(rng.randint(1, 3))
            ]
            report = bad_primes(A, tup)
            for p in PRIMES_TO_50:
                fib = fiber_mod_p(A, p)
                ok, _ = is_generating(
                    fib.algebra, [fib.project(v) for v in tup], unital=True
                )
                expected_bad = report.generic_fail or p in report.primes
                assert ok == (not expected_bad)


LIFT_INSTANCES = (
    (integral_zero_module((6, 0)), 2, None),
    (integral_zero_module((6,)), 1, 2),
    (integral_matrix_algebra(2), 2, 3),
    (integral_split_etale(3), 2, None),
)


def test_criterion_08_lift_instances_certify_and_replay():
    with criterion(8, "integral lift: n + 1 generators, verified, on-schedule, replayable"):
        for A, n, exact_count in LIFT_INSTANCES:
            cert = forster_lift(A, n)
            assert len(cert.generators) <= n + 1
            if exact_count is not None:
                assert len(cert.generators) == exact_count
            assert cert.verification.generates
            # every in-progress region stays within the shrinking dimension
            # budget: after s steps a level-i cell may have dimension at most
            # 1 + i - s until it reaches level n
            for s, step in enumerate(cert.steps, start=1):
                for cell in step.partition:
                    if cell.level < n:
                        assert cell.region.dimension <= 1 + cell.level - s
            assert all(cell.level == n for cell in cert.steps[-1].partition)
            ok, detail = replay_lift(A, cert)
            assert ok, detail


def _span_dim_mod_p(rows, p):
    """Row rank over F_p by plain elimination, independent of the library."""
    work = [[x % p for x in row] for row in rows]
    rank, cols = 0, len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [(a - c * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def test_criterion_09_zero_product_modules_need_n_plus_one():
    label = "zero-product modules: lift size n + 1, verification = classical spanning"
    with criterion(9, label):
        for factors in ((2,), (6, 0), (2, 2), (3, 0, 0), (4, 4)):
            A = integral_zero_module(factors)
            support = sorted({q for d in factors if d for q in range(2, d + 1) if d % q == 0 and _is_prime(q)})
            n = max(
                [sum(1 for d in factors if d == 0)]
                + [sum(1 for d in factors if d == 0 or d % p == 0) for p in support]
            )
            assert local_requirement(A, n).status == "verified"
            cert = forster_lift(A, n)
            assert len(cert.generators) == n + 1
            assert cert.verification.generates
            rng = random.Random(9)
            for _ in range(10):
                tup = [
                    reduce_element(factors, [rng.randint(-4, 4) for _ in factors])
                    for _ in range(rng.randint(1, n + 1))
                ]
                report = verify_global_generation(A, tup)
                gfib = generic_fiber(A)
                free = [gfib.project(v) for v in tup]
                generic_expected = is_generating(gfib.algebra, free, unital=True)[0]
                # the lattice says: generated over Q iff no generic failure,
                # and the fibre fails at exactly the support's primes
                assert (not report.support.generic_fail) == generic_expected
                for p in report.support.primes:
                    fib = fiber_mod_p(A, p)
                    spanned = _span_dim_mod_p(
                        [fib.project(v) for v in tup] or [[0] * fib.algebra.dim],
                        p,
                    ) == fib.algebra.dim
                    assert not spanned
                assert report.generates == (
                    not report.support.generic_fail and not report.support.primes
                )


def _is_prime(q):
    return q >= 2 and all(q % r for r in range(2, int(q**0.5) + 1))


def _integer_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _integer_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _integer_leaves(value, path + (i,))
    elif isinstance(node, bool):
        yield path, node
    elif isinstance(node, str):
        try:
            int(node)
        except ValueError:
            return
        yield path, node


def _with_tamper(doc, path, value):
    import copy

    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _emitted_certificates():
    """One emitted document of every kind.

    The mingen budget is a claim parameter, not a claimed result: the
    verifier reruns the search under the budget the document states, so
    changing it produces a different claim that is checked on its own terms
    rather than a forgery of this one.  No Z document has such a parameter.
    """
    docs = []

    e2 = split_etale(GF(2), 2)
    _, cert = is_generating(e2, [(0, 1)], unital=True)
    docs.append((e2, generation_certificate_doc(e2, cert), ()))

    e3 = split_etale(GF(2), 3)
    report = min_generators(e3, DEFAULT_BUDGET)
    docs.append((e3, mingen_report_doc(e3, report, DEFAULT_BUDGET), ("budget",)))

    ez = integral_split_etale(3)
    tup = [(1, 2, 3)]
    docs.append((ez, bad_primes_doc(ez, tup, bad_primes(ez, tup)), ()))
    docs.append((ez, global_generation_doc(ez, tup, verify_global_generation(ez, tup)), ()))

    zz = integral_zero_module((3, 0))
    docs.append((zz, lift_certificate_doc(zz, forster_lift(zz, 2)), ()))
    return docs


def test_criterion_10_any_coordinate_tamper_is_rejected():
    with criterion(10, "every single-coordinate tamper of an emitted certificate fails"):
        total = 0
        for alg, doc, skip_roots in _emitted_certificates():
            parsed = parse_algebra(serialize_algebra(alg))
            ok, detail = verify_certificate(parsed, doc)
            assert ok, detail
            for path, value in _integer_leaves(doc):
                if path[0] in skip_roots or path[-1] == "algebra_sha256":
                    continue
                if isinstance(value, bool):
                    tampered = _with_tamper(doc, path, not value)
                else:
                    tampered = _with_tamper(doc, path, str(int(value) + 1))
                ok, _ = verify_certificate(parsed, tampered)
                assert not ok, f"tamper at {path} was accepted ({doc['kind']})"
                total += 1
        assert total > 100
