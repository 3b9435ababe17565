import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algen.forster
from algen.algebra import eval_tensor, is_generating
from algen.forster import (
    ALL_PRIMES,
    HypothesisFailure,
    LiftCertificate,
    LiftStep,
    PartitionCell,
    PrimeStep,
    _check_partition,
    cofinite_set,
    finite_set,
    forster_lift,
    local_requirement,
    replay_lift,
)
from algen.integral import (
    fiber_mod_p,
    generic_fiber,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    monomial_subgroup,
    normalize_presentation,
)
from algen.intmat import HermiteReducer
from algen.search import BudgetExhausted, SearchBudget, completable
from support import is_prime, lattice_contains, random_integral_algebra

SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]

# the ring Z[t]/(t^2 - 1) on basis (1, t), written as raw tensor triples
RING_T = [
    ((0, 0), 0, 1),
    ((0, 1), 1, 1),
    ((1, 0), 1, 1),
    ((1, 1), 0, 1),
]


def member(region, p) -> bool:
    """p lies in the region: listed when it is finite, not excluded when it is
    cofinite."""
    return (p in region.primes) != region.cofinite


def least_members(region, k):
    """The k least members of a region (fewer if a finite one runs out):
    a cofinite region by scanning the primes in order."""
    if not region.cofinite:
        return sorted(region.primes)[:k]
    scan = (p for p in itertools.count(2) if is_prime(p) and member(region, p))
    return list(itertools.islice(scan, k))


# ---------------------------------------------------------------------------
# Constructible prime sets
# ---------------------------------------------------------------------------


def test_constructible_set_basics():
    assert finite_set(()).is_empty
    assert finite_set(()).dimension == float("-inf")
    assert finite_set((5,)).dimension == 0
    assert cofinite_set((2,)).dimension == 1
    assert not cofinite_set(()).is_empty
    assert member(ALL_PRIMES, 2)
    assert member(finite_set((2, 5)), 5) and not member(finite_set((2, 5)), 3)
    assert not member(cofinite_set((5,)), 5) and member(cofinite_set((5,)), 7)
    assert cofinite_set((2, 3, 7)).smallest() == 5
    assert least_members(cofinite_set((2, 3, 7)), 3) == [5, 11, 13]
    assert cofinite_set((2, 3, 5, 7)).smallest() == 11
    assert finite_set((7, 3)).smallest() == 3
    assert least_members(finite_set((7, 3)), 5) == [3, 7]
    with pytest.raises(ValueError):
        finite_set((4,))
    with pytest.raises(ValueError):
        cofinite_set((1,))
    with pytest.raises(ValueError):
        finite_set(()).smallest()


def test_region_members_are_proved_by_miller_rabin():
    # trial division up to sqrt(p) takes about a minute near 10^18
    start = time.perf_counter()
    assert member(finite_set((1_000_000_000_000_000_003,)), 1_000_000_000_000_000_003)
    with pytest.raises(ValueError):
        finite_set((1_000_000_007 * 1_000_000_009,))
    with pytest.raises(ValueError):
        # beyond the range where the Miller-Rabin bases are a proof
        cofinite_set((10**25 + 13,))
    assert time.perf_counter() - start < 2.0


def test_constructible_set_algebra_matches_membership():
    samples = [
        finite_set(()),
        finite_set((2, 7)),
        finite_set((3, 5, 7)),
        cofinite_set(()),
        cofinite_set((2, 3)),
        cofinite_set((5, 11)),
    ]
    for a, b in itertools.product(samples, repeat=2):
        u = a.union(b)
        i = a.intersection(b)
        d = a.difference(b)
        for p in SMALL_PRIMES:
            in_a, in_b = member(a, p), member(b, p)
            assert member(u, p) == (in_a or in_b)
            assert member(i, p) == (in_a and in_b)
            assert member(d, p) == (in_a and not in_b)
        # a result is cofinite exactly when it keeps members beyond any bound
        assert u.cofinite == (a.cofinite or b.cofinite)
        assert i.cofinite == (a.cofinite and b.cofinite)
        assert d.cofinite == (a.cofinite and not b.cofinite)


def test_partition_cell_validation():
    # the level is the witness length, so no cell can disagree with it
    assert PartitionCell(ALL_PRIMES, (0, 1)).level == 2
    assert PartitionCell(ALL_PRIMES, ()).level == 0


# ---------------------------------------------------------------------------
# The local requirement
# ---------------------------------------------------------------------------


def test_local_requirement_matrix_algebra():
    M = integral_matrix_algebra(2)
    rep = local_requirement(M, 2)
    assert rep.status == "verified"
    assert rep.prime is None
    assert rep.support is not None and not rep.support.generic_fail
    assert all(res.status == "found" for _, res in rep.completions)
    gf = generic_fiber(M)
    ok, _ = is_generating(gf.algebra, [gf.project(v) for v in rep.witness], unital=True)
    assert ok


def test_local_requirement_split_etale():
    rep = local_requirement(integral_split_etale(3), 2)
    assert rep.status == "verified"


def test_local_requirement_does_not_reclose_its_witness(monkeypatch):
    # the witness's generic_fail check decides rational generation; the
    # searches run their closures through algen.search, not this binding
    def refuse(*args, **kwargs):
        raise AssertionError("local_requirement ran a closure of its own")

    monkeypatch.setattr(algen.forster, "is_generating", refuse)
    for A, n in (
        (integral_matrix_algebra(2), 2),
        (integral_split_etale(3), 2),
        (integral_zero_module((6, 0)), 2),
        (integral_zero_module((2,)), 1),
    ):
        assert local_requirement(A, n).status == "verified"


def test_local_requirement_counterexample():
    rep = local_requirement(integral_zero_module((2, 2)), 1)
    assert rep.status == "counterexample"
    assert rep.prime == 2
    assert rep.completions[-1][0] == 2
    assert rep.completions[-1][1].status == "certified_none"


def test_local_requirement_zero_generators():
    # a torsion module admits no empty generating tuple at its torsion primes
    rep = local_requirement(integral_zero_module((6,)), 0)
    assert rep.status == "counterexample" and rep.prime == 2
    assert rep.support.primes == (2, 3)
    # while the trivial module does
    assert local_requirement(integral_zero_module(()), 0).status == "verified"


def test_local_requirement_budget():
    M = integral_matrix_algebra(2)
    tight = SearchBudget(max_exhaustive=1, random_trials=2, seed=1)
    assert local_requirement(M, 2, budget=tight).status == "inconclusive"
    with pytest.raises(ValueError):
        local_requirement(M, -1)


# ---------------------------------------------------------------------------
# Lifting: pinned instances
# ---------------------------------------------------------------------------


def test_lift_matrix_algebra():
    M = integral_matrix_algebra(2)
    cert = forster_lift(M, 2)
    assert cert.generators == ((0, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 0))
    assert cert.n == 2 and len(cert.steps) == 3
    assert cert.verification.generates
    assert replay_lift(M, cert) == (True, "ok")


def test_mat6_lift_counts(monkeypatch):
    # exact counts, no timing, for the Mat_6(Z) n = 2 lift: Z evaluations
    # in the monomial subgroups of the lift and of its replay, and the
    # longest coefficient, in bits, that any Hermite form reached
    evaluations = [0]
    bits = [0]
    real_settle = HermiteReducer._settle

    def counting(*args):
        evaluations[0] += 1
        return eval_tensor(*args)

    def settle(reducer, c):
        real_settle(reducer, c)
        longest = max(abs(x).bit_length() for row in reducer._rows if row for x in row)
        bits[0] = max(bits[0], longest)

    monkeypatch.setattr(algen.integral, "eval_tensor", counting)
    monkeypatch.setattr(HermiteReducer, "_settle", settle)
    M = integral_matrix_algebra(6)
    cert = forster_lift(M, 2)
    lift = evaluations[0]
    evaluations[0] = 0
    assert replay_lift(M, cert) == (True, "ok")
    assert (lift, evaluations[0], bits[0]) == (321, 244, 2256)


@pytest.mark.parametrize(
    "A, n",
    [(integral_matrix_algebra(3), 2), (integral_split_etale(5), 3)],
    ids=["mat3-z", "etale5-z"],
)
def test_lift_searches_each_prime_and_prefix_once(A, n, monkeypatch):
    # step 0 completes the empty prefix at 2, which the local requirement
    # already searched; the lift reuses that result instead of searching again
    searched = []

    def counting(alg, partial, *args, **kwargs):
        searched.append((alg.field.p, tuple(tuple(v) for v in partial)))
        return completable(alg, partial, *args, **kwargs)

    monkeypatch.setattr(algen.forster, "completable", counting)
    cert = forster_lift(A, n)
    assert len(searched) == len(set(searched)) == 3
    assert (2, ()) in searched
    assert replay_lift(A, cert) == (True, "ok")


def test_lift_cyclic_six():
    A = integral_zero_module((6,))
    cert = forster_lift(A, 1)
    assert cert.generators == ((1,), (0,))
    assert len(cert.steps) == 2
    assert replay_lift(A, cert) == (True, "ok")


def test_lift_mixed_torsion_free():
    A = integral_zero_module((6, 0))
    cert = forster_lift(A, 2)
    assert cert.generators == ((0, 1), (1, 0), (0, 0))
    assert replay_lift(A, cert) == (True, "ok")


def test_lift_split_etale():
    A = integral_split_etale(3)
    cert = forster_lift(A, 2)
    assert cert.generators == ((0, 0, 1), (0, 1, 0), (0, 0, 0))
    assert replay_lift(A, cert) == (True, "ok")


def test_lift_with_partition_split():
    # the first local completion at 2 starts with the zero vector, so the
    # glued element is globally bad at 3 and a finite cell must be repaired
    A = integral_zero_module((3, 0))
    cert = forster_lift(A, 2)
    assert cert.generators == ((0, 0), (0, 1), (1, 0))
    s0, s1, s2 = cert.steps
    assert [ps.prime for ps in s0.completions] == [2]
    assert s0.completions[0].excluded == (3,)
    assert s0.partition == (
        PartitionCell(cofinite_set((3,)), (0,)),
        PartitionCell(finite_set((3,)), ()),
    )
    # the stranded prime joins the next round, glued with 2 by remainders
    assert [ps.prime for ps in s1.completions] == [2, 3]
    assert s1.element == (0, 1)
    assert s1.partition == (
        PartitionCell(cofinite_set((3,)), (0, 1)),
        PartitionCell(finite_set((3,)), (1,)),
    )
    assert [ps.prime for ps in s2.completions] == [3]
    assert s2.partition == (
        PartitionCell(cofinite_set((3,)), (0, 1)),
        PartitionCell(finite_set((3,)), (1, 2)),
    )
    assert replay_lift(A, cert) == (True, "ok")


def test_lift_unital_torsion_ring():
    # Z[t]/(t^2 - 1, 2 + 2t) normalizes to invariant factors (2, 0)
    ops = [(2, RING_T), (0, [((), 0, 1)])]
    pres = normalize_presentation(2, [[2, 2]], ops, product_index=0, unit_index=1)
    R = pres.algebra
    assert R.factors == (2, 0)
    cert = forster_lift(R, 1)
    assert cert.generators == ((0, 1), (0, 0))
    assert replay_lift(R, cert) == (True, "ok")


def test_lift_trivial_module():
    A = integral_zero_module(())
    cert = forster_lift(A, 0)
    assert cert.generators == ((),)
    assert replay_lift(A, cert) == (True, "ok")


def test_lift_deterministic():
    A = integral_split_etale(3)
    assert forster_lift(A, 2) == forster_lift(A, 2)


# ---------------------------------------------------------------------------
# Lifting: recorded invariants
# ---------------------------------------------------------------------------


def _lift_instances():
    return [
        (integral_matrix_algebra(2), 2),
        (integral_zero_module((6,)), 1),
        (integral_zero_module((6, 0)), 2),
        (integral_split_etale(3), 2),
        (integral_zero_module((3, 0)), 2),
    ]


def test_partition_invariants_every_step():
    for A, n in _lift_instances():
        cert = forster_lift(A, n)
        assert len(cert.steps) == n + 1
        for count, step in enumerate(cert.steps, start=1):
            cells = step.partition
            assert all(not c.region.is_empty for c in cells)
            union = finite_set(())
            for i, c in enumerate(cells):
                for other in cells[i + 1 :]:
                    assert c.region.intersection(other.region).is_empty
                union = union.union(c.region)
            assert union == ALL_PRIMES
            for c in cells:
                assert 0 <= c.level <= n
                assert c.witness == tuple(sorted(set(c.witness)))
                assert all(0 <= t < count for t in c.witness)
                if c.level < n:
                    # regions still in progress must stay on schedule
                    assert c.region.dimension <= 1 + c.level - count
        assert all(c.level == n for c in cert.steps[-1].partition)


def test_partition_check_leaves_no_cell_below_level_n_after_step_n_plus_one():
    # the lift and the replay end with every cell at level n because step
    # n + 1 of this check allows no other partition
    top = PartitionCell(cofinite_set((3,)), (0, 1))
    late = PartitionCell(finite_set((3,)), (1,))
    assert _check_partition((top, late), 2, 2) is None
    assert "dimension bound" in _check_partition((top, late), 3, 2)
    assert _check_partition((top, PartitionCell(finite_set((3,)), (1, 2))), 3, 2) is None


def test_recorded_witnesses_are_completable():
    for A, n in _lift_instances():
        cert = forster_lift(A, n)
        for step in cert.steps:
            for cell in step.partition:
                for p in least_members(cell.region, 3):
                    fib = fiber_mod_p(A, p)
                    partial = [fib.project(cert.generators[t]) for t in cell.witness]
                    res = completable(fib.algebra, partial, n, unital=True)
                    assert res.status == "found"


ZERO_MODULE_SHAPES = [
    (2,),
    (4,),
    (6,),
    (2, 2),
    (2, 6),
    (3, 3),
    (2, 4),
    (2, 2, 2),
    (0,),
    (0, 0),
    (2, 0),
    (3, 0),
    (6, 0),
    (2, 2, 0),
    (2, 0, 0),
]


def test_zero_module_lifts_at_exact_requirement():
    for factors in ZERO_MODULE_SHAPES:
        A = integral_zero_module(factors)
        need = max(
            sum(1 for d in factors if d == 0 or d % p == 0) for p in SMALL_PRIMES
        )
        cert = forster_lift(A, need)
        assert len(cert.generators) == need + 1
        assert cert.verification.generates
        assert replay_lift(A, cert) == (True, "ok")
        if need:
            rep = local_requirement(A, need - 1)
            zeros = sum(1 for d in factors if d == 0)
            if zeros < need:
                # some finite fiber is too big and the search certifies it
                assert rep.status == "counterexample"
                p = rep.prime
                assert sum(1 for d in factors if d == 0 or d % p == 0) > need - 1
            else:
                # the rational fiber itself is too big; a random probe can
                # only fail to find a witness, never certify absence
                assert rep.status == "inconclusive"


# ---------------------------------------------------------------------------
# The theorem on random Z-algebras
# ---------------------------------------------------------------------------

# brute force over the n-tuples of a hypothesis failure's fibre up to this many
BRUTE_FORCE_TUPLES = 4096


@settings(max_examples=400, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 3))
def test_lift_theorem_on_random_z_algebras(seed, n):
    # the paper's theorem over Z: n-generated fibres give n + 1 global
    # generators; the lift and its replay share one step, so global
    # generation is confirmed apart from both, by sympy's HNF of the
    # monomial lattice and by fibre closures at small primes
    A = random_integral_algebra(random.Random(seed))
    try:
        cert = forster_lift(A, n)
    except HypothesisFailure as failure:
        p = failure.report.prime
        fib = fiber_mod_p(A, p).algebra
        if p ** (fib.dim * n) <= BRUTE_FORCE_TUPLES:
            vectors = list(itertools.product(range(p), repeat=fib.dim))
            assert not any(
                is_generating(fib, t, unital=True)[0]
                for t in itertools.product(vectors, repeat=n)
            )
        return
    except BudgetExhausted:
        return
    assert len(cert.generators) == n + 1
    assert replay_lift(A, cert) == (True, "ok")
    lattice = monomial_subgroup(A, cert.generators)
    for i in range(A.rank):
        assert lattice_contains(lattice, tuple(int(i == j) for j in range(A.rank)))
    for p in (2, 3, 5, 7):
        fib = fiber_mod_p(A, p)
        assert is_generating(fib.algebra, [fib.project(v) for v in cert.generators], unital=True)[0]


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------


def test_lift_hypothesis_failure():
    with pytest.raises(HypothesisFailure) as exc:
        forster_lift(integral_zero_module((2, 2)), 1)
    assert exc.value.report.status == "counterexample"
    assert exc.value.report.prime == 2


def test_lift_budget_exhausted():
    M = integral_matrix_algebra(2)
    tight = SearchBudget(max_exhaustive=1, random_trials=2, seed=1)
    with pytest.raises(BudgetExhausted):
        forster_lift(M, 2, budget=tight)


# ---------------------------------------------------------------------------
# Replay and tampering
# ---------------------------------------------------------------------------


def _replace_step(cert, idx, **kw):
    steps = list(cert.steps)
    steps[idx] = dataclasses.replace(steps[idx], **kw)
    return dataclasses.replace(cert, steps=tuple(steps))


def _replace_completion(cert, step_idx, comp_idx, **kw):
    comps = list(cert.steps[step_idx].completions)
    comps[comp_idx] = dataclasses.replace(comps[comp_idx], **kw)
    return _replace_step(cert, step_idx, completions=tuple(comps))


def test_replay_rejects_tampering():
    A = integral_zero_module((3, 0))
    cert = forster_lift(A, 2)
    assert replay_lift(A, cert) == (True, "ok")

    def refused(tampered):
        ok, detail = replay_lift(A, tampered)
        assert ok is False
        return detail

    assert "factors" in refused(dataclasses.replace(cert, factors=(9, 0)))
    assert "count" in refused(dataclasses.replace(cert, n=1))

    assert "element" in refused(_replace_step(cert, 0, element=(1, 0)))
    assert "primes" in refused(_replace_completion(cert, 0, 0, prime=5))
    assert "witness" in refused(_replace_completion(cert, 1, 1, witness=(0,)))
    # a different completion that still generates: the glue no longer matches
    assert "element" in refused(
        _replace_completion(cert, 0, 0, extension=((1,), (1,)))
    )
    assert "generate" in refused(_replace_completion(cert, 1, 0, extension=((0,),)))

    done = cert.steps[0].completions[0].completed
    assert "completed" in refused(
        _replace_completion(cert, 0, 0, completed=(done[0], (1, 1)))
    )
    assert "excluded" in refused(_replace_completion(cert, 0, 0, excluded=(5,)))

    cells = list(cert.steps[0].partition)
    cells[0] = PartitionCell(cofinite_set((5,)), cells[0].witness)
    assert "partition" in refused(_replace_step(cert, 0, partition=tuple(cells)))

    # the generation flags derive from the lattice, so tamper with the support
    support = cert.verification.support
    tampered_report = dataclasses.replace(
        cert.verification,
        support=dataclasses.replace(support, primes=support.primes + (5,)),
    )
    assert "verification" in refused(
        dataclasses.replace(cert, verification=tampered_report)
    )
    assert "step" in refused(dataclasses.replace(cert, steps=cert.steps[:-1]))


def _tampered_fields(cert):
    """(label, tampered certificate, step it names or None, substrings of
    the refusal): each stored field of the certificate, of each step and of
    each completion replaced by another value of its type, and each step
    with a completion appended and one dropped."""
    support = cert.verification.support
    yield "factors", dataclasses.replace(cert, factors=(9, 0)), None, ("factors",)
    yield "n", dataclasses.replace(cert, n=cert.n - 1), None, ("step count",)
    yield "steps", dataclasses.replace(cert, steps=cert.steps[:-1]), None, ("step count",)
    yield "verification", dataclasses.replace(
        cert,
        verification=dataclasses.replace(
            cert.verification, support=dataclasses.replace(support, primes=support.primes + (5,))
        ),
    ), None, ("verification",)
    for i, step in enumerate(cert.steps):
        where = f"step {i}"
        element = tuple(x + 1 for x in step.element)
        yield f"{where} element", _replace_step(cert, i, element=element), i, ("element",)
        cells = list(step.partition)
        cells[0] = PartitionCell(cofinite_set((5,)), cells[0].witness)
        yield f"{where} partition", _replace_step(cert, i, partition=tuple(cells)), i, ("partition",)
        longer = step.completions + step.completions[-1:]
        yield f"{where} appended", _replace_step(cert, i, completions=longer), i, ("completions",)
        shorter = step.completions[:-1]
        yield f"{where} dropped", _replace_step(cert, i, completions=shorter), i, ("primes",)
        for j, ps in enumerate(step.completions):
            at = f"{where} completion at {ps.prime}"
            yield f"{at} prime", _replace_completion(cert, i, j, prime=5), i, ("primes",)
            witness = ps.witness[:-1] if ps.witness else (0,)
            yield f"{at} witness", _replace_completion(cert, i, j, witness=witness), i, (
                f"at {ps.prime}", "witness",
            )
            first = ps.extension[0]
            extension = ((first[0] + 1) % ps.prime, *first[1:]), *ps.extension[1:]
            # refused as a glued element that differs, or as a fibre not generated
            yield f"{at} extension", _replace_completion(cert, i, j, extension=extension), i, ()
            last = ps.completed[-1]
            completed = *ps.completed[:-1], (last[0] + 1, *last[1:])
            yield f"{at} completed", _replace_completion(cert, i, j, completed=completed), i, (
                f"at {ps.prime}", "completed",
            )
            excluded = ps.excluded + (7,)
            yield f"{at} excluded", _replace_completion(cert, i, j, excluded=excluded), i, (
                f"at {ps.prime}", "excluded",
            )


def test_replay_refuses_every_tampered_field():
    # every step of this lift keeps a finite cell, and step 1 completes at
    # two primes, so each kind of record and field is present
    A = integral_zero_module((3, 0))
    cert = forster_lift(A, 2)
    assert [len(step.completions) for step in cert.steps] == [1, 2, 1]
    cases = list(_tampered_fields(cert))
    assert len({label for label, *_ in cases}) == len(cases) == 4 + 3 * 4 + 4 * 5
    # a stored field added to a record needs a case here; appending and
    # dropping stand for a step's completions
    named = {label.split()[-1] for label, *_ in cases} | {"completions"}
    for record in (LiftCertificate, LiftStep, PrimeStep):
        assert {f.name for f in dataclasses.fields(record)} <= named, record
    for label, tampered, step, words in cases:
        assert tampered != cert, label
        ok, detail = replay_lift(A, tampered)
        assert ok is False, label
        if step is not None:
            assert detail.startswith(f"step {step}: "), (label, detail)
        assert all(word in detail for word in words), (label, detail)


def test_replay_wrong_module():
    A = integral_zero_module((3, 0))
    cert = forster_lift(A, 2)
    ok, detail = replay_lift(integral_zero_module((9, 0)), cert)
    assert not ok and "factors" in detail
