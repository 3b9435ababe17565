import dataclasses
import itertools
import time

import pytest

import algen.forster
from algen.algebra import is_generating
from algen.forster import (
    ALL_PRIMES,
    ConstructibleSet,
    HypothesisFailure,
    PartitionCell,
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
    normalize_presentation,
)
from algen.search import BudgetExhausted, SearchBudget, completable
from support import is_prime

SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]

# the ring Z[t]/(t^2 - 1) on basis (1, t), written as raw tensor triples
RING_T = [
    ((0, 0), 0, 1),
    ((0, 1), 1, 1),
    ((1, 0), 1, 1),
    ((1, 1), 0, 1),
]


# ---------------------------------------------------------------------------
# Constructible prime sets
# ---------------------------------------------------------------------------


def test_constructible_set_basics():
    assert finite_set(()).is_empty
    assert finite_set(()).dimension == float("-inf")
    assert finite_set((5,)).dimension == 0
    assert cofinite_set((2,)).dimension == 1
    assert not cofinite_set(()).is_empty
    assert 2 in ALL_PRIMES
    assert 5 in finite_set((2, 5)) and 3 not in finite_set((2, 5))
    assert 5 not in cofinite_set((5,)) and 7 in cofinite_set((5,))
    assert cofinite_set((2, 3, 7)).smallest() == 5
    assert cofinite_set((2, 3, 7)).smallest_members(3) == (5, 11, 13)
    assert finite_set((7, 3)).smallest_members(5) == (3, 7)
    with pytest.raises(ValueError):
        finite_set((4,))
    with pytest.raises(ValueError):
        cofinite_set((1,))
    with pytest.raises(ValueError):
        finite_set(()).smallest()


def test_region_members_are_proved_by_miller_rabin():
    # trial division up to sqrt(p) takes about a minute near 10^18
    start = time.perf_counter()
    assert 1_000_000_000_000_000_003 in finite_set((1_000_000_000_000_000_003,))
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
            assert (p in u) == ((p in a) or (p in b))
            assert (p in i) == ((p in a) and (p in b))
            assert (p in d) == ((p in a) and p not in b)
        # a result is cofinite exactly when it keeps members beyond any bound
        assert u.cofinite == (a.cofinite or b.cofinite)
        assert i.cofinite == (a.cofinite and b.cofinite)
        assert d.cofinite == (a.cofinite and not b.cofinite)


def test_partition_cell_validation():
    cell = PartitionCell(ALL_PRIMES, 2, (0, 1))
    assert cell.level == 2
    with pytest.raises(ValueError):
        PartitionCell(ALL_PRIMES, 1, ())
    with pytest.raises(ValueError):
        PartitionCell(ALL_PRIMES, -1, ())


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
        PartitionCell(cofinite_set((3,)), 1, (0,)),
        PartitionCell(finite_set((3,)), 0, ()),
    )
    # the stranded prime joins the next round, glued with 2 by remainders
    assert [ps.prime for ps in s1.completions] == [2, 3]
    assert s1.element == (0, 1)
    assert s1.partition == (
        PartitionCell(cofinite_set((3,)), 2, (0, 1)),
        PartitionCell(finite_set((3,)), 1, (1,)),
    )
    assert [ps.prime for ps in s2.completions] == [3]
    assert s2.partition == (
        PartitionCell(cofinite_set((3,)), 2, (0, 1)),
        PartitionCell(finite_set((3,)), 2, (1, 2)),
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
    top = PartitionCell(cofinite_set((3,)), 2, (0, 1))
    late = PartitionCell(finite_set((3,)), 1, (1,))
    assert _check_partition((top, late), 2, 2) is None
    assert "dimension bound" in _check_partition((top, late), 3, 2)
    assert _check_partition((top, PartitionCell(finite_set((3,)), 2, (1, 2))), 3, 2) is None


def test_recorded_witnesses_are_completable():
    for A, n in _lift_instances():
        cert = forster_lift(A, n)
        for step in cert.steps:
            for cell in step.partition:
                for p in cell.region.smallest_members(3):
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

    gens = list(cert.generators)
    gens[2] = (1, 1)
    assert "generator" in refused(dataclasses.replace(cert, generators=tuple(gens)))

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
    assert "bad primes" in refused(_replace_completion(cert, 0, 0, excluded=(5,)))

    cells = list(cert.steps[0].partition)
    cells[0] = PartitionCell(cofinite_set((5,)), cells[0].level, cells[0].witness)
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


def test_replay_wrong_module():
    A = integral_zero_module((3, 0))
    cert = forster_lift(A, 2)
    ok, detail = replay_lift(integral_zero_module((9, 0)), cert)
    assert not ok and "factors" in detail
