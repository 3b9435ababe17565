"""Constructive generator lifting over the integers.

Given an integral algebra whose residue fibers are all generated by n
elements, produce n + 1 global generators.  The prime spectrum is split into
explicitly represented regions (finite or cofinite sets of primes), each
carrying a witness: indices of already-chosen elements whose projections
still extend to a generating n-tuple on every fiber of the region.  Each
step completes the witnessed prefixes at finitely many representative
primes, glues the first new local element across those primes by the Chinese
remainder theorem, and advances every region on the open locus (a bad-prime
complement) where the lengthened prefix keeps extending.  After n + 1 steps
every region carries a full witness and a subgroup computation certifies
global generation.  The whole trace is recorded: replay_lift runs the
prover's own loop on the recorded local extensions, without searching, and
compares the certificate it rebuilds with the recorded one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from .algebra import integral_row, is_generating
from .fields import proved_prime
from .integral import (
    BadPrimesReport,
    Fiber,
    GlobalGenerationReport,
    IntegralAlgebra,
    bad_primes,
    fiber_mod_p,
    generic_fiber,
    reduce_element,
    verify_global_generation,
)
from .intmat import FactorizationIncomplete, crt
from .search import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    CompletionResult,
    SearchBudget,
    completable,
    random_probe,
)


# ---------------------------------------------------------------------------
# Constructible sets of primes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructibleSet:
    """A finite or cofinite set of primes with exact set algebra.

    `primes` lists the members when finite and the excluded members when
    cofinite.  These are exactly the subsets needed to carve up the prime
    spectrum by finitely many open/closed conditions in one dimension.
    """

    cofinite: bool
    primes: frozenset[int]

    def __post_init__(self):
        members = frozenset(int(p) for p in self.primes)
        for p in members:
            # Miller-Rabin: a prime read from a document must not set the cost
            if proved_prime(p) is not True:
                raise ValueError(f"{p} is not a proven prime")
        object.__setattr__(self, "primes", members)

    # -- predicates --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.primes

    @property
    def dimension(self) -> int:
        """1 for cofinite, 0 for finite nonempty, -1 for empty."""
        if self.cofinite:
            return 1
        return 0 if self.primes else -1

    # -- set algebra ---------------------------------------------------------

    def complement(self) -> "ConstructibleSet":
        return ConstructibleSet(not self.cofinite, self.primes)

    def intersection(self, other: "ConstructibleSet") -> "ConstructibleSet":
        if self.cofinite and other.cofinite:
            return ConstructibleSet(True, self.primes | other.primes)
        if self.cofinite:
            return ConstructibleSet(False, other.primes - self.primes)
        if other.cofinite:
            return ConstructibleSet(False, self.primes - other.primes)
        return ConstructibleSet(False, self.primes & other.primes)

    def union(self, other: "ConstructibleSet") -> "ConstructibleSet":
        return self.complement().intersection(other.complement()).complement()

    def difference(self, other: "ConstructibleSet") -> "ConstructibleSet":
        return self.intersection(other.complement())

    # -- enumeration ---------------------------------------------------------

    def smallest(self) -> int:
        """Least member; the canonical representative of a cofinite region."""
        if self.is_empty:
            raise ValueError("empty set has no smallest member")
        if not self.cofinite:
            return min(self.primes)
        candidate = 2
        while not proved_prime(candidate) or candidate in self.primes:
            candidate += 1
        return candidate


def finite_set(primes) -> ConstructibleSet:
    return ConstructibleSet(cofinite=False, primes=frozenset(primes))


def cofinite_set(excluded) -> ConstructibleSet:
    return ConstructibleSet(cofinite=True, primes=frozenset(excluded))


ALL_PRIMES = cofinite_set(())


# ---------------------------------------------------------------------------
# Partition cells and lift certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionCell:
    """A region of primes with a witnessed prefix of the chosen elements.

    For every p in the region, the elements indexed by `witness` project to
    a tuple that extends to a generating n-tuple of the fiber at p.  The
    cell's level is the length of its witness.
    """

    region: ConstructibleSet
    witness: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.witness)


@dataclass(frozen=True)
class PrimeStep:
    """One local completion: what was found at one representative prime.

    `completed` is the global n-tuple (witnessed elements, then the glued
    element, then the remaining local extension lifted at this prime) whose
    bad primes `excluded` carve the open region where the extended witness
    stays valid.
    """

    prime: int
    witness: tuple[int, ...]
    extension: tuple[tuple, ...]
    completed: tuple[tuple[int, ...], ...]
    excluded: tuple[int, ...]


@dataclass(frozen=True)
class LiftStep:
    """One chosen element with its local evidence and the resulting partition."""

    element: tuple[int, ...]
    completions: tuple[PrimeStep, ...]
    partition: tuple[PartitionCell, ...]


@dataclass(frozen=True)
class LiftCertificate:
    """Full trace of a lift: n + 1 steps, one per generator, and every assertion made."""

    factors: tuple[int, ...]
    n: int
    steps: tuple[LiftStep, ...]
    verification: GlobalGenerationReport

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(step.element for step in self.steps)


class HypothesisFailure(RuntimeError):
    """Some fiber needs more than n generators; carries the local report."""

    def __init__(self, report: "LocalReport"):
        self.report = report
        super().__init__(
            f"fiber at {report.prime} is not generated by {report.n} elements"
        )


# ---------------------------------------------------------------------------
# Local requirement: every fiber n-generated
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalReport:
    """Outcome of checking that every residue fiber is n-generated.

    status is "verified", "counterexample" (with the offending prime), or
    "inconclusive" (budget ran out).  `witness` is an integer tuple whose
    projection generates the rational fiber; `completions` record the
    per-prime searches at its bad primes.
    """

    status: str
    n: int
    witness: Optional[tuple[tuple[int, ...], ...]]
    support: Optional[BadPrimesReport]
    prime: Optional[int]
    completions: tuple[tuple[int, CompletionResult], ...]


def local_requirement(
    A: IntegralAlgebra,
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> LocalReport:
    """Is every residue fiber of A generated by n elements?

    Strategy: find a rational-fiber witness by seeded random search, lift it
    to integer coordinates, and run a certified completion search on each of
    its finitely many bad primes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gfib = generic_fiber(A)
    cert = random_probe(gfib.algebra, n, budget, unital=True)
    if cert is None:
        return LocalReport("inconclusive", n, None, None, None, ())
    # scaled to integers the elements keep their span, so the witness still
    # generates the rational fiber; the generic_fail check below guards that
    witness = tuple(gfib.lift(integral_row(v)) for v in cert.elements)
    support = bad_primes(A, witness)
    if support.generic_fail:
        raise RuntimeError("internal: rational witness has a generic failure")
    completions = []
    for p in support.primes:
        fib = fiber_mod_p(A, p)
        res = completable(fib.algebra, [], n, budget, unital=True)
        completions.append((p, res))
        if res.status == "certified_none":
            return LocalReport("counterexample", n, witness, support, p, tuple(completions))
        if res.status == "inconclusive":
            return LocalReport("inconclusive", n, witness, support, p, tuple(completions))
    return LocalReport("verified", n, witness, support, None, tuple(completions))


# ---------------------------------------------------------------------------
# The lift
# ---------------------------------------------------------------------------


class _Breach(RuntimeError):
    """A lift invariant fails: an internal error in the prover, a rejection in replay."""


def _check_partition(cells: Sequence[PartitionCell], step_count: int, n: int) -> Optional[str]:
    """Disjoint cover of all primes with per-cell dimension bounds, or a complaint."""
    union = finite_set(())
    for i, cell in enumerate(cells):
        if cell.region.is_empty:
            return "empty cell retained in the partition"
        if cell.level > n:
            return "cell level exceeds n"
        if cell.level < n and cell.region.dimension > 1 + cell.level - step_count:
            # Cells still in progress must stay on schedule: a cofinite
            # region at level i is tolerable only while steps <= i, a finite
            # one only while steps <= i + 1.  Completed cells stop the clock;
            # after step n + 1 no cell is left below level n.
            return (
                f"dimension bound violated at level {cell.level} "
                f"after {step_count} steps"
            )
        for other in cells[i + 1 :]:
            if not cell.region.intersection(other.region).is_empty:
                return "partition cells overlap"
        union = union.union(cell.region)
    if union != ALL_PRIMES:
        return "partition does not cover all primes"
    return None


def _select_primes(cell: PartitionCell) -> list[int]:
    """Representatives meeting every part of the region: all points of a
    finite set, the least member of a cofinite one."""
    if cell.region.cofinite:
        return [cell.region.smallest()]
    return sorted(cell.region.primes)


def _advance(
    A: IntegralAlgebra,
    n: int,
    cells: Sequence[PartitionCell],
    generators: Sequence[tuple[int, ...]],
    extend: Callable[[PartitionCell, int, Fiber], Sequence[tuple]],
) -> LiftStep:
    """One lift step, shared by forster_lift and replay_lift.

    `extend(cell, p, fib)` supplies the local extension of the cell's
    witnessed prefix at the representative prime p (searched by the prover,
    recorded and checked by the replay).  The first extension elements are
    glued by CRT into the next generator, every completed tuple's bad primes
    open a region, and each cell splits into the part that advances and the
    part that stays.  Raises _Breach when an invariant of the step fails.
    """
    work = [(cell, _select_primes(cell)) for cell in cells if cell.level < n]
    flat = [p for _, ps in work for p in ps]
    if len(set(flat)) != len(flat):
        raise _Breach("representative primes collide across cells")

    local: list[tuple[PartitionCell, list[tuple[int, Fiber, tuple]]]] = []
    congruences: list[list[tuple[int, int]]] = [[] for _ in range(A.rank)]
    for cell, ps in work:
        per = []
        for p in ps:
            fib = fiber_mod_p(A, p)
            extension = tuple(extend(cell, p, fib))
            lifted = fib.lift(extension[0])
            for c in range(A.rank):
                congruences[c].append((p, lifted[c]))
            per.append((p, fib, extension))
        local.append((cell, per))
    element = reduce_element(A.factors, [crt(con) for con in congruences])
    new_index = len(generators)

    next_cells = [cell for cell in cells if cell.level >= n]
    prime_steps: list[PrimeStep] = []
    for cell, per in local:
        opened = finite_set(())
        for p, fib, extension in per:
            completed = (
                tuple(generators[t] for t in cell.witness)
                + (element,)
                + tuple(fib.lift(v) for v in extension[1:])
            )
            support = bad_primes(A, completed)
            if support.generic_fail:
                raise _Breach(f"completed tuple misses a free direction at {p}")
            if p in support.primes:
                raise _Breach(f"completed tuple fails at its own prime {p}")
            opened = opened.union(cofinite_set(support.primes))
            prime_steps.append(PrimeStep(p, cell.witness, extension, completed, support.primes))
        advanced = cell.region.intersection(opened)
        remaining = cell.region.difference(opened)
        if not cell.region.cofinite and not remaining.is_empty:
            raise _Breach("a finite region was not fully advanced")
        if not advanced.is_empty:
            next_cells.append(PartitionCell(advanced, cell.witness + (new_index,)))
        if not remaining.is_empty:
            next_cells.append(PartitionCell(remaining, cell.witness))
    complaint = _check_partition(next_cells, new_index + 1, n)
    if complaint:
        raise _Breach(complaint)
    return LiftStep(element=element, completions=tuple(prime_steps), partition=tuple(next_cells))


def forster_lift(
    A: IntegralAlgebra, n: int, budget: SearchBudget = DEFAULT_BUDGET
) -> LiftCertificate:
    """Produce n + 1 generators of A from n-generated fibers, with a trace.

    Raises HypothesisFailure if some fiber needs more than n elements,
    BudgetExhausted if a local search cannot be completed within the budget,
    and RuntimeError on any internal invariant breach.
    """
    local = local_requirement(A, n, budget)
    if local.status == "counterexample":
        raise HypothesisFailure(local)
    if local.status == "inconclusive":
        raise BudgetExhausted("local requirement could not be verified within the budget")

    generators: list[tuple[int, ...]] = []
    # completable is deterministic, so each (prime, projected prefix) is
    # searched once; the local requirement's searches are the empty prefix's
    searched = {(p, ()): res for p, res in local.completions}

    def extend(cell: PartitionCell, p: int, fib: Fiber) -> tuple:
        partial = tuple(fib.project(generators[t]) for t in cell.witness)
        res = searched.get((p, partial))
        if res is None:
            res = searched[p, partial] = completable(fib.algebra, partial, n, budget, unital=True)
        if res.status == "certified_none":
            raise RuntimeError(f"internal: witnessed prefix not completable at prime {p}")
        if res.status == "inconclusive":
            raise BudgetExhausted(f"completion search at prime {p} ran out of budget")
        return res.certificate.elements[len(partial) :]

    try:
        return _lift(A, n, generators, extend)
    except _Breach as bad:
        raise RuntimeError(f"internal: {bad}") from bad


def _lift(A: IntegralAlgebra, n: int, generators: list, extend: Callable) -> LiftCertificate:
    """The lift loop of forster_lift and replay_lift: n + 1 steps of _advance
    from the all-primes cell, appending each element to generators, then the
    global verification.  Raises _Breach when an invariant fails."""
    cells: Sequence[PartitionCell] = (PartitionCell(region=ALL_PRIMES, witness=()),)
    steps: list[LiftStep] = []
    for _ in range(n + 1):
        step = _advance(A, n, cells, generators, extend)
        generators.append(step.element)
        cells = step.partition
        steps.append(step)
    verification = verify_global_generation(A, generators)
    if not verification.generates:
        raise _Breach("lifted generators fail global verification")
    return LiftCertificate(factors=A.factors, n=n, steps=tuple(steps), verification=verification)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _expect(condition: bool, message: str):
    if not condition:
        raise _Breach(message)


def replay_lift(A: IntegralAlgebra, cert: LiftCertificate) -> tuple[bool, str]:
    """Re-derive every assertion of a lift certificate without searching.

    Runs the prover's loop on the recorded extensions and compares the
    certificate it rebuilds.  The recorded local extensions are the only
    search-derived data: each is checked to generate its fiber, and prime
    selection, CRT gluing, bad-prime sets, partitions and the final
    verification are recomputed and compared field by field.  Returns
    (ok, detail).
    """
    try:
        _replay(A, cert)
    except _Breach as bad:
        return False, str(bad)
    except (ValueError, IndexError, TypeError) as bad:
        return False, f"malformed certificate: {bad}"
    except FactorizationIncomplete as stuck:
        return False, f"inconclusive: {stuck}"
    return True, "ok"


def _replay(A: IntegralAlgebra, cert: LiftCertificate):
    _expect(tuple(cert.factors) == A.factors, "module invariant factors differ")
    n = cert.n
    _expect(n >= 0, "negative n")
    _expect(len(cert.steps) == n + 1, "step count is not n + 1")

    generators: list[tuple[int, ...]] = []
    recorded = [iter(step.completions) for step in cert.steps]

    def extend(cell: PartitionCell, p: int, fib: Fiber) -> tuple:
        where = f"step {len(generators)}"
        rec = next(recorded[len(generators)], None)
        _expect(rec is not None and rec.prime == p, f"{where}: selected primes differ")
        _expect(len(rec.extension) == n - cell.level, f"{where}: wrong extension length at {p}")
        partial = [fib.project(generators[t]) for t in cell.witness]
        ok, _ = is_generating(fib.algebra, [*partial, *rec.extension], unital=True)
        _expect(ok, f"{where}: completion does not generate the fiber at {p}")
        return rec.extension

    _expect_same(_lift(A, n, generators, extend), cert, "")


def _expect_same(fresh, recorded, where: str):
    """Refuse the first field, in declaration order, in which a recorded
    record differs from the rebuilt one; steps and completions are compared
    one by one, so the detail names the step and a completion's prime."""
    for field in fields(fresh):
        new, old = getattr(fresh, field.name), getattr(recorded, field.name)
        if field.name == "steps":
            for i, pair in enumerate(zip(new, old)):
                _expect_same(*pair, f"step {i}: ")
        elif field.name == "completions":
            for ps, rec in zip(new, old):
                _expect_same(ps, rec, f"{where}completion at {ps.prime}: ")
        _expect(new == old, f"{where}field {field.name} differs")
