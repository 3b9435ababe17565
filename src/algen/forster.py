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
global generation; the whole trace is recorded so a verifier can replay
every assertion without searching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import is_generating
from .fields import is_prime
from .integral import (
    BadPrimesReport,
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
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", members)

    # -- predicates --------------------------------------------------------

    def __contains__(self, p: int) -> bool:
        if self.cofinite:
            return p not in self.primes
        return p in self.primes

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.primes

    @property
    def dimension(self):
        """1 for cofinite, 0 for finite nonempty, -inf for empty."""
        if self.cofinite:
            return 1
        return 0 if self.primes else float("-inf")

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "ConstructibleSet") -> "ConstructibleSet":
        if self.cofinite and other.cofinite:
            return ConstructibleSet(True, self.primes & other.primes)
        if self.cofinite:
            return ConstructibleSet(True, self.primes - other.primes)
        if other.cofinite:
            return ConstructibleSet(True, other.primes - self.primes)
        return ConstructibleSet(False, self.primes | other.primes)

    def intersection(self, other: "ConstructibleSet") -> "ConstructibleSet":
        if self.cofinite and other.cofinite:
            return ConstructibleSet(True, self.primes | other.primes)
        if self.cofinite:
            return ConstructibleSet(False, other.primes - self.primes)
        if other.cofinite:
            return ConstructibleSet(False, self.primes - other.primes)
        return ConstructibleSet(False, self.primes & other.primes)

    def difference(self, other: "ConstructibleSet") -> "ConstructibleSet":
        if self.cofinite and other.cofinite:
            return ConstructibleSet(False, other.primes - self.primes)
        if self.cofinite:
            return ConstructibleSet(True, self.primes | other.primes)
        if other.cofinite:
            return ConstructibleSet(False, self.primes & other.primes)
        return ConstructibleSet(False, self.primes - other.primes)

    # -- enumeration ---------------------------------------------------------

    def smallest(self) -> int:
        """Least member; the canonical representative of a cofinite region."""
        members = self.smallest_members(1)
        if not members:
            raise ValueError("empty set has no smallest member")
        return members[0]

    def smallest_members(self, k: int) -> tuple[int, ...]:
        """The k least members (fewer if a finite set runs out)."""
        if not self.cofinite:
            return tuple(sorted(self.primes)[:k])
        found = []
        candidate = 2
        while len(found) < k:
            if is_prime(candidate) and candidate not in self.primes:
                found.append(candidate)
            candidate += 1
        return tuple(found)


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
    a tuple that extends to a generating n-tuple of the fiber at p.
    """

    region: ConstructibleSet
    level: int
    witness: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0 or len(self.witness) != self.level:
            raise ValueError("witness length must equal the cell level")


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
    """Full trace of a lift: n + 1 generators and every assertion made."""

    factors: tuple[int, ...]
    n: int
    generators: tuple[tuple[int, ...], ...]
    steps: tuple[LiftStep, ...]
    verification: GlobalGenerationReport


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


def _integer_witness(gfib, elements) -> tuple[tuple[int, ...], ...]:
    """Clear denominators per element and lift to module coordinates."""
    lifted = []
    for v in elements:
        den = math.lcm(*(Fraction(x).denominator for x in v)) if v else 1
        lifted.append(gfib.lift(tuple(Fraction(x) * den for x in v)))
    return tuple(lifted)


def local_requirement(
    A: IntegralAlgebra,
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    factor_bound: int = 1_000_000,
) -> LocalReport:
    """Is every residue fiber of A generated by n elements?

    Strategy: find a rational-fiber witness by seeded random search, lift it
    to integer coordinates, and run a certified completion search on each of
    its finitely many bad primes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gfib = generic_fiber(A)
    if gfib.algebra.dim == 0:
        witness = tuple(tuple(0 for _ in range(A.rank)) for _ in range(n))
    else:
        cert = random_probe(gfib.algebra, n, budget, unital=True)
        if cert is None:
            return LocalReport("inconclusive", n, None, None, None, ())
        witness = _integer_witness(gfib, cert.elements)
        ok, _ = is_generating(gfib.algebra, [gfib.project(v) for v in witness], unital=True)
        if not ok:
            raise RuntimeError("internal: integer witness lost rational generation")
    support = bad_primes(A, witness, factor_bound)
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
            # one only while steps <= i + 1.  Completed cells stop the clock.
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


def forster_lift(
    A: IntegralAlgebra,
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    factor_bound: int = 1_000_000,
) -> LiftCertificate:
    """Produce n + 1 generators of A from n-generated fibers, with a trace.

    Raises HypothesisFailure if some fiber needs more than n elements,
    BudgetExhausted if a local search cannot be completed within the budget,
    and RuntimeError on any internal invariant breach.
    """
    local = local_requirement(A, n, budget, factor_bound)
    if local.status == "counterexample":
        raise HypothesisFailure(local)
    if local.status == "inconclusive":
        raise BudgetExhausted("local requirement could not be verified within the budget")

    cells: list[PartitionCell] = [PartitionCell(region=ALL_PRIMES, level=0, witness=())]
    generators: list[tuple[int, ...]] = []
    steps: list[LiftStep] = []
    for _ in range(n + 1):
        work: list[tuple[PartitionCell, list[int]]] = []
        for cell in cells:
            if cell.level < n:
                work.append((cell, _select_primes(cell)))
        flat = [p for _, ps in work for p in ps]
        if len(set(flat)) != len(flat):
            raise RuntimeError("internal: representative primes collide across cells")

        completions: list[list[tuple[int, object, CompletionResult]]] = []
        for cell, ps in work:
            per = []
            for p in ps:
                fib = fiber_mod_p(A, p)
                partial = [fib.project(generators[t]) for t in cell.witness]
                res = completable(fib.algebra, partial, n, budget, unital=True)
                if res.status == "certified_none":
                    raise RuntimeError(
                        f"internal: witnessed prefix not completable at prime {p}"
                    )
                if res.status == "inconclusive":
                    raise BudgetExhausted(f"completion search at prime {p} ran out of budget")
                per.append((p, fib, res))
            completions.append(per)

        congruences: list[list[tuple[int, int]]] = [[] for _ in range(A.rank)]
        for per in completions:
            for p, fib, res in per:
                lifted = fib.lift(res.extension[0])
                for c in range(A.rank):
                    congruences[c].append((p, lifted[c]))
        element = reduce_element(A.factors, [crt(con) for con in congruences])
        new_index = len(generators)
        generators.append(element)

        next_cells = [cell for cell in cells if cell.level >= n]
        prime_steps: list[PrimeStep] = []
        for (cell, ps), per in zip(work, completions):
            opened = finite_set(())
            for p, fib, res in per:
                completed = (
                    tuple(generators[t] for t in cell.witness)
                    + (element,)
                    + tuple(fib.lift(v) for v in res.extension[1:])
                )
                support = bad_primes(A, completed, factor_bound)
                if support.generic_fail:
                    raise RuntimeError("internal: completed tuple misses a free direction")
                if p in support.primes:
                    raise RuntimeError("internal: completed tuple fails at its own prime")
                opened = opened.union(cofinite_set(support.primes))
                prime_steps.append(
                    PrimeStep(
                        prime=p,
                        witness=cell.witness,
                        extension=tuple(res.extension),
                        completed=completed,
                        excluded=support.primes,
                    )
                )
            advanced = cell.region.intersection(opened)
            remaining = cell.region.difference(opened)
            if not cell.region.cofinite and not remaining.is_empty:
                raise RuntimeError("internal: a finite region was not fully advanced")
            if not advanced.is_empty:
                next_cells.append(
                    PartitionCell(
                        region=advanced,
                        level=cell.level + 1,
                        witness=cell.witness + (new_index,),
                    )
                )
            if not remaining.is_empty:
                next_cells.append(
                    PartitionCell(region=remaining, level=cell.level, witness=cell.witness)
                )
        cells = next_cells
        complaint = _check_partition(cells, len(generators), n)
        if complaint:
            raise RuntimeError(f"internal: {complaint}")
        steps.append(
            LiftStep(element=element, completions=tuple(prime_steps), partition=tuple(cells))
        )

    if any(cell.level < n for cell in cells):
        raise RuntimeError("internal: cells below level n remain after the final step")
    verification = verify_global_generation(A, generators, factor_bound)
    if not verification.generates:
        raise RuntimeError("internal: lifted generators fail global verification")
    return LiftCertificate(
        factors=A.factors,
        n=n,
        generators=tuple(generators),
        steps=tuple(steps),
        verification=verification,
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class _Mismatch(Exception):
    pass


def _expect(condition: bool, message: str):
    if not condition:
        raise _Mismatch(message)


def replay_lift(
    A: IntegralAlgebra, cert: LiftCertificate, factor_bound: int = 1_000_000
) -> tuple[bool, str]:
    """Re-derive every assertion of a lift certificate without searching.

    The recorded local extensions are the only search-derived data; prime
    selection, CRT gluing, bad-prime sets, partitions, and the final
    verification are all recomputed and compared, factoring with the
    certificate's factor_bound.  Returns (ok, detail).
    """
    try:
        _replay(A, cert, factor_bound)
    except _Mismatch as bad:
        return False, str(bad)
    except (ValueError, IndexError, TypeError) as bad:
        return False, f"malformed certificate: {bad}"
    except FactorizationIncomplete as stuck:
        return False, f"inconclusive: {stuck}"
    return True, "ok"


def _replay(A: IntegralAlgebra, cert: LiftCertificate, factor_bound: int):
    _expect(tuple(cert.factors) == A.factors, "module invariant factors differ")
    n = cert.n
    _expect(n >= 0, "negative n")
    _expect(len(cert.generators) == n + 1, "generator count is not n + 1")
    _expect(len(cert.steps) == n + 1, "step count is not n + 1")

    cells: list[PartitionCell] = [PartitionCell(region=ALL_PRIMES, level=0, witness=())]
    generators: list[tuple[int, ...]] = []
    for step_no, step in enumerate(cert.steps):
        work = [(cell, _select_primes(cell)) for cell in cells if cell.level < n]
        recorded = list(step.completions)
        _expect(
            [p for _, ps in work for p in ps] == [ps.prime for ps in recorded],
            f"step {step_no}: selected primes differ",
        )

        pos = 0
        per_cell: list[tuple[PartitionCell, list]] = []
        congruences: list[list[tuple[int, int]]] = [[] for _ in range(A.rank)]
        for cell, ps in work:
            batch = []
            for p in ps:
                rec = recorded[pos]
                pos += 1
                _expect(rec.witness == cell.witness, f"step {step_no}: witness mismatch at {p}")
                fib = fiber_mod_p(A, p)
                _expect(
                    len(rec.extension) == n - cell.level,
                    f"step {step_no}: wrong extension length at {p}",
                )
                partial = [fib.project(generators[t]) for t in cell.witness]
                full = list(partial) + [tuple(v) for v in rec.extension]
                ok, _ = is_generating(fib.algebra, full, unital=True)
                _expect(ok, f"step {step_no}: completion does not generate the fiber at {p}")
                lifted = fib.lift(rec.extension[0])
                for c in range(A.rank):
                    congruences[c].append((p, lifted[c]))
                batch.append((p, fib, rec))
            per_cell.append((cell, batch))

        element = reduce_element(A.factors, [crt(con) for con in congruences])
        _expect(element == tuple(step.element), f"step {step_no}: glued element differs")
        _expect(
            element == tuple(cert.generators[step_no]),
            f"step {step_no}: generator differs from step element",
        )
        generators.append(element)
        new_index = len(generators) - 1

        next_cells = [cell for cell in cells if cell.level >= n]
        for cell, batch in per_cell:
            opened = finite_set(())
            for p, fib, rec in batch:
                completed = (
                    tuple(generators[t] for t in cell.witness)
                    + (element,)
                    + tuple(fib.lift(v) for v in rec.extension[1:])
                )
                _expect(
                    completed == tuple(tuple(v) for v in rec.completed),
                    f"step {step_no}: completed tuple differs at {p}",
                )
                support = bad_primes(A, completed, factor_bound)
                _expect(
                    not support.generic_fail and support.primes == tuple(rec.excluded),
                    f"step {step_no}: bad primes differ at {p}",
                )
                _expect(p not in support.primes, f"step {step_no}: {p} excludes itself")
                opened = opened.union(cofinite_set(support.primes))
            advanced = cell.region.intersection(opened)
            remaining = cell.region.difference(opened)
            if not advanced.is_empty:
                next_cells.append(
                    PartitionCell(advanced, cell.level + 1, cell.witness + (new_index,))
                )
            if not remaining.is_empty:
                next_cells.append(PartitionCell(remaining, cell.level, cell.witness))
        _expect(
            tuple(next_cells) == tuple(step.partition),
            f"step {step_no}: partition snapshot differs",
        )
        cells = next_cells
        complaint = _check_partition(cells, len(generators), n)
        _expect(complaint is None, f"step {step_no}: {complaint}")

    _expect(all(cell.level == n for cell in cells), "cells below level n at the end")
    verification = verify_global_generation(A, cert.generators, factor_bound)
    _expect(verification.generates, "generators do not generate globally")
    _expect(verification == cert.verification, "verification record differs")
