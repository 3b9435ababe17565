"""Generator-tuple search: exhaustive counts, random probes, completability.

Exhaustive enumeration tests tuples in lexicographic order over concatenated
coordinate vectors whenever the candidate count fits the budget, so refuted
sizes are certified and the reported tuple is the lexicographically smallest
one.  The subalgebra a tuple generates depends only on its linear span (with
the constants adjoined when unital), so each distinct span is closed once:
a tuple whose span already appeared earlier at the same size was refuted
then and is skipped, and so is every extension of a prefix whose span
already appeared at the same length.  `tested` still counts tuples.
Otherwise seeded random sampling gives upper bounds only.  Every random
draw uses a per-trial generator derived from (seed, trial index), so
results are reproducible regardless of how the work is scheduled.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Element, GenerationCertificate, Multialgebra, is_generating
from .fields import Field, PrimeField, validate_vector
from .linalg import RowReducer


class BudgetExhausted(RuntimeError):
    """A search that had to succeed ran out of budget without an answer."""


@dataclass(frozen=True)
class SearchBudget:
    max_exhaustive: int = 1_000_000
    random_trials: int = 1000
    seed: int = 1
    coeff_height: int = 10

    def __post_init__(self):
        if self.max_exhaustive < 1 or self.random_trials < 1 or self.coeff_height < 1:
            raise ValueError("budget parameters must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


DEFAULT_BUDGET = SearchBudget()


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * (1 << 64) + trial)


def _random_element(rng: random.Random, field: Field, r: int, height: int) -> Element:
    return tuple(field.coerce(rng.randint(-height, height)) for _ in range(r))


def _require_prime_field(alg: Multialgebra) -> PrimeField:
    if not isinstance(alg.field, PrimeField):
        raise ValueError("exhaustive search needs a finite (prime) field")
    return alg.field


# ---------------------------------------------------------------------------
# Minimal generator count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeAttempt:
    """What happened at one tuple size."""

    n: int
    total: int
    exhaustive: bool
    tested: int
    found: bool


@dataclass(frozen=True)
class MinGenReport:
    n_upper: Optional[int]
    certificate: Optional[GenerationCertificate]
    lower_bound_certified: bool
    attempts: tuple[SizeAttempt, ...]
    unital: bool


def min_generators(
    alg: Multialgebra, budget: SearchBudget = DEFAULT_BUDGET, unital: bool = False
) -> MinGenReport:
    """Smallest generating tuple size, iterating n = 0, 1, 2, ...

    Each size is a completability search from the empty tuple.  Sizes whose
    full candidate space fits max_exhaustive are enumerated completely
    (certifying the lower bound); larger sizes fall back to seeded random
    sampling.  The iteration stops at the first size that yields a
    generating tuple, and never needs to pass n = dim since the basis
    itself generates.
    """
    field = _require_prime_field(alg)
    attempts: list[SizeAttempt] = []
    all_below_exhausted = True
    for n in range(alg.dim + 1):
        total = field.p ** (alg.dim * n)
        exhaustive = total <= budget.max_exhaustive
        res = completable(alg, [], n, budget, unital)
        found = res.status == "found"
        attempts.append(SizeAttempt(n, total, exhaustive, res.tested, found))
        if found:
            return MinGenReport(
                n_upper=n,
                certificate=res.certificate,
                lower_bound_certified=all_below_exhausted,
                attempts=tuple(attempts),
                unital=unital,
            )
        all_below_exhausted = all_below_exhausted and exhaustive
    return MinGenReport(
        n_upper=None,
        certificate=None,
        lower_bound_certified=False,
        attempts=tuple(attempts),
        unital=unital,
    )


# ---------------------------------------------------------------------------
# Random probes (any exact field)
# ---------------------------------------------------------------------------


def random_probe(
    alg: Multialgebra, n: int, budget: SearchBudget = DEFAULT_BUDGET, unital: bool = False
) -> Optional[GenerationCertificate]:
    """First generating n-tuple among seeded random draws, or None.

    Coordinates are integers in [-coeff_height, coeff_height], reduced into
    F_p when the field is finite.  Absence of a certificate is a legitimate
    outcome, not an error.
    """
    if n < 0:
        raise ValueError("tuple size must be nonnegative")
    for trial in range(budget.random_trials):
        rng = _trial_rng(budget.seed, trial)
        elements = [_random_element(rng, alg.field, alg.dim, budget.coeff_height) for _ in range(n)]
        ok, cert = is_generating(
            alg, elements, unital=unital, method="random", seed=budget.seed, trial=trial
        )
        if ok:
            return cert
    return None


# ---------------------------------------------------------------------------
# Completability (membership in the extendable-tuple sets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of searching for an extension of a partial tuple.

    status is "found" (extension generates; certificate attached),
    "certified_none" (full extension space enumerated, nothing generates),
    or "inconclusive" (budget exceeded before an answer).
    """

    status: str
    extension: Optional[tuple[Element, ...]]
    certificate: Optional[GenerationCertificate]
    tested: int

    @property
    def first(self) -> Optional[Element]:
        return self.extension[0] if self.extension else None


def completable(
    alg: Multialgebra,
    partial: Sequence[Sequence],
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    unital: bool = False,
) -> CompletionResult:
    """Search for elements extending partial to a generating n-tuple.

    Decides membership of the partial tuple in the set of completable
    i-tuples: exhaustive over all p^(r(n-i)) extensions when that fits the
    budget (so a miss is a certified no), seeded random otherwise.
    """
    field = _require_prime_field(alg)
    p, r = field.p, alg.dim
    fixed = [validate_vector(field, v, r) for v in partial]
    i = len(fixed)
    if i > n:
        raise ValueError(f"partial tuple of length {i} cannot extend to length {n}")
    slots = n - i  # zero slots: the tuple itself is tested as-is
    total = p ** (r * slots)
    if total <= budget.max_exhaustive:
        found = _exhaustive_completion(alg, fixed, slots, unital)
        return found or CompletionResult("certified_none", None, None, total)
    for trial in range(budget.random_trials):
        rng = _trial_rng(budget.seed, trial)
        extension = tuple(
            _random_element(rng, field, r, budget.coeff_height) for _ in range(slots)
        )
        ok, cert = is_generating(
            alg, fixed + list(extension), unital=unital, method="random", seed=budget.seed, trial=trial
        )
        if ok:
            return CompletionResult("found", extension, cert, trial + 1)
    return CompletionResult("inconclusive", None, None, budget.random_trials)


def _exhaustive_completion(
    alg: Multialgebra, fixed: list[Element], slots: int, unital: bool
) -> Optional[CompletionResult]:
    """First generating extension of fixed by slots elements, or None.

    Extensions are tested in lexicographic order by a depth-first walk that
    keeps the RREF of span(fixed + prefix), with the constants when unital.
    The RREF only serves to skip subtrees: at a leaf, is_generating inserts
    the whole seed, fixed + chosen, into a fresh span again, and the
    verdict, closure dimension and monomial count depend only on that span.
    A prefix whose RREF already appeared at the same length had all of its
    extensions refuted then (else the walk would have returned), so its
    subtree is skipped; the index still counts the tuples in it.
    """
    base = RowReducer(alg.field, alg.dim)
    for v in fixed:
        base.insert(v)
    if unital:
        for const in alg.constants():
            base.insert(const)
    seen: list[set] = [set() for _ in range(slots)]
    return _walk(alg, fixed, unital, seen, [], base, 0)


def _walk(
    alg: Multialgebra,
    fixed: list[Element],
    unital: bool,
    seen: list[set],
    chosen: list[Element],
    reducer: RowReducer,
    index: int,
) -> Optional[CompletionResult]:
    """First generating extension of fixed + chosen, or None.

    index is the position of the first tuple below this node.  seen[d]
    holds the RREFs met at prefix length d + 1.  This is a module-level
    function rather than a nested one because a recursive closure is a
    reference cycle, which would keep seen alive until a full collection.
    """
    p, r = alg.field.p, alg.dim
    depth = len(chosen)
    if depth == len(seen):
        ok, cert = is_generating(
            alg, fixed + chosen, unital=unital, method="exhaustive", index=index
        )
        return CompletionResult("found", tuple(chosen), cert, index + 1) if ok else None
    below = p ** (r * (len(seen) - 1 - depth))  # tuples under each child
    # product() varies the last coordinate fastest: lexicographic order
    for t, v in enumerate(itertools.product(range(p), repeat=r)):
        child = reducer.copy()
        child.insert(v)
        key = tuple(map(tuple, child.rows))
        if key in seen[depth]:
            continue
        seen[depth].add(key)
        chosen.append(v)
        found = _walk(alg, fixed, unital, seen, chosen, child, index + t * below)
        chosen.pop()
        if found is not None:
            return found
    return None
