"""Generator-tuple search: exhaustive counts, random probes, completability.

Exhaustive enumeration tests tuples in lexicographic order over concatenated
coordinate vectors whenever the candidate count fits the budget, so refuted
sizes are certified and the reported tuple is the lexicographically smallest
one.  The subalgebra a tuple generates depends only on its linear span (with
the constants adjoined when unital), so each distinct span is closed once:
a tuple whose span already appeared earlier at the same size was refuted
then and is skipped, and so is every extension of a prefix whose span
already appeared at the same length.  Each node of the walk builds each
distinct child span once: a candidate whose residue modulo the node's span
repeats an earlier candidate's gives that candidate's span, and is skipped
before any copy.  A leaf trusts the walk's own tuples, which need no
validation.  `tested` still counts tuples.
Otherwise seeded random sampling gives upper bounds only.  Every random
draw uses a per-trial generator derived from (seed, trial index), so
results are reproducible regardless of how the work is scheduled.

`min_generators` also prunes once every smaller size is certified_none: a
candidate whose residue modulo its node's span is zero lies in the span of
the prefix (with the constants when unital), so its tuples span what an
(n - 1)-tuple spans, and none of them generates.  The first generating
tuple and every count stay as they are.  `completable` and the verifier's
rerun (`prune=False`) enumerate every tuple: without the smaller sizes
refuted first, a dependent tuple can be the first that generates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
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
class MinGenReport:
    """The completability search of each size, from 0 up to the first hit."""

    attempts: tuple[CompletionResult, ...]
    unital: bool

    @property
    def certificate(self) -> Optional[GenerationCertificate]:
        return self.attempts[-1].certificate

    @property
    def n_upper(self) -> Optional[int]:
        return None if self.certificate is None else len(self.certificate.elements)

    @property
    def lower_bound_certified(self) -> bool:
        """A tuple was found and every smaller size was searched exhaustively."""
        return self.certificate is not None and all(a.exhaustive for a in self.attempts[:-1])


def min_generators(
    alg: Multialgebra,
    budget: SearchBudget = DEFAULT_BUDGET,
    unital: bool = False,
    *,
    prune: bool = True,
) -> MinGenReport:
    """Smallest generating tuple size, iterating n = 0, 1, 2, ...

    Each size is a completability search from the empty tuple.  The
    iteration stops at the first size that yields a generating tuple, and
    never needs to pass n = dim since the basis itself generates.  While
    every smaller size is certified_none, prune lets the walk skip the
    linearly dependent tuples; the report is the same either way, and the
    verifier reruns the search with prune=False.
    """
    attempts: list[CompletionResult] = []
    for n in range(alg.dim + 1):
        refuted = prune and all(a.status == "certified_none" for a in attempts)
        attempts.append(_completion(alg, [], n, budget, unital, refuted))
        if attempts[-1].status == "found":
            break
    return MinGenReport(attempts=tuple(attempts), unital=unital)


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
    return _random_completion(alg, [], n, budget, unital).certificate


def _random_completion(
    alg: Multialgebra, fixed: list[Element], slots: int, budget: SearchBudget, unital: bool
) -> CompletionResult:
    """First generating extension of fixed by slots seeded random elements."""
    for trial in range(budget.random_trials):
        rng = _trial_rng(budget.seed, trial)
        ext = [_random_element(rng, alg.field, alg.dim, budget.coeff_height) for _ in range(slots)]
        ok, cert = is_generating(alg, fixed + ext, unital=unital)
        if ok:
            cert = replace(cert, seed=budget.seed, trial=trial)
            return CompletionResult("found", cert, trial + 1)
    return CompletionResult("inconclusive", None, budget.random_trials)


# ---------------------------------------------------------------------------
# Completability (membership in the extendable-tuple sets)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of searching for an extension of a partial tuple.

    status is "found" (certificate attached, its elements ending with the
    extension), "certified_none" (full extension space enumerated, nothing
    generates), or "inconclusive" (budget exceeded before an answer).
    """

    status: str
    certificate: Optional[GenerationCertificate]
    tested: int

    @property
    def exhaustive(self) -> bool:
        cert = self.certificate  # enumerated: a refutation, or a hit at an index
        return self.status == "certified_none" or (cert is not None and cert.index is not None)


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
    budget (so a miss is a certified no), seeded random otherwise.  It never
    prunes, since the smaller sizes were not refuted first.
    """
    return _completion(alg, partial, n, budget, unital, False)


def _completion(
    alg: Multialgebra,
    partial: Sequence[Sequence],
    n: int,
    budget: SearchBudget,
    unital: bool,
    prune: bool,
) -> CompletionResult:
    field = _require_prime_field(alg)
    p, r = field.p, alg.dim
    fixed = [validate_vector(field, v, r) for v in partial]
    i = len(fixed)
    if i > n:
        raise ValueError(f"partial tuple of length {i} cannot extend to length {n}")
    slots = n - i  # zero slots: the tuple itself is tested as-is
    total = p ** (r * slots)
    if total <= budget.max_exhaustive:
        found = _exhaustive_completion(alg, fixed, slots, unital, prune)
        return found or CompletionResult("certified_none", None, total)
    return _random_completion(alg, fixed, slots, budget, unital)


def _exhaustive_completion(
    alg: Multialgebra, fixed: list[Element], slots: int, unital: bool, prune: bool
) -> Optional[CompletionResult]:
    """First generating extension of fixed by slots elements, or None.

    Extensions are tested in lexicographic order by a depth-first walk that
    keeps the RREF of span(fixed + prefix), with the constants when unital.
    The verdict, closure dimension and monomial count of a tuple depend
    only on that span, so at a leaf the closure starts from the walk's RREF
    and inserts no seed vector.  A prefix whose RREF already appeared at
    the same length had all of its extensions refuted then (else the walk
    would have returned), so its subtree is skipped; the index still counts
    the tuples in it.  prune skips the children inside their parent's span
    too; it is sound only when every shorter tuple is known not to generate.
    """
    base = RowReducer(alg.field, alg.dim)
    for v in fixed:
        base.insert(v)
    if unital:
        for const in alg.constants():
            base.insert(const)
    seen: list[set] = [set() for _ in range(slots)]
    return _walk(alg, fixed, unital, prune, seen, [], base, 0)


def _walk(
    alg: Multialgebra,
    fixed: list[Element],
    unital: bool,
    prune: bool,
    seen: list[set],
    chosen: list[Element],
    reducer: RowReducer,
    index: int,
) -> Optional[CompletionResult]:
    """First generating extension of fixed + chosen, or None.

    reducer holds the RREF of fixed + chosen, with the constants when
    unital; a leaf hands it to is_generating as the closure's starting
    span, which grows it, with fixed + chosen as they are: completable
    validated fixed, and chosen comes from product(range(p)).  index is the
    position of the first tuple below this node.  seen[d] holds the keys of
    the RREFs met at prefix length d + 1.  A child v is built only when its
    residue modulo reducer is new at this node: span(reducer + v) depends
    only on that residue, so a repeat has the span of an earlier child,
    whose key is in seen[depth] already, and each distinct child span is
    copied and inserted once.  With prune, the zero residue counts as met
    before the first candidate: a child inside reducer's span gives tuples
    that span what a shorter tuple spans, and the caller sets prune only
    once every shorter tuple is refuted.  This is a module-level function
    rather than a nested one because a recursive closure is a reference
    cycle, which would keep seen alive until a full collection.
    """
    p, r = alg.field.p, alg.dim
    depth = len(chosen)
    if depth == len(seen):
        ok, cert = is_generating(alg, fixed + chosen, unital=unital, span=reducer)
        if not ok:
            return None
        cert = replace(cert, index=index)
        return CompletionResult("found", cert, index + 1)
    below = p ** (r * (len(seen) - 1 - depth))  # tuples under each child
    # residues modulo reducer of the children met so far
    tried = {reducer.residue((0,) * r)} if prune else set()
    # product() varies the last coordinate fastest: lexicographic order
    for t, v in enumerate(itertools.product(range(p), repeat=r)):
        residue = reducer.residue(v)
        if residue in tried:
            continue  # an earlier child with this span was refuted or skipped
        tried.add(residue)
        child = reducer.copy()
        child.insert(v)
        key = child.key()
        if key in seen[depth]:
            continue
        seen[depth].add(key)
        chosen.append(v)
        found = _walk(alg, fixed, unital, prune, seen, chosen, child, index + t * below)
        chosen.pop()
        if found is not None:
            return found
    return None
