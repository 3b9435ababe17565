"""Generator-tuple search: exhaustive counts, random probes, completability.

One loop, `_first`, closes candidate extensions of a fixed prefix and
returns the first certificate that generates, stamped with the candidate's
provenance.  `_completion` picks one of two candidate sources for it.
When the p^(r·slots) extensions fit the budget, `_spans` enumerates them,
so a miss is certified and a hit is the lexicographically smallest tuple.
The subalgebra a tuple generates depends only on its span (with the
constants adjoined when unital), so `_spans` yields each distinct span
once, with its RREF for the closure to start from, and builds each
distinct child span of a prefix once.  `tested` still counts tuples.
Otherwise `_draws` yields seeded random extensions, which give upper
bounds only; each uses a generator derived from (seed, trial index), so
results are reproducible regardless of how the work is scheduled.

`min_generators` also prunes once every smaller size is certified_none: a
candidate inside the span of its prefix (with the constants when unital)
gives tuples that span what an (n - 1)-tuple spans, and none of them
generates.  The first generating tuple and every count stay as they are.
`completable` and the verifier's rerun (`prune=False`) enumerate every
tuple: without the smaller sizes refuted first, a dependent tuple can be
the first that generates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .algebra import GenerationCertificate, Multialgebra, is_generating
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
    return _first(alg, [], unital, _draws(alg.field, alg.dim, n, budget))


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
    field, r = alg.field, alg.dim
    if not isinstance(field, PrimeField):
        raise ValueError("exhaustive search needs a finite (prime) field")
    fixed = [validate_vector(field, v, r) for v in partial]
    i = len(fixed)
    if i > n:
        raise ValueError(f"partial tuple of length {i} cannot extend to length {n}")
    slots = n - i  # zero slots: the tuple itself is tested as-is
    total = field.p ** (r * slots)
    if total > budget.max_exhaustive:
        cert = _first(alg, fixed, unital, _draws(field, r, slots, budget))
        if cert is None:
            return CompletionResult("inconclusive", None, budget.random_trials)
        return CompletionResult("found", cert, cert.trial + 1)
    base = RowReducer(field, r)  # the span of fixed, with the constants when unital
    for v in fixed + (alg.constants() if unital else []):
        base.insert(v)
    cert = _first(alg, fixed, unital, _spans(base, slots, prune))
    if cert is None:
        return CompletionResult("certified_none", None, total)
    return CompletionResult("found", cert, cert.index + 1)


# ---------------------------------------------------------------------------
# The search loop and its two candidate sources
# ---------------------------------------------------------------------------


def _first(alg: Multialgebra, fixed: list, unital: bool, candidates) -> Optional[GenerationCertificate]:
    """Certificate of the first fixed + extension that generates, or None.

    candidates yields (extension, span, provenance): span is None when
    is_generating must validate the elements, or else the RREF of fixed +
    extension (with the constants when unital) for the closure to start
    from and grow; provenance, a seed and trial or an index, is stamped on
    the certificate.
    """
    for extension, span, provenance in candidates:
        ok, cert = is_generating(alg, fixed + extension, unital=unital, span=span)
        if ok:
            return replace(cert, **provenance)
    return None


def _draws(field: Field, r: int, slots: int, budget: SearchBudget):
    """(extension, None, {"seed": s, "trial": t}) for each trial t: slots
    elements of length r, coordinates in [-coeff_height, coeff_height]
    coerced into the field, drawn from a generator derived from (s, t).
    With no slots every trial draws the same empty extension, so only trial
    0 is yielded."""
    h = budget.coeff_height
    for trial in range(budget.random_trials if slots else 1):
        rng = random.Random(budget.seed * (1 << 64) + trial)
        extension = [tuple(field.coerce(rng.randint(-h, h)) for _ in range(r)) for _ in range(slots)]
        yield extension, None, {"seed": budget.seed, "trial": trial}


def _spans(base: RowReducer, slots: int, prune: bool):
    """(extension, RREF, {"index": i}) for each distinct span of base + extension.

    An extension is slots vectors with coordinates in [0, p).  Each span
    comes with the lexicographically first extension that gives it, in
    lexicographic order, i being its position among all p^(r·slots), and
    with the RREF of base + extension, which the walk does not read again.
    prune also skips every extension holding an element inside the span of
    base and the elements before it.
    """
    if slots == 0:
        return iter([([], base, {"index": 0})])
    return _children(base, slots, prune, [set() for _ in range(slots)], [], 0)


def _children(reducer: RowReducer, slots: int, prune: bool, seen: list, chosen: list, index: int):
    """_spans below the prefix chosen, whose span is reducer.

    index is the position of the first extension below it, and seen[d]
    holds the keys of the spans met at prefix length d + 1: a prefix whose
    span appeared before at its length is skipped with all its extensions,
    which span what the earlier prefix's extensions span.  A child v is
    built only when its residue modulo reducer is new here, since
    span(reducer + v) depends only on that residue; with prune, the zero
    residue counts as met before the first child.
    """
    p, r = reducer.p, reducer.width
    depth = len(chosen)
    below = p ** (r * (slots - 1 - depth))  # extensions under each child
    # residues modulo reducer of the children met so far
    tried = {reducer.residue((0,) * r)} if prune else set()
    # product() varies the last coordinate fastest: lexicographic order
    for t, v in enumerate(itertools.product(range(p), repeat=r)):
        residue = reducer.residue(v)
        if residue in tried:
            continue  # an earlier child with this span was yielded or skipped
        tried.add(residue)
        child = reducer.copy()
        child.insert(v)
        key = child.key()
        if key in seen[depth]:
            continue
        seen[depth].add(key)
        if depth + 1 < slots:
            yield from _children(child, slots, prune, seen, chosen + [v], index + t * below)
        else:
            yield chosen + [v], child, {"index": index + t * below}
