"""Structure-constant multialgebras over an exact field.

An algebra of dimension r is a list of sparse multilinear operation tensors:
an arity-k tensor maps basis index tuples (i_1,...,i_k) to output vectors,
and extends to A^k -> A multilinearly.  Exactly one binary tensor is flagged
as the product; an arity-0 constant may be flagged as the unit and an
arity-1 tensor as an involution.  Because every operation is multilinear,
the subalgebra generated by a set is computed by closing its span under
operation values on basis tuples.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .fields import QQ, Field, Scalar, validate_vector
from .linalg import RationalSpan, RowReducer

Element = tuple[Scalar, ...]

# Closures over Q test each value against the span mod this prime first (see
# _closure_reducer).  Any prime gives the same closures; one that rarely
# divides the data met in practice leaves few values to the exact test.
_WITNESS_PRIME = 2**31 - 1


@dataclass(frozen=True)
class OperationTensor:
    """Sparse k-multilinear map on basis indices.

    entries are stored in the form canonical_tensor builds: index tuples
    ascending, and for each index tuple the (output index, coefficient)
    pairs ascending with zero coefficients dropped.  Arity 0 encodes a
    constant vector under the empty index tuple.
    """

    arity: int
    entries: tuple[tuple[tuple[int, ...], tuple[tuple[int, Scalar], ...]], ...]

    @cached_property
    def symmetric(self) -> bool:
        """Binary with op(b_i, b_j) = op(b_j, b_i) for every basis pair, so
        by bilinearity op(x, y) = op(y, x) for all x, y.  Canonical entries
        make this one pass that compares each entry with its transpose."""
        if self.arity != 2:
            return False
        table = dict(self.entries)
        return all(table.get((j, i)) == outs for (i, j), outs in self.entries)


def canonical_tensor(
    dim: int,
    arity: int,
    triples: Iterable[tuple[Sequence[int], int, object]],
    vet,
    mod: Callable[[int, object], object],
) -> OperationTensor:
    """The one canonical form of a tensor, from (index tuple, output index,
    coefficient) triples: arity and index ranges checked, each coefficient
    vetted by vet, coefficients of a repeated entry summed and the sum into
    coordinate l reduced by mod(l, sum), index tuples and
    outputs ascending, zero coefficients dropped."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    acc: dict[tuple[int, ...], dict[int, object]] = {}
    for idx, out, coeff in triples:
        idx = tuple(int(i) for i in idx)
        if len(idx) != arity:
            raise ValueError(f"index tuple {idx} does not match arity {arity}")
        out = int(out)
        if any(not 0 <= i < dim for i in idx) or not 0 <= out < dim:
            raise ValueError(f"tensor index out of range for dimension {dim}")
        row = acc.setdefault(idx, {})
        coeff = vet(coeff)
        row[out] = row[out] + coeff if out in row else coeff
    entries = []
    for idx in sorted(acc):
        reduced = ((l, mod(l, c)) for l, c in sorted(acc[idx].items()))
        outs = tuple((l, c) for l, c in reduced if c)
        if outs:
            entries.append((idx, outs))
    return OperationTensor(arity=arity, entries=tuple(entries))


def make_tensor(
    field: Field,
    dim: int,
    arity: int,
    triples: Iterable[tuple[Sequence[int], int, object]],
) -> OperationTensor:
    """Canonical tensor over a field: coefficients coerced into the field,
    sums reduced % p over F_p."""
    return canonical_tensor(dim, arity, triples, field.coerce, field_mod(field))


def field_mod(field: Field):
    """Coordinate reduction over a field: x % p over F_p, x itself over Q;
    a value of another type is coerced, which refuses or changes it."""
    p, coerce = field.char, field.coerce
    if p:
        return lambda l, x: x % p if type(x) is int else coerce(x)
    return lambda l, x: x if type(x) is Fraction else coerce(x)


def eval_tensor(op: OperationTensor, dim: int, args) -> list:
    """Multilinear extension of the tensor applied to coordinate vectors.

    Applies + and * to the coordinates as given (ints over F_p and Z,
    Fractions or integer-scaled ints over Q) and skips zero coordinates by
    truthiness.  The result is not reduced: callers reduce each coordinate
    once, % p over F_p and reduce_element over Z.
    """
    out = [0] * dim
    if op.arity == 2:
        # binary products are nearly all the work: the same loop, unrolled
        left, right = args
        for (i, j), outs in op.entries:
            x = left[i]
            if x:
                y = right[j]
                if y:
                    c = x * y
                    for l, coeff in outs:
                        out[l] += c * coeff
        return out
    for idx, outs in op.entries:
        c = 1
        for slot, i in enumerate(idx):
            x = args[slot][i]
            if not x:
                break
            c *= x
        else:
            for l, coeff in outs:
                out[l] += c * coeff
    return out


def check_roles(alg, dim: int, mod) -> None:
    """Validate the tensors of an algebra (a Multialgebra or IntegralAlgebra)
    and its designated product, unit and involution.

    One pass over each tensor, which is never rebuilt, checks the form that
    canonical_tensor builds, so that the algebra parses back from its
    document: index tuples of the arity, strictly ascending, each with
    outputs strictly ascending and not empty; every index and output in
    range(dim); each coefficient c into l nonzero and equal to mod(l, c).

    The unit and involution laws are checked on basis tuples, which suffices
    by multilinearity, reading each tensor once: e.b_j = b_j = b_j.e from
    one pass over the product entries, and sigma(sigma(b_i)) = b_i and
    sigma(b_i.b_j) = sigma(b_j).sigma(b_i) with every tensor value looked up
    by its index tuple, the latter only on the pairs where a side can be
    nonzero.  Values are sparse {coordinate: value} maps, so the unit costs
    O(dim + product entries), the anti-automorphism law one check per such
    pair rather than dim^2, and nothing costs dim^2 memory.
    mod(l, x) reduces coordinate l to the canonical value the laws compare
    (x % p over F_p, x over Q, x mod the l-th invariant factor over Z).
    """
    ops = alg.ops
    for op in ops:
        arity, prev = op.arity, None
        for idx, outs in op.entries:
            if len(idx) != arity:
                raise ValueError(f"index tuple does not match arity {arity}")
            for i in idx:
                if not 0 <= i < dim:
                    raise ValueError(f"tensor index out of range for dimension {dim}")
            if not outs or (prev is not None and idx <= prev):
                raise ValueError("operation tensor is not in canonical form")
            prev, last = idx, -1
            for l, c in outs:
                if not 0 <= l < dim:
                    raise ValueError(f"tensor index out of range for dimension {dim}")
                y = mod(l, c)
                # over Q mod returns c itself, and `is` spares a slow Fraction ==
                if l <= last or not c or (y is not c and y != c):
                    raise ValueError("operation tensor is not in canonical form")
                last = l
    if not 0 <= alg.product_index < len(ops):
        raise ValueError("product index out of range")
    if ops[alg.product_index].arity != 2:
        raise ValueError("designated product must have arity 2")
    prod = ops[alg.product_index].entries

    def reduced(row: dict) -> dict:
        return {l: y for l, y in ((l, mod(l, x)) for l, x in row.items()) if y}

    if alg.unit_index is not None:
        if not 0 <= alg.unit_index < len(ops):
            raise ValueError("unit index out of range")
        if ops[alg.unit_index].arity != 0:
            raise ValueError("designated unit must have arity 0")
        e = reduced({l: c for _, outs in ops[alg.unit_index].entries for l, c in outs})
        # left[j] accumulates e.b_j and right[i] accumulates b_i.e
        left: dict[int, dict] = {}
        right: dict[int, dict] = {}
        for (i, j), outs in prod:
            for x, side, key in ((e.get(i), left, j), (e.get(j), right, i)):
                if x:
                    row = side.setdefault(key, {})
                    for l, c in outs:
                        row[l] = row[l] + x * c if l in row else x * c
        for side in (left, right):
            # a basis vector missing from side has e.b_j = 0 or b_j.e = 0
            if len(side) != dim or any(reduced(row) != {i: 1} for i, row in side.items()):
                raise ValueError("designated unit fails the unit law")
    if alg.involution_index is not None:
        if not 0 <= alg.involution_index < len(ops):
            raise ValueError("involution index out of range")
        if ops[alg.involution_index].arity != 1:
            raise ValueError("designated involution must have arity 1")
        sigma = dict(ops[alg.involution_index].entries)
        table = dict(prod)

        def combine(tensor, terms):
            # sum of x * tensor[idx] over the (idx, x) terms, reduced
            out: dict[int, object] = {}
            for idx, x in terms:
                for l, c in tensor.get(idx, ()):
                    out[l] = out[l] + x * c if l in out else x * c
            return reduced(out)

        for i in range(dim):
            if combine(sigma, (((l,), c) for l, c in sigma.get((i,), ()))) != {i: 1}:
                raise ValueError("designated involution is not an involution")
        # sigma(b_i.b_j) can be nonzero only at a product entry (i, j), and
        # sigma(b_j).sigma(b_i) only where a product entry (k, m) has b_k in
        # sigma(b_j) and b_m in sigma(b_i); every other pair has both sides 0
        preimage: dict[int, list[int]] = {}
        for (i,), outs in sigma.items():
            for l, _ in outs:
                preimage.setdefault(l, []).append(i)
        pairs = set(table)
        for k, m in table:
            pairs.update((i, j) for j in preimage.get(k, ()) for i in preimage.get(m, ()))
        for i, j in pairs:
            lhs = combine(sigma, (((l,), c) for l, c in table.get((i, j), ())))
            rhs = combine(
                table,
                (((k, m), x * y) for k, x in sigma.get((j,), ()) for m, y in sigma.get((i,), ())),
            )
            if lhs != rhs:
                raise ValueError("designated involution is not an anti-automorphism")


@dataclass(frozen=True)
class Multialgebra:
    """Finite-dimensional algebra given by structure constants.

    Immutable; construction runs check_roles: every tensor in canonical
    form over the field, the designated-product arity, and (when flagged)
    the unit and involution laws on basis tuples.
    """

    field: Field
    dim: int
    ops: tuple[OperationTensor, ...]
    product_index: int
    unit_index: Optional[int] = None
    involution_index: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.dim <= sys.maxsize:
            # a larger dim cannot be the length of a list, nor of an element
            raise ValueError(f"dimension must be in [0, {sys.maxsize}]")
        check_roles(self, self.dim, field_mod(self.field))

    @classmethod
    def _checked_already(
        cls,
        field: Field,
        dim: int,
        ops: tuple[OperationTensor, ...],
        product_index: int,
        unit_index: Optional[int] = None,
        involution_index: Optional[int] = None,
    ) -> "Multialgebra":
        """The algebra with these fields, built without __post_init__: for a
        caller whose tensors and designations pass check_roles by
        construction, as the base change of a checked Z form does
        (integral._restricted_fiber)."""
        alg = object.__new__(cls)
        alg.__dict__.update(
            field=field,
            dim=dim,
            ops=ops,
            product_index=product_index,
            unit_index=unit_index,
            involution_index=involution_index,
        )
        return alg

    def constants(self) -> list[Element]:
        """Values of all arity-0 operations."""
        return [
            validate_vector(self.field, eval_tensor(op, self.dim, ()), self.dim)
            for op in self.ops
            if op.arity == 0
        ]

    @cached_property
    def _scaled_ops(self) -> tuple[OperationTensor, ...]:
        """Over Q, each tensor times the lcm of its denominators, with int
        coefficients: a nonzero multiple of every value, for the closure's
        integer arithmetic."""
        scaled = []
        for op in self.ops:
            d = lcm(*(c.denominator for _, outs in op.entries for _, c in outs))
            entries = tuple(
                (idx, tuple((l, c.numerator * (d // c.denominator)) for l, c in outs))
                for idx, outs in op.entries
            )
            scaled.append(OperationTensor(arity=op.arity, entries=entries))
        return tuple(scaled)


# ---------------------------------------------------------------------------
# Subalgebra closure and generation
# ---------------------------------------------------------------------------


def _closure_reducer(
    alg: Multialgebra,
    rows: Sequence[Element],
    unital: bool,
    span: Optional[RowReducer] = None,
):
    """Close the span of rows under all operations; returns (span, monomial count).

    The span is a RowReducer over F_p and a RationalSpan over Q; both have
    dim and rows.  The seed is the rows, plus the arity-0 constants when
    unital.  Over F_p a caller that holds the seed's RREF already may pass
    it as span: the closure then starts from its rows, inserts no seed
    vector, and grows span in place.  The seed and then the operation values
    (_new_values) go through _grow, so the final dimension is the number of
    generators, and the monomial count is that minus the rank of the seed.

    Over Q only the span of a value matters, so the tensors scaled to
    integers (_scaled_ops) are evaluated on integer generators, and each
    value is first tested against the span of the generators mod P =
    _WITNESS_PRIME.  While the generators are independent mod P, a value v
    outside their span mod P is outside their span over Q: if v = sum_i
    a_i g_i over Q, clearing denominators gives d v = sum_i b_i g_i in
    integers with gcd(d, b_1, ...) = 1; P cannot divide d, for then sum_i
    b_i g_i = 0 mod P would force P to divide every b_i, so v is d^-1 sum_i
    b_i g_i mod P.  The same argument shows that generators independent mod
    P are independent over Q, so such a value becomes a new generator with
    no exact work, and r of them span Q^r.  Values inside the span mod P
    are kept pending.  When the values run out below full dimension, the
    exact span of the generators, one RationalSpan.add step per generator
    (they are independent), decides each pending value; one that is new
    over Q (P was a bad prime for it) becomes a generator, and the closure
    goes on exactly, the tuples of the generators so far done, as for a
    seed.  A bad prime costs time, never correctness, and no structure
    constant needs to be P-integral.

    Most pending values need no exact arithmetic, by a size bound.  Let
    bound = delta + max_k sum_i |rows[i][k]| over the non-pivot columns k of
    the exact span's canonical form (RationalSpan.size_limit).  A pending
    value v with max|v| * bound < P lies in the span.  For v = 0 that is
    plain.  Otherwise P does not divide delta <= bound < P, so the RREF rows
    rows[i] / delta are P-integral, each generator g = sum_i g[c_i]
    rows[i] / delta holds mod P, and the rows mod P are an RREF over F_P
    whose span holds the generators, so also v, which lies in their span
    mod P.  Hence each equation delta v[k] - sum_i v[c_i] rows[i][k] is 0
    mod P; smaller than P in absolute value, it is 0.  Larger values take
    the exact column test, and when bound >= P every nonzero value does,
    which covers P dividing delta.  A value within the bound lies in every
    span grown from this one, so the first bound serves all pending values.
    """
    r = alg.dim
    pending = None
    if alg.field == QQ:
        ops = alg._scaled_ops
        seed = [integral_row(v) for v in ([*rows, *alg.constants()] if unital else rows)]
        span = RationalSpan(r, _WITNESS_PRIME)
        pending = []
    else:
        ops = alg.ops
        if span is None:
            seed = [*rows, *alg.constants()] if unital else rows
            span = RowReducer(alg.field, r)
        else:
            seed = ()  # span holds the seed's RREF already
    # a new list: gens grows, and over odd p rows is the reducer's own list
    gens = list(span.rows)
    _grow(span, seed, gens, pending)
    base = seed_rank = len(gens)
    if pending and seed_rank < r:
        # a seed vector inside the span mod P may still be new over Q
        exact = RationalSpan(r)
        seed_rank = sum(1 for v in seed if exact.insert(v))
    _grow(span, _new_values(ops, r, gens, base, 0), gens, pending)
    if alg.field == QQ and not span.full:
        base = len(gens)
        span = RationalSpan(r)
        for g in gens:
            span.add(g)
        # the bound reads every column, so it waits for a value to settle
        if pending:
            limit = span.size_limit(_WITNESS_PRIME)
            _grow(span, (v for v in pending if max(map(abs, v)) > limit), gens)
        _grow(span, _new_values(ops, r, gens, base, base), gens)
    # a full span mod P is the identity RREF with delta 1, also its RREF over Q
    return span, len(gens) - seed_rank


def _grow(span, values: Iterable, gens: list, pending: Optional[list] = None) -> None:
    """Insert values into span until it is full, appending to gens whatever
    span.insert returns when the span grows; a value that does not grow it
    goes to pending when pending is given.

    The one closure loop, for a RowReducer over F_p, a RationalSpan over Q
    or mod P, and a HermiteReducer over Z.  It is semi-naive evaluation
    (Bancilhon and Ramakrishnan, SIGMOD 1986): gens holds the generators,
    first the span's rows or seed vectors, then each operation value that
    grew the span, as insert returns it, and _new_values evaluates every
    operation once on every tuple of generators, including the generators
    appended while it runs.  When those values run out below a full span,
    every operation on every tuple of generators lies in their span, which
    is therefore closed, since by multilinearity an operation on members of
    the span is a combination of its values on generators.  A full span is
    closed already, so no value is read once the span is full.
    """
    if span.full:
        return
    insert = span.insert
    for v in values:
        g = insert(v)
        if g is not None:
            gens.append(g)
            if span.full:
                return
        elif pending is not None:
            pending.append(v)


def _new_values(ops, width: int, gens: list, base: int, start: int):
    """eval_tensor of each op of positive arity on each tuple of generators
    with an index at least start, each tuple once.  gens[:base] are the
    seed's generators and start is 0 or base.  Reads gens as it grows, so
    the generators appended meanwhile are combined too.

    Two cursors walk gens.  The first takes generator j to the tuples of j
    and indices below min(j, base): a seed generator meets the seed
    generators before it, a later one the seed.  The second takes generator
    k >= base to its tuples with indices up to k that include one in
    [base, k), and moves only when the first has no generator left, so
    each new generator meets the seed before the other new generators.  A
    tuple whose highest index is m comes from the first cursor at m when
    its other indices lie below min(m, base), else from the second at m.
    So when both cursors reach the end of gens, every tuple of generators
    has been evaluated exactly once.

    A symmetric binary op takes each unordered pair once, since op(x, y) =
    op(y, x).  Binary tuples are built directly; other arities filter the
    tuples over range(m + 1).
    """
    ops = [op for op in ops if op.arity and op.entries]
    j, k = start, base
    while True:
        if j < len(gens):
            new, partners, first = j, range(min(j, base)), True
            j += 1
        elif k < len(gens):
            new, partners, first = k, range(base, k), False
            k += 1
        else:
            return
        g = gens[new]
        for op in ops:
            if op.arity == 2:
                both = not op.symmetric
                for a in partners:
                    h = gens[a]
                    yield eval_tensor(op, width, (h, g))
                    if both:
                        yield eval_tensor(op, width, (g, h))
                if first:
                    yield eval_tensor(op, width, (g, g))
                continue
            for idx in itertools.product(range(new + 1), repeat=op.arity):
                # the first cursor's tuples are those whose other indices lie below base
                if new in idx and all(a < base or a == new for a in idx) == first:
                    yield eval_tensor(op, width, [gens[a] for a in idx])


def integral_row(v: Sequence[Scalar]) -> list[int]:
    """A rational vector times the lcm of its denominators."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]


@dataclass(frozen=True)
class GenerationCertificate:
    """Replayable record that a tuple was tested for generation.

    monomial_count is closure_dim minus the rank of the elements (with the
    arity-0 constants when unital): the number of operation values that
    enlarged the span.  It depends only on the closure, not on the order in
    which the closure was computed.  A random search records its seed and
    trial, an exhaustive one its index, and an explicit test neither.
    """

    elements: tuple[Element, ...]
    closure_dim: int
    ambient_dim: int
    unital: bool
    monomial_count: int
    seed: Optional[int] = None
    trial: Optional[int] = None
    index: Optional[int] = None

    def __post_init__(self):
        if (self.seed is None) != (self.trial is None) or None not in (self.trial, self.index):
            raise ValueError("provenance must be a seed and trial, an index, or neither")

    @property
    def method(self) -> str:
        if self.trial is not None:
            return "random"
        return "explicit" if self.index is None else "exhaustive"

    @property
    def generates(self) -> bool:
        return self.closure_dim == self.ambient_dim


def is_generating(
    alg: Multialgebra,
    elements: Iterable[Sequence[Scalar]],
    unital: bool = False,
    span: Optional[RowReducer] = None,
) -> tuple[bool, GenerationCertificate]:
    """Decide whether the tuple generates; always returns a certificate, of method "explicit".

    Without span the elements are validated and coerced into the field.
    span, over F_p only, is a RowReducer holding the RREF of the elements
    (with the constants when unital); the elements must then be tuples of
    length dim with coordinates in [0, p), and are taken as they are.  The
    closure starts from span and grows it in place (see _closure_reducer)."""
    if span is None:
        rows = tuple(validate_vector(alg.field, v, alg.dim) for v in elements)
    else:
        rows = tuple(elements)
    span, monomials = _closure_reducer(alg, rows, unital, span)
    cert = GenerationCertificate(
        elements=rows,
        closure_dim=span.dim,
        ambient_dim=alg.dim,
        unital=unital,
        monomial_count=monomials,
    )
    return span.dim == alg.dim, cert


def replay_certificate(alg: Multialgebra, cert: GenerationCertificate) -> bool:
    """Rerun is_generating on the recorded elements and compare the closure."""
    try:
        _, fresh = is_generating(alg, cert.elements, unital=cert.unital)
    except ValueError:
        return False
    recount = (fresh.ambient_dim, fresh.closure_dim, fresh.monomial_count)
    return recount == (cert.ambient_dim, cert.closure_dim, cert.monomial_count)
