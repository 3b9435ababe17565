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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .fields import QQ, Field, Scalar, validate_vector
from .linalg import EchelonBasis, RowReducer

Element = tuple[Scalar, ...]

# Closures over Q test each value against the span mod this prime first (see
# _closure_reducer).  Any prime gives the same closures; one that rarely
# divides the data met in practice leaves few values to the exact test.
_WITNESS_PRIME = 2**31 - 1


@dataclass(frozen=True)
class OperationTensor:
    """Sparse k-multilinear map on basis indices.

    entries maps are stored canonically: index tuples ascending, and for each
    index tuple the (output index, coefficient) pairs ascending with zero
    coefficients dropped.  Arity 0 encodes a constant vector under the empty
    index tuple.
    """

    arity: int
    entries: tuple[tuple[tuple[int, ...], tuple[tuple[int, Scalar], ...]], ...]


def make_tensor(
    field: Field,
    dim: int,
    arity: int,
    triples: Iterable[tuple[Sequence[int], int, object]],
) -> OperationTensor:
    """Build a canonical tensor from (index tuple, output index, coefficient) triples."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
    for idx, out, coeff in triples:
        idx = tuple(int(i) for i in idx)
        if len(idx) != arity:
            raise ValueError(f"index tuple {idx} does not match arity {arity}")
        if any(not 0 <= i < dim for i in idx) or not 0 <= int(out) < dim:
            raise ValueError(f"tensor index out of range for dimension {dim}")
        row = acc.setdefault(idx, {})
        out = int(out)
        row[out] = field.add(row.get(out, field.zero), field.coerce(coeff))
    entries = []
    for idx in sorted(acc):
        outs = tuple((l, c) for l, c in sorted(acc[idx].items()) if c != field.zero)
        if outs:
            entries.append((idx, outs))
    return OperationTensor(arity=arity, entries=tuple(entries))


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


def check_roles(ops, dim: int, product_index: int, unit_index, involution_index, reduce) -> None:
    """Validate the designated product, unit and involution of an algebra.

    The unit and involution laws are checked on basis tuples, which suffices
    by multilinearity, reading each tensor once: e.b_i = b_i = b_i.e from the
    matrices of left and right multiplication by e, built in one pass over
    the product entries, and sigma(sigma(b_i)) = b_i and sigma(b_i.b_j) =
    sigma(b_j).sigma(b_i) with every tensor value looked up by its index
    tuple.  reduce maps an unreduced coordinate list to the canonical list
    the laws compare (% p over F_p, identity over Q, mod the invariant
    factors over Z).
    """
    if not 0 <= product_index < len(ops):
        raise ValueError("product index out of range")
    if ops[product_index].arity != 2:
        raise ValueError("designated product must have arity 2")
    prod = ops[product_index].entries
    basis = [[int(k == i) for k in range(dim)] for i in range(dim)]
    if unit_index is not None:
        if not 0 <= unit_index < len(ops):
            raise ValueError("unit index out of range")
        if ops[unit_index].arity != 0:
            raise ValueError("designated unit must have arity 0")
        e = reduce(eval_tensor(ops[unit_index], dim, ()))
        left = [[0] * dim for _ in range(dim)]
        right = [[0] * dim for _ in range(dim)]
        # left[j] accumulates e.b_j and right[i] accumulates b_i.e
        for (i, j), outs in prod:
            for x, row in ((e[i], left[j]), (e[j], right[i])):
                if x:
                    for l, c in outs:
                        row[l] += x * c
        for i in range(dim):
            if reduce(left[i]) != basis[i] or reduce(right[i]) != basis[i]:
                raise ValueError("designated unit fails the unit law")
    if involution_index is not None:
        if not 0 <= involution_index < len(ops):
            raise ValueError("involution index out of range")
        if ops[involution_index].arity != 1:
            raise ValueError("designated involution must have arity 1")
        sigma = dict(ops[involution_index].entries)
        table = dict(prod)

        def combine(tensor, terms):
            # sum of x * tensor[idx] over the (idx, x) terms, reduced
            out = [0] * dim
            for idx, x in terms:
                for l, c in tensor.get(idx, ()):
                    out[l] += x * c
            return reduce(out)

        images = [sigma.get((i,), ()) for i in range(dim)]
        for i in range(dim):
            if combine(sigma, (((l,), c) for l, c in images[i])) != basis[i]:
                raise ValueError("designated involution is not an involution")
        for i in range(dim):
            for j in range(dim):
                lhs = combine(sigma, (((l,), c) for l, c in table.get((i, j), ())))
                rhs = combine(
                    table, (((k, m), x * y) for k, x in images[j] for m, y in images[i])
                )
                if lhs != rhs:
                    raise ValueError("designated involution is not an anti-automorphism")


class ElementAPI:
    """evaluate, product, unit_vector and involution, written once.  The
    subclass vets each argument (_vet) and evaluates an operation to its
    canonical value (_value), the way check_roles takes its reduce."""

    def evaluate(self, op_index: int, args: Sequence[Sequence]) -> tuple:
        if not 0 <= op_index < len(self.ops):
            raise ValueError(f"no operation {op_index}")
        op = self.ops[op_index]
        if len(args) != op.arity:
            raise ValueError(f"operation {op_index} has arity {op.arity}, got {len(args)} arguments")
        return self._value(op, [self._vet(a) for a in args])

    def product(self, x: Sequence, y: Sequence) -> tuple:
        return self.evaluate(self.product_index, (x, y))

    def unit_vector(self) -> tuple:
        if self.unit_index is None:
            raise ValueError("algebra has no designated unit")
        return self._value(self.ops[self.unit_index], ())

    def involution(self, x: Sequence) -> tuple:
        if self.involution_index is None:
            raise ValueError("algebra has no designated involution")
        return self.evaluate(self.involution_index, (x,))


@dataclass(frozen=True)
class Multialgebra(ElementAPI):
    """Finite-dimensional algebra given by structure constants.

    Immutable; construction validates index ranges, the designated-product
    arity, and (when flagged) the unit and involution laws on basis tuples,
    which suffices by multilinearity.
    """

    field: Field
    dim: int
    ops: tuple[OperationTensor, ...]
    product_index: int
    unit_index: Optional[int] = None
    involution_index: Optional[int] = None

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        p = self.field.char
        check_roles(
            self.ops,
            self.dim,
            self.product_index,
            self.unit_index,
            self.involution_index,
            (lambda v: [x % p for x in v]) if p else list,
        )

    # -- evaluation: arguments and values are coerced into the field ---------

    def _vet(self, v: Sequence[Scalar]) -> Element:
        return validate_vector(self.field, v, self.dim)

    def _value(self, op: OperationTensor, args) -> Element:
        return self._vet(eval_tensor(op, self.dim, args))

    def constants(self) -> list[Element]:
        """Values of all arity-0 operations."""
        return [self._value(op, ()) for op in self.ops if op.arity == 0]

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


def _closure_reducer(alg: Multialgebra, rows: Sequence[Element], unital: bool):
    """Close the span of rows under all operations; returns (span, monomial count).

    The span is a RowReducer over F_p and a _RationalSpan over Q; both have
    dim and snapshot().  The seed is the rows, plus the arity-0 constants
    when unital.  One straight-line loop keeps a list of generators: first
    the seed vectors that enlarged the span, then every operation value that
    enlarged it.  Generator j is combined with the index tuples that contain
    j and earlier generators only.  The loop stops at full dimension or when
    the list runs out; then every operation on every tuple of generators
    lies in their span, which is therefore closed (by multilinearity it is
    the closure), and its dimension is the number of generators.  The
    monomial count is the final dimension minus the rank of the seed.

    Over F_p each generator is the reduced row that RowReducer.insert adds.
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
    are kept pending.  When the generators run out below full dimension,
    the exact span of the generators decides each pending value; one that
    is new over Q (P was a bad prime for it) becomes a generator, and the
    loop goes on testing every value exactly.  A bad prime costs time,
    never correctness, and no structure constant needs to be P-integral.
    """
    r = alg.dim
    seed = [*rows, *alg.constants()] if unital else rows
    if alg.field == QQ:
        ops = alg._scaled_ops
        seed = [integral_row(v) for v in seed]
        span = _RationalSpan(r, _WITNESS_PRIME)
        pending = []
    else:
        ops = alg.ops
        span = RowReducer(alg.field, r)
        pending = None
    grow = span.insert
    gens = []
    for v in seed:
        g = grow(v)
        if g:
            gens.append(g)
        elif pending is not None:
            pending.append(v)
    seed_rank = len(gens)
    if pending and seed_rank < r:
        # a seed vector inside the span mod P may still be new over Q
        exact = _RationalSpan(r)
        seed_rank = sum(1 for v in seed if exact.insert(v))
    ops = [op for op in ops if op.arity and op.entries]
    start = 0
    while len(gens) < r:
        for op, args in _new_tuples(ops, gens, start):
            value = eval_tensor(op, r, args)
            g = grow(value)
            if g:
                gens.append(g)
                if len(gens) == r:
                    break
            elif pending is not None:
                pending.append(value)
        if pending is None or len(gens) == r:
            break
        # the mod-P generators ran out: decide the pending values exactly
        start = len(gens)
        span = _RationalSpan(r)
        grow = span.insert
        for g in gens:
            grow(g)
        gens += [v for v in pending if grow(v)]
        pending = None
    if pending is not None:
        # the generators reached full dimension mod P, so over Q as well
        span = _RationalSpan(r)
        span.fill()
    return span, len(gens) - seed_rank


def _new_tuples(ops, gens: list, start: int):
    """(op, arguments) for each op and each tuple of generators whose
    highest index j is at least start; reads gens as it grows, so the
    generators appended meanwhile are combined too."""
    j = start
    while j < len(gens):
        for op in ops:
            for idx in itertools.product(range(j + 1), repeat=op.arity):
                if j in idx:
                    yield op, [gens[a] for a in idx]
        j += 1


def integral_row(v: Sequence[Scalar]) -> list[int]:
    """A rational vector times the lcm of its denominators."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]


class _RationalSpan:
    """A subspace of Q^width as its RREF held in integers, or with a modulus
    P the span of integer vectors reduced mod P as its RREF over F_P.

    rows[i] is delta * R_i for the RREF rows R_i (pivot pivots[i]); delta is
    the lcm of their denominators over Q, so the snapshot is exactly the RREF
    a RowReducer over Q would hold, and 1 mod P.  A vector u lies in the
    span iff delta * u[k] = sum_i u[pivots[i]] * rows[i][k] (mod P) for
    every non-pivot column k, the only candidate combination being sum_i
    u[pivots[i]] R_i.  Test and insert are scale-invariant, so u may be any
    nonzero integer multiple of a value, as scaled tensors on integer
    vectors produce.
    """

    def __init__(self, width: int, modulus: int = 0):
        self.width = width
        self.modulus = modulus
        self.delta = 1
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self._equations()

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _equations(self):
        # per non-pivot column k, the (pivot, rows[i][k]) terms that are nonzero
        taken = set(self.pivots)
        self.columns = [
            (k, [(c, row[k]) for c, row in zip(self.pivots, self.rows) if row[k]])
            for k in range(self.width)
            if k not in taken
        ]

    def insert(self, u: Sequence[int]):
        """Add u unless it lies in the span; returns u if the span grew,
        else None."""
        delta, p = self.delta, self.modulus
        for k, column in self.columns:
            d = delta * u[k] - sum([u[c] * s for c, s in column])
            if d % p if p else d:
                self._add(u)
                return u
        return None

    def _add(self, u: Sequence[int]):
        delta, p = self.delta, self.modulus
        # w = delta * (u - sum_i u[c_i] R_i): zero on the pivot columns
        w = [delta * x for x in u]
        for c, row in zip(self.pivots, self.rows):
            a = u[c]
            if a:
                w = [x - a * y for x, y in zip(w, row)]
        if p:
            w = [x % p for x in w]
        q = next(k for k, x in enumerate(w) if x)
        lead = w[q]
        # the new row is w / lead; clearing column q from R_i and moving to
        # the denominator delta * lead turns rows[i] into lead * rows[i] -
        # rows[i][q] * w, and the new row into delta * w
        rows = [[lead * x - row[q] * y for x, y in zip(row, w)] for row in self.rows]
        at = next((i for i, c in enumerate(self.pivots) if c > q), len(self.pivots))
        rows.insert(at, [delta * x for x in w])
        delta *= lead
        if p:
            # back to delta = 1 over F_P
            g = pow(delta, -1, p)
            self.delta = 1
            self.rows = [[x * g % p for x in row] for row in rows]
        else:
            g = gcd(delta, *(x for row in rows for x in row))
            if delta < 0:
                g = -g
            self.delta = delta // g
            self.rows = [[x // g for x in row] for row in rows]
        self.pivots.insert(at, q)
        self._equations()

    def fill(self):
        """Become the whole space."""
        r = self.width
        self.delta = 1
        self.rows = [[int(j == i) for j in range(r)] for i in range(r)]
        self.pivots = list(range(r))
        self._equations()

    def snapshot(self) -> EchelonBasis:
        return EchelonBasis(
            field=QQ,
            width=self.width,
            rows=tuple(tuple(Fraction(x, self.delta) for x in row) for row in self.rows),
            pivots=tuple(self.pivots),
        )


@dataclass(frozen=True)
class GenerationCertificate:
    """Replayable record that a tuple was tested for generation.

    monomial_count is closure_dim minus the rank of the elements (with the
    arity-0 constants when unital): the number of operation values that
    enlarged the span.  It depends only on the closure, not on the order in
    which the closure was computed.
    """

    elements: tuple[Element, ...]
    closure_dim: int
    ambient_dim: int
    unital: bool
    monomial_count: int
    method: str = "explicit"
    seed: Optional[int] = None
    trial: Optional[int] = None
    index: Optional[int] = None

    @property
    def generates(self) -> bool:
        return self.closure_dim == self.ambient_dim


def closure(alg: Multialgebra, seed: Iterable[Sequence[Scalar]], unital: bool = False) -> EchelonBasis:
    """Canonical basis of the smallest subalgebra containing the seed.

    With unital set, all arity-0 constants are adjoined; without it they are
    excluded and the non-unital subalgebra is computed.
    """
    rows = [validate_vector(alg.field, v, alg.dim) for v in seed]
    span, _ = _closure_reducer(alg, rows, unital)
    return span.snapshot()


def is_generating(
    alg: Multialgebra,
    elements: Iterable[Sequence[Scalar]],
    unital: bool = False,
    method: str = "explicit",
    seed: Optional[int] = None,
    trial: Optional[int] = None,
    index: Optional[int] = None,
) -> tuple[bool, GenerationCertificate]:
    """Decide whether the tuple generates; always returns a certificate."""
    rows = tuple(validate_vector(alg.field, v, alg.dim) for v in elements)
    span, monomials = _closure_reducer(alg, rows, unital)
    cert = GenerationCertificate(
        elements=rows,
        closure_dim=span.dim,
        ambient_dim=alg.dim,
        unital=unital,
        monomial_count=monomials,
        method=method,
        seed=seed,
        trial=trial,
        index=index,
    )
    return span.dim == alg.dim, cert


def replay_certificate(alg: Multialgebra, cert: GenerationCertificate) -> bool:
    """Recompute the closure recorded in a certificate and compare."""
    if cert.ambient_dim != alg.dim:
        return False
    try:
        rows = tuple(validate_vector(alg.field, v, alg.dim) for v in cert.elements)
    except ValueError:
        return False
    span, monomials = _closure_reducer(alg, rows, cert.unital)
    return span.dim == cert.closure_dim and monomials == cert.monomial_count
