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

from .fields import GF, QQ, Field, Scalar, validate_vector
from .linalg import EchelonBasis, RowReducer

Element = tuple[Scalar, ...]

# Closures over Q are first run mod this prime (see _closure_reducer).  It is
# small enough that GF's trial-division primality check takes milliseconds.
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


@dataclass(frozen=True)
class Multialgebra:
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

    # -- evaluation --------------------------------------------------------

    def _value(self, op: OperationTensor, args) -> Element:
        return validate_vector(self.field, eval_tensor(op, self.dim, args), self.dim)

    def evaluate(self, op_index: int, args: Sequence[Sequence[Scalar]]) -> Element:
        if not 0 <= op_index < len(self.ops):
            raise ValueError(f"no operation {op_index}")
        op = self.ops[op_index]
        if len(args) != op.arity:
            raise ValueError(f"operation {op_index} has arity {op.arity}, got {len(args)} arguments")
        return self._value(op, [validate_vector(self.field, a, self.dim) for a in args])

    def product(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Element:
        return self.evaluate(self.product_index, (x, y))

    def unit_vector(self) -> Element:
        if self.unit_index is None:
            raise ValueError("algebra has no designated unit")
        return self._value(self.ops[self.unit_index], ())

    def involution(self, x: Sequence[Scalar]) -> Element:
        if self.involution_index is None:
            raise ValueError("algebra has no designated involution")
        return self.evaluate(self.involution_index, (x,))

    def constants(self) -> list[Element]:
        """Values of all arity-0 operations."""
        return [self._value(op, ()) for op in self.ops if op.arity == 0]

    @cached_property
    def _reduced(self) -> Optional["Multialgebra"]:
        """This algebra over F_P for P = _WITNESS_PRIME, or None when the field
        is not Q or some structure constant is not P-integral."""
        if self.field != QQ:
            return None
        try:
            return reduce_mod_p(self, _WITNESS_PRIME)
        except ValueError:
            return None

    @cached_property
    def _scaled_ops(self) -> tuple[OperationTensor, ...]:
        """Over Q, each tensor times the lcm of its denominators, with int
        coefficients: a nonzero multiple of every value, for the closure's
        integer rounds."""
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
    when unital.  Rounds evaluate every positive-arity operation on all
    tuples of the canonical basis taken at the start of the round
    (lexicographic order); by multilinearity this is sufficient.  Each round
    either grows the dimension or is the fixpoint, so at most dim
    enlargement rounds run.  The monomial count is the final dimension minus
    the rank of the seed.

    Over Q everything after the seed is integer arithmetic: only the span of
    a value matters, so the tensors scaled to integers (_scaled_ops) are
    evaluated on basis rows scaled to integers, and _RationalSpan keeps the
    RREF over a common denominator.  When the structure constants and the
    seed are P-integral, the seed is first closed over F_P
    (_modular_witness).  Let L be the Z_(P)-lattice spanned by the basis and
    S the Z_(P)-subalgebra of L generated by the seed: S spans the closure
    over Q, and its image in L/PL is the closure of the reduced seed.  If
    that closure is full, then L = S + PL, so L = S by Nakayama's lemma and
    the seed generates over Q.  Otherwise the straight-line steps of the
    modular run are replayed over Q; their values lie in the closure by
    construction, and the rounds then decide the rest exactly, so a bad
    prime costs time, never correctness.
    """
    field = alg.field
    r = alg.dim
    seed = [*rows, *alg.constants()] if unital else rows
    if field == QQ:
        span = _RationalSpan(r)
        ops, grow, basis = alg._scaled_ops, span.grow, span.basis
        for v in seed:
            grow(_integral_row(v))
    else:
        span = RowReducer(field, r)
        ops, grow = alg.ops, span.insert

        def basis():
            # a copy: inserts rewrite the rows in place during the round
            return [tuple(row) for row in span.rows]

        for v in seed:
            grow(v)
    seed_dim = span.dim
    if seed_dim < r and alg._reduced is not None:
        witness = _modular_witness(alg._reduced, seed)
        if witness is not None:
            kept, steps = witness
            if steps is None:
                span.fill()
                return span, r - seed_dim
            values = [_integral_row(seed[i]) for i in kept]
            for op_index, args in steps:
                values.append(eval_tensor(ops[op_index], r, [values[a] for a in args]))
                grow(values[-1])
    if span.dim == r:
        return span, r - seed_dim
    ops = [op for op in ops if op.arity and op.entries]
    while True:
        basis_rows = basis()
        grew = False
        for op in ops:
            for args in itertools.product(basis_rows, repeat=op.arity):
                if grow(eval_tensor(op, r, args)):
                    grew = True
                    if span.dim == r:
                        return span, r - seed_dim
        if not grew:
            return span, span.dim - seed_dim


def _integral_row(v: Sequence[Scalar]) -> list[int]:
    """A rational vector times the lcm of its denominators."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]


class _RationalSpan:
    """A subspace of Q^width as its RREF held in integers.

    rows[i] is delta * R_i for the RREF rows R_i (pivot pivots[i]) and delta
    the lcm of their denominators, so the snapshot is exactly the RREF a
    RowReducer over Q would hold.  A vector u lies in the span iff
    delta * u[k] = sum_i u[pivots[i]] * rows[i][k] for every non-pivot
    column k, the only candidate combination being sum_i u[pivots[i]] R_i.
    Test and insert are scale-invariant, so u may be any nonzero integer
    multiple of a value, as scaled tensors on scaled rows produce.
    """

    def __init__(self, width: int):
        self.width = width
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

    def grow(self, u: Sequence[int]) -> bool:
        """Insert u unless it lies in the span; True iff the span grew."""
        delta = self.delta
        for k, column in self.columns:
            if delta * u[k] != sum([u[c] * s for c, s in column]):
                self._insert(u)
                return True
        return False

    def _insert(self, u: Sequence[int]):
        delta = self.delta
        # w = delta * (u - sum_i u[c_i] R_i): zero on the pivot columns
        w = [delta * x for x in u]
        for c, row in zip(self.pivots, self.rows):
            a = u[c]
            if a:
                w = [x - a * y for x, y in zip(w, row)]
        q = next(k for k, x in enumerate(w) if x)
        lead = w[q]
        # the new row is w / lead; clearing column q from R_i and moving to
        # the denominator delta * lead turns rows[i] into lead * rows[i] -
        # rows[i][q] * w, and the new row into delta * w
        rows = [[lead * x - row[q] * y for x, y in zip(row, w)] for row in self.rows]
        at = next((i for i, c in enumerate(self.pivots) if c > q), len(self.pivots))
        rows.insert(at, [delta * x for x in w])
        delta *= lead
        g = gcd(delta, *(x for row in rows for x in row))
        if delta < 0:
            g = -g
        self.delta = delta // g
        self.rows = [[x // g for x in row] for row in rows]
        self.pivots.insert(at, q)
        self._equations()

    def basis(self) -> list[list[int]]:
        """The RREF rows, each scaled to primitive integers."""
        out = []
        for row in self.rows:
            g = gcd(*row)
            out.append([x // g for x in row])
        return out

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


def _modular_witness(reduced: Multialgebra, seed: Sequence[Element]):
    """Close the seed in the algebra over F_P as a straight-line program.

    Operations are evaluated on the growing list of generators: the seed
    vectors that enlarged the span (their indices are returned as kept),
    then every value that enlarged it, recorded as an (op index, argument
    indices) step.  Generator j is combined with all earlier generators, so
    the list spans the closure when the loop ends.  Returns None when a seed
    entry is not P-integral, (kept, None) when the closure is the whole
    algebra, and (kept, steps) otherwise.
    """
    field = reduced.field
    p = field.p
    r = reduced.dim
    try:
        gens = [validate_vector(field, v, r) for v in seed]
    except ValueError:
        return None
    reducer = RowReducer(field, r)
    kept = [i for i, v in enumerate(gens) if reducer.insert(v)]
    gens = [gens[i] for i in kept]
    steps = []
    ops = [(k, op) for k, op in enumerate(reduced.ops) if op.arity and op.entries]
    j = 0
    while j < len(gens):
        for op_index, op in ops:
            for args in itertools.product(range(j + 1), repeat=op.arity):
                if j not in args:
                    continue
                value = eval_tensor(op, r, [gens[a] for a in args])
                if reducer.insert(value):
                    if reducer.dim == r:
                        return kept, None
                    gens.append([x % p for x in value])
                    steps.append((op_index, args))
        j += 1
    return kept, steps


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


# ---------------------------------------------------------------------------
# Reduction mod p of a rational algebra
# ---------------------------------------------------------------------------


def reduce_mod_p(alg: Multialgebra, p: int) -> Multialgebra:
    """The same structure constants over F_p; all entries must be p-integral."""
    if alg.field != QQ:
        raise ValueError("reduce_mod_p expects an algebra over Q")
    target = GF(p)
    ops = []
    for op in alg.ops:
        triples = []
        for idx, outs in op.entries:
            for l, c in outs:
                if c.denominator % p == 0:
                    raise ValueError(f"coefficient {c} is not {p}-integral")
                triples.append((idx, l, target.coerce(c)))
        ops.append(make_tensor(target, alg.dim, op.arity, triples))
    return Multialgebra(
        field=target,
        dim=alg.dim,
        ops=tuple(ops),
        product_index=alg.product_index,
        unit_index=alg.unit_index,
        involution_index=alg.involution_index,
    )


def base_change_check(
    alg: Multialgebra, p: int, elements: Iterable[Sequence[Scalar]], unital: bool = False
) -> bool:
    """is_generating after reducing a rational algebra and tuple mod p."""
    reduced = reduce_mod_p(alg, p)
    target = reduced.field
    projected = []
    for v in elements:
        vec = validate_vector(QQ, v, alg.dim)
        projected.append(tuple(target.coerce(x) for x in vec))
    ok, _ = is_generating(reduced, projected, unital=unital)
    return ok
