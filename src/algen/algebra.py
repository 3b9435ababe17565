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
from functools import cached_property
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


def _basis_vector(field: Field, dim: int, i: int) -> Element:
    return tuple(field.one if j == i else field.zero for j in range(dim))


def _eval_tensor(op: OperationTensor, field: Field, dim: int, args) -> list:
    """Multilinear extension of the tensor applied to coordinate vectors."""
    zero = field.zero
    mul, add = field.mul, field.add
    out = [zero] * dim
    for idx, outs in op.entries:
        c = field.one
        for slot, i in enumerate(idx):
            x = args[slot][i]
            if x == zero:
                c = zero
                break
            c = mul(c, x)
        if c != zero:
            for l, coeff in outs:
                out[l] = add(out[l], mul(c, coeff))
    return out


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
        if not 0 <= self.product_index < len(self.ops):
            raise ValueError("product index out of range")
        if self.ops[self.product_index].arity != 2:
            raise ValueError("designated product must have arity 2")
        if self.unit_index is not None:
            if not 0 <= self.unit_index < len(self.ops):
                raise ValueError("unit index out of range")
            if self.ops[self.unit_index].arity != 0:
                raise ValueError("designated unit must have arity 0")
            self._check_unit()
        if self.involution_index is not None:
            if not 0 <= self.involution_index < len(self.ops):
                raise ValueError("involution index out of range")
            if self.ops[self.involution_index].arity != 1:
                raise ValueError("designated involution must have arity 1")
            self._check_involution()

    # -- evaluation --------------------------------------------------------

    def evaluate(self, op_index: int, args: Sequence[Sequence[Scalar]]) -> Element:
        if not 0 <= op_index < len(self.ops):
            raise ValueError(f"no operation {op_index}")
        op = self.ops[op_index]
        if len(args) != op.arity:
            raise ValueError(f"operation {op_index} has arity {op.arity}, got {len(args)} arguments")
        vetted = [validate_vector(self.field, a, self.dim) for a in args]
        return tuple(_eval_tensor(op, self.field, self.dim, vetted))

    def product(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Element:
        return self.evaluate(self.product_index, (x, y))

    def unit_vector(self) -> Element:
        if self.unit_index is None:
            raise ValueError("algebra has no designated unit")
        return tuple(_eval_tensor(self.ops[self.unit_index], self.field, self.dim, ()))

    def involution(self, x: Sequence[Scalar]) -> Element:
        if self.involution_index is None:
            raise ValueError("algebra has no designated involution")
        return self.evaluate(self.involution_index, (x,))

    def constants(self) -> list[Element]:
        """Values of all arity-0 operations."""
        return [
            tuple(_eval_tensor(op, self.field, self.dim, ()))
            for op in self.ops
            if op.arity == 0
        ]

    # -- law checks (constructor-time) ---------------------------------------

    def _check_unit(self):
        """e.b_i = b_i = b_i.e for every i, from the matrices of left and right
        multiplication by e, both built in one pass over the product entries."""
        field, r = self.field, self.dim
        zero, add, mul = field.zero, field.add, field.mul
        e = _eval_tensor(self.ops[self.unit_index], field, r, ())
        left = [[zero] * r for _ in range(r)]
        right = [[zero] * r for _ in range(r)]
        # left[j] accumulates e.b_j and right[i] accumulates b_i.e
        for (i, j), outs in self.ops[self.product_index].entries:
            for x, row in ((e[i], left[j]), (e[j], right[i])):
                if x != zero:
                    for l, c in outs:
                        row[l] = add(row[l], mul(x, c))
        for i in range(r):
            b = list(_basis_vector(field, r, i))
            if left[i] != b or right[i] != b:
                raise ValueError("designated unit fails the unit law")

    def _check_involution(self):
        """sigma(sigma(b_i)) = b_i and sigma(b_i.b_j) = sigma(b_j).sigma(b_i),
        with every tensor value looked up by its index tuple."""
        field, r = self.field, self.dim
        zero, add, mul = field.zero, field.add, field.mul
        sigma = dict(self.ops[self.involution_index].entries)
        prod = dict(self.ops[self.product_index].entries)

        def combine(table, terms):
            # sum of x * table[idx] over the (idx, x) terms, as a dense vector
            out = [zero] * r
            for idx, x in terms:
                for l, c in table.get(idx, ()):
                    out[l] = add(out[l], mul(x, c))
            return out

        images = [sigma.get((i,), ()) for i in range(r)]
        for i in range(r):
            twice = combine(sigma, (((l,), c) for l, c in images[i]))
            if twice != list(_basis_vector(field, r, i)):
                raise ValueError("designated involution is not an involution")
        for i in range(r):
            for j in range(r):
                lhs = combine(sigma, (((l,), c) for l, c in prod.get((i, j), ())))
                rhs = combine(
                    prod, (((k, m), mul(x, y)) for k, x in images[j] for m, y in images[i])
                )
                if lhs != rhs:
                    raise ValueError("designated involution is not an anti-automorphism")

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


# ---------------------------------------------------------------------------
# Subalgebra closure and generation
# ---------------------------------------------------------------------------


def _closure_reducer(alg: Multialgebra, rows: Sequence[Element], unital: bool) -> tuple[RowReducer, int]:
    """Close the span of rows under all operations; returns (reducer, monomial count).

    The seed is the rows, plus the arity-0 constants when unital.  Rounds
    evaluate every positive-arity operation on all tuples of the current
    canonical basis (lexicographic order); by multilinearity this is
    sufficient.  Each round either grows the dimension or is the fixpoint,
    so at most dim enlargement rounds run.  The monomial count is the final
    dimension minus the rank of the seed.

    Over Q, when the structure constants and the seed are P-integral, the
    seed is first closed over F_P (_modular_witness).  Let L be the
    Z_(P)-lattice spanned by the basis and S the Z_(P)-subalgebra of L
    generated by the seed: S spans the closure over Q, and its image in L/PL
    is the closure of the reduced seed.  If that closure is full, then
    L = S + PL, so L = S by Nakayama's lemma and the seed generates over Q.
    Otherwise the straight-line steps of the modular run are replayed over
    Q; their values lie in the closure by construction, and the rounds then
    decide the rest exactly, so a bad prime costs time, never correctness.
    """
    field = alg.field
    r = alg.dim
    seed = [*rows, *alg.constants()] if unital else rows
    reducer = RowReducer(field, r)
    for v in seed:
        reducer.insert(v)
    seed_dim = reducer.dim
    if seed_dim < r and alg._reduced is not None:
        witness = _modular_witness(alg._reduced, seed)
        if witness is not None:
            kept, steps = witness
            if steps is None:
                reducer.rows = [list(_basis_vector(field, r, i)) for i in range(r)]
                reducer.pivots = list(range(r))
                return reducer, r - seed_dim
            values = [seed[i] for i in kept]
            for op_index, args in steps:
                value = _eval_tensor(alg.ops[op_index], field, r, [values[a] for a in args])
                values.append(value)
                reducer.insert(value)
    if reducer.dim == r:
        return reducer, r - seed_dim
    while True:
        basis_rows = [tuple(row) for row in reducer.rows]
        grew = False
        for op in alg.ops:
            if op.arity == 0 or not op.entries:
                continue
            for args in itertools.product(basis_rows, repeat=op.arity):
                value = _eval_tensor(op, field, r, args)
                if reducer.insert(value):
                    grew = True
                    if reducer.dim == r:
                        return reducer, r - seed_dim
        if not grew:
            return reducer, reducer.dim - seed_dim


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
                value = _eval_tensor(op, field, r, [gens[a] for a in args])
                if reducer.insert(value):
                    if reducer.dim == r:
                        return kept, None
                    gens.append(value)
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
    reducer, _ = _closure_reducer(alg, rows, unital)
    return reducer.snapshot()


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
    reducer, monomials = _closure_reducer(alg, rows, unital)
    cert = GenerationCertificate(
        elements=rows,
        closure_dim=reducer.dim,
        ambient_dim=alg.dim,
        unital=unital,
        monomial_count=monomials,
        method=method,
        seed=seed,
        trial=trial,
        index=index,
    )
    return reducer.dim == alg.dim, cert


def replay_certificate(alg: Multialgebra, cert: GenerationCertificate) -> bool:
    """Recompute the closure recorded in a certificate and compare."""
    if cert.ambient_dim != alg.dim:
        return False
    try:
        rows = tuple(validate_vector(alg.field, v, alg.dim) for v in cert.elements)
    except ValueError:
        return False
    reducer, monomials = _closure_reducer(alg, rows, cert.unital)
    return reducer.dim == cert.closure_dim and monomials == cert.monomial_count


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
