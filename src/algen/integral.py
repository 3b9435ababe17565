"""Algebras over the integers: finitely presented modules with exact fibers.

The underlying module M is stored in invariant-factor coordinates:
M = Z/d_1 + ... + Z/d_m with every d_i >= 0 (0 marks a free coordinate),
the nonzero factors leading in a divisibility chain d_1 | d_2 | ..., and no
trivial factor 1.  Elements are integer coordinate vectors read mod d_i, so
reduction mod a prime and rational base change are coordinatewise, and
subgroup computations happen in Z^m through Hermite normal forms.

Arbitrary integer presentations (generators and a relation matrix) are
normalized to this shape by a Smith decomposition that also conjugates the
operation tensors.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

from .algebra import (
    Multialgebra,
    OperationTensor,
    _grow,
    _new_values,
    canonical_tensor,
    check_roles,
    eval_tensor,
    # unused here, but perfbench/tracing.py wraps this binding by name
    is_generating,  # noqa: F401
)
from .fields import GF, QQ, proved_prime
from .intmat import (
    FactorizationIncomplete,
    HermiteReducer,
    IntegerLattice,
    factor,
    # unused here, but perfbench/tracing.py wraps this binding by name
    lattice_from_vectors,  # noqa: F401
    snf,
)


def _int_scalar(x) -> int:
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
        raise ValueError(f"integer coordinate required, got {x!r}")
    return x


def _int_vector(v: Sequence[int], m: int) -> tuple[int, ...]:
    if len(v) != m:
        raise ValueError(f"vector length {len(v)} != module rank {m}")
    return tuple(_int_scalar(x) for x in v)


def reduce_element(factors: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative: coordinate i reduced into [0, d_i) when d_i > 0."""
    return tuple(x % d if d else x for d, x in zip(factors, _int_vector(v, len(factors))))


def make_z_tensor(
    factors: Sequence[int],
    arity: int,
    triples: Iterable[tuple[Sequence[int], int, int]],
) -> OperationTensor:
    """Canonical integer tensor: coefficients into coordinate l reduced mod d_l."""
    return canonical_tensor(len(factors), arity, triples, _int_scalar, _factor_mod(factors))


def _factor_mod(factors: Sequence[int]):
    """Coordinate reduction on M: coordinate l mod d_l when d_l > 0.  A
    non-integer raises, so check_roles refuses a tensor that holds one."""
    return lambda l, x: _int_scalar(x) % factors[l] if factors[l] else _int_scalar(x)


@dataclass(frozen=True)
class IntegralAlgebra:
    """Multialgebra on M = Z/d_1 + ... + Z/d_m given by integer tensors.

    Construction validates the invariant-factor shape, runs check_roles
    (canonical tensors, unit and involution laws), and then checks that every
    tensor descends to M: torsion in any argument slot must annihilate the
    coefficient mod the target factor.
    """

    factors: tuple[int, ...]
    ops: tuple[OperationTensor, ...]
    product_index: int
    unit_index: Optional[int] = None
    involution_index: Optional[int] = None

    def __post_init__(self):
        nonzero_done = False
        prev = None
        for d in self.factors:
            if isinstance(d, bool) or not isinstance(d, int) or d < 0 or d == 1:
                raise ValueError(f"invalid invariant factor {d!r}")
            if d == 0:
                nonzero_done = True
                continue
            if nonzero_done:
                raise ValueError("free coordinates must come after torsion factors")
            if prev is not None and d % prev:
                raise ValueError(f"invariant factors must form a divisibility chain, {prev} - {d}")
            prev = d
        check_roles(self, self.rank, _factor_mod(self.factors))
        for op in self.ops:
            for idx, outs in op.entries:
                for slot_coord in idx:
                    d_in = self.factors[slot_coord]
                    if d_in == 0:
                        continue
                    for l, c in outs:
                        d_out = self.factors[l]
                        if (d_in * c) % d_out if d_out else d_in * c:
                            raise ValueError(
                                "operation does not descend to the module: "
                                f"factor {d_in} at input {slot_coord} vs "
                                f"coefficient {c} into coordinate {l}"
                            )

    # -- basic structure -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def _fibers(self) -> dict[Optional[int], "Fiber"]:
        """The fibers built so far, by prime; None keys the generic fiber."""
        return {}

    def relation_rows(self) -> list[tuple[int, ...]]:
        """Generators of the subgroup of Z^m that presents the torsion."""
        m = self.rank
        return [
            tuple(d if j == i else 0 for j in range(m))
            for i, d in enumerate(self.factors)
            if d
        ]


# ---------------------------------------------------------------------------
# Normalizing an arbitrary integer presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """A normalized module together with the raw-coordinate change of basis:
    images[i] lists the nonzero (coordinate, coefficient) pairs of raw
    generator i in the canonical invariant-factor coordinates."""

    algebra: IntegralAlgebra
    images: tuple[tuple[tuple[int, int], ...], ...]

    def map_element(self, v: Sequence[int]) -> tuple[int, ...]:
        """Raw generator coordinates -> canonical invariant-factor coordinates."""
        out = [0] * self.algebra.rank
        for x, image in zip(_int_vector(v, len(self.images)), self.images):
            for a, c in image:
                out[a] += x * c
        return reduce_element(self.algebra.factors, out)


def normalize_presentation(
    generators: int,
    relations: Sequence[Sequence[int]],
    ops: Sequence[tuple[int, Sequence[tuple[Sequence[int], int, int]]]],
    product_index: int,
    unit_index: Optional[int] = None,
    involution_index: Optional[int] = None,
) -> Presentation:
    """Quotient of Z^generators by the rows of `relations`, in canonical form.

    `ops` lists (arity, triples) tensors written in the raw generator
    coordinates.  The Smith decomposition U R V = D of the relation matrix
    diagonalizes the quotient, and trivial (factor 1) coordinates are
    dropped.  Raw generator i maps to row i of V on the kept columns, and
    kept coordinate a is row a of V^-1, so each raw tensor entry is
    conjugated on its own: input i expands to the kept a with V^-1[a][i] !=
    0, each output to its image.  Without relations no matrix is built.
    """
    if not 0 <= generators <= sys.maxsize:
        raise ValueError(f"generator count must be in [0, {sys.maxsize}]")
    m = generators
    rel_rows = [list(_int_vector(r, m)) for r in relations]
    free = (0,) * m
    raw_ops = [make_z_tensor(free, arity, triples) for arity, triples in ops]

    if rel_rows:
        dec = snf(rel_rows)
        V, W = dec.right, dec.right_inverse
        full = [abs(d) for d in dec.diag] + [0] * (m - len(dec.diag))
        kept = [c for c in range(m) if full[c] != 1]
        factors = tuple(full[c] for c in kept)
        images = tuple(tuple((a, V[i][c]) for a, c in enumerate(kept) if V[i][c]) for i in range(m))
        inputs = tuple(tuple((a, W[c][i]) for a, c in enumerate(kept) if W[c][i]) for i in range(m))
    else:
        factors = free
        images = inputs = tuple(((i, 1),) for i in range(m))

    new_ops = []
    for op in raw_ops:
        triples = []
        for idx, outs in op.entries:
            for args in itertools.product(*(inputs[i] for i in idx)):
                new_idx = tuple(a for a, _ in args)
                w = prod(x for _, x in args)
                triples.extend((new_idx, b, w * c * v) for l, c in outs for b, v in images[l])
        new_ops.append(make_z_tensor(factors, op.arity, triples))

    algebra = IntegralAlgebra(
        factors=factors,
        ops=tuple(new_ops),
        product_index=product_index,
        unit_index=unit_index,
        involution_index=involution_index,
    )
    return Presentation(algebra=algebra, images=images)


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fiber:
    """A residue-field algebra of an integral algebra, with coordinate maps.

    `coordinates` lists the module coordinates that survive: those with
    p | d_i or d_i = 0 for the fiber mod p, and the free ones for the
    rational fiber.
    """

    algebra: Multialgebra
    coordinates: tuple[int, ...]
    ambient: int

    def project(self, v: Sequence[int]) -> tuple:
        """Module element -> fiber element."""
        vec = _int_vector(v, self.ambient)
        coerce = self.algebra.field.coerce
        return tuple(coerce(vec[c]) for c in self.coordinates)

    def lift(self, v: Sequence) -> tuple[int, ...]:
        """Fiber element -> module element, integer representatives in [0, p).

        Coordinates off the fiber are set to 0.  Rational fiber elements must
        already have integer coordinates.
        """
        if len(v) != len(self.coordinates):
            raise ValueError(f"fiber vector length {len(v)} != {len(self.coordinates)}")
        out = [0] * self.ambient
        for pos, x in zip(self.coordinates, v):
            x = self.algebra.field.coerce(x)
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"cannot lift non-integer coordinate {x}")
                x = x.numerator
            out[pos] = int(x)
        return tuple(out)


def _restricted_fiber(A: IntegralAlgebra, coords: tuple[int, ...], field) -> Fiber:
    """A base changed to the field on the ascending coords: the entries whose
    indices all survive, reindexed (monotone, so still in canonical order),
    each coefficient coerced into the field and the zeros dropped.

    check_roles is not run again: A passed it, the fibre is the base change
    M (x) F_p or M (x) Q, in which the unit and involution laws of M still
    hold, and the tensors are canonical by construction."""
    pos = {c: j for j, c in enumerate(coords)}
    coerce = field.coerce
    ops = []
    for op in A.ops:
        entries = []
        for idx, outs in op.entries:
            if all(i in pos for i in idx):
                values = ((pos[l], coerce(c)) for l, c in outs if l in pos)
                row = tuple((l, y) for l, y in values if y)
                if row:
                    entries.append((tuple(pos[i] for i in idx), row))
        ops.append(OperationTensor(arity=op.arity, entries=tuple(entries)))
    algebra = Multialgebra._checked_already(
        field=field,
        dim=len(coords),
        ops=tuple(ops),
        product_index=A.product_index,
        unit_index=A.unit_index,
        involution_index=A.involution_index,
    )
    return Fiber(algebra=algebra, coordinates=coords, ambient=A.rank)


def fiber_mod_p(A: IntegralAlgebra, p: int) -> Fiber:
    """Base change to F_p: keeps coordinates with d_i = 0 or p | d_i.
    Built once per (A, p); a Fiber is immutable, so callers share it."""
    fib = A._fibers.get(p)
    if fib is None:
        if proved_prime(p) is not True:
            raise ValueError(f"fiber modulus {p} is not prime")
        coords = tuple(i for i, d in enumerate(A.factors) if d == 0 or d % p == 0)
        fib = A._fibers[p] = _restricted_fiber(A, coords, GF(p))
    return fib


def generic_fiber(A: IntegralAlgebra) -> Fiber:
    """Base change to Q: the free coordinates with the same structure
    constants.  Built once per A."""
    fib = A._fibers.get(None)
    if fib is None:
        coords = tuple(i for i, d in enumerate(A.factors) if d == 0)
        fib = A._fibers[None] = _restricted_fiber(A, coords, QQ)
    return fib


# ---------------------------------------------------------------------------
# Monomial subgroup, its prime support, and global generation
# ---------------------------------------------------------------------------


def monomial_subgroup(A: IntegralAlgebra, elements: Iterable[Sequence[int]]) -> IntegerLattice:
    """Smallest subgroup of M containing the elements and closed under all ops.

    Closure under an arity-0 operation means containing its constant, so any
    designated unit is always a member.  Returned as the canonical lattice in
    Z^m that contains the relation rows, so two element lists span the same
    subgroup of M exactly when the canonical rows coincide.

    The field closure's loop (algebra._grow over algebra._new_values) on
    one HermiteReducer that holds the relation rows: its generators are the
    seed vectors and each operation value that enlarged the lattice, as
    HermiteReducer.insert returns them.  Relation rows take no operations:
    by multilinearity op on lattice vectors is an integer combination of op
    on generators and of op on tuples with a relation row, and the latter
    lie in the relations because every op descends to M.
    """
    m = A.rank
    reducer = HermiteReducer(m)
    for row in A.relation_rows():
        reducer.insert(row)
    seed = [reduce_element(A.factors, v) for v in elements]
    seed.extend(eval_tensor(op, m, ()) for op in A.ops if op.arity == 0)
    gens = []
    _grow(reducer, seed, gens)
    _grow(reducer, _new_values(A.ops, m, gens, len(gens), 0), gens)
    return reducer.lattice()


@dataclass(frozen=True)
class BadPrimesReport:
    """Prime support of M modulo a monomial subgroup.

    When the subgroup misses a free direction the quotient is infinite, no
    `exponent` annihilates it, and `generic_fail` is set; otherwise `primes`
    lists exactly the primes p at which the projected elements fail to
    generate the fiber, and `exponent` annihilates the quotient.
    """

    primes: tuple[int, ...]
    exponent: Optional[int]

    @property
    def generic_fail(self) -> bool:
        return self.exponent is None


def _support_of_lattice(A: IntegralAlgebra, B: IntegerLattice) -> BadPrimesReport:
    if B.rank < A.rank:
        return BadPrimesReport(primes=(), exponent=None)
    if B.is_full():
        return BadPrimesReport(primes=(), exponent=1)
    # a full-rank lattice other than Z^m has index, so exponent, above 1
    exponent = B.exponent()
    fac = factor(exponent)
    if not fac.complete:
        raise FactorizationIncomplete(exponent, fac.primes, fac.cofactor)
    return BadPrimesReport(primes=fac.distinct_primes(), exponent=exponent)


def bad_primes(A: IntegralAlgebra, elements: Iterable[Sequence[int]]) -> BadPrimesReport:
    """Primes where the elements fail to generate the fiber, or generic failure."""
    return _support_of_lattice(A, monomial_subgroup(A, elements))


@dataclass(frozen=True)
class GlobalGenerationReport:
    """Global generation read off the monomial subgroup B of M.

    Over Q the generated subalgebra is the Q-span of B, so the rational
    fiber is generated iff rank B = rank M, that is iff not generic_fail.
    Mod p it is the image of B in M/pM, which is all of M/pM iff p does not
    divide |M/B|, so the fibers that fail are exactly those at the support's
    primes.
    """

    subgroup: IntegerLattice
    support: BadPrimesReport

    @property
    def generates(self) -> bool:
        return self.subgroup.is_full()


def verify_global_generation(
    A: IntegralAlgebra, elements: Iterable[Sequence[int]]
) -> GlobalGenerationReport:
    """Do the elements generate the whole module algebra?  True exactly when
    the monomial subgroup is all of M; the report's support locates any
    failure, fiber by fiber."""
    B = monomial_subgroup(A, elements)
    return GlobalGenerationReport(subgroup=B, support=_support_of_lattice(A, B))


# ---------------------------------------------------------------------------
# Stock integral algebras
# ---------------------------------------------------------------------------


def integral_zero_module(factors: Sequence[int]) -> IntegralAlgebra:
    """Invariant factors with the identically zero product."""
    product = OperationTensor(arity=2, entries=())
    return IntegralAlgebra(factors=tuple(factors), ops=(product,), product_index=0)


def integral_ground() -> IntegralAlgebra:
    """Z itself, unital, with the identity involution: where doubling starts."""
    ops = tuple(make_z_tensor((0,), arity, [((0,) * arity, 0, 1)]) for arity in (2, 0, 1))
    return IntegralAlgebra(factors=(0,), ops=ops, product_index=0, unit_index=1, involution_index=2)


def cayley_dickson(A: IntegralAlgebra, mu: int) -> IntegralAlgebra:
    """Double a free, unital Z algebra with involution sigma.

    On pairs: (a,b)(c,d) = (ac + mu sigma(d) b, da + b sigma(c)); unit (e,0);
    involution (a,b) -> (sigma(a), -b).  The tensors are written from the
    entries of A, r = rank A: each product entry b_a b_b -> c b_l gives
    (a, b) -> l and (b, r+a) -> r+l with c, (r+a, k) -> r+l with s c and
    (r+b, r+k) -> l with mu s c for each k whose sigma(b_k) holds b_b,
    respectively b_a, with coefficient s.  Construction re-runs the unit and
    involution law checks.  A must be free: doubling Z/2 + Z would give the
    factors (2, 0, 2, 0), which are not in invariant-factor order.
    """
    if A.unit_index is None or A.involution_index is None:
        raise ValueError("Cayley-Dickson input needs designated unit and involution")
    if any(A.factors):
        raise ValueError("Cayley-Dickson input must be a free Z-module")
    if not _int_scalar(mu):
        raise ValueError("Cayley-Dickson scalar must be nonzero")
    r = A.rank
    sigma = A.ops[A.involution_index].entries
    # holders[m] lists (k, s) where sigma(b_k) holds b_m with coefficient s
    holders: dict[int, list[tuple[int, int]]] = {}
    for (k,), outs in sigma:
        for m, s in outs:
            holders.setdefault(m, []).append((k, s))
    triples = []
    for (a, b), outs in A.ops[A.product_index].entries:
        for l, c in outs:
            triples.append(((a, b), l, c))
            triples.append(((b, r + a), r + l, c))
            triples.extend(((r + a, k), r + l, s * c) for k, s in holders.get(b, ()))
            triples.extend(((r + b, r + k), l, mu * s * c) for k, s in holders.get(a, ()))
    conj = [(idx, l, s) for idx, outs in sigma for l, s in outs]
    conj.extend(((r + i,), r + i, -1) for i in range(r))
    factors = (0,) * (2 * r)
    # the unit (e, 0) has A's unit tensor, already canonical on 2r coordinates
    ops = (make_z_tensor(factors, 2, triples), A.ops[A.unit_index], make_z_tensor(factors, 1, conj))
    return IntegralAlgebra(factors=factors, ops=ops, product_index=0, unit_index=1, involution_index=2)


def integral_matrix_algebra(n: int) -> IntegralAlgebra:
    """Mat_n over Z on Z^(n^2), basis E_{i,j} at index i*n + j (row-major):
    E_{i,j} E_{k,l} = delta_{jk} E_{i,l}, the identity as unit, and for
    n = 2 the symplectic involution [[a,b],[c,d]] -> [[d,-b],[-c,a]] (the
    Cayley-Dickson conjugation).  zoo.matrix_algebra is its base change."""
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    factors = (0,) * (n * n)

    def e(i, j):
        return i * n + j

    product = make_z_tensor(
        factors,
        2,
        (((e(i, j), e(j, l)), e(i, l), 1) for i in range(n) for j in range(n) for l in range(n)),
    )
    unit = make_z_tensor(factors, 0, (((), e(i, i), 1) for i in range(n)))
    ops = [product, unit]
    involution_index = None
    if n == 2:
        conj = [
            ((e(0, 0),), e(1, 1), 1),
            ((e(1, 1),), e(0, 0), 1),
            ((e(0, 1),), e(0, 1), -1),
            ((e(1, 0),), e(1, 0), -1),
        ]
        ops.append(make_z_tensor(factors, 1, conj))
        involution_index = 2
    return IntegralAlgebra(
        factors=factors,
        ops=tuple(ops),
        product_index=0,
        unit_index=1,
        involution_index=involution_index,
    )


def integral_split_etale(n: int) -> IntegralAlgebra:
    """Z^n with componentwise product and the all-ones unit; zoo.split_etale
    is its base change to a field."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    factors = (0,) * n
    product = make_z_tensor(factors, 2, (((i, i), i, 1) for i in range(n)))
    unit = make_z_tensor(factors, 0, (((), i, 1) for i in range(n)))
    return IntegralAlgebra(factors=factors, ops=(product, unit), product_index=0, unit_index=1)
