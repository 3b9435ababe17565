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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .algebra import (
    ElementAPI,
    Multialgebra,
    OperationTensor,
    check_roles,
    eval_tensor,
    # unused here, but perfbench/tracing.py wraps this binding by name
    is_generating,  # noqa: F401
    make_tensor,
)
from .fields import GF, QQ, proved_prime
from .intmat import (
    FactorizationIncomplete,
    IntegerLattice,
    factor,
    invert_unimodular,
    lattice_from_vectors,
    snf,
)


def _int_vector(v: Sequence[int], m: int) -> tuple[int, ...]:
    if len(v) != m:
        raise ValueError(f"vector length {len(v)} != module rank {m}")
    out = []
    for x in v:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"integer coordinate required, got {x!r}")
        out.append(x)
    return tuple(out)


def reduce_element(factors: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative: coordinate i reduced into [0, d_i) when d_i > 0."""
    return tuple(_reduce(factors, _int_vector(v, len(factors))))


def _reduce(factors: Sequence[int], v: Sequence[int]) -> list[int]:
    """reduce_element without validation, for evaluator output."""
    return [x % d if d else x for d, x in zip(factors, v)]


def make_z_tensor(
    factors: Sequence[int],
    arity: int,
    triples: Iterable[tuple[Sequence[int], int, int]],
) -> OperationTensor:
    """Canonical integer tensor: coefficients into coordinate l reduced mod d_l."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    m = len(factors)
    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for idx, out, coeff in triples:
        idx = tuple(int(i) for i in idx)
        if len(idx) != arity:
            raise ValueError(f"index tuple {idx} does not match arity {arity}")
        if any(not 0 <= i < m for i in idx) or not 0 <= int(out) < m:
            raise ValueError(f"tensor index out of range for rank {m}")
        if isinstance(coeff, bool) or not isinstance(coeff, int):
            raise ValueError(f"integer coefficient required, got {coeff!r}")
        row = acc.setdefault(idx, {})
        out = int(out)
        row[out] = row.get(out, 0) + coeff
    entries = []
    for idx in sorted(acc):
        outs = []
        for l, c in sorted(acc[idx].items()):
            d = factors[l]
            c = c % d if d else c
            if c:
                outs.append((l, c))
        if outs:
            entries.append((idx, tuple(outs)))
    return OperationTensor(arity=arity, entries=tuple(entries))


@dataclass(frozen=True)
class IntegralAlgebra(ElementAPI):
    """Multialgebra on M = Z/d_1 + ... + Z/d_m given by integer tensors.

    Construction validates the invariant-factor shape, that every tensor is
    stored canonically and descends to M (torsion in any argument slot must
    annihilate the coefficient mod the target factor), and the designated
    unit and involution laws.
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
        for op in self.ops:
            flat = [(idx, l, c) for idx, outs in op.entries for l, c in outs]
            if make_z_tensor(self.factors, op.arity, flat) != op:
                raise ValueError("operation tensor is not in canonical form")
            for idx, outs in op.entries:
                for slot_coord in idx:
                    d_in = self.factors[slot_coord]
                    if d_in == 0:
                        continue
                    for l, c in outs:
                        d_out = self.factors[l]
                        bad = d_in * c if d_out == 0 else (d_in * c) % d_out
                        if bad:
                            raise ValueError(
                                "operation does not descend to the module: "
                                f"factor {d_in} at input {slot_coord} vs "
                                f"coefficient {c} into coordinate {l}"
                            )
        check_roles(
            self.ops,
            self.rank,
            self.product_index,
            self.unit_index,
            self.involution_index,
            lambda v: _reduce(self.factors, v),
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

    # -- evaluation: integer arguments, values reduced mod the factors -------

    def _vet(self, v: Sequence[int]) -> tuple[int, ...]:
        return _int_vector(v, self.rank)

    def _value(self, op: OperationTensor, args) -> tuple[int, ...]:
        return reduce_element(self.factors, eval_tensor(op, self.rank, args))


# ---------------------------------------------------------------------------
# Normalizing an arbitrary integer presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """A normalized module together with the raw-coordinate change of basis."""

    algebra: IntegralAlgebra
    transform: tuple[tuple[int, ...], ...]
    kept: tuple[int, ...]

    def map_element(self, v: Sequence[int]) -> tuple[int, ...]:
        """Raw generator coordinates -> canonical invariant-factor coordinates."""
        vec = _int_vector(v, len(self.transform))
        image = [
            sum(x * self.transform[i][j] for i, x in enumerate(vec))
            for j in range(len(self.transform))
        ]
        return reduce_element(self.algebra.factors, [image[c] for c in self.kept])


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
    coordinates.  The Smith decomposition of the relation matrix diagonalizes
    the quotient; tensors are conjugated by the accompanying unimodular
    column transform and trivial (factor 1) coordinates are dropped.
    """
    if generators < 0:
        raise ValueError("generator count must be nonnegative")
    m = generators
    rel_rows = [list(_int_vector(r, m)) for r in relations]
    free = (0,) * m
    raw_ops = [make_z_tensor(free, arity, triples) for arity, triples in ops]

    if rel_rows:
        dec = snf(rel_rows)
        V = dec.right
        diag = dec.diag
    else:
        V = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        diag = ()
    W = invert_unimodular(V)
    full = tuple(abs(diag[i]) if i < len(diag) else 0 for i in range(m))
    kept = tuple(i for i in range(m) if full[i] != 1)
    factors = tuple(full[c] for c in kept)
    pos = {c: j for j, c in enumerate(kept)}

    def to_new(raw_vec: Sequence[int]) -> list[int]:
        image = [sum(x * V[i][j] for i, x in enumerate(raw_vec)) for j in range(m)]
        return [image[c] for c in kept]

    new_ops = []
    for op in raw_ops:
        triples = []
        for coords in itertools.product(kept, repeat=op.arity):
            args = [W[c] for c in coords]
            value = to_new(eval_tensor(op, m, args))
            new_idx = tuple(pos[c] for c in coords)
            for l, c in enumerate(value):
                if c:
                    triples.append((new_idx, l, c))
        new_ops.append(make_z_tensor(factors, op.arity, triples))

    algebra = IntegralAlgebra(
        factors=factors,
        ops=tuple(new_ops),
        product_index=product_index,
        unit_index=unit_index,
        involution_index=involution_index,
    )
    return Presentation(algebra=algebra, transform=V, kept=kept)


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
    pos = {c: j for j, c in enumerate(coords)}
    dim = len(coords)
    ops = []
    for op in A.ops:
        triples = []
        for idx, outs in op.entries:
            if any(i not in pos for i in idx):
                continue
            new_idx = tuple(pos[i] for i in idx)
            for l, c in outs:
                if l in pos:
                    triples.append((new_idx, pos[l], c))
        ops.append(make_tensor(field, dim, op.arity, triples))
    algebra = Multialgebra(
        field=field,
        dim=dim,
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
    subgroup of M exactly when the canonical rows coincide.  Termination:
    the lattices ascend in Z^m.
    """
    m = A.rank
    rows = A.relation_rows()
    rows.extend(reduce_element(A.factors, v) for v in elements)
    for op in A.ops:
        if op.arity == 0:
            rows.append(tuple(eval_tensor(op, m, ())))
    current = lattice_from_vectors(rows, m)
    while True:
        produced: list[Sequence[int]] = list(current.rows)
        for op in A.ops:
            if op.arity == 0 or not op.entries:
                continue
            for args in itertools.product(current.rows, repeat=op.arity):
                produced.append(eval_tensor(op, m, args))
        refreshed = lattice_from_vectors(produced, m)
        if refreshed.rows == current.rows:
            return refreshed
        current = refreshed


@dataclass(frozen=True)
class BadPrimesReport:
    """Prime support of M modulo a monomial subgroup.

    When the subgroup misses a free direction the quotient is infinite and
    `generic_fail` is set; otherwise `primes` lists exactly the primes p at
    which the projected elements fail to generate the fiber, and `exponent`
    annihilates the quotient.
    """

    generic_fail: bool
    primes: tuple[int, ...]
    exponent: Optional[int]


def _support_of_lattice(A: IntegralAlgebra, B: IntegerLattice, factor_bound: int) -> BadPrimesReport:
    if B.rank < A.rank:
        return BadPrimesReport(generic_fail=True, primes=(), exponent=None)
    diag = snf(B.rows).diag if B.rows else ()
    exponent = diag[-1] if diag else 1
    if exponent == 1:
        return BadPrimesReport(generic_fail=False, primes=(), exponent=1)
    fac = factor(exponent, factor_bound)
    if not fac.complete:
        raise FactorizationIncomplete(exponent, fac.primes, fac.cofactor)
    return BadPrimesReport(generic_fail=False, primes=fac.distinct_primes(), exponent=exponent)


def bad_primes(
    A: IntegralAlgebra, elements: Iterable[Sequence[int]], factor_bound: int = 1_000_000
) -> BadPrimesReport:
    """Primes where the elements fail to generate the fiber, or generic failure."""
    return _support_of_lattice(A, monomial_subgroup(A, elements), factor_bound)


@dataclass(frozen=True)
class GlobalGenerationReport:
    """Global generation read off the monomial subgroup B of M; every flag
    derives from the lattice, so the report cannot disagree with it.

    Over Q the generated subalgebra is the Q-span of B, so the rational
    fiber is generated iff rank B = rank M, that is iff not generic_fail.
    Mod p it is the image of B in M/pM, which is all of M/pM iff p does not
    divide |M/B|, so every bad prime's fiber check is False.
    """

    subgroup: IntegerLattice
    support: BadPrimesReport

    @property
    def generates(self) -> bool:
        return self.subgroup.is_full()

    @property
    def generic_generates(self) -> bool:
        return not self.support.generic_fail

    @property
    def fiber_checks(self) -> tuple[tuple[int, bool], ...]:
        return tuple((p, False) for p in self.support.primes)


def verify_global_generation(
    A: IntegralAlgebra, elements: Iterable[Sequence[int]], factor_bound: int = 1_000_000
) -> GlobalGenerationReport:
    """Do the elements generate the whole module algebra?  True exactly when
    the monomial subgroup is all of M; the report's support locates any
    failure, fiber by fiber."""
    B = monomial_subgroup(A, elements)
    return GlobalGenerationReport(subgroup=B, support=_support_of_lattice(A, B, factor_bound))


# ---------------------------------------------------------------------------
# Stock integral algebras
# ---------------------------------------------------------------------------


def integral_zero_module(factors: Sequence[int]) -> IntegralAlgebra:
    """Invariant factors with the identically zero product."""
    product = OperationTensor(arity=2, entries=())
    return IntegralAlgebra(factors=tuple(factors), ops=(product,), product_index=0)


def integral_matrix_algebra(n: int) -> IntegralAlgebra:
    """Mat_n over Z on the free module Z^(n^2); fibers are matrix_algebra(F_p, n)."""
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
    """Z^n with componentwise product and the all-ones unit."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    factors = (0,) * n
    product = make_z_tensor(factors, 2, (((i, i), i, 1) for i in range(n)))
    unit = make_z_tensor(factors, 0, (((), i, 1) for i in range(n)))
    return IntegralAlgebra(factors=factors, ops=(product, unit), product_index=0, unit_index=1)
