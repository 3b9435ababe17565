"""Oracles and algebras that several test modules share and no library
code needs: element arithmetic in field and Z algebras, trial-division
primality, spans and lattices computed by sympy, the monomial subgroup by
plain rounds, random Z-algebras whose tensors descend to their modules, the
non-split etale forms F_p[x]/(f) of the split etale algebras, and the
environment of a subprocess that imports algen from this checkout."""

import itertools
import os
from fractions import Fraction
from math import gcd
from typing import Sequence

import sympy
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix

import algen
from algen.algebra import Multialgebra, _closure_reducer, eval_tensor, make_tensor
from algen.fields import GF, validate_vector
from algen.integral import IntegralAlgebra, _int_vector, make_z_tensor, reduce_element
from algen.intmat import lattice_from_vectors


def src_env() -> dict:
    """os.environ with the directory that holds the imported algen package
    first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(algen.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def evaluate(alg, op_index: int, args) -> tuple:
    """Operation op_index of alg on args.  Over a field, arguments and value
    are coerced into the field by validate_vector; over Z, arguments must be
    integer vectors of the module's rank and the value is reduced mod the
    invariant factors."""
    op = alg.ops[op_index]
    if isinstance(alg, IntegralAlgebra):
        args = [_int_vector(a, alg.rank) for a in args]
        return reduce_element(alg.factors, eval_tensor(op, alg.rank, args))
    args = [validate_vector(alg.field, a, alg.dim) for a in args]
    return validate_vector(alg.field, eval_tensor(op, alg.dim, args), alg.dim)


def product(alg, x, y) -> tuple:
    return evaluate(alg, alg.product_index, (x, y))


def unit_vector(alg) -> tuple:
    return evaluate(alg, alg.unit_index, ())


def involution(alg, x) -> tuple:
    return evaluate(alg, alg.involution_index, (x,))


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    for small in (2, 3, 5):
        if n == small:
            return True
        if n % small == 0:
            return False
    f = 7
    # wheel mod 6 starting at 7
    step = 4
    while f * f <= n:
        if n % f == 0:
            return False
        f += step
        step = 6 - step
    return True


def span_basis(field, rows) -> tuple:
    """sympy's RREF basis of the row span: over F_p by DomainMatrix over
    GF(p), entries in [0, p) (rows may hold any integers); over Q by
    Matrix.rref, entries Fractions."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    if field.char:
        p = field.char
        reduced, pivots = DomainMatrix.from_list(rows, sympy.GF(p)).rref()
        out = [[int(x) % p for x in row] for row in reduced.to_list()]
    else:
        reduced, pivots = sympy.Matrix(rows).rref()
        out = [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(pivots))]
    return tuple(tuple(row) for row in out[: len(pivots)])


def span_contains(field, basis, vectors) -> bool:
    """Every vector lies in the span of basis (a span_basis result)."""
    return span_basis(field, [*basis, *vectors]) == tuple(basis)


def closure_basis(alg, seed, unital=False) -> tuple:
    """span_basis of the subalgebra generated by seed, as the closure kernel
    algebra._closure_reducer leaves it."""
    rows = [validate_vector(alg.field, v, alg.dim) for v in seed]
    span, _ = _closure_reducer(alg, rows, unital)
    return span_basis(alg.field, span.rows)


def lattice_contains(lat, v) -> bool:
    """v lies in the lattice iff adding it as a column leaves sympy's
    (column-style) Hermite normal form of the basis unchanged."""
    if not lat.rows:
        return not any(v)
    basis = sympy.Matrix(lat.rows).T
    return hermite_normal_form(basis.row_join(sympy.Matrix(list(v)))) == hermite_normal_form(basis)


def subgroup_by_rounds(A, elements):
    """integral.monomial_subgroup as a plain round loop, the oracle for its
    semi-naive loop: each round evaluates every op on every ordered tuple of
    the current lattice rows, and rounds run until one adds nothing, even
    after the lattice is all of Z^m."""
    m = A.rank
    rows = A.relation_rows()
    rows.extend(reduce_element(A.factors, v) for v in elements)
    rows.extend(tuple(eval_tensor(op, m, ())) for op in A.ops if op.arity == 0)
    current = lattice_from_vectors(rows, m)
    while True:
        produced = list(current.rows)
        for op in A.ops:
            if op.arity and op.entries:
                for args in itertools.product(current.rows, repeat=op.arity):
                    produced.append(eval_tensor(op, m, args))
        refreshed = lattice_from_vectors(produced, m)
        if refreshed.rows == current.rows:
            return refreshed
        current = refreshed


def _descent_safe_tensor(rng, factors, arity, count):
    """Sparse arity-k tensor that descends to the module: torsion d_in in an
    argument slot must annihilate the coefficient mod the target factor."""
    m = len(factors)
    triples = []
    for _ in range(count):
        idx = tuple(rng.randrange(m) for _ in range(arity))
        out = rng.randrange(m)
        d_out = factors[out]
        torsion_in = [factors[i] for i in idx if factors[i]]
        if d_out == 0:
            if torsion_in:
                continue
            coeff = rng.randint(-3, 3)
        else:
            step = 1
            for d_in in torsion_in:
                need = d_out // gcd(d_out, d_in)
                step = step * need // gcd(step, need)
            coeff = step * rng.randint(-2, 2)
        if coeff:
            triples.append((idx, out, coeff))
    return make_z_tensor(factors, arity, triples)


def random_integral_algebra(rng):
    """Random mixed free/torsion module with well-defined sparse tensors: a
    product and, each half the time, an arity-0 constant (which closures
    adjoin, as unital ones do) and a unary operation."""
    shapes = [(2,), (4,), (6,), (0,), (2, 4), (2, 0), (6, 0), (2, 2, 0), (3, 0, 0), (2, 4, 0, 0)]
    factors = shapes[rng.randrange(len(shapes))]
    m = len(factors)
    ops = [_descent_safe_tensor(rng, factors, 2, rng.randrange(1, 2 * m + 2))]
    for arity in (0, 1):
        if rng.randrange(2):
            ops.append(_descent_safe_tensor(rng, factors, arity, rng.randrange(1, m + 1)))
    return IntegralAlgebra(factors=factors, ops=tuple(ops), product_index=0)


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_rem(p: int, num: list[int], den: list[int]) -> list[int]:
    """Remainder of num modulo den over F_p; coefficients ascending, den monic."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) - 1 >= d and any(num):
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - d
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        _poly_trim(num)
        if not num:
            break
    return num


def _is_irreducible(p: int, coeffs: list[int]) -> bool:
    d = len(coeffs) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            g = list(tail) + [1]  # monic of degree e
            if not _poly_rem(p, coeffs, g):
                return False
    return True


def field_extension_etale(p: int, poly: Sequence[int]) -> Multialgebra:
    """F_p[x]/(poly) with basis 1, x, ..., x^{deg-1}; poly monic irreducible.

    Coefficients ascend: poly = [c_0, c_1, ..., 1].  Irreducibility is
    checked by exhaustive trial division over all lower-degree monic factors.
    """
    field = GF(p)
    coeffs = [c % p for c in poly]
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree >= 1")
    if not _is_irreducible(p, coeffs):
        raise ValueError("polynomial is reducible")
    d = len(coeffs) - 1
    # x^e mod poly for e up to 2d - 2
    powers: list[list[int]] = []
    for e in range(2 * d - 1):
        vec = [0] * (e + 1)
        vec[e] = 1
        rem = _poly_rem(p, vec, coeffs)
        powers.append(rem + [0] * (d - len(rem)))
    triples = []
    for i in range(d):
        for j in range(d):
            for l, c in enumerate(powers[i + j]):
                if c:
                    triples.append(((i, j), l, c))
    product = make_tensor(field, d, 2, triples)
    unit = make_tensor(field, d, 0, [((), 0, 1)])
    return Multialgebra(field=field, dim=d, ops=(product, unit), product_index=0, unit_index=1)
