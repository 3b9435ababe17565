"""Constructors for the standard algebra families, with generator tuples.

Families: zero-product modules, full matrix algebras Mat_n, split etale
algebras F^n, Cayley-Dickson doublings (quaternions, split octonions), and
the 27-dimensional Albert algebra of octonion-Hermitian 3x3 matrices under
the Jordan product.  Each constructor fixes a basis and emits exact structure
constants; every family but the Albert algebra is the base change of its
Z form in algen.integral, the quaternions and split octonions built by
integral.cayley_dickson.  Generator tuples come with the construction where
a closed form exists, and by seeded search for the Albert algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, Multialgebra, eval_tensor, make_tensor
from .fields import Field, GF, QQ
from .integral import (
    cayley_dickson,
    fiber_mod_p,
    generic_fiber,
    integral_ground,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
)


# ---------------------------------------------------------------------------
# Matrix algebras
# ---------------------------------------------------------------------------


def _base_change(A, field: Field) -> Multialgebra:
    """The fiber of a Z form over the field: mod p over F_p, generic over Q."""
    return (fiber_mod_p(A, field.char) if field.char else generic_fiber(A)).algebra


def matrix_algebra(field: Field, n: int) -> Multialgebra:
    """Mat_n over the field: the base change of integral_matrix_algebra(n),
    basis E_{i,j} at index i*n + j, with the identity as unit and, for
    n = 2, the symplectic involution."""
    return _base_change(integral_matrix_algebra(n), field)


def canonical_matrix_generators(field: Field, n: int) -> tuple[Element, Element]:
    """The pair (E_{1,1}, E_{1,2} + E_{2,3} + ... + E_{n-1,n} + E_{n,1})."""
    if n < 1:
        raise ValueError("matrix algebra needs n >= 1")
    dim = n * n
    first = tuple(field.one if k == 0 else field.zero for k in range(dim))
    cyc = [field.zero] * dim
    for i in range(n - 1):
        cyc[i * n + (i + 1)] = field.one
    cyc[(n - 1) * n] = field.one
    return first, tuple(cyc)


# ---------------------------------------------------------------------------
# Zero-product and split etale algebras
# ---------------------------------------------------------------------------


def zero_algebra(field: Field, r: int) -> Multialgebra:
    """Zero product, so closure is linear span: integral_zero_module((0,) * r) base-changed."""
    if r < 0:
        raise ValueError("dimension must be nonnegative")
    return _base_change(integral_zero_module((0,) * r), field)


def split_etale(field: Field, n: int) -> Multialgebra:
    """F^n with componentwise product and the all-ones unit: the base change
    of integral_split_etale(n)."""
    return _base_change(integral_split_etale(n), field)


def distinct_entries_generator(field: Field, n: int) -> Element:
    """The element (1, 2, ..., n) of split_etale(field, n).

    Entries must be pairwise distinct and nonzero in the field for the
    element to generate non-unitally, so a prime field needs n <= p - 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    order = field.order
    if order is not None and n > order - 1:
        raise ValueError(
            f"no element with {n} distinct nonzero entries exists over a field of order {order}"
        )
    return tuple(field.coerce(i) for i in range(1, n + 1))


def etale_logq_generators(p: int, n: int, unital: bool = False) -> list[Element]:
    """Generators of split_etale(F_p, n) of the minimal length.

    k is the least integer with p^k >= n + 1 (non-unital) or p^k >= n
    (unital).  Element m holds the m-th base-p digit of j (non-unital) or of
    j - 1 (unital) in coordinate j - 1, so the per-coordinate digit columns
    are pairwise distinct, and nonzero in the non-unital case.
    """
    field = GF(p)
    if n < 1:
        raise ValueError("need n >= 1")
    target = n + 1 if not unital else n
    k = 0
    while p**k < target:
        k += 1
    elements = []
    for m in range(k):
        coords = []
        for j in range(1, n + 1):
            label = j if not unital else j - 1
            coords.append((label // p**m) % p)
        elements.append(tuple(field.coerce(c) for c in coords))
    return elements


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling
# ---------------------------------------------------------------------------


def quaternion_algebra(field: Field = QQ) -> Multialgebra:
    """Two doublings of Z with mu = -1, -1, base changed to the field."""
    return _base_change(cayley_dickson(cayley_dickson(integral_ground(), -1), -1), field)


def split_octonion(field: Field) -> Multialgebra:
    """The 8-dimensional CD(Mat_2, 1): the base change of CD(Mat_2(Z), 1)."""
    return _base_change(cayley_dickson(integral_matrix_algebra(2), 1), field)


def octonion_generators(field: Field) -> tuple[Element, Element, Element]:
    """(g1, 0), (g2, 0) for the canonical Mat_2 pair, plus (0, identity)."""
    g1, g2 = canonical_matrix_generators(field, 2)
    zero, one = field.zero, field.one
    return (g1 + (zero,) * 4, g2 + (zero,) * 4, (zero,) * 4 + (one, zero, zero, one))


# ---------------------------------------------------------------------------
# Albert algebra
# ---------------------------------------------------------------------------


def albert(field: Field) -> Multialgebra:
    """Hermitian 3x3 matrices over the split octonions with Jordan product.

    Coordinates: 3 diagonal scalars, then the octonion entries at positions
    (1,2), (1,3), (2,3), giving 3 + 3*8 = 27.  The product is
    x o y = (xy + yx)/2.  2(x o y) = xy + yx is computed once per pair of
    basis matrices in integers, with eval_tensor on the tensors of the split
    octonions' Z form, checked to be Hermitian with a
    scalar diagonal, and halved by make_tensor in the target field.  The
    same integers serve Q and every F_p; requires characteristic != 2.
    """
    if field.char == 2:
        raise ValueError("Albert algebra needs characteristic != 2")
    mul, unit, sigma = cayley_dickson(integral_matrix_algebra(2), 1).ops
    one = eval_tensor(unit, 8, ())
    zero = [0] * 8

    def conj(x):
        return eval_tensor(sigma, 8, (x,))

    offs = ((0, 1), (0, 2), (1, 2))
    # each basis matrix as its nonzero entries (row, column, octonion)
    basis = [[(i, i, one)] for i in range(3)]
    for i, j in offs:
        for t in range(8):
            e = [int(k == t) for k in range(8)]
            basis.append([(i, j, e), (j, i, conj(e))])

    triples = []
    for a in range(27):
        for b in range(a, 27):
            m = {}  # xy + yx by matrix position
            for x, y in ((basis[a], basis[b]), (basis[b], basis[a])):
                for i, k, u in x:
                    for k2, j, v in y:
                        if k == k2:
                            acc = m.setdefault((i, j), [0] * 8)
                            for l, c in enumerate(eval_tensor(mul, 8, (u, v))):
                                acc[l] += c
            w = []
            for i in range(3):
                d = m.get((i, i), zero)
                # the unit's coordinate 0 is 1, so d[0] is the scalar
                if d != [d[0] * c for c in one]:
                    raise AssertionError("diagonal entry is not scalar")
                w.append(d[0])
            for i, j in offs:
                if m.get((j, i), zero) != conj(m.get((i, j), zero)):
                    raise AssertionError("matrix is not Hermitian")
                w.extend(m.get((i, j), zero))
            for l, c in enumerate(w):
                if c:
                    triples.append(((a, b), l, Fraction(c, 2)))
                    if a != b:
                        triples.append(((b, a), l, Fraction(c, 2)))
    product = make_tensor(field, 27, 2, triples)
    unit = make_tensor(field, 27, 0, [((), i, 1) for i in range(3)])
    return Multialgebra(field=field, dim=27, ops=(product, unit), product_index=0, unit_index=1)


def albert_generators(alg: Multialgebra) -> tuple[Element, ...]:
    """A generating triple of an Albert algebra built by albert, found by a
    seeded random probe (deterministic)."""
    from .search import DEFAULT_BUDGET, random_probe

    cert = random_probe(alg, 3, DEFAULT_BUDGET)
    if cert is None:
        raise RuntimeError("no generating triple found within budget")
    return cert.elements
