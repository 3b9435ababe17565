"""Constructors for the standard algebra families, with generator tuples.

Families: zero-product modules, full matrix algebras Mat_n, split etale
algebras F^n, Cayley-Dickson doublings (quaternions, split octonions), and
the 27-dimensional Albert algebra of octonion-Hermitian 3x3 matrices under
the Jordan product.  Each constructor fixes a basis and emits exact structure
constants; Mat_n and F^n are the base changes of their Z forms in
algen.integral.  Generator tuples come with the construction where a closed
form exists, and by seeded search for the Albert algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, Multialgebra, OperationTensor, eval_tensor, make_tensor
from .fields import Field, GF, QQ
from .integral import fiber_mod_p, generic_fiber, integral_matrix_algebra, integral_split_etale


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
    cyc[(n - 1) * n + 0] = field.add(cyc[(n - 1) * n + 0], field.one)
    return first, tuple(cyc)


# ---------------------------------------------------------------------------
# Zero-product and split etale algebras
# ---------------------------------------------------------------------------


def zero_algebra(field: Field, r: int) -> Multialgebra:
    """Module with identically zero product; closure equals linear span."""
    if r < 0:
        raise ValueError("dimension must be nonnegative")
    product = OperationTensor(arity=2, entries=())
    return Multialgebra(field=field, dim=r, ops=(product,), product_index=0)


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


def ground_algebra(field: Field) -> Multialgebra:
    """The field itself: 1-dimensional, unital, identity involution."""
    product = make_tensor(field, 1, 2, [((0, 0), 0, 1)])
    unit = make_tensor(field, 1, 0, [((), 0, 1)])
    conj = make_tensor(field, 1, 1, [((0,), 0, 1)])
    return Multialgebra(
        field=field, dim=1, ops=(product, unit, conj), product_index=0, unit_index=1, involution_index=2
    )


def cayley_dickson(alg: Multialgebra, mu) -> Multialgebra:
    """Double a unital algebra with involution.

    On pairs: (a,b)(c,d) = (ac + mu conj(d) b, da + b conj(c)); unit (e,0);
    involution (a,b) -> (conj(a), -b).  The doubled algebra keeps all three
    designations, and its construction re-runs the unit/involution law checks.
    """
    if alg.unit_index is None or alg.involution_index is None:
        raise ValueError("Cayley-Dickson input needs designated unit and involution")
    field = alg.field
    mu = field.coerce(mu)
    if mu == field.zero:
        raise ValueError("Cayley-Dickson scalar must be nonzero")
    r = alg.dim
    basis = [tuple(field.one if k == i else field.zero for k in range(r)) for i in range(r)]
    conj = [alg.involution(b) for b in basis]

    triples = []
    for i in range(r):
        for k in range(r):
            # (e_i, 0)(e_k, 0) = (e_i e_k, 0)
            v = alg.product(basis[i], basis[k])
            triples.extend(((i, k), l, c) for l, c in enumerate(v) if c != field.zero)
            # (e_i, 0)(0, e_k) = (0, e_k e_i)
            v = alg.product(basis[k], basis[i])
            triples.extend(((i, r + k), r + l, c) for l, c in enumerate(v) if c != field.zero)
            # (0, e_i)(e_k, 0) = (0, e_i conj(e_k))
            v = alg.product(basis[i], conj[k])
            triples.extend(((r + i, k), r + l, c) for l, c in enumerate(v) if c != field.zero)
            # (0, e_i)(0, e_k) = (mu conj(e_k) e_i, 0)
            v = alg.product(conj[k], basis[i])
            triples.extend(((r + i, r + k), l, mu * c) for l, c in enumerate(v) if c != field.zero)
    product = make_tensor(field, 2 * r, 2, triples)

    e = alg.unit_vector()
    unit = make_tensor(field, 2 * r, 0, (((), l, c) for l, c in enumerate(e) if c != field.zero))

    inv_triples = []
    for i in range(r):
        inv_triples.extend(((i,), l, c) for l, c in enumerate(conj[i]) if c != field.zero)
        inv_triples.append(((r + i,), r + i, -1))
    involution = make_tensor(field, 2 * r, 1, inv_triples)

    return Multialgebra(
        field=field,
        dim=2 * r,
        ops=(product, unit, involution),
        product_index=0,
        unit_index=1,
        involution_index=2,
    )


def quaternion_algebra(field: Field = QQ) -> Multialgebra:
    """Two doublings from the ground field with mu = -1, -1."""
    return cayley_dickson(cayley_dickson(ground_algebra(field), -1), -1)


def split_octonion(field: Field) -> Multialgebra:
    """The 8-dimensional CD(Mat_2(field), 1)."""
    return cayley_dickson(matrix_algebra(field, 2), 1)


def octonion_generators(field: Field) -> tuple[Element, Element, Element]:
    """(g1, 0), (g2, 0) for the canonical Mat_2 pair, plus (0, identity)."""
    g1, g2 = canonical_matrix_generators(field, 2)
    zero4 = (field.zero,) * 4
    unit2 = matrix_algebra(field, 2).unit_vector()
    return (g1 + zero4, g2 + zero4, zero4 + unit2)


# ---------------------------------------------------------------------------
# Albert algebra
# ---------------------------------------------------------------------------


def albert(field: Field) -> Multialgebra:
    """Hermitian 3x3 matrices over the split octonions with Jordan product.

    Coordinates: 3 diagonal scalars, then the octonion entries at positions
    (1,2), (1,3), (2,3), giving 3 + 3*8 = 27.  The product is
    x o y = (xy + yx)/2.  The split octonions have integer structure
    constants, so 2(x o y) = xy + yx is computed once per pair of basis
    matrices in integers with eval_tensor, checked to be Hermitian with a
    scalar diagonal, and halved by make_tensor in the target field.  The
    same integers serve Q and every F_p; requires characteristic != 2.
    """
    if field.char == 2:
        raise ValueError("Albert algebra needs characteristic != 2")
    # the octonion structure constants are integers: read them as ints
    mul, unit, sigma = (
        OperationTensor(op.arity, tuple((idx, tuple((l, int(c)) for l, c in outs)) for idx, outs in op.entries))
        for op in split_octonion(QQ).ops
    )
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


def albert_generators(field: Field, budget=None) -> tuple[Element, ...]:
    """A generating triple found by a seeded random probe (deterministic)."""
    from .search import SearchBudget, random_probe

    alg = albert(field)
    cert = random_probe(alg, 3, budget or SearchBudget())
    if cert is None:
        raise RuntimeError("no generating triple found within budget")
    return cert.elements
