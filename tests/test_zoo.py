import itertools
import random

import pytest

from algen.algebra import Multialgebra, OperationTensor, is_generating, make_tensor
from algen.fields import GF, QQ
from algen import zoo
from algen.integral import (
    IntegralAlgebra,
    cayley_dickson,
    fiber_mod_p,
    generic_fiber,
    integral_ground,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    make_z_tensor,
)
from algen.ioformat import serialize_algebra
from support import closure_basis, field_extension_etale, involution, product, unit_vector


def basis(alg):
    return [
        tuple(alg.field.one if k == i else alg.field.zero for k in range(alg.dim))
        for i in range(alg.dim)
    ]


def associator(alg, x, y, z):
    left = product(alg, product(alg, x, y), z)
    right = product(alg, x, product(alg, y, z))
    return tuple(alg.field.sub(a, b) for a, b in zip(left, right))


def is_zero(alg, v):
    return all(x == alg.field.zero for x in v)


# -- matrix algebras ----------------------------------------------------------


def test_matrix_algebra_structure():
    with pytest.raises(ValueError):
        zoo.matrix_algebra(GF(2), 0)
    for field in (GF(2), QQ):
        for n in (2, 3):
            A = zoo.matrix_algebra(field, n)
            assert A.dim == n * n
            b = basis(A)
            for x, y, z in itertools.product(b, repeat=3):
                assert is_zero(A, associator(A, x, y, z))


def test_canonical_pair_generates():
    for n in (1, 2, 3):
        for field in (GF(2), GF(3), QQ):
            A = zoo.matrix_algebra(field, n)
            ok, cert = is_generating(A, zoo.canonical_matrix_generators(field, n))
            assert ok and cert.closure_dim == n * n


def test_matrix_involution_only_for_two():
    assert zoo.matrix_algebra(GF(3), 2).involution_index is not None
    assert zoo.matrix_algebra(GF(3), 3).involution_index is None
    A = zoo.matrix_algebra(QQ, 2)
    # [[a,b],[c,d]] -> [[d,-b],[-c,a]]
    assert involution(A, (1, 2, 3, 4)) == (4, -2, -3, 1)


def test_matrix_and_split_etale_match_plain_arithmetic():
    # an oracle that shares nothing with the builders: on every pair of basis
    # vectors Mat_n multiplies as n x n matrices and F^n coordinatewise, and
    # the unit is the identity matrix or the all-ones vector, over Z and
    # over F_2, F_3 and Q
    def matmul(n):
        return lambda x, y: [
            sum(x[i * n + k] * y[k * n + j] for k in range(n)) for i in range(n) for j in range(n)
        ]

    def coordinatewise(x, y):
        return [a * b for a, b in zip(x, y)]

    families = []
    for n in (1, 2, 3):
        identity = [int(i == j) for i in range(n) for j in range(n)]
        families.append((zoo.matrix_algebra, integral_matrix_algebra, n, n * n, matmul(n), identity))
    for n in range(5):
        families.append((zoo.split_etale, integral_split_etale, n, n, coordinatewise, [1] * n))
    for over_field, over_z, n, dim, mul, unit in families:
        b = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
        for A in (over_z(n), *(over_field(field, n) for field in (GF(2), GF(3), QQ))):
            assert unit_vector(A) == tuple(unit)
            for x, y in itertools.product(b, repeat=2):
                assert product(A, x, y) == tuple(mul(x, y)), (A, x, y)


# -- zero and etale -----------------------------------------------------------


def test_zero_algebra_generation_is_spanning():
    A = zoo.zero_algebra(GF(2), 3)
    assert not is_generating(A, [(1, 0, 0), (0, 1, 0)])[0]
    assert is_generating(A, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])[0]
    assert is_generating(zoo.zero_algebra(GF(5), 0), [])[0]


def test_split_etale_examples():
    assert is_generating(zoo.split_etale(QQ, 3), [zoo.distinct_entries_generator(QQ, 3)])[0]
    assert is_generating(zoo.split_etale(GF(3), 2), [zoo.distinct_entries_generator(GF(3), 2)])[0]
    # F_2^3 has no single-element generator
    E = zoo.split_etale(GF(2), 3)
    for v in itertools.product(range(2), repeat=3):
        assert not is_generating(E, [v])[0]


def test_distinct_entries_generator_requires_room():
    with pytest.raises(ValueError):
        zoo.distinct_entries_generator(GF(2), 2)
    with pytest.raises(ValueError):
        zoo.distinct_entries_generator(GF(3), 3)
    assert zoo.distinct_entries_generator(GF(5), 4) == (1, 2, 3, 4)


def test_etale_logq_generators():
    cases = [(2, 2), (2, 3), (2, 7), (3, 3), (3, 8), (5, 4)]
    for p, n in cases:
        for unital in (False, True):
            gens = zoo.etale_logq_generators(p, n, unital=unital)
            target = n if unital else n + 1
            k = len(gens)
            assert p**k >= target and (k == 0 or p ** (k - 1) < target)
            columns = [tuple(g[j] for g in gens) for j in range(n)]
            assert len(set(columns)) == n
            if not unital:
                assert all(any(c) for c in columns)
            A = zoo.split_etale(GF(p), n)
            assert is_generating(A, gens, unital=unital)[0]


def test_split_etale_closure_dimension_counts_columns():
    # closure dim of a k-tuple equals the number of distinct nonzero columns
    rng = random.Random(5)
    for p, n in ((2, 4), (3, 3)):
        A = zoo.split_etale(GF(p), n)
        for _ in range(15):
            k = rng.randint(1, 3)
            gens = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)]
            columns = {tuple(g[j] for g in gens) for j in range(n)}
            columns.discard((0,) * k)
            assert is_generating(A, gens)[1].closure_dim == len(columns)


# -- field extensions ---------------------------------------------------------


def test_field_extension_etale():
    F4 = field_extension_etale(2, [1, 1, 1])
    assert F4.dim == 2
    assert is_generating(F4, [(0, 1)])[0]
    F9 = field_extension_etale(3, [1, 0, 1])
    assert F9.dim == 2
    assert is_generating(F9, [(0, 1)])[0]
    F8 = field_extension_etale(2, [1, 1, 0, 1])
    assert F8.dim == 3 and is_generating(F8, [(0, 1, 0)])[0]
    with pytest.raises(ValueError):
        field_extension_etale(2, [1, 0, 1])  # (x+1)^2
    with pytest.raises(ValueError):
        field_extension_etale(2, [0, 1, 1])  # x(x+1)
    with pytest.raises(ValueError):
        field_extension_etale(2, [1, 1, 2])  # not monic after reduction
    # in F_4, x generates because x^2 = x + 1 spans the rest
    assert closure_basis(F4, [(0, 1)]) == ((1, 0), (0, 1))


# -- Cayley-Dickson tower ------------------------------------------------------


def base_change(A, field):
    return (fiber_mod_p(A, field.char) if field.char else generic_fiber(A)).algebra


def test_cd_once_is_split_quadratic_etale():
    A = cayley_dickson(integral_ground(), 1)
    assert A.rank == 2
    assert unit_vector(A) == (1, 0)
    F = base_change(A, GF(5))
    half = GF(5).inv(2)
    plus = (half, half)
    minus = (half, GF(5).neg(half))
    assert product(F, plus, plus) == plus
    assert product(F, minus, minus) == minus
    assert product(F, plus, minus) == (0, 0)
    assert product(F, minus, plus) == (0, 0)
    assert unit_vector(F) == (1, 0)


def test_cd_requires_unit_involution_and_nonzero_mu():
    with pytest.raises(ValueError, match="nonzero"):
        cayley_dickson(integral_ground(), 0)
    with pytest.raises(ValueError, match="unit and involution"):
        cayley_dickson(integral_zero_module((0, 0)), 1)
    # Z/2 with the identity involution: doubling refuses any torsion, since
    # the doubled factors of a mixed module such as Z/2 + Z, (2, 0, 2, 0),
    # are not in invariant-factor order
    factors = (2,)
    ground_mod_2 = IntegralAlgebra(
        factors=factors,
        ops=(
            make_z_tensor(factors, 2, [((0, 0), 0, 1)]),
            make_z_tensor(factors, 0, [((), 0, 1)]),
            make_z_tensor(factors, 1, [((0,), 0, 1)]),
        ),
        product_index=0,
        unit_index=1,
        involution_index=2,
    )
    with pytest.raises(ValueError, match="free"):
        cayley_dickson(ground_mod_2, 1)


def test_quaternions():
    H = zoo.quaternion_algebra(QQ)
    assert H.dim == 4
    b = basis(H)
    one, i, j, k = b
    assert product(H, i, i) == tuple(-x for x in one)
    assert product(H, j, j) == tuple(-x for x in one)
    assert product(H, i, j) == k
    assert product(H, j, i) == tuple(-x for x in k)
    for x, y, z in itertools.product(b, repeat=3):
        assert is_zero(H, associator(H, x, y, z))
    assert is_generating(H, [i, j])[0]
    # CD of commutative associative stays associative; CD of the
    # noncommutative quaternions is the non-associative octonion stage
    H_Z = cayley_dickson(cayley_dickson(integral_ground(), -1), -1)
    O = base_change(cayley_dickson(H_Z, -1), QQ)
    assert O.dim == 8
    assert any(
        not is_zero(O, associator(O, x, y, z))
        for x, y, z in itertools.product(basis(O), repeat=3)
    )


def field_ground(field):
    """The field itself: 1-dimensional, unital, identity involution."""
    product = make_tensor(field, 1, 2, [((0, 0), 0, 1)])
    unit = make_tensor(field, 1, 0, [((), 0, 1)])
    conj = make_tensor(field, 1, 1, [((0,), 0, 1)])
    return Multialgebra(
        field=field, dim=1, ops=(product, unit, conj), product_index=0, unit_index=1, involution_index=2
    )


def field_cayley_dickson(alg, mu):
    """Oracle: double a field algebra by evaluating its product on basis
    vectors, (a,b)(c,d) = (ac + mu conj(d) b, da + b conj(c))."""
    field = alg.field
    mu = field.coerce(mu)
    r = alg.dim
    b = basis(alg)
    conj = [involution(alg, x) for x in b]
    triples = []
    for i in range(r):
        for k in range(r):
            pieces = (
                ((i, k), 0, product(alg, b[i], b[k]), 1),
                ((i, r + k), r, product(alg, b[k], b[i]), 1),
                ((r + i, k), r, product(alg, b[i], conj[k]), 1),
                ((r + i, r + k), 0, product(alg, conj[k], b[i]), mu),
            )
            for idx, shift, v, scale in pieces:
                triples.extend((idx, shift + l, scale * c) for l, c in enumerate(v) if c)
    mul = make_tensor(field, 2 * r, 2, triples)
    e = unit_vector(alg)
    unit = make_tensor(field, 2 * r, 0, (((), l, c) for l, c in enumerate(e) if c))
    inv = [((i,), l, c) for i in range(r) for l, c in enumerate(conj[i]) if c]
    inv += [((r + i,), r + i, -1) for i in range(r)]
    sigma = make_tensor(field, 2 * r, 1, inv)
    return Multialgebra(
        field=field, dim=2 * r, ops=(mul, unit, sigma), product_index=0, unit_index=1, involution_index=2
    )


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
def test_z_doubling_matches_field_doubling(field):
    # the Z doubling reads tensor entries; the oracle evaluates the field
    # product on basis vectors.  Their base changes agree as algebras and as
    # documents: ground -> quaternions, Mat_2 -> split octonions, and the
    # split octonions doubled again
    H_Z = cayley_dickson(cayley_dickson(integral_ground(), -1), -1)
    H = field_cayley_dickson(field_cayley_dickson(field_ground(field), -1), -1)
    O_Z = cayley_dickson(integral_matrix_algebra(2), 1)
    O = field_cayley_dickson(zoo.matrix_algebra(field, 2), 1)
    cases = (
        (H_Z, H, zoo.quaternion_algebra(field)),
        (O_Z, O, zoo.split_octonion(field)),
        (cayley_dickson(O_Z, -1), field_cayley_dickson(O, -1), None),
    )
    for over_z, oracle, stock in cases:
        doubled = base_change(over_z, field)
        assert doubled == oracle
        assert serialize_algebra(doubled) == serialize_algebra(oracle)
        if stock is not None:
            assert serialize_algebra(stock) == serialize_algebra(oracle)


def alternativity_holds(alg):
    b = basis(alg)
    # diagonal laws x(xy) = (xx)y and (yx)x = y(xx) on basis pairs
    for x, y in itertools.product(b, repeat=2):
        xx = product(alg, x, x)
        if product(alg, x, product(alg, x, y)) != product(alg, xx, y):
            return False
        if product(alg, product(alg, y, x), x) != product(alg, y, xx):
            return False
    # polarized forms on basis triples cover the multilinear extension
    for x, y, z in itertools.product(b, repeat=3):
        left = tuple(
            alg.field.add(a, c)
            for a, c in zip(associator(alg, x, z, y), associator(alg, z, x, y))
        )
        right = tuple(
            alg.field.add(a, c)
            for a, c in zip(associator(alg, y, x, z), associator(alg, y, z, x))
        )
        if any(v != alg.field.zero for v in left + right):
            return False
    return True


def test_split_octonion_structure():
    for field in (GF(2), GF(5), QQ):
        O = zoo.split_octonion(field)
        assert O.dim == 8
        assert alternativity_holds(O)
        assert any(
            not is_zero(O, associator(O, x, y, z))
            for x, y, z in itertools.product(basis(O), repeat=3)
        )
        gens = zoo.octonion_generators(field)
        assert is_generating(O, gens)[0]


def test_octonion_involution_is_anti_automorphism():
    O = zoo.split_octonion(GF(3))
    rng = random.Random(7)
    for _ in range(20):
        x = tuple(rng.randrange(3) for _ in range(8))
        y = tuple(rng.randrange(3) for _ in range(8))
        assert involution(O, involution(O, x)) == x
        assert involution(O, product(O, x, y)) == product(O, involution(O, y), involution(O, x))


# -- Albert -------------------------------------------------------------------


def test_albert_structure():
    A = zoo.albert(GF(5))
    assert A.dim == 27
    b = basis(A)
    for x, y in itertools.product(b, repeat=2):
        assert product(A, x, y) == product(A, y, x)
    assert unit_vector(A) == (1, 1, 1) + (0,) * 24
    with pytest.raises(ValueError):
        zoo.albert(GF(2))


def test_albert_jordan_identity_sampled():
    A = zoo.albert(GF(5))
    rng = random.Random(13)
    for _ in range(100):
        x = tuple(rng.randrange(5) for _ in range(27))
        y = tuple(rng.randrange(5) for _ in range(27))
        x2 = product(A, x, x)
        assert product(A, x2, product(A, x, y)) == product(A, x, product(A, x2, y))


def test_albert_generators_triple():
    A = zoo.albert(GF(5))
    gens = zoo.albert_generators(A)
    assert len(gens) == 3
    ok, cert = is_generating(A, gens)
    assert ok and cert.closure_dim == 27


# -- products -----------------------------------------------------------------


def product_algebra(a: Multialgebra, b: Multialgebra) -> Multialgebra:
    """Componentwise structure on A + B.

    The designated products always combine; the unit/involution combine when
    both inputs carry them.  Operations beyond the designated ones have no
    canonical pairing and are rejected.
    """
    if a.field != b.field:
        raise ValueError("product of algebras over different fields")
    field = a.field
    for alg in (a, b):
        designated = {alg.product_index, alg.unit_index, alg.involution_index}
        if set(range(len(alg.ops))) - designated:
            raise ValueError("cannot combine algebras with undesignated operations")
    ra = a.dim
    dim = a.dim + b.dim

    def shifted(op: OperationTensor, offset: int):
        for idx, outs in op.entries:
            for l, c in outs:
                yield tuple(i + offset for i in idx), l + offset, c

    ops = []
    product_triples = list(shifted(a.ops[a.product_index], 0))
    product_triples += list(shifted(b.ops[b.product_index], ra))
    ops.append(make_tensor(field, dim, 2, product_triples))
    unit_index = None
    if a.unit_index is not None and b.unit_index is not None:
        unit_triples = list(shifted(a.ops[a.unit_index], 0)) + list(
            shifted(b.ops[b.unit_index], ra)
        )
        ops.append(make_tensor(field, dim, 0, unit_triples))
        unit_index = len(ops) - 1
    involution_index = None
    if a.involution_index is not None and b.involution_index is not None:
        inv_triples = list(shifted(a.ops[a.involution_index], 0)) + list(
            shifted(b.ops[b.involution_index], ra)
        )
        ops.append(make_tensor(field, dim, 1, inv_triples))
        involution_index = len(ops) - 1
    return Multialgebra(
        field=field,
        dim=dim,
        ops=tuple(ops),
        product_index=0,
        unit_index=unit_index,
        involution_index=involution_index,
    )


def test_product_algebra():
    assert product_algebra(
        zoo.zero_algebra(GF(2), 2), zoo.zero_algebra(GF(2), 3)
    ) == zoo.zero_algebra(GF(2), 5)
    assert product_algebra(
        zoo.matrix_algebra(GF(2), 1), zoo.matrix_algebra(GF(2), 1)
    ) == zoo.split_etale(GF(2), 2)
    with pytest.raises(ValueError):
        product_algebra(zoo.zero_algebra(GF(2), 1), zoo.zero_algebra(GF(3), 1))
    P = product_algebra(zoo.matrix_algebra(GF(3), 2), zoo.matrix_algebra(GF(3), 1))
    assert P.dim == 5
    assert P.unit_index is not None
    assert unit_vector(P) == (1, 0, 0, 1, 1)
