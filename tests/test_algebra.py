import collections
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import algen.algebra
from algen.algebra import (
    GenerationCertificate,
    Multialgebra,
    OperationTensor,
    _WITNESS_PRIME,
    is_generating,
    make_tensor,
    replay_certificate,
)
from algen.fields import GF, QQ, validate_vector
from algen.integral import IntegralAlgebra, make_z_tensor
from algen.ioformat import canonical_json, generation_certificate_doc
from algen.linalg import RationalSpan, RowReducer
from algen.zoo import (
    albert,
    albert_generators,
    canonical_matrix_generators,
    matrix_algebra,
    octonion_generators,
    quaternion_algebra,
    split_etale,
    split_octonion,
    zero_algebra,
)
from support import closure_basis, field_extension_etale, product, span_basis, span_contains, unit_vector

P = _WITNESS_PRIME


def as_matrix(v, n):
    return [[v[i * n + j] for j in range(n)] for i in range(n)]


def matmul_mod(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)
    ]


def test_evaluate_matches_matrix_multiplication_oracle():
    p = 2
    A = matrix_algebra(GF(p), 2)
    basis = [tuple(1 if k == i else 0 for k in range(4)) for i in range(4)]
    for i, j in itertools.product(range(4), repeat=2):
        got = product(A, basis[i], basis[j])
        expect = matmul_mod(as_matrix(basis[i], 2), as_matrix(basis[j], 2), p)
        assert as_matrix(got, 2) == expect
    # E_{1,1} * E_{1,2} = E_{1,2}
    assert product(A, basis[0], basis[1]) == basis[1]


def test_evaluate_zero_argument_and_errors():
    A = matrix_algebra(GF(3), 2)
    zero = (0,) * 4
    x = (1, 2, 0, 1)
    assert product(A, x, zero) == zero
    assert product(A, zero, x) == zero
    with pytest.raises(ValueError):
        product(A, x, (1, 2, 0))  # wrong length
    with pytest.raises(ValueError):
        product(A, x, (Fraction(1, 3), 0, 0, 0))  # wrong field


def test_tensor_validation():
    with pytest.raises(ValueError):
        make_tensor(GF(2), 2, 2, [((0, 2), 0, 1)])
    with pytest.raises(ValueError):
        make_tensor(GF(2), 2, 2, [((0,), 0, 1)])
    with pytest.raises(ValueError):
        make_tensor(GF(2), 2, 1, [((0,), 2, 1)])
    # duplicate entries accumulate; zero results are dropped
    t = make_tensor(GF(2), 2, 2, [((0, 0), 0, 1), ((0, 0), 0, 1)])
    assert t.entries == ()


def test_hand_built_tensor_indices_are_checked():
    # make_tensor checks ranges; a tensor built by hand is checked by the
    # algebra, so closures never index past dim
    prod = make_tensor(GF(2), 2, 2, [((0, 0), 0, 1)])
    for bad in (
        OperationTensor(2, (((0, 5), ((0, 1),)),)),
        OperationTensor(2, (((0, 1), ((2, 1),)),)),
        OperationTensor(2, (((-1, 0), ((0, 1),)),)),
        OperationTensor(2, (((0,), ((0, 1),)),)),
    ):
        for ops in ((bad,), (prod, bad)):
            with pytest.raises(ValueError):
                Multialgebra(field=GF(2), dim=2, ops=ops, product_index=0)
    Multialgebra(field=GF(2), dim=2, ops=(prod, OperationTensor(1, ())), product_index=0)


def test_hand_built_tensors_must_be_canonical():
    # a tensor out of canonical form would change on a serialize -> parse
    # round trip, and so would the algebra's hash
    prod = make_tensor(GF(2), 2, 2, [((0, 0), 0, 1)])
    for bad in (
        OperationTensor(2, (((1, 0), ((0, 1),)), ((0, 1), ((0, 1),)))),  # index tuples unsorted
        OperationTensor(2, (((0, 1), ((0, 1),)), ((0, 1), ((1, 1),)))),  # index tuple repeated
        OperationTensor(2, (((0, 1), ((1, 1), (0, 1))),)),  # outputs unsorted
        OperationTensor(2, (((0, 1), ((0, 1), (0, 1))),)),  # output repeated
        OperationTensor(2, (((0, 1), ()),)),  # no outputs
        OperationTensor(2, (((0, 1), ((0, 0),)),)),  # zero coefficient
        OperationTensor(2, (((0, 1), ((0, 3),)),)),  # 3 is not reduced mod 2
    ):
        for ops in ((bad,), (prod, bad)):
            with pytest.raises(ValueError, match="canonical form"):
                Multialgebra(field=GF(2), dim=2, ops=ops, product_index=0)
    # a coefficient of a type the field does not hold is refused or changed
    for field, c in ((GF(2), 1.0), (GF(2), Fraction(1, 3)), (GF(2), True), (QQ, 1.5)):
        bad = OperationTensor(2, (((0, 0), ((0, c),)),))
        with pytest.raises(ValueError):
            Multialgebra(field=field, dim=1, ops=(bad,), product_index=0)


def test_designation_validation():
    prod = make_tensor(GF(2), 1, 2, [((0, 0), 0, 1)])
    bad_unit = make_tensor(GF(2), 1, 0, [])  # zero constant is no unit
    with pytest.raises(ValueError):
        Multialgebra(field=GF(2), dim=1, ops=(prod, bad_unit), product_index=0, unit_index=1)
    with pytest.raises(ValueError):
        Multialgebra(field=GF(2), dim=1, ops=(prod,), product_index=0, unit_index=0)
    not_inv = make_tensor(GF(3), 1, 1, [((0,), 0, 2)])  # x -> 2x, squares to 4x != x
    prod3 = make_tensor(GF(3), 1, 2, [((0, 0), 0, 1)])
    with pytest.raises(ValueError):
        Multialgebra(
            field=GF(3), dim=1, ops=(prod3, not_inv), product_index=0, involution_index=1
        )


def test_closure_zero_product_is_span():
    rng = random.Random(2)
    A = zero_algebra(GF(3), 4)
    for _ in range(20):
        seed = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(rng.randint(0, 3))]
        assert closure_basis(A, seed) == span_basis(GF(3), seed)


def test_closure_matrix_pair_dimension_four():
    A = matrix_algebra(GF(2), 2)
    got = closure_basis(A, [(1, 0, 0, 0), (0, 1, 1, 0)])
    assert len(got) == 4


def test_closure_idempotent_element():
    A = split_etale(GF(2), 2)
    assert closure_basis(A, [(1, 0)]) == ((1, 0),)


def test_closure_unital_flag():
    A = split_etale(GF(3), 2)
    assert closure_basis(A, []) == ()
    assert closure_basis(A, [], unital=True) == ((1, 1),)
    # (1, 2) is invertible-diagonal; with the unit it still closes to everything
    assert len(closure_basis(A, [(1, 2)], unital=True)) == 2
    assert len(closure_basis(A, [(1, 2)])) == 2


def test_is_generating_basics():
    A = split_etale(QQ, 3)
    ok, cert = is_generating(A, [])
    assert not ok and cert.closure_dim == 0
    basis = [tuple(QQ.one if k == i else QQ.zero for k in range(3)) for i in range(3)]
    ok, _ = is_generating(A, basis)
    assert ok
    ok, cert = is_generating(A, [(1, 2, 3)])
    assert ok and cert.generates and cert.closure_dim == 3


def test_certificate_replay_and_tamper():
    A = matrix_algebra(GF(2), 2)
    ok, cert = is_generating(A, [(1, 0, 0, 0), (0, 1, 1, 0)])
    assert ok
    assert replay_certificate(A, cert)
    import dataclasses

    bad = dataclasses.replace(cert, closure_dim=3)
    assert not replay_certificate(A, bad)
    bad = dataclasses.replace(cert, monomial_count=cert.monomial_count + 1)
    assert not replay_certificate(A, bad)
    bad = dataclasses.replace(cert, elements=((1, 0, 0, 0), (0, 0, 1, 0)))
    assert not replay_certificate(A, bad)


def reduce_mod_p(alg, p):
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


def base_change_check(alg, p, elements, unital=False):
    """is_generating after reducing a rational algebra and tuple mod p."""
    reduced = reduce_mod_p(alg, p)
    target = reduced.field
    projected = []
    for v in elements:
        vec = validate_vector(QQ, v, alg.dim)
        projected.append(tuple(target.coerce(x) for x in vec))
    ok, _ = is_generating(reduced, projected, unital=unital)
    return ok


def test_base_change_check():
    M = matrix_algebra(QQ, 2)
    pair = [(1, 0, 0, 0), (0, 1, 1, 0)]
    for p in (2, 3, 5, 11):
        assert base_change_check(M, p, pair)
    E = split_etale(QQ, 3)
    assert not base_change_check(E, 2, [(1, 2, 3)])  # reduces to (1,0,1)
    assert base_change_check(E, 5, [(1, 2, 3)])
    assert not base_change_check(E, 7, [(0, 0, 0)])
    with pytest.raises(ValueError):
        base_change_check(E, 2, [(Fraction(1, 2), 1, 0)])
    with pytest.raises(ValueError):
        base_change_check(matrix_algebra(GF(3), 2), 3, pair)  # not over Q


def test_reduce_mod_p_rejects_bad_denominator():
    prod = make_tensor(QQ, 1, 2, [((0, 0), 0, Fraction(1, 2))])
    A = Multialgebra(field=QQ, dim=1, ops=(prod,), product_index=0)
    with pytest.raises(ValueError):
        reduce_mod_p(A, 2)
    reduced = reduce_mod_p(A, 3)
    assert reduced.field == GF(3)


def small_pool():
    return [
        matrix_algebra(GF(3), 2),
        split_etale(GF(2), 3),
        field_extension_etale(2, [1, 1, 1]),
        quaternion_algebra(GF(5)),
    ]


def random_elements(rng, alg, count):
    p = alg.field.p
    return [tuple(rng.randrange(p) for _ in range(alg.dim)) for _ in range(count)]


def test_closure_properties_random():
    rng = random.Random(17)
    for alg in small_pool():
        for _ in range(8):
            s = random_elements(rng, alg, rng.randint(1, 2))
            t = random_elements(rng, alg, 1)
            f = alg.field
            small = closure_basis(alg, s)
            big = closure_basis(alg, s + t)
            # monotone and extensive
            assert span_contains(f, big, small)
            assert span_contains(f, small, s)
            # idempotent
            assert closure_basis(alg, small) == small
            assert len(small) <= alg.dim
            # unital coherence
            unital = closure_basis(alg, s, unital=True)
            assert span_contains(f, unital, small)
            if alg.unit_index is not None and span_contains(f, small, [unit_vector(alg)]):
                assert unital == small


def test_scaling_and_supertuple_invariance():
    rng = random.Random(29)
    for alg in small_pool():
        p = alg.field.p
        for _ in range(8):
            s = random_elements(rng, alg, 2)
            ok, _ = is_generating(alg, s)
            scales = [rng.randrange(1, p) for _ in s]
            scaled = [tuple(alg.field.mul(c, x) for x in v) for c, v in zip(scales, s)]
            assert is_generating(alg, scaled)[0] == ok
            if ok:
                extra = random_elements(rng, alg, 1)
                assert is_generating(alg, s + extra)[0]


# ---------------------------------------------------------------------------
# The closure kernel against the plain round loop
# ---------------------------------------------------------------------------


def _ref_eval(op, dim, args, add, mul, zero, one):
    """Multilinear extension of a tensor through the given ring operations."""
    out = [zero] * dim
    for idx, outs in op.entries:
        c = one
        for slot, i in enumerate(idx):
            c = mul(c, args[slot][i])
        for l, coeff in outs:
            out[l] = add(out[l], mul(c, coeff))
    return tuple(out)


def _field_eval(op, field, dim, args):
    return _ref_eval(op, dim, args, field.add, field.mul, field.zero, field.one)


def _basis(field, dim, i):
    return tuple(field.one if k == i else field.zero for k in range(dim))


class _FieldReducer:
    """RREF through the field's methods: the plain loop's own span."""

    def __init__(self, field, width):
        self.field, self.width = field, width
        self.rows, self.pivots = [], []

    @property
    def dim(self):
        return len(self.rows)

    def insert(self, v):
        f = self.field
        work = list(v)
        for row, c in zip(self.rows, self.pivots):
            coeff = work[c]
            work = [f.sub(x, f.mul(coeff, y)) for x, y in zip(work, row)]
        pivot = next((i for i, x in enumerate(work) if x != f.zero), None)
        if pivot is None:
            return False
        inv = f.inv(work[pivot])
        work = [f.mul(inv, x) for x in work]
        self.rows = [[f.sub(x, f.mul(row[pivot], y)) for x, y in zip(row, work)] for row in self.rows]
        at = sum(1 for c in self.pivots if c < pivot)
        self.rows.insert(at, work)
        self.pivots.insert(at, pivot)
        return True


def _plain_closure(alg, rows, unital):
    """The closure without the mod-P filter or integer arithmetic, in
    field-method arithmetic: rounds over the RREF basis until a fixpoint,
    counting the inserts that grew the span."""
    field = alg.field
    r = alg.dim
    reducer = _FieldReducer(field, r)
    for v in rows:
        reducer.insert(v)
    if unital:
        for op in alg.ops:
            if op.arity == 0:
                reducer.insert(_field_eval(op, field, r, ()))
    monomials = 0
    if reducer.dim == r:
        return reducer, monomials
    while True:
        basis_rows = [tuple(row) for row in reducer.rows]
        grew = False
        for op in alg.ops:
            if op.arity == 0 or not op.entries:
                continue
            for args in itertools.product(basis_rows, repeat=op.arity):
                value = _field_eval(op, field, r, args)
                if reducer.insert(value):
                    monomials += 1
                    grew = True
                    if reducer.dim == r:
                        return reducer, monomials
        if not grew:
            return reducer, monomials


def _assert_matches_plain_loop(alg, elements, unital):
    rows = tuple(tuple(alg.field.coerce(x) for x in v) for v in elements)
    reducer, monomials = _plain_closure(alg, rows, unital)
    assert closure_basis(alg, rows, unital) == tuple(map(tuple, reducer.rows))
    ok, cert = is_generating(alg, rows, unital)
    assert ok == (reducer.dim == alg.dim)
    assert (cert.closure_dim, cert.monomial_count) == (reducer.dim, monomials)
    oracle = GenerationCertificate(
        elements=rows,
        closure_dim=reducer.dim,
        ambient_dim=alg.dim,
        unital=unital,
        monomial_count=monomials,
    )
    assert canonical_json(generation_certificate_doc(alg, cert)) == canonical_json(
        generation_certificate_doc(alg, oracle)
    )
    assert replay_certificate(alg, oracle)


# small rationals, with the filter prime P itself and its inverse now and then,
# so that the reduction mod P loses rank or does not exist
rationals = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-2, 2),
    st.sampled_from((P, -2 * P, Fraction(1, P), Fraction(P, 2))),
)


@st.composite
def rational_algebras(draw):
    """Random Q algebras of dimension <= 4 whose closures need the exact
    test: besides random tables, a Jordan product (x y + y x) / 2
    with its 1/2 constants, the bad prime b_i b_i = P b_(i+1) (full over Q,
    not mod P), a 1/P constant (no reduction mod P), and extra
    arity-0, arity-1 and arity-3 operations."""
    dim = draw(st.integers(1, 4))
    with_unit = draw(st.booleans())
    shape = draw(st.sampled_from(("random", "jordan", "bad-prime", "not-P-integral")))
    triples = []
    for i, j in itertools.product(range(dim), repeat=2):
        if with_unit and 0 in (i, j):
            triples.append(((i, j), i + j, 1))
        elif shape == "bad-prime" and i == j and i + 1 < dim:
            triples.append(((i, i), i + 1, P))
        elif draw(st.integers(0, 2)) == 0:
            triples.append(((i, j), draw(st.integers(0, dim - 1)), draw(rationals)))
    if shape == "jordan":
        triples = [(idx, l, Fraction(c) / 2) for idx, l, c in triples] + [
            ((j, i), l, Fraction(c) / 2) for (i, j), l, c in triples
        ]
    elif shape == "not-P-integral" and not (with_unit and dim == 1):
        triples.append(((dim - 1, dim - 1), 0, Fraction(1, P)))
    ops = [make_tensor(QQ, dim, 2, triples)]
    unit_index = None
    if with_unit:
        unit_index = len(ops)
        ops.append(make_tensor(QQ, dim, 0, [((), 0, 1)]))
    if draw(st.booleans()):
        ops.append(make_tensor(QQ, dim, 0, [((), k, draw(rationals)) for k in range(dim)]))
    if draw(st.booleans()):
        ops.append(
            make_tensor(QQ, dim, 1, [((i,), draw(st.integers(0, dim - 1)), draw(rationals)) for i in range(dim)])
        )
    if draw(st.booleans()):
        index = st.integers(0, dim - 1)
        entries = [
            ((draw(index), draw(index), draw(index)), draw(index), draw(rationals))
            for _ in range(draw(st.integers(1, 3)))
        ]
        ops.append(make_tensor(QQ, dim, 3, entries))
    return Multialgebra(field=QQ, dim=dim, ops=tuple(ops), product_index=0, unit_index=unit_index)


DIFFERENTIAL = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@DIFFERENTIAL
@given(alg=rational_algebras(), unital=st.booleans(), data=st.data())
def test_closure_matches_plain_round_loop(alg, unital, data):
    count = data.draw(st.integers(0, 3))
    elements = [data.draw(st.tuples(*[rationals] * alg.dim)) for _ in range(count)]
    _assert_matches_plain_loop(alg, elements, unital)


@st.composite
def prime_field_algebras(draw):
    """Random F_p algebras, p in {2, 3, 5}, of dimension <= 6: a product
    with random or symmetric entries, dense or sparse, with b_0 as its unit
    or not; now and then a second binary operation, symmetric or not, and
    arity-0, arity-1 and arity-3 operations."""
    p = draw(st.sampled_from((2, 3, 5)))
    field = GF(p)
    dim = draw(st.integers(1, 6))
    index = st.integers(0, dim - 1)
    coeff = st.integers(1, p - 1)
    # a sparse product leaves the other operations room to grow the closure
    sparsity = draw(st.sampled_from((3, 8)))

    def binary(symmetric, skip=()):
        triples = []
        for i, j in itertools.product(range(dim), repeat=2):
            if i in skip or j in skip or (symmetric and i > j):
                continue
            if draw(st.integers(1, sparsity)) == 1:
                triples.append(((i, j), draw(index), draw(coeff)))
        if symmetric:
            triples += [((j, i), l, c) for (i, j), l, c in triples if i != j]
        return triples

    with_unit = draw(st.booleans())
    if with_unit:
        # b_0 b_j = b_j = b_j b_0; the other entries random
        unit_law = [((0, j), j, 1) for j in range(dim)] + [((i, 0), i, 1) for i in range(1, dim)]
        ops = [make_tensor(field, dim, 2, unit_law + binary(draw(st.booleans()), skip=(0,)))]
        ops.append(make_tensor(field, dim, 0, [((), 0, 1)]))
    else:
        ops = [make_tensor(field, dim, 2, binary(draw(st.booleans())))]
    if draw(st.booleans()):
        ops.append(make_tensor(field, dim, 2, binary(draw(st.booleans()))))
    if draw(st.booleans()):
        ops.append(make_tensor(field, dim, 0, [((), k, draw(st.integers(0, p - 1))) for k in range(dim)]))
    if draw(st.booleans()):
        ops.append(make_tensor(field, dim, 1, [((i,), draw(index), draw(coeff)) for i in range(dim)]))
    if draw(st.booleans()):
        count = draw(st.integers(1, 2 * dim))
        entries = [((draw(index), draw(index), draw(index)), draw(index), draw(coeff)) for _ in range(count)]
        ops.append(make_tensor(field, dim, 3, entries))
    return Multialgebra(field=field, dim=dim, ops=tuple(ops), product_index=0, unit_index=1 if with_unit else None)


@DIFFERENTIAL
@given(alg=prime_field_algebras(), unital=st.booleans(), data=st.data())
def test_prime_field_closure_matches_plain_round_loop(alg, unital, data):
    # up to six dimensions from one to three elements leave room for many
    # generators beyond the seed, whose tuples with each other the closure
    # evaluates after their tuples with the seed
    p = alg.field.p
    basis = [_basis(alg.field, alg.dim, i) for i in range(alg.dim)]
    for op in alg.ops:
        commutes = op.arity == 2 and all(
            _field_eval(op, alg.field, alg.dim, (x, y)) == _field_eval(op, alg.field, alg.dim, (y, x))
            for x, y in itertools.product(basis, repeat=2)
        )
        assert op.symmetric == commutes
    count = data.draw(st.integers(1, 3))
    elements = [data.draw(st.tuples(*[st.integers(0, p - 1)] * alg.dim)) for _ in range(count)]
    _assert_matches_plain_loop(alg, elements, unital)
    # and from the seed's RREF, as the exhaustive search starts it
    span = RowReducer(alg.field, alg.dim)
    for v in elements + (alg.constants() if unital else []):
        span.insert(v)
    assert is_generating(alg, elements, unital, span=span) == is_generating(alg, elements, unital)


@pytest.mark.parametrize("field", [GF(2), QQ], ids=["F2", "Q"])
def test_closure_combines_generators_beyond_the_seed(field):
    # from the seed b0 the unary op makes b1 and then b2; only tuples that
    # hold both of them reach b3 = b1 b2 and b4 = t(b2, b0, b1)
    unary = make_tensor(field, 5, 1, [((0,), 1, 1), ((1,), 2, 1)])
    prod = make_tensor(field, 5, 2, [((1, 2), 3, 1)])
    ternary = make_tensor(field, 5, 3, [((2, 0, 1), 4, 1)])
    alg = Multialgebra(field=field, dim=5, ops=(prod, unary, ternary), product_index=0)
    ok, cert = is_generating(alg, [(1, 0, 0, 0, 0)])
    assert ok and cert.monomial_count == 4
    _assert_matches_plain_loop(alg, [(1, 0, 0, 0, 0)], False)


def _evaluations(monkeypatch, alg, elements, unital=False):
    """(generates, closure dimension, binary evaluations, all evaluations)
    of one closure."""
    arities = []
    real = algen.algebra.eval_tensor

    def counted(op, dim, args):
        arities.append(op.arity)
        return real(op, dim, args)

    with monkeypatch.context() as patch:
        patch.setattr(algen.algebra, "eval_tensor", counted)
        ok, cert = is_generating(alg, elements, unital)
    return ok, cert.closure_dim, arities.count(2), len(arities)


@pytest.mark.parametrize("field", [GF(2), QQ], ids=["F2", "Q"])
def test_refuting_closure_evaluates_each_tuple_once(monkeypatch, field):
    # a closure that ends at dimension d below full evaluates each tuple of
    # its d generators once: d^2 ordered pairs, or d(d+1)/2 unordered ones
    # for a symmetric product
    def e(n, *ks):
        return tuple(field.one if k in ks else field.zero for k in range(n))

    mat = matrix_algebra(field, 3)
    assert not mat.ops[mat.product_index].symmetric
    assert _evaluations(monkeypatch, mat, [e(9, 0), e(9, 4), e(9, 1)])[:3] == (False, 3, 9)
    upper = e(9, 0, 1, 2, 4, 5, 8)
    assert _evaluations(monkeypatch, mat, [e(9, 0), upper])[:3] == (False, 5, 25)
    etale = split_etale(field, 8)
    assert etale.ops[etale.product_index].symmetric
    assert _evaluations(monkeypatch, etale, [e(8, 0, 1), e(8, 2)])[:3] == (False, 2, 3)


def test_generating_closure_pairs_new_generators_with_the_seed_first(monkeypatch):
    # a schedule that paired each new generator with every earlier one
    # before the seed met the later ones took 380 evaluations for Mat_6(Q)
    # and 110 for the unital Albert algebra
    mat = matrix_algebra(QQ, 6)
    ok, _, _, total = _evaluations(monkeypatch, mat, canonical_matrix_generators(QQ, 6))
    assert ok and total <= 170
    alb = albert(QQ)
    assert alb.ops[alb.product_index].symmetric
    ok, _, _, total = _evaluations(monkeypatch, alb, albert_generators(alb), unital=True)
    assert ok and total <= 70


def test_value_source_evaluates_each_new_tuple_once(monkeypatch):
    # _new_values against a brute-force enumeration of the tuples of the
    # final generators, some appended while the source is read: each tuple
    # with an index at least start once, a symmetric product on each
    # unordered pair once, no constant and no empty tensor, and each new
    # generator's tuples with the seed before its other tuples
    def tensor(arity, idx):
        return OperationTensor(arity=arity, entries=((idx, ((0, 1),)),))

    constant, unary = tensor(0, ()), tensor(1, (0,))
    product, commutative, ternary = tensor(2, (0, 1)), tensor(2, (0, 0)), tensor(3, (0, 1, 2))
    empty = OperationTensor(arity=2, entries=())
    assert commutative.symmetric and not product.symmetric
    calls = []
    monkeypatch.setattr(algen.algebra, "eval_tensor", lambda op, width, args: calls.append((op, args)))
    rng = random.Random(5)
    appended = 0
    for _ in range(300):
        ops = [op for op in (constant, unary, product, commutative, ternary, empty) if rng.randrange(3)]
        gens = [[i] for i in range(rng.randrange(4))]
        base = rng.randrange(len(gens) + 1)
        start = rng.choice((0, base))
        limit = len(gens) + rng.randrange(4)
        calls.clear()
        for _ in algen.algebra._new_values(ops, 1, gens, base, start):
            if len(gens) < limit and not rng.randrange(3):
                gens.append([len(gens)])
                appended += 1
        index = {id(g): i for i, g in enumerate(gens)}
        seen = [(op, tuple(index[id(g)] for g in args)) for op, args in calls]
        expected = [
            (op, idx)
            for op in ops
            if op.arity and op.entries
            for idx in itertools.product(range(len(gens)), repeat=op.arity)
            if max(idx) >= start and (op is not commutative or idx[0] <= idx[1])
        ]
        unordered = [(op, tuple(sorted(idx)) if op is commutative else idx) for op, idx in seen]
        assert collections.Counter(unordered) == collections.Counter(expected)
        for g in range(base, len(gens)):
            owned = [k for k, (_, idx) in enumerate(seen) if max(idx) == g]
            with_seed = [k for k in owned if all(a < base or a == g for a in seen[k][1])]
            others = [k for k in owned if k not in with_seed]
            assert max(with_seed, default=-1) < min(others, default=len(seen))
    assert appended > 100


@settings(max_examples=100, deadline=None)
@given(alg=rational_algebras())
def test_scaled_tensors_are_one_integer_multiple(alg):
    # the integer closure relies on each scaled tensor being lambda * T for
    # one positive integer lambda per tensor
    for op, scaled in zip(alg.ops, alg._scaled_ops):
        assert [idx for idx, _ in op.entries] == [idx for idx, _ in scaled.entries]
        pairs = [
            (c, s)
            for (_, outs), (_, souts) in zip(op.entries, scaled.entries)
            for (_, c), (_, s) in zip(outs, souts)
        ]
        assert all(isinstance(s, int) for _, s in pairs)
        assert len({s / c for c, s in pairs}) <= 1
        assert all(s / c > 0 for c, s in pairs)


def test_closure_exact_when_witness_prime_is_bad():
    # b0 b0 = P b1: over Q {b0} generates, mod P its closure is span(b0), so
    # the value P b1 stays pending until the exact test makes it a generator
    prod = make_tensor(QQ, 2, 2, [((0, 0), 1, P)])
    A = Multialgebra(field=QQ, dim=2, ops=(prod,), product_index=0)
    assert not is_generating(reduce_mod_p(A, P), [(1, 0)])[0]
    ok, cert = is_generating(A, [(1, 0)])
    assert ok and cert.closure_dim == 2 and cert.monomial_count == 1
    _assert_matches_plain_loop(A, [(1, 0)], False)
    # a seed vector that vanishes mod P still counts over Q
    ok, cert = is_generating(A, [(P, 0)])
    assert ok and cert.monomial_count == 1
    # and so does one that lies in the span of the others only mod P: the
    # seed rank is exact, so nothing is counted as a monomial
    ok, cert = is_generating(A, [(1, 0), (1 + P, P)])
    assert ok and cert.monomial_count == 0
    _assert_matches_plain_loop(A, [(1, 0), (1 + P, P)], False)


def _exact_span(width, vectors):
    # the exact span of independent vectors, as the closure's exact phase builds it
    span = RationalSpan(width)
    for v in vectors:
        span.add(v)
    return span


def test_pending_values_at_the_edge_of_the_size_bound():
    # the exact span of (1, 0, 0) has delta 1 and bound 1, so pending values
    # up to max|v| = P - 1 are settled without the exact test: (P - 1, 0, 0)
    # lies in it, (0, P, 0) one step above lies in it only mod P
    zero = zero_algebra(QQ, 3)
    # built from (3, 0, 0) the Bareiss span has delta 3, and the bound is
    # read off the canonical form
    span = _exact_span(3, [(3, 0, 0)])
    assert (span.delta, span.canonical(), span.size_limit(P)) == (3, (1, [[1, 0, 0]]), P - 1)
    for seed in ([(1, 0, 0), (P - 1, 0, 0)], [(1, 0, 0), (P - 1, 0, 0), (0, P, 0)]):
        _assert_matches_plain_loop(zero, seed, False)
    _, cert = is_generating(zero, [(1, 0, 0), (0, P, 0)])
    assert cert.closure_dim == 2
    # span (1, 2, 0) has bound 1 + 2 = 3: an operation value t (1, 2, 0) at
    # max|v| = 2t = (P - 1) // 3, and a unary one (-m, P - 2m, 0), equal to
    # m (-1, -2, 0) only mod P, at m = (P - 1) // 3 + 1
    limit = (P - 1) // 3
    span = _exact_span(3, [(2, 4, 0)])
    assert (span.canonical(), span.size_limit(P)) == ((1, [[1, 2, 0]]), limit)
    t, m = limit // 2, limit + 1
    prod = make_tensor(QQ, 3, 2, [((0, 0), 0, t), ((0, 0), 1, 2 * t)])
    unary = make_tensor(QQ, 3, 1, [((0,), 0, -m), ((0,), 1, P - 2 * m)])
    inside = Multialgebra(field=QQ, dim=3, ops=(prod,), product_index=0)
    _, cert = is_generating(inside, [(1, 2, 0)])
    assert (cert.closure_dim, cert.monomial_count) == (1, 0)
    _assert_matches_plain_loop(inside, [(1, 2, 0)], False)
    above = Multialgebra(field=QQ, dim=3, ops=(prod, unary), product_index=0)
    _, cert = is_generating(above, [(1, 2, 0)])
    assert cert.closure_dim == 2
    _assert_matches_plain_loop(above, [(1, 2, 0)], False)


def test_pending_values_when_p_divides_the_exact_delta():
    # the exact span of (P, 1, 0) is delta = P with the row (P, 1, 0), so
    # bound >= P and every nonzero pending value takes the exact test: the
    # seed (0, 1, 0), or the value b2 b2 = b1, lies in the span mod P only
    zero = zero_algebra(QQ, 3)
    span = _exact_span(3, [(P, 1, 0)])
    assert (span.canonical(), span.size_limit(P)) == ((P, [[P, 1, 0]]), 0)
    _, cert = is_generating(zero, [(P, 1, 0), (0, 1, 0)])
    assert (cert.closure_dim, cert.monomial_count) == (2, 0)
    _assert_matches_plain_loop(zero, [(P, 1, 0), (0, 1, 0)], False)
    prod = make_tensor(QQ, 3, 2, [((2, 2), 1, 1)])
    A = Multialgebra(field=QQ, dim=3, ops=(prod,), product_index=0)
    ok, cert = is_generating(A, [(P, 1, 0), (0, 0, 1)])
    assert ok and cert.monomial_count == 1
    _assert_matches_plain_loop(A, [(P, 1, 0), (0, 0, 1)], False)
    # zero values, pending as seeds and as products (b0 b0 = 0), lie in
    # every span whatever the bound
    for seed in ([(P, 1, 0), (0, 0, 0)], [(1, 0, 0), (0, 0, 0)], [(0, 0, 0)]):
        _, cert = is_generating(A, seed)
        assert cert.closure_dim == (1 if any(map(any, seed)) else 0)
        _assert_matches_plain_loop(A, seed, False)


def test_closure_without_p_integral_data_takes_plain_loop():
    # a 1/P structure constant or seed entry takes the same loop: the scaled
    # tensors and seed rows are integers, and only their spans matter
    prod = make_tensor(QQ, 2, 2, [((0, 0), 1, Fraction(1, P)), ((1, 1), 0, 1)])
    A = Multialgebra(field=QQ, dim=2, ops=(prod,), product_index=0)
    with pytest.raises(ValueError):
        reduce_mod_p(A, P)
    ok, cert = is_generating(A, [(1, 0)])
    assert ok and cert.monomial_count == 1
    _assert_matches_plain_loop(A, [(1, 0)], True)

    B = matrix_algebra(QQ, 2)
    seed = [(Fraction(1, P), 1, 0, 0), (0, 0, 1, 0)]
    assert is_generating(B, seed)[0]
    _assert_matches_plain_loop(B, seed, False)
    _assert_matches_plain_loop(B, seed[:1], True)


# a coefficient, or a multiple of P, which vanishes mod P
planted = st.builds(operator.mul, st.integers(-2, 2), st.sampled_from((1, 1, P, -P, P * P)))


@st.composite
def planted_cases(draw):
    """A random Q algebra of dimension <= 4 and a seed, with multiples of P
    planted in the structure constants and in the seed: values vanish or
    fall into the span mod P while they are new over Q, so the pending
    values and the exact continuation of the closure loop both run."""
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    ops = []
    for arity in (2, *draw(st.lists(st.sampled_from((0, 1, 3)), max_size=2))):
        entries = [
            (idx, draw(index), draw(planted))
            for idx in itertools.product(range(dim), repeat=arity)
            if draw(st.integers(0, 2))
        ]
        ops.append(make_tensor(QQ, dim, arity, entries))
    alg = Multialgebra(field=QQ, dim=dim, ops=tuple(ops), product_index=0)
    seed = draw(st.lists(st.tuples(*[planted] * dim), max_size=3))
    return alg, seed


@DIFFERENTIAL
@given(case=planted_cases(), unital=st.booleans())
def test_closure_with_planted_multiples_of_p_matches_plain_loop(case, unital):
    alg, seed = case
    _assert_matches_plain_loop(alg, seed, unital)


def test_closure_of_proper_subalgebras_matches_plain_loop():
    # upper-triangular pairs: the mod-P generators run out below full
    # dimension, so the exact test decides every pending value
    for n in (2, 3):
        A = matrix_algebra(QQ, n)
        e11 = tuple(Fraction(int(k == 0)) for k in range(n * n))
        upper = tuple(Fraction(k + 1) if k // n <= k % n else Fraction(0) for k in range(n * n))
        _, cert = is_generating(A, [e11, upper])
        assert cert.closure_dim < n * n
        _assert_matches_plain_loop(A, [e11, upper], False)
        _assert_matches_plain_loop(A, [upper], True)


def _zoo_cases():
    rng = random.Random(41)
    cases = []
    albert_q = albert(QQ)
    for alg, gens in (
        (matrix_algebra(QQ, 3), list(canonical_matrix_generators(QQ, 3))),
        (split_octonion(QQ), list(octonion_generators(QQ))),
        (quaternion_algebra(QQ), [(0, 1, 0, 0), (0, 0, 1, 0)]),
        (split_etale(QQ, 4), [(1, 2, 3, 4)]),
        (zero_algebra(QQ, 3), [(1, 0, 0), (0, 1, 0)]),
        (albert_q, list(albert_generators(albert_q))),
        (matrix_algebra(GF(3), 2), [(1, 0, 0, 0), (0, 1, 1, 0)]),
        (split_etale(GF(2), 3), [(0, 1, 1)]),
    ):
        cases.append((alg, gens))
        cases.append((alg, gens[:1]))
        if alg.dim <= 9:
            height = alg.field.p if alg.field != QQ else 3
            cases.append((alg, [tuple(rng.randrange(height) for _ in range(alg.dim))]))
    return cases


def test_closure_from_the_seed_span_matches_a_fresh_closure():
    # the exhaustive search hands is_generating its RREF of the seed (with
    # the constants when unital); the closure that starts from it decides as
    # a fresh one, over F_2 (rows as bit masks) and F_3, and leaves the
    # span holding the closure
    rng = random.Random(13)
    for p in (2, 3):
        field = GF(p)
        for alg, gens in (
            (matrix_algebra(field, 2), list(canonical_matrix_generators(field, 2))),
            (split_octonion(field), list(octonion_generators(field))),
            (split_etale(field, 4), [(0, 1, 1, 0)]),
            (zero_algebra(field, 3), [(1, 0, 0), (0, 1, 0)]),
        ):
            tuples = [gens, gens[:1], []] + [
                [tuple(rng.randrange(p) for _ in range(alg.dim)) for _ in range(rng.randint(1, 3))]
                for _ in range(4)
            ]
            for elements in tuples:
                for unital in (False, True):
                    span = RowReducer(field, alg.dim)
                    for v in elements + (alg.constants() if unital else []):
                        span.insert(v)
                    seeded = is_generating(alg, elements, unital, span=span)
                    assert seeded == is_generating(alg, elements, unital)
                    assert tuple(map(tuple, span.rows)) == closure_basis(alg, elements, unital)


def test_monomial_count_is_closure_dim_minus_seed_rank():
    for alg, gens in _zoo_cases():
        for unital in (False, True):
            _, cert = is_generating(alg, gens, unital)
            seed = [validate_vector(alg.field, v, alg.dim) for v in gens] + (alg.constants() if unital else [])
            seed_rank = len(span_basis(alg.field, seed))
            assert cert.monomial_count == cert.closure_dim - seed_rank
            assert replay_certificate(alg, cert)


# ---------------------------------------------------------------------------
# Law checks against the brute-force versions
# ---------------------------------------------------------------------------


def _brute_check_laws(ops, dim, unit_index, involution_index, evaluate, basis):
    """The unit and involution laws by evaluating the product (op 0) on
    basis vectors, one evaluation per vector or pair; evaluate returns
    canonical tuples."""
    prod = ops[0]
    if unit_index is not None:
        e = evaluate(ops[unit_index], ())
        for i in range(dim):
            b = basis(i)
            if evaluate(prod, (e, b)) != b or evaluate(prod, (b, e)) != b:
                raise ValueError("designated unit fails the unit law")
    if involution_index is not None:
        sigma = ops[involution_index]
        images = [evaluate(sigma, (basis(i),)) for i in range(dim)]
        for i in range(dim):
            if evaluate(sigma, (images[i],)) != basis(i):
                raise ValueError("designated involution is not an involution")
        for i in range(dim):
            for j in range(dim):
                lhs = evaluate(sigma, (evaluate(prod, (basis(i), basis(j))),))
                if lhs != evaluate(prod, (images[j], images[i])):
                    raise ValueError("designated involution is not an anti-automorphism")


def _signed_involution(draw, factors, fixed):
    """A permutation pi with pi^2 = 1 that only swaps coordinates with equal
    invariant factors and fixes `fixed`, and signs with s_i s_pi(i) = 1."""
    dim = len(factors)
    order = draw(st.permutations([i for i in range(dim) if i != fixed]))
    pi = list(range(dim))
    for a, b in zip(order[::2], order[1::2]):
        if factors[a] == factors[b] and draw(st.booleans()):
            pi[a], pi[b] = b, a
    signs = [1] * dim
    for i in range(dim):
        if i <= pi[i] and i != fixed:
            signs[i] = signs[pi[i]] = draw(st.sampled_from((1, -1)))
    return pi, signs


@st.composite
def invariant_factors(draw):
    """A divisibility chain of torsion factors followed by free coordinates."""
    dim = draw(st.integers(1, 4))
    factors = []
    d = draw(st.sampled_from((2, 3)))
    for _ in range(draw(st.integers(0, dim))):
        factors.append(d)
        d *= draw(st.sampled_from((1, 2, 3)))
    return tuple(factors) + (0,) * (dim - len(factors))


def _descending(factors, idx, out, c):
    """The smallest multiple of c with which the entry descends to the module:
    torsion d_in at an input must annihilate it modulo the target factor."""
    d_out = factors[out]
    for i in idx:
        d_in = factors[i]
        if d_in:
            if d_out == 0:
                return 0
            c *= d_out // math.gcd(d_in, d_out)
    return c


@st.composite
def designated_algebras(draw):
    """Tensors over F_2, F_3, Q or Z^m / torsion with a planted unit b_u
    (u the last coordinate, so that every factor divides its factor) and/or
    a planted signed-permutation involution, then perturbed now and then so
    that a law may fail."""
    ring = draw(st.sampled_from((GF(2), GF(3), QQ, "Z")))
    if ring == "Z":
        factors = draw(invariant_factors())
        coeff = st.integers(-3, 3)
    else:
        factors = (0,) * draw(st.integers(1, 4))
        coeff = st.integers(-2, 2) if ring == QQ else st.integers(0, ring.p - 1)
    dim = len(factors)
    u = dim - 1
    with_unit = draw(st.booleans())
    with_involution = draw(st.booleans())

    def entry(idx, out):
        return idx, out, _descending(factors, idx, out, draw(coeff))

    others = [i for i in range(dim) if not (with_unit and i == u)]
    table = [
        entry((i, j), draw(st.integers(0, dim - 1)))
        for i, j in itertools.product(others, repeat=2)
        if draw(st.integers(0, 2)) == 0
    ]
    sigma = []
    if with_involution:
        pi, s = _signed_involution(draw, factors, u if with_unit else None)
        sigma = [((l,), pi[l], s[l]) for l in range(dim)]
        # T + Phi(T) with Phi(T)(i, j) = s_i s_j sigma(T(pi j, pi i)) is an
        # anti-automorphism table for sigma
        table += [
            ((pi[b], pi[a]), pi[l], s[pi[a]] * s[pi[b]] * s[l] * c) for (a, b), l, c in table
        ]
    if with_unit:
        table += [((u, j), j, 1) for j in range(dim)] + [((j, u), j, 1) for j in others]
    unit = [((), u, 1)]
    for _ in range(draw(st.integers(0, 2))):
        spot = draw(st.sampled_from(("product", "left of unit", "right of unit", "unit", "involution")))
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if spot.endswith("of unit") and with_unit:
            # products with the unit on one side only break one of its laws
            i, j = (u, j) if spot.startswith("left") else (i, u)
        if spot in ("product", "left of unit", "right of unit"):
            table.append(entry((i, j), draw(st.integers(0, dim - 1))))
        elif spot == "unit":
            unit.append(((), i, draw(coeff)))
        else:
            sigma.append(entry((i,), j))
    if ring == "Z":
        ops = tuple(make_z_tensor(factors, k, t) for k, t in ((2, table), (0, unit), (1, sigma)))
    else:
        ops = tuple(make_tensor(ring, dim, k, t) for k, t in ((2, table), (0, unit), (1, sigma)))
    return ring, factors, ops, with_unit, with_involution


def _build(ring, factors, ops, unit_index=None, involution_index=None):
    if ring == "Z":
        return IntegralAlgebra(factors, ops, 0, unit_index, involution_index)
    return Multialgebra(ring, len(factors), ops, 0, unit_index, involution_index)


@settings(max_examples=400, deadline=None)
@given(case=designated_algebras())
def test_law_checks_match_brute_force(case):
    ring, factors, ops, with_unit, with_involution = case
    dim = len(factors)
    _build(ring, factors, ops)  # the tensors themselves are valid
    if ring == "Z":

        def evaluate(op, args):
            raw = _ref_eval(op, dim, args, operator.add, operator.mul, 0, 1)
            return tuple(x % d if d else x for d, x in zip(factors, raw))

        def basis(i):
            return tuple(int(k == i) for k in range(dim))

    else:

        def evaluate(op, args):
            return _field_eval(op, ring, dim, args)

        def basis(i):
            return _basis(ring, dim, i)

    unit_index = 1 if with_unit else None
    involution_index = 2 if with_involution else None
    expected = None
    try:
        _brute_check_laws(ops, dim, unit_index, involution_index, evaluate, basis)
    except ValueError as bad:
        expected = str(bad)
    got = None
    try:
        _build(ring, factors, ops, unit_index, involution_index)
    except ValueError as bad:
        got = str(bad)
    assert got == expected
