import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algen.algebra
import algen.integral
from algen.algebra import Multialgebra, OperationTensor, is_generating, make_tensor
from algen.fields import GF, QQ
from algen.intmat import FactorizationIncomplete, factor, snf
from algen.integral import (
    BadPrimesReport,
    IntegralAlgebra,
    bad_primes,
    cayley_dickson,
    fiber_mod_p,
    generic_fiber,
    integral_ground,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    make_z_tensor,
    monomial_subgroup,
    normalize_presentation,
    reduce_element,
    verify_global_generation,
)
from algen.zoo import matrix_algebra, split_etale
from support import (
    _descent_safe_tensor,
    evaluate,
    involution,
    lattice_contains,
    product,
    random_integral_algebra,
    subgroup_by_rounds,
    unit_vector,
)

# the ring Z[t]/(t^2 - 1) on basis (1, t): used as a presentation workout
RING_T = [
    ((0, 0), 0, 1),
    ((0, 1), 1, 1),
    ((1, 0), 1, 1),
    ((1, 1), 0, 1),
]


def enumerate_module(factors, step_limit=10):
    """All elements of the finite part, free coordinates swept in a window."""
    ranges = [range(d) if d else range(-step_limit, step_limit + 1) for d in factors]
    return [tuple(v) for v in itertools.product(*ranges)]


def additive_span(factors, vectors):
    """Subgroup of a finite module generated by vectors (enumeration oracle)."""
    assert all(d > 0 for d in factors)
    seen = {tuple([0] * len(factors))}
    frontier = [tuple(0 for _ in factors)]
    while frontier:
        base = frontier.pop()
        for v in vectors:
            nxt = reduce_element(factors, [a + b for a, b in zip(base, v)])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_factor_shape_validation():
    for bad in [(3, 2), (0, 2), (1,), (-2,), (2, 3)]:
        with pytest.raises(ValueError):
            integral_zero_module(bad)
    # valid chains
    integral_zero_module((2, 4, 0, 0))
    integral_zero_module(())
    integral_zero_module((6,))


def test_tensor_must_descend():
    # torsion coordinate cannot map into a free one
    bad = make_z_tensor((0, 0), 2, [((0, 0), 1, 1)])
    with pytest.raises(ValueError, match="descend"):
        IntegralAlgebra(factors=(2, 0), ops=(bad,), product_index=0)
    # 2 * 1 != 0 mod 4
    bad2 = make_z_tensor((0, 0), 2, [((0, 0), 1, 1)])
    with pytest.raises(ValueError, match="descend"):
        IntegralAlgebra(factors=(2, 4), ops=(bad2,), product_index=0)
    # 2 * 2 == 0 mod 4 is fine
    ok = make_z_tensor((2, 4), 2, [((0, 0), 1, 2)])
    IntegralAlgebra(factors=(2, 4), ops=(ok,), product_index=0)


def test_tensor_canonical_form_enforced():
    raw = OperationTensor(arity=2, entries=(((0, 0), ((0, 5),)),))
    with pytest.raises(ValueError, match="canonical"):
        IntegralAlgebra(factors=(3,), ops=(raw,), product_index=0)
    assert make_z_tensor((3,), 2, [((0, 0), 0, 5)]).entries == (((0, 0), ((0, 2),)),)


def test_out_of_range_index_is_a_value_error():
    # the descent check reads factors[i], so the range check must come first
    raw = OperationTensor(arity=2, entries=(((0, 5), ((0, 1),)),))
    with pytest.raises(ValueError, match="out of range"):
        IntegralAlgebra(factors=(2,), ops=(raw,), product_index=0)
    raw = OperationTensor(arity=2, entries=(((0, 0), ((0, Fraction(1, 2)),)),))
    with pytest.raises(ValueError, match="integer coordinate"):
        IntegralAlgebra(factors=(0,), ops=(raw,), product_index=0)


def test_evaluate_and_reduce():
    A = integral_split_etale(2)
    assert product(A, (2, 3), (5, 7)) == (10, 21)
    assert unit_vector(A) == (1, 1)
    B = integral_zero_module((4,))
    assert product(B, (3,), (3,)) == (0,)
    assert reduce_element((4, 0), (-1, -1)) == (3, -1)
    with pytest.raises(ValueError):
        reduce_element((4,), (True,))
    with pytest.raises(ValueError):
        product(A, (1,), (1, 2))


def test_element_api_reduces_values_mod_the_factors():
    # Z/4 with its ring product, unit and the identity involution
    ops = (
        make_z_tensor((4,), 2, [((0, 0), 0, 1)]),
        make_z_tensor((4,), 0, [((), 0, 1)]),
        make_z_tensor((4,), 1, [((0,), 0, 1)]),
    )
    A = IntegralAlgebra(factors=(4,), ops=ops, product_index=0, unit_index=1, involution_index=2)
    assert product(A, (3,), (3,)) == (1,)
    assert evaluate(A, 0, ((-1,), (7,))) == (1,)
    assert unit_vector(A) == (1,)
    assert involution(A, (-2,)) == (2,)
    with pytest.raises(ValueError, match="integer coordinate"):
        involution(A, (True,))


def test_normalize_z2_plus_z3():
    pres = normalize_presentation(2, [[2, 0], [0, 3]], [(2, [])], 0)
    A = pres.algebra
    assert A.factors == (6,)
    # the mapper is an additive isomorphism: all 6 raw classes stay distinct
    images = {pres.map_element((a, b)) for a in range(2) for b in range(3)}
    assert len(images) == 6
    assert pres.map_element((2, 3)) == (0,)
    s = pres.map_element((1, 1))
    assert additive_span(A.factors, [s]) == set(enumerate_module(A.factors))


def test_normalize_conjugates_product():
    # Z[t]/(t^2-1) modulo the relation 2 + 2t = 0; the unit survives the
    # change of basis only if the tensor conjugation is correct, and the
    # constructor re-checks the unit law.
    pres = normalize_presentation(
        2, [[2, 2]], [(2, RING_T), (0, [((), 0, 1)])], 0, unit_index=1
    )
    A = pres.algebra
    assert A.factors == (2, 0)
    one = pres.map_element((1, 0))
    t = pres.map_element((0, 1))
    assert unit_vector(A) == reduce_element(A.factors, one)
    assert product(A, t, t) == reduce_element(A.factors, one)
    # (1 + t)^2 = 2 + 2t = 0 in the quotient
    one_plus_t = pres.map_element((1, 1))
    assert product(A, one_plus_t, one_plus_t) == (0, 0)


def test_normalize_rejects_non_descending_relations():
    # modulo 2t = 0 the square t^2 = 1 does not descend (2 * 1 != 0 in Z)
    with pytest.raises(ValueError, match="descend"):
        normalize_presentation(2, [[0, 2]], [(2, RING_T)], 0)


def test_normalize_trivial_and_empty_relations():
    pres = normalize_presentation(2, [], [(2, [])], 0)
    assert pres.algebra.factors == (0, 0)
    assert pres.map_element((3, -4)) == (3, -4)
    # a unit relation kills a generator entirely
    pres2 = normalize_presentation(2, [[1, 1]], [(2, [])], 0)
    assert pres2.algebra.factors == (0,)
    assert pres2.map_element((1, 1)) == (0,)


def _z6_ring():
    product = make_z_tensor((6,), 2, [((0, 0), 0, 1)])
    unit = make_z_tensor((6,), 0, [((), 0, 1)])
    return IntegralAlgebra(factors=(6,), ops=(product, unit), product_index=0, unit_index=1)


def _apply(triples, m, args):
    """The multilinear map given by (index tuple, output, coefficient)
    triples, applied to integer vectors of length m."""
    out = [0] * m
    for idx, l, c in triples:
        term = c
        for arg, i in zip(args, idx):
            term *= arg[i]
        out[l] += term
    return out


def _disguised_presentation(rng, A):
    """A raw presentation of A: extra generators standing for random
    combinations of A's basis, A's torsion rows and a redundant combination
    of all relation rows, then a random unimodular change of generators.
    Returns (generators, relations, ops as (arity, triples))."""
    r = A.rank
    m = r + rng.randint(1, 2)
    # pi[i]: raw generator i as an element of A
    pi = [[int(i == k) for k in range(r)] for i in range(r)]
    pi += [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r, m)]
    rows = [[d * int(k == i) for k in range(m)] for i, d in enumerate(A.factors) if d]
    rows += [[-x for x in pi[j]] + [int(k == j) for k in range(r, m)] for j in range(r, m)]
    coeffs = [rng.randint(-2, 2) for _ in rows]
    rows.append([sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(m)])
    # new generator a is row a of Q in the old ones, so it is the element
    # sum_i Q[a][i] pi[i] of A, and old coordinates become new ones by Q^-1
    Q = [[int(i == j) for j in range(m)] for i in range(m)]
    Qinv = [row[:] for row in Q]
    for _ in range(3 * m):
        a, b = rng.sample(range(m), 2)
        q = rng.randint(-3, 3)
        Q[a] = [x + q * y for x, y in zip(Q[a], Q[b])]
        for row in Qinv:
            row[b] -= q * row[a]

    def rewrite(v):
        return [sum(v[k] * Qinv[k][j] for k in range(m)) for j in range(m)]

    ops = []
    for k, op in enumerate(A.ops):
        triples = []
        for idx in itertools.product(range(m), repeat=op.arity):
            args = [[sum(Q[a][i] * pi[i][j] for i in range(m)) for j in range(r)] for a in idx]
            value = rewrite(list(evaluate(A, k, args)) + [0] * (m - r))
            triples.extend((idx, l, c) for l, c in enumerate(value) if c)
        ops.append((op.arity, triples))
    return m, [rewrite(row) for row in rows], ops


def test_normalize_recovers_disguised_presentations():
    # the invariant factors are those of the algebra the presentation came
    # from, and map_element carries every raw operation to the normalized one
    rng = random.Random(13)
    for A in (integral_matrix_algebra(2), integral_split_etale(3), _z6_ring()):
        for _ in range(6):
            m, relations, ops = _disguised_presentation(rng, A)
            pres = normalize_presentation(
                m, relations, ops, A.product_index, A.unit_index, A.involution_index
            )
            assert pres.algebra.factors == A.factors
            for k, (arity, triples) in enumerate(ops):
                for _ in range(4):
                    args = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(arity)]
                    expected = pres.map_element(_apply(triples, m, args))
                    assert evaluate(pres.algebra, k, [pres.map_element(v) for v in args]) == expected


def test_fiber_dimensions_torsion():
    A = integral_zero_module((6,))
    assert [fiber_mod_p(A, p).algebra.dim for p in (2, 3, 5)] == [1, 1, 0]
    B = integral_zero_module((2, 0))
    assert fiber_mod_p(B, 2).algebra.dim == 2
    assert fiber_mod_p(B, 3).algebra.dim == 1
    with pytest.raises(ValueError):
        fiber_mod_p(A, 6)
    # each fiber is built once per algebra and prime, and then shared
    assert fiber_mod_p(A, 2) is fiber_mod_p(A, 2)
    assert fiber_mod_p(B, 3) is not fiber_mod_p(B, 2)
    assert generic_fiber(B) is generic_fiber(B)


def test_fiber_of_free_algebras_matches_field_zoo():
    M2 = integral_matrix_algebra(2)
    for p in (2, 5):
        assert fiber_mod_p(M2, p).algebra == matrix_algebra(GF(p), 2)
    assert generic_fiber(M2).algebra == matrix_algebra(QQ, 2)
    E3 = integral_split_etale(3)
    assert fiber_mod_p(E3, 2).algebra == split_etale(GF(2), 3)
    assert generic_fiber(E3).algebra == split_etale(QQ, 3)


def _old_restriction(A, coords, field):
    """The tensors of a fiber as make_tensor builds them from the Z entries
    that survive: the reference for the entry map of _restricted_fiber."""
    pos = {c: j for j, c in enumerate(coords)}
    ops = []
    for op in A.ops:
        triples = [
            (tuple(pos[i] for i in idx), pos[l], c)
            for idx, outs in op.entries
            if all(i in pos for i in idx)
            for l, c in outs
            if l in pos
        ]
        ops.append(make_tensor(field, len(coords), op.arity, triples))
    return tuple(ops)


# the Z forms of the zoo and of the lift benchmark, and a torsion ring
Z_FORMS = {
    "ground": integral_ground,
    "quaternions": lambda: cayley_dickson(cayley_dickson(integral_ground(), -1), -1),
    "split-octonions": lambda: cayley_dickson(integral_matrix_algebra(2), 1),
    "torsion-ring": lambda: _torsion_ring(),
    **{f"mat{n}": (lambda n=n: integral_matrix_algebra(n)) for n in (1, 2, 3, 4)},
    **{f"etale{n}": (lambda n=n: integral_split_etale(n)) for n in (0, 3, 5, 8)},
    **{
        "zero-" + ".".join(map(str, f)): (lambda f=f: integral_zero_module(f))
        for f in ((6, 0), (2, 2), (2, 4, 0), (6,))
    },
}


@pytest.mark.parametrize("name", sorted(Z_FORMS))
def test_fibers_map_the_canonical_entries(name):
    A = Z_FORMS[name]()
    for p in (2, 3, 5, None):
        fib = fiber_mod_p(A, p) if p else generic_fiber(A)
        field = GF(p) if p else QQ
        assert fib.algebra.ops == _old_restriction(A, fib.coordinates, field)


@pytest.mark.parametrize("name", sorted(Z_FORMS))
def test_checking_constructor_accepts_every_fiber(name):
    # fibres are built without check_roles, which their Z form passed; the
    # checking constructor accepts each one and builds an equal algebra
    A = Z_FORMS[name]()
    for p in (2, 3, None):
        fib = (fiber_mod_p(A, p) if p else generic_fiber(A)).algebra
        checked = Multialgebra(
            fib.field, fib.dim, fib.ops, fib.product_index, fib.unit_index, fib.involution_index
        )
        assert checked == fib


def test_construction_and_fibers_do_not_recanonicalize(monkeypatch):
    # the Z forms and their fibers are built, with canonical tensors, before the patch
    forms = [cayley_dickson(integral_matrix_algebra(2), 1), _torsion_ring()]
    expected = [(fiber_mod_p(B, 2), fiber_mod_p(B, 3), generic_fiber(B)) for B in forms]

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_tensor called")

    for module in (algen.algebra, algen.integral):
        monkeypatch.setattr(module, "canonical_tensor", refuse)
    for B, fibers in zip(forms, expected):
        fresh = IntegralAlgebra(B.factors, B.ops, B.product_index, B.unit_index, B.involution_index)
        got = (fiber_mod_p(fresh, 2), fiber_mod_p(fresh, 3), generic_fiber(fresh))
        assert [f.algebra for f in got] == [f.algebra for f in fibers]


def test_fiber_projection_and_lift():
    A = integral_zero_module((2, 4, 0))
    fib = fiber_mod_p(A, 2)
    assert fib.coordinates == (0, 1, 2)
    assert fib.project((3, 5, -1)) == (1, 1, 1)
    assert fib.lift((1, 0, 1)) == (1, 0, 1)
    fib3 = fiber_mod_p(A, 3)
    assert fib3.coordinates == (2,)
    assert fib3.project((1, 1, 7)) == (1,)
    assert fib3.lift((2,)) == (0, 0, 2)
    gen = generic_fiber(A)
    assert gen.project((1, 2, 5)) == (5,)
    assert gen.lift(gen.project((1, 2, 5))) == (0, 0, 5)
    with pytest.raises(ValueError):
        gen.lift((Fraction(1, 2),))


def test_fiber_mixed_coefficient_reduction():
    # 2 * e0 * e0 -> e1 over Z/2 + Z/4 vanishes mod 2 but not mod 4... the
    # only fiber is at 2 and there the coefficient 2 dies.
    op = make_z_tensor((2, 4), 2, [((0, 0), 1, 2)])
    A = IntegralAlgebra(factors=(2, 4), ops=(op,), product_index=0)
    fib = fiber_mod_p(A, 2)
    assert fib.algebra.dim == 2
    assert fib.algebra.ops[0].entries == ()
    assert product(A, (1, 0), (1, 0)) == (0, 2)


def test_monomial_subgroup_zero_product_order6():
    pres = normalize_presentation(2, [[2, 0], [0, 3]], [(2, [])], 0)
    A = pres.algebra
    s = pres.map_element((1, 1))
    B = monomial_subgroup(A, [s])
    assert B.is_full()
    # oracle: enumerate the additive closure in the raw coordinates
    raw = {(0, 0)}
    while True:
        new = {((a + 1) % 2, (b + 1) % 3) for a, b in raw} | raw
        if new == raw:
            break
        raw = new
    assert len(raw) == 6


def test_monomial_subgroup_matrix_pair_full():
    M2 = integral_matrix_algebra(2)
    pair = [(0, 0, 0, 1), (0, 1, 1, 0)]
    assert monomial_subgroup(M2, pair).is_full()


def test_monomial_subgroup_index_two():
    A = integral_zero_module((0,))
    B = monomial_subgroup(A, [(2,)])
    assert B.rows == ((2,),)


def test_monomial_subgroup_contains_unit():
    E2 = integral_split_etale(2)
    B = monomial_subgroup(E2, [])
    assert lattice_contains(B, (1, 1))
    assert B.rows == ((1, 1),)


def test_bad_primes_matrix_pair_empty():
    M2 = integral_matrix_algebra(2)
    rep = bad_primes(M2, [(0, 0, 0, 1), (0, 1, 1, 0)])
    assert not rep.generic_fail and rep.primes == () and rep.exponent == 1


def test_bad_primes_etale_distinct_entries():
    E3 = integral_split_etale(3)
    rep = bad_primes(E3, [(1, 2, 3)])
    assert not rep.generic_fail
    assert rep.primes == (2,)
    # cross-check by direct fiber closure at small primes
    for p in (2, 3, 5, 7):
        fib = fiber_mod_p(E3, p)
        ok, _ = is_generating(fib.algebra, [fib.project((1, 2, 3))], unital=True)
        assert ok == (p not in rep.primes)


def test_bad_primes_generic_fail():
    E3 = integral_split_etale(3)
    assert bad_primes(E3, []).generic_fail  # the unit alone has rank 1 < 3
    A = integral_zero_module((0, 0))
    assert bad_primes(A, [(1, 1)]).generic_fail
    assert bad_primes(A, []).generic_fail
    # a torsion module is never a generic failure: its quotient is finite
    T = integral_zero_module((6,))
    rep = bad_primes(T, [])
    assert not rep.generic_fail and rep.primes == (2, 3) and rep.exponent == 6


def test_bad_primes_factorization_incomplete():
    big = (1 << 89) - 1  # prime, but beyond the proven primality range
    A = integral_zero_module((big,))
    with pytest.raises(FactorizationIncomplete) as info:
        bad_primes(A, [])
    assert info.value.cofactor == big


def _support_by_snf(A, B):
    """The prime support read off an SNF of every full-rank lattice."""
    if B.rank < A.rank:
        return BadPrimesReport(primes=(), exponent=None)
    diag = snf(B.rows).diag if B.rows else ()
    exponent = diag[-1] if diag else 1
    return BadPrimesReport(primes=factor(exponent).distinct_primes(), exponent=exponent)


def _torsion_ring():
    """Z[t]/(t^2 - 1, 2 + 2t), normalized to invariant factors (2, 0)."""
    ops = [(2, RING_T), (0, [((), 0, 1)])]
    return normalize_presentation(2, [[2, 2]], ops, 0, unit_index=1).algebra


@pytest.mark.parametrize(
    "A, sizes, entries",
    [
        (integral_matrix_algebra(2), (0, 2, 3), (-1, 0, 1)),
        (integral_matrix_algebra(3), (1, 2), (-1, 0, 1)),
        (integral_split_etale(5), (2, 3, 4), (0, 1)),
        (integral_zero_module((2, 4, 0)), (2, 3, 4), (-1, 0, 1)),
        (_torsion_ring(), (0, 1, 2), (-3, -1, 0, 1, 2, 3)),
    ],
    ids=["mat2-z", "mat3-z", "etale5-z", "zero-2-4-0", "torsion-ring"],
)
def test_subgroup_stops_at_the_full_lattice(A, sizes, entries):
    # the full-lattice exit and the SNF skip against the plain round loop
    rng = random.Random(f"subgroup:{A.factors}")
    seen = {True: 0, False: 0}
    for _ in range(30):
        S = [
            tuple(rng.choice(entries) for _ in range(A.rank))
            for _ in range(rng.choice(sizes))
        ]
        B = monomial_subgroup(A, S)
        want = subgroup_by_rounds(A, S)
        assert B == want, (A.factors, S)
        assert bad_primes(A, S) == _support_by_snf(A, want), (A.factors, S)
        seen[B.is_full()] += 1
    assert min(seen.values()) >= 3, seen


def test_verify_global_generation_examples():
    pres = normalize_presentation(2, [[2, 0], [0, 3]], [(2, [])], 0)
    rep = verify_global_generation(pres.algebra, [pres.map_element((1, 1))])
    assert rep.generates and rep.support.primes == ()

    A = integral_zero_module((2, 0))
    rep = verify_global_generation(A, [(1, 1)])
    assert not rep.generates
    assert rep.support.primes == (2,)
    assert _lattice_flags(rep) == (True, ((2, False),))

    M2 = integral_matrix_algebra(2)
    rep = verify_global_generation(M2, [(0, 0, 0, 1), (0, 1, 1, 0)])
    assert rep.generates and rep.subgroup.is_full()


def test_verify_zero_rank_module():
    A = integral_zero_module(())
    rep = verify_global_generation(A, [])
    assert rep.generates and rep.support.exponent == 1


def _symmetrized(A):
    """A with its product replaced by x y + y x, which descends to the
    module when x y does: each entry keeps the factors of its slots."""
    prod = A.ops[A.product_index]
    triples = [(idx, l, c) for idx, outs in prod.entries for l, c in outs]
    triples += [((j, i), l, c) for (i, j), l, c in triples]
    ops = list(A.ops)
    ops[A.product_index] = make_z_tensor(A.factors, 2, triples)
    return IntegralAlgebra(factors=A.factors, ops=tuple(ops), product_index=A.product_index)


def test_subgroup_matches_ordered_round_loop_on_random_forms():
    # a symmetric product takes each unordered pair of lattice rows once;
    # the plain round loop takes every ordered pair
    rng = random.Random(23)
    symmetric = 0
    for trial in range(600):
        A = random_integral_algebra(rng)
        if trial % 2:
            A = _symmetrized(A)
            assert A.ops[A.product_index].symmetric
        symmetric += A.ops[A.product_index].symmetric
        S = [tuple(rng.randint(-4, 4) for _ in range(A.rank)) for _ in range(rng.randrange(4))]
        assert monomial_subgroup(A, S) == subgroup_by_rounds(A, S), (A, S)
    assert 300 <= symmetric < 600


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    torsion=st.booleans(),
    symmetric=st.booleans(),
    height=st.sampled_from((1, 4, 30)),
)
def test_semi_naive_subgroup_matches_the_round_loop(seed, torsion, symmetric, height):
    # the semi-naive loop against the plain round loop it replaced, on random
    # Z-algebras: with torsion set, on a module with a finite factor
    rng = random.Random(seed)
    A = random_integral_algebra(rng)
    while torsion and not any(A.factors):
        A = random_integral_algebra(rng)
    if symmetric:
        A = _symmetrized(A)
    S = [tuple(rng.randint(-height, height) for _ in range(A.rank)) for _ in range(rng.randrange(5))]
    assert monomial_subgroup(A, S) == subgroup_by_rounds(A, S)


def test_subgroup_matches_the_round_loop_with_a_ternary_op():
    # the closure loop's general-arity tuples over Z: a product and a
    # descent-safe arity-3 operation on rank at most 4, each draw checked
    # against the plain round loop, and the ternary op enlarges some lattices
    factors = (0, 0, 0, 0)
    # b3 = t(b1, b2, b0) needs a tuple of two generators beyond the seed b0
    chain = make_z_tensor(factors, 3, [((0, 0, 0), 1, 1), ((1, 0, 0), 2, 1), ((1, 2, 0), 3, 2)])
    A = IntegralAlgebra(factors=factors, ops=(make_z_tensor(factors, 2, []), chain), product_index=0)
    B = monomial_subgroup(A, [(1, 0, 0, 0)])
    assert B == subgroup_by_rounds(A, [(1, 0, 0, 0)]) and B.rows[-1] == (0, 0, 0, 2)
    rng = random.Random(31)
    shapes = [(2,), (0,), (6,), (2, 0), (6, 0), (2, 4), (2, 2, 0), (3, 0, 0), (2, 4, 0, 0), (0, 0, 0, 0)]
    enlarged = 0
    for _ in range(150):
        factors = shapes[rng.randrange(len(shapes))]
        m = len(factors)
        prod = _descent_safe_tensor(rng, factors, 2, rng.randrange(1, 2 * m + 2))
        ternary = _descent_safe_tensor(rng, factors, 3, rng.randrange(1, m + 2))
        A = IntegralAlgebra(factors=factors, ops=(prod, ternary), product_index=0)
        S = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(rng.randrange(5))]
        B = monomial_subgroup(A, S)
        assert B == subgroup_by_rounds(A, S), (A, S)
        without = IntegralAlgebra(factors=factors, ops=(prod,), product_index=0)
        enlarged += B != monomial_subgroup(without, S)
    assert enlarged >= 10, enlarged


def test_fiber_coherence_randomized():
    rng = random.Random(7)
    for _ in range(50):
        A = random_integral_algebra(rng)
        k = rng.randrange(0, 3)
        S = [
            tuple(rng.randint(-4, 4) for _ in range(A.rank))
            for _ in range(k)
        ]
        try:
            rep = bad_primes(A, S)
        except FactorizationIncomplete:
            continue
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            fib = fiber_mod_p(A, p)
            ok, _ = is_generating(fib.algebra, [fib.project(v) for v in S], unital=True)
            if rep.generic_fail:
                # a missed free direction is missed at every prime
                assert not ok
            else:
                assert ok == (p not in rep.primes), (A.factors, S, p)
        gfib = generic_fiber(A)
        gok, _ = is_generating(gfib.algebra, [gfib.project(v) for v in S], unital=True)
        assert gok == (not rep.generic_fail)


def _lattice_flags(rep):
    """(rational fibre generated, (p, fibre at p generated) per bad prime),
    read off the monomial subgroup: every bad prime's fibre fails."""
    return not rep.support.generic_fail, tuple((p, False) for p in rep.support.primes)


def _closure_flags(A, S):
    """_lattice_flags by fibre closures, as
    verify_global_generation computed them before the lattice decided them:
    the rational fibre, then the fibre at each bad prime, constants adjoined."""
    vetted = [reduce_element(A.factors, v) for v in S]
    support = bad_primes(A, vetted)
    gf = generic_fiber(A)
    generic_ok, _ = is_generating(gf.algebra, [gf.project(v) for v in vetted], unital=True)
    checks = []
    for p in support.primes:
        fib = fiber_mod_p(A, p)
        ok, _ = is_generating(fib.algebra, [fib.project(v) for v in vetted], unital=True)
        checks.append((p, ok))
    return generic_ok, tuple(checks)


def test_verify_report_consistency_randomized():
    # the flags derived from the lattice against the fibre closures they replaced
    rng = random.Random(11)
    compared = fibres = constants = unary = 0
    generic = {True: 0, False: 0}
    for _ in range(240):
        A = random_integral_algebra(rng)
        S = [tuple(rng.randint(-4, 4) for _ in range(A.rank)) for _ in range(rng.randrange(4))]
        try:
            rep = verify_global_generation(A, S)
        except FactorizationIncomplete:
            continue
        assert rep.generates == (
            not rep.support.generic_fail and rep.support.primes == ()
        )
        flags = _lattice_flags(rep)
        assert flags == _closure_flags(A, S), (A, S)
        compared += 1
        fibres += len(flags[1])
        generic[flags[0]] += 1
        constants += any(op.arity == 0 and op.entries for op in A.ops)
        unary += any(op.arity == 1 and op.entries for op in A.ops)
    assert compared >= 200
    assert fibres >= 100 and constants >= 50 and unary >= 50, (fibres, constants, unary)
    assert min(generic.values()) >= 20, generic


def test_global_generation_runs_no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure ran")

    monkeypatch.setattr(algen.integral, "is_generating", refuse)
    monkeypatch.setattr(algen.algebra, "_closure_reducer", refuse)
    cases = (
        (integral_matrix_algebra(2), [(0, 0, 0, 1), (0, 1, 1, 0)]),
        (integral_matrix_algebra(3), [(1, 0, 0, 0, 2, 0, 0, 0, 3), (0, 1, 0, 0, 0, 1, 1, 0, 0)]),
        (integral_split_etale(3), [(1, 2, 3)]),
        (integral_split_etale(4), []),
        (integral_zero_module((2, 0)), [(1, 1)]),
        (integral_zero_module((6, 0)), [(1, 0), (0, 1)]),
    )
    for A, S in cases:
        rep = verify_global_generation(A, S)
        assert rep.support == bad_primes(A, S)
        assert rep.generates == (not rep.support.generic_fail and not rep.support.primes)
