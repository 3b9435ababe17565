import itertools
import random
from math import gcd

import pytest

import algen.algebra
import algen.integral
from algen.algebra import OperationTensor, is_generating
from algen.fields import GF, QQ
from algen.intmat import FactorizationIncomplete
from algen.integral import (
    IntegralAlgebra,
    bad_primes,
    fiber_mod_p,
    generic_fiber,
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


def test_evaluate_and_reduce():
    A = integral_split_etale(2)
    assert A.product((2, 3), (5, 7)) == (10, 21)
    assert A.unit_vector() == (1, 1)
    B = integral_zero_module((4,))
    assert B.product((3,), (3,)) == (0,)
    assert reduce_element((4, 0), (-1, -1)) == (3, -1)
    with pytest.raises(ValueError):
        reduce_element((4,), (True,))
    with pytest.raises(ValueError):
        A.product((1,), (1, 2))


def test_element_api_reduces_values_mod_the_factors():
    # Z/4 with its ring product, unit and the identity involution
    ops = (
        make_z_tensor((4,), 2, [((0, 0), 0, 1)]),
        make_z_tensor((4,), 0, [((), 0, 1)]),
        make_z_tensor((4,), 1, [((0,), 0, 1)]),
    )
    A = IntegralAlgebra(factors=(4,), ops=ops, product_index=0, unit_index=1, involution_index=2)
    assert A.product((3,), (3,)) == (1,)
    assert A.evaluate(0, ((-1,), (7,))) == (1,)
    assert A.unit_vector() == (1,)
    assert A.involution((-2,)) == (2,)
    with pytest.raises(ValueError, match="integer coordinate"):
        A.involution((True,))


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
    assert A.unit_vector() == reduce_element(A.factors, one)
    assert A.product(t, t) == reduce_element(A.factors, one)
    # (1 + t)^2 = 2 + 2t = 0 in the quotient
    one_plus_t = pres.map_element((1, 1))
    assert A.product(one_plus_t, one_plus_t) == (0, 0)


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
    from fractions import Fraction

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
    assert A.product((1, 0), (1, 0)) == (0, 2)


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
    assert (1, 1) in B
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


def test_verify_global_generation_examples():
    pres = normalize_presentation(2, [[2, 0], [0, 3]], [(2, [])], 0)
    rep = verify_global_generation(pres.algebra, [pres.map_element((1, 1))])
    assert rep.generates and rep.support.primes == () and rep.fiber_checks == ()

    A = integral_zero_module((2, 0))
    rep = verify_global_generation(A, [(1, 1)])
    assert not rep.generates
    assert rep.support.primes == (2,)
    assert rep.fiber_checks == ((2, False),)
    assert rep.generic_generates

    M2 = integral_matrix_algebra(2)
    rep = verify_global_generation(M2, [(0, 0, 0, 1), (0, 1, 1, 0)])
    assert rep.generates and rep.subgroup.is_full()


def test_verify_zero_rank_module():
    A = integral_zero_module(())
    rep = verify_global_generation(A, [])
    assert rep.generates and rep.support.exponent == 1


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


def _closure_flags(A, S):
    """generic_generates and fiber_checks by fibre closures, as
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
        assert (rep.generic_generates, rep.fiber_checks) == _closure_flags(A, S), (A, S)
        compared += 1
        fibres += len(rep.fiber_checks)
        generic[rep.generic_generates] += 1
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
