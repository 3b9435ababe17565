import dataclasses
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import algen.algebra
import algen.search
from algen.algebra import Multialgebra, is_generating, make_tensor, replay_certificate
from algen.fields import GF, QQ
from algen.ioformat import canonical_json, mingen_report_doc
from algen.linalg import RowReducer
from algen.search import (
    DEFAULT_BUDGET,
    CompletionResult,
    MinGenReport,
    SearchBudget,
    completable,
    min_generators,
    random_probe,
)
from algen.zoo import matrix_algebra, split_etale, zero_algebra
from support import span_basis


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_exhaustive=0)
    with pytest.raises(ValueError):
        SearchBudget(random_trials=-1)
    with pytest.raises(ValueError):
        SearchBudget(coeff_height=0)


def test_min_generators_zero_algebra():
    A = zero_algebra(GF(2), 2)
    rep = min_generators(A)
    assert rep.n_upper == 2
    assert rep.lower_bound_certified
    assert [a.status for a in rep.attempts] == ["certified_none", "certified_none", "found"]
    attempts = mingen_report_doc(A, rep, DEFAULT_BUDGET)["attempts"]
    assert [a["n"] for a in attempts] == ["0", "1", "2"]
    assert all(a["exhaustive"] for a in attempts)
    assert replay_certificate(A, rep.certificate)


def test_min_generators_etale_f2_cubed():
    A = split_etale(GF(2), 3)
    rep = min_generators(A)
    assert rep.n_upper == 2 and rep.lower_bound_certified
    # lower bound came from exhausting all 8 singletons
    assert rep.attempts[1].status == "certified_none" and rep.attempts[1].tested == 8
    assert mingen_report_doc(A, rep, DEFAULT_BUDGET)["attempts"][1]["total"] == "8"


def test_min_generators_mat2_f2():
    A = matrix_algebra(GF(2), 2)
    rep = min_generators(A)
    assert rep.n_upper == 2 and rep.lower_bound_certified
    assert rep.attempts[1].status == "certified_none"
    assert mingen_report_doc(A, rep, DEFAULT_BUDGET)["attempts"][1]["total"] == "16"
    assert rep.certificate.method == "exhaustive"
    assert is_generating(A, rep.certificate.elements)[0]


def test_min_generators_returns_lex_smallest():
    A = split_etale(GF(2), 2)
    rep = min_generators(A)
    assert rep.n_upper == 2
    assert rep.certificate.elements == ((0, 1), (1, 0))
    assert rep.certificate.index == 6  # 1 * 4 + 2 in the pair enumeration


def test_min_generators_requires_finite_field():
    with pytest.raises(ValueError):
        min_generators(split_etale(QQ, 2))


def test_min_generators_unital_flag():
    A = split_etale(GF(2), 2)
    assert min_generators(A).n_upper == 2
    rep = min_generators(A, unital=True)
    assert rep.n_upper == 1 and rep.unital
    assert rep.certificate.unital


def test_min_generators_zero_dim():
    rep = min_generators(zero_algebra(GF(3), 0))
    assert rep.n_upper == 0 and rep.lower_bound_certified
    assert rep.certificate.elements == ()


def test_random_probe():
    assert random_probe(zero_algebra(QQ, 3), 2) is None
    cert = random_probe(split_etale(GF(5), 3), 1)
    assert cert is not None and cert.method == "random"
    assert cert.seed == DEFAULT_BUDGET.seed
    assert is_generating(split_etale(GF(5), 3), cert.elements)[0]
    # deterministic given the budget
    again = random_probe(split_etale(GF(5), 3), 1)
    assert again == cert


def test_random_probe_over_q_respects_height():
    cert = random_probe(split_etale(QQ, 2), 1, SearchBudget(coeff_height=3, random_trials=50))
    assert cert is not None
    assert all(abs(x) <= 3 for v in cert.elements for x in v)


def test_completable_empty_partial():
    A = matrix_algebra(GF(2), 2)
    res = completable(A, [], 2)
    assert res.status == "found"
    assert len(res.certificate.elements) == 2
    assert res.certificate.generates
    assert is_generating(A, res.certificate.elements)[0]


def test_completable_with_partial():
    A = matrix_algebra(GF(2), 2)
    res = completable(A, [(1, 0, 0, 0)], 2)
    assert res.status == "found"
    assert len(res.certificate.elements) == 2
    assert res.certificate.elements[0] == (1, 0, 0, 0)
    assert is_generating(A, res.certificate.elements)[0]


def test_completable_certified_none():
    A = split_etale(GF(2), 2)
    res = completable(A, [(0, 0)], 1)
    assert res.status == "certified_none"
    assert res.tested == 1  # zero extension slots: the tuple itself was tested
    res = completable(A, [(0, 0)], 2)
    assert res.status == "certified_none"
    assert res.tested == 4


def test_completable_inconclusive_on_budget():
    # no extension can work, and the space is too big to enumerate
    A = split_etale(GF(2), 5)
    budget = SearchBudget(max_exhaustive=1, random_trials=3)
    res = completable(A, [(0, 0, 0, 0, 0)], 2, budget)
    assert res.status == "inconclusive"
    assert res.tested == 3


def test_completable_rejects_overlong_partial():
    A = split_etale(GF(2), 2)
    with pytest.raises(ValueError):
        completable(A, [(0, 0), (1, 0), (0, 1)], 2)


def test_consistency_with_min_generators():
    A = split_etale(GF(2), 3)
    rep = min_generators(A)
    refuted = [
        n for n in range(rep.n_upper) if completable(A, [], n).status == "certified_none"
    ]
    assert rep.n_upper >= (max(refuted) if refuted else 0)


def test_monotone_exhaustion():
    A = zero_algebra(GF(2), 2)
    small = min_generators(A, SearchBudget(max_exhaustive=100))
    big = min_generators(A, SearchBudget(max_exhaustive=10_000))
    assert small.n_upper == big.n_upper == 2
    assert small.lower_bound_certified and big.lower_bound_certified
    assert small.certificate.elements == big.certificate.elements


def test_determinism():
    A = matrix_algebra(GF(3), 2)
    b = SearchBudget(max_exhaustive=10, random_trials=25, seed=9)
    assert min_generators(A, b) == min_generators(A, b)
    assert random_probe(A, 2, b) == random_probe(A, 2, b)


# ---------------------------------------------------------------------------
# Differential check against a brute-force search that closes every tuple
# ---------------------------------------------------------------------------


def _brute_completion(alg, fixed, n, budget, unital):
    """Reference search: one closure per candidate tuple, no span bookkeeping."""
    p, r = alg.field.p, alg.dim
    slots = n - len(fixed)
    total = p ** (r * slots)
    if total <= budget.max_exhaustive:
        vectors = list(itertools.product(range(p), repeat=r))
        for index, ext in enumerate(itertools.product(vectors, repeat=slots)):
            ok, cert = is_generating(alg, list(fixed) + list(ext), unital=unital)
            if ok:
                cert = dataclasses.replace(cert, index=index)
                return CompletionResult("found", cert, index + 1)
        return CompletionResult("certified_none", None, total)
    h = budget.coeff_height
    for trial in range(budget.random_trials):
        rng = random.Random(budget.seed * (1 << 64) + trial)
        ext = tuple(
            tuple(alg.field.coerce(rng.randint(-h, h)) for _ in range(r)) for _ in range(slots)
        )
        ok, cert = is_generating(alg, list(fixed) + list(ext), unital=unital)
        if ok:
            cert = dataclasses.replace(cert, seed=budget.seed, trial=trial)
            return CompletionResult("found", cert, trial + 1)
    return CompletionResult("inconclusive", None, budget.random_trials)


def _brute_min_generators(alg, budget, unital):
    """Reference report.  It computes the minimum, its certification and
    the attempt documents itself, and checks them against the ones
    MinGenReport derives and the mingen document writes."""
    attempts, docs = [], []
    n, certified = None, False
    all_below_exhausted = True
    for size in range(alg.dim + 1):
        total = alg.field.p ** (alg.dim * size)
        res = _brute_completion(alg, (), size, budget, unital)
        attempts.append(res)
        found = res.status == "found"
        exhaustive = total <= budget.max_exhaustive
        docs.append(
            {
                "n": str(size),
                "total": str(total),
                "exhaustive": exhaustive,
                "tested": str(res.tested),
                "found": found,
            }
        )
        if found:
            n, certified = size, all_below_exhausted
            break
        all_below_exhausted = all_below_exhausted and exhaustive
    report = MinGenReport(tuple(attempts), unital)
    assert (report.n_upper, report.lower_bound_certified) == (n, certified)
    assert mingen_report_doc(alg, report, budget)["attempts"] == docs
    return report


@st.composite
def small_algebras(draw):
    """Random structure constants over F_2 or F_3 in dimension <= 3.

    Products are sparse so that refuted sizes (the expensive, span-repeating
    case) are common.  Some algebras get e_0 as a designated unit, some an
    extra constant that only the unital closure adjoins, some a unary map.
    """
    p = draw(st.sampled_from((2, 3)))
    dim = draw(st.integers(0, 3))
    field = GF(p)
    coeff = st.integers(0, p - 1)
    with_unit = dim > 0 and draw(st.booleans())
    triples = []
    for i, j in itertools.product(range(dim), repeat=2):
        if with_unit and 0 in (i, j):
            triples.append(((i, j), i + j, 1))  # e_0 e_j = e_j e_0 = e_j
        elif draw(st.integers(0, 3)) == 0:
            triples.append(((i, j), draw(st.integers(0, dim - 1)), draw(coeff)))
    ops = [make_tensor(field, dim, 2, triples)]
    unit_index = None
    if with_unit:
        unit_index = len(ops)
        ops.append(make_tensor(field, dim, 0, [((), 0, 1)]))
    if dim > 0 and draw(st.booleans()):
        ops.append(make_tensor(field, dim, 0, [((), k, draw(coeff)) for k in range(dim)]))
    if dim > 0 and draw(st.booleans()):
        ops.append(
            make_tensor(field, dim, 1, [((i,), draw(st.integers(0, dim - 1)), draw(coeff)) for i in range(dim)])
        )
    return Multialgebra(field=field, dim=dim, ops=tuple(ops), product_index=0, unit_index=unit_index)


budgets = st.builds(
    SearchBudget,
    max_exhaustive=st.sampled_from((1, 30, 1_000_000)),
    random_trials=st.integers(1, 6),
    seed=st.integers(0, 3),
    coeff_height=st.integers(1, 3),
)

DIFFERENTIAL = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@DIFFERENTIAL
@given(alg=small_algebras(), budget=budgets, unital=st.booleans())
def test_min_generators_matches_brute_force(alg, budget, unital):
    rep = min_generators(alg, budget, unital)
    oracle = _brute_min_generators(alg, budget, unital)
    assert rep == oracle
    assert canonical_json(mingen_report_doc(alg, rep, budget)) == canonical_json(
        mingen_report_doc(alg, oracle, budget)
    )


@DIFFERENTIAL
@given(
    alg=small_algebras(),
    budget=budgets,
    unital=st.booleans(),
    prefix_len=st.integers(0, 2),
    slots=st.integers(0, 2),
    data=st.data(),
)
def test_completable_matches_brute_force(alg, budget, unital, prefix_len, slots, data):
    p = alg.field.p
    vector = st.tuples(*[st.integers(0, p - 1)] * alg.dim)
    prefix = [data.draw(vector) for _ in range(prefix_len)]
    n = prefix_len + slots
    assert completable(alg, prefix, n, budget, unital) == _brute_completion(
        alg, tuple(prefix), n, budget, unital
    )


def _count_closures(monkeypatch):
    calls = []

    def counted(alg, elements, **kwargs):
        elements = list(elements)
        calls.append((alg, elements, kwargs["unital"]))
        return is_generating(alg, elements, **kwargs)

    monkeypatch.setattr(algen.search, "is_generating", counted)
    return calls


def _spans(calls):
    return [
        span_basis(alg.field, elements + (alg.constants() if unital else []))
        for alg, elements, unital in calls
    ]


def test_repeated_span_is_closed_once(monkeypatch):
    calls = _count_closures(monkeypatch)
    # F_3^2 has 9 vectors but only 5 spans of one vector: 0 and 4 lines
    res = completable(zero_algebra(GF(3), 2), [], 1)
    assert res.status == "certified_none" and res.tested == 9
    assert len(calls) == 5
    assert len(set(_spans(calls))) == len(calls)
    calls.clear()
    # after the prefix (0, 1), the extensions (0, 0) and (0, 1) span alike
    res = completable(zero_algebra(GF(2), 2), [(0, 1)], 2)
    assert res.status == "found" and res.certificate.elements == ((0, 1), (1, 0))
    assert res.tested == 3
    assert [c[1][1] for c in calls] == [(0, 0), (1, 0)]


def test_min_generators_skips_tuples_with_seen_span(monkeypatch):
    calls = _count_closures(monkeypatch)
    A = zero_algebra(GF(2), 2)
    rep = min_generators(A)
    assert [a.tested for a in rep.attempts] == [1, 4, 7]
    assert rep.certificate.index == 6
    # n = 2 closes (0, v) for the four v, then ((0,1), (1,0)); the pairs
    # ((0,1), (0,0)) and ((0,1), (0,1)) repeat the span of ((0,0), (0,1))
    assert len(calls) == 1 + 4 + 5
    per_size = {}
    for span, (_, elements, _) in zip(_spans(calls), calls):
        per_size.setdefault(len(elements), []).append(span)
    assert all(len(set(spans)) == len(spans) for spans in per_size.values())


def test_unital_span_includes_constants(monkeypatch):
    calls = _count_closures(monkeypatch)
    # zero product on F_2^3 plus the constant c = (1, 1, 1): no single vector
    # generates, and with c adjoined v and v + c span the same subspace
    zero = make_tensor(GF(2), 3, 2, [])
    const = make_tensor(GF(2), 3, 0, [((), k, 1) for k in range(3)])
    A = Multialgebra(field=GF(2), dim=3, ops=(zero, const), product_index=0)
    res = completable(A, [], 1, unital=True)
    assert res.status == "certified_none" and res.tested == 8
    assert [c[1][0] for c in calls] == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    calls.clear()
    res = completable(A, [], 1)
    assert res.status == "certified_none" and res.tested == 8
    assert len(calls) == 8


def test_exhaustive_leaves_insert_no_seed_vectors(monkeypatch):
    # a leaf closure starts from the walk's RREF of the seed, so each insert
    # it makes is of an operation value: as many inserts as evaluations
    counts = {"leaves": 0, "inserts": 0, "evaluations": 0}
    inside = []

    def leaf(alg, elements, **kwargs):
        counts["leaves"] += 1
        inside.append(True)
        try:
            return is_generating(alg, elements, **kwargs)
        finally:
            inside.pop()

    def counting(name, fn):
        def counted(*args):
            if inside:
                counts[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(algen.search, "is_generating", leaf)
    monkeypatch.setattr(RowReducer, "insert", counting("inserts", RowReducer.insert))
    monkeypatch.setattr(algen.algebra, "eval_tensor", counting("evaluations", algen.algebra.eval_tensor))
    for alg, unital in (
        (split_etale(GF(2), 4), True),
        (matrix_algebra(GF(2), 2), False),
        (split_etale(GF(3), 3), False),
    ):
        assert min_generators(alg, unital=unital).lower_bound_certified
    assert counts["leaves"] > 0
    assert counts["inserts"] == counts["evaluations"] > 0


def test_exhaustive_walk_builds_each_child_span_once(monkeypatch):
    # a node copies its span only for a candidate whose residue modulo that
    # span is new there, and the leaves validate no element.  Pinned when
    # the walk began to skip repeated residues; it copied 3,303 and 177
    # times before, once per candidate at every inner node
    counts = {"copies": 0, "validations": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(RowReducer, "copy", counting("copies", RowReducer.copy))
    monkeypatch.setattr(algen.algebra, "validate_vector", counting("validations", algen.algebra.validate_vector))
    for alg, copies in ((split_etale(GF(2), 5), 1467), (matrix_algebra(GF(3), 2), 88)):
        counts.update(copies=0, validations=0)
        assert min_generators(alg).lower_bound_certified
        assert counts == {"copies": copies, "validations": 0}
