import copy
import functools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import algen.forster
import algen.integral
import algen.ioformat
from algen.algebra import is_generating
from algen.fields import GF, QQ
from algen.forster import forster_lift
from algen.integral import (
    bad_primes,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    verify_global_generation,
)
from algen.intmat import FactorizationIncomplete
from algen.ioformat import (
    FormatError,
    ParsedAlgebra,
    algebra_hash,
    bad_primes_doc,
    budget_doc,
    canonical_json,
    elements_doc,
    generation_certificate_doc,
    global_generation_doc,
    lift_certificate_doc,
    local_report_doc,
    MAX_VERIFY_EXHAUSTIVE,
    MAX_VERIFY_FACTOR_BOUND,
    MAX_VERIFY_TRIALS,
    mingen_report_doc,
    parse_algebra,
    parse_budget,
    parse_int,
    parse_lift_certificate,
    parse_scalar,
    serialize_algebra,
    verify_certificate,
)
from algen.search import DEFAULT_BUDGET, SearchBudget, min_generators
from algen.zoo import (
    canonical_matrix_generators,
    matrix_algebra,
    quaternion_algebra,
    split_etale,
)


def _reload(doc):
    """Through the wire: canonical text and back."""
    return json.loads(canonical_json(doc))


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def test_parse_int():
    assert parse_int("42") == 42
    assert parse_int("-17") == -17
    assert parse_int(7) == 7
    for bad in (True, "x", "1.5", "", None, [1]):
        with pytest.raises(FormatError):
            parse_int(bad)


def test_scalars():
    assert QQ.format(6) == "6"
    assert QQ.format(Fraction(-3, 4)) == "-3/4"
    assert QQ.format(Fraction(8, 2)) == "4"
    assert parse_scalar(QQ, "3/4") == Fraction(3, 4)
    assert parse_scalar(QQ, "-2") == Fraction(-2)
    # num/den over a prime field means num * den^-1
    assert parse_scalar(GF(5), "2/3") == 4
    assert parse_scalar(GF(5), 7) == 2
    with pytest.raises(FormatError):
        parse_scalar(GF(5), "1/5")
    with pytest.raises(FormatError):
        parse_scalar(QQ, True)


# ---------------------------------------------------------------------------
# Algebra documents
# ---------------------------------------------------------------------------


ROUND_TRIP_ALGEBRAS = [
    matrix_algebra(GF(2), 2),
    matrix_algebra(GF(3), 2),
    split_etale(QQ, 3),
    quaternion_algebra(QQ),
    integral_matrix_algebra(2),
    integral_split_etale(3),
    integral_zero_module((6, 0)),
    integral_zero_module(()),
]


def test_algebra_round_trip():
    for alg in ROUND_TRIP_ALGEBRAS:
        doc = serialize_algebra(alg)
        parsed = parse_algebra(_reload(doc))
        assert parsed.algebra == alg
        assert parsed.presentation is None
        assert canonical_json(serialize_algebra(parsed.algebra)) == canonical_json(doc)


def test_algebra_hash_distinguishes():
    hashes = {algebra_hash(alg) for alg in ROUND_TRIP_ALGEBRAS}
    assert len(hashes) == len(ROUND_TRIP_ALGEBRAS)
    assert algebra_hash(matrix_algebra(GF(2), 2)) == algebra_hash(matrix_algebra(GF(2), 2))


def _ring_presentation_doc():
    # Z[t]/(t^2 - 1, 2 + 2t) in raw generator coordinates (1, t)
    return {
        "format": "algen-algebra",
        "version": "1",
        "base": "Z",
        "presentation": {"generators": "2", "relations": [["2", "2"]]},
        "ops": [
            {
                "arity": "2",
                "role": "product",
                "entries": [
                    ["0", "0", "0", "1"],
                    ["0", "1", "1", "1"],
                    ["1", "0", "1", "1"],
                    ["1", "1", "0", "1"],
                ],
            },
            {"arity": "0", "role": "unit", "entries": [["0", "1"]]},
        ],
    }


def test_parse_raw_presentation():
    parsed = parse_algebra(_ring_presentation_doc())
    assert parsed.is_integral
    assert parsed.presentation is not None
    assert parsed.algebra.factors == (2, 0)
    # raw coordinates are mapped into canonical ones
    raw = [["1", "0"], ["1", "1"]]
    mapped = parsed.parse_elements(raw)
    assert len(mapped) == 2 and all(len(v) == 2 for v in mapped)
    assert mapped[0] == parsed.presentation.map_element((1, 0))


def test_parse_algebra_errors():
    good = serialize_algebra(matrix_algebra(GF(2), 2))

    def broken(**changes):
        doc = _reload(good)
        doc.update(changes)
        return doc

    with pytest.raises(FormatError):
        parse_algebra(broken(format="something-else"))
    with pytest.raises(FormatError):
        parse_algebra(broken(version="2"))
    with pytest.raises(FormatError):
        parse_algebra(broken(base="F4"))
    with pytest.raises(FormatError):
        parse_algebra(broken(dim=None))
    # roles must be unique and include a product
    doc = _reload(good)
    doc["ops"][0].pop("role")
    with pytest.raises(FormatError):
        parse_algebra(doc)
    doc = _reload(good)
    doc["ops"].append(dict(doc["ops"][0]))
    with pytest.raises(FormatError):
        parse_algebra(doc)
    # tensor row length must match the arity
    doc = _reload(good)
    doc["ops"][0]["entries"][0] = ["0", "0", "1"]
    with pytest.raises(FormatError):
        parse_algebra(doc)
    # a Z algebra needs exactly one presentation style
    doc = _ring_presentation_doc()
    doc["factors"] = ["2", "0"]
    with pytest.raises(FormatError):
        parse_algebra(doc)
    doc = _ring_presentation_doc()
    del doc["presentation"]
    with pytest.raises(FormatError):
        parse_algebra(doc)


def test_parse_elements():
    parsed = ParsedAlgebra(split_etale(QQ, 2))
    assert parsed.parse_elements([["1/2", "-3"]]) == ((Fraction(1, 2), Fraction(-3)),)
    with pytest.raises(FormatError):
        parsed.parse_elements([["1"]])
    with pytest.raises(FormatError):
        parsed.parse_elements("nope")
    zmod = ParsedAlgebra(integral_zero_module((6,)))
    assert zmod.parse_elements([["7"]]) == ((1,),)
    with pytest.raises(FormatError):
        zmod.parse_elements([["1", "2"]])


def test_budget_round_trip():
    budget = SearchBudget(max_exhaustive=500, random_trials=3, seed=9, coeff_height=4)
    assert parse_budget(_reload(budget_doc(budget))) == budget
    with pytest.raises(FormatError):
        parse_budget({"max_exhaustive": "0", "random_trials": "1", "seed": "1", "coeff_height": "1"})


# ---------------------------------------------------------------------------
# Certificate documents
# ---------------------------------------------------------------------------


def test_generation_certificate_verify():
    alg = matrix_algebra(GF(2), 2)
    parsed = ParsedAlgebra(alg)
    ok, cert = is_generating(alg, canonical_matrix_generators(GF(2), 2))
    assert ok
    doc = generation_certificate_doc(alg, cert)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    # a certificate of failure is also replayable
    ok, cert0 = is_generating(alg, [(0, 0, 0, 0)])
    assert not ok
    doc0 = generation_certificate_doc(alg, cert0)
    assert verify_certificate(parsed, _reload(doc0)) == (True, "ok")
    # honest tampering attempts
    bad = _reload(doc)
    bad["elements"][0][0] = "0"
    assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["closure_dim"] = "3"
    assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["monomial_count"] = str(int(bad["monomial_count"]) + 1)
    assert verify_certificate(parsed, bad)[0] is False
    # wrong algebra
    other = ParsedAlgebra(matrix_algebra(GF(3), 2))
    ok, detail = verify_certificate(other, _reload(doc))
    assert not ok and "hash" in detail


def test_mingen_verify():
    alg = split_etale(GF(2), 3)
    parsed = ParsedAlgebra(alg)
    report = min_generators(alg, DEFAULT_BUDGET)
    doc = mingen_report_doc(alg, report, DEFAULT_BUDGET)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    for field, value in [
        ("n_upper", "3"),
        ("lower_bound_certified", False),
        ("unital", True),
    ]:
        bad = _reload(doc)
        bad[field] = value
        assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["attempts"][1]["tested"] = "7"
    assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["certificate"]["elements"][0][0] = "1"
    assert verify_certificate(parsed, bad)[0] is False


def test_mingen_verify_refuses_costly_budgets(monkeypatch):
    alg = split_etale(GF(2), 3)
    parsed = ParsedAlgebra(alg)
    doc = mingen_report_doc(alg, min_generators(alg, DEFAULT_BUDGET), DEFAULT_BUDGET)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    assert MAX_VERIFY_EXHAUSTIVE >= DEFAULT_BUDGET.max_exhaustive
    assert MAX_VERIFY_TRIALS >= DEFAULT_BUDGET.random_trials

    def never(*args, **kwargs):
        raise AssertionError("the search must not run")

    monkeypatch.setattr(algen.ioformat, "min_generators", never)
    for field, value in [
        ("max_exhaustive", str(MAX_VERIFY_EXHAUSTIVE + 1)),
        ("random_trials", str(MAX_VERIFY_TRIALS + 1)),
        ("max_exhaustive", "1" + "0" * 40),
    ]:
        hostile = _reload(doc)
        hostile["budget"][field] = value
        ok, detail = verify_certificate(parsed, hostile)
        assert not ok and detail.startswith("inconclusive: too costly to verify")


def test_verify_refuses_costly_factor_bounds(monkeypatch):
    A = integral_zero_module((3, 0))
    parsed = ParsedAlgebra(A)
    elements = ((1, 1),)
    docs = (
        bad_primes_doc(A, elements, bad_primes(A, elements), 1_000_000),
        global_generation_doc(A, elements, verify_global_generation(A, elements), 1_000_000),
        lift_certificate_doc(A, forster_lift(A, 2), 1_000_000),
    )
    assert MAX_VERIFY_FACTOR_BOUND >= 1_000_000
    for doc in docs:
        assert verify_certificate(parsed, _reload(doc)) == (True, "ok")

    def never(*args, **kwargs):
        raise AssertionError("factoring must not run")

    monkeypatch.setattr(algen.integral, "factor", never)
    for doc in docs:
        for value in (str(MAX_VERIFY_FACTOR_BOUND + 1), "1" + "0" * 40):
            hostile = _reload(doc)
            hostile["factor_bound"] = value
            ok, detail = verify_certificate(parsed, hostile)
            assert not ok and detail.startswith("inconclusive: too costly to verify")


def test_verify_proves_region_primes_without_trial_division():
    # trial division up to sqrt(p) takes about a minute for p near 10^18
    A = integral_zero_module((3, 0))
    doc = _reload(lift_certificate_doc(A, forster_lift(A, 2), 1_000_000))
    doc["steps"][0]["partition"][0]["region"]["primes"].append("1000000000000000003")
    start = time.perf_counter()
    ok, detail = verify_certificate(ParsedAlgebra(A), doc)
    assert time.perf_counter() - start < 2.0
    assert not ok and "partition" in detail


def test_field_names_are_proved_prime_without_trial_division():
    # trial division up to sqrt(p) takes about a minute for p near 10^18
    doc = serialize_algebra(matrix_algebra(GF(2), 2))
    for p, refusal in (
        (1000000000000000003, None),
        (1000000007 * 1000000009, "must be prime"),
        (10**25 + 13, "unsupported field"),
    ):
        doc["base"] = f"F{p}"
        start = time.perf_counter()
        try:
            parsed = parse_algebra(_reload(doc))
        except FormatError as refused:
            assert refusal is not None and refusal in str(refused)
        else:
            assert refusal is None and parsed.algebra.field == GF(p)
        assert time.perf_counter() - start < 0.1


def test_bad_primes_verify():
    A = integral_split_etale(3)
    parsed = ParsedAlgebra(A)
    elements = ((1, 2, 3),)
    report = bad_primes(A, elements)
    doc = bad_primes_doc(A, elements, report, 1_000_000)
    assert _reload(doc)["report"]["primes"] == ["2"]
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    bad = _reload(doc)
    bad["report"]["primes"] = ["2", "3"]
    assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["elements"][0][2] = "4"
    assert verify_certificate(parsed, bad)[0] is False


def test_global_generation_verify():
    A = integral_zero_module((6, 0))
    parsed = ParsedAlgebra(A)
    elements = ((1, 0), (0, 1))
    report = verify_global_generation(A, elements)
    doc = global_generation_doc(A, elements, report, 1_000_000)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    bad = _reload(doc)
    bad["report"]["generates"] = False
    assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["report"]["subgroup"][0][0] = "5"
    assert verify_certificate(parsed, bad)[0] is False


def test_verify_refuses_edited_derived_flags():
    # generic_generates and fiber_checks derive from the subgroup and the
    # support; parsing skips them, and the canonical re-emission refuses edits
    A = integral_zero_module((2, 0))
    parsed = ParsedAlgebra(A)
    elements = ((1, 1),)
    doc = global_generation_doc(A, elements, verify_global_generation(A, elements), 1_000_000)
    assert _reload(doc)["report"]["fiber_checks"] == [["2", False]]
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    lift = lift_certificate_doc(A, forster_lift(A, 2), 1_000_000)
    assert verify_certificate(parsed, _reload(lift)) == (True, "ok")
    edits = (
        lambda report: report.update(generic_generates=not report["generic_generates"]),
        lambda report: report.update(fiber_checks=[["2", True]]),
        lambda report: report.update(fiber_checks=[["3", False]]),
    )
    for edit in edits:
        for source, key in ((doc, "report"), (lift, "verification")):
            bad = _reload(source)
            edit(bad[key])
            ok, detail = verify_certificate(parsed, bad)
            assert not ok and ("match" in detail or "canonical" in detail), (key, detail)


def test_lift_round_trip_and_verify():
    A = integral_zero_module((3, 0))
    parsed = ParsedAlgebra(A)
    cert = forster_lift(A, 2)
    doc = lift_certificate_doc(A, cert, 1_000_000)
    back, bound = parse_lift_certificate(_reload(doc))
    assert back == cert and bound == 1_000_000
    assert canonical_json(lift_certificate_doc(A, back, bound)) == canonical_json(doc)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    # rewriting a subgroup row to another basis of the same lattice is
    # caught by the canonical-form comparison
    bad = _reload(doc)
    r0 = [int(x) for x in bad["verification"]["subgroup"][0]]
    r1 = [int(x) for x in bad["verification"]["subgroup"][1]]
    bad["verification"]["subgroup"][0] = [str(a + b) for a, b in zip(r0, r1)]
    ok, detail = verify_certificate(parsed, bad)
    assert not ok and "canonical" in detail
    bad = _reload(doc)
    bad["steps"][0]["completions"][0]["excluded"] = ["5"]
    assert verify_certificate(parsed, bad)[0] is False
    # a fiber coordinate written as another representative of its residue
    bad = _reload(doc)
    ps = bad["steps"][0]["completions"][0]
    ps["extension"][0][0] = str(int(ps["extension"][0][0]) + int(ps["prime"]))
    ok, detail = verify_certificate(parsed, bad)
    assert not ok and "canonical" in detail


def test_verify_reports_short_elements_as_malformed():
    A = integral_split_etale(3)
    parsed = ParsedAlgebra(A)
    elements = ((1, 2, 3),)
    docs = (
        bad_primes_doc(A, elements, bad_primes(A, elements), 1_000_000),
        global_generation_doc(A, elements, verify_global_generation(A, elements), 1_000_000),
    )
    for doc in docs:
        bad = _reload(doc)
        bad["elements"][0] = bad["elements"][0][:2]
        ok, detail = verify_certificate(parsed, bad)
        assert not ok and detail.startswith("malformed")


def test_verify_reports_short_subgroup_rows_as_malformed():
    A = integral_zero_module((3, 0, 0, 0))
    parsed = ParsedAlgebra(A)
    bad = _reload(lift_certificate_doc(A, forster_lift(A, 4), 1_000_000))
    bad["verification"]["subgroup"] = [row[:2] for row in bad["verification"]["subgroup"]]
    ok, detail = verify_certificate(parsed, bad)
    assert not ok and detail.startswith("malformed")


def test_verify_rejects_mismatched_kinds():
    A = integral_split_etale(3)
    alg = split_etale(GF(2), 3)
    ok, cert = is_generating(alg, [(0, 1, 1)])
    gen_doc = generation_certificate_doc(alg, cert)
    # field certificate presented with a Z algebra: hash cannot match
    assert verify_certificate(ParsedAlgebra(A), _reload(gen_doc))[0] is False
    bad = _reload(gen_doc)
    bad["kind"] = "unheard-of"
    ok, detail = verify_certificate(ParsedAlgebra(alg), bad)
    assert not ok and "kind" in detail
    assert verify_certificate(ParsedAlgebra(alg), {"format": "x"})[0] is False


def test_elements_and_local_report_docs():
    A = integral_zero_module((6,))
    assert elements_doc(A, [(5,), (1,)]) == [["5"], ["1"]]
    alg = split_etale(QQ, 2)
    assert elements_doc(alg, [(Fraction(1, 2), Fraction(3))]) == [["1/2", "3"]]
    from algen.forster import local_requirement

    rep = local_requirement(integral_zero_module((2, 2)), 1)
    doc = local_report_doc(rep)
    assert doc["status"] == "counterexample" and doc["prime"] == "2"
    assert doc["support"]["primes"] == ["2"]
    assert doc["completions"][0][1] == "certified_none"


def test_verify_reports_unfactorable_exponent_as_inconclusive(monkeypatch):
    A = integral_split_etale(3)
    parsed = ParsedAlgebra(A)
    elements = ((1, 2, 3),)
    docs = (
        bad_primes_doc(A, elements, bad_primes(A, elements), 1_000_000),
        global_generation_doc(A, elements, verify_global_generation(A, elements), 1_000_000),
    )
    for doc in docs:
        bad = _reload(doc)
        # the exponent has a cofactor above the proven Miller-Rabin range
        bad["elements"][0] = ["0", "1", "10000000000000000000000007"]
        ok, detail = verify_certificate(parsed, bad)
        assert not ok and detail.startswith("inconclusive: could not factor")

    Z = integral_zero_module((3, 0))
    doc = lift_certificate_doc(Z, forster_lift(Z, 2), 1_000_000)

    def unfactorable(*args):
        raise FactorizationIncomplete(10**25 + 7, (), 10**25 + 7)

    monkeypatch.setattr(algen.forster, "bad_primes", unfactorable)
    ok, detail = verify_certificate(ParsedAlgebra(Z), _reload(doc))
    assert not ok and detail.startswith("inconclusive: could not factor")


def test_lift_replay_uses_the_certificate_factor_bound(monkeypatch):
    A = integral_zero_module((3, 0))
    doc = lift_certificate_doc(A, forster_lift(A, 2, factor_bound=4_321), 4_321)
    seen = []

    def recording(real):
        def call(A, elements, factor_bound=1_000_000):
            seen.append((real.__name__, factor_bound))
            return real(A, elements, factor_bound)

        return call

    for name in ("bad_primes", "verify_global_generation"):
        monkeypatch.setattr(algen.forster, name, recording(getattr(algen.forster, name)))
    assert verify_certificate(ParsedAlgebra(A), _reload(doc)) == (True, "ok")
    assert {name for name, _ in seen} == {"bad_primes", "verify_global_generation"}
    assert {bound for _, bound in seen} == {4_321}


# ---------------------------------------------------------------------------
# Fuzzing lift documents
# ---------------------------------------------------------------------------


@functools.cache
def _lift_fuzz_case():
    A = integral_zero_module((3, 0))
    return ParsedAlgebra(A), _reload(lift_certificate_doc(A, forster_lift(A, 2), 1_000_000))


def _nodes(node, path=()):
    """(path, value) for every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _is_int_str(value) -> bool:
    return isinstance(value, str) and value.lstrip("-").isdigit()


# "9" * 5000 is above Python's default limit for int() on decimal strings
_HOSTILE_INTS = ["-1", "-2", "-7", "1" + "0" * 30, "-" + "3" * 40, "9" * 5000]
_OTHER_TYPES = [None, True, False, 0, 2, "x", "", "1/2", [], ["0"], {}, {"cofinite": True}]
_MUTATIONS = {
    "drop": lambda path, value: isinstance(path[-1], str),
    "retype": lambda path, value: True,
    "truncate": lambda path, value: isinstance(value, list) and value,
    "extend": lambda path, value: isinstance(value, list),
    "integer": lambda path, value: _is_int_str(value),
}


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_verify_survives_mutated_lift_documents(data):
    parsed, original = _lift_fuzz_case()
    assert verify_certificate(parsed, copy.deepcopy(original)) == (True, "ok")
    doc = copy.deepcopy(original)
    touched_bound = False
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="kind")
        paths = [path for path, value in _nodes(doc) if _MUTATIONS[kind](path, value)]
        if not paths:
            continue
        path = data.draw(st.sampled_from(paths), label="path")
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        key, value = path[-1], parent[path[-1]]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_OTHER_TYPES)))
        elif kind == "truncate":
            parent[key] = value[: data.draw(st.integers(0, len(value) - 1))]
        elif kind == "extend":
            extra = data.draw(st.sampled_from(value)) if value else "0"
            parent[key] = value + [copy.deepcopy(extra)]
        else:
            parent[key] = data.draw(st.sampled_from(_HOSTILE_INTS))
        touched_bound = touched_bound or path[0] == "factor_bound"
    result = verify_certificate(parsed, doc)
    assert isinstance(result, tuple) and len(result) == 2
    ok, detail = result
    assert isinstance(ok, bool) and isinstance(detail, str)
    # the factor bound is a claim parameter: another bound is another claim
    if doc != original and not touched_bound:
        assert not ok, f"accepted a mutated document: {detail}"
