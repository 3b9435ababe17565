import copy
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import algen.forster
import algen.integral
import algen.ioformat
from algen.algebra import GenerationCertificate, is_generating
from algen.fields import GF, QQ
from algen.forster import ConstructibleSet, LiftCertificate, PartitionCell, forster_lift
from algen.integral import (
    BadPrimesReport,
    GlobalGenerationReport,
    bad_primes,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    verify_global_generation,
)
from algen.intmat import FactorizationIncomplete
from algen.ioformat import (
    BUDGET,
    INT,
    LOCAL_REPORT,
    OPT_INT,
    PARTITION_CELL,
    REGION,
    FormatError,
    ParsedAlgebra,
    algebra_hash,
    bad_primes_doc,
    canonical_json,
    elements_doc,
    generation_certificate_doc,
    global_generation_doc,
    lift_certificate_doc,
    local_report_doc,
    MAX_VERIFY_EXHAUSTIVE,
    MAX_VERIFY_TRIALS,
    mingen_report_doc,
    parse_algebra,
    parse_int,
    parse_scalar,
    seq,
    serialize_algebra,
    verify_certificate,
)
from algen.search import DEFAULT_BUDGET, MinGenReport, SearchBudget, min_generators
from algen.zoo import (
    albert,
    canonical_matrix_generators,
    matrix_algebra,
    quaternion_algebra,
    split_etale,
)
from support import src_env


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


def _reference_parse_int(value) -> int:
    """parse_int before its integer recognizer became _int_literal."""
    if isinstance(value, bool):
        raise FormatError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        body = value.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if digits.isdigit():
            try:
                return int(body)
            except ValueError as bad:
                raise FormatError(str(bad)) from bad
    raise FormatError(f"expected an integer, got {value!r}")


def _reference_parse_scalar(field, value):
    """parse_scalar before decimal integers took a fast path: every string
    goes through Fraction."""
    if isinstance(value, bool):
        raise FormatError(f"not a scalar: {value!r}")
    try:
        if isinstance(value, int):
            return field.coerce(value)
        if isinstance(value, str):
            return field.coerce(Fraction(value))
    except (ValueError, ZeroDivisionError) as bad:
        raise FormatError(str(bad)) from bad
    raise FormatError(f"not a scalar: {value!r}")


def _outcome(parse, *args):
    """(type, value) of a parse, or FormatError and its message when it
    refuses."""
    try:
        value = parse(*args)
    except FormatError as bad:
        return FormatError, str(bad)
    return type(value), value


# signs, ASCII and non-ASCII decimal digits, "²" (isdigit but not
# isdecimal), fraction and decimal syntax, underscores and whitespace
_SCALAR_CHARS = "+-0123456789٣²/._eE \t\u00a0"
# an exponent of five digits or more makes Fraction build a huge power
_HUGE_EXPONENT = re.compile(r"[eE][-+]?[\d_]{5}")
_SCALAR_INPUTS = st.one_of(
    st.text(_SCALAR_CHARS, max_size=10).filter(lambda s: not _HUGE_EXPONENT.search(s)),
    # around 4,300 digits, Python's limit for int() of a decimal string
    st.builds(
        lambda sign, n, tail: sign + "9" * n + tail,
        st.sampled_from(["", "-", "+", " ", "٣"]),
        st.integers(4295, 4305),
        st.sampled_from(["", "/7", ".5", "e1", " ", "٣"]),
    ),
    st.integers(),
    st.booleans(),
    st.none(),
    st.fractions(),
)
_SPELLINGS = ["+3", " 7 ", "2/4", "-0", "0.5", "1e1", "-1", "٣", "²", "-²", "1_0", "--1", "-", "+", "", "00", "9" * 4301]


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(value=_SCALAR_INPUTS, field=st.sampled_from([QQ, GF(2), GF(3)]))
def test_scalar_fast_path_agrees_with_fraction(value, field):
    assert _outcome(parse_int, value) == _outcome(_reference_parse_int, value)
    assert _outcome(parse_scalar, field, value) == _outcome(_reference_parse_scalar, field, value)


def test_scalar_spellings_agree_with_fraction():
    for value in _SPELLINGS:
        assert _outcome(parse_int, value) == _outcome(_reference_parse_int, value), value
        for field in (QQ, GF(2), GF(3)):
            assert _outcome(parse_scalar, field, value) == _outcome(_reference_parse_scalar, field, value), value


def test_albert_q_parse_makes_each_coefficient_a_fraction_once(monkeypatch):
    # the parse makes each of the 342 coefficients a Fraction once; the
    # rest come from check_roles' unit law, which adds no 0 + v at a first entry
    doc = _reload(serialize_algebra(albert(QQ)))
    assert sum(len(op["entries"]) for op in doc["ops"]) == 342
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    parse_algebra(doc)
    monkeypatch.undo()
    assert len(made) <= 500


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


# parses an F_2, a Q and a Z document of dimension 10^5 with an empty
# product, no unit and no involution, refuses an F_3 document of dimension
# 10^5 whose designated unit is b_0, parses the unital split etale F_2^(10^4),
# an F_2 document of dimension 10^4 with a diagonal product and the identity
# involution, and a Z presentation of 10^5 generators with no relations and
# an empty product, and prints the slowest parse in seconds
_PARSE_LARGE_DIM = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))  # a dim^2 table fails at once
from algen.fields import GF
from algen.ioformat import FormatError, parse_algebra, serialize_algebra
from algen.zoo import split_etale
dim, docs = 10**5, []
for base in ("F2", "Q", "Z"):
    doc = {"base": base, "format": "algen-algebra", "version": "1",
           "ops": [{"arity": "2", "entries": [], "role": "product"}]}
    if base == "Z":
        doc["factors"] = ["0"] * dim
    else:
        doc["dim"] = str(dim)
    docs.append((doc, None))
false_unit = {"base": "F3", "dim": str(dim), "format": "algen-algebra", "version": "1",
              "ops": [{"arity": "2", "entries": [["0", "0", "0", "1"], ["0", "1", "1", "1"],
                                                 ["1", "0", "1", "1"]], "role": "product"},
                      {"arity": "0", "entries": [["0", "1"]], "role": "unit"}]}
docs.append((false_unit, "designated unit fails the unit law"))
docs.append((serialize_algebra(split_etale(GF(2), 10**4)), None))
diagonal = [[str(i)] * 3 + ["1"] for i in range(10**4)]
identity = [[str(i), str(i), "1"] for i in range(10**4)]
docs.append(({"base": "F2", "dim": str(10**4), "format": "algen-algebra", "version": "1",
              "ops": [{"arity": "2", "entries": diagonal, "role": "product"},
                      {"arity": "1", "entries": identity, "role": "involution"}]}, None))
docs.append(({"base": "Z", "presentation": {"generators": str(dim), "relations": []},
              "format": "algen-algebra", "version": "1",
              "ops": [{"arity": "2", "entries": [], "role": "product"}]}, None))
slowest = 0.0
for doc, refusal in docs:
    start = time.perf_counter()
    try:
        parse_algebra(doc)
    except FormatError as refused:
        assert refusal is not None and refusal in str(refused), refused
    else:
        assert refusal is None
    slowest = max(slowest, time.perf_counter() - start)
print(slowest)
"""


def test_parse_cost_is_not_quadratic_in_dim():
    # a 150-byte document may declare any dimension or generator count, and
    # nothing in parsing may cost its square: the unit law costs O(dim +
    # product entries), the involution law checks only the pairs where a
    # side can be nonzero.  A subprocess with a 2 GiB address-space limit,
    # so that a regression fails, not the host
    done = subprocess.run(
        [sys.executable, "-c", _PARSE_LARGE_DIM], env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert float(done.stdout) < 1.0


def test_parse_refuses_sizes_beyond_list_lengths():
    # a dim or generator count above sys.maxsize cannot be a list length;
    # parse_algebra refuses it as a FormatError, not an OverflowError
    huge = str(sys.maxsize + 1)
    field_doc = _reload(serialize_algebra(matrix_algebra(GF(2), 2)))
    field_doc["dim"] = huge
    z_doc = _ring_presentation_doc()
    z_doc["presentation"] = {"generators": huge, "relations": []}
    for doc in (field_doc, z_doc):
        with pytest.raises(FormatError, match="must be in"):
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
    assert BUDGET.parse(_reload(BUDGET.emit(budget))) == budget
    with pytest.raises(FormatError):
        BUDGET.parse({"max_exhaustive": "0", "random_trials": "1", "seed": "1", "coeff_height": "1"})


def test_codec_declarations():
    # region primes are written sorted as decimal strings, not as numbers
    region = ConstructibleSet(cofinite=True, primes=frozenset({3, 11}))
    doc = REGION.emit(region)
    assert doc == {"cofinite": True, "primes": ["11", "3"]}
    assert REGION.parse(_reload(doc)) == region
    # a field's complaint names its key, and the dataclass's ValueError
    # becomes a FormatError
    with pytest.raises(FormatError, match="^cofinite: expected a boolean"):
        REGION.parse({"cofinite": "yes", "primes": []})
    with pytest.raises(FormatError, match="not a proven prime"):
        REGION.parse({"cofinite": False, "primes": ["4"]})
    # a cell's level is its witness length: emitted, and never parsed
    cell = PARTITION_CELL.parse({"region": doc, "level": "2", "witness": ["0"]})
    assert cell.level == 1 and PARTITION_CELL.emit(cell)["level"] == "1"
    # a hypothesis-failure report is a summary: its record is emit-only
    assert LOCAL_REPORT.parse is None
    assert OPT_INT.emit(None) is None and OPT_INT.parse("-7") == -7
    assert seq(INT, 2).parse(["1", 2]) == (1, 2)
    with pytest.raises(FormatError, match="length 1, expected 2"):
        seq(INT, 2).parse(["1"])


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


def test_mingen_verify_over_q_is_malformed_not_raised():
    # an F_2 report re-addressed to a Q algebra: the exhaustive search cannot
    # run over Q, and the verifier refuses the document instead of raising
    alg = split_etale(GF(2), 3)
    doc = mingen_report_doc(alg, min_generators(alg, DEFAULT_BUDGET), DEFAULT_BUDGET)
    q_alg = split_etale(QQ, 3)
    doc["algebra_sha256"] = algebra_hash(q_alg)
    ok, detail = verify_certificate(ParsedAlgebra(q_alg), _reload(doc))
    assert not ok and detail.startswith("malformed certificate:")


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
    # Z documents carry no factor bound, so the verifier factors with its own
    # default; a document that names a bound, however small or large, is
    # refused as not canonical, and no bound in it reaches factor
    A = integral_zero_module((3, 0))
    parsed = ParsedAlgebra(A)
    elements = ((1, 1),)
    docs = (
        bad_primes_doc(A, elements, bad_primes(A, elements)),
        global_generation_doc(A, elements, verify_global_generation(A, elements)),
        lift_certificate_doc(A, forster_lift(A, 2)),
    )
    calls = []
    real = algen.integral.factor

    def spy(n, *args, **kwargs):
        calls.append((args, kwargs))
        return real(n, *args, **kwargs)

    monkeypatch.setattr(algen.integral, "factor", spy)
    for doc in docs:
        assert "factor_bound" not in doc
        assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
        for value in ("4321", "1000000", "10000001", "1" + "0" * 40):
            hostile = _reload(doc)
            hostile["factor_bound"] = value
            ok, detail = verify_certificate(parsed, hostile)
            assert not ok and not detail.startswith("inconclusive"), (doc["kind"], detail)
    assert calls and all(call == ((), {}) for call in calls)


def test_certificates_are_version_2_and_algebras_stay_version_1():
    A = integral_zero_module((3, 0))
    elements = ((1, 1),)
    alg = split_etale(GF(2), 3)
    _, cert = is_generating(alg, [(0, 1, 1)])
    cases = [
        (ParsedAlgebra(alg), generation_certificate_doc(alg, cert)),
        (ParsedAlgebra(alg), mingen_report_doc(alg, min_generators(alg), DEFAULT_BUDGET)),
        (ParsedAlgebra(A), bad_primes_doc(A, elements, bad_primes(A, elements))),
        (
            ParsedAlgebra(A),
            global_generation_doc(A, elements, verify_global_generation(A, elements)),
        ),
        (ParsedAlgebra(A), lift_certificate_doc(A, forster_lift(A, 2))),
    ]
    for parsed, doc in cases:
        assert doc["version"] == "2"
        assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
        old = _reload(doc)
        old["version"] = "1"
        assert verify_certificate(parsed, old) == (
            False,
            "malformed certificate: unsupported version '1'",
        )
    for algebra in (A, alg):
        doc = _reload(serialize_algebra(algebra))
        assert doc["version"] == "1"
        assert parse_algebra(doc).algebra == algebra


def test_verify_proves_region_primes_without_trial_division():
    # trial division up to sqrt(p) takes about a minute for p near 10^18
    A = integral_zero_module((3, 0))
    doc = _reload(lift_certificate_doc(A, forster_lift(A, 2)))
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
    doc = bad_primes_doc(A, elements, report)
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
    doc = global_generation_doc(A, elements, report)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    bad = _reload(doc)
    bad["report"]["generates"] = False
    assert verify_certificate(parsed, bad)[0] is False
    bad = _reload(doc)
    bad["report"]["subgroup"][0][0] = "5"
    assert verify_certificate(parsed, bad)[0] is False


def test_verify_refuses_edited_derived_flags():
    # generates derives from the subgroup, and the canonical re-emission
    # refuses an edit; the flags the support already decides are not part
    # of the document, and adding them is refused the same way
    A = integral_zero_module((2, 0))
    parsed = ParsedAlgebra(A)
    elements = ((1, 1),)
    doc = global_generation_doc(A, elements, verify_global_generation(A, elements))
    assert sorted(_reload(doc)["report"]) == ["generates", "subgroup", "support"]
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    lift = lift_certificate_doc(A, forster_lift(A, 2))
    assert verify_certificate(parsed, _reload(lift)) == (True, "ok")
    edits = (
        lambda report: report.update(generates=not report["generates"]),
        lambda report: report.update(generic_generates=True),
        lambda report: report.update(fiber_checks=[["2", False]]),
        lambda report: report.update(fiber_checks=[]),
    )
    for edit in edits:
        for source, key in ((doc, "report"), (lift, "verification")):
            bad = _reload(source)
            edit(bad[key])
            ok, detail = verify_certificate(parsed, bad)
            assert not ok and ("match" in detail or "canonical" in detail), (key, detail)


def test_derived_keys_are_properties():
    # a record stores each fact once: these keys are computed from its fields
    derived = [
        (BadPrimesReport, "generic_fail"),
        (GlobalGenerationReport, "generates"),
        (MinGenReport, "certificate"),
        (MinGenReport, "n_upper"),
        (MinGenReport, "lower_bound_certified"),
        (PartitionCell, "level"),
        (LiftCertificate, "generators"),
        (GenerationCertificate, "method"),
    ]
    for cls, name in derived:
        assert isinstance(getattr(cls, name), property), name
        assert name not in {f.name for f in dataclasses.fields(cls)}, name
    assert not hasattr(algen.ioformat, "DERIVED")


def test_verify_refuses_edited_derived_keys():
    # each key restates other fields of its record: it is emitted, never
    # parsed, and the re-emission refuses any value but the derived one
    A = integral_zero_module((3, 0))
    lift = lift_certificate_doc(A, forster_lift(A, 2))
    gf2 = split_etale(GF(2), 3)
    mingen = mingen_report_doc(gf2, min_generators(gf2), DEFAULT_BUDGET)
    Z3 = integral_split_etale(3)
    x = ((1, 2, 3),)
    support = bad_primes_doc(Z3, x, bad_primes(Z3, x))
    global_ = global_generation_doc(Z3, x, verify_global_generation(Z3, x))
    m2 = matrix_algebra(GF(2), 2)
    ok, cert = is_generating(m2, canonical_matrix_generators(GF(2), 2))
    check = generation_certificate_doc(m2, cert)
    cases = [
        (A, lift, ("generators", 2), ["1", "1"]),
        (A, lift, ("generators",), lift["generators"][:2]),
        (A, lift, ("steps", 0, "partition", 0, "level"), "2"),
        (A, lift, ("verification", "support", "generic_fail"), True),
        (gf2, mingen, ("n_upper",), "3"),
        (gf2, mingen, ("lower_bound_certified",), False),
        (Z3, support, ("report", "generic_fail"), True),
        (Z3, global_, ("report", "support", "generic_fail"), True),
        (m2, check, ("method",), "random"),
    ]
    for alg, doc, path, value in cases:
        parsed = ParsedAlgebra(alg)
        assert verify_certificate(parsed, _reload(doc)) == (True, "ok"), path
        bad = _reload(doc)
        node = bad
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] != value, path
        node[path[-1]] = value
        ok, detail = verify_certificate(parsed, bad)
        assert ok is False, (path, detail)


def test_verify_refuses_provenance_no_search_writes():
    # method derives from the seed, trial and index a search records; a
    # document naming another method, recording a shape no search writes,
    # or claiming a search's provenance outside a mingen report, is refused
    alg = matrix_algebra(GF(2), 2)
    parsed = ParsedAlgebra(alg)
    ok, cert = is_generating(alg, canonical_matrix_generators(GF(2), 2))
    doc = generation_certificate_doc(alg, cert)
    assert verify_certificate(parsed, _reload(doc)) == (True, "ok")
    edits = [
        ({"method": "banana"}, "canonical"),
        ({"method": "exhaustive"}, "canonical"),
        # an index makes the method exhaustive, which no standalone
        # certificate has, before its label is compared
        ({"method": "random", "index": "0"}, "explicit"),
        ({"method": "explicit", "seed": "1"}, "malformed"),
        ({"method": "random", "seed": "1", "trial": "0", "index": "0"}, "malformed"),
        # well-formed search provenance, but check writes explicit ones only
        ({"method": "exhaustive", "index": "-7"}, "explicit"),
        ({"method": "random", "seed": "-3", "trial": "123456789"}, "explicit"),
    ]
    for edit, refusal in edits:
        ok, detail = verify_certificate(parsed, {**_reload(doc), **edit})
        assert not ok and refusal in detail, (edit, detail)


def test_lift_round_trip_and_verify():
    A = integral_zero_module((3, 0))
    parsed = ParsedAlgebra(A)
    cert = forster_lift(A, 2)
    doc = lift_certificate_doc(A, cert)
    # the lift codec that verify_certificate parses with
    back = algen.ioformat._lift(A.rank).parse(_reload(doc))
    assert back == cert
    assert canonical_json(lift_certificate_doc(A, back)) == canonical_json(doc)
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
        bad_primes_doc(A, elements, bad_primes(A, elements)),
        global_generation_doc(A, elements, verify_global_generation(A, elements)),
    )
    for doc in docs:
        bad = _reload(doc)
        bad["elements"][0] = bad["elements"][0][:2]
        ok, detail = verify_certificate(parsed, bad)
        assert not ok and detail.startswith("malformed")


def test_verify_reports_short_subgroup_rows_as_malformed():
    A = integral_zero_module((3, 0, 0, 0))
    parsed = ParsedAlgebra(A)
    bad = _reload(lift_certificate_doc(A, forster_lift(A, 4)))
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
        bad_primes_doc(A, elements, bad_primes(A, elements)),
        global_generation_doc(A, elements, verify_global_generation(A, elements)),
    )
    for doc in docs:
        bad = _reload(doc)
        # the exponent has a cofactor above the proven Miller-Rabin range
        bad["elements"][0] = ["0", "1", "10000000000000000000000007"]
        ok, detail = verify_certificate(parsed, bad)
        assert not ok and detail.startswith("inconclusive: could not factor")

    Z = integral_zero_module((3, 0))
    doc = lift_certificate_doc(Z, forster_lift(Z, 2))

    def unfactorable(*args):
        raise FactorizationIncomplete(10**25 + 7, (), 10**25 + 7)

    monkeypatch.setattr(algen.forster, "bad_primes", unfactorable)
    ok, detail = verify_certificate(ParsedAlgebra(Z), _reload(doc))
    assert not ok and detail.startswith("inconclusive: could not factor")


def test_lift_replay_uses_no_certificate_factor_bound(monkeypatch):
    # a lift certificate names no factor bound: the replay's bad-prime and
    # global checks get the algebra and the elements only, and a document
    # that adds a bound is refused after an otherwise successful replay
    A = integral_zero_module((3, 0))
    doc = _reload(lift_certificate_doc(A, forster_lift(A, 2)))
    assert "factor_bound" not in doc
    seen = []

    def recording(real):
        def call(*args, **kwargs):
            seen.append((real.__name__, len(args), kwargs))
            return real(*args, **kwargs)

        return call

    for name in ("bad_primes", "verify_global_generation"):
        monkeypatch.setattr(algen.forster, name, recording(getattr(algen.forster, name)))
    assert verify_certificate(ParsedAlgebra(A), copy.deepcopy(doc)) == (True, "ok")
    assert {name for name, _, _ in seen} == {"bad_primes", "verify_global_generation"}
    assert all(count == 2 and not kwargs for _, count, kwargs in seen)
    doc["factor_bound"] = "4321"
    ok, detail = verify_certificate(ParsedAlgebra(A), doc)
    assert not ok and "canonical" in detail


# ---------------------------------------------------------------------------
# Fuzzing lift documents
# ---------------------------------------------------------------------------


@functools.cache
def _fuzz_case(kind):
    """(parsed algebra, accepted document) of one certificate kind."""
    if kind == "lift":
        A = integral_zero_module((3, 0))
        doc = lift_certificate_doc(A, forster_lift(A, 2))
    elif kind in ("generation-f2", "generation-q"):
        field = GF(2) if kind == "generation-f2" else QQ
        A = matrix_algebra(field, 2)
        gens = canonical_matrix_generators(field, 2)
        if field == QQ:
            gens = [[Fraction(x, 2) for x in g] for g in gens]
        doc = generation_certificate_doc(A, is_generating(A, gens)[1])
    elif kind == "mingen":
        A = split_etale(GF(2), 3)
        budget = SearchBudget(max_exhaustive=100, random_trials=20)
        doc = mingen_report_doc(A, min_generators(A, budget, unital=True), budget)
    elif kind == "bad-primes":
        A = integral_split_etale(3)
        elements = ((1, 2, 3),)
        doc = bad_primes_doc(A, elements, bad_primes(A, elements))
    else:
        A = integral_zero_module((6, 0))
        elements = ((1, 0), (0, 1))
        doc = global_generation_doc(A, elements, verify_global_generation(A, elements))
    return ParsedAlgebra(A), _reload(doc)


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
    _verify_mutated(data, "lift")


@pytest.mark.parametrize(
    "kind", ["generation-f2", "generation-q", "mingen", "bad-primes", "global-generation"]
)
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_verify_survives_mutated_documents(kind, data):
    _verify_mutated(data, kind)


def _verify_mutated(data, doc_kind):
    """One to two random mutations of an accepted document of doc_kind:
    verify_certificate returns a (bool, str) pair and never raises, and a
    document whose claims were mutated is never accepted.  A mutated tuple
    (the top-level elements) makes a claim about another tuple, which may be
    true, so such a document is held to the first property only."""
    parsed, original = _fuzz_case(doc_kind)
    assert verify_certificate(parsed, copy.deepcopy(original)) == (True, "ok")
    doc = copy.deepcopy(original)
    tuple_changed = False
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(sorted(_MUTATIONS)), label="kind")
        paths = [path for path, value in _nodes(doc) if _MUTATIONS[kind](path, value)]
        if not paths:
            continue
        path = data.draw(st.sampled_from(paths), label="path")
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        key, value = path[-1], parent[path[-1]]
        tuple_changed = tuple_changed or path[0] == "elements"
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
    result = verify_certificate(parsed, doc)
    assert isinstance(result, tuple) and len(result) == 2
    ok, detail = result
    assert isinstance(ok, bool) and isinstance(detail, str)
    if doc != original and not tuple_changed:
        assert not ok, f"accepted a mutated document: {detail}"


def _mutate(data, doc, mutations) -> None:
    """One to two random mutations of doc, in place: _verify_mutated's
    mutations, and with mutations["dim"] a hostile dim."""
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        kind = data.draw(st.sampled_from(sorted(mutations)), label="kind")
        paths = [path for path, value in _nodes(doc) if mutations[kind](path, value)]
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
        elif kind == "dim":
            parent[key] = data.draw(st.sampled_from(_HOSTILE_DIMS))
        else:
            parent[key] = data.draw(st.sampled_from(_HOSTILE_INTS))


# ---------------------------------------------------------------------------
# Fuzzing algebra documents
# ---------------------------------------------------------------------------


_ALGEBRA_MUTATIONS = dict(_MUTATIONS, dim=lambda path, value: path in (("dim",), ("presentation", "generators")))
# a dim or generator count that costs its square if anything is quadratic,
# and one no list can have
_HOSTILE_DIMS = ["100000", str(sys.maxsize + 1)]


@functools.cache
def _algebra_doc(name):
    if name == "f2":
        doc = _reload(serialize_algebra(matrix_algebra(GF(2), 2)))
        del doc["ops"][1]["role"]  # the product alone, no unit
        return doc
    if name == "z-presentation":
        return _ring_presentation_doc()
    algebra = {
        "f3-unital": split_etale(GF(3), 3),
        "q": quaternion_algebra(QQ),
        "z-factors": integral_split_etale(3),
    }[name]
    return _reload(serialize_algebra(algebra))


@settings(
    max_examples=600,
    deadline=1000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=st.sampled_from(["f2", "f3-unital", "q", "z-factors", "z-presentation"]), data=st.data())
def _parse_survives_mutations(name, data):
    """One to two random mutations of an algebra document: parse_algebra
    returns a ParsedAlgebra or raises FormatError, within a second."""
    doc = copy.deepcopy(_algebra_doc(name))
    _mutate(data, doc, _ALGEBRA_MUTATIONS)
    try:
        assert isinstance(parse_algebra(doc), ParsedAlgebra)
    except FormatError:
        pass


_PARSE_MUTATED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from test_ioformat import _parse_survives_mutations
_parse_survives_mutations()
"""


def test_parse_survives_mutated_algebra_documents():
    # in a subprocess with a 2 GiB address-space limit, so that a parse that
    # grows with a declared size fails the test, not the host
    tests = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-c", _PARSE_MUTATED, tests],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
