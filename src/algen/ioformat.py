"""JSON interchange for algebras, element tuples, and certificates.

Conventions: every integer is carried as a decimal string so consumers in
any language see exact values, rationals are "num/den" (or plain decimal)
strings, booleans are JSON booleans, and tensors are sparse lists of rows
[i_1, ..., i_k, out_index, coefficient].  Serialization is canonical (sorted
keys, no whitespace) and parse(serialize(x)) returns x for canonical-form
values.  Each certificate record is declared once as a Codec, which both
emits and parses it, so the two directions agree by construction.
Certificates embed a SHA-256 hash of the canonically serialized algebra so
a verifier detects algebra/certificate mismatches up front.
Algebra documents and certificates carry separate versions, so a change
of certificate format leaves algebra documents and their hashes alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Optional, Union

from .algebra import (
    GenerationCertificate,
    Multialgebra,
    OperationTensor,
    make_tensor,
    replay_certificate,
)
from .fields import Field, field_from_name, field_name
from .forster import (
    ConstructibleSet,
    LiftCertificate,
    LiftStep,
    LocalReport,
    PartitionCell,
    PrimeStep,
    replay_lift,
)
from .integral import (
    BadPrimesReport,
    GlobalGenerationReport,
    IntegralAlgebra,
    Presentation,
    bad_primes,
    make_z_tensor,
    normalize_presentation,
    reduce_element,
    verify_global_generation,
)
from .intmat import FactorizationIncomplete, decimal_str, lattice_from_vectors
from .search import DEFAULT_BUDGET, MinGenReport, SearchBudget, min_generators

ALGEBRA_FORMAT = "algen-algebra"
CERTIFICATE_FORMAT = "algen-certificate"
ALGEBRA_VERSION = "1"
CERTIFICATE_VERSION = "2"

# A mingen document carries the budget its search ran under, and verifying
# it reruns that search; budgets above these caps are refused as too costly
# to verify, so the verifier's cost does not depend on the document.
MAX_VERIFY_EXHAUSTIVE = 10 * DEFAULT_BUDGET.max_exhaustive
MAX_VERIFY_TRIALS = 10 * DEFAULT_BUDGET.random_trials


class FormatError(ValueError):
    """A document does not match the interchange format."""


# ---------------------------------------------------------------------------
# Scalars and codecs
# ---------------------------------------------------------------------------


def int_str(x: int) -> str:
    """x in decimal, through decimal_str when str() refuses its length."""
    try:
        return str(int(x))
    except ValueError:
        return decimal_str(x)


def _int_literal(s: str) -> Optional[int]:
    """int(s) when s is a decimal integer (spaces around an optional sign
    and digits); None for any other spelling."""
    body = s.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdigit():
        return None
    try:
        return int(body)
    except ValueError as bad:  # e.g. more digits than int() converts
        raise FormatError(str(bad)) from bad


def parse_int(value) -> int:
    """Decimal string (preferred) or JSON integer."""
    if isinstance(value, bool):
        raise FormatError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        n = _int_literal(value)
        if n is not None:
            return n
    raise FormatError(f"expected an integer, got {value!r}")


def parse_scalar(field: Field, value):
    """Coerce a decimal or num/den string into the field: Fraction's syntax,
    but a decimal integer skips Fraction."""
    if isinstance(value, bool):
        raise FormatError(f"not a scalar: {value!r}")
    try:
        if isinstance(value, int):
            return field.coerce(value)
        if isinstance(value, str):
            # ASCII only: "²" passes isdigit, and int's error for it is not Fraction's
            n = _int_literal(value) if value.isascii() else None
            return field.parse(value) if n is None else field.coerce(n)
    except (ValueError, ZeroDivisionError) as bad:
        raise FormatError(str(bad)) from bad
    raise FormatError(f"not a scalar: {value!r}")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _expect_list(doc, context: str) -> list:
    if not isinstance(doc, list):
        raise FormatError(f"{context} must be a list")
    return doc


def _expect_dict(doc, context: str) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{context} must be an object")
    return doc


class Codec(NamedTuple):
    """A value's JSON form both ways: emit(value) -> JSON, parse(JSON) -> value.

    parse is None for a value that is emitted but never read back.
    """

    emit: Callable
    parse: Optional[Callable]


def _same(value):
    return value


def _typed(cls, name: str) -> Codec:
    """A JSON value of one type, written as itself."""

    def parse(value):
        if not isinstance(value, cls):
            raise FormatError(f"expected {name}, got {value!r}")
        return value

    return Codec(_same, parse)


def optional(codec: Codec) -> Codec:
    """None, or a value of codec."""
    emit, parse = codec
    return Codec(
        lambda value: None if value is None else emit(value),
        lambda doc: None if doc is None else parse(doc),
    )


def seq(item: Codec, length: Optional[int] = None) -> Codec:
    """A tuple as a JSON list; with length given, the list must have it."""
    emit, parse_item = item

    def parse(doc) -> tuple:
        if not isinstance(doc, list):
            raise FormatError("expected a list")
        if length is not None and len(doc) != length:
            raise FormatError(f"length {len(doc)}, expected {length}")
        return tuple(parse_item(x) for x in doc)

    return Codec(lambda values: [emit(x) for x in values], parse)


def record(cls, **codecs: Codec) -> Codec:
    """A dataclass as a JSON object with one key per declared attribute.

    A key that is not a dataclass field names a derived property: it is
    emitted and never parsed, the parsed object recomputes it, and the
    re-emission in verify_certificate refuses an edited value.  A dataclass
    field without a parser makes the record emit-only.  A ValueError from
    the dataclass, or from a field, is raised as a FormatError.
    """
    stored = {f.name for f in fields(cls)}
    emitters = tuple((key, codec.emit) for key, codec in codecs.items())
    parsers = tuple((key, codec.parse) for key, codec in codecs.items() if key in stored)

    def emit(value) -> dict:
        return {key: emit_field(getattr(value, key)) for key, emit_field in emitters}

    def parse(doc):
        if not isinstance(doc, dict):
            raise FormatError(f"expected a {cls.__name__} object")
        values = {}
        for key, parse_field in parsers:
            try:
                values[key] = parse_field(doc.get(key))
            except ValueError as bad:
                raise FormatError(f"{key}: {bad}") from bad
        try:
            return cls(**values)
        except ValueError as bad:
            raise FormatError(f"{cls.__name__}: {bad}") from bad

    emit_only = any(parse_field is None for _, parse_field in parsers)
    return Codec(emit, None if emit_only else parse)


INT = Codec(int_str, parse_int)
OPT_INT = optional(INT)
BOOL = _typed(bool, "a boolean")
STR = _typed(str, "a string")
INT_VECTOR = seq(INT)


def _scalars(field: Field) -> Codec:
    return Codec(field.format, lambda value: parse_scalar(field, value))


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedAlgebra:
    """A loaded algebra plus, for raw integer presentations, the coordinate
    map from the presented generators to canonical invariant-factor form."""

    algebra: Union[Multialgebra, IntegralAlgebra]
    presentation: Optional[Presentation] = None

    @property
    def is_integral(self) -> bool:
        return isinstance(self.algebra, IntegralAlgebra)

    def parse_elements(self, doc) -> tuple[tuple, ...]:
        """Tuple of element vectors, mapped into the algebra's coordinates."""
        alg = self.algebra
        if not self.is_integral:
            return seq(seq(_scalars(alg.field), alg.dim)).parse(doc)
        if self.presentation is not None:
            return tuple(self.presentation.map_element(v) for v in seq(INT_VECTOR).parse(doc))
        return tuple(reduce_element(alg.factors, v) for v in _elements(alg).parse(doc))


def _roles(alg) -> dict[int, str]:
    roles = {alg.product_index: "product"}
    if alg.unit_index is not None:
        roles[alg.unit_index] = "unit"
    if alg.involution_index is not None:
        roles[alg.involution_index] = "involution"
    return roles


def _tensor_doc(op: OperationTensor, fmt) -> dict:
    rows = []
    for idx, outs in op.entries:
        for out, coeff in outs:
            rows.append([int_str(i) for i in idx] + [int_str(out), fmt(coeff)])
    return {"arity": int_str(op.arity), "entries": rows}


def serialize_algebra(alg: Union[Multialgebra, IntegralAlgebra]) -> dict:
    if isinstance(alg, IntegralAlgebra):
        base = "Z"
        fmt = int_str
        doc = {"factors": INT_VECTOR.emit(alg.factors)}
    else:
        base = field_name(alg.field)
        fmt = alg.field.format
        doc = {"dim": int_str(alg.dim)}
    roles = _roles(alg)
    ops = []
    for i, op in enumerate(alg.ops):
        op_doc = _tensor_doc(op, fmt)
        if i in roles:
            op_doc["role"] = roles[i]
        ops.append(op_doc)
    doc.update({"format": ALGEBRA_FORMAT, "version": ALGEBRA_VERSION, "base": base, "ops": ops})
    return doc


def algebra_hash(alg: Union[Multialgebra, IntegralAlgebra]) -> str:
    payload = canonical_json(serialize_algebra(alg)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _parse_tensor_rows(op_doc: dict, parse_coeff) -> tuple[int, list]:
    arity = parse_int(op_doc.get("arity"))
    if arity < 0:
        raise FormatError("negative arity")
    triples = []
    for row in _expect_list(op_doc.get("entries"), "tensor entries"):
        row = _expect_list(row, "tensor row")
        if len(row) != arity + 2:
            raise FormatError(f"tensor row of length {len(row)} does not match arity {arity}")
        idx = tuple(parse_int(x) for x in row[:arity])
        out = parse_int(row[arity])
        triples.append((idx, out, parse_coeff(row[arity + 1])))
    return arity, triples


def _parse_ops(doc: dict, parse_coeff):
    """All tensors plus the role designations, as the product_index,
    unit_index and involution_index keywords; roles must be unique."""
    ops = []
    roles: dict[str, int] = {}
    for i, op_doc in enumerate(_expect_list(doc.get("ops"), "ops")):
        op_doc = _expect_dict(op_doc, "operation")
        ops.append(_parse_tensor_rows(op_doc, parse_coeff))
        role = op_doc.get("role")
        if role is not None:
            if role not in ("product", "unit", "involution"):
                raise FormatError(f"unknown role {role!r}")
            if f"{role}_index" in roles:
                raise FormatError(f"duplicate role {role!r}")
            roles[f"{role}_index"] = i
    if "product_index" not in roles:
        raise FormatError("no operation is designated as the product")
    return ops, roles


def parse_algebra(doc) -> ParsedAlgebra:
    doc = _expect_dict(doc, "algebra document")
    if doc.get("format") != ALGEBRA_FORMAT:
        raise FormatError(f"not an algebra document (format {doc.get('format')!r})")
    if doc.get("version") != ALGEBRA_VERSION:
        raise FormatError(f"unsupported version {doc.get('version')!r}")
    base = doc.get("base")
    if not isinstance(base, str):
        raise FormatError("missing base")
    try:
        if base == "Z":
            return _parse_integral(doc)
        return _parse_field_algebra(doc, field_from_name(base))
    except FormatError:
        raise
    except ValueError as bad:
        raise FormatError(str(bad)) from bad


def _parse_field_algebra(doc: dict, field: Field) -> ParsedAlgebra:
    dim = parse_int(doc.get("dim"))
    ops, roles = _parse_ops(doc, lambda s: parse_scalar(field, s))
    tensors = tuple(make_tensor(field, dim, arity, triples) for arity, triples in ops)
    return ParsedAlgebra(Multialgebra(field=field, dim=dim, ops=tensors, **roles))


def _parse_integral(doc: dict) -> ParsedAlgebra:
    has_factors = "factors" in doc
    has_presentation = "presentation" in doc
    if has_factors == has_presentation:
        raise FormatError("a Z algebra needs exactly one of factors or presentation")
    ops, roles = _parse_ops(doc, parse_int)
    if has_factors:
        factors = INT_VECTOR.parse(doc.get("factors"))
        tensors = tuple(make_z_tensor(factors, arity, triples) for arity, triples in ops)
        return ParsedAlgebra(IntegralAlgebra(factors=factors, ops=tensors, **roles))
    pres_doc = _expect_dict(doc.get("presentation"), "presentation")
    generators = parse_int(pres_doc.get("generators"))
    relations = seq(INT_VECTOR).parse(pres_doc.get("relations"))
    presentation = normalize_presentation(generators, relations, ops, **roles)
    return ParsedAlgebra(algebra=presentation.algebra, presentation=presentation)


# ---------------------------------------------------------------------------
# Certificates: each record declared once, and documents of an envelope plus
# the body of one kind
# ---------------------------------------------------------------------------


BUDGET = record(SearchBudget, max_exhaustive=INT, random_trials=INT, seed=INT, coeff_height=INT)
SUPPORT = record(BadPrimesReport, generic_fail=BOOL, primes=INT_VECTOR, exponent=OPT_INT)
# region primes are written sorted as decimal strings
REGION = record(
    ConstructibleSet,
    cofinite=BOOL,
    primes=Codec(lambda primes: sorted(int_str(p) for p in primes), INT_VECTOR.parse),
)
PARTITION_CELL = record(PartitionCell, region=REGION, level=INT, witness=INT_VECTOR)
_PRIME_STEP = record(
    PrimeStep,
    prime=INT,
    witness=INT_VECTOR,
    extension=seq(INT_VECTOR),
    completed=seq(INT_VECTOR),
    excluded=INT_VECTOR,
)
# fiber coordinates are written canonically, as the residues in [0, p)
PRIME_STEP = Codec(
    lambda ps: _PRIME_STEP.emit(
        replace(ps, extension=tuple(tuple(x % ps.prime for x in v) for v in ps.extension))
    ),
    _PRIME_STEP.parse,
)
LIFT_STEP = record(
    LiftStep, element=INT_VECTOR, completions=seq(PRIME_STEP), partition=seq(PARTITION_CELL)
)
# printed when a lift's hypothesis fails, and emit-only: the per-prime
# searches are summarised as [prime, status, tested] triples
LOCAL_REPORT = record(
    LocalReport,
    status=STR,
    n=INT,
    prime=OPT_INT,
    witness=optional(seq(INT_VECTOR)),
    support=optional(SUPPORT),
    completions=Codec(
        lambda pairs: [[int_str(p), res.status, int_str(res.tested)] for p, res in pairs], None
    ),
)


def _elements(alg) -> Codec:
    """Element tuples; over Z each element has the module's rank."""
    if isinstance(alg, IntegralAlgebra):
        return seq(seq(INT, alg.rank))
    return seq(seq(_scalars(alg.field)))


def _generation(alg: Multialgebra) -> Codec:
    return record(
        GenerationCertificate,
        elements=_elements(alg),
        closure_dim=INT,
        ambient_dim=INT,
        unital=BOOL,
        monomial_count=INT,
        method=STR,
        seed=OPT_INT,
        trial=OPT_INT,
        index=OPT_INT,
    )


def _mingen(alg: Multialgebra) -> Codec:
    def attempts(results) -> list:
        return [
            {
                "n": int_str(n),
                "total": int_str(alg.field.order ** (alg.dim * n)),
                "exhaustive": res.exhaustive,
                "tested": int_str(res.tested),
                "found": res.status == "found",
            }
            for n, res in enumerate(results)
        ]

    return record(
        MinGenReport,
        unital=BOOL,
        n_upper=OPT_INT,
        lower_bound_certified=BOOL,
        attempts=Codec(attempts, None),
        certificate=optional(_generation(alg)),
    )


def _global_report(rank: int) -> Codec:
    """The subgroup, as its canonical rows in Z^rank, and its support."""
    rows = seq(seq(INT, rank))
    return record(
        GlobalGenerationReport,
        generates=BOOL,
        subgroup=Codec(
            lambda lattice: rows.emit(lattice.rows),
            lambda doc: lattice_from_vectors(rows.parse(doc), rank),
        ),
        support=SUPPORT,
    )


def _lift(rank: int) -> Codec:
    return record(
        LiftCertificate,
        factors=INT_VECTOR,
        n=INT,
        generators=seq(INT_VECTOR),
        steps=seq(LIFT_STEP),
        verification=_global_report(rank),
    )


def local_report_doc(report: LocalReport) -> dict:
    """Summary of a local n-generation check (printed when lifting fails)."""
    return LOCAL_REPORT.emit(report)


def elements_doc(alg, elements) -> list:
    return _elements(alg).emit(elements)


def _envelope(kind: str, alg) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "version": CERTIFICATE_VERSION,
        "kind": kind,
        "algebra_sha256": algebra_hash(alg),
    }


def _mingen_body(alg: Multialgebra, report: MinGenReport, budget: SearchBudget) -> dict:
    return {"budget": BUDGET.emit(budget), **_mingen(alg).emit(report)}


def _integral_body(A: IntegralAlgebra, elements, report: dict) -> dict:
    return {"elements": elements_doc(A, elements), "report": report}


def generation_certificate_doc(alg: Multialgebra, cert: GenerationCertificate) -> dict:
    return {**_envelope("generation", alg), **_generation(alg).emit(cert)}


def mingen_report_doc(alg: Multialgebra, report: MinGenReport, budget: SearchBudget) -> dict:
    return {**_envelope("mingen", alg), **_mingen_body(alg, report, budget)}


def bad_primes_doc(A: IntegralAlgebra, elements, report: BadPrimesReport) -> dict:
    return {**_envelope("bad-primes", A), **_integral_body(A, elements, SUPPORT.emit(report))}


def global_generation_doc(A: IntegralAlgebra, elements, report: GlobalGenerationReport) -> dict:
    body = _integral_body(A, elements, _global_report(A.rank).emit(report))
    return {**_envelope("global-generation", A), **body}


def lift_certificate_doc(A: IntegralAlgebra, cert: LiftCertificate) -> dict:
    return {**_envelope("lift", A), **_lift(A.rank).emit(cert)}


# ---------------------------------------------------------------------------
# Verification of presented certificates
# ---------------------------------------------------------------------------


class _Refused(Exception):
    """A replay disagrees with the document; the message says how."""


def _replay_generation(alg: Multialgebra, doc: dict) -> dict:
    codec = _generation(alg)
    cert = codec.parse(doc)
    # check writes only explicit certificates; a search's certificate sits
    # in a mingen report, which its rerun search re-emits
    if cert.method != "explicit":
        raise _Refused(f"a standalone generation certificate has method explicit, not {cert.method}")
    if not replay_certificate(alg, cert):
        raise _Refused("closure replay does not match the certificate")
    return codec.emit(cert)


def _replay_mingen(alg: Multialgebra, doc: dict) -> dict:
    if alg.field.order is None:
        raise FormatError("a mingen certificate needs an algebra over a finite field")
    budget = BUDGET.parse(doc.get("budget"))
    unital = BOOL.parse(doc.get("unital"))
    if budget.max_exhaustive > MAX_VERIFY_EXHAUSTIVE or budget.random_trials > MAX_VERIFY_TRIALS:
        raise _Refused(
            "inconclusive: too costly to verify (budget above "
            f"max_exhaustive {MAX_VERIFY_EXHAUSTIVE}, random_trials {MAX_VERIFY_TRIALS})"
        )
    return _mingen_body(alg, min_generators(alg, budget, unital=unital), budget)


def _replay_bad_primes(A: IntegralAlgebra, doc: dict) -> dict:
    elements = _elements(A).parse(doc.get("elements"))
    return _integral_body(A, elements, SUPPORT.emit(bad_primes(A, elements)))


def _replay_global(A: IntegralAlgebra, doc: dict) -> dict:
    elements = _elements(A).parse(doc.get("elements"))
    report = verify_global_generation(A, elements)
    return _integral_body(A, elements, _global_report(A.rank).emit(report))


def _replay_lift(A: IntegralAlgebra, doc: dict) -> dict:
    codec = _lift(A.rank)
    cert = codec.parse(doc)
    ok, detail = replay_lift(A, cert)
    if not ok:
        raise _Refused(detail)
    return codec.emit(cert)


# kind: (needs a Z algebra, replay returning the body it re-emits, the
# complaint when that body and the document differ)
_REPLAYS = {
    "generation": (False, _replay_generation, "certificate document is not in canonical form"),
    "mingen": (False, _replay_mingen, "rerunning the search does not reproduce the report"),
    "bad-primes": (True, _replay_bad_primes, "recomputed bad primes do not match the report"),
    "global-generation": (
        True,
        _replay_global,
        "recomputed verification does not match the report",
    ),
    "lift": (True, _replay_lift, "certificate document is not in canonical form"),
}


def verify_certificate(parsed: ParsedAlgebra, doc) -> tuple[bool, str]:
    """Replay a certificate document against an algebra.

    Every mathematical claim is recomputed: generation certificates rerun the
    closure, mingen reports rerun the whole (deterministic, seeded) search
    under the recorded budget, bad-prime and global-generation reports are
    recomputed, and lift certificates go through the full step-by-step
    replay.  The document is then compared, byte for byte, with the envelope
    plus the body the replay re-emits.  Factoring uses intmat's one
    trial-division bound, the prover's too, which decides only whether
    factoring finishes.  Budgets above the MAX_VERIFY_* caps are refused as
    inconclusive.  Returns (ok, detail).
    """
    try:
        doc = _expect_dict(doc, "certificate document")
        if doc.get("format") != CERTIFICATE_FORMAT:
            raise FormatError(f"not a certificate document (format {doc.get('format')!r})")
        if doc.get("version") != CERTIFICATE_VERSION:
            raise FormatError(f"unsupported version {doc.get('version')!r}")
        kind = doc.get("kind")
        envelope = _envelope(kind, parsed.algebra)
        if doc.get("algebra_sha256") != envelope["algebra_sha256"]:
            return False, "algebra hash mismatch"
        if not isinstance(kind, str) or kind not in _REPLAYS:
            raise FormatError(f"unknown certificate kind {kind!r}")
        integral, replay, differs = _REPLAYS[kind]
        if parsed.is_integral != integral:
            side = "a Z algebra" if integral else "a field algebra"
            raise FormatError(f"a {kind} certificate needs {side}")
        body = replay(parsed.algebra, doc)
        if canonical_json({**envelope, **body}) != canonical_json(doc):
            return False, differs
        return True, "ok"
    except _Refused as refused:
        return False, str(refused)
    except FormatError as bad:
        return False, f"malformed certificate: {bad}"
    except FactorizationIncomplete as stuck:
        return False, f"inconclusive: {stuck}"
