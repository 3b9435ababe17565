"""JSON interchange for algebras, element tuples, and certificates.

Conventions: every integer is carried as a decimal string so consumers in
any language see exact values, rationals are "num/den" (or plain decimal)
strings, booleans are JSON booleans, and tensors are sparse lists of rows
[i_1, ..., i_k, out_index, coefficient].  Serialization is canonical (sorted
keys, no whitespace) and parse(serialize(x)) returns x for canonical-form
values.  Certificates embed a SHA-256 hash of the canonically serialized
algebra so a verifier detects algebra/certificate mismatches up front.
Algebra documents and certificates carry separate versions, so a change
of certificate format leaves algebra documents and their hashes alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebra import (
    GenerationCertificate,
    Multialgebra,
    OperationTensor,
    make_tensor,
    replay_certificate,
)
from .fields import Field, field_from_name, field_name, validate_vector
from .forster import (
    ConstructibleSet,
    LiftCertificate,
    LiftStep,
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
from .intmat import FactorizationIncomplete, lattice_from_vectors
from .search import DEFAULT_BUDGET, MinGenReport, SearchBudget, SizeAttempt, min_generators

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
# Scalars
# ---------------------------------------------------------------------------


def int_str(x: int) -> str:
    return str(int(x))


def parse_int(value) -> int:
    """Decimal string (preferred) or JSON integer."""
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
            except ValueError as bad:  # e.g. more digits than int() converts
                raise FormatError(str(bad)) from bad
    raise FormatError(f"expected an integer, got {value!r}")


def parse_scalar(field: Field, value):
    """Coerce a decimal or num/den string into the field."""
    if isinstance(value, bool):
        raise FormatError(f"not a scalar: {value!r}")
    try:
        if isinstance(value, int):
            return field.coerce(value)
        if isinstance(value, str):
            return field.parse(value)
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


def _int_vector_doc(v) -> list:
    return [int_str(x) for x in v]


def _parse_int_vector(doc, context: str, rank: Optional[int] = None) -> tuple[int, ...]:
    """Integer vector; with rank given, its length must equal the rank."""
    vec = tuple(parse_int(x) for x in _expect_list(doc, context))
    if rank is not None and len(vec) != rank:
        raise FormatError(f"{context} length {len(vec)} != rank {rank}")
    return vec


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
        rows = _expect_list(doc, "element tuple")
        out = []
        for row in rows:
            row = _expect_list(row, "element")
            if self.is_integral:
                vec = tuple(parse_int(x) for x in row)
                if self.presentation is not None:
                    out.append(self.presentation.map_element(vec))
                else:
                    if len(vec) != self.algebra.rank:
                        raise FormatError(
                            f"element length {len(vec)} != rank {self.algebra.rank}"
                        )
                    out.append(reduce_element(self.algebra.factors, vec))
            else:
                vec = [parse_scalar(self.algebra.field, x) for x in row]
                try:
                    out.append(validate_vector(self.algebra.field, vec, self.algebra.dim))
                except ValueError as bad:
                    raise FormatError(str(bad)) from bad
        return tuple(out)


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
        doc = {"factors": [int_str(d) for d in alg.factors]}
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
            raise FormatError(
                f"tensor row of length {len(row)} does not match arity {arity}"
            )
        idx = tuple(parse_int(x) for x in row[:arity])
        out = parse_int(row[arity])
        triples.append((idx, out, parse_coeff(row[arity + 1])))
    return arity, triples


def _parse_ops(doc: dict, parse_coeff):
    """All tensors plus the role designations; roles must be unique."""
    ops = []
    roles: dict[str, int] = {}
    for i, op_doc in enumerate(_expect_list(doc.get("ops"), "ops")):
        op_doc = _expect_dict(op_doc, "operation")
        ops.append(_parse_tensor_rows(op_doc, parse_coeff))
        role = op_doc.get("role")
        if role is not None:
            if role not in ("product", "unit", "involution"):
                raise FormatError(f"unknown role {role!r}")
            if role in roles:
                raise FormatError(f"duplicate role {role!r}")
            roles[role] = i
    if "product" not in roles:
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
    algebra = Multialgebra(
        field=field,
        dim=dim,
        ops=tensors,
        product_index=roles["product"],
        unit_index=roles.get("unit"),
        involution_index=roles.get("involution"),
    )
    return ParsedAlgebra(algebra=algebra)


def _parse_integral(doc: dict) -> ParsedAlgebra:
    has_factors = "factors" in doc
    has_presentation = "presentation" in doc
    if has_factors == has_presentation:
        raise FormatError("a Z algebra needs exactly one of factors or presentation")
    ops, roles = _parse_ops(doc, parse_int)
    if has_factors:
        factors = _parse_int_vector(doc.get("factors"), "factors")
        tensors = tuple(make_z_tensor(factors, arity, triples) for arity, triples in ops)
        algebra = IntegralAlgebra(
            factors=factors,
            ops=tensors,
            product_index=roles["product"],
            unit_index=roles.get("unit"),
            involution_index=roles.get("involution"),
        )
        return ParsedAlgebra(algebra=algebra)
    pres_doc = _expect_dict(doc.get("presentation"), "presentation")
    generators = parse_int(pres_doc.get("generators"))
    relations = [
        _parse_int_vector(row, "relation")
        for row in _expect_list(pres_doc.get("relations"), "relations")
    ]
    presentation = normalize_presentation(
        generators,
        relations,
        ops,
        product_index=roles["product"],
        unit_index=roles.get("unit"),
        involution_index=roles.get("involution"),
    )
    return ParsedAlgebra(algebra=presentation.algebra, presentation=presentation)


# ---------------------------------------------------------------------------
# Budgets and element tuples
# ---------------------------------------------------------------------------


def budget_doc(budget: SearchBudget) -> dict:
    return {
        "max_exhaustive": int_str(budget.max_exhaustive),
        "random_trials": int_str(budget.random_trials),
        "seed": int_str(budget.seed),
        "coeff_height": int_str(budget.coeff_height),
    }


def parse_budget(doc) -> SearchBudget:
    doc = _expect_dict(doc, "budget")
    try:
        return SearchBudget(
            max_exhaustive=parse_int(doc.get("max_exhaustive")),
            random_trials=parse_int(doc.get("random_trials")),
            seed=parse_int(doc.get("seed")),
            coeff_height=parse_int(doc.get("coeff_height")),
        )
    except ValueError as bad:
        raise FormatError(str(bad)) from bad


def elements_doc(alg, elements) -> list:
    if isinstance(alg, IntegralAlgebra):
        return [_int_vector_doc(v) for v in elements]
    return [[alg.field.format(x) for x in v] for v in elements]


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _envelope(kind: str, alg) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "version": CERTIFICATE_VERSION,
        "kind": kind,
        "algebra_sha256": algebra_hash(alg),
    }


def _opt_int_str(x) -> Optional[str]:
    return None if x is None else int_str(x)


def _parse_opt_int(value) -> Optional[int]:
    return None if value is None else parse_int(value)


def _generation_payload(alg: Multialgebra, cert: GenerationCertificate) -> dict:
    return {
        "elements": elements_doc(alg, cert.elements),
        "closure_dim": int_str(cert.closure_dim),
        "ambient_dim": int_str(cert.ambient_dim),
        "unital": cert.unital,
        "monomial_count": int_str(cert.monomial_count),
        "method": cert.method,
        "seed": _opt_int_str(cert.seed),
        "trial": _opt_int_str(cert.trial),
        "index": _opt_int_str(cert.index),
    }


def _parse_generation_payload(doc: dict, field: Field) -> GenerationCertificate:
    elements = tuple(
        tuple(parse_scalar(field, x) for x in _expect_list(row, "element"))
        for row in _expect_list(doc.get("elements"), "elements")
    )
    method = doc.get("method")
    if not isinstance(method, str):
        raise FormatError("missing search method")
    unital = doc.get("unital")
    if not isinstance(unital, bool):
        raise FormatError("unital flag must be a boolean")
    return GenerationCertificate(
        elements=elements,
        closure_dim=parse_int(doc.get("closure_dim")),
        ambient_dim=parse_int(doc.get("ambient_dim")),
        unital=unital,
        monomial_count=parse_int(doc.get("monomial_count")),
        method=method,
        seed=_parse_opt_int(doc.get("seed")),
        trial=_parse_opt_int(doc.get("trial")),
        index=_parse_opt_int(doc.get("index")),
    )


def generation_certificate_doc(alg: Multialgebra, cert: GenerationCertificate) -> dict:
    doc = _envelope("generation", alg)
    doc.update(_generation_payload(alg, cert))
    return doc


def mingen_report_doc(alg: Multialgebra, report: MinGenReport, budget: SearchBudget) -> dict:
    doc = _envelope("mingen", alg)
    doc.update(
        {
            "budget": budget_doc(budget),
            "unital": report.unital,
            "n_upper": _opt_int_str(report.n_upper),
            "lower_bound_certified": report.lower_bound_certified,
            "attempts": [
                {
                    "n": int_str(a.n),
                    "total": int_str(a.total),
                    "exhaustive": a.exhaustive,
                    "tested": int_str(a.tested),
                    "found": a.found,
                }
                for a in report.attempts
            ],
            "certificate": None
            if report.certificate is None
            else _generation_payload(alg, report.certificate),
        }
    )
    return doc


def _support_payload(report: BadPrimesReport) -> dict:
    return {
        "generic_fail": report.generic_fail,
        "primes": [int_str(p) for p in report.primes],
        "exponent": _opt_int_str(report.exponent),
    }


def _parse_support_payload(doc) -> BadPrimesReport:
    doc = _expect_dict(doc, "bad-prime report")
    generic_fail = doc.get("generic_fail")
    if not isinstance(generic_fail, bool):
        raise FormatError("generic_fail must be a boolean")
    return BadPrimesReport(
        generic_fail=generic_fail,
        primes=_parse_int_vector(doc.get("primes"), "primes"),
        exponent=_parse_opt_int(doc.get("exponent")),
    )


def _integral_report_doc(kind: str, A: IntegralAlgebra, elements, payload) -> dict:
    doc = _envelope(kind, A)
    doc.update({"elements": elements_doc(A, elements), "report": payload})
    return doc


def bad_primes_doc(A: IntegralAlgebra, elements, report: BadPrimesReport) -> dict:
    return _integral_report_doc("bad-primes", A, elements, _support_payload(report))


def _global_payload(report: GlobalGenerationReport) -> dict:
    return {
        "generates": report.generates,
        "subgroup": [_int_vector_doc(row) for row in report.subgroup.rows],
        "support": _support_payload(report.support),
    }


def _parse_global_payload(doc, ambient: int) -> GlobalGenerationReport:
    """The subgroup and support; `generates` derives from the subgroup, and
    the canonical re-emission in verify_certificate rejects an edited flag."""
    doc = _expect_dict(doc, "verification report")
    rows = [
        _parse_int_vector(row, "subgroup row", ambient)
        for row in _expect_list(doc.get("subgroup"), "subgroup")
    ]
    return GlobalGenerationReport(
        subgroup=lattice_from_vectors(rows, ambient),
        support=_parse_support_payload(doc.get("support")),
    )


def global_generation_doc(A: IntegralAlgebra, elements, report: GlobalGenerationReport) -> dict:
    return _integral_report_doc("global-generation", A, elements, _global_payload(report))


def local_report_doc(report) -> dict:
    """Summary of a local n-generation check (used when lifting fails)."""
    return {
        "status": report.status,
        "n": int_str(report.n),
        "prime": _opt_int_str(report.prime),
        "witness": None
        if report.witness is None
        else [_int_vector_doc(v) for v in report.witness],
        "support": None if report.support is None else _support_payload(report.support),
        "completions": [
            [int_str(p), res.status, int_str(res.tested)]
            for p, res in report.completions
        ],
    }


def _region_doc(region: ConstructibleSet) -> dict:
    return {"cofinite": region.cofinite, "primes": sorted(int_str(p) for p in region.primes)}


def _parse_region(doc) -> ConstructibleSet:
    doc = _expect_dict(doc, "prime region")
    cofinite = doc.get("cofinite")
    if not isinstance(cofinite, bool):
        raise FormatError("cofinite must be a boolean")
    primes = _parse_int_vector(doc.get("primes"), "region primes")
    try:
        return ConstructibleSet(cofinite=cofinite, primes=frozenset(primes))
    except ValueError as bad:
        raise FormatError(str(bad)) from bad


def lift_certificate_doc(A: IntegralAlgebra, cert: LiftCertificate) -> dict:
    doc = _envelope("lift", A)
    steps = []
    for step in cert.steps:
        steps.append(
            {
                "element": _int_vector_doc(step.element),
                "completions": [
                    {
                        "prime": int_str(ps.prime),
                        "witness": _int_vector_doc(ps.witness),
                        # fiber coordinates, canonically the residues in [0, p)
                        "extension": [
                            [int_str(x % ps.prime) for x in v] for v in ps.extension
                        ],
                        "completed": [_int_vector_doc(v) for v in ps.completed],
                        "excluded": [int_str(p) for p in ps.excluded],
                    }
                    for ps in step.completions
                ],
                "partition": [
                    {
                        "region": _region_doc(cell.region),
                        "level": int_str(cell.level),
                        "witness": _int_vector_doc(cell.witness),
                    }
                    for cell in step.partition
                ],
            }
        )
    doc.update(
        {
            "n": int_str(cert.n),
            "factors": [int_str(d) for d in cert.factors],
            "generators": [_int_vector_doc(v) for v in cert.generators],
            "steps": steps,
            "verification": _global_payload(cert.verification),
        }
    )
    return doc


def parse_lift_certificate(doc) -> LiftCertificate:
    doc = _expect_dict(doc, "lift certificate")
    factors = _parse_int_vector(doc.get("factors"), "factors")
    steps = []
    for step_doc in _expect_list(doc.get("steps"), "steps"):
        step_doc = _expect_dict(step_doc, "step")
        completions = []
        for ps_doc in _expect_list(step_doc.get("completions"), "completions"):
            ps_doc = _expect_dict(ps_doc, "completion")
            completions.append(
                PrimeStep(
                    prime=parse_int(ps_doc.get("prime")),
                    witness=_parse_int_vector(ps_doc.get("witness"), "witness"),
                    extension=tuple(
                        _parse_int_vector(v, "extension element")
                        for v in _expect_list(ps_doc.get("extension"), "extension")
                    ),
                    completed=tuple(
                        _parse_int_vector(v, "completed element")
                        for v in _expect_list(ps_doc.get("completed"), "completed")
                    ),
                    excluded=_parse_int_vector(ps_doc.get("excluded"), "excluded"),
                )
            )
        cells = []
        for cell_doc in _expect_list(step_doc.get("partition"), "partition"):
            cell_doc = _expect_dict(cell_doc, "cell")
            try:
                cells.append(
                    PartitionCell(
                        region=_parse_region(cell_doc.get("region")),
                        level=parse_int(cell_doc.get("level")),
                        witness=_parse_int_vector(cell_doc.get("witness"), "witness"),
                    )
                )
            except ValueError as bad:
                raise FormatError(str(bad)) from bad
        steps.append(
            LiftStep(
                element=_parse_int_vector(step_doc.get("element"), "element"),
                completions=tuple(completions),
                partition=tuple(cells),
            )
        )
    return LiftCertificate(
        factors=factors,
        n=parse_int(doc.get("n")),
        generators=tuple(
            _parse_int_vector(v, "generator")
            for v in _expect_list(doc.get("generators"), "generators")
        ),
        steps=tuple(steps),
        verification=_parse_global_payload(doc.get("verification"), len(factors)),
    )


# ---------------------------------------------------------------------------
# Verification of presented certificates
# ---------------------------------------------------------------------------


def _parse_int_elements(doc: dict, rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        _parse_int_vector(v, "element", rank)
        for v in _expect_list(doc.get("elements"), "elements")
    )


def _require_kind(parsed: ParsedAlgebra, integral: bool, kind: str):
    if parsed.is_integral != integral:
        side = "a Z algebra" if integral else "a field algebra"
        raise FormatError(f"a {kind} certificate needs {side}")


def verify_certificate(parsed: ParsedAlgebra, doc) -> tuple[bool, str]:
    """Replay a certificate document against an algebra.

    Every mathematical claim is recomputed: generation certificates rerun the
    closure, mingen reports rerun the whole (deterministic, seeded) search
    under the recorded budget, bad-prime and global-generation reports are
    recomputed and compared field by field, and lift certificates go through
    the full step-by-step replay.  Factoring always uses the verifier's own
    trial-division bound.  Budgets above the MAX_VERIFY_* caps are refused
    as inconclusive.  Returns (ok, detail).
    """
    try:
        doc = _expect_dict(doc, "certificate document")
        if doc.get("format") != CERTIFICATE_FORMAT:
            raise FormatError(f"not a certificate document (format {doc.get('format')!r})")
        if doc.get("version") != CERTIFICATE_VERSION:
            raise FormatError(f"unsupported version {doc.get('version')!r}")
        kind = doc.get("kind")
        if doc.get("algebra_sha256") != algebra_hash(parsed.algebra):
            return False, "algebra hash mismatch"

        if kind == "generation":
            _require_kind(parsed, False, kind)
            cert = _parse_generation_payload(doc, parsed.algebra.field)
            if not replay_certificate(parsed.algebra, cert):
                return False, "closure replay does not match the certificate"
            if canonical_json(generation_certificate_doc(parsed.algebra, cert)) != canonical_json(doc):
                return False, "certificate document is not in canonical form"
            return True, "ok"

        if kind == "mingen":
            _require_kind(parsed, False, kind)
            if parsed.algebra.field.order is None:
                raise FormatError("a mingen certificate needs an algebra over a finite field")
            budget = parse_budget(doc.get("budget"))
            unital = doc.get("unital")
            if not isinstance(unital, bool):
                raise FormatError("unital flag must be a boolean")
            if budget.max_exhaustive > MAX_VERIFY_EXHAUSTIVE or budget.random_trials > MAX_VERIFY_TRIALS:
                return False, (
                    "inconclusive: too costly to verify (budget above "
                    f"max_exhaustive {MAX_VERIFY_EXHAUSTIVE}, random_trials {MAX_VERIFY_TRIALS})"
                )
            fresh = min_generators(parsed.algebra, budget, unital=unital)
            expected = mingen_report_doc(parsed.algebra, fresh, budget)
            if canonical_json(expected) != canonical_json(doc):
                return False, "rerunning the search does not reproduce the report"
            return True, "ok"

        if kind == "bad-primes":
            _require_kind(parsed, True, kind)
            elements = _parse_int_elements(doc, parsed.algebra.rank)
            fresh = bad_primes(parsed.algebra, elements)
            expected = bad_primes_doc(parsed.algebra, elements, fresh)
            if canonical_json(expected) != canonical_json(doc):
                return False, "recomputed bad primes do not match the report"
            return True, "ok"

        if kind == "global-generation":
            _require_kind(parsed, True, kind)
            elements = _parse_int_elements(doc, parsed.algebra.rank)
            fresh = verify_global_generation(parsed.algebra, elements)
            expected = global_generation_doc(parsed.algebra, elements, fresh)
            if canonical_json(expected) != canonical_json(doc):
                return False, "recomputed verification does not match the report"
            return True, "ok"

        if kind == "lift":
            _require_kind(parsed, True, kind)
            cert = parse_lift_certificate(doc)
            ok, detail = replay_lift(parsed.algebra, cert)
            if not ok:
                return False, detail
            if canonical_json(lift_certificate_doc(parsed.algebra, cert)) != canonical_json(doc):
                return False, "certificate document is not in canonical form"
            return True, "ok"

        raise FormatError(f"unknown certificate kind {kind!r}")
    except FormatError as bad:
        return False, f"malformed certificate: {bad}"
    except FactorizationIncomplete as stuck:
        return False, f"inconclusive: {stuck}"
