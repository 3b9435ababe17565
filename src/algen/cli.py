"""Command line front end.

Results are JSON on standard output with a one-line human summary on
standard error.  Exit codes are uniform across commands: 0 for a positive
result, 1 for a certified negative, 2 for an inconclusive search or an
exhausted budget, 3 for invalid input, 4 for an internal error.

`zoo` reads each family from one table, ZOO, which gives the builder of its
algebra and the builder of its canonical generators, or None; the
generators are built only for --emit generators, from the arguments and the
algebra already built.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import is_generating
from .fields import PrimeField, field_from_name
from .forster import HypothesisFailure, forster_lift
from .integral import (
    bad_primes,
    integral_matrix_algebra,
    integral_split_etale,
    integral_zero_module,
    verify_global_generation,
)
from .intmat import FactorizationIncomplete, decimal_str
from .ioformat import (
    FormatError,
    ParsedAlgebra,
    bad_primes_doc,
    canonical_json,
    elements_doc,
    generation_certificate_doc,
    global_generation_doc,
    lift_certificate_doc,
    local_report_doc,
    mingen_report_doc,
    parse_algebra,
    serialize_algebra,
    verify_certificate,
)
from .search import DEFAULT_BUDGET, BudgetExhausted, SearchBudget, min_generators
from .zoo import (
    albert,
    albert_generators,
    canonical_matrix_generators,
    distinct_entries_generator,
    etale_logq_generators,
    matrix_algebra,
    octonion_generators,
    quaternion_algebra,
    split_etale,
    split_octonion,
    zero_algebra,
)

def _emit(doc, summary: str) -> None:
    print(canonical_json(doc))
    print(summary, file=sys.stderr)


def _read_json_text(text: str):
    """Inline JSON, or @path to read the JSON from a file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            return json.load(handle)
    return json.loads(text)


def _load_algebra(path: str) -> ParsedAlgebra:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return parse_algebra(doc)


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(
        max_exhaustive=args.max_exhaustive,
        random_trials=args.trials,
        seed=args.seed,
        coeff_height=args.height,
    )


def _add_budget_flags(cmd) -> None:
    cmd.add_argument(
        "--max-exhaustive",
        type=int,
        default=DEFAULT_BUDGET.max_exhaustive,
        help="largest tuple space enumerated exhaustively",
    )
    cmd.add_argument(
        "--trials",
        type=int,
        default=DEFAULT_BUDGET.random_trials,
        help="random trials after exhaustion is ruled out",
    )
    cmd.add_argument("--seed", type=int, default=DEFAULT_BUDGET.seed, help="search seed")
    cmd.add_argument(
        "--height",
        type=int,
        default=DEFAULT_BUDGET.coeff_height,
        help="coefficient height for random elements over Q",
    )


def _parse_factors(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _field(args):
    return field_from_name(args.field)


def _etale_generators(args, alg):
    field = alg.field
    if isinstance(field, PrimeField):
        return tuple(etale_logq_generators(field.p, args.n, unital=args.unital))
    # over Q only the non-unital variant has recorded generators
    return None if args.unital else (distinct_entries_generator(field, args.n),)


# family -> (algebra builder, canonical generators builder or None); a
# generators builder takes the arguments and the built algebra, and returns
# None for a variant that has none recorded
ZOO = {
    "matrix": (
        lambda a: matrix_algebra(_field(a), a.n),
        lambda a, alg: canonical_matrix_generators(alg.field, a.n),
    ),
    "zero": (lambda a: zero_algebra(_field(a), a.r), None),
    "split-etale": (lambda a: split_etale(_field(a), a.n), _etale_generators),
    "quaternion": (lambda a: quaternion_algebra(_field(a)), None),
    "octonion": (lambda a: split_octonion(_field(a)), lambda a, alg: octonion_generators(alg.field)),
    "albert": (lambda a: albert(_field(a)), lambda a, alg: albert_generators(alg)),
    "matrix-z": (lambda a: integral_matrix_algebra(a.n), None),
    "split-etale-z": (lambda a: integral_split_etale(a.n), None),
    "zero-z": (lambda a: integral_zero_module(_parse_factors(a.factors)), None),
}


def _cmd_zoo(args) -> int:
    build, generators = ZOO[args.family]
    alg = build(args)
    if args.emit == "algebra":
        dim = alg.rank if hasattr(alg, "rank") else alg.dim
        _emit(serialize_algebra(alg), f"{args.family}: dimension {dim}")
        return 0
    gens = generators(args, alg) if generators else None
    if gens is None:
        raise FormatError(f"no canonical generators recorded for {args.family!r}")
    _emit(elements_doc(alg, gens), f"{args.family}: {len(gens)} canonical generators")
    return 0


def _cmd_check(args) -> int:
    parsed = _load_algebra(args.algebra)
    elements = parsed.parse_elements(_read_json_text(args.tuple))
    if parsed.is_integral:
        if args.unital:
            raise FormatError(
                "the unital flag applies to field algebras; over Z every "
                "designated constant is already included"
            )
        report = verify_global_generation(parsed.algebra, elements)
        doc = global_generation_doc(parsed.algebra, elements, report)
        verdict = "generate" if report.generates else "do not generate"
        _emit(doc, f"the {len(elements)} elements {verdict} the algebra over Z")
        return 0 if report.generates else 1
    ok, cert = is_generating(parsed.algebra, elements, unital=args.unital)
    doc = generation_certificate_doc(parsed.algebra, cert)
    _emit(
        doc,
        f"closure dimension {cert.closure_dim} of {cert.ambient_dim}: "
        + ("generates" if ok else "does not generate"),
    )
    return 0 if ok else 1


def _cmd_mingen(args) -> int:
    parsed = _load_algebra(args.algebra)
    if parsed.is_integral:
        raise FormatError("mingen expects a field algebra")
    budget = _budget_from_args(args)
    report = min_generators(parsed.algebra, budget, unital=args.unital)
    doc = mingen_report_doc(parsed.algebra, report, budget)
    if report.n_upper is None:
        _emit(doc, "no generating tuple found within the budget")
        return 2
    if not report.lower_bound_certified:
        _emit(doc, f"{report.n_upper} generators suffice; minimality not certified")
        return 2
    _emit(doc, f"minimal generator count {report.n_upper} (certified)")
    return 0


def _cmd_bad_primes(args) -> int:
    parsed = _load_algebra(args.algebra)
    if not parsed.is_integral:
        raise FormatError("bad-primes expects a Z algebra")
    elements = parsed.parse_elements(_read_json_text(args.tuple))
    report = bad_primes(parsed.algebra, elements)
    doc = bad_primes_doc(parsed.algebra, elements, report)
    if report.generic_fail:
        _emit(doc, "generic failure: the tuple misses a free direction")
        return 1
    shown = ", ".join(str(p) for p in report.primes) if report.primes else "none"
    _emit(doc, f"bad primes: {shown} (quotient exponent {report.exponent})")
    return 0


def _cmd_forster_lift(args) -> int:
    parsed = _load_algebra(args.algebra)
    if not parsed.is_integral:
        raise FormatError("forster-lift expects a Z algebra")
    if args.n < 0:
        raise FormatError("--n must be nonnegative")
    budget = _budget_from_args(args)
    try:
        cert = forster_lift(parsed.algebra, args.n, budget)
    except HypothesisFailure as failure:
        doc = {"error": "hypothesis-failure", "report": local_report_doc(failure.report)}
        _emit(doc, str(failure))
        return 1
    doc = lift_certificate_doc(parsed.algebra, cert)
    _emit(doc, f"lifted to {len(cert.generators)} global generators; verified")
    return 0


def _cmd_verify_cert(args) -> int:
    parsed = _load_algebra(args.algebra)
    with open(args.certificate, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    ok, detail = verify_certificate(parsed, doc)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    _emit({"ok": ok, "kind": kind, "detail": detail}, detail)
    if ok:
        return 0
    return 2 if detail.startswith("inconclusive") else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing reads it
    and never changes it, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="algen",
        description="Exact generator computations for structure-constant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="emit a stock algebra (or its canonical generators)")
    zoo.add_argument("family", choices=ZOO)
    zoo.add_argument("--field", default="Q", help="Q or F<p> (field families)")
    zoo.add_argument("--n", type=int, default=2, help="size parameter")
    zoo.add_argument("--r", type=int, default=2, help="dimension for the zero family")
    zoo.add_argument("--factors", default="", help="invariant factors for zero-z, e.g. 6,0")
    zoo.add_argument("--unital", action="store_true", help="unital generator variant")
    zoo.add_argument("--emit", choices=("algebra", "generators"), default="algebra")
    zoo.set_defaults(handler=_cmd_zoo)

    check = sub.add_parser("check", help="does a tuple generate the algebra?")
    check.add_argument("algebra")
    check.add_argument("--tuple", required=True, help="JSON list of vectors, or @file")
    check.add_argument("--unital", action="store_true")
    check.set_defaults(handler=_cmd_check)

    mingen = sub.add_parser("mingen", help="minimal generator count by certified search")
    mingen.add_argument("algebra")
    mingen.add_argument("--unital", action="store_true")
    _add_budget_flags(mingen)
    mingen.set_defaults(handler=_cmd_mingen)

    bad = sub.add_parser("bad-primes", help="primes where a tuple fails to generate")
    bad.add_argument("algebra")
    bad.add_argument("--tuple", required=True, help="JSON list of vectors, or @file")
    bad.set_defaults(handler=_cmd_bad_primes)

    lift = sub.add_parser(
        "forster-lift", help="produce n+1 global generators from n-generated fibers"
    )
    lift.add_argument("algebra")
    lift.add_argument("--n", type=int, required=True)
    _add_budget_flags(lift)
    lift.set_defaults(handler=_cmd_forster_lift)

    verify = sub.add_parser("verify-cert", help="replay a certificate against an algebra")
    verify.add_argument("algebra")
    verify.add_argument("certificate")
    verify.set_defaults(handler=_cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as done:
        # argparse exits 2 on usage errors; 2 means inconclusive here, so
        # remap bad invocations to the invalid-input code
        return 0 if not done.code else 3
    try:
        return args.handler(args)
    except FactorizationIncomplete as stuck:
        doc = {
            "error": "factorization-incomplete",
            "n": decimal_str(stuck.n),
            "primes": [decimal_str(p) for p in stuck.primes],
            "cofactor": decimal_str(stuck.cofactor),
        }
        _emit(doc, f"factorization incomplete: {stuck}")
        return 2
    except BudgetExhausted as stuck:
        _emit({"error": "budget-exhausted", "detail": str(stuck)}, str(stuck))
        return 2
    except (FormatError, json.JSONDecodeError, OSError, ValueError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 3
    except Exception as crash:
        # an uncaught crash would exit 1, which reads as a certified negative;
        # traceback is imported here so that no command pays for it at start
        import traceback

        traceback.print_exc()
        _emit({"error": "internal", "detail": repr(crash)}, f"internal error: {crash!r}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
