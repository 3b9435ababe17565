"""Spans and counters at algen's layer boundaries, installed from outside.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
module bindings such as ``algen.search.is_generating`` with wrappers that
record a span per call, under the name the caller uses.  Modules import
functions by name, so each importing module's binding is wrapped on its own
and the wrapper calls the original function, never another wrapper.

``RowReducer.insert`` and the field methods run millions of times per job,
too often for a span each.  They get counters instead; insert time is also
accumulated and taken out of the enclosing span's self time, so that it is
attributed to ``linalg`` rather than to the caller.

A span is ``[name, kind, layer, start, end, parent, job, hot, note]``:
``parent`` is the index of the enclosing span (-1 at the top), ``hot`` the
insert time spent inside it, and ``note`` an optional per-call observation
(did the closure fill the algebra, how many rows went into an HNF ...).
Spans stay in memory until ``uninstall``; metrics are computed from them
afterwards.
"""

from __future__ import annotations

import importlib
import itertools
import time

# (module, attribute, kind, layer).  kind groups spans into metrics; layer
# is the algen module whose code the span runs.
SPAN_BINDINGS = (
    ("algen.cli", "main", "cli", "cli"),
    ("algen.cli", "parse_algebra", "ioformat.parse", "ioformat"),
    ("algen.cli", "verify_certificate", "ioformat.verify", "ioformat"),
    ("algen.cli", "canonical_json", "ioformat.emit", "ioformat"),
    ("algen.cli", "generation_certificate_doc", "ioformat.emit", "ioformat"),
    ("algen.cli", "mingen_report_doc", "ioformat.emit", "ioformat"),
    ("algen.cli", "bad_primes_doc", "ioformat.emit", "ioformat"),
    ("algen.cli", "global_generation_doc", "ioformat.emit", "ioformat"),
    ("algen.cli", "lift_certificate_doc", "ioformat.emit", "ioformat"),
    ("algen.cli", "local_report_doc", "ioformat.emit", "ioformat"),
    ("algen.cli", "is_generating", "algebra.closure", "algebra"),
    ("algen.search", "is_generating", "algebra.closure", "algebra"),
    ("algen.forster", "is_generating", "algebra.closure", "algebra"),
    ("algen.integral", "is_generating", "algebra.closure", "algebra"),
    ("algen.ioformat", "replay_certificate", "algebra.closure", "algebra"),
    ("algen.cli", "min_generators", "search", "search"),
    ("algen.ioformat", "min_generators", "search", "search"),
    ("algen.forster", "completable", "search", "search"),
    ("algen.forster", "random_probe", "search", "search"),
    ("algen.integral", "lattice_from_vectors", "intmat.hnf", "intmat"),
    ("algen.ioformat", "lattice_from_vectors", "intmat.hnf", "intmat"),
    ("algen.integral", "snf", "intmat.snf", "intmat"),
    ("algen.integral", "factor", "intmat.factor", "intmat"),
    ("algen.forster", "crt", "intmat.crt", "intmat"),
    ("algen.integral", "monomial_subgroup", "integral.subgroup", "integral"),
    ("algen.cli", "bad_primes", "integral.support", "integral"),
    ("algen.forster", "bad_primes", "integral.support", "integral"),
    ("algen.ioformat", "bad_primes", "integral.support", "integral"),
    ("algen.cli", "verify_global_generation", "integral.global", "integral"),
    ("algen.forster", "verify_global_generation", "integral.global", "integral"),
    ("algen.ioformat", "verify_global_generation", "integral.global", "integral"),
    ("algen.forster", "fiber_mod_p", "integral.fiber", "integral"),
    ("algen.forster", "generic_fiber", "integral.fiber", "integral"),
    ("algen.integral", "fiber_mod_p", "integral.fiber", "integral"),
    ("algen.integral", "generic_fiber", "integral.fiber", "integral"),
    ("algen.forster", "local_requirement", "forster.local", "forster"),
    ("algen.cli", "forster_lift", "forster.lift", "forster"),
    ("algen.ioformat", "replay_lift", "forster.replay", "forster"),
    ("algen.zoo", "albert", "zoo.build", "zoo"),
    ("algen.zoo", "matrix_algebra", "zoo.build", "zoo"),
    ("algen.zoo", "split_octonion", "zoo.build", "zoo"),
    ("algen.zoo", "split_etale", "zoo.build", "zoo"),
    ("algen.zoo", "zero_algebra", "zoo.build", "zoo"),
    ("algen.zoo", "octonion_generators", "zoo.build", "zoo"),
    ("algen.zoo", "canonical_matrix_generators", "zoo.build", "zoo"),
    ("algen.integral", "integral_matrix_algebra", "zoo.build", "zoo"),
    ("algen.integral", "integral_split_etale", "zoo.build", "zoo"),
    ("algen.integral", "integral_zero_module", "zoo.build", "zoo"),
)

FIELD_BINARY = ("add", "sub", "mul", "div")
FIELD_UNARY = ("neg",)

# Kinds whose metric is inclusive time: only the outermost span of a nested
# chain of the same kind counts, so a zoo builder that calls another zoo
# builder is not counted twice.
INCLUSIVE_KINDS = (
    "algebra.construct",
    "intmat.hnf",
    "intmat.snf",
    "intmat.factor",
    "integral.fiber",
    "forster.local",
    "ioformat.parse",
    "ioformat.emit",
    "zoo.build",
)

LAYERS = ("cli", "ioformat", "algebra", "linalg", "search", "intmat", "integral", "forster", "zoo")


def _closure_note(name):
    if name == "algen.ioformat.replay_certificate":
        return lambda args, result: args[1].closure_dim == args[1].ambient_dim
    return lambda args, result: bool(result[0])


def _hnf_note(args, result):
    rows_in = len(args[0])
    bits = max((abs(x).bit_length() for row in result.rows for x in row), default=0)
    return rows_in, bits


def _fiber_note(name):
    if name.endswith("generic_fiber"):
        return lambda args, result: (id(args[0]), None)
    return lambda args, result: (id(args[0]), args[1])


def _count_value(counter) -> int:
    """Current value of an itertools.count without advancing it."""
    return int(repr(counter)[len("count("):-1])


class Tracer:
    """Spans and counters for one run; install() wraps algen, uninstall() restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.fp_ops = itertools.count()
        self.q_ops = itertools.count()
        self.inv_calls = itertools.count()
        # [calls, grew, seconds]
        self.insert = [0, 0, 0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module_name, attr, kind, layer in SPAN_BINDINGS:
            module = importlib.import_module(module_name)
            name = f"{module_name}.{attr}"
            note = None
            if kind == "algebra.closure":
                note = _closure_note(name)
            elif kind == "intmat.hnf":
                note = _hnf_note
            elif kind == "integral.fiber":
                note = _fiber_note(name)
            wrapped = self.wrap(getattr(module, attr), name, kind, layer, note)
            if kind == "intmat.hnf":
                wrapped = _listing_first_argument(wrapped)
            self._replace(module, attr, wrapped)

        from algen.algebra import Multialgebra
        from algen.fields import PrimeField, RationalField
        from algen.linalg import RowReducer

        init = Multialgebra.__init__
        self._replace(
            Multialgebra,
            "__init__",
            self.wrap(init, "algen.algebra.Multialgebra", "algebra.construct", "algebra", None),
        )
        self._replace(RowReducer, "insert", self._insert_wrapper(RowReducer.insert))
        for cls, counter in ((PrimeField, self.fp_ops), (RationalField, self.q_ops)):
            for attr in FIELD_BINARY:
                self._replace(cls, attr, _count_binary(getattr(cls, attr), counter.__next__))
            for attr in FIELD_UNARY:
                self._replace(cls, attr, _count_unary(getattr(cls, attr), counter.__next__))
            self._replace(cls, "inv", _count_unary(cls.inv, self.inv_calls.__next__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name, kind, layer, note=None):
        """fn with a span recorded around every call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, kind, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if note is not None:
                rec[8] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _insert_wrapper(self, insert):
        spans, stack, acc, clock = self.spans, self.stack, self.insert, time.perf_counter

        def counted_insert(reducer, v):
            start = clock()
            grew = insert(reducer, v)
            spent = clock() - start
            acc[0] += 1
            if grew:
                acc[1] += 1
            acc[2] += spent
            if stack:
                spans[stack[-1]][7] += spent
            return grew

        return counted_insert

    # -- reading -------------------------------------------------------------

    def counters(self) -> dict:
        return {
            "fields.ops.q": _count_value(self.q_ops),
            "fields.ops.fp": _count_value(self.fp_ops),
            "fields.inv": _count_value(self.inv_calls),
            "linalg.insert.calls": self.insert[0],
            "linalg.insert.grew": self.insert[1],
            "linalg.insert.s": self.insert[2],
        }


def _listing_first_argument(fn):
    """lattice_from_vectors accepts any iterable; make it a list so the
    number of input rows can be read after the call."""

    def listed(vectors, *args, **kwargs):
        return fn(list(vectors), *args, **kwargs)

    return listed


def _count_binary(method, tick):
    def counted(field, a, b):
        tick()
        return method(field, a, b)

    return counted


def _count_unary(method, tick):
    def counted(field, a):
        tick()
        return method(field, a)

    return counted


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus child spans and insert time spent inside it."""
    own = [rec[4] - rec[3] - rec[7] for rec in spans]
    for rec in spans:
        if rec[5] >= 0:
            own[rec[5]] -= rec[4] - rec[3]
    return own


def outermost(spans: list[list], i: int) -> bool:
    kind = spans[i][1]
    parent = spans[i][5]
    while parent >= 0:
        if spans[parent][1] == kind:
            return False
        parent = spans[parent][5]
    return True
