"""perfbench/tracing.py wraps algen functions by (module, attribute) name.

A binding that src drops fails only the benchmark's traced run, so this test
loads the tracing module from its file, as it is, and checks that every
binding it would wrap still resolves.
"""

import importlib
import importlib.util
import os

from algen.algebra import Multialgebra
from algen.fields import PrimeField, RationalField
from algen.linalg import RowReducer

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    assert tracing.SPAN_BINDINGS
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.SPAN_BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    # the methods Tracer.install wraps as counters
    methods = [(Multialgebra, "__init__"), (RowReducer, "insert")]
    for cls in (PrimeField, RationalField):
        methods += [(cls, a) for a in (*tracing.FIELD_BINARY, *tracing.FIELD_UNARY, "inv")]
    missing += [f"{cls.__name__}.{a}" for cls, a in methods if not callable(getattr(cls, a, None))]
    assert not missing, missing
