"""Which end-to-end metric each per-layer metric should move, and where.

Written down before any optimisation is measured, so that a later change
can be checked against the layer it claims to speed up.  Each entry is
(end-to-end metrics, workloads where the layer does most, workloads where
it does little or nothing).
"""

from __future__ import annotations

TARGETS = {
    "fields.ops.q": ("prove_p50_ms, verify_p50_ms", "generate-q, refute-q", "mingen-fp"),
    "fields.ops.fp": ("prove_p50_ms, verify_p50_ms", "mingen-fp", "generate-q"),
    "fields.inv": ("prove_p50_ms, verify_p50_ms", "generate-q, refute-q, mingen-fp", "lift-z verify"),
    "linalg": ("prove_p50_ms", "refute-q, mingen-fp", "lift-z verify"),
    "algebra.closure": ("prove_*, verify_*", "generate-q (full_frac 1), refute-q (full_frac 0)", "-"),
    "algebra.construct": ("setup_s, lift-z prove_p50_ms", "lift-z (fibers), set-up", "mingen-fp"),
    "search": ("prove_tail_ms, verify_tail_ms, jobs_per_s", "mingen-fp", "generate-q, refute-q (zero)"),
    "intmat": ("prove_p50_ms, verify_p50_ms", "lift-z", "all others (zero)"),
    "integral": ("prove_p50_ms (fiber calls vs distinct is waste)", "lift-z", "all others (zero)"),
    "forster.local": ("prove_*", "lift-z", "all others (zero)"),
    "forster.lift": ("prove_*", "lift-z", "all others (zero)"),
    "forster.replay": ("verify_*", "lift-z", "all others (zero)"),
    "forster.primes": ("prove_*", "lift-z", "all others (zero)"),
    "ioformat": ("verify_p50_ms", "lift-z (largest documents)", "mingen-fp"),
    "cli": ("prove_p50_ms on small jobs", "mingen-fp (Mat_2 jobs), lift-z (Mat_2)", "generate-q"),
    "zoo": ("setup_s", "generate-q, refute-q (Albert build)", "mingen-fp"),
    "trace": ("traced jobs_per_s against untraced jobs_per_s", "all", "-"),
}


def describe(metric: str) -> str:
    """The target line for a metric, found by its longest matching prefix."""
    parts = metric.split(".")
    for cut in range(len(parts), 0, -1):
        key = ".".join(parts[:cut])
        if key in TARGETS:
            e2e, most, least = TARGETS[key]
            return f"{e2e}; most on {most}; little on {least}"
    raise KeyError(f"no target recorded for {metric}")
