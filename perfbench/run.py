"""algen benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload generate-q --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Each job calls ``algen.cli.main(argv)`` in this process with standard
output captured: first the proving command (check, mingen, forster-lift or
bad-primes), then ``verify-cert`` on the document it printed.  Every verdict
is compared with an answer known by construction (see workloads.py).  The
next job starts when the previous one has finished.

--trace 0 measures the end-to-end metrics, with every job's times scaled to
the reference host's speed (see hostspeed.py).  --trace 1 wraps algen's
layer boundaries (see tracing.py) and reports per-layer metrics per cycle
of the job mix instead.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics; the lines before
it say the same for a reader, with the raw wall times next to the scaled
ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
# No run measures for longer than this, so it ends within three minutes
# even on a host many times slower than the reference.
HARD_LIMIT_S = 150.0
# The layers' self times must explain the traced job wall time to within
# this share; the rest is the benchmark's own bookkeeping between calls.
ACCOUNTING_TOLERANCE = 0.05

# Tail percentile per workload: the highest round percentile with at least
# ten jobs beyond it at the job count a run reaches on the reference host.
# Fixed, so that two commits compare the same percentile; a run that has
# fewer than ten jobs beyond it keeps going until it has.
TAIL_PERCENTILE = {"generate-q": 90, "refute-q": 90, "mingen-fp": 90, "lift-z": 90}

END_TO_END_UNITS = {
    "prove_p50_ms": "ms",
    "prove_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "verify_tail_ms": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_algen() -> None:
    """Import algen from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "algen", "cli.py")):
        _fail(f"no algen sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        import algen.cli
    except ImportError as missing:
        _fail(f"cannot import algen: {missing}")
    if not os.path.abspath(algen.cli.__file__).startswith(SRC + os.sep):
        _fail(f"algen was imported from {algen.cli.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


class JobResult:
    __slots__ = ("ok", "complaint", "prove_s", "verify_s", "wall_s", "doc_bytes")

    def __init__(self):
        self.ok = False
        self.complaint = None
        self.prove_s = None
        self.verify_s = None
        self.wall_s = 0.0
        self.doc_bytes = 0


def _call_cli(argv):
    import algen.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = algen.cli.main(argv)
        spent = time.perf_counter() - start
    return rc, out.getvalue(), spent


def run_job(job, cert_path: str) -> JobResult:
    """Prove, check the verdict, then replay the certificate.  Never raises."""
    res = JobResult()
    start = time.perf_counter()
    try:
        rc, text, res.prove_s = _call_cli(job.argv)
        res.doc_bytes = len(text.encode("utf-8"))
        res.complaint = job.check(rc, json.loads(text))
        if res.complaint is None and job.verify:
            with open(cert_path, "w", encoding="utf-8") as handle:
                handle.write(text)
            rc, text, res.verify_s = _call_cli(["verify-cert", job.algebra, cert_path])
            if rc != 0 or json.loads(text).get("ok") is not True:
                res.complaint = f"certificate rejected: {text.strip()[:200]}"
    except Exception as crash:  # a job must not stop the run; it counts as failed
        res.complaint = f"{type(crash).__name__}: {crash}"
    res.ok = res.complaint is None
    res.wall_s = time.perf_counter() - start
    return res


def build_jobs(workload: str, seed: int, workdir: str):
    import workloads

    rng = random.Random(f"{workload}:{seed}")
    return workloads.WORKLOADS[workload](rng, workdir)


def set_up(workload: str, seed: int, workdir: str):
    """Zoo construction, seeded inputs, documents, and one untimed warm-up job."""
    jobs = build_jobs(workload, seed, workdir)
    warm = run_job(jobs[0], os.path.join(workdir, "cert.json"))
    if not warm.ok:
        # the same job fails again in the timed part, where it is counted
        print(f"warm-up job {jobs[0].label} failed: {warm.complaint}")
    return jobs


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(count: int, q: float) -> int:
    """Samples strictly above the q-th percentile position."""
    return count - 1 - int((count - 1) * q / 100.0)


def run_cycle(jobs, cert, samples) -> list:
    """Run every job once, each followed by a host speed sample."""
    done = []
    for job in jobs:
        done.append((job, run_job(job, cert)))
        samples.append(hostspeed.sample())
    return done


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _fresh_import_seconds() -> float:
    """Time to import algen.cli in a new interpreter, as a user pays it."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
        "import algen.cli; print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, SRC], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def _timed_set_ups(workload: str, seed: int, workdir: str):
    """SETUP_REPEATS set-ups; returns the jobs and each set-up's (raw, scaled) seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed = [hostspeed.sample() for _ in range(3)]
        raw = _fresh_import_seconds()
        start = time.perf_counter()
        jobs = set_up(workload, seed, workdir)
        raw += time.perf_counter() - start
        speed += [hostspeed.sample() for _ in range(3)]
        times.append((raw, raw * hostspeed.REFERENCE_S / statistics.median(speed)))
    return jobs, times


def _timing_metrics(done, factors, tail_q):
    """End-to-end timings from (job, result) pairs, each scaled by its factor."""
    prove, verify, job_s = [], [], 0.0
    for (job, res), f in zip(done, factors):
        job_s += res.wall_s * f
        if res.ok:
            prove.append(res.prove_s * f)
            if res.verify_s is not None:
                verify.append(res.verify_s * f)
    passed = sum(res.ok for _, res in done)
    # with no passing job there is no time to report; the run is incorrect anyway
    return {
        "prove_p50_ms": 1000 * percentile(prove, 50) if prove else 0.0,
        "prove_tail_ms": 1000 * percentile(prove, tail_q) if prove else 0.0,
        "verify_p50_ms": 1000 * percentile(verify, 50) if verify else 0.0,
        "verify_tail_ms": 1000 * percentile(verify, tail_q) if verify else 0.0,
        "jobs_per_s": passed / job_s,
    }


def measure(workload: str, seed: int, seconds: float, workdir: str):
    jobs, setups = _timed_set_ups(workload, seed, workdir)
    cert = os.path.join(workdir, "cert.json")
    tail_q = TAIL_PERCENTILE[workload]

    samples = [hostspeed.sample() for _ in range(3)]
    done = []
    cycles = 0
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        done += run_cycle(jobs, cert, samples)
        cycles += 1
        now = time.perf_counter()
        elapsed, last_cycle = now - start, now - cycle_start
        passed = [res for _, res in done if res.ok]
        verified = [res for res in passed if res.verify_s is not None]
        # a failed job already makes the run incorrect; do not extend it
        enough = min(beyond(len(passed), tail_q), beyond(len(verified), tail_q)) >= 10
        enough = enough or len(passed) < len(done)
        if (enough and elapsed + last_cycle > seconds) or elapsed > HARD_LIMIT_S:
            break

    # samples[k + 2] precedes job k and samples[k + 3] follows it
    factors = hostspeed.scale_factors(samples[2:])
    metrics = _timing_metrics(done, factors, tail_q)
    raw = _timing_metrics(done, [1.0] * len(done), tail_q)
    metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["setup_s"] = statistics.median(r for r, _ in setups)
    raw["peak_rss_mb"] = metrics["peak_rss_mb"]

    complaints = [f"{job.label}: {res.complaint}" for job, res in done if not res.ok]
    failed, attempted = len(complaints), len(done)
    mix = {}
    for job in jobs:
        mix[job.label] = mix.get(job.label, 0) + 1
    print(f"workload {workload}  seed {seed}  closed loop, 1 client, single-threaded")
    print(f"job mix per cycle ({len(jobs)} jobs): " + ", ".join(f"{k} x{v}" for k, v in mix.items()))
    print(f"timed part: {cycles} cycles, {attempted} jobs in {elapsed:.2f} s")
    print(
        f"tail percentile p{tail_q}: {len(passed)} prove samples ({beyond(len(passed), tail_q)} beyond it), "
        f"{len(verified)} verify samples ({beyond(len(verified), tail_q)} beyond it)"
    )
    print(
        f"host speed: {statistics.median(factors):.3f} of the reference host's "
        f"(range {min(factors):.3f}-{max(factors):.3f}); set-ups "
        + ", ".join(f"{r:.3f}" for r, _ in setups)
        + " s raw, each a fresh import plus an in-process build"
    )
    print(f"  {'metric':<16} {'at reference speed':>18} {'raw wall time':>14}")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:18.4f} {raw[name]:14.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_frac':<16} {failed / attempted:18.4f} ratio  ({failed} of {attempted} jobs failed)")
    for line in complaints[:20]:
        print(f"FAILED {line}")
    result = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}
    return failed == 0, attempted, failed, result


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _run_pass(jobs, cert, tracer=None, pass_no=None):
    """One cycle over the jobs; returns (wall seconds, results)."""
    results = []
    run = run_job if tracer is None else tracer.wrap(run_job, "bench.job", "bench", "bench")
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (pass_no, index)
        results.append(run(job, cert))
    return time.perf_counter() - start, results


def trace(workload: str, seed: int, seconds: float, workdir: str):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        jobs = set_up(workload, seed, workdir)
        tracer.uninstall()
        cert = os.path.join(workdir, "cert.json")
        plain, traced, results, traced_results = [], [], [], []
        counters = {}
        start = time.perf_counter()
        pass_no = 0
        while not traced or time.perf_counter() - start < seconds:
            wall, res = _run_pass(jobs, cert)
            plain.append(wall)
            results += res
            before = tracer.counters()
            tracer.install()
            wall, res = _run_pass(jobs, cert, tracer, pass_no)
            tracer.uninstall()
            after = tracer.counters()
            for key in after:
                counters[key] = counters.get(key, 0) + after[key] - before[key]
            traced.append(wall)
            results += res
            traced_results += res
            pass_no += 1
    finally:
        tracer.uninstall()

    metrics, accounting = layer_metrics(tracer, counters, pass_no, traced_results)
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    complaints = [f"{jobs[i % len(jobs)].label}: {r.complaint}" for i, r in enumerate(results) if not r.ok]
    attempted = len(results)

    print(f"workload {workload}  seed {seed}  traced: {pass_no} traced and {pass_no} untraced cycles of {len(jobs)} jobs")
    accounted = accounting_check(accounting)
    print("per-layer metrics, per cycle of the job mix (target: end-to-end metric on workloads where the layer does most / least)")
    import targets

    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.4f} {unit:<6} -> {targets.describe(name)}")
    for line in complaints[:20]:
        print(f"FAILED {line}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return accounted and not complaints, attempted, len(complaints), result


def layer_metrics(tracer, counters, passes, traced_results):
    """Per-cycle layer metrics from the traced passes, and the accounting totals."""
    from tracing import INCLUSIVE_KINDS, LAYERS, outermost, self_times

    spans = tracer.spans
    own = self_times(spans)
    calls, self_ms, incl_ms = {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    wall = 0.0
    closure_full = closure_total = 0
    candidates = hits = 0
    hnf_rows = hnf_bits = 0
    fibers = set()
    primes = 0
    zoo_ms = 0.0
    for i, rec in enumerate(spans):
        name, kind, layer, t0, t1, parent, job = rec[:7]
        if job == "setup":
            if kind == "zoo.build" and outermost(spans, i):
                zoo_ms += 1000 * (t1 - t0)
            continue
        if not isinstance(job, tuple):
            continue
        calls[kind] = calls.get(kind, 0) + 1
        self_ms[kind] = self_ms.get(kind, 0.0) + 1000 * own[i]
        if kind in INCLUSIVE_KINDS and outermost(spans, i):
            incl_ms[kind] = incl_ms.get(kind, 0.0) + 1000 * (t1 - t0)
        layer_self[layer] += own[i]
        layer_self["linalg"] += rec[7]
        if kind == "bench":
            wall += t1 - t0
        elif kind == "algebra.closure":
            closure_total += 1
            closure_full += bool(rec[8])
            if name == "algen.search.is_generating":
                candidates += 1
                hits += bool(rec[8])
        elif kind == "intmat.hnf":
            hnf_rows += rec[8][0]
            hnf_bits = max(hnf_bits, rec[8][1])
        elif kind == "integral.fiber":
            command = parent
            while command >= 0 and spans[command][1] != "cli":
                command = spans[command][5]
            fibers.add((job[0], command, rec[8]))
        if name == "algen.forster.completable":
            primes += 1

    doc_bytes = sum(r.doc_bytes for r in traced_results) / passes
    per = 1.0 / passes
    inserts = counters["linalg.insert.calls"]

    def per_cycle(kind):
        return calls.get(kind, 0) * per

    m = {
        "fields.ops.q": (counters["fields.ops.q"] * per, "count"),
        "fields.ops.fp": (counters["fields.ops.fp"] * per, "count"),
        "fields.inv": (counters["fields.inv"] * per, "count"),
        "linalg.insert.calls": (inserts * per, "count"),
        "linalg.insert.grew_frac": (counters["linalg.insert.grew"] / inserts if inserts else 0.0, "ratio"),
        "linalg.insert.ms": (1000 * counters["linalg.insert.s"] * per, "ms"),
        "algebra.closure.calls": (per_cycle("algebra.closure"), "count"),
        "algebra.closure.self_ms": (self_ms.get("algebra.closure", 0.0) * per, "ms"),
        "algebra.closure.full_frac": (closure_full / closure_total if closure_total else 0.0, "ratio"),
        "algebra.construct.calls": (per_cycle("algebra.construct"), "count"),
        "algebra.construct.ms": (incl_ms.get("algebra.construct", 0.0) * per, "ms"),
        "search.candidates": (candidates * per, "count"),
        "search.hit_frac": (hits / candidates if candidates else 0.0, "ratio"),
        "search.self_ms": (self_ms.get("search", 0.0) * per, "ms"),
        "intmat.hnf.calls": (per_cycle("intmat.hnf"), "count"),
        "intmat.hnf.rows_in": (hnf_rows * per, "count"),
        "intmat.hnf.max_bits": (hnf_bits, "bits"),
        "intmat.hnf.ms": (incl_ms.get("intmat.hnf", 0.0) * per, "ms"),
        "intmat.snf.calls": (per_cycle("intmat.snf"), "count"),
        "intmat.snf.ms": (incl_ms.get("intmat.snf", 0.0) * per, "ms"),
        "intmat.factor.calls": (per_cycle("intmat.factor"), "count"),
        "intmat.factor.ms": (incl_ms.get("intmat.factor", 0.0) * per, "ms"),
        "intmat.crt.calls": (per_cycle("intmat.crt"), "count"),
        "integral.subgroup.calls": (per_cycle("integral.subgroup"), "count"),
        "integral.subgroup.self_ms": (self_ms.get("integral.subgroup", 0.0) * per, "ms"),
        "integral.fiber.calls": (per_cycle("integral.fiber"), "count"),
        "integral.fiber.distinct": (len(fibers) * per, "count"),
        "integral.fiber.ms": (incl_ms.get("integral.fiber", 0.0) * per, "ms"),
        "forster.local.ms": (incl_ms.get("forster.local", 0.0) * per, "ms"),
        "forster.lift.self_ms": (self_ms.get("forster.lift", 0.0) * per, "ms"),
        "forster.replay.self_ms": (self_ms.get("forster.replay", 0.0) * per, "ms"),
        "forster.primes": (primes * per, "count"),
        "ioformat.parse.ms": (incl_ms.get("ioformat.parse", 0.0) * per, "ms"),
        "ioformat.emit.ms": (incl_ms.get("ioformat.emit", 0.0) * per, "ms"),
        "ioformat.verify.self_ms": (self_ms.get("ioformat.verify", 0.0) * per, "ms"),
        "ioformat.doc_bytes": (doc_bytes, "bytes"),
        "cli.self_ms": (self_ms.get("cli", 0.0) * per, "ms"),
        "zoo.build.ms": (zoo_ms, "ms"),
    }
    return m, (layer_self, wall)


def accounting_check(accounting) -> bool:
    layer_self, wall = accounting
    attributed = sum(v for k, v in layer_self.items() if k != "bench")
    print(f"trace accounting: layer self times sum to {attributed:.3f} s of {wall:.3f} s traced job wall time")
    for layer, spent in layer_self.items():
        print(f"  {layer:<10} {1000 * spent:10.1f} ms  {spent / wall:7.2%}")
    share = layer_self["bench"] / wall
    ok = share <= ACCOUNTING_TOLERANCE and min(layer_self.values()) >= 0.0
    verdict = "ok" if ok else "FAILED"
    print(
        f"trace accounting {verdict}: unattributed (benchmark) share {share:.2%}, "
        f"tolerance {ACCOUNTING_TOLERANCE:.0%}"
    )
    return ok


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own checks")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    _import_algen()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.selftest:
            import selftest

            return selftest.main(workdir)
        if args.trace:
            correct, attempted, failed, metrics = trace(args.workload, args.seed, args.seconds, workdir)
        else:
            correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
