"""The benchmark's own checks, run with ``python3 perfbench/run.py --selftest``.

1. A planted wrong expectation is counted as exactly one failed job.
2. The same seed gives the same inputs; another seed gives other inputs
   with the same known answers.
3. Two traced runs with the same seed give identical counts, and the trace
   accounting holds in both.
"""

from __future__ import annotations

import contextlib
import io
import os

import run
import workloads

SEED, OTHER_SEED = 1, 2

# Per-layer metrics that count work; they must repeat exactly.
COUNT_UNITS = ("count", "bytes", "bits")


def _inputs(jobs) -> list:
    """Everything the program receives: argv and the algebra documents."""
    out = []
    for job in jobs:
        with open(job.algebra, "rb") as handle:
            out.append((tuple(job.argv[2:]), handle.read()))
    return sorted(out)


def _answers(jobs) -> list:
    return sorted((job.label, job.answer) for job in jobs)


def check_planted(workdir: str) -> str | None:
    jobs = [j for j in run.build_jobs("mingen-fp", SEED, workdir) if j.label.startswith("mat2-")]
    expected = jobs[0].answer[1]
    jobs[0].check = workloads._minimum(expected + 1)
    done = run.run_cycle(jobs, os.path.join(workdir, "cert.json"), [])
    failed = [job for job, res in done if not res.ok]
    if failed != [jobs[0]]:
        return f"planted wrong minimum: {len(failed)} of {len(done)} jobs failed, expected 1"
    return None


def check_seeds(workload: str, workdir: str) -> str | None:
    first = run.build_jobs(workload, SEED, workdir)
    first_inputs = _inputs(first)
    again = run.build_jobs(workload, SEED, workdir)
    if _inputs(again) != first_inputs:
        return "the same seed gave different inputs"
    other = run.build_jobs(workload, OTHER_SEED, workdir)
    if _inputs(other) == first_inputs:
        return "another seed gave the same inputs"
    if _answers(other) != _answers(first):
        return "another seed changed the known answers"
    return None


def check_determinism(workload: str, workdir: str) -> str | None:
    runs = []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            correct, _, failed, metrics = run.trace(workload, SEED, 0.0, workdir)
        if not correct:
            return f"traced run not correct ({failed} failed jobs or accounting outside tolerance)"
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS})
    differ = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
    if differ:
        return "counts differ between two traced runs: " + ", ".join(
            f"{k} {runs[0][k]} vs {runs[1][k]}" for k in differ
        )
    return None


def main(workdir: str) -> int:
    checks = [("planted wrong expectation", lambda: check_planted(workdir))]
    for workload in workloads.WORKLOADS:
        checks.append((f"{workload}: seeds", lambda w=workload: check_seeds(w, workdir)))
        checks.append((f"{workload}: traced counts repeat", lambda w=workload: check_determinism(w, workdir)))
    failures = 0
    for name, check in checks:
        problem = check()
        failures += problem is not None
        print(f"{'FAIL' if problem else 'PASS'} {name}" + (f": {problem}" if problem else ""), flush=True)
    print(f"selftest: {len(checks) - failures} of {len(checks)} checks passed")
    return 1 if failures else 0
