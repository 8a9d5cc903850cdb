"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/bench_pass.py --src SRC --workload NAME --seed N --out DIR
                                    [--golden FILE] [--spans FILE]

Imports oscint3 from SRC, runs the jobs one after another (a closed loop with
one client), then checks every output.  Wall time, CPU time and peak resident
memory cover the job loop only.  With --spans the loop runs with span
wrappers installed, which are removed before the checks; the spans are
written to FILE.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
from workloads import Job, jobs_for


def execute(job: Job, out_prefix: str, cli, oracle, problems):
    """Run one job through the public entry points; returns its output."""
    if job.quad3d is not None:
        name, lam, R, n = job.quad3d
        problem, _ = problems.get_problem(name)
        return oracle.quad_deformed_3d(problem, lam, oracle.QuadratureSpec(R=R, n=n))
    args = [*job.cli, "--out", out_prefix]
    overrides = {k[2:]: v for k, v in zip(args[::2], args[1::2])}
    return cli.run(cli.parse_config("", overrides))


def run_jobs(jobs, run_one, tracer=None):
    """Run `jobs` in order; returns (wall_s, cpu_s, peak_rss_mb, outcomes),
    where each outcome is the job's output or the exception it raised."""
    outcomes = []
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = k
        try:
            outcomes.append(run_one(k, job))
        except Exception as e:  # a failing job is counted, the pass goes on
            outcomes.append(e)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return wall, cpu, r1.ru_maxrss / 1024.0, outcomes


def check_jobs(jobs, outcomes, golden, kelvin):
    """Per-job verdicts: label, record, errors and defects."""
    results = []
    for job, out in zip(jobs, outcomes):
        res = {"label": job.label, "record": None, "errors": [], "defects": []}
        if isinstance(out, BaseException):
            res["errors"] = ["raised " + "".join(
                traceback.format_exception_only(type(out), out)).strip()]
        else:
            try:
                res["record"] = checks.record(job, out)
                res["errors"], res["defects"] = checks.check(
                    job, res["record"], golden, kelvin)
            except Exception as e:  # unreadable output fails the job
                res["errors"] = [f"output check raised {type(e).__name__}: {e}"]
        results.append(res)
    return results


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--golden")
    ap.add_argument("--spans")
    a = ap.parse_args(argv)

    src = Path(a.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import oscint3
    from oscint3 import cli, kelvin, oracle, problems
    if src not in Path(oscint3.__file__).resolve().parents:
        print(f"oscint3 imported from {oscint3.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    jobs = jobs_for(a.workload, a.seed)
    golden = {}
    if a.golden:
        with open(a.golden) as fh:
            golden = json.load(fh)["jobs"]
    os.makedirs(a.out, exist_ok=True)

    def run_one(k, job):
        return execute(job, os.path.join(a.out, f"job{k:02d}"), cli, oracle, problems)

    tracer = spans.Tracer() if a.spans else None
    if tracer is not None:
        tracer.install(oscint3)
    try:
        wall, cpu, rss, outcomes = run_jobs(jobs, run_one, tracer)
    finally:
        if tracer is not None:
            tracer.remove()

    result = {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        "jobs": check_jobs(jobs, outcomes, golden, kelvin),
        "environment": environment(np, scipy),
    }
    if tracer is not None:
        tracer.save(a.spans)
        result["layers"] = spans.layer_metrics(tracer.names, tracer.arrays(), wall)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
