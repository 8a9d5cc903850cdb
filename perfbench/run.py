"""Benchmark of oscint3, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Workloads are listed in `workloads.py` and explained in README.md.

--trace 0 measures set-up time (median of fresh interpreters that import
oscint3 and build every registry problem), then runs passes over the job
list, each in a fresh interpreter, until the next would end after S seconds
(at least one).  It reports the median wall time, CPU time and peak resident
memory of a pass.  --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics of the traced one.

Human-readable lines come first; the last line of standard output is the
JSON result.  Exits 2 without a result when the checkout holds no program,
and 1 when a pass cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"

SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import oscint3; "
    "from oscint3 import problems; "
    "[problems.get_problem(n) for n in problems.REGISTRY]"
)
# every child has to end by then, so that a run ends within 180 s
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that are not times: their units
LAYER_UNITS = {
    "calls": "count", "found": "count", "points": "count", "samples": "count",
    "bytes": "bytes", "nodes": "count-computed", "ns_per_node": "ns/node",
    "calls_per_problem": "calls/problem", "evals_per_point": "evals/point",
    "fail_ratio": "ratio",
}


class PassFailed(Exception):
    pass


def _remaining(t_start: float) -> float:
    return DEADLINE_S - (time.perf_counter() - t_start)


def time_setup(t_start: float) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                   stdin=subprocess.DEVNULL, timeout=_remaining(t_start))
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, timeout: float | None,
             spans: Path | None = None, golden: Path | None = GOLDEN) -> dict:
    """One pass in a fresh interpreter; traced when `spans` names a file."""
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "bench_pass.py"), "--src", str(SRC),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise PassFailed(f"pass did not end within {DEADLINE_S:.0f} s") from e
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(jobs) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over job verdicts.  A job with an error
    or a defect failed; only errors make the run incorrect."""
    failed = sum(1 for j in jobs if j["errors"] or j["defects"])
    return len(jobs), failed, not any(j["errors"] for j in jobs)


def storage_kind(path: Path) -> str:
    """'RAM' when `path` lives on tmpfs or ramfs, else 'disk'."""
    best, fstype = "", "?"
    with open("/proc/self/mountinfo") as fh:
        for ln in fh:
            left, right = ln.split(" - ")
            mount = left.split()[4]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, right.split()[0]
    return "RAM" if fstype in ("tmpfs", "ramfs") else f"disk ({fstype})"


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for ln in fh:
            if ln.startswith("model name"):
                return ln.split(":", 1)[1].strip()
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    t_start = time.perf_counter()

    if not (SRC / "oscint3" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'oscint3'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if a.trace:
            setups = []
            passes = [run_pass(a.workload, a.seed, _remaining(t_start)),
                      run_pass(a.workload, a.seed, _remaining(t_start),
                               spans=OUT / f"spans-{a.workload}.npz")]
        else:
            setups = [time_setup(t_start) for _ in range(SETUP_SAMPLES)]
            passes, took = [], []
            t_measure = time.perf_counter()
            # another pass only if it is expected to end within the run length
            while not passes or (time.perf_counter() - t_measure
                                 + statistics.median(took) <= a.seconds):
                t0 = time.perf_counter()
                passes.append(run_pass(a.workload, a.seed, _remaining(t_start)))
                took.append(time.perf_counter() - t0)
    except (PassFailed, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    jobs = [j for p in passes for j in p["jobs"]]
    attempted, failed, correct = tally(jobs)
    fail_ratio = failed / attempted

    if a.trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics["fail_ratio"] = fail_ratio
        units = {k: LAYER_UNITS.get(k.rsplit(".", 1)[-1], "s") for k in metrics}
        samples = {k: 1 for k in metrics}
    else:
        values = {"setup_s": setups,
                  **{k: [p[k] for p in passes] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
        metrics = {k: statistics.median(v) for k, v in values.items()}
        units = END_TO_END
        samples = {k: len(v) for k, v in values.items()}

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **passes[0]["environment"],
        "outputs_on": storage_kind(OUT),
        "samples": samples,
    }
    print(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                      "environment": env}))
    for j in jobs:
        for msg in j["errors"] + j["defects"]:
            print(f"FAILED {j['label']}: {msg}")
    print(f"fail_ratio = {fail_ratio:.4f} ratio ({failed}/{attempted} jobs)")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
