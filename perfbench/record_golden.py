"""Write golden.json: the output record of every job at the default seed.

    python3 perfbench/record_golden.py

Run it from the root of a checkout at the commit whose outputs the benchmark
should hold later commits to.  Job checks that need no golden record (bounds,
the Kelvin cross-check) still run and are reported.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, run_pass
from workloads import DEFAULT_SEED, WORKLOADS, kelvin_points


def main() -> int:
    jobs = {}
    for workload in WORKLOADS:
        result = run_pass(workload, DEFAULT_SEED, timeout=None, golden=None)
        for j in result["jobs"]:
            if j["errors"]:
                print(f"{j['label']}: {j['errors']}", file=sys.stderr)
                return 1
            for msg in j["defects"]:
                print(f"recorded with a known defect: {j['label']}: {msg}")
            jobs[j["label"]] = j["record"]
    draw = {w: kelvin_points(w, DEFAULT_SEED) for w in ("detect-sweep", "oracle-check")}
    with open(GOLDEN, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "kelvin_points": draw, "jobs": jobs},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN} with {len(jobs)} job records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
