"""Job lists of the benchmark's workloads, generated from a seed.

A job is either a CLI invocation (the argument list `oscint3` would receive,
without `--out`) or a direct call of `oracle.quad_deformed_3d`.  The seed
draws only the Kelvin observation points; every other input is pinned here,
so that a change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Kelvin observation points come from the region the acceptance suite checks
# the closed form in: tau = 10, z1 in [2, 6], and a ray slope z2/(tau - z1)
# from 0.1 up to 0.02 short of the wedge slope 1/(2*sqrt(2)).
KELVIN_TAU = 10.0
KELVIN_Z1 = (2.0, 6.0)
KELVIN_SLOPE = (0.1, 1 / (2 * math.sqrt(2)) - 0.02)

PLANE_PROBLEMS = ("gaussian-sp", "pole-sp", "double-cross", "triple-cross")
WAKE_TAUS = (6, 8, 10, 12, 14, 16)
WAKE_GRID = ("--problem", "kelvin", "--lambda", "80", "--grid", "300x200",
             "--z1-range", "0:14", "--z2-range", "-5:5")


@dataclass(frozen=True)
class Job:
    """One unit of work.  `cli` holds the CLI arguments; `quad3d` holds
    (problem, Lambda, R, n) for a direct `oracle.quad_deformed_3d` call."""

    cli: tuple[str, ...] = ()
    quad3d: tuple | None = None

    @property
    def label(self) -> str:
        if self.quad3d is not None:
            name, lam, R, n = self.quad3d
            return f"quad_deformed_3d {name} lambda={lam!r} R={R!r} n={n}"
        return " ".join(self.cli)

    @property
    def mode(self) -> str:
        return "quad3d" if self.quad3d is not None else self.option("--mode")

    def option(self, key: str) -> str:
        return self.cli[self.cli.index(key) + 1]


def kelvin_points(workload: str, seed: int):
    """Two (z1, z2) points, each uniform in z1 and in ray slope.

    The second point mirrors the first through the centre of the region (an
    antithetic draw).  The residue oracle's node count grows with z1, and
    detection time varies with slope; a mirrored pair keeps the summed cost
    nearly the same for every seed, while each point still covers the whole
    region.
    """
    rng = random.Random(f"{workload}:{seed}")
    u, v = rng.random(), rng.random()
    pts = []
    for a, b in ((u, v), (1 - u, 1 - v)):
        z1 = KELVIN_Z1[0] + a * (KELVIN_Z1[1] - KELVIN_Z1[0])
        slope = KELVIN_SLOPE[0] + b * (KELVIN_SLOPE[1] - KELVIN_SLOPE[0])
        pts.append((z1, slope * (KELVIN_TAU - z1)))
    return pts


def _z(z1: float, z2: float) -> str:
    return f"{z1!r},{z2!r},{KELVIN_TAU!r}"


def detect_sweep(seed: int) -> list[Job]:
    jobs = [Job(("--mode", "compare", "--problem", p, "--lambda", "20,40,80"))
            for p in PLANE_PROBLEMS]
    jobs.append(Job(("--mode", "classify", "--problem", "cone")))
    jobs += [Job(("--mode", "classify", "--problem", "kelvin", "--z", _z(*p)))
             for p in kelvin_points("detect-sweep", seed)]
    return jobs


def oracle_check(seed: int) -> list[Job]:
    jobs = [Job(("--mode", "compare", "--problem", "kelvin", "--z", _z(*p),
                 "--lambda", "40", "--quad-r", "12", "--quad-n", "128"))
            for p in kelvin_points("oracle-check", seed)]
    jobs.append(Job(quad3d=("pole-sp", 20.0, 6.0, 256)))
    # the cone reference of acceptance 4 uses n = 384 (39 s); n = 256 agrees
    # with it to 3e-11 and keeps one pass within the run length
    jobs.append(Job(quad3d=("cone", 30.0, 3.0, 256)))
    return jobs


def wake_frames(seed: int) -> list[Job]:
    return [Job(("--mode", mode, *WAKE_GRID, "--tau", str(tau)))
            for tau in WAKE_TAUS for mode in ("field", "fronts")]


WORKLOADS = {
    "detect-sweep": detect_sweep,
    "oracle-check": oracle_check,
    "wake-frames": wake_frames,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)
