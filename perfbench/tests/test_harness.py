"""Tests of the benchmark harness itself (not of oscint3).

    python3 -m pytest perfbench/tests
"""

import json
import math

import numpy as np
import pytest

import bench_pass
import run
import spans
from workloads import Job

import oscint3
from oscint3 import core, kelvin

# name, start, end, parent: cli.run [0, 10] holds detect.detect_all [1, 4],
# which holds core.grad_hess [2, 3]; then detect.find_sp_interior [5, 9]
NESTED = [("cli.run", 0.0, 10.0, -1), ("detect.detect_all", 1.0, 4.0, 0),
          ("core.grad_hess", 2.0, 3.0, 1), ("detect.find_sp_interior", 5.0, 9.0, 0)]


def _arrays(rows):
    names = sorted({r[0] for r in rows})
    return names, {
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "start": np.array([r[1] for r in rows]),
        "end": np.array([r[2] for r in rows]),
        "parent": np.array([r[3] for r in rows], dtype=np.int64),
        "job": np.zeros(len(rows), dtype=np.int32),
        "work": np.zeros(len(rows), dtype=np.int64),
    }


def test_self_time_subtracts_direct_children_only():
    _, a = _arrays(NESTED)
    assert spans.self_times(a["start"], a["end"], a["parent"]).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_inclusive_time_counts_nested_spans_once():
    _, a = _arrays(NESTED)
    detect = np.array([False, True, False, True])
    assert spans.inclusive_time(a["start"], a["end"], detect) == 7.0
    outer_and_inner = np.array([True, False, True, False])
    assert spans.inclusive_time(a["start"], a["end"], outer_and_inner) == 10.0


def test_module_self_times_and_unattributed_add_up_to_wall():
    names, a = _arrays(NESTED)
    m = spans.layer_metrics(names, a, traced_wall=12.0)
    assert (m["cli.self_s"], m["detect.self_s"], m["core.self_s"]) == (3.0, 6.0, 1.0)
    assert m["unattributed_s"] == 2.0
    assert sum(m[f"{mod}.self_s"] for mod in spans.MODULES) + m["unattributed_s"] == 12.0
    assert m["detect.incl_s"] == 7.0 and m["cli.incl_s"] == 10.0


GOLDEN = json.loads(run.GOLDEN.read_text())["jobs"]


def test_failures_are_counted_and_only_errors_make_a_run_incorrect(tmp_path):
    raises = Job(("--mode", "compare", "--problem", "gaussian-sp", "--lambda", "20,40,80"))
    wrong = Job(quad3d=("pole-sp", 20.0, 6.0, 256))
    right = Job(quad3d=("cone", 30.0, 3.0, 256))
    # at (4, 1, 10) the closed form has one wave term and the transient, so
    # four contributing points; the output below has two
    missed = Job(("--mode", "classify", "--problem", "kelvin", "--z", "4.0,1.0,10.0"))
    csv = tmp_path / "classify.csv"
    csv.write_text("x1,x2,x3,kind,components,contributes,reason,w1,w2,w3\r\n"
                   + "1,1,1,sp-on-crossing,a+b,True,r,nan,nan,nan\r\n" * 2)

    def run_one(k, job):
        if job is raises:
            raise ZeroDivisionError("boom")
        if job is missed:
            return [str(csv)]
        value = complex(*GOLDEN[job.label]["value"])
        return (value * (1.01 if job is wrong else 1.0), 0.0)

    jobs = [raises, wrong, right, missed]
    wall, cpu, rss, outcomes = bench_pass.run_jobs(jobs, run_one)
    assert wall >= 0 and cpu >= 0 and rss > 0
    verdicts = bench_pass.check_jobs(jobs, outcomes, GOLDEN, kelvin)
    assert [bool(v["errors"]) for v in verdicts] == [True, True, False, False]
    assert "ZeroDivisionError" in verdicts[0]["errors"][0]
    assert verdicts[3]["defects"] == [
        "kelvin cross-check: 2 contributing points, closed form predicts 4"]
    assert run.tally(verdicts) == (4, 3, False)
    assert run.tally(verdicts[2:]) == (2, 1, True)


def _state():
    """Every attribute of the wrapped modules and classes, by identity."""
    owners = [getattr(oscint3, m) for m in spans.MODULES]
    owners += [core.ScalarField3, core.AmplitudeSpec]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_are_transparent_and_removed_without_trace():
    from oscint3 import detect, problems
    problem, _ = problems.get_problem("gaussian-sp")
    before = _state()
    plain = [(p.kind, p.contributes, p.location.tolist()) for p in detect.detect_all(problem)]
    tracer = spans.Tracer()
    tracer.install(oscint3)
    try:
        assert detect.detect_all is not before[(id(detect), "detect_all")]
        assert detect.detect_all.__name__ == "detect_all"
        traced = [(p.kind, p.contributes, p.location.tolist())
                  for p in detect.detect_all(problem)]
    finally:
        tracer.remove()
    assert traced == plain
    assert len(tracer.start) > 0 and "detect.detect_all" in tracer.names
    after = _state()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_kelvin_region_draws_stay_in_the_acceptance_region():
    from workloads import KELVIN_SLOPE, KELVIN_TAU, KELVIN_Z1, kelvin_points
    for seed in range(50):
        for z1, z2 in kelvin_points("detect-sweep", seed):
            assert KELVIN_Z1[0] <= z1 <= KELVIN_Z1[1]
            assert KELVIN_SLOPE[0] <= z2 / (KELVIN_TAU - z1) <= KELVIN_SLOPE[1] + 1e-12
    assert math.isclose(KELVIN_SLOPE[1], kelvin.WEDGE_SLOPE - 0.02)
    assert kelvin_points("oracle-check", 3) == kelvin_points("oracle-check", 3)
