"""Output records and checks, one per job.

`record` turns a job's output (the files `cli.run` wrote, or the value
`quad_deformed_3d` returned) into a small JSON-able record.  `check` compares
it with the golden record of the same job, when there is one, and applies
the checks that hold for every seed.  It returns two lists of messages:

* errors: the output differs from the golden record, breaks a bound the
  acceptance suite pins, or is not finite.  Any error makes a run incorrect.
* defects: the Kelvin cross-check failed.  The generic detection path misses
  crossing points whose frequency puts them outside its +-6 search box, a
  known defect of the program; it fails the job without making the run
  incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import math

from workloads import Job

LOCATION_TOL = 1e-9
VALUE_RTOL = 1e-9


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record(job: Job, output) -> dict:
    """JSON-able summary of one job's output."""
    if job.mode == "quad3d":
        value, err = output
        return {"value": [value.real, value.imag], "err": float(err)}
    if job.mode == "classify":
        return {"points": [[r[3], r[5] == "True", *map(float, r[:3])]
                           for r in _rows(output[0])]}
    if job.mode in ("compare", "oracle"):
        # compare rows end in a runtime column, which is not an output value
        return {"rows": [[float(c) for c in r[:6]] for r in _rows(output[0])]}
    if job.mode == "field":
        files = {f.rsplit("-", 1)[-1]: f for f in output}
        mask = hashlib.sha256()
        values = []
        for r in _rows(files["field.csv"]):
            values.append(float(r[2]))
            mask.update(r[3].encode() + b"\n")
        return {"samples": len(values),
                "finite": all(math.isfinite(v) for v in values),
                "mask_sha256": mask.hexdigest(),
                "pgm_sha256": _sha256(files["field.pgm"])}
    if job.mode == "fronts":
        return {"pgm_sha256": [_sha256(f) for f in output]}
    raise ValueError(f"no record for mode {job.mode!r}")


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= VALUE_RTOL * abs(b)


def _same_values(rows, gold_rows, cols) -> bool:
    """Rows agree at lambda and at each (re, im) column pair in `cols`."""
    if len(rows) != len(gold_rows):
        return False
    return all(r[0] == g[0] and all(_close(complex(r[c], r[c + 1]),
                                           complex(g[c], g[c + 1]))
                                    for c in cols)
               for r, g in zip(rows, gold_rows))


def _missing_points(points, gold_points) -> list:
    """Golden points with no output point of the same kind, verdict and
    location; each output point matches at most one golden point."""
    left = list(points)
    missing = []
    for g in gold_points:
        for p in left:
            if p[:2] == g[:2] and all(abs(x - y) <= LOCATION_TOL * max(1.0, abs(y))
                                      for x, y in zip(p[2:], g[2:])):
                left.remove(p)
                break
        else:
            missing.append(g)
    return missing


def _kelvin_defects(job: Job, rec: dict, kelvin) -> list[str]:
    """The contributing points must number twice the closed-form terms,
    since each term stands for a +- conjugate pair of points."""
    if job.mode != "classify" or job.option("--problem") != "kelvin":
        return []
    found = sum(1 for p in rec["points"] if p[1])
    z1, z2, tau = (float(s) for s in job.option("--z").split(","))
    p = kelvin.KelvinParams(z1, z2, tau, 40.0)
    try:
        want = 2 * (len(kelvin.kelvin_wave_terms(p))
                    + (kelvin.transient_term(p) is not None))
    except (kelvin.MergeProximity, kelvin.DegenerateFamily) as e:
        return [f"kelvin cross-check: closed form undefined ({type(e).__name__})"]
    if found != want:
        return [f"kelvin cross-check: {found} contributing points, closed form predicts {want}"]
    return []


def _bound_errors(job: Job, rec: dict) -> list[str]:
    """Checks that hold for every seed."""
    errors = []
    if job.mode in ("compare", "oracle"):
        for r in rec["rows"]:
            if not all(math.isfinite(c) for c in r):
                errors.append(f"non-finite row at lambda={r[0]}")
    if job.mode == "compare":
        problem = job.option("--problem")
        for lam, are, aim, ore, oim, rel in rec["rows"]:
            a, o = complex(are, aim), complex(ore, oim)
            # acceptance 2 normalizes by the asymptotic value, acceptance 3
            # by the reference (the CLI's rel_error)
            if problem == "gaussian-sp" and abs(a - o) / abs(a) > 3 / lam:
                errors.append(f"gaussian-sp error above 3/lambda at lambda={lam}")
            if problem in ("pole-sp", "double-cross", "triple-cross") \
                    and lam == 40 and rel > 5 / 40:
                errors.append(f"{problem} rel_error {rel:.4g} above 5/40")
    if job.mode == "quad3d" and not all(map(math.isfinite, rec["value"])):
        errors.append("non-finite quadrature value")
    if job.mode == "field":
        if rec["samples"] != 300 * 200 or not rec["finite"]:
            errors.append("field CSV has a missing or non-finite sample")
    return errors


def _golden_errors(job: Job, rec: dict, gold: dict, defects: list[str]) -> list[str]:
    if job.mode == "classify":
        missing = _missing_points(rec["points"], gold["points"])
        extra = len(rec["points"]) - (len(gold["points"]) - len(missing))
        if missing:
            return [f"{len(missing)} golden point(s) missing or changed"]
        # a point set that grows is accepted only when it now satisfies
        # the Kelvin cross-check the golden record failed
        if extra and (defects or job.option("--problem") != "kelvin"):
            return [f"{extra} point(s) not in the golden record"]
        return []
    if job.mode == "compare":
        ok = _same_values(rec["rows"], gold["rows"], (1, 3))
    elif job.mode == "oracle":
        ok = _same_values(rec["rows"], gold["rows"], (1,))
    elif job.mode == "quad3d":
        ok = _close(complex(*rec["value"]), complex(*gold["value"]))
    else:
        ok = {k: rec[k] for k in gold} == gold
    return [] if ok else ["output differs from the golden record"]


def check(job: Job, rec: dict, golden: dict, kelvin) -> tuple[list[str], list[str]]:
    """(errors, defects) of one job's record; `golden` maps labels to records."""
    defects = _kelvin_defects(job, rec, kelvin)
    errors = _bound_errors(job, rec)
    if job.label in golden:
        errors += _golden_errors(job, rec, golden[job.label], defects)
    return errors, defects

