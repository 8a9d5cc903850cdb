"""Span tracing of oscint3 from outside the package.

`Tracer.install` replaces every public function of the seven modules (and the
field/amplitude evaluators the per-layer table names) with a wrapper that
records one span per call: name, start, end, parent span, job id and one
work count.  Every module global bound to a wrapped function is replaced, so
calls through `from .core import f` aliases are seen too.  `Tracer.remove`
puts every original object back.  Spans stay in flat arrays in memory until
`save` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from array import array

import numpy as np

MODULES = ("core", "detect", "asym", "oracle", "kelvin", "problems", "cli")

# methods wrapped besides the module-level functions: (class, method) -> span
METHODS = {
    ("ScalarField3", "grad"): "core.grad_hess",
    ("ScalarField3", "hess"): "core.grad_hess",
    ("AmplitudeSpec", "value_vec"): "core.value_vec",
}

FINDERS = ("find_sp_interior", "find_sp_on_surface", "find_sp_on_crossing",
           "find_triple_crossings", "find_conical_points")


def _points(xi) -> int:
    # math.prod: this runs on every grad/hess call, np.prod costs more
    return math.prod(np.shape(xi)[:-1])


def _nodes(spec) -> int:
    # quad_deformed_3d evaluates the n-node rule and the max(16, n-32) one
    return spec.n ** 3 + max(16, spec.n - 32) ** 3


# Work counted per span, from (args, kwargs, result).  Counts taken from the
# arguments describe the work asked for; `found` and `bytes` are outcomes.
# detect_all records which problem it ran on, for calls_per_problem.
WORK = {
    "core.grad_hess": lambda a, kw, r: _points(a[1]),
    "core.value_vec": lambda a, kw, r: _points(a[1]),
    "oracle.quad_deformed_3d": lambda a, kw, r: _nodes(a[2] if len(a) > 2 else kw["spec"]),
    "kelvin.field_map": lambda a, kw, r: len(a[0]) * len(a[1]),
    "cli.write_csv": lambda a, kw, r: os.path.getsize(a[0]),
    "cli.write_pgm": lambda a, kw, r: os.path.getsize(a[0]),
    "detect.detect_all": lambda a, kw, r: id(a[0]),
    **{f"detect.{f}": (lambda a, kw, r: len(r)) for f in FINDERS},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.work = array("q")
        self.job_id = -1
        self._open = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        work = WORK.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self._open
            self.name.append(nid)
            self.parent.append(parent)
            self.job.append(self.job_id)
            self.work.append(0)
            self.end.append(0.0)
            self._open = idx
            self.start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end[idx] = clock()
                self._open = parent
                if work is not None:
                    try:
                        self.work[idx] = work(args, kwargs, result)
                    except (TypeError, KeyError, IndexError, OSError):
                        pass   # the call raised; its span keeps work 0

        return traced

    # -- installing and removing wrappers ----------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of `package`'s modules in place."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrapped: dict[int, object] = {}
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{m}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._replace(mod, attr, wrapped[id(obj)])
        for (cls_name, meth), span in METHODS.items():
            cls = getattr(mods["core"], cls_name)
            self._replace(cls, meth, self.wrap(span, vars(cls)[meth]))

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another; their summed durations are the covered time.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def inclusive_time(start, end, members) -> float:
    """Time covered by the spans selected by the boolean mask `members`:
    the union of their intervals, so nested spans are counted once."""
    s = np.asarray(start)[members]
    e = np.asarray(end)[members]
    if not len(s):
        return 0.0
    reach = np.maximum.accumulate(e)
    outer = np.ones(len(s), dtype=bool)
    outer[1:] = s[1:] >= reach[:-1]
    return float(np.sum(e[outer] - s[outer]))


def _under(parent, marked) -> np.ndarray:
    """Which spans have an ancestor among the `marked` spans."""
    parent = np.asarray(parent)
    has = parent >= 0
    under = np.zeros(len(parent), dtype=bool)
    while True:
        nxt = np.zeros_like(under)
        nxt[has] = marked[parent[has]] | under[parent[has]]
        if np.array_equal(nxt, under):
            return under
        under = nxt


def layer_metrics(names, arrays, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed `<module>.<function>.<stat>`."""
    name, start, end = arrays["name"], arrays["start"], arrays["end"]
    parent, job, work = arrays["parent"], arrays["job"], arrays["work"]
    selft = self_times(start, end, parent)
    ids = {n: i for i, n in enumerate(names)}
    module_of = np.array([MODULES.index(n.split(".", 1)[0]) for n in names],
                         dtype=np.int32)[name]

    def sel(span):
        return name == ids.get(span, -1)

    def calls(span):
        return int(np.count_nonzero(sel(span)))

    def self_s(span):
        return float(np.sum(selft[sel(span)]))

    def total_work(span):
        return int(np.sum(work[sel(span)]))

    out: dict[str, float] = {}
    for f in FINDERS:
        span = f"detect.{f}"
        out[f"{span}.self_s"] = self_s(span)
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.found"] = total_work(span)
    out["detect.contribution_verdict.self_s"] = self_s("detect.contribution_verdict")
    da = sel("detect.detect_all")
    out["detect.detect_all.calls"] = int(np.count_nonzero(da))
    # a problem is one ProblemSpec object within one job
    problems_seen = len(set(zip(job[da].tolist(), work[da].tolist())))
    out["detect.detect_all.calls_per_problem"] = (
        out["detect.detect_all.calls"] / problems_seen if problems_seen else 0.0)
    # grad/hess points evaluated below a detect span, per point found
    under_detect = _under(parent, module_of == MODULES.index("detect"))
    found = sum(out[f"detect.{f}.found"] for f in FINDERS)
    gh = sel("core.grad_hess")
    out["detect.evals_per_point"] = (
        float(np.sum(work[gh & under_detect])) / found if found else 0.0)

    for span in ("core.grad_hess", "core.value_vec"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.points"] = total_work(span)
        out[f"{span}.self_s"] = self_s(span)

    for span in ("oracle.kelvin_oracle", "oracle.quad_contour_1d",
                 "oracle.quad_deformed_3d", "asym.sum_asymptotics",
                 "asym.term_for_point", "kelvin.field_point",
                 "problems.get_problem"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = self_s(span)
    # per node: the rule's whole cost, integrand evaluation included
    q3d = sel("oracle.quad_deformed_3d")
    nodes = total_work("oracle.quad_deformed_3d")
    out["oracle.quad_deformed_3d.nodes"] = nodes
    out["oracle.quad_deformed_3d.ns_per_node"] = (
        1e9 * float(np.sum(end[q3d] - start[q3d])) / nodes if nodes else 0.0)

    out["kelvin.field_map.self_s"] = self_s("kelvin.field_map")
    out["kelvin.field_map.samples"] = total_work("kelvin.field_map")
    out["kelvin.render_wavefronts.self_s"] = self_s("kelvin.render_wavefronts")
    out["kelvin.kelvin_wave_terms.calls"] = calls("kelvin.kelvin_wave_terms")
    out["kelvin.transient_term.calls"] = calls("kelvin.transient_term")

    out["cli.parse_config.self_s"] = self_s("cli.parse_config")
    out["cli.run.self_s"] = self_s("cli.run")
    for span in ("cli.write_csv", "cli.write_pgm"):
        out[f"{span}.self_s"] = self_s(span)
        out[f"{span}.bytes"] = total_work(span)

    attributed = 0.0
    for k, m in enumerate(MODULES):
        mine = module_of == k
        out[f"{m}.self_s"] = float(np.sum(selft[mine]))
        out[f"{m}.incl_s"] = inclusive_time(start, end, mine)
        attributed += out[f"{m}.self_s"]
    out["traced_wall_s"] = traced_wall
    out["unattributed_s"] = traced_wall - attributed
    return out
