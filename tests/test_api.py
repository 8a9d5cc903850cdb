import ast
import importlib
from pathlib import Path

import pytest

import oscint3
from oscint3 import core, kelvin, oracle
from oscint3.cli import NUMERIC_ERRORS, ConfigError


@pytest.mark.parametrize("name", oscint3.__all__)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"oscint3.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_numeric_errors_are_raised():
    """Every exception class the package defines, except the CLI's
    ConfigError, is a `core.NumericFailure`, which the CLI maps to exit
    code 3, and every subclass of it is raised somewhere in the package."""
    src = Path(oscint3.__file__).parent
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else
                           getattr(exc, "id", None))
    ours = {obj for name in oscint3.__all__
            for obj in vars(importlib.import_module(f"oscint3.{name}")).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__.startswith("oscint3")} - {ConfigError}
    assert core.NumericFailure in NUMERIC_ERRORS
    assert [e.__name__ for e in ours if not issubclass(e, core.NumericFailure)] == []
    failures = ours - {core.NumericFailure}
    assert core.TangentialShift in failures
    assert sorted(e.__name__ for e in failures if e.__name__ not in raised) == []


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of `path` that no name in it uses and that its
    `__all__` does not list."""
    tree = ast.parse(path.read_text())
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in used and name not in exported]


def test_no_unused_imports():
    files = [*Path(oscint3.__file__).parent.glob("*.py"),
             *Path(__file__).parent.glob("*.py")]
    assert [u for f in sorted(files) for u in _unused_imports(f)] == []


def test_private_helpers_are_used():
    """Every module-level private function or class of the package is named
    somewhere in the package besides its own definition."""
    trees = [ast.parse(p.read_text())
             for p in Path(oscint3.__file__).parent.glob("*.py")]
    private = {n.name for t in trees for n in t.body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and n.name.startswith("_") and not n.name.endswith("__")}
    named = {getattr(n, "id", None) or getattr(n, "attr", None)
             for t in trees for n in ast.walk(t)
             if isinstance(n, (ast.Name, ast.Attribute))}
    assert sorted(private - named) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_uses() -> set[tuple[str, str]]:
    """(module, name) for every `cli.name`, `kelvin.name`, `oracle.name` and
    `problems.name` in the benchmark's scripts, read from their source."""
    uses = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("cli", "kelvin", "oracle", "problems")):
                uses.add((node.value.id, node.attr))
    return uses


def test_benchmark_contract():
    """What the benchmark in perfbench/ needs of the package, whether or not
    any package code calls it: the names its scripts read, the names its
    setup code (a string in run.py) reads, the methods `spans.METHODS`
    wraps through vars(cls)[meth], and the calls it makes.  perfbench/ is
    only read, never imported, so nothing is written there."""
    uses = _perfbench_uses() | {("problems", "get_problem"), ("problems", "REGISTRY")}
    assert {("cli", "run"), ("kelvin", "KelvinParams"), ("oracle", "QuadratureSpec")} <= uses
    assert [u for u in sorted(uses)
            if not hasattr(importlib.import_module(f"oscint3.{u[0]}"), u[1])] == []
    methods = next(ast.literal_eval(node.value)
                   for node in ast.parse((PERFBENCH / "spans.py").read_text()).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "METHODS")
    assert methods and [m for m in methods if m[1] not in vars(getattr(core, m[0]))] == []
    kelvin.KelvinParams(2.0, 1.0, 10.0, 40.0)          # as checks.py builds it
    oracle.QuadratureSpec(R=3.0, n=256)                # as bench_pass.py builds it
