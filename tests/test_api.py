import ast
import importlib
from pathlib import Path

import pytest

import oscint3
from oscint3.cli import NUMERIC_ERRORS


@pytest.mark.parametrize("name", oscint3.__all__)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"oscint3.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_numeric_errors_are_raised():
    """Every oscint3 exception the CLI maps to exit code 3 is raised somewhere."""
    src = Path(oscint3.__file__).parent
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else
                           getattr(exc, "id", None))
    ours = [e.__name__ for e in NUMERIC_ERRORS if e.__module__.startswith("oscint3")]
    assert ours and [n for n in ours if n not in raised] == []


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
