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
