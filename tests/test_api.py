import importlib

import pytest

import oscint3


@pytest.mark.parametrize("name", oscint3.__all__)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"oscint3.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
