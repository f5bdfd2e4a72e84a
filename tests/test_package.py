import importlib
import types

import pytest

import volcd


def test_all_names_resolve_and_are_not_modules():
    for name in volcd.__all__:
        obj = getattr(volcd, name)
        assert not isinstance(obj, types.ModuleType), name


@pytest.mark.parametrize(
    "module",
    ["linalg", "sampling", "solvers", "objectives", "problems", "spectral", "benchmark"],
)
def test_submodule_all_names_resolve(module):
    mod = importlib.import_module(f"volcd.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"volcd.{module}.{name}"
