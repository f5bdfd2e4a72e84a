import importlib
import re
import types
from pathlib import Path

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


def test_readme_python_blocks_run():
    # the README's examples run in order, in one namespace, like a session
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
