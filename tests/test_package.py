import ast
import importlib
import os
import re
import subprocess
import sys
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


_DENSE_RUN = """
import sys
import volcd, volcd.cli
code = volcd.cli.main(["run", "--kind", "quadratic", "--n", "30", "--methods",
                       "rcdvs:2,rcdvs:3,sdna:2,sdna:3", "--epsilon", "0.01",
                       "--repetitions", "2", "--output", "json", "--out", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.ma" in sys.modules)
"""


def test_dense_run_never_imports_scipy(tmp_path):
    # scipy is imported where CSR storage, a reference solve of a
    # non-quadratic problem or a step of four or more coordinates needs it;
    # a dense quadratic run with steps of one to three coordinates needs none
    src = str(Path(volcd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DENSE_RUN, str(tmp_path / "table.json")],
        capture_output=True, text=True, check=True, env=env,
    )
    first, masked = proc.stdout.strip().rsplit("\n", 1)
    code, loaded = first.split(None, 1)
    assert code == "0"
    assert loaded.strip() == "[]"
    # np.median imports numpy.ma, 10-15 ms a process; the medians do without
    assert masked == "False"


def test_solvers_reads_no_private_attribute():
    # solvers steps a state through objectives.steps and reads only its value
    # and x: how a state is laid out is known to objectives alone
    path = Path(volcd.__file__).with_name("solvers.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    assert private == []
