import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
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


# prints the exit code, the scipy modules loaded and whether numpy.ma is
_RUN = """
import sys
import volcd, volcd.cli
code = volcd.cli.main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.ma" in sys.modules)
"""

_OUTPUT = ["--epsilon", "0.01", "--repetitions", "2", "--output", "json"]


def _fresh(script, *args):
    """Run ``script`` with ``args`` in a fresh interpreter that imports this
    volcd; its stdout."""
    src = str(Path(volcd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=True, env=env).stdout


def _run_loads(tmp_path, args):
    """Run ``volcd run <args>`` in a fresh interpreter; its exit code, the
    scipy modules it loaded, and whether it loaded numpy.ma."""
    stdout = _fresh(_RUN, "run", *args, *_OUTPUT, "--out", str(tmp_path / "table.json"))
    first, masked = stdout.strip().rsplit("\n", 1)
    code, loaded = first.split(None, 1)
    return code, loaded.strip(), masked


def test_dense_run_never_imports_scipy(tmp_path):
    # scipy is imported only for a step of four or more coordinates (LAPACK's
    # Cholesky) and the scipy bridges; a dense quadratic run with steps of
    # one to three coordinates needs none
    args = ["--kind", "quadratic", "--n", "30", "--methods", "rcdvs:2,rcdvs:3,sdna:2,sdna:3"]
    # np.median imports numpy.ma, 10-15 ms a process; the medians do without
    assert _run_loads(tmp_path, args) == ("0", "[]", "False")


def _write_libsvm(path):
    gen = np.random.default_rng(5)
    x = np.where(gen.random((60, 8)) < 0.4, gen.standard_normal((60, 8)), 0.0)
    y = np.where(x @ gen.standard_normal(8) > 0.0, "+1", "-1")
    path.write_text("".join(
        label + "".join(f" {j + 1}:{row[j]!r}" for j in np.flatnonzero(row).tolist()) + "\n"
        for label, row in zip(y.tolist(), x.tolist())
    ))


@pytest.mark.parametrize("source", ["huber", "libsvm"])
def test_sparse_run_never_imports_scipy(tmp_path, source):
    # the CSR data matrix, its gram and columns, the LIBSVM parse and the
    # reference optimum are numpy alone
    if source == "huber":
        args = ["--kind", "huber", "--n", "30", "--m", "60", "--sparsity", "3"]
    else:
        _write_libsvm(tmp_path / "data.svm")
        args = ["--dataset", str(tmp_path / "data.svm"), "--gamma", "0.5"]
    args += ["--methods", "rcdvs:2,sdna:2", "--max-updates", "20000"]
    assert _run_loads(tmp_path, args) == ("0", "[]", "False")
    table = json.loads((tmp_path / "table.json").read_text(encoding="utf-8"))
    assert [(r["method"], r["tau"]) for r in table["rows"]] == [
        ("rcd", 1), ("rcdvs", 2), ("sdna", 2)
    ]


_BUILD_SPARSE = """
import sys
from volcd.linalg import load_csr_triples
from volcd.problems import banded_psd
b = banded_psd(2000, 4)
c = load_csr_triples(sys.argv[1])
print(b.nnz, c.nnz, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_sparse_curvature_builders_never_import_scipy(tmp_path):
    # banded_psd and the triple loader hand CsrSymmetricUpper its arrays
    # directly, without scipy's COO matrix
    path = tmp_path / "b.txt"
    path.write_text("1 1 2.0\n1 3 -1.0\n3 3 2.0\n4 4 0\n")
    assert _fresh(_BUILD_SPARSE, str(path)).split(None, 2) == ["9990", "4", "[]\n"]


def test_solvers_reads_no_private_attribute():
    # solvers hands a state to objectives.steps, which runs the loop, and
    # reads only its value and x: how a state is laid out is known to
    # objectives alone
    path = Path(volcd.__file__).with_name("solvers.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    assert private == []


def _src_tree(name):
    path = Path(volcd.__file__).with_name(name)
    return ast.parse(path.read_text(encoding="utf-8"))


def test_solvers_imports_only_its_checks():
    # the step kernels live in objectives: solvers needs from linalg and
    # errors only what its config checks and its loop raise
    imported = {
        (node.module, alias.name)
        for node in ast.walk(_src_tree("solvers.py"))
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "errors")
        for alias in node.names
    }
    assert imported == {
        ("errors", "ConfigError"),
        ("linalg", "require_finite"),
        ("linalg", "validate_index_set"),
    }


def _owners(name):
    """The (module, top-level function or class) pairs of src whose bodies
    name ``name``, as a variable or an attribute; none names it at module
    level."""
    owners = set()
    for path in sorted(Path(volcd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def lines(node):
            return {n.lineno for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
                    and name in (getattr(n, "id", None), getattr(n, "attr", None))}

        inside = set()
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and lines(top):
                owners.add((path.name, top.name))
                inside |= lines(top)
        assert lines(tree) == inside, path.name
    return owners


def test_minor_clamp_is_applied_in_one_place():
    # principal_minors applies the clamp for every determinantal sampler.
    # The pivot rule's constant is assigned once, in sampling, and read only
    # by the kernel block_pivots, principal_minors and the step kernel
    # _make_step_solver, never at module level
    allowed = {("sampling.py", "block_pivots"), ("sampling.py", "principal_minors"),
               ("objectives.py", "_make_step_solver")}

    def clamp_names(tree, ctx):
        return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name)
                and node.id == "_DET_CLAMP" and isinstance(node.ctx, ctx)}

    assigned, readers = [], set()
    for path in sorted(Path(volcd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assigned += [path.name] * len(clamp_names(tree, ast.Store))
        inside = set()
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and clamp_names(func, ast.Load):
                readers.add((path.name, func.name))
                inside |= clamp_names(func, ast.Load)
        assert clamp_names(tree, ast.Load) == inside, path.name
    assert assigned == ["sampling.py"]
    assert ("sampling.py", "block_pivots") in readers and readers <= allowed
    assert not hasattr(volcd.sampling, "minor_threshold")


def test_the_scale_of_b_is_taken_in_one_place():
    # the determinantal samplers work on B 4^-j: one sampling function
    # takes the exponent, by frexp, and only the minor kernel and the
    # spectral and pair samplers read it and scale by ldexp
    readers = {("sampling.py", name)
               for name in ("principal_minors", "SpectralVolumeSampler", "SparseTwoSampler")}
    assert _owners("frexp") == {("sampling.py", "_scale_exponent")}
    assert _owners("_scale_exponent") == _owners("ldexp") == readers


def test_every_minor_is_a_pivot_product():
    # no src module takes a determinant: principal_minors multiplies
    # block_pivots' pivots, with no raw mode beside it, and the enumerated
    # minor and adjugate sums are test oracles
    for path in sorted(Path(volcd.__file__).parent.glob("*.py")):
        dets = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute) and node.attr == "det"]
        assert dets == [], path.name
    assert "clamp" not in inspect.signature(volcd.sampling.principal_minors).parameters
    assert "method" not in inspect.signature(volcd.spectral.sum_adjugates).parameters
    for name in ("adjugate", "sum_principal_minors", "expected_step_matrix"):
        assert name not in volcd.__all__ and not hasattr(volcd, name)
        for module in ("linalg", "spectral"):
            assert not hasattr(importlib.import_module(f"volcd.{module}"), name)


def test_the_stop_test_is_stated_once():
    # in solvers, the finiteness test and every ordering against the gap or
    # the budget sit in SolverConfig.stop_rule, besides validate's checks of
    # the settings themselves; run_experiment classifies a run by its status
    # and never reads its final value
    bounds = {"target_gap", "max_iters", "gap", "limit"}

    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def stop_tests(tree):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and named(node) == "isfinite":
                yield node.lineno, "isfinite"
            elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                for operand in (node.left, *node.comparators):
                    hit = {named(n) for n in ast.walk(operand)} & bounds
                    if hit:
                        yield node.lineno, min(hit)

    tree = _src_tree("solvers.py")
    owner = {}
    for parent in (tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))):
        for func in parent.body:
            if isinstance(func, ast.FunctionDef):
                owner.update((line, func.name) for line, _ in stop_tests(func))
    found = list(stop_tests(tree))
    assert {line for line, _ in found} == owner.keys()
    assert set(owner.values()) == {"stop_rule", "validate"}
    in_rule = {what for line, what in found if owner[line] == "stop_rule"}
    assert in_rule == {"isfinite", "gap", "limit"}
    assert not hasattr(volcd, "check_stop") and "check_stop" not in volcd.__all__
    assert not [node.lineno for node in ast.walk(_src_tree("benchmark.py"))
                if isinstance(node, ast.Attribute) and node.attr == "final_value"]


def test_the_ridge_term_lives_in_every_state():
    # RegularizedObjective adds its weight to the inner objective's own
    # state: no src module defines a wrapper state or reads an inner one
    for path in sorted(Path(volcd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not (isinstance(node, ast.ClassDef) and node.name == "_RidgeState"), path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "_inner"), path.name
