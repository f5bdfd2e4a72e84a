"""Check that two source trees run the same iterates, bit for bit.

    python tools/same_iterates.py OTHER_TREE [--declared CELL ...] [--fields FIELD ...]
                                             [--cells PATTERN ...]

A cell is one problem shape and one method:tau.  For each cell and each of
the two trees (this one and OTHER_TREE, each a checkout with ``src/volcd``)
a fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` imports that tree's
volcd and runs seeds 0-2, each to the shape's epsilon gap (capped at its
perfbench update budget) and for a budget of 777 steps, each at trace_every
1, 7, 48, 64 and 2**62: 30 runs per cell.  A sparse run takes a lazy block
of 32 steps only where no step but its last is a trace point: at 1 and 7
never, at 48, no multiple of 32, between trace points, at 64 at every
block, whose last step it traces where it is a trace point, and at 2**62
always.  A dense window's trace points read the window's values.  Each
run is then replayed on the subsets it recorded, through ``forced_subsets``
with the same stop and trace settings, which takes the per-step path a
window replaces.  The
shapes are a dense quadratic at n = 10, a dense Huber regression (n = 60,
m = 200), the dense-gap, dense-tau3, sparse-huber and logistic-file
workloads of ``perfbench/workloads.py``, ``logistic-tall``, a ridge
logistic regression on a 4000 x 40 LIBSVM file at density 0.02, whose A
holds fewer than m / 32 nonzeros per column, so its state takes no
checkpoints and every run, untraced included, takes the fused sparse step
one step at a time, ``dense-n60``, a dense quadratic at n = 60 (lam1 400,
lam2 100) whose cells take tau = 30 and 50, where most blocks' minors lie
below 1e-14 times their diagonal products, and ``csr-banded``, a quadratic
on the CSR matrix ``banded_psd(400, 3)`` with a standard normal right-hand
side, the one shape whose state is the sparse quadratic's and whose pair
sampler reads a B that is not a Gram matrix; seed s builds the problem (or
writes the LIBSVM file) with seed s and seeds the solver with s.

Two lines per cell, ``SHAPE/METHOD`` for its sampled runs and
``SHAPE/METHOD/forced`` for their replays, say whether the subsets,
iteration counts, traces and final iterates of the 30 runs are equal, and
the largest relative difference of the traces and iterates where they are
not.  A cell whose child exits non-zero in either tree prints both its lines
as ``ERROR``, with the child's last line of stderr; an ``ERROR`` line counts
as a difference.  A line's difference is declared when its name matches a
``--declared`` pattern and every field that differs is one of ``--fields``
(all four by default, an ``ERROR`` line differing in all of them): so
``--declared 'sparse-huber/*' --fields trace`` accepts values that changed
while the subsets, iteration counts and iterates stayed.  The exit status is
1 if a line has a difference that is not declared, else 0.  ``--cells``
keeps the cells whose ``SHAPE/METHOD`` matches one of its patterns (fnmatch,
as in ``'dense-n10/*'``).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
from perfbench.workloads import WORKLOADS, write_libsvm  # noqa: E402

SEEDS = (0, 1, 2)
BUDGET = 777
TRACE_EVERY = (1, 7, 48, 64, 2**62)
DENSE_METHODS = ("rcd:1", "rcdvs:2", "rcdvs:3", "rcdvs:4", "rcdvs:8", "sdna:1", "sdna:2",
                 "sdna:3", "sdna:4", "sdna:8")
SPARSE_METHODS = ("rcd:1", "rcdvs:2", "rcdvs:3")
HUBER_METHODS = ("rcd:1", "rcdvs:2", "rcdvs:3")
WIDE_METHODS = ("rcdvs:30", "rcdvs:50", "sdna:30")
BANDED_METHODS = ("rcd:1", "rcdvs:2", "rcdvs:3", "sdna:2")
FIELDS = ("subsets", "iters", "trace", "x_final")


def shapes() -> dict:
    """Shape name -> (problem flags or dataset shape, epsilon, update cap, methods)."""
    out = {"dense-n10": ({"kind": "quadratic", "n": 10}, None, 0.01, 100_000, DENSE_METHODS),
           "dense-huber": ({"kind": "huber", "n": 60, "m": 200}, None, 0.01, 100_000,
                           HUBER_METHODS)}
    for name in ("dense-gap", "dense-tau3", "sparse-huber", "logistic-file"):
        w = WORKLOADS[name]
        methods = DENSE_METHODS if name.startswith("dense") else SPARSE_METHODS
        out[name] = (w.problem, w.dataset, w.epsilon, w.max_updates, methods)
    # its gap runs stop within a few hundred steps
    out["logistic-tall"] = (None, {"rows": 4000, "features": 40, "density": 0.02, "gamma": 1.0},
                            1.0, 20_000, SPARSE_METHODS)
    # every gap run stops within 30 iterations, well inside the cap
    out["dense-n60"] = ({"kind": "quadratic", "n": 60, "lam1": 400.0, "lam2": 100.0}, None,
                        1e-6, 6_000, WIDE_METHODS)
    # its gap runs stop within about 5,000 updates
    out["csr-banded"] = ({"banded": [400, 3]}, None, 0.01, 20_000, BANDED_METHODS)
    return out


# runs one cell and replays each run on its subsets in a fresh interpreter
# on the tree its PYTHONPATH names, and saves every run's outcome to the
# .npz file argv[1], a replay's keys starting with "forced "
_CHILD = r"""
import json, sys
import numpy as np
from volcd.linalg import as_dense
from volcd.objectives import QuadraticObjective
from volcd.problems import ProblemSpec, banded_psd, generate, load_libsvm, reference_min
from volcd.solvers import SolverConfig, run

out, cell = sys.argv[1], json.loads(sys.argv[2])
method, tau = cell["method"], cell["tau"]
saved = {}
def save(key, rep):
    saved[key + "|subsets"] = np.array(rep.subsets, dtype=np.int64).reshape(-1, tau)
    saved[key + "|iters"] = np.array([rep.iterations, rep.capped])
    saved[key + "|trace"] = np.array(rep.trace + [(-1, rep.final_value)], dtype=float)
    saved[key + "|x_final"] = rep.x_final
for seed in cell["seeds"]:
    if cell["files"]:
        obj = load_libsvm(cell["files"][str(seed)], gamma=cell["gamma"])
        b = obj.curvature_matrix()
        f_star = reference_min(obj, b=as_dense(b))
    elif "banded" in cell["problem"]:
        n, width = cell["problem"]["banded"]
        b = banded_psd(n, width, seed=seed)
        obj = QuadraticObjective(b, np.random.default_rng(seed).standard_normal(n))
        f_star = reference_min(obj)
    else:
        obj, _, f_star = generate(ProblemSpec(seed=seed, **cell["problem"]))
        b = obj.curvature_matrix()
    stops = {"gap": dict(target_gap=cell["epsilon"], f_star=f_star,
                         max_iters=max(1, cell["cap"] // tau)),
             "budget": dict(max_iters=cell["budget"])}
    for stop, kw in stops.items():
        for every in cell["trace_every"]:
            settings = dict(method=method, tau=tau, seed=seed, trace_every=every,
                            record_subsets=True, **kw)
            rep = run(obj, b, SolverConfig(**settings))
            key = f"seed {seed}, {stop} stop, trace_every {every}"
            save(key, rep)
            save("forced " + key, run(obj, b, SolverConfig(forced_subsets=rep.subsets, **settings)))
np.savez(out, **saved)
"""


def run_cell(tree: Path, cell: dict, out: Path) -> dict | str:
    """The cell's saved outcomes on ``tree``, or, if its child exits
    non-zero, the child's last line of stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(out), json.dumps(cell)],
                          env=env, cwd=str(tree), capture_output=True, text=True)
    if done.returncode:
        lines = done.stderr.strip().splitlines()
        return lines[-1] if lines else f"exit status {done.returncode}"
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |b| over equal shapes; inf where the shapes differ
    or one side is not finite where the other is."""
    if a.shape != b.shape:
        return float("inf")
    with np.errstate(all="ignore"):
        both = np.isfinite(a) & np.isfinite(b)
        if not np.array_equal(both, np.isfinite(a)) or not np.array_equal(both, np.isfinite(b)):
            return float("inf")
        scale = np.abs(b[both]).max(initial=0.0)
        diff = np.abs(a[both] - b[both]).max(initial=0.0)
    return diff / scale if scale > 0 else diff


def compare(mine: dict, theirs: dict) -> tuple[dict, float]:
    """Per field, whether every run is bitwise equal; and the largest
    relative difference of traces and final iterates."""
    equal = dict.fromkeys(FIELDS, True)
    worst = 0.0
    for key in sorted(set(mine) | set(theirs)):
        field = key.rsplit("|", 1)[1]
        a, b = mine.get(key), theirs.get(key)
        if a is None or b is None or a.shape != b.shape or a.tobytes() != b.tobytes():
            equal[field] = False
            if field in ("trace", "x_final"):
                worst = max(worst, float("inf") if a is None or b is None else rel_diff(a, b))
    return equal, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the tree to compare with, holding src/volcd")
    parser.add_argument("--declared", nargs="*", default=[],
                        help="cells (fnmatch patterns) whose differences are expected")
    parser.add_argument("--fields", nargs="*", choices=FIELDS, default=list(FIELDS),
                        help="the fields in which a declared cell may differ (default: all)")
    parser.add_argument("--cells", nargs="*", default=["*"],
                        help="run only the cells that match one of these patterns")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    if not (other / "src" / "volcd").is_dir():
        parser.error(f"{other} holds no src/volcd")

    undeclared = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print(f"this tree: {HERE}\nother tree: {other}")
        print(f"{'cell':33} {'runs':>4}  " + "  ".join(f"{f:8}" for f in FIELDS) + "  max rel diff")
        for shape, (problem, dataset, epsilon, cap, methods) in shapes().items():
            files = {}
            for method in methods:
                name = f"{shape}/{method}"
                if not any(fnmatch.fnmatchcase(name, p) for p in args.cells):
                    continue
                if dataset is not None and not files:
                    for seed in SEEDS:
                        files[str(seed)] = str(tmp / f"{shape}-{seed}.svm")
                        write_libsvm(files[str(seed)], seed, **dataset)
                m, tau = method.split(":")
                cell = {"method": m, "tau": int(tau), "seeds": list(SEEDS), "problem": problem,
                        "files": files, "gamma": (dataset or {}).get("gamma"),
                        "epsilon": epsilon, "cap": cap, "budget": BUDGET,
                        "trace_every": list(TRACE_EVERY)}
                mine = run_cell(HERE, cell, tmp / "mine.npz")
                theirs = run_cell(other, cell, tmp / "theirs.npz")
                runs = len(SEEDS) * 2 * len(TRACE_EVERY)
                failed = [f"{side} tree: {saved}" for side, saved in
                          (("this", mine), ("other", theirs)) if isinstance(saved, str)]
                # the sampled runs' keys start with "seed", their replays' with "forced"
                for row, head in ((name, "seed "), (name + "/forced", "forced ")):
                    if failed:
                        equal, line = dict.fromkeys(FIELDS, False), "ERROR  " + "; ".join(failed)
                    else:
                        equal, worst = compare(*({k: v for k, v in saved.items()
                                                  if k.startswith(head)}
                                                 for saved in (mine, theirs)))
                        line = "  ".join(f"{'equal' if equal[f] else 'DIFFER':8}"
                                         for f in FIELDS)
                        line += "  -" if all(equal.values()) else f"  {worst:.3g}"
                    differ = {f for f in FIELDS if not equal[f]}
                    declared = (differ <= set(args.fields)
                                and any(fnmatch.fnmatchcase(row, p) for p in args.declared))
                    if differ and not declared:
                        undeclared += 1
                        line += "  UNDECLARED"
                    print(f"{row:33} {runs:>4}  {line}", flush=True)
    print(f"{undeclared} undeclared difference(s)")
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
