"""Workload definitions and the seeded inputs they run on.

Each workload is one ``volcd run`` configuration.  A run of the benchmark
executes ``CHILDREN`` fresh ``volcd run`` processes, one at a time, each
with its own experiment seed derived from the workload seed, so the medians
pool ``CHILDREN * reps`` problem instances.  ``reps`` is planned from the
run's seconds and the per-instance cost below.

Iterations to epsilon vary between instances (by 20 % for rcdvs on the
dense quadratics), and a shared machine's speed drifts from one solver run
to the next, so the sizes are chosen to fit many short solver runs into a
run.  Every gated metric must exist on every workload, and sdna to epsilon
on the sparse problems costs up to ten seconds per instance with iterations
that vary tenfold between instances, so sdna runs in the traced run only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple  # (method, tau) cells besides the rcd:1 baseline
    epsilon: float
    # single-coordinate-equivalent update cap, so that a diverged cell
    # reaches its budget max(1, max_updates // tau) in seconds
    max_updates: int
    # planned seconds, on a shared 2-vCPU machine at its usual speed, of one
    # instance (every cell) and of a child's fixed cost (interpreter start,
    # imports, and for a dataset the parse and the reference optimum)
    instance_s: float
    startup_s: float
    problem: dict = field(default_factory=dict)  # generator flags
    dataset: dict | None = None  # synthetic LIBSVM file shape
    # cells only the traced run measures, so that every workload reports the
    # per-layer numbers of every method; with ``trace_only_iters`` they stop
    # at that many iterations instead of at epsilon
    trace_only: tuple = ()
    trace_only_iters: int | None = None
    trace_instance_s: float = 1.0  # planned seconds of one traced instance

    def cells(self) -> list[tuple[str, int]]:
        """Cells in the order ``run_experiment`` runs them."""
        return [("rcd", 1)] + [c for c in self.methods if c != ("rcd", 1)]

    def cli_args(self, seed: int, reps: int, dataset_path: str | None) -> list[str]:
        args = []
        if self.dataset is not None:
            args += ["--dataset", dataset_path, "--gamma", repr(self.dataset["gamma"])]
        for key, value in self.problem.items():
            args += [f"--{key}", str(value)]
        args += [
            "--methods", ",".join(f"{m}:{t}" for m, t in self.methods),
            "--epsilon", repr(self.epsilon),
            "--repetitions", str(reps),
            "--max-updates", str(self.max_updates),
            "--seed", str(seed),
            "--output", "json",
        ]
        return args

    def plan_reps(self, seconds: float) -> int:
        """Repetitions per child so that ``CHILDREN`` children fill ``seconds``."""
        per_child = seconds / CHILDREN - self.startup_s
        return max(1, int(per_child // self.instance_s))

    def plan_trace_instances(self, seconds: float) -> int:
        """Repetitions of the traced run's untraced child; the traced loop
        then covers as many of them as the run's seconds allow."""
        per = self.trace_instance_s + self.instance_s
        return max(1, int((seconds - self.startup_s) // per))


CHILDREN = 6

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-gap",
            why=(
                "dense quadratic, spectral gap 64: O(n) dense row updates and the "
                "closed-form 2x2 solve, plus sdna's per-draw uniform subsets when "
                "traced; sparse sampler and sparse state idle"
            ),
            problem={"kind": "quadratic", "n": 100, "lam1": 6400.0, "lam2": 100.0},
            methods=(("rcdvs", 2),),
            epsilon=0.01,
            max_updates=500_000,
            instance_s=0.25,
            startup_s=0.7,
            trace_only=(("sdna", 2),),
            trace_instance_s=1.5,
        ),
        Workload(
            name="sparse-huber",
            why=(
                "sparse Huber regression, n=200, m=500, 10 nonzeros per direction: "
                "pure-Python SparseTwoSampler draws, sparse separable apply and "
                "the Cholesky solve on CSR B; enumeration and dense state idle"
            ),
            problem={"kind": "huber", "n": 200, "m": 500, "sparsity": 10},
            methods=(("rcdvs", 2),),
            epsilon=0.1,
            max_updates=100_000,
            instance_s=1.0,
            startup_s=0.6,
            trace_only=(("sdna", 2),),
            trace_only_iters=1000,
            trace_instance_s=5.5,
        ),
        Workload(
            name="dense-tau3",
            why=(
                "dense quadratic, tau=3 at n=160: VolumeSampler enumerates "
                "C(160,3)=0.67M minors per run, plus 3x3 Cholesky and pinv "
                "solves and the general dense apply"
            ),
            problem={"kind": "quadratic", "n": 160, "lam1": 1600.0, "lam2": 100.0},
            methods=(("rcdvs", 3),),
            epsilon=0.01,
            max_updates=300_000,
            instance_s=0.55,
            startup_s=0.7,
            trace_only=(("sdna", 3),),
            trace_instance_s=3.3,
        ),
        Workload(
            name="logistic-file",
            why=(
                "ridge logistic regression on a seeded 1000x40 LIBSVM file: file "
                "parse and reference optimum in set-up, SparseTwoSampler draws, "
                "sparse separable apply and the Cholesky solve on CSR B"
            ),
            dataset={"rows": 1000, "features": 40, "density": 0.25, "gamma": 1.0},
            methods=(("rcdvs", 2),),
            epsilon=1.0,
            max_updates=50_000,
            instance_s=0.45,
            startup_s=0.8,
            trace_only=(("sdna", 2),),
            trace_only_iters=1000,
            trace_instance_s=2.5,
        ),
    )
}


def experiment_seed(seed: int, child: int) -> int:
    """The ``volcd run --seed`` of child ``child`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, child]).generate_state(1)[0])


def write_libsvm(path: str, seed: int, rows: int, features: int, density: float,
                 **_ignored) -> None:
    """Write a binary classification file with labels from a planted direction.

    Each entry is present with probability ``density`` and standard normal;
    the label is the sign of the planted score plus noise.
    """
    gen = np.random.default_rng(seed)
    w = gen.standard_normal(features)
    mask = gen.random((rows, features)) < density
    x = np.where(mask, gen.standard_normal((rows, features)), 0.0)
    y = np.where(x @ w + 0.5 * gen.standard_normal(rows) > 0.0, 1, -1)
    lines = []
    for i in range(rows):
        idx = np.flatnonzero(mask[i])
        feats = " ".join(f"{j + 1}:{float(x[i, j])!r}" for j in idx)
        lines.append(f"{y[i]:+d} {feats}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def fresh_dataset(workload: Workload, tmp_root: str, seed: int, child: int) -> str | None:
    """Write a child's LIBSVM file into a fresh directory of its own.

    A fresh directory per child keeps the ``.fstar.json`` reference-optimum
    sidecar that ``volcd run`` writes next to the file from ever being warm.
    """
    if workload.dataset is None:
        return None
    directory = os.path.join(tmp_root, f"data{child}")
    os.makedirs(directory)
    path = os.path.join(directory, "data.svm")
    write_libsvm(path, experiment_seed(seed, child), **workload.dataset)
    return path
