"""volcd benchmark: time to epsilon per method, plus a traced layer split.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense-gap --seed 1 --seconds 25 --trace 0

``--trace 0`` runs six ``volcd run ... --output json`` children one at a
time, each on its own instances, and reports:

* ``wall_s``: median wall time of a child, from start to exit;
* ``setup_s``: median of a child's wall time minus its solver-run times
  (imports, problem generation or file parsing, curvature matrices, the
  reference optimum, theory columns, table emission);
* ``tte_s.<m>`` / ``iters.<m>``: median time and iterations to epsilon over
  every instance the run solved, for the rcd baseline and for rcdvs;
* ``peak_rss_mb``: median peak resident set size of a child.

Times are scaled by the machine's speed, measured with a fixed reference
kernel (see ``refkernel.py``) before and after each solver run and over the
whole child for set-up, so that they read as seconds on the quiet reference
machine; the child's time spent in the kernel is left out.  The unscaled
medians and the failed-cell fraction are printed too, not gated.

``--trace 1`` replays the first instances of the first child in process and
reports the per-layer split (see ``traced.py``).  Both modes print a
readable report, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The benchmark itself and every child use one
BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 160.0  # every run ends well inside three minutes
# On a slow stretch of the machine the end-to-end run drops its last children
# rather than run past this share of its seconds (at least two always run).
OVERRUN = 1.2

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "tte_s.rcd": "s",
    "tte_s.rcdvs": "s",
    "iters.rcd": "count",
    "iters.rcdvs": "count",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads() -> list[int]:
    """Thread counts reported by every OpenBLAS loaded into this process."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def machine_info() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # loads scipy's own BLAS, if it has one

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
    }


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>12s} {m['unit']}")


def end_to_end(workload, seed: int, seconds: float, tmp_root: str, started: float):
    from e2e import cell_failures, median_or_none, run_child, table_consistent, warm_up
    from refkernel import REFERENCE_KERNEL_S
    from workloads import CHILDREN, experiment_seed, fresh_dataset

    reps = workload.plan_reps(seconds)
    print(f"plan: {CHILDREN} children of {reps} repetitions, cells "
          + " ".join(f"{m}:{t}" for m, t in workload.cells()))
    warm_up(ROOT)
    walls, setups, rss = [], [], []
    cells = {m: [] for m, _ in workload.cells()}
    failures, problems = [], []
    planned_child_s = workload.startup_s + reps * workload.instance_s
    children = 0
    for child in range(CHILDREN):
        elapsed = time.perf_counter() - started
        if child >= 2 and elapsed + planned_child_s > OVERRUN * seconds:
            print(f"  children {child}..{CHILDREN - 1} not started: the machine is "
                  f"slow and {elapsed:.1f} s are gone")
            break
        children += 1
        remaining = DEADLINE_S - elapsed
        workdir = os.path.join(tmp_root, f"run{child}")
        os.makedirs(workdir)
        data = fresh_dataset(workload, tmp_root, seed, child)
        args = workload.cli_args(experiment_seed(seed, child), reps, data)
        res = run_child(ROOT, args, workdir, remaining)
        failures += [((child, *cell), why) for cell, why in cell_failures(workload, res, reps)]
        if res.table is None:
            continue
        problems += table_consistent(res.table)
        order = [f"{m}:{t}" for m, t in workload.cells()]
        if len(res.kernel_s) != reps * len(order) + 1:
            problems.append(f"child {child}: {len(res.kernel_s)} kernel times "
                            f"around {reps * len(order)} solver runs")
            continue
        failed = {(rep, key) for (c, rep, key), _ in failures if c == child}
        solved = solved_scaled = 0.0
        for rep, record in enumerate(res.table["raw"]):
            for j, key in enumerate(order):
                cell = record[key]
                k = rep * len(order) + j
                local = REFERENCE_KERNEL_S / (0.5 * (res.kernel_s[k] + res.kernel_s[k + 1]))
                solved += cell["time"]
                solved_scaled += cell["time"] * local
                if (rep, key) not in failed:
                    cells[key.split(":")[0]].append((cell["time"], local, cell["it"]))
        speed = REFERENCE_KERNEL_S / statistics.median(res.kernel_s)
        setup = speed * (res.wall_s - solved - sum(res.kernel_s))
        setups.append(setup)
        walls.append((setup + solved_scaled, res.wall_s - sum(res.kernel_s)))
        rss.append(res.max_rss_mb)
        print(f"  child {child}: wall {res.wall_s:.3f} s, machine speed "
              f"{speed:.3f} of the reference")

    values = {
        "wall_s": median_or_none([scaled for scaled, _ in walls]),
        "setup_s": median_or_none(setups),
        "peak_rss_mb": median_or_none(rss),
    }
    for method, done in cells.items():
        values[f"tte_s.{method}"] = median_or_none([t * speed for t, speed, _ in done])
        values[f"iters.{method}"] = median_or_none([it for _, _, it in done])
    attempted = children * reps * len(workload.cells())
    metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    print("end-to-end metrics (lower is better):")
    _print_metrics(metrics)
    print("also reported, not gated:")
    _print_metrics({
        "wall_s.unscaled": {"value": median_or_none([raw for _, raw in walls]),
                            "unit": "s"},
        **{f"tte_s.{m}.unscaled": {"value": median_or_none([t for t, _, _ in done]),
                                   "unit": "s"} for m, done in cells.items()},
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio"},
    })
    return metrics, failures, problems, attempted


def per_layer(workload, seed: int, seconds: float, tmp_root: str, started: float):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from e2e import cell_failures, run_child, warm_up
    from traced import METHODS, traced_run
    from workloads import experiment_seed, fresh_dataset

    instances = workload.plan_trace_instances(seconds)
    exp_seed = experiment_seed(seed, 0)
    limit = workload.trace_only_iters
    capped = "".join(f" {m}:{t}" + (f" (at most {limit} iterations)" if limit else "")
                     for m, t in workload.trace_only)
    print(f"plan: one untraced child of {instances} repetitions (volcd run --seed "
          f"{exp_seed}), then up to {instances} traced instances, as many as "
          f"{seconds:g} s allow, of cells "
          + " ".join(f"{m}:{t}" for m, t in workload.cells()) + capped)
    warm_up(ROOT)
    data = fresh_dataset(workload, tmp_root, seed, 0)
    workdir = os.path.join(tmp_root, "run0")
    os.makedirs(workdir)
    res = run_child(ROOT, workload.cli_args(exp_seed, instances, data), workdir,
                    DEADLINE_S - (time.perf_counter() - started))
    failures = cell_failures(workload, res, instances)
    child_cells = {}
    if res.table is not None:
        for rep, record in enumerate(res.table["raw"]):
            child_cells.update({(rep, k): c for k, c in record.items() if k != "rep"})
    metrics, traced_failures, attempted = traced_run(
        workload, exp_seed, instances, data,
        {cell: c["it"] for cell, c in child_cells.items()}, started + seconds)
    failures += traced_failures
    traced_reps = attempted // (len(workload.cells()) + len(workload.trace_only))
    print(f"traced {traced_reps} instances")
    child_tte = {}
    for (rep, _), cell in child_cells.items():
        if rep < traced_reps:
            child_tte.setdefault(cell["method"], []).append(cell["time"])
    print("per-layer metrics:")
    _print_metrics(metrics)
    print("per iteration, traced (us): draw + grad + apply + self = iteration; "
          "time to epsilon (s): untraced child median on the traced instances "
          "against preprocess + iters x iteration / overhead; overhead = traced / untraced replay")
    for method in METHODS:
        value = {name: metrics[f"{name}.{method}"]["value"] for name in (
            "sampling.draw_us", "objectives.grad_us", "objectives.apply_us",
            "solvers.self_us", "solvers.iter_us", "trace.overhead",
            "sampling.preprocess_s", "solvers.iters")}
        model = (value["sampling.preprocess_s"] + 1e-6 * value["solvers.iters"]
                 * value["solvers.iter_us"] / value["trace.overhead"])
        child = (f"{statistics.median(child_tte[method]):.4g}"
                 if method in child_tte else "not run")
        print(f"  {method:6s} {value['sampling.draw_us']:.4g} + "
              f"{value['objectives.grad_us']:.4g} + {value['objectives.apply_us']:.4g} + "
              f"{value['solvers.self_us']:.4g} = {value['solvers.iter_us']:.4g}; "
              f"tte {child} against {model:.4g}; "
              f"overhead x{value['trace.overhead']:.3f}")
    return metrics, failures, [], attempted


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds, so children are reaped and files removed


def main(argv=None) -> int:
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "volcd", "cli.py")):
        print(f"error: no volcd sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    print(f"workload: {workload.name} -- {workload.why}")
    print(f"seed: {args.seed}, seconds: {args.seconds:g}, trace: {args.trace}")
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        mode = per_layer if args.trace else end_to_end
        metrics, failures, problems, attempted = mode(
            workload, args.seed, args.seconds, tmp_root, started)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass  # another run's directory is still there
    for cell, why in failures:
        print(f"FAIL {' '.join(map(str, cell))}: {why}")
    for problem in problems:
        print(f"FAIL {problem}")
    failed = len({cell for cell, _ in failures})
    correct = (not failures and not problems
               and all(m["value"] is not None for m in metrics.values()))
    print(f"checks: {'passed' if correct else 'FAILED'}; {failed} of {attempted} "
          f"cells failed; {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
