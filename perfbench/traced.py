"""Traced run: per-layer numbers from timing calls into the public API.

For every instance and cell the solver runs three times with the seeds of the
end-to-end run:

* ``a``: ``run()`` on a proxy objective whose state times the solver loop
  around ``partial_gradient`` and ``apply_step``, recording the subsets drawn;
* ``b``: the same with ``forced_subsets`` set to those subsets, which bypasses
  the sampler, so ``a - b`` is the sampling layer of whatever sampler
  ``run()`` picks;
* ``u``: the replay of ``b`` on the real objective, untraced, the reference
  for the tracing overhead.

Gradient, solve and apply times per iteration come from ``b``; ``self`` is
``b``'s iteration time minus gradient and apply, that is the subsystem solve
plus loop bookkeeping and the state's initialisation.  The traced iteration
time is ``a``'s run time less the sampler preprocessing, so
``draw + grad + apply + self`` is that time split into layers, and ``b``
over ``u`` is the tracing overhead.  The checks compare ``a``, ``b`` and
``u`` with the untraced ``volcd run`` child: equal iterations and bitwise
equal iterates.

Set-up functions and the public sampler constructors are timed standalone,
the constructors just before ``a``.  Times here are raw, and where a
sampler's preprocessing dwarfs its draws (enumeration on dense-tau3) the
draw time is below what subtracting two preprocessing times can resolve.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from volcd.linalg import CsrSymmetricUpper, eigendecompose
from volcd.problems import ProblemSpec, generate, load_libsvm, read_libsvm, reference_min
from volcd.sampling import SparseTwoSampler, VolumeSampler
from volcd.solvers import SolverConfig, run

METHODS = ("rcd", "rcdvs", "sdna")
DRIFT_TOL = 1e-9


class _TimedState:
    """Delegating solver state that times the solver loop around its calls.

    Per iteration the loop draws a subset, calls ``partial_gradient``, solves
    the subsystem and calls ``apply_step``.  The clock sums the time inside
    the two calls and the time between them, which is the solve.
    """

    def __init__(self, inner, clock: dict):
        self._inner = inner
        self._clock = clock
        self._last = time.perf_counter()

    @property
    def value(self):
        return self._inner.value

    @property
    def x(self):
        return self._inner.x

    def partial_gradient(self, s):
        t0 = time.perf_counter()
        g = self._inner.partial_gradient(s)
        t1 = time.perf_counter()
        self._clock["grad_s"] += t1 - t0
        self._clock["grad_calls"] += 1
        self._last = t1
        return g

    def apply_step(self, s, h):
        t0 = time.perf_counter()
        self._inner.apply_step(s, h)
        t1 = time.perf_counter()
        self._clock["solve_s"] += t0 - self._last
        self._clock["apply_s"] += t1 - t0
        self._clock["apply_calls"] += 1


class _TimedObjective:
    def __init__(self, obj):
        self._obj = obj
        self.n = obj.n
        self.clock = {"grad_s": 0.0, "grad_calls": 0, "solve_s": 0.0,
                      "apply_s": 0.0, "apply_calls": 0}

    def init_state(self, x0):
        return _TimedState(self._obj.init_state(x0), self.clock)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def build_sampler(method: str, b, tau: int):
    """The public sampler constructor for a cell; ``None`` for sdna.

    Mirrors the solver's choice: the sparse pair sampler for CSR curvature
    and tau = 2, full enumeration otherwise; sdna draws uniform subsets and
    has no preprocessing.
    """
    if method == "sdna":
        return None
    if isinstance(b, CsrSymmetricUpper) and tau == 2:
        return SparseTwoSampler(b)
    return VolumeSampler(b, tau)


def _preprocess_peak_mb(method: str, b, tau: int) -> float:
    tracemalloc.start()
    try:
        build_sampler(method, b, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def instance_seeds(exp_seed: int, reps: int, n_cells: int):
    """(problem seed, per-cell solver seeds) per repetition, as run_experiment
    derives them from the experiment seed."""
    out = []
    for seq in np.random.SeedSequence(exp_seed).spawn(reps):
        prob_seq, solver_seq = seq.spawn(2)
        solver = [int(c.generate_state(1)[0]) for c in solver_seq.spawn(n_cells)]
        out.append((int(prob_seq.generate_state(1)[0]), solver))
    return out


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def traced_run(workload, exp_seed: int, instances: int, dataset_path: str | None,
               child_iters: dict, deadline: float) -> tuple[dict, list, int]:
    """Trace up to ``instances`` repetitions of the experiment with seed ``exp_seed``.

    The first repetition always runs; a later one starts only before
    ``deadline`` (a ``time.perf_counter`` value).  ``child_iters`` maps
    (rep, "method:tau") to the iterations the untraced ``volcd run`` child
    reported, for the determinism check.  Returns the per-layer metrics,
    ``((rep, "method:tau"), reason)`` failures and the number of cells
    attempted.
    """
    traced_cells = [(m, t, False) for m, t in workload.cells()]
    traced_cells += [(m, t, True) for m, t in workload.trace_only]
    seeds = instance_seeds(exp_seed, instances, len(traced_cells))
    setup = {"generate_s": [], "read_libsvm_s": [], "reference_min_s": [],
             "eigendecompose_s": [], "curvature_s": []}
    per = {m: {"pre_s": [], "pre_mb": None, "ta": 0.0, "tb": 0.0, "tu": 0.0,
               "iters": [], "sampling_s": [], "grad_calls": [], "apply_calls": [],
               "grad_s": 0.0, "solve_s": 0.0, "apply_s": 0.0, "drift": 0.0}
           for m in METHODS}
    reasons: list = []

    dataset_obj = None
    if dataset_path is not None:
        _, t_read = _timed(read_libsvm, dataset_path)
        setup["read_libsvm_s"].append(t_read)
        dataset_obj = load_libsvm(dataset_path, gamma=workload.dataset["gamma"])
        dataset_fstar, t_ref = _timed(reference_min, dataset_obj)
        setup["reference_min_s"].append(t_ref)

    done = 0
    for rep, (prob_seed, solver_seeds) in enumerate(seeds):
        if rep and time.perf_counter() > deadline:
            break
        done += 1
        if dataset_obj is not None:
            obj, f_star = dataset_obj, dataset_fstar
        else:
            spec = replace(ProblemSpec(**workload.problem), seed=prob_seed)
            (obj, _, f_star), t_gen = _timed(generate, spec)
            setup["generate_s"].append(t_gen)
        b, t_curv = _timed(obj.curvature_matrix)
        setup["curvature_s"].append(t_curv)
        if dataset_obj is not None and rep == 0:
            dense = b.to_dense() if isinstance(b, CsrSymmetricUpper) else b
            _, t_eig = _timed(eigendecompose, dense)
            setup["eigendecompose_s"].append(t_eig)

        for (method, tau, trace_only), solver_seed in zip(traced_cells, solver_seeds):
            key = f"{method}:{tau}"
            acc = per[method]
            if acc["pre_mb"] is None:
                acc["pre_mb"] = _preprocess_peak_mb(method, b, tau)

            capped = trace_only and workload.trace_only_iters is not None
            budget = (workload.trace_only_iters if capped
                      else max(1, workload.max_updates // tau))
            cfg = SolverConfig(method=method, tau=tau, target_gap=workload.epsilon,
                               f_star=f_star, max_iters=budget, seed=solver_seed,
                               trace_every=2**62)
            _, t_pre = _timed(build_sampler, method, b, tau)
            proxy_a = _TimedObjective(obj)
            a = run(proxy_a, b, replace(cfg, record_subsets=True))
            proxy_b = _TimedObjective(obj)
            rb = run(proxy_b, b, replace(cfg, forced_subsets=a.subsets))
            u = run(obj, b, replace(cfg, forced_subsets=a.subsets))

            acc["pre_s"].append(t_pre)
            acc["ta"] += a.wall_time
            acc["tb"] += rb.wall_time
            acc["tu"] += u.wall_time
            acc["iters"].append(a.iterations)
            acc["sampling_s"].append(a.wall_time - rb.wall_time)
            for part in ("grad_s", "solve_s", "apply_s"):
                acc[part] += proxy_b.clock[part]
            acc["grad_calls"].append(proxy_b.clock["grad_calls"])
            acc["apply_calls"].append(proxy_b.clock["apply_calls"])

            where = (rep, key)
            its = {a.iterations, rb.iterations, u.iterations}
            if (rep, key) in child_iters:
                its.add(child_iters[(rep, key)])
            if len(its) != 1:
                reasons.append((where, f"iterations differ between runs {sorted(its)}"))
            if not _bits(a.x_final) == _bits(rb.x_final) == _bits(u.x_final):
                reasons.append((where, "replayed iterates are not bitwise equal"))

            full = obj.value(a.x_final)
            drift = abs(a.final_value - full) / max(abs(full), workload.epsilon)
            acc["drift"] = max(acc["drift"], drift) if math.isfinite(drift) else math.inf
            if not drift <= DRIFT_TOL:
                reasons.append((where, f"incremental value drifted by {drift:.3g}"))
            gap = full - f_star
            if not math.isfinite(gap):
                reasons.append((where, f"final gap {gap}"))
            elif not capped and gap > workload.epsilon:
                reasons.append((where, f"final gap {gap:.6g} above epsilon"))
            if not capped and a.iterations >= budget:
                reasons.append((where, f"reached the budget {budget}"))

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for method in METHODS:
        acc = per[method]
        iters = sum(acc["iters"])
        pre = sum(acc["pre_s"])
        put(f"sampling.preprocess_s.{method}", statistics.median(acc["pre_s"]), "s")
        put(f"sampling.preprocess_mb.{method}", acc["pre_mb"], "MB")
        put(f"sampling.total_s.{method}", statistics.median(acc["sampling_s"]), "s")
        put(f"sampling.draw_us.{method}", 1e6 * (acc["ta"] - acc["tb"] - pre) / iters, "us")
        put(f"objectives.grad_us.{method}", 1e6 * acc["grad_s"] / iters, "us")
        put(f"objectives.apply_us.{method}", 1e6 * acc["apply_s"] / iters, "us")
        put(f"objectives.grad_calls.{method}", statistics.median(acc["grad_calls"]), "count")
        put(f"objectives.apply_calls.{method}", statistics.median(acc["apply_calls"]), "count")
        put(f"objectives.drift.{method}", acc["drift"], "ratio")
        put(f"solvers.solve_us.{method}", 1e6 * acc["solve_s"] / iters, "us")
        put(f"solvers.self_us.{method}",
            1e6 * (acc["tb"] - acc["grad_s"] - acc["apply_s"]) / iters, "us")
        put(f"solvers.iter_us.{method}", 1e6 * (acc["ta"] - pre) / iters, "us")
        put(f"solvers.iters.{method}", statistics.median(acc["iters"]), "count")
        put(f"trace.overhead.{method}", acc["tb"] / acc["tu"], "ratio")
    put("objectives.curvature_s", statistics.median(setup["curvature_s"]), "s")
    for name, layer in (("generate_s", "problems"), ("read_libsvm_s", "problems"),
                        ("reference_min_s", "problems"), ("eigendecompose_s", "linalg")):
        # zero where the workload never calls the function
        values = setup[name]
        put(f"{layer}.{name}", statistics.median(values) if values else 0.0, "s")
    return metrics, reasons, done * len(traced_cells)
