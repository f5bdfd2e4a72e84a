"""Randomized block-coordinate solvers.

One iteration draws a coordinate subset S, solves the curvature-restricted
Newton system B[S, S] h = grad f(x)[S], and decrements x[S] by h.  The three
methods differ only in how S is drawn and how the subsystem is solved:

* ``rcdvs``: determinantal subset sampling, exact solve;
* ``rcd``: the same with subset size 1 (selection proportional to the
  diagonal of B);
* ``sdna``: uniform subsets (:class:`~volcd.sampling.UniformSampler`),
  exact solve with a pseudoinverse fallback for degenerate submatrices.

The determinantal draws come from :func:`~volcd.sampling.make_sampler`: the
sparse pair sampler for CSR B with tau = 2 where it accepts at least 1/64 of
its proposals, enumeration of all C(n, tau) minors while C(n, tau) <= tau *
n^2, and otherwise the spectral sampler, which eigendecomposes B once
(O(n^3) time, O(n^2) memory) and then costs O(tau^3 + tau log n) per draw;
a long run hands over to enumeration once its draws have cost as much as
the table's build.

This module holds a run's configuration (:class:`SolverConfig`), with the
one stop rule (:meth:`~SolverConfig.stop_rule`), its report
(:class:`SolverReport`) and the entry point (:func:`run`).  The loop, and
how a subset is stepped, are :func:`~volcd.objectives.steps`'s.  A run
ends with a status:
``"diverged"`` at the first non-finite value, ``"converged"`` at the target
gap, ``"budget"`` at the iteration budget, or ``"exhausted"`` when the
forced subsets run out; ``capped`` is derived from it.  :func:`run`
builds the run, reads the state only through ``value`` and ``x``, and
silences numpy's overflow warnings, which the status replaces; the steps
count, trace and ask the stop rule in one loop (see :func:`run`).

A run is strictly sequential; run several configs concurrently by giving
each its own seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import objectives
from .errors import ConfigError
from .linalg import require_finite, validate_index_set
from .rng import RngStream
from .sampling import UniformSampler, make_sampler

__all__ = ["SolverConfig", "SolverReport", "run"]

_METHODS = ("rcdvs", "rcd", "sdna")
_SAMPLE_CHUNK = 4096


@dataclass
class SolverConfig:
    """Everything a solver run depends on, including its randomness.

    Stopping: give ``max_iters`` (iteration budget K), or ``target_gap``
    together with the known optimal value ``f_star`` to stop as soon as
    f(x) - f_star <= target_gap, or both; :meth:`stop_rule` states the test.
    """

    method: str = "rcdvs"
    tau: int = 1
    max_iters: int | None = None
    target_gap: float | None = None
    f_star: float | None = None
    seed: int = 0
    x0: np.ndarray | None = None
    trace_every: int = 1
    forced_subsets: list | None = None
    record_subsets: bool = False

    def validate(self, n: int) -> None:
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if not 1 <= self.tau <= n:
            raise ConfigError(f"subset size {self.tau} out of range for n={n}")
        if self.method == "rcd" and self.tau != 1:
            raise ConfigError("rcd uses single-coordinate steps (tau = 1)")
        if self.max_iters is None and self.target_gap is None:
            raise ConfigError("need max_iters and/or target_gap")
        if self.max_iters is not None and self.max_iters < 0:
            raise ConfigError("max_iters must be nonnegative")
        if self.target_gap is not None:
            # a NaN gap is never reached; an infinite gap or f_star reads as
            # converged at iteration 0
            if not (math.isfinite(self.target_gap) and self.target_gap > 0):
                raise ConfigError("target_gap must be finite and positive")
            if self.f_star is None:
                raise ConfigError("target_gap mode needs the optimal value f_star")
            if not math.isfinite(self.f_star):
                raise ConfigError("f_star must be finite")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (n,) or not np.isfinite(x0).all():
                raise ConfigError(f"x0 must be a finite vector of length {n}")
        # checked here, before a run's clock starts, so a replay of recorded
        # subsets times the same loop as the sampled run
        for s in self.forced_subsets or ():
            validate_index_set(s, n)

    def stop_rule(self):
        """``ended(k, value)``: why a run whose k-th step reached ``value``
        ends there, else None.  In order: a non-finite value is
        ``"diverged"``, a gap value - f_star <= target_gap ``"converged"``,
        and k >= max_iters ``"budget"``.  A closure, so that the step loop
        looks up no attribute."""
        gap, f_star = self.target_gap, self.f_star
        limit = math.inf if self.max_iters is None else self.max_iters
        isfinite = math.isfinite

        def ended(k, value):
            if not isfinite(value):
                return "diverged"
            if gap is not None and value - f_star <= gap:
                return "converged"
            return "budget" if k >= limit else None

        return ended


@dataclass
class SolverReport:
    """Outcome of one solver run.  ``status`` is ``"converged"``,
    ``"budget"``, ``"diverged"`` or ``"exhausted"`` (the forced subsets ran
    out); ``capped`` is derived from it, true in target-gap mode unless the
    run converged."""

    method: str
    tau: int
    iterations: int
    final_value: float
    x_final: np.ndarray
    trace: list[tuple[int, float]]
    wall_time: float
    seed: int
    status: str
    capped: bool = False
    subsets: list | None = None


# ---------------------------------------------------------------------------
# Main loop


def run(obj, b, config: SolverConfig):
    """Execute one solver run and return its :class:`SolverReport`.

    ``b`` is the curvature matrix certifying the smoothness of ``obj`` (or a
    user-supplied upper bound); it is taken as given and not re-verified,
    except that a dense B with a non-finite entry raises ``ValueError``.
    This is the one solver entry point: it dispatches on ``config.method``.

    ``run`` checks the config, builds the state and the subset stream, and
    asks the stop rule at the start; :func:`~volcd.objectives.steps` runs
    the loop, which counts, traces and asks the stop rule after each step,
    and ``run`` reports its outcome.

    A window's values fall, so asking the stop rule at the last of them
    stops where the per-step path stops.  A lazy block's last value is not
    above its first, which the steps check, but its other values are
    unseen: the stop rule is asked at its end alone.  When B bounds f they
    fall from first to last, and a lazy run stops at the per-step run's
    step up to rounding at the target, where a value inside a block may
    round to the target while the block's end rounds above it.  When B
    does not bound f, a value inside a block may meet the target while the
    block's end does not, and the run takes the block and stops later.
    """
    n = obj.n
    config.validate(n)
    require_finite(b)
    start = time.perf_counter()

    x0 = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float)
    state = obj.init_state(x0)
    rng = RngStream(config.seed)
    log: list | None = [] if config.record_subsets else None
    forced = config.forced_subsets
    if forced is None:
        # the stream logs each subset when a step takes it, one at a time or
        # a window at a time
        subsets = (UniformSampler(n, config.tau) if config.method == "sdna"
                   else make_sampler(b, config.tau)).draws(rng, _SAMPLE_CHUNK, log)
    else:
        forced = [np.asarray(s, dtype=np.int64) for s in forced]
        subsets = iter(forced)

    value = state.value
    trace = [(0, float(value))]
    ended = config.stop_rule()
    k = 0
    status = ended(0, value)
    if status is None:
        # a diverging run overflows on its way to its "diverged" value
        with np.errstate(over="ignore", invalid="ignore"):
            points, k, value, status = objectives.steps(
                state, subsets, b, config.method != "sdna", config.trace_every, ended)
        trace += points

    if trace[-1][0] != k:
        trace.append((k, float(value)))
    if forced is not None and log is not None:
        log = forced[:k]
    return SolverReport(
        method=config.method,
        tau=config.tau,
        iterations=k,
        final_value=float(value),
        x_final=state.x.copy(),
        trace=trace,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
        status=status,
        capped=config.target_gap is not None and status != "converged",
        subsets=log,
    )
