"""Randomized block-coordinate solvers.

One iteration draws a coordinate subset S, solves the curvature-restricted
Newton system B[S, S] h = grad f(x)[S], and decrements x[S] by h.  The three
methods differ only in how S is drawn and how the subsystem is solved:

* ``rcdvs``: determinantal subset sampling, exact solve;
* ``rcd``: the same with subset size 1 (selection proportional to the
  diagonal of B);
* ``sdna``: uniform subsets without replacement, pseudoinverse solve so that
  degenerate submatrices are tolerated.

For subsets of one or two coordinates the solve is closed form on dense and
sparse B alike, reading only the diagonal and the one off-diagonal entry;
a singular block raises :class:`SingularSubmatrix` under the exact methods
and falls back to the pseudoinverse under ``sdna``.  Larger subsets extract
B[S, S] and factor it (Cholesky, or the pseudoinverse for ``sdna``).

A run stops at the iteration budget, at the target gap, or at the first
non-finite objective value; in target-gap mode a diverged run is reported as
capped.

A run is strictly sequential; run several configs concurrently by giving
each its own seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularSubmatrix
from .linalg import (
    CsrSymmetricUpper,
    principal_submatrix,
    pseudo_solve,
    spd_solve,
    validate_index_set,
)
from .rng import RngStream
from .sampling import SparseTwoSampler, VolumeSampler, tau_nice_sample

__all__ = [
    "SolverConfig",
    "SolverReport",
    "check_stop",
    "rcd_run",
    "rcdvs_run",
    "run",
    "sdna_run",
]

_METHODS = ("rcdvs", "rcd", "sdna")
_SAMPLE_CHUNK = 4096


@dataclass
class SolverConfig:
    """Everything a solver run depends on, including its randomness.

    Stopping: give ``max_iters`` (iteration budget K), or ``target_gap``
    together with the known optimal value ``f_star`` to stop as soon as
    f(x) - f_star <= target_gap, or both.
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
            if self.target_gap <= 0:
                raise ConfigError("target_gap must be positive")
            if self.f_star is None:
                raise ConfigError("target_gap mode needs the optimal value f_star")
        if self.trace_every < 1:
            raise ConfigError("trace_every must be at least 1")
        # checked here, before a run's clock starts, so a replay of recorded
        # subsets times the same loop as the sampled run
        for s in self.forced_subsets or ():
            validate_index_set(s, n)


@dataclass
class SolverReport:
    """Outcome of one solver run."""

    method: str
    tau: int
    iterations: int
    final_value: float
    x_final: np.ndarray
    trace: list[tuple[int, float]]
    wall_time: float
    seed: int
    capped: bool = False
    subsets: list | None = None

    def write_trace(self, fh) -> None:
        """Line-oriented trace records "k,f" at the configured cadence."""
        for k, f in self.trace:
            fh.write(f"{k},{f!r}\n")


def _gap_reached(value: float, config: SolverConfig) -> bool:
    """In target-gap mode: the value is finite and within the target gap."""
    return math.isfinite(value) and value - config.f_star <= config.target_gap


def check_stop(k: int, value: float, config: SolverConfig) -> bool:
    """True once the iteration budget or the target gap is reached, or once
    the value is no longer finite (a diverged run)."""
    if not math.isfinite(value):
        return True
    if config.target_gap is not None:
        if config.f_star is None:
            raise ConfigError("target_gap mode needs the optimal value f_star")
        if _gap_reached(value, config):
            return True
    return config.max_iters is not None and k >= config.max_iters


# ---------------------------------------------------------------------------
# Subset streams and subsystem solves


class _UniformSubsets:
    def __init__(self, n: int, tau: int):
        self.n, self.tau = n, tau

    def draws(self, rng: RngStream, _chunk: int):
        # one generator call per subset, so the stream ignores the chunk size
        while True:
            yield tau_nice_sample(self.n, self.tau, rng)


def _make_sampler(method: str, b, tau: int, n: int):
    if method == "sdna":
        return _UniformSubsets(n, tau)
    if isinstance(b, CsrSymmetricUpper) and tau == 2:
        return SparseTwoSampler(b)
    return VolumeSampler(b, tau)


def _subset_stream(config: SolverConfig, sampler, rng: RngStream):
    if config.forced_subsets is not None:
        return (np.asarray(s, dtype=np.int64) for s in config.forced_subsets)
    return sampler.draws(rng, _SAMPLE_CHUNK)


def _make_step_solver(b, tau: int, exact: bool):
    """Return h = solve(B[S, S], g): closed forms for tau <= 2 read B through
    its diagonal and a pair lookup, larger subsets factor B[S, S]."""
    if tau > 2:

        def solve_general(s, g):
            sub = principal_submatrix(b, s)
            if exact:
                return spd_solve(sub, g)
            return pseudo_solve(sub, g)

        return solve_general

    if isinstance(b, CsrSymmetricUpper):
        pair = b.entry
    else:
        b = np.asarray(b, dtype=float)
        pair = b.item
    diag = b.diagonal()

    if tau == 1:

        def solve1(s, g):
            d = diag[s[0]]
            if d > 0.0:
                return g / d
            if exact:
                raise SingularSubmatrix("zero diagonal pivot")
            return np.zeros(1)

        return solve1

    def solve2(s, g):
        i, j = s
        aa, bb, cc = diag[i], diag[j], pair(i, j)
        det = aa * bb - cc * cc
        if det > 0.0 and aa > 0.0:
            return np.array(
                [(bb * g[0] - cc * g[1]) / det, (aa * g[1] - cc * g[0]) / det]
            )
        if exact:
            raise SingularSubmatrix("singular 2x2 submatrix")
        return pseudo_solve(np.array([[aa, cc], [cc, bb]]), g)

    return solve2


# ---------------------------------------------------------------------------
# Main loop


def run(obj, b, config: SolverConfig):
    """Execute one solver run and return its :class:`SolverReport`.

    ``b`` is the curvature matrix certifying the smoothness of ``obj`` (or a
    user-supplied upper bound); it is taken as given and not re-verified.
    Dispatches on ``config.method``.
    """
    n = obj.n
    config.validate(n)
    start = time.perf_counter()

    x0 = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float)
    state = obj.init_state(x0)
    rng = RngStream(config.seed)
    sampler = None
    if config.forced_subsets is None:
        sampler = _make_sampler(config.method, b, config.tau, n)
    subsets = _subset_stream(config, sampler, rng)
    solve = _make_step_solver(b, config.tau, exact=config.method != "sdna")

    trace = [(0, float(state.value))]
    log: list | None = [] if config.record_subsets else None
    trace_every = config.trace_every
    k = 0
    stopped = check_stop(k, state.value, config)
    while not stopped:
        try:
            s = next(subsets)
        except StopIteration:
            break  # forced subset sequence exhausted
        g = state.partial_gradient(s)
        h = solve(s, g)
        state.apply_step(s, h)
        if log is not None:
            log.append(s)
        k += 1
        if k % trace_every == 0:
            trace.append((k, float(state.value)))
        stopped = check_stop(k, state.value, config)

    if trace[-1][0] != k:
        trace.append((k, float(state.value)))
    # in target-gap mode a diverged run (inf or NaN value) counts as capped
    capped = config.target_gap is not None and not _gap_reached(state.value, config)
    return SolverReport(
        method=config.method,
        tau=config.tau,
        iterations=k,
        final_value=float(state.value),
        x_final=state.x.copy(),
        trace=trace,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
        capped=capped,
        subsets=log,
    )


def rcdvs_run(obj, b, config: SolverConfig) -> SolverReport:
    """Determinantal-sampling coordinate descent (the main method)."""
    if config.method != "rcdvs":
        raise ConfigError(f"config.method is {config.method!r}, expected 'rcdvs'")
    return run(obj, b, config)


def rcd_run(obj, b, config: SolverConfig) -> SolverReport:
    """Single-coordinate descent, selection proportional to diag(B)."""
    if config.method != "rcd":
        raise ConfigError(f"config.method is {config.method!r}, expected 'rcd'")
    return run(obj, b, config)


def sdna_run(obj, b, config: SolverConfig) -> SolverReport:
    """Uniform-subset baseline with pseudoinverse subsystem solves."""
    if config.method != "sdna":
        raise ConfigError(f"config.method is {config.method!r}, expected 'sdna'")
    return run(obj, b, config)
