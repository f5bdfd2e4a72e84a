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
sparse pair sampler for CSR B with tau = 2, enumeration of all C(n, tau)
minors while C(n, tau) <= tau * n^2, and otherwise the spectral sampler,
which eigendecomposes B once (O(n^3) time, O(n^2) memory) and then costs
O(tau^3 + tau log n) per draw; a long run hands over to enumeration once
its draws have cost as much as the table's build.

The solve dispatches on the size of the subset it is given, not on the
configured ``tau``, so a forced subset of any size gets its own Newton step.
Closed forms for one to three coordinates read the diagonal of B and its
off-diagonal entries in S; larger subsets gather B[S, S] and factor it by
Cholesky.  Dense and sparse B take the same path.  Every size applies one
rule to a singular block: :class:`SingularSubmatrix` under the exact methods,
the pseudoinverse step under ``sdna``.

A run stops at the iteration budget, at the target gap, or at the first
non-finite objective value; in target-gap mode a diverged run is reported as
capped.  :func:`run` has one loop over :func:`~volcd.objectives.steps`,
which steps the state and yields its value; the loop counts, traces and
tests for a stop, and reads the state only through ``value`` and ``x``.  A
sparse separable state under a rowwise loss takes a fused step, bitwise the
run of its methods.  A sampled run of one to three coordinates per step
(rcd:1, rcdvs:1 to rcdvs:3, sdna:1 to sdna:3) on a dense quadratic with a
dense B takes windowed steps: each window of up to 48 coordinates' steps is
one block lower-triangular solve, and ``solve.regular``, the closed forms'
pivot tests vectorized over a slice of the stream's subsets, picks the
blocks it may solve.  A window yields the values of its steps before the
last as one float64 array, which the loop takes whole when no step in it
can stop the run or be traced, and walks value by value otherwise.  They
agree with the per-step path through the state's methods, which forced
subsets replay, to rounding rather than bitwise: 1e-10 relative in the
tests, 1.5e-12 at worst measured, with equal iteration counts and, on a
diverging run, the same stopping step.

A run is strictly sequential; run several configs concurrently by giving
each its own seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import objectives
from .errors import ConfigError, SingularSubmatrix
from .linalg import (
    gather_submatrix,
    pseudo_solve,
    require_finite,
    spd_solve,
    validate_index_set,
)
from .rng import RngStream
from .sampling import UniformSampler, make_sampler

__all__ = [
    "SolverConfig",
    "SolverReport",
    "check_stop",
    "run",
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


def check_stop(k: int, value: float, config: SolverConfig) -> bool:
    """True once the iteration budget or the target gap is reached, or once
    the value is no longer finite (a diverged run)."""
    if not math.isfinite(value):
        return True
    if config.target_gap is not None:
        if config.f_star is None:
            raise ConfigError("target_gap mode needs the optimal value f_star")
        if value - config.f_star <= config.target_gap:
            return True
    return config.max_iters is not None and k >= config.max_iters


# ---------------------------------------------------------------------------
# Subsystem solves


def _make_step_solver(b, exact: bool):
    """Return h = solve(S, g), the solution of B[S, S] h = g, by the size of
    S: closed forms for one to three coordinates read B through its diagonal
    and ``item``, larger subsets gather B[S, S] and factor it.  A block with
    a leading pivot that is not positive (NaN included) is singular: it
    raises :class:`SingularSubmatrix` if ``exact``, and is solved by the
    pseudoinverse otherwise.

    ``solve.one(i, g1)`` and ``solve.two(i, j, g1, g2)`` are the closed forms
    on Python floats, for the fused sparse separable step of
    :func:`~volcd.objectives.steps`.  For its windowed dense steps,
    ``solve.matrix`` is B itself and ``solve.regular(d, o)`` is the pivot
    test of the closed form for one to three coordinates, vectorized over a
    stack of blocks (``d`` their diagonals, ``o`` their strictly upper
    entries in row order): True where that closed form solves the block, so
    the window solves exactly the blocks the per-step path does."""
    diag = b.diagonal().tolist()
    pair = b.item

    def one(i, g1):
        d = diag[i]
        if d > 0.0:
            return g1 / d
        if exact:
            raise SingularSubmatrix("zero diagonal pivot")
        return 0.0

    def two(i, j, g1, g2):
        aa, bb, cc = diag[i], diag[j], pair(i, j)
        det = aa * bb - cc * cc
        if det > 0.0 and aa > 0.0:
            return (bb * g1 - cc * g2) / det, (aa * g2 - cc * g1) / det
        if exact:
            raise SingularSubmatrix("singular 2x2 submatrix")
        h1, h2 = pseudo_solve(np.array([[aa, cc], [cc, bb]]), np.array([g1, g2])).tolist()
        return h1, h2

    def three(i, j, k, g1, g2, g3):
        # B[S, S] = L D L' with unit lower L; each pivot is checked before
        # it divides
        d1 = diag[i]
        if d1 > 0.0:
            p, q = pair(i, j), pair(i, k)
            l21, l31 = p / d1, q / d1
            d2 = diag[j] - p * l21
            if d2 > 0.0:
                t = pair(j, k) - q * l21
                l32 = t / d2
                d3 = diag[k] - q * l31 - t * l32
                if d3 > 0.0:
                    y2 = g2 - l21 * g1
                    h3 = (g3 - l31 * g1 - l32 * y2) / d3
                    h2 = y2 / d2 - l32 * h3
                    return g1 / d1 - l21 * h2 - l31 * h3, h2, h3
        if exact:
            raise SingularSubmatrix("singular 3x3 submatrix")
        sub = gather_submatrix(b, np.array([i, j, k], dtype=np.int64))
        h1, h2, h3 = pseudo_solve(sub, np.array([g1, g2, g3])).tolist()
        return h1, h2, h3

    def regular(d, o):
        # the pivot tests of one, two and three, expression for expression,
        # on stacked blocks of one size: d[:, r] = B[s_r, s_r], and o holds
        # B[s_r, s_c] for r < c in row order
        size = d.shape[1]
        if size == 1:
            return d[:, 0] > 0.0
        if size == 2:
            aa, bb, cc = d[:, 0], d[:, 1], o[:, 0]
            return (aa * bb - cc * cc > 0.0) & (aa > 0.0)
        d1, (p, q, r) = d[:, 0], o.T
        # three divides only after a pivot passed; here a failed pivot's
        # later expressions may divide by zero, and their results are unused
        with np.errstate(all="ignore"):
            l21, l31 = p / d1, q / d1
            d2 = d[:, 1] - p * l21
            t = r - q * l21
            l32 = t / d2
            d3 = d[:, 2] - q * l31 - t * l32
        return (d1 > 0.0) & (d2 > 0.0) & (d3 > 0.0)

    closed = (None, one, two, three)

    def solve(s, g):
        size = s.size
        if size <= 3:
            return np.array(closed[size](*s.tolist(), *g.tolist()), ndmin=1)
        sub = gather_submatrix(b, s)
        try:
            return spd_solve(sub, g)
        except SingularSubmatrix:
            if exact:
                raise
            return pseudo_solve(sub, g)

    solve.one, solve.two, solve.regular, solve.matrix = one, two, regular, b
    return solve


# ---------------------------------------------------------------------------
# Main loop


def run(obj, b, config: SolverConfig):
    """Execute one solver run and return its :class:`SolverReport`.

    ``b`` is the curvature matrix certifying the smoothness of ``obj`` (or a
    user-supplied upper bound); it is taken as given and not re-verified,
    except that a dense B with a non-finite entry raises ``ValueError``.
    This is the one solver entry point: it dispatches on ``config.method``.

    The steps yield a float per step, or a window's block of values as one
    1-d array: a block is taken whole when its steps are neither traced nor
    at the budget and its last value, the least, is off the gap; otherwise
    its values are walked one by one as floats are, and a stop inside it
    sends the window the number of its steps taken, which it applies.
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
    solve = _make_step_solver(b, exact=config.method != "sdna")

    value = state.value
    trace = [(0, float(value))]
    trace_every, f_star, gap = config.trace_every, config.f_star, config.target_gap
    limit = math.inf if config.max_iters is None else config.max_iters
    isfinite, ndarray = math.isfinite, np.ndarray
    k = 0
    if not check_stop(0, value, config):
        stepper = objectives.steps(state, subsets, solve)
        for value in stepper:
            if type(value) is ndarray and value.ndim:
                # a window's block of values: taken whole when none of its
                # steps is traced or reaches the budget, and its last value,
                # the least, misses the gap by check_stop's own expression
                k0, end = k, k + value.size
                if end < limit and end // trace_every == k // trace_every and (
                        gap is None or value[-1] - f_star > gap):
                    k = end
                    continue
                # otherwise it is walked with the float path's expressions
                for value in value.tolist():
                    k += 1
                    if k % trace_every == 0:
                        trace.append((k, value))
                    if not isfinite(value) or (gap is not None and value - f_star <= gap) or k >= limit:
                        break
                else:
                    continue
                # the window applies the block's steps up to this one, and ends
                try:
                    stepper.send(k - k0)
                except StopIteration:
                    pass
                break
            k += 1
            if k % trace_every == 0:
                trace.append((k, float(value)))
            # check_stop's tests, in its order and with its expressions
            if not isfinite(value) or (gap is not None and value - f_star <= gap) or k >= limit:
                break
        # a window applies the steps whose values it yielded on close
        stepper.close()

    if trace[-1][0] != k:
        trace.append((k, float(value)))
    if forced is not None and log is not None:
        log = forced[:k]
    # in target-gap mode a diverged run (inf or NaN value) counts as capped
    capped = gap is not None and not (isfinite(value) and value - f_star <= gap)
    return SolverReport(
        method=config.method,
        tau=config.tau,
        iterations=k,
        final_value=float(value),
        x_final=state.x.copy(),
        trace=trace,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
        capped=capped,
        subsets=log,
    )
