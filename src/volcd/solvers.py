"""Randomized block-coordinate solvers.

One iteration draws a coordinate subset S, solves the curvature-restricted
Newton system B[S, S] h = grad f(x)[S], and decrements x[S] by h.  The three
methods differ only in how S is drawn and how the subsystem is solved:

* ``rcdvs``: determinantal subset sampling, exact solve;
* ``rcd``: the same with subset size 1 (selection proportional to the
  diagonal of B);
* ``sdna``: uniform subsets without replacement, exact solve with a
  pseudoinverse fallback so that degenerate submatrices are tolerated.

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
capped.

The loop is picked once per run from the type of the objective's state.  Two
kinds of state take a fused loop, in which a step of one or two coordinates
reads its gradient entries as Python floats and solves by the closed forms,
with no call into the state's public methods:

* a dense :class:`~volcd.objectives.QuadraticObjective` updates the
  maintained gradient by one in-place axpy per coordinate;
* a sparse :class:`~volcd.objectives.SeparableObjective` with a rowwise loss,
  bare or inside a :class:`~volcd.objectives.RegularizedObjective`, updates
  x and the ridge's squared norm on floats and each column through the
  state's own column update.

Larger steps in either fused loop call the general solve and the state's
update.  Every other state, and any state that offers only ``value``, ``x``,
``partial_gradient`` and ``apply_step``, goes through those four.  A fused
loop performs the same floating-point operations in the same order, so both
loops give bitwise the same subsets, iterates, values, trace, refresh steps
and stopping step.

A run is strictly sequential; run several configs concurrently by giving
each its own seed.
"""

from __future__ import annotations

import itertools
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
from .sampling import make_sampler, tau_nice_sample

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
# Subsystem solves


def _make_step_solver(b, exact: bool):
    """Return h = solve(S, g), the solution of B[S, S] h = g, by the size of
    S: closed forms for one to three coordinates read B through its diagonal
    and ``item``, larger subsets gather B[S, S] and factor it.  A block with
    a leading pivot that is not positive (NaN included) is singular: it
    raises :class:`SingularSubmatrix` if ``exact``, and is solved by the
    pseudoinverse otherwise.

    The closed forms take and return Python floats; ``solve`` carries them
    as ``solve.one(i, g1)`` and ``solve.two(i, j, g1, g2)`` for the fused
    loops of :func:`run`, which never build an array for them."""
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

    solve.one, solve.two = one, two
    return solve


# ---------------------------------------------------------------------------
# Main loop


def _generic_loop(state, subsets, solve, config, trace, log) -> int:
    """Iterate through the state's public methods until a stop; return the
    number of iterations."""
    trace_every = config.trace_every
    k = 0
    for s in subsets:  # a forced subset sequence may run out first
        g = state.partial_gradient(s)
        h = solve(s, g)
        state.apply_step(s, h)
        if log is not None:
            log.append(s)
        k += 1
        if k % trace_every == 0:
            trace.append((k, float(state.value)))
        if check_stop(k, state.value, config):
            break
    return k


def _dense_quadratic_loop(state, subsets, solve, config, trace, log) -> int:
    """:func:`_generic_loop` fused for a dense quadratic state.

    Steps of one or two coordinates run on Python floats: the gradient
    entries come from ``g.item``, the closed forms of ``solve`` give the
    step, each coordinate updates g = Ax - b by one in-place axpy with row
    i of A, and the value changes by the state's own expression.  Every
    operation is the one ``apply_step`` does, in the same order, so the
    iterates, values and stops are bitwise those of the generic loop.
    Larger steps call ``solve`` and the state's ``_apply``.  The value, the
    refresh count and ``check_stop``'s tests live in the loop body.
    """
    one, two = solve.one, solve.two
    x, a = state.x, state._op
    g, value, steps = state._g, state._value, state._steps
    tmp = np.empty_like(g)
    multiply, subtract, isfinite = np.multiply, np.subtract, math.isfinite
    interval = objectives.REFRESH_INTERVAL
    trace_every = config.trace_every
    f_star, gap = config.f_star, config.target_gap
    limit = math.inf if config.max_iters is None else config.max_iters
    k = 0
    for s in subsets:
        size = s.size
        if size == 1:
            i = s.item(0)
            gi = g.item(i)
            h = one(i, gi)
            x[i] -= h
            multiply(a[i], h, out=tmp)  # row view; symmetric, so row i is column i
            subtract(g, tmp, out=g)
            value -= 0.5 * h * (gi + g.item(i))
        elif size == 2:
            i, j = s.tolist()
            gi, gj = g.item(i), g.item(j)
            hi, hj = two(i, j, gi, gj)
            x[i] -= hi
            x[j] -= hj
            multiply(a[i], hi, out=tmp)
            subtract(g, tmp, out=g)
            multiply(a[j], hj, out=tmp)
            subtract(g, tmp, out=g)
            value -= 0.5 * (hi * (gi + g.item(i)) + hj * (gj + g.item(j)))
        else:
            state._value = value
            state._apply(s, solve(s, g[s]))
            value = state._value
        if log is not None:
            log.append(s)
        k += 1
        steps += 1
        if steps >= interval:
            state._value = value
            state.refresh()
            g, value, steps = state._g, state._value, 0
        if k % trace_every == 0:
            trace.append((k, float(value)))
        # check_stop's tests, in its order and with its expressions
        if not isfinite(value) or (gap is not None and value - f_star <= gap) or k >= limit:
            break
    state._value, state._steps = value, steps
    return k


def _is_rowwise_sparse(state) -> bool:
    """True for a sparse separable state under a rowwise loss, bare or
    inside a ridge state: the states :func:`_sparse_separable_loop` serves."""
    if type(state) is objectives._RidgeState:
        state = state._inner
    return type(state) is objectives._SeparableSparseState and state._obj.loss.rowwise


def _sparse_separable_loop(state, subsets, solve, config, trace, log) -> int:
    """:func:`_generic_loop` fused for a sparse separable state under a
    rowwise loss, bare or inside a ridge state.

    Steps of one or two coordinates run on Python floats: a partial
    gradient entry is ``(vals @ w[rows]).item()``, plus gamma times the
    coordinate under ridge; the closed forms of ``solve`` give the step; x
    and the ridge's squared norm change on floats, and each column goes
    through :func:`objectives._column_step`, the state's own column update.
    A pair keeps numpy's length-2 dots for the squared-norm change, as the
    ridge state computes it: a length-2 dot does not always round as
    ``a*a + b*b`` does.  Larger steps call the state's ``partial_gradient``,
    ``solve`` and ``_apply``.  Every operation is the generic loop's, in its
    order, so the iterates, values and stops are bitwise the same.  A
    refresh replaces z, ell and w, so the loop rebinds them after one.
    """
    ridge = type(state) is objectives._RidgeState
    inner = state._inner if ridge else state
    one, two = solve.one, solve.two
    column, loss = objectives._column_step, inner._obj.loss
    x, cols = state.x, inner._cols
    z, ell, w = inner._z, inner._ell, inner._w
    value, steps = inner._value, state._steps
    gamma = state._gamma if ridge else 0.0
    sq = state._sq if ridge else 0.0
    isfinite = math.isfinite
    interval = objectives.REFRESH_INTERVAL
    trace_every = config.trace_every
    f_star, gap = config.f_star, config.target_gap
    limit = math.inf if config.max_iters is None else config.max_iters
    k = 0
    for s in subsets:
        size = s.size
        if size == 1:
            i = s.item(0)
            ci = cols[i]
            gi = (ci[1] @ w[ci[0]]).item()
            if ridge:
                xi = x.item(i)
                gi += gamma * xi
            h = one(i, gi)
            if ridge:
                sq += h * h - 2.0 * (xi * h)
            x[i] -= h
            value += column(loss, z, ell, w, ci, h)
        elif size == 2:
            i, j = s.tolist()
            ci, cj = cols[i], cols[j]
            gi = (ci[1] @ w[ci[0]]).item()
            gj = (cj[1] @ w[cj[0]]).item()
            if ridge:
                gi += gamma * x.item(i)
                gj += gamma * x.item(j)
            hi, hj = two(i, j, gi, gj)
            if ridge:
                hs = np.array((hi, hj))
                sq += float(hs @ hs) - 2.0 * float(x[s] @ hs)
            x[i] -= hi
            x[j] -= hj
            value += column(loss, z, ell, w, ci, hi)
            value += column(loss, z, ell, w, cj, hj)
        else:
            inner._value = value
            if ridge:
                state._sq = sq
            state._apply(s, solve(s, state.partial_gradient(s)))
            value = inner._value
            if ridge:
                sq = state._sq
        if log is not None:
            log.append(s)
        k += 1
        steps += 1
        if steps >= interval:
            state.refresh()
            z, ell, w, value, steps = inner._z, inner._ell, inner._w, inner._value, 0
            if ridge:
                sq = state._sq
        # the state's value property, with its expression
        total = value + 0.5 * gamma * sq if ridge else value
        if k % trace_every == 0:
            trace.append((k, float(total)))
        # check_stop's tests, in its order and with its expressions
        if not isfinite(total) or (gap is not None and total - f_star <= gap) or k >= limit:
            break
    inner._value, state._steps = value, steps
    if ridge:
        state._sq = sq
    return k


def run(obj, b, config: SolverConfig):
    """Execute one solver run and return its :class:`SolverReport`.

    ``b`` is the curvature matrix certifying the smoothness of ``obj`` (or a
    user-supplied upper bound); it is taken as given and not re-verified,
    except that a dense B with a non-finite entry raises ``ValueError``.
    This is the one solver entry point: it dispatches on ``config.method``.
    """
    n = obj.n
    config.validate(n)
    require_finite(b)
    start = time.perf_counter()

    x0 = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float)
    state = obj.init_state(x0)
    rng = RngStream(config.seed)
    if config.forced_subsets is not None:
        subsets = (np.asarray(s, dtype=np.int64) for s in config.forced_subsets)
    elif config.method == "sdna":
        # one generator call per subset, drawn only when the loop asks
        subsets = (tau_nice_sample(n, config.tau, rng) for _ in itertools.count())
    else:
        subsets = make_sampler(b, config.tau).draws(rng, _SAMPLE_CHUNK)
    solve = _make_step_solver(b, exact=config.method != "sdna")

    trace = [(0, float(state.value))]
    log: list | None = [] if config.record_subsets else None
    if check_stop(0, state.value, config):
        k = 0
    elif type(state) is objectives._QuadraticDenseState:
        k = _dense_quadratic_loop(state, subsets, solve, config, trace, log)
    elif _is_rowwise_sparse(state):
        k = _sparse_separable_loop(state, subsets, solve, config, trace, log)
    else:
        k = _generic_loop(state, subsets, solve, config, trace, log)

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
