"""Smooth objective functions with curvature matrices and cheap partial
gradients.

Each objective certifies its own upper curvature matrix B, meaning

    f(y) <= f(x) + <grad f(x), y - x> + ||y - x||_B^2 / 2

for all x, y.  Solvers hold a :class:`GradientState` per run; the state keeps
the iterate with maintained residuals and any ridge term, so that a step and
its partial gradient cost only the touched rows and columns, never a full
pass over the data.

Every loss has one kernel, ``eval(z, b) -> (values, w)``: its values and
derivatives w = dloss/dz together, so their shared work (``z - b``,
the logistic margin, Huber's clipped ``d / mu``, the log-sum-exp's exp,
the smoothed norm) is done once.
Rowwise losses (square, logistic, Huber) return per-row values,
full-residual ones (log-sum-exp, smoothed norm) the total as a 0-d array;
the value is ``values.sum()`` either way.  A rowwise ``eval`` is
elementwise: the rows of a gather evaluate to bitwise the gathered rows of
a whole-vector evaluation.  Rowwise losses also have ``derivative(z, b)``,
bitwise ``eval``'s w, for steps that need no values: it skips the value
pass of each, and the logistic loss's is its own kernel, -b / (1 +
exp(b z)), which ``eval`` also returns.  Huber's kernel is the clip form
c * (d - c * mu / 2) with c = clip(d / mu, -1, 1): bitwise the piecewise
formula outside |d| <= mu, within 1.11 ulp of the exact value inside (the
piecewise form: 1.28).  A sparse data matrix is a numpy
:class:`~volcd.linalg.CsrMatrix`, so no objective imports scipy: a
scipy sparse matrix given by the caller is converted on the way in.  A
sparse separable objective keeps one ``(rows, vals, b_rows)`` view per
column of A, built once, with intp row indices; under a rowwise loss its
state also keeps the per-row loss values, so a step costs a fixed few numpy
calls per column (one ``np.dot`` for a partial-gradient entry, one reduction
for a value change) and evaluates the loss on that column's rows only.
Such a state's value is the sum of those per-step changes.  When A holds
at least m / ``_BLOCK`` nonzeros per column on average, so that summing all
m rows costs no more than the rows ``_BLOCK`` steps touch, the state takes
checkpoints: at every ``_BLOCK``-th step since its last refresh, on every
path, its value becomes the exact sum of its loss values plus its ridge
term.  A taller, sparser A keeps the per-step changes alone.

A solver runs its loop through :func:`steps`, the one place that knows
how a subset is stepped: it counts the steps, traces and asks the run's
stop rule on every path.  Its step kernel, :func:`_make_step_solver`,
solves B[S, S] h = grad f(x)[S] by the size of S, not the configured tau,
so a forced subset of any size gets its own Newton step: closed forms for
one to three coordinates read the diagonal of B and its off-diagonal
entries in S, larger subsets gather B[S, S] and factor it by LAPACK's
Cholesky, for dense and sparse B alike; scipy is imported for the first
such block.  Every size tests a block by the samplers' one rule,
:func:`~volcd.sampling.block_pivots` (an L D L' pivot at most 1e-14 times
its diagonal entry): the closed forms on their own pivots, larger blocks by
the kernel itself, so a drawn block is one the step solves.  A singular
block raises :class:`~volcd.errors.SingularSubmatrix` when the solve is
exact and takes the pseudoinverse step otherwise.  A sparse separable
state under a rowwise loss, ridge or not, takes a fused step, bitwise the
state's own methods; ``_column_step`` is the one column update of both.
On a sampled stream, a state that takes checkpoints steps in blocks of
``_BLOCK`` steps between them that hold no trace point but their last;
a block keeps x and z alone, each gradient entry taking the loss's
``derivative`` on the z rows it reads, and evaluates the loss once, at its
end, which gives ell and w.  It is taken when the stop rule lets its end
pass, else stepped again one step at a time.  The subsets, iterates and
checkpoint values are bitwise the per-step path's; the stopping step is
too when B bounds f, up to rounding at the stop (see
:func:`~volcd.solvers.run`).  A dense quadratic state without ridge on a
sampled stream with a dense B takes windowed steps at every tau, each
window of steps one block lower-triangular solve whose values are known
before it is applied.  A window tests each block by the same kernel, so it
solves exactly the blocks the per-step path solves; its steps agree with
that path to rounding (1e-10 relative in the tests, 1.5e-12 measured), not
bitwise, and a diverging run stops where the per-step path stops.  Every
other run, a dense quadratic one on forced subsets, with ridge included or
with a CSR B, steps through the state's public methods.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

from .errors import SingularSubmatrix
from .linalg import (
    CsrMatrix,
    CsrSymmetricUpper,
    _cholesky_routines,
    add_to_diagonal,
    gather_submatrix,
    pseudo_solve,
    symmetrize,
)
from .sampling import _DET_CLAMP, Draws, block_pivots

__all__ = [
    "GradientState",
    "HuberLoss",
    "LogSumExpLoss",
    "LogisticLoss",
    "QuadraticObjective",
    "RegularizedObjective",
    "SeparableObjective",
    "SqrtNormLoss",
    "SquareLoss",
]

# Incremental caches are rebuilt from scratch this often to bound float drift.
REFRESH_INTERVAL = 10**6

# Coordinates per window of a dense quadratic's windowed steps: a window
# takes max(1, _WINDOW // tau) subsets.
_WINDOW = 48

# Windows per slice of a batch, the subsets whose singularity tests, gathered
# entries of B and value-decrease constants a dense quadratic's windowed
# steps compute at once: a slice, not the whole batch, so that a short run
# does not pay for subsets it never takes.
_SLICE = 8

# A window whose values pass this magnitude is not taken: near 1e308 the
# per-step value update overflows before a window's cumsum does.
_VALUE_LIMIT = 1e300

# Steps per block of a sparse separable state under a rowwise loss whose A
# has at least m / _BLOCK nonzeros per column on average: its value is the
# exact sum of its loss values at every _BLOCK-th step since its last refresh,
# and a sampled run that traces at a multiple of _BLOCK steps steps it a block
# at a time.  It divides REFRESH_INTERVAL, sampling._SUB_BATCH and
# solvers._SAMPLE_CHUNK, so refreshes and the ends of the samplers' batches
# fall on a block's end.
_BLOCK = 32


# ---------------------------------------------------------------------------
# Losses


class SquareLoss:
    """Least squares per row: (t - b_i)^2 / 2."""

    rowwise = True
    smoothness = 1.0

    def eval(self, z, b):
        d = z - b
        return 0.5 * d**2, d

    def derivative(self, z, b):
        return z - b


class LogisticLoss:
    """Logistic loss per row: ln(1 + exp(-b_i t)) with labels b_i in {-1, +1}.

    Evaluated as max(0, -s) + log1p(exp(-|s|)) for s = b_i t, which is stable
    for any magnitude of s; the values are bitwise this textbook formula's.
    The derivative -b_i sigmoid(-s) has a kernel of its own, -b_i / (1 +
    exp(s)), and ``eval`` returns it as w.  Where exp(s) would overflow, at
    margins above 709.78, where the derivative is subnormal or zero, those
    elements take the quotient form -b_i e / (1 + e), e = exp(-s), instead;
    a test of the largest margin keeps every other call to three ufuncs and
    never lets exp overflow.  The derivative is within 2.16 ulp of a
    long-double reference (1.22 ulp in the overflow band), elementwise, and
    finite at infinite margins.
    """

    rowwise = True
    smoothness = 0.25

    def eval(self, z, b):
        s = b * z
        values = np.maximum(0.0, -s)
        values += np.log1p(np.exp(-np.abs(s)))
        return values, _logistic_derivative(s, b)

    def derivative(self, z, b):
        return _logistic_derivative(b * z, b)


def _logistic_derivative(s, b):
    """The logistic derivative -b / (1 + exp(s)) at margins s, computed in
    the array s.  fmax skips NaN margins, so a NaN row does not hide an
    overflowing one, and an empty column reduces to -inf."""
    limit = 709.78  # exp(limit) is finite
    if np.fmax.reduce(s, initial=-np.inf) > limit:
        # above the limit 1 + e rounds to 1 in the quotient form
        big = s > limit
        w = b / (-1.0 - np.exp(np.minimum(s, limit)))
        w[big] = -b[big] * np.exp(-s[big])
        return w
    # b / (-1 - e) is -b / (1 + e), the negation exact
    np.exp(s, out=s)
    np.subtract(-1.0, s, out=s)
    return np.divide(b, s, out=s)


class _SmoothedLoss:
    """A loss smoothed by mu > 0, with smoothness constant 1 / mu."""

    def __init__(self, mu: float):
        mu = float(mu)
        # a NaN mu is not <= 0, an infinite one gives a zero curvature
        # matrix, and a subnormal one an infinite smoothness constant
        if not (math.isfinite(mu) and mu > 0 and math.isfinite(1.0 / mu)):
            raise ValueError(
                "smoothing parameter must be finite and positive, with a finite reciprocal"
            )
        self.mu = mu
        self.smoothness = 1.0 / mu


class HuberLoss(_SmoothedLoss):
    """Smoothed absolute value per row: d^2 / (2 mu) for |d| <= mu and
    |d| - mu / 2 outside, with d = t - b_i.

    Both pieces are c * (d - c * mu / 2) with c = clip(d / mu, -1, 1), the
    derivative, so ``eval`` computes c once and needs no branch.  Outside
    the quadratic zone the values are bitwise the textbook piecewise
    formula's; inside they are as accurate (at most 1.11 ulp from a
    long-double reference, against 1.28 for the piecewise form) but may
    differ from it in the last bit.
    """

    rowwise = True

    def eval(self, z, b):
        mu = self.mu
        d = z - b
        # np.clip(d / mu, -1, 1) element for element, without its wrapper
        c = np.minimum(np.maximum(d / mu, -1.0), 1.0)
        return c * (d - (0.5 * mu) * c), c

    def derivative(self, z, b):
        return np.minimum(np.maximum((z - b) / self.mu, -1.0), 1.0)


class LogSumExpLoss(_SmoothedLoss):
    """Smoothed maximum of the residual vector: mu * ln sum exp(r_i / mu),
    shifted so the value at r = 0 is 0.  Operates on the full residual
    r = z - b: ``eval`` returns the total as a 0-d array, and the softmax
    weights, from one shared exp."""

    rowwise = False

    def eval(self, z, b):
        r = z - b
        top = np.max(r)
        e = np.exp((r - top) / self.mu)
        total = e.sum()
        return np.asarray(top + self.mu * (np.log(total) - np.log(r.size))), e / total


class SqrtNormLoss(_SmoothedLoss):
    """Smoothed Euclidean norm of the residual: sqrt(||r||^2 + mu^2) - mu.
    Operates on the full residual r = z - b: ``eval`` returns the total as a
    0-d array, and r over the shared smoothed norm."""

    rowwise = False

    def eval(self, z, b):
        r = z - b
        norm = np.sqrt(r @ r + self.mu**2)
        return np.asarray(norm - self.mu), r / norm


# ---------------------------------------------------------------------------
# Gradient state


class GradientState:
    """Mutable per-run solver state: the iterate plus maintained residuals.

    Subclasses keep their residuals by ``_partial``, ``_apply`` and
    ``_recompute``; the public methods add the ridge term _gamma * _sq / 2,
    _sq = ||x||^2, that a :class:`RegularizedObjective` sets.  Single-owner,
    one state per run, never shared between threads; caches are rebuilt
    every ``REFRESH_INTERVAL`` steps to bound drift.
    """

    _gamma = _sq = 0.0

    def __init__(self, x0: np.ndarray):
        self.x = np.array(x0, dtype=float, copy=True)
        self._steps = 0

    @property
    def value(self) -> float:
        return self._value + 0.5 * self._gamma * self._sq if self._gamma else self._value

    def partial_gradient(self, s) -> np.ndarray:
        g = self._partial(s)
        return g + self._gamma * self.x[s] if self._gamma else g

    def apply_step(self, s, h) -> None:
        """Decrement x[S] by h and update residuals incrementally."""
        s, h = np.asarray(s), np.asarray(h, dtype=float)
        if self._gamma:
            self._sq += float(h @ h) - 2.0 * float(self.x[s] @ h)
        self._apply(s, h)
        self._steps += 1
        if self._steps >= REFRESH_INTERVAL:
            self.refresh()

    def refresh(self) -> None:
        self._steps = 0
        self._recompute()
        if self._gamma:
            self._sq = float(self.x @ self.x)

    def _partial(self, s):
        raise NotImplementedError

    def _apply(self, s, h):
        raise NotImplementedError

    def _recompute(self):
        raise NotImplementedError


class _QuadraticState(GradientState):
    """Quadratic state: maintains g = Ax - b through the objective's operator."""

    def __init__(self, obj: "QuadraticObjective", x0):
        super().__init__(x0)
        self._op = obj._operator()
        self._b = obj.b
        self._recompute()

    def _recompute(self):
        self._g = self._op @ self.x - self._b
        self._value = 0.5 * float(self.x @ (self._g - self._b))

    def _partial(self, s):
        return self._g[s].copy()


class _QuadraticDenseState(_QuadraticState):
    def _apply(self, s, h):
        # h' A[S,S] h = h' (g_old[S] - g_new[S]), so the exact value change
        # -g_old[S]'h + h'A[S,S]h/2 collapses to -h'(g_old[S] + g_new[S])/2
        # A is symmetric, so its rows stand for its columns: a[i] * h for one
        # coordinate, else the window's row form h @ a[s], bitwise a[:, s] @ h
        g, a, x = self._g, self._op, self.x
        if s.size == 1:
            i, hv = s[0], h[0]
            g_old = g[i]
            x[i] -= hv
            g -= a[i] * hv
            self._value -= 0.5 * hv * (g_old + g[i])
        else:
            gs_old = g[s]
            x[s] -= h
            g -= h @ a[s]
            self._value -= 0.5 * float(h @ (gs_old + g[s]))


class _QuadraticSparseState(_QuadraticState):
    def _apply(self, s, h):
        indptr, rows, vals = self._op.indptr, self._op.indices, self._op.data
        g = self._g
        gs_old = g[s].copy()
        self.x[s] -= h
        for j, hj in zip(s, h):
            lo, hi = indptr[j], indptr[j + 1]
            g[rows[lo:hi]] -= vals[lo:hi] * hj
        self._value -= 0.5 * float(h @ (gs_old + g[s]))


class _SeparableState(GradientState):
    """Separable state over a dense data matrix: maintains z = Ax and the
    loss's ``eval`` at z, its values ell and derivatives w."""

    def __init__(self, obj: "SeparableObjective", x0):
        super().__init__(x0)
        self._obj = obj
        self._recompute()

    def _evaluate(self):
        """ell, w and the value at the current z, by one loss evaluation."""
        self._ell, self._w = self._obj.loss.eval(self._z, self._obj.b)
        self._value = float(self._ell.sum())

    def _recompute(self):
        self._z = self._obj._products(self.x)
        self._evaluate()

    def _partial(self, s):
        return self._obj.a[:, s].T @ self._w

    def _apply(self, s, h):
        self.x[s] -= h
        self._z -= self._obj.a[:, s] @ h
        self._evaluate()


def _column_step(loss, z, ell, w, col, hj) -> float:
    """One column's share of a sparse separable step under a rowwise loss,
    for ``_SeparableSparseState._apply`` and the fused step of :func:`steps`.

    Decrements z on the column's rows by its nonzeros times hj, evaluates the
    loss on those rows only into ell and w, and returns the value change.
    """
    rows, vals, b_rows = col
    # fancy assignment scatters in under half the time of ndarray.put (0.43
    # against 1.08 us at 250 rows); add.reduce is the sum without its wrapper
    zr = z[rows]
    zr -= vals * hj
    z[rows] = zr
    ev, dv = loss.eval(zr, b_rows)
    change = float(np.add.reduce(ev - ell[rows]))
    ell[rows] = ev
    w[rows] = dv
    return change


class _SeparableSparseState(_SeparableState):
    """Separable state over a :class:`~volcd.linalg.CsrMatrix` data matrix.

    The objective's column views give each column's rows, its nonzeros and
    the per-row parameters b of those rows, so a coordinate step updates only
    the rows its columns meet and a partial gradient reads only those
    columns.  Under a rowwise loss a step evaluates the loss once per
    column, on that column's rows only, and never on the rows it left alone;
    under a full-residual loss a step evaluates the loss on all of z.

    Under a rowwise loss the value is kept by the steps' changes.  It
    becomes the exact sum of ell at every ``_BLOCK``-th step when
    ``_checkpoints``: when A's columns hold m / ``_BLOCK`` nonzeros or more
    on average, so that the sum over all m rows costs no more than the rows
    of ``_BLOCK`` steps.  A taller, sparser A keeps the changes alone, and
    its untraced runs take no blocks, whose end pays the same sum.
    """

    def __init__(self, obj: "SeparableObjective", x0):
        self._cols = obj._columns()
        m, n = obj.a.shape
        self._checkpoints = obj.loss.rowwise and _BLOCK * obj.a.data.size >= m * n
        super().__init__(obj, x0)

    def _partial(self, s):
        cols, w = self._cols, self._w
        out = np.empty(len(s))
        for p, j in enumerate(s):
            rows, vals, _ = cols[j]
            out[p] = np.dot(vals, w[rows])
        return out

    def _apply(self, s, h):
        self.x[s] -= h
        # one column at a time: a column's rows are distinct, so a plain
        # scatter updates z exactly as np.subtract.at over all columns would.
        # Each column reads ell just after the previous column wrote it, so
        # the value changes add up exactly even where columns share rows.
        z, cols, loss = self._z, self._cols, self._obj.loss
        if loss.rowwise:
            ell, w, value = self._ell, self._w, self._value
            for j, hj in zip(s, h):
                value += _column_step(loss, z, ell, w, cols[j], hj)
            self._value = value
            return
        for j, hj in zip(s, h):
            rows, vals, _ = cols[j]
            z[rows] -= vals * hj
        self._evaluate()

    def apply_step(self, s, h) -> None:
        super().apply_step(s, h)
        if self._checkpoints and self._steps % _BLOCK == 0:
            # the value, kept by per-step changes, becomes the exact sum (a
            # refresh has just set it so)
            self._value = float(self._ell.sum())


# ---------------------------------------------------------------------------
# Steps


def _make_step_solver(b, exact: bool):
    """Return h = solve(S, g), the solution of B[S, S] h = g, by the size of
    S: closed forms for one to three coordinates read B through its diagonal
    and ``item``, larger subsets gather B[S, S] and factor it by LAPACK's
    ``dpotrf``, imported with scipy on the first such block.  A block is
    singular by the rule of :func:`~volcd.sampling.block_pivots`: some
    pivot d_k of its L D L' in sorted order at most 1e-14 times its diagonal
    entry B_kk, NaN included.  It raises :class:`SingularSubmatrix` if
    ``exact``, and is solved by the pseudoinverse otherwise.  The closed
    forms solve by L D L', testing each pivot, the kernel's tau <= 3
    expression, at any scale of B; a larger block calls the kernel on
    itself before ``dpotrf`` factors it.
    A block the kernel passes but ``dpotrf`` refuses, one within rounding
    of singular, takes the pseudoinverse step under either method.

    ``solve.one(i, g1)`` and ``solve.two(i, j, g1, g2)`` are the closed forms
    on Python floats, for the fused sparse separable step.  For the windowed
    dense steps, ``solve.regular(d, o)`` tests a stack of blocks of one size
    (``d`` their diagonals and ``o`` their strictly upper entries in row
    order, one column per block) by the kernel itself: True where the
    per-step solve solves the block, so the window solves the blocks the
    per-step path does, and the blocks the samplers draw."""
    diag = b.diagonal().tolist()
    pair = b.item
    delta = _DET_CLAMP

    def factor(sub):
        # LAPACK's Cholesky of a gathered block B[S, S], its lower triangle
        # read: info > 0 is the order of the first leading minor that is not
        # positive definite
        return _cholesky_routines()[0](sub, lower=1, clean=0)

    def one(i, g1):
        d = diag[i]
        if d > delta * d:
            return g1 / d
        if exact:
            raise SingularSubmatrix("zero diagonal pivot")
        return 0.0

    # B[S, S] = L D L' with unit lower L; each pivot is checked before it
    # divides
    def two(i, j, g1, g2):
        d1, p = diag[i], pair(i, j)
        if d1 > delta * d1:
            l21 = p / d1
            d2 = diag[j] - p * l21
            if d2 > delta * diag[j]:
                h2 = (g2 - l21 * g1) / d2
                return g1 / d1 - l21 * h2, h2
        if exact:
            raise SingularSubmatrix("singular 2x2 submatrix")
        h1, h2 = pseudo_solve(np.array([[d1, p], [p, diag[j]]]), np.array([g1, g2])).tolist()
        return h1, h2

    def three(i, j, k, g1, g2, g3):
        d1 = diag[i]
        if d1 > delta * d1:
            p, q = pair(i, j), pair(i, k)
            l21, l31 = p / d1, q / d1
            d2 = diag[j] - p * l21
            if d2 > delta * diag[j]:
                t = pair(j, k) - q * l21
                l32 = t / d2
                d3 = diag[k] - q * l31 - t * l32
                if d3 > delta * diag[k]:
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
        return block_pivots(d, o)[1]

    closed = (None, one, two, three)

    def solve(s, g):
        size = s.size
        if size <= 3:
            return np.array(closed[size](*s.tolist(), *g.tolist()), ndmin=1)
        sub = gather_submatrix(b, s)
        k = np.arange(size)
        if regular(sub.diagonal()[:, None], sub[k[:, None] < k][:, None])[0]:
            c, info = factor(sub)
            if not info:
                return _cholesky_routines()[1](c, g, lower=1)[0]
            # a pivot that passed the kernel's test but not dpotrf's: the
            # block is within rounding of singular, and solved as one
        elif exact:
            raise SingularSubmatrix(f"singular {size}x{size} submatrix")
        return pseudo_solve(sub, g)

    solve.one, solve.two, solve.regular = one, two, regular
    return solve


def steps(state, subsets, b, exact: bool, trace_every: int, ended):
    """Run the steps of one run: step ``state`` by the solution h of
    B[S, S] h = partial gradient on S for each S drawn from ``subsets``,
    counting the steps k, until ``ended(k, value)``, the run's stop rule,
    names why the run ends at step k, or the subsets run out
    (``"exhausted"``).  Returns the trace ``[(k, value), ...]`` at every
    ``trace_every``-th step, k, the value after the last step and the
    status.  A singular block raises :class:`SingularSubmatrix` if
    ``exact`` and takes the pseudoinverse step otherwise
    (:func:`_make_step_solver`).

    The path is picked by the state's type, once per run.  A dense
    quadratic state without ridge on a sampler's
    :class:`~volcd.sampling.Draws`, of any subset size, with a dense B,
    takes windowed steps, which agree with the per-step path to rounding.
    A sparse separable state under a rowwise loss, whatever its ridge
    weight, takes a fused step, bitwise ``apply_step``'s.  On a sampler's
    stream, when the state takes checkpoints, it takes a lazy block from a
    checkpoint to the next when no step but the block's last is a trace
    point: a block keeps x and z, takes each derivative where a gradient
    reads it, and takes w at its end, and it is taken when the stop rule
    lets its end pass.  Every other state, a dense quadratic one on forced
    subsets, with ridge included or with a CSR B, or one that offers only
    the public methods, steps through them."""
    solve = _make_step_solver(b, exact)
    kind = type(state)
    if (kind is _QuadraticDenseState and not state._gamma and type(subsets) is Draws
            and isinstance(b, np.ndarray)):
        return _dense_window_steps(state, subsets, b, solve, trace_every, ended)
    if kind is _SeparableSparseState and state._obj.loss.rowwise:
        lazy = state._checkpoints and type(subsets) is Draws
        return _sparse_separable_steps(state, subsets, solve, lazy, trace_every, ended)
    return _public_steps(state, subsets, solve, trace_every, ended)


def _public_steps(state, subsets, solve, trace_every, ended):
    """Steps through the state's public methods, asking ``ended`` after
    each."""
    trace, k, value = [], 0, state.value
    for s in subsets:
        state.apply_step(s, solve(s, state.partial_gradient(s)))
        value = state.value
        k += 1
        if k % trace_every == 0:
            trace.append((k, float(value)))
        status = ended(k, value)
        if status is not None:
            return trace, k, value, status
    return trace, k, value, "exhausted"


def _apply_window(x, g, idx, h, rows, p):
    """The first p coordinates of a window's steps: x[idx] -= h and
    g -= A[:, idx] h, with ``rows`` = A[idx]."""
    np.subtract(g, h[:p] @ rows[:p], out=g)
    np.subtract.at(x, idx[:p], h[:p])


def _dense_window_steps(state, draws, b, solve, trace_every, ended):
    """Windowed steps of a dense quadratic state on a sampled stream of
    subsets.

    A window peeks at the next ``max(1, _WINDOW // tau)`` subsets S_1, ...,
    S_m of the stream's batch, fewer at the batch's end and at the refresh
    boundary, and stacks their indices into I.  Step t solves B[S_t, S_t] h_t
    = g[S_t] - sum_{s<t} A[S_t, S_s] h_s, so the window's steps are one
    block lower-triangular system M h = g[I], where M has B's diagonal
    blocks and the strictly block-lower part of A[I, I].  What depends on the
    subsets alone is done once per slice of ``_SLICE`` windows' subsets of
    the batch: the gathered diagonal and block-upper entries of B,
    ``solve.regular``, the pivot kernel's verdict that the per-step solve
    also reads, and the
    constants B_ss - A_ss / 2 and B_st - A_st / 2 of each step's value
    decrease h_t . B h_t - h_t . A h_t / 2.  The values value -
    cumsum(decrease) of the window's steps exist before it is applied.  The
    stop rule is asked at the step before the last and, if it ends the run
    there, from the first step on, and the steps up to the first it names,
    or all of them, are applied, with R = A[I], as g -= h @ R and x[I] -= h:
    their trace points before the last read the values, and the last is
    traced and tested after any refresh there.  The stream logs exactly the
    subsets applied.  A diagonal block that fails that test ends the window
    before it and takes the per-step path, which raises under an exact
    method; so does the first subset of a window whose solve fails.  A
    window with a step that raises the value (B
    does not bound A on that block: the run overshoots, and its iteration
    amplifies rounding differences) or with values past ``_VALUE_LIMIT`` is
    not taken, and its subsets step one at a time, so a diverging run takes
    the per-step path's own arithmetic and stops where its replay stops.  So
    the values of a taken window are finite, within the limit and
    non-increasing, and the stop rule, asked at one of them first, stops
    where it stops asked at each.  Otherwise the iterates agree with the
    per-step path, ``_apply``, to rounding, not bitwise."""
    tau = draws.tau
    x, a, regular = state.x, state._op, solve.regular
    g, value, count = state._g, state._value, state._steps
    bdiag, adiag = b.diagonal(), a.diagonal()
    per, interval = max(1, _WINDOW // tau), REFRESH_INTERVAL
    block = np.arange(per * tau) // tau
    lower = block[:, None] > block  # strictly block-lower
    # a subset's strictly upper entries (r, c), in row order, sit at
    # (t tau + r, t tau + c) in the system of a window whose block t it is
    pair = np.triu_indices(tau, 1)
    first = np.arange(0, per * tau, tau)[:, None]
    upper_r, upper_c = (first + i for i in pair)
    off = size = 0  # the next subset's offset in the slice, and its length
    solo = 0  # subsets left to step one at a time after a window not taken
    trace, k = [], 0
    while True:
        subs = draws.peek(min(per, interval - count))
        if off + len(subs) > size:
            # the next slice starts at subs[0] and ends at the batch's end
            # at the latest
            sl = draws.peek(_SLICE * per)
            off, size = 0, len(sl)
            flat = sl.ravel()
            bd_s = bdiag[flat]
            bo_s = np.empty((size, 0))
            if tau > 1:
                rr, cc = sl[:, pair[0]], sl[:, pair[1]]
                bo_s = b[rr, cc]
                cross_s = bo_s - 0.5 * a[rr, cc]
            diag_s = bd_s - 0.5 * adiag[flat]
            fails = np.flatnonzero(~regular(bd_s.reshape(size, tau).T, bo_s.T)).tolist()
            fails.append(size)
        m = 0
        if solo:
            solo -= 1
        else:
            m = min(len(subs), fails[bisect_left(fails, off)] - off)
        if m:
            p, at = m * tau, off * tau
            idx = flat[at : at + p]
            rows = a[idx]
            mat = np.where(lower[:p, :p], rows[:, idx], 0.0)
            mat.ravel()[:: p + 1] = bd_s[at : at + p]
            if tau > 1:
                bo, r, c = bo_s[off : off + m], upper_r[:m], upper_c[:m]
                mat[r, c] = bo
                mat[c, r] = bo
            try:
                h = np.linalg.solve(mat, g[idx])
            except np.linalg.LinAlgError:
                m = 0  # an overflow inside the solve: the run diverges
        if m:
            # each step's value decrease, term by term
            dec = diag_s[at : at + p] * (h * h)
            if tau > 1:
                cross = cross_s[off : off + m] * (h[r] * h[c])
                dec = dec.reshape(m, tau).sum(1) + 2.0 * cross.sum(1)
            vals = value - dec.cumsum()
            last = float(vals[-1])
            # the window is taken only if every step descends, so its
            # values fall from value to last, and stay within the limit
            if not (dec.min() >= 0.0 and value <= _VALUE_LIMIT
                    and last >= -_VALUE_LIMIT):
                m, solo = 0, per - 1
        if m == 0:
            s = subs[0]
            draws.take(1)
            state._value = value
            state._apply(s, solve(s, g[s]))
            value, m = state._value, 1
        else:
            # the window's steps up to the first before its last that ends
            # the run, else all of them; the last one taken is traced and
            # tested below
            if m > 1 and ended(k + m - 1, float(vals[-2])) is not None:
                m = next(j for j, v in enumerate(vals[:-1].tolist(), 1)
                         if ended(k + j, v) is not None)
            t = k - k % trace_every + trace_every  # the first trace point
            if t < k + m:
                trace += zip(range(t, k + m, trace_every),
                             vals[t - k - 1 : m - 1 : trace_every].tolist())
            _apply_window(x, g, idx, h, rows, m * tau)
            draws.take(m)
            value = float(vals[m - 1])
        off += m
        count += m
        k += m
        if count >= interval:
            state._value = value
            state.refresh()
            g, value, count = state._g, state._value, 0
        if k % trace_every == 0:
            trace.append((k, float(value)))
        status = ended(k, value)
        if status is not None:
            state._value, state._steps = value, count
            return trace, k, value, status


def _sparse_separable_steps(state, subsets, solve, lazy, trace_every, ended):
    """Fused steps of a sparse separable state under a rowwise loss, with or
    without a ridge term: one or two coordinates add the ridge term to
    their partial-gradient entries and to the squared norm in Python floats
    and solve on floats; larger steps call ``solve`` on an array.  A pair
    keeps ``apply_step``'s length-2 dots for the squared norm: they may round
    unlike a*a + b*b.

    One at a time, a gradient entry reads ``np.dot(vals, w[rows])``, as
    ``partial_gradient`` does, and a step moves each column by
    :func:`_column_step`; the value becomes the exact sum of ell at every
    ``_BLOCK``-th step when the state takes checkpoints, as ``apply_step``'s
    does.  When ``lazy``, the steps from such a checkpoint to the next, the
    ``_BLOCK`` subsets that ``subsets.peek`` hands out, are stepped as one
    block that keeps x and z alone, when no trace point falls strictly
    inside it: a gradient entry gathers z on its column's rows and applies
    the loss's ``derivative`` there, a move updates z only (a single
    coordinate through the rows its gradient gathered), and the block's end
    takes ell, w and that step's exact value from one ``eval`` on all rows.
    A block whose end value is finite, not above its start and passed by
    the stop rule is taken, and its subsets are taken from the stream; any
    other is restored from its snapshot of x, z and the squared norm and
    stepped again one step at a time, with the stop rule asked after each.
    A peek cut short by a batch's end, or a block that would pass a
    refresh, steps one at a time to the next checkpoint.  Both paths give
    bitwise the same x, z, w and checkpoint values, since a rowwise
    ``eval`` is elementwise and ``derivative`` is bitwise its w."""
    one, two = solve.one, solve.two
    column, loss, b = _column_step, state._obj.loss, state._obj.b
    derivative = loss.derivative
    x, cols = state.x, state._cols
    z, ell, w = state._z, state._ell, state._w
    value, count = state._value, state._steps
    gamma, sq = state._gamma, state._sq
    interval, per, checkpoints = REFRESH_INTERVAL, _BLOCK, state._checkpoints
    isfinite = math.isfinite

    def step(s, value, block):
        """Steps x and the squared norm on s and z on each column's rows;
        returns ``value`` plus the columns' value changes, or ``value`` as
        given inside a block, where z moves alone and w is not read."""
        nonlocal sq
        size = s.size
        if size == 1:
            i = s.item(0)
            ci = cols[i]
            rows, vals, b_rows = ci
            if block:
                zr = z[rows]
                gi = float(np.dot(vals, derivative(zr, b_rows)))
            else:
                gi = float(np.dot(vals, w[rows]))
            if gamma:
                xi = x.item(i)
                gi += gamma * xi
            h = one(i, gi)
            if gamma:
                sq += h * h - 2.0 * (xi * h)
            x[i] -= h
            if block:
                zr -= vals * h
                z[rows] = zr
                return value
            return value + column(loss, z, ell, w, ci, h)
        if size == 2:
            i, j = s.tolist()
            ci, cj = cols[i], cols[j]
            if block:
                zi = z[ci[0]]
                gi = float(np.dot(ci[1], derivative(zi, ci[2])))
                gj = float(np.dot(cj[1], derivative(z[cj[0]], cj[2])))
            else:
                gi = float(np.dot(ci[1], w[ci[0]]))
                gj = float(np.dot(cj[1], w[cj[0]]))
            if gamma:
                gi += gamma * x.item(i)
                gj += gamma * x.item(j)
            hi, hj = two(i, j, gi, gj)
            if gamma:
                hs = np.array((hi, hj))
                sq += float(hs @ hs) - 2.0 * float(x[s] @ hs)
            x[i] -= hi
            x[j] -= hj
            if block:
                zi -= ci[1] * hi
                z[ci[0]] = zi
                # the columns may share rows, so j's are gathered after i's move
                zj = z[cj[0]]
                zj -= cj[1] * hj
                z[cj[0]] = zj
                return value
            value += column(loss, z, ell, w, ci, hi)
            return value + column(loss, z, ell, w, cj, hj)
        js = s.tolist()
        if block:
            g = np.array([np.dot(vals, derivative(z[rows], b_rows))
                          for rows, vals, b_rows in map(cols.__getitem__, js)])
            if gamma:  # partial_gradient's expression
                g = g + gamma * x[s]
        else:
            g = state.partial_gradient(s)
        h = solve(s, g)
        if gamma:  # apply_step's update
            sq += float(h @ h) - 2.0 * float(x[s] @ h)
        x[s] -= h
        if block:
            for j, hj in zip(js, h.tolist()):
                rows, vals, _ = cols[j]
                zr = z[rows]
                zr -= vals * hj
                z[rows] = zr
            return value
        for j, hj in zip(js, h.tolist()):
            value += column(loss, z, ell, w, cols[j], hj)
        return value

    # current is the value property's expression, the value the run reads
    trace, k, current, status = [], 0, state.value, None
    while status is None:
        # blocks from a checkpoint on, while no trace point falls strictly
        # inside one and the stop rule lets each end pass
        while (lazy and count % per == 0 and count + per <= interval
               and (k + per - 1) // trace_every == k // trace_every):
            subs = subsets.peek(per)
            if len(subs) < per:
                break
            start = value + 0.5 * gamma * sq if gamma else value
            saved = x.copy(), z.copy(), sq
            for s in subs:
                step(s, 0.0, True)
            ev, wv = loss.eval(z, b)
            end = float(ev.sum())
            last = end + 0.5 * gamma * sq if gamma else end
            if not (isfinite(last) and last <= start and ended(k + per, last) is None):
                x[:], z[:], sq = saved
                break
            state._ell, state._w = ell, w = ev, wv
            subsets.take(per)
            value, current = end, last
            count += per
            k += per
            if k % trace_every == 0:
                trace.append((k, last))
            if count >= interval:
                state.refresh()
                z, ell, w, value, sq, count = (state._z, state._ell, state._w,
                                               state._value, state._sq, 0)
        # then one step at a time, to the next checkpoint if lazy
        for s in subsets:
            value = step(s, value, False)
            count += 1
            if count >= interval:
                state.refresh()
                z, ell, w, value, sq, count = (state._z, state._ell, state._w,
                                               state._value, state._sq, 0)
            elif checkpoints and count % per == 0:
                value = float(ell.sum())
            k += 1
            current = value + 0.5 * gamma * sq if gamma else value
            if k % trace_every == 0:
                trace.append((k, current))
            status = ended(k, current)
            if status is not None or lazy and count % per == 0:
                break
        else:
            status = "exhausted"
    state._value, state._sq, state._steps = value, sq, count
    return trace, k, current, status


# ---------------------------------------------------------------------------
# Objectives


class QuadraticObjective:
    """f(x) = <Ax, x>/2 - <b, x> for symmetric PSD A; curvature matrix is A."""

    def __init__(self, a, b):
        if isinstance(a, CsrSymmetricUpper):
            self.a, self._op = a, None  # full CSR form, built on first use
        else:
            self.a = self._op = np.asarray(a, dtype=float)
        self.n = self.a.shape[0]
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.n,):
            raise ValueError("linear term has wrong length")

    def _operator(self):
        """A in a form that multiplies vectors: the array, or the full
        symmetric :class:`~volcd.linalg.CsrMatrix`."""
        if self._op is None:
            self._op = self.a.full()
        return self._op

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ (self._operator() @ x)) - float(self.b @ x)

    def gradient(self, x) -> np.ndarray:
        return self._operator() @ np.asarray(x, dtype=float) - self.b

    def curvature_matrix(self):
        return self.a

    def init_state(self, x0) -> GradientState:
        if isinstance(self.a, CsrSymmetricUpper):
            return _QuadraticSparseState(self, x0)
        return _QuadraticDenseState(self, x0)


class SeparableObjective:
    """f(x) = sum_i g_i(<a_i, x>) for a rowwise loss, or g(Ax - b) for a
    full-residual loss; curvature matrix is L * A'A with L the loss
    smoothness constant.

    A sparse A, a :class:`~volcd.linalg.CsrMatrix` or a scipy sparse matrix
    of any format, is kept as a canonical float64 CsrMatrix (sorted rows,
    repeated entries added up); anything else as a float64 array."""

    def __init__(self, a, b, loss):
        # no scipy sparse matrix exists before scipy.sparse is imported
        sp = sys.modules.get("scipy.sparse")
        if sp is not None and sp.issparse(a):
            a = CsrMatrix.from_scipy(a)
        self.sparse = isinstance(a, CsrMatrix)
        self.a = a if self.sparse else np.asarray(a, dtype=float)
        self.m, self.n = self.a.shape
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.m,):
            raise ValueError("per-row parameter has wrong length")
        self.loss = loss
        self._columns_cache = None

    def _columns(self):
        """One ``(rows, vals, b_rows)`` view per column of a sparse A: the
        column's row indices, its nonzeros and b at those rows, as slices of
        one compressed-column copy of A and one gather of b, built on first
        use."""
        if self._columns_cache is None:
            ptr, rows, vals = self.a.columns()
            b_rows = self.b[rows]
            self._columns_cache = [
                (rows[lo:hi], vals[lo:hi], b_rows[lo:hi])
                for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist())
            ]
        return self._columns_cache

    def _loss_eval(self, z):
        """(f, w) at data products z = Ax, where w = dloss/dz so that the
        gradient is A'w."""
        values, w = self.loss.eval(z, self.b)
        return float(values.sum()), w

    def _products(self, x):
        return self.a @ np.asarray(x, dtype=float)

    def _adjoint(self, w):
        """A'w."""
        return self.a.rmatvec(w) if self.sparse else self.a.T @ w

    def value(self, x) -> float:
        return self._loss_eval(self._products(x))[0]

    def gradient(self, x) -> np.ndarray:
        return self._adjoint(self._loss_eval(self._products(x))[1])

    def curvature_matrix(self):
        if self.sparse:
            return self.a.gram(self.loss.smoothness)
        return symmetrize(self.loss.smoothness * (self.a.T @ self.a))

    def init_state(self, x0) -> GradientState:
        if self.sparse:
            return _SeparableSparseState(self, x0)
        return _SeparableState(self, x0)


class RegularizedObjective:
    """inner(x) + gamma * ||x||^2 / 2; curvature gains gamma on the diagonal.

    Its state is the inner objective's own, with gamma added to the state's
    ridge weight, so the weights of nested ridges add into one."""

    def __init__(self, inner, gamma: float):
        if not (math.isfinite(gamma) and gamma > 0):
            raise ValueError("ridge weight must be finite and positive")
        self.inner = inner
        self.gamma = float(gamma)
        self.n = inner.n

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self.inner.value(x) + 0.5 * self.gamma * float(x @ x)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.inner.gradient(x) + self.gamma * x

    def curvature_matrix(self):
        return add_to_diagonal(self.inner.curvature_matrix(), self.gamma)

    def init_state(self, x0) -> GradientState:
        state = self.inner.init_state(x0)
        state._gamma += self.gamma
        state._sq = float(state.x @ state.x)
        return state
