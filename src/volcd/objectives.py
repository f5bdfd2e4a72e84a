"""Smooth objective functions with curvature matrices and cheap partial
gradients.

Each objective certifies its own upper curvature matrix B, meaning

    f(y) <= f(x) + <grad f(x), y - x> + ||y - x||_B^2 / 2

for all x, y.  Solvers hold a :class:`GradientState` per run; the state keeps
the iterate together with maintained residuals so that a coordinate step and
its partial gradient cost only the touched rows and columns, never a full
pass over the data.

A rowwise loss (square, logistic, Huber) has one kernel, ``eval(z, b)``,
returning the per-row values and derivatives together, so the work they share
(``z - b``, ``exp(-|s|)``, Huber's clipped ``d / mu``) is done once.  Huber's
kernel is the clip form c * (d - c * mu / 2) with c = clip(d / mu, -1, 1):
bitwise the piecewise formula outside |d| <= mu, within 1.11 ulp of the
exact value inside (the piecewise form: 1.28).  A sparse data matrix is a
numpy :class:`~volcd.linalg.CsrMatrix`, so no objective imports scipy: a
scipy sparse matrix given by the caller is converted on the way in.  A
sparse separable objective keeps one ``(rows, vals, b_rows)`` view per
column of A, built once, with intp row indices; its
state also keeps the per-row loss values, so a step costs a fixed few numpy
calls per column (one ``np.dot`` for a partial-gradient entry, one reduction
for a value change) and evaluates the loss on that column's rows only.

A solver steps a state through :func:`steps`.  A sparse separable state
under a rowwise loss takes a fused step, bitwise the state's own methods;
``_column_step`` is the one column update of both.  A dense quadratic state
on a sampled stream of subsets of one to three coordinates (rcd:1, rcdvs:1
to rcdvs:3, sdna:1 to sdna:3) takes windowed steps, each window of steps one
block lower-triangular solve whose values before the last are yielded as
one array; they agree with the per-step path to rounding (1e-10 relative in
the tests, 1.5e-12 measured), not bitwise, and a diverging run stops where
the per-step path stops.  Every other run, a dense quadratic one on forced
subsets or at tau >= 4 included, steps through the state's public methods.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

from .linalg import CsrMatrix, CsrSymmetricUpper, add_to_diagonal, symmetrize
from .sampling import Draws

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
# takes _WINDOW // tau subsets.
_WINDOW = 48

# Windows per slice of a batch, the subsets whose pivot tests, gathered
# entries of B and value-decrease constants a dense quadratic's windowed
# steps compute at once: a slice, not the whole batch, so that a short run
# does not pay for subsets it never takes.
_SLICE = 8

# A window whose values pass this magnitude is not taken: near 1e308 the
# per-step value update overflows before a window's cumsum does.
_VALUE_LIMIT = 1e300


# ---------------------------------------------------------------------------
# Losses


class SquareLoss:
    """Least squares per row: (t - b_i)^2 / 2."""

    rowwise = True
    smoothness = 1.0

    def eval(self, z, b):
        d = z - b
        return 0.5 * d**2, d


class LogisticLoss:
    """Logistic loss per row: ln(1 + exp(-b_i t)) with labels b_i in {-1, +1}.

    Evaluated as max(0, -s) + log1p(exp(-|s|)) for s = b_i t, which is stable
    for any magnitude of s.
    """

    rowwise = True
    smoothness = 0.25

    def eval(self, z, b):
        s = b * z
        e = np.exp(-np.abs(s))  # sigmoid(-s) without overflow on either tail
        values = np.maximum(0.0, -s) + np.log1p(e)
        return values, -b * (np.where(s >= 0, e, 1.0) / (1.0 + e))


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


class LogSumExpLoss(_SmoothedLoss):
    """Smoothed maximum of the residual vector: mu * ln sum exp(r_i / mu),
    shifted so the value at r = 0 is 0.  Operates on the full residual."""

    rowwise = False

    def value(self, r):
        top = float(np.max(r))
        return top + self.mu * (
            np.log(np.sum(np.exp((r - top) / self.mu))) - np.log(r.size)
        )

    def grad(self, r):
        e = np.exp((r - np.max(r)) / self.mu)
        return e / e.sum()


class SqrtNormLoss(_SmoothedLoss):
    """Smoothed Euclidean norm of the residual: sqrt(||r||^2 + mu^2) - mu."""

    rowwise = False

    def value(self, r):
        return float(np.sqrt(r @ r + self.mu**2) - self.mu)

    def grad(self, r):
        return r / np.sqrt(r @ r + self.mu**2)


# ---------------------------------------------------------------------------
# Gradient state


class GradientState:
    """Mutable per-run solver state: the iterate plus maintained residuals.

    Single-owner: one state per solver run, never shared between threads.
    Caches are rebuilt every ``REFRESH_INTERVAL`` steps to bound drift.
    """

    def __init__(self, x0: np.ndarray):
        self.x = np.array(x0, dtype=float, copy=True)
        self._steps = 0

    @property
    def value(self) -> float:
        return self._value

    def partial_gradient(self, s) -> np.ndarray:
        raise NotImplementedError

    def full_gradient(self) -> np.ndarray:
        raise NotImplementedError

    def apply_step(self, s, h) -> None:
        """Decrement x[S] by h and update residuals incrementally."""
        self._apply(np.asarray(s), np.asarray(h, dtype=float))
        self._steps += 1
        if self._steps >= REFRESH_INTERVAL:
            self.refresh()

    def refresh(self) -> None:
        self._steps = 0
        self._recompute()

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

    def partial_gradient(self, s):
        return self._g[s].copy()

    def full_gradient(self):
        return self._g.copy()


class _QuadraticDenseState(_QuadraticState):
    def _apply(self, s, h):
        # h' A[S,S] h = h' (g_old[S] - g_new[S]), so the exact value change
        # -g_old[S]'h + h'A[S,S]h/2 collapses to -h'(g_old[S] + g_new[S])/2
        g = self._g
        a = self._op
        x = self.x
        if s.size == 1:
            i = s[0]
            hv = h[0]
            g_old = g[i]
            x[i] -= hv
            g -= a[i] * hv  # row view; symmetric, so row i is column i
            self._value -= 0.5 * hv * (g_old + g[i])
        elif s.size == 2:
            i, j = s
            hi, hj = h
            gi_old, gj_old = g[i], g[j]
            x[i] -= hi
            x[j] -= hj
            g -= a[i] * hi
            g -= a[j] * hj
            self._value -= 0.5 * (hi * (gi_old + g[i]) + hj * (gj_old + g[j]))
        else:
            gs_old = g[s].copy()
            x[s] -= h
            g -= a[:, s] @ h
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
    """Separable state: maintains z = Ax and the loss derivatives w at z."""

    def __init__(self, obj: "SeparableObjective", x0):
        super().__init__(x0)
        self._obj = obj
        self._recompute()

    def _recompute(self):
        self._z = self._obj._products(self.x)
        self._value, self._w = self._obj._loss_eval(self._z)

    def full_gradient(self):
        return self._obj._adjoint(self._w)


class _SeparableDenseState(_SeparableState):
    def partial_gradient(self, s):
        return self._obj.a[:, s].T @ self._w

    def _apply(self, s, h):
        self.x[s] -= h
        self._z -= self._obj.a[:, s] @ h
        self._value, self._w = self._obj._loss_eval(self._z)


def _column_step(loss, z, ell, w, col, hj) -> float:
    """One column's share of a sparse separable step under a rowwise loss,
    for ``_SeparableSparseState._apply`` and the fused step of :func:`steps`.

    Decrements z on the column's rows by its nonzeros times hj, evaluates the
    loss on those rows only into ell and w, and returns the value change.
    """
    rows, vals, b_rows = col
    # put and add.reduce are the scatter and sum without the wrappers
    zr = z[rows]
    zr -= vals * hj
    z.put(rows, zr)
    ev, dv = loss.eval(zr, b_rows)
    change = float(np.add.reduce(ev - ell[rows]))
    ell.put(rows, ev)
    w.put(rows, dv)
    return change


class _SeparableSparseState(_SeparableState):
    """Separable state over a :class:`~volcd.linalg.CsrMatrix` data matrix.

    The objective's column views give each column's rows, its nonzeros and
    the per-row parameters b of those rows, so a coordinate step updates only
    the rows its columns meet and a partial gradient reads only those
    columns.  For a rowwise loss the state also keeps the per-row loss values
    ``ell``, with value = ell.sum() after every recompute: a step then
    evaluates the loss once per column, on that column's rows only, and
    never on the rows it left alone.
    """

    def __init__(self, obj: "SeparableObjective", x0):
        self._cols = obj._columns()
        super().__init__(obj, x0)

    def _recompute(self):
        obj = self._obj
        if not obj.loss.rowwise:
            super()._recompute()
            return
        # one loss evaluation gives ell and w; the value is _loss_eval's sum
        self._z = obj._products(self.x)
        self._ell, self._w = obj.loss.eval(self._z, obj.b)
        self._value = float(self._ell.sum())

    def partial_gradient(self, s):
        cols, w = self._cols, self._w
        out = np.empty(len(s))
        for p, j in enumerate(s):
            rows, vals, _ = cols[j]
            out[p] = np.dot(vals, w[rows])
        return out

    def _apply(self, s, h):
        obj = self._obj
        self.x[s] -= h
        # one column at a time: a column's rows are distinct, so a plain
        # scatter updates z exactly as np.subtract.at over all columns would.
        # Each column reads ell just after the previous column wrote it, so
        # the value changes add up exactly even where columns share rows.
        z, cols, loss = self._z, self._cols, obj.loss
        if not loss.rowwise:
            for j, hj in zip(s, h):
                rows, vals, _ = cols[j]
                z[rows] -= vals * hj
            self._value, self._w = obj._loss_eval(z)
            return
        ell, w = self._ell, self._w
        value = self._value
        for j, hj in zip(s, h):
            value += _column_step(loss, z, ell, w, cols[j], hj)
        self._value = value


class _RidgeState(GradientState):
    def __init__(self, obj: "RegularizedObjective", x0):
        self._inner = obj.inner.init_state(x0)
        self.x = self._inner.x  # shared iterate
        self._steps = 0
        self._gamma = obj.gamma
        self._sq = float(self.x @ self.x)

    @property
    def value(self):
        return self._inner.value + 0.5 * self._gamma * self._sq

    def partial_gradient(self, s):
        return self._inner.partial_gradient(s) + self._gamma * self.x[s]

    def full_gradient(self):
        return self._inner.full_gradient() + self._gamma * self.x

    def _apply(self, s, h):
        xs_old = self.x[s]
        self._sq += float(h @ h) - 2.0 * float(xs_old @ h)
        # the inner step without the inner step count: this state's refresh
        # already recomputes the inner state once per interval
        self._inner._apply(s, h)

    def _recompute(self):
        self._inner.refresh()
        self._sq = float(self.x @ self.x)


# ---------------------------------------------------------------------------
# Steps


def steps(state, subsets, solve):
    """Step ``state`` by h = solve(S, partial gradient on S) for each S
    drawn from ``subsets``, yielding its value after each step.

    A dense quadratic state on a sampler's :class:`~volcd.sampling.Draws`
    of one to three coordinates, with a dense B, takes windowed steps, which
    agree with the per-step path to rounding.  A window yields the values
    of its steps before the last as one 1-d float64 array, then the last as
    a float; a reader that stops inside the array sends the number of its
    values it took, and the window applies those steps and ends, while a
    close there applies the steps of every value yielded.  A sparse separable
    state under a rowwise loss (bare or with ridge) takes a fused step,
    bitwise ``apply_step``'s, whose locals go back to the state when the
    generator closes or ends.  Every other state, a dense quadratic one on
    forced subsets or at tau >= 4 included, steps through its public
    methods: a subset of four or more coordinates is solved by LAPACK's
    Cholesky, whose singularity test a window cannot repeat."""
    kind = type(state)
    if (kind is _QuadraticDenseState and type(subsets) is Draws and subsets.tau <= 3
            and isinstance(solve.matrix, np.ndarray)):
        return _dense_window_steps(state, subsets, solve)
    inner = state._inner if kind is _RidgeState else state
    if type(inner) is _SeparableSparseState and inner._obj.loss.rowwise:
        return _sparse_separable_steps(state, subsets, solve)
    return _public_steps(state, subsets, solve)


def _public_steps(state, subsets, solve):
    """Steps through the state's public methods."""
    for s in subsets:
        state.apply_step(s, solve(s, state.partial_gradient(s)))
        yield state.value


def _apply_window(x, g, idx, h, rows, p):
    """The first p coordinates of a window's steps: x[idx] -= h and
    g -= A[:, idx] h, with ``rows`` = A[idx]."""
    np.subtract(g, h[:p] @ rows[:p], out=g)
    np.subtract.at(x, idx[:p], h[:p])


def _dense_window_steps(state, draws, solve):
    """Windowed steps of a dense quadratic state on a sampled stream of
    subsets of one to three coordinates.

    A window peeks at the next ``_WINDOW // tau`` subsets S_1, ..., S_m of
    the stream's batch, fewer at the batch's end and at the refresh
    boundary, and stacks their indices into I.  Step t solves B[S_t, S_t]
    h_t = g[S_t] - sum_{s<t} A[S_t, S_s] h_s, so the window's steps are one
    block lower-triangular system M h = g[I], where M has B's diagonal
    blocks and the strictly block-lower part of A[I, I].  What depends on
    the subsets alone is done once per slice of ``_SLICE`` windows' subsets
    of the batch: the gathered diagonal and block-upper entries of B,
    ``solve.regular``, the closed forms' own pivot tests, and the constants
    B_ss - A_ss / 2 and B_st - A_st / 2 of each step's value decrease
    h_t . B h_t - h_t . A h_t / 2.  The values value - cumsum(decrease) of a
    window's first m - 1 steps are yielded as one float64 array, and the
    steps are applied, with R = A[I], as g -= h @ R and x[I] -= h before
    the last value is yielded as a float.  A reader that stops inside the
    array sends the number of its values it took, and the window applies
    those steps and ends; closing the generator there applies them all.
    The stream logs exactly the subsets applied.  A diagonal block that
    fails the pivot test ends the window before it and takes the per-step
    path, which raises under an exact method; so does the first subset of a
    window whose solve fails.  A window with a step that raises the value
    (B does not bound A on that block: the run overshoots, and its
    iteration amplifies rounding differences) or with values past
    ``_VALUE_LIMIT`` is not taken, and its subsets step one at a time, so a
    diverging run takes the per-step path's own arithmetic and stops where
    its replay stops.  So the values of a taken window are finite, within
    the limit and non-increasing.  Otherwise the iterates agree with the
    per-step path, ``_apply``, to rounding, not bitwise."""
    tau = draws.tau
    x, a, b, regular = state.x, state._op, solve.matrix, solve.regular
    g, value, count = state._g, state._value, state._steps
    bdiag, adiag = b.diagonal(), a.diagonal()
    block = np.arange(_WINDOW) // tau
    lower = block[:, None] > block  # strictly block-lower
    # a subset's strictly upper entries (r, c), in row order, sit at
    # (t tau + r, t tau + c) in the system of a window whose block t it is
    pair = np.triu_indices(tau, 1)
    first = np.arange(0, _WINDOW, tau)[:, None]
    upper_r, upper_c = (first + i for i in pair)
    per, interval = _WINDOW // tau, REFRESH_INTERVAL
    off = size = 0  # the next subset's offset in the slice, and its length
    pending = 0  # steps whose values were yielded but which are not applied
    solo = 0  # subsets left to step one at a time after a window not taken
    try:
        while True:
            subs = draws.peek(min(per, interval - count))
            k = len(subs)
            if off + k > size:
                # the next slice starts at subs[0] and ends at the batch's end
                # at the latest
                sl = draws.peek(_SLICE * per)
                off, size = 0, len(sl)
                flat = sl.ravel()
                bd_s = bdiag[flat]
                bo_s = None
                if tau > 1:
                    rr, cc = sl[:, pair[0]], sl[:, pair[1]]
                    bo_s = b[rr, cc]
                    cross_s = bo_s - 0.5 * a[rr, cc]
                diag_s = bd_s - 0.5 * adiag[flat]
                fails = np.flatnonzero(~regular(bd_s.reshape(size, tau), bo_s)).tolist()
                fails.append(size)
            m = 0
            if solo:
                solo -= 1
            else:
                m = min(k, fails[bisect_left(fails, off)] - off)
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
                if m > 1:
                    pending = m - 1
                    # a reader that stops inside the block sends how many of
                    # its values it took
                    taken = yield vals[:-1]
                    if taken is not None:
                        pending = taken
                        return
                _apply_window(x, g, idx, h, rows, p)
                draws.take(m)
                value, pending = last, 0
            off += m
            count += m
            if count >= interval:
                state._value = value
                state.refresh()
                g, value, count = state._g, state._value, 0
            yield value
    finally:
        if pending:
            _apply_window(x, g, idx, h, rows, pending * tau)
            draws.take(pending)
            value, count = float(vals[pending - 1]), count + pending
        state._value, state._steps = value, count


def _sparse_separable_steps(state, subsets, solve):
    """Fused steps of a sparse separable state under a rowwise loss, bare or
    with ridge: one or two coordinates read ``np.dot(vals, w[rows])``, as
    ``partial_gradient`` does, solve on floats and step each column by
    :func:`_column_step`; larger steps call ``partial_gradient``, ``solve``
    and ``_apply``.  A pair keeps ``_RidgeState._apply``'s length-2 dots:
    they may round unlike a*a + b*b."""
    ridge = type(state) is _RidgeState
    inner = state._inner if ridge else state
    one, two = solve.one, solve.two
    column, loss = _column_step, inner._obj.loss
    x, cols = state.x, inner._cols
    z, ell, w = inner._z, inner._ell, inner._w
    value, count = inner._value, state._steps
    gamma = state._gamma if ridge else 0.0
    sq = state._sq if ridge else 0.0
    interval = REFRESH_INTERVAL
    try:
        for s in subsets:
            size = s.size
            if size == 1:
                i = s.item(0)
                ci = cols[i]
                gi = float(np.dot(ci[1], w[ci[0]]))
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
                gi = float(np.dot(ci[1], w[ci[0]]))
                gj = float(np.dot(cj[1], w[cj[0]]))
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
                h = solve(s, state.partial_gradient(s))
                if ridge:  # _RidgeState._apply's update, on the local sq
                    sq += float(h @ h) - 2.0 * float(x[s] @ h)
                inner._value = value
                inner._apply(s, h)
                value = inner._value
            count += 1
            if count >= interval:
                state.refresh()
                z, ell, w, value, count = inner._z, inner._ell, inner._w, inner._value, 0
                if ridge:
                    sq = state._sq
            # the ridge state's value property, with its expression
            yield value + 0.5 * gamma * sq if ridge else value
    finally:
        inner._value, state._steps = value, count
        if ridge:
            state._sq = sq


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
        loss = self.loss
        if loss.rowwise:
            values, w = loss.eval(z, self.b)
            return float(values.sum()), w
        r = z - self.b
        return float(loss.value(r)), loss.grad(r)

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
        return _SeparableDenseState(self, x0)


class RegularizedObjective:
    """inner(x) + gamma * ||x||^2 / 2; curvature gains gamma on the diagonal."""

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
        return _RidgeState(self, x0)
