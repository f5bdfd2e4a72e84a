"""Smooth objective functions with curvature matrices and cheap partial
gradients.

Each objective certifies its own upper curvature matrix B, meaning

    f(y) <= f(x) + <grad f(x), y - x> + ||y - x||_B^2 / 2

for all x, y.  Solvers hold a :class:`GradientState` per run; the state keeps
the iterate together with maintained residuals so that a coordinate step and
its partial gradient cost only the touched rows and columns, never a full
pass over the data.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .linalg import CsrSymmetricUpper, add_to_diagonal, symmetrize

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


# ---------------------------------------------------------------------------
# Losses


class SquareLoss:
    """Least squares per row: (t - b_i)^2 / 2."""

    rowwise = True
    smoothness = 1.0

    def values(self, z, b):
        return 0.5 * (z - b) ** 2

    def derivs(self, z, b):
        return z - b


class LogisticLoss:
    """Logistic loss per row: ln(1 + exp(-b_i t)) with labels b_i in {-1, +1}.

    Evaluated as max(0, -s) + log1p(exp(-|s|)) for s = b_i t, which is stable
    for any magnitude of s.
    """

    rowwise = True
    smoothness = 0.25

    def values(self, z, b):
        s = b * z
        return np.maximum(0.0, -s) + np.log1p(np.exp(-np.abs(s)))

    def derivs(self, z, b):
        s = b * z
        e = np.exp(-np.abs(s))  # sigmoid(-s) without overflow on either tail
        return -b * (np.where(s >= 0, e, 1.0) / (1.0 + e))


class HuberLoss:
    """Smoothed absolute value per row, quadratic inside |t - b_i| <= mu."""

    rowwise = True

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("smoothing parameter must be positive")
        self.mu = float(mu)
        self.smoothness = 1.0 / self.mu

    def values(self, z, b):
        t = np.abs(z - b)
        return np.where(t <= self.mu, 0.5 * t**2 / self.mu, t - 0.5 * self.mu)

    def derivs(self, z, b):
        return np.clip((z - b) / self.mu, -1.0, 1.0)


class LogSumExpLoss:
    """Smoothed maximum of the residual vector: mu * ln sum exp(r_i / mu),
    shifted so the value at r = 0 is 0.  Operates on the full residual."""

    rowwise = False

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("smoothing parameter must be positive")
        self.mu = float(mu)
        self.smoothness = 1.0 / self.mu

    def value(self, r):
        top = float(np.max(r))
        return top + self.mu * (
            np.log(np.sum(np.exp((r - top) / self.mu))) - np.log(r.size)
        )

    def grad(self, r):
        e = np.exp((r - np.max(r)) / self.mu)
        return e / e.sum()


class SqrtNormLoss:
    """Smoothed Euclidean norm of the residual: sqrt(||r||^2 + mu^2) - mu."""

    rowwise = False

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("smoothing parameter must be positive")
        self.mu = float(mu)
        self.smoothness = 1.0 / self.mu

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
        self._z = np.asarray(self._obj.a @ self.x).ravel()
        self._value, self._w = self._obj._loss_eval(self._z)

    def full_gradient(self):
        return np.asarray(self._obj.a.T @ self._w).ravel()


class _SeparableDenseState(_SeparableState):
    def partial_gradient(self, s):
        return self._obj.a[:, s].T @ self._w

    def _apply(self, s, h):
        self.x[s] -= h
        self._z -= self._obj.a[:, s] @ h
        self._value, self._w = self._obj._loss_eval(self._z)


class _SeparableSparseState(_SeparableState):
    """Separable state over a scipy CSR data matrix.

    A companion CSC view provides the touched-rows structure: a coordinate
    step updates only the residuals of rows whose data columns it meets, and
    a partial gradient reads only those columns.
    """

    def __init__(self, obj: "SeparableObjective", x0):
        csc = obj._csc()
        self._cptr = csc.indptr
        self._crow = csc.indices
        self._cval = csc.data
        super().__init__(obj, x0)

    def partial_gradient(self, s):
        out = np.empty(len(s))
        for p, j in enumerate(s):
            lo, hi = self._cptr[j], self._cptr[j + 1]
            out[p] = self._cval[lo:hi] @ self._w[self._crow[lo:hi]]
        return out

    def _apply(self, s, h):
        obj = self._obj
        self.x[s] -= h
        # one column at a time: a column's rows are distinct, so a plain
        # scatter updates z exactly as np.subtract.at over all columns would.
        # Each column's rows are read just before and just after its own
        # update, so a rowwise loss's value changes add up even where the
        # columns share rows; the loss runs once on all of them.
        z = self._z
        rows, before, after = [], [], []
        for j, hj in zip(s, h):
            lo, hi = self._cptr[j], self._cptr[j + 1]
            r = self._crow[lo:hi]
            zr = z[r]
            before.append(zr.copy())
            zr -= self._cval[lo:hi] * hj
            z[r] = zr
            rows.append(r)
            after.append(zr)
        loss = obj.loss
        if not loss.rowwise:
            self._value, self._w = obj._loss_eval(z)
            return
        rows = np.concatenate(rows)
        b = obj.b[rows]
        self._value += float(
            loss.values(np.concatenate(after), b).sum()
            - loss.values(np.concatenate(before), b).sum()
        )
        self._w[rows] = loss.derivs(z[rows], b)


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
# Objectives


class QuadraticObjective:
    """f(x) = <Ax, x>/2 - <b, x> for symmetric PSD A; curvature matrix is A."""

    def __init__(self, a, b):
        if isinstance(a, CsrSymmetricUpper):
            self.a, self._op = a, None  # scipy form, built on first use
        else:
            self.a = self._op = np.asarray(a, dtype=float)
        self.n = self.a.shape[0]
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.n,):
            raise ValueError("linear term has wrong length")

    def _operator(self):
        """A in a form that multiplies vectors: the array, or a scipy matrix."""
        if self._op is None:
            self._op = self.a.to_scipy()
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
    smoothness constant."""

    def __init__(self, a, b, loss):
        if scipy.sparse.issparse(a):
            self.a = scipy.sparse.csr_matrix(a)
            self.sparse = True
        else:
            self.a = np.asarray(a, dtype=float)
            self.sparse = False
        self.m, self.n = self.a.shape
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.m,):
            raise ValueError("per-row parameter has wrong length")
        self.loss = loss
        self._csc_cache = None

    def _csc(self):
        if self._csc_cache is None:
            self._csc_cache = scipy.sparse.csc_matrix(self.a)
        return self._csc_cache

    def _loss_eval(self, z):
        """(f, w) at data products z = Ax, where w = dloss/dz so that the
        gradient is A'w."""
        loss = self.loss
        if loss.rowwise:
            return float(loss.values(z, self.b).sum()), loss.derivs(z, self.b)
        r = z - self.b
        return float(loss.value(r)), loss.grad(r)

    def _products(self, x):
        return np.asarray(self.a @ np.asarray(x, dtype=float)).ravel()

    def value(self, x) -> float:
        return self._loss_eval(self._products(x))[0]

    def gradient(self, x) -> np.ndarray:
        w = self._loss_eval(self._products(x))[1]
        return np.asarray(self.a.T @ w).ravel()

    def curvature_matrix(self):
        gram = self.loss.smoothness * (self.a.T @ self.a)
        if self.sparse:
            return CsrSymmetricUpper.from_scipy(gram)
        return symmetrize(gram)

    def init_state(self, x0) -> GradientState:
        if self.sparse:
            return _SeparableSparseState(self, x0)
        return _SeparableDenseState(self, x0)


class RegularizedObjective:
    """inner(x) + gamma * ||x||^2 / 2; curvature gains gamma on the diagonal."""

    def __init__(self, inner, gamma: float):
        if gamma <= 0:
            raise ValueError("ridge weight must be positive")
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
