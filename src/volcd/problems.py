"""Benchmark problem generators, dataset ingestion, and reference optima.

Sparse Huber problems and LIBSVM data are :class:`~volcd.linalg.CsrMatrix`
data matrices, generated, parsed and solved for their reference optima with
numpy alone.  :func:`banded_psd` fills its band as one array and hands the
stored part to :class:`~volcd.linalg.CsrSymmetricUpper`.  This module
imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ParseError, UnboundedLevelSet
from .linalg import CsrMatrix, CsrSymmetricUpper, as_dense, symmetrize
from .objectives import (
    HuberLoss,
    LogisticLoss,
    QuadraticObjective,
    RegularizedObjective,
    SeparableObjective,
)
from .rng import RngStream

__all__ = [
    "ProblemSpec",
    "banded_psd",
    "gen_huber",
    "gen_quadratic",
    "generate",
    "load_libsvm",
    "read_libsvm",
    "reference_min",
]


@dataclass
class ProblemSpec:
    """Parameters of a generated quadratic or smoothed-l1 (huber) problem.

    The synthetic spectra put ``lam1 >= lam2`` ahead of a flat tail of ones,
    so ``lam1 / lam2`` is the spectral gap under study.  ``m`` (rows) and
    ``sparsity`` belong to huber problems; a quadratic rejects them.
    Logistic problems are read from LIBSVM files (:func:`load_libsvm`), not
    generated.
    """

    kind: str  # quadratic | huber
    n: int
    m: int | None = None
    lam1: float = 400.0
    lam2: float = 100.0
    mu: float = 0.01
    sparsity: int | None = None  # nonzeros per reflection direction
    seed: int = 0
    reflections: int = 10

    def eigenvalues(self) -> np.ndarray:
        """The constructed spectrum of the curvature matrix, in construction
        order: lam1, lam2, then ones, with zeros past min(m, n) for huber.

        Not sorted when lam2 < 1.
        """
        k = self.n if self.kind == "quadratic" else min(self.m, self.n)
        lam = np.zeros(self.n)
        lam[:k] = 1.0
        lam[0] = self.lam1
        if k > 1:
            lam[1] = self.lam2
        return lam

    def validate(self) -> None:
        if self.kind == "logistic":
            raise ConfigError("logistic problems come from LIBSVM files: use --dataset")
        if self.kind not in ("quadratic", "huber"):
            raise ConfigError(f"unknown problem kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError("dimension must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.reflections < 0:
            raise ConfigError("reflections must be nonnegative")
        if not math.isfinite(self.lam1) or not self.lam1 >= self.lam2 > 0:
            raise ConfigError("need finite lam1 >= lam2 > 0")
        mu = self.mu
        if not (math.isfinite(mu) and mu > 0 and math.isfinite(1.0 / mu)):
            raise ConfigError(
                "smoothing parameter must be finite and positive, with a finite reciprocal"
            )
        if self.kind == "quadratic" and not (self.m is None and self.sparsity is None):
            raise ConfigError("quadratic problems take no m or sparsity")
        if self.kind == "huber" and (self.m is None or self.m < 1):
            raise ConfigError("huber problems need a row count m")
        if self.sparsity is not None:
            top = min(self.m or self.n, self.n)
            if not 1 <= self.sparsity <= top:
                raise ConfigError(f"sparsity must lie in [1, {top}]")


def _sphere_direction(dim: int, rng: RngStream) -> np.ndarray:
    u = rng.standard_normal(dim)
    return u / np.linalg.norm(u)


def _sparse_direction(dim: int, p: int, rng: RngStream):
    """A unit direction with p nonzeros: its indices ascending, and its
    values at them."""
    idx = rng.generator.choice(dim, size=p, replace=False)
    vals = _sphere_direction(p, rng)
    order = np.argsort(idx)
    return idx[order], vals[order]


def _minus_outer(keys, vals, n: int, rows, r, cols, c):
    """A - 2 r c' for sparse A, given as sorted keys row * n + column and
    values, and r and c given by their nonzeros; exact zeros are dropped."""
    new = (rows[:, None] * n + cols).ravel()
    keys = np.concatenate((keys, new))
    vals = np.concatenate((vals, -(2.0 * (r[:, None] * c)).ravel()))
    # two sorted runs; a stable sort puts A's entry ahead of its update
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    both = np.flatnonzero(keys[1:] == keys[:-1])
    vals[both] += vals[both + 1]
    keep = vals != 0
    keep[both + 1] = False
    return keys[keep], vals[keep]


def gen_quadratic(spec: ProblemSpec):
    """Random quadratic with eigenvalues exactly (lam1, lam2, 1, ..., 1).

    The matrix starts diagonal and is conjugated by random Householder
    reflections (orthogonal similarity, so the spectrum is preserved to
    roundoff).  The linear term makes a random hypercube point stationary,
    so the optimal value is known in closed form.

    Returns ``(objective, x_star, f_star)``.
    """
    spec.validate()
    rng = RngStream(spec.seed)
    n = spec.n
    a = np.diag(spec.eigenvalues())
    for _ in range(spec.reflections):
        u = _sphere_direction(n, rng)
        w = a @ u
        uw = float(u @ w)
        a -= 2.0 * np.outer(u, w) + 2.0 * np.outer(w, u) - 4.0 * uw * np.outer(u, u)
    a = symmetrize(a)
    x_star = rng.generator.uniform(-1.0, 1.0, size=n)
    b = a @ x_star
    f_star = -0.5 * float(b @ x_star)
    return QuadraticObjective(a, b), x_star, f_star


def gen_huber(spec: ProblemSpec):
    """Random smoothed-l1 regression problem with a controlled spectrum.

    The m x n data matrix starts as the rectangular diagonal with entries
    sqrt(lam1/mu), sqrt(lam2/mu), sqrt(1/mu), ... and is hit by two-sided
    random reflections, so the curvature matrix (1/mu) A'A has eigenvalues
    (lam1, lam2, 1, ..., 1) plus n - m zeros when m < n.  With ``sparsity``
    set, reflection directions have that many nonzeros and the data matrix
    stays sparse: a :class:`~volcd.linalg.CsrMatrix`, reflected on index
    arrays.  Offsets are consistent (b = A x_star), so the optimal value is
    exactly 0.

    Returns ``(objective, x_star, f_star)``.
    """
    spec.validate()
    if spec.kind != "huber":
        raise ConfigError("gen_huber needs a huber ProblemSpec")
    rng = RngStream(spec.seed)
    m, n = spec.m, spec.n
    k = min(m, n)
    # (1/mu) A'A must end up with eigenvalues (lam1, lam2, 1, ..., 1), so
    # the rectangular diagonal carries sqrt(mu * lam_i)
    diag = np.sqrt(spec.mu * spec.eigenvalues()[:k])

    if spec.sparsity is None:
        a = np.zeros((m, n))
        a[np.arange(k), np.arange(k)] = diag
        for _ in range(spec.reflections):
            u = _sphere_direction(m, rng)
            v = _sphere_direction(n, rng)
            a -= 2.0 * np.outer(u, u @ a)
            a -= 2.0 * np.outer(a @ v, v)
    else:
        # A's entries as sorted keys row * n + column, starting on the diagonal
        keys, vals = np.arange(k) * (n + 1), diag
        for _ in range(spec.reflections):
            ui, u = _sparse_direction(m, spec.sparsity, rng)
            vi, v = _sparse_direction(n, spec.sparsity, rng)
            # A - 2 u (u'A): t = u'A adds each column's terms in row order
            rows, cols = np.divmod(keys, n)
            weight = np.zeros(m)
            weight[ui] = u
            t = np.bincount(cols, weights=vals * weight[rows], minlength=n)
            tj = np.flatnonzero(t)
            keys, vals = _minus_outer(keys, vals, n, ui, u, tj, t[tj])
            # A - 2 (Av) v': s = Av adds each row's terms in column order
            rows, cols = np.divmod(keys, n)
            weight = np.zeros(n)
            weight[vi] = v
            s = np.bincount(rows, weights=vals * weight[cols], minlength=m)
            si = np.flatnonzero(s)
            keys, vals = _minus_outer(keys, vals, n, si, s[si], vi, v)
        rows, cols = np.divmod(keys, n)
        a = CsrMatrix((m, n), rows.searchsorted(np.arange(m + 1)), cols, vals)

    x_star = rng.generator.uniform(-1.0, 1.0, size=n)
    b = a @ x_star
    obj = SeparableObjective(a, b, HuberLoss(spec.mu))
    return obj, x_star, 0.0


def generate(spec: ProblemSpec):
    """Dispatch on the problem kind."""
    if spec.kind == "huber":
        return gen_huber(spec)
    return gen_quadratic(spec)


# ---------------------------------------------------------------------------
# LIBSVM ingestion


def read_libsvm(path):
    """Parse a LIBSVM text file into (:class:`~volcd.linalg.CsrMatrix` data
    matrix, labels in {-1, +1}).

    Lines look like ``label idx:val idx:val ...`` with 1-based feature
    indices.  Exactly two distinct labels are allowed; the smaller maps to
    -1 and the larger to +1.  A non-finite label or value is a
    :class:`ParseError` naming its line, and so is a file without any
    feature entry.
    """
    labels: list[float] = []
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"bad label {parts[0]!r}", line=lineno) from None
            if not math.isfinite(label):
                raise ParseError(f"non-finite label {parts[0]!r}", line=lineno)
            labels.append(label)
            prev = 0
            for item in parts[1:]:
                try:
                    idx_s, val_s = item.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(
                        f"bad feature entry {item!r}", line=lineno
                    ) from None
                if idx < 1:
                    raise ParseError(f"feature index {idx} < 1", line=lineno)
                if not math.isfinite(val):
                    raise ParseError(f"non-finite value {val_s!r}", line=lineno)
                if idx <= prev:
                    raise ParseError(
                        f"feature indices must increase, got {idx} after {prev}",
                        line=lineno,
                    )
                prev = idx
                indices.append(idx - 1)
                data.append(val)
                n = max(n, idx)
            indptr.append(len(indices))
    if not labels:
        raise ParseError("no samples found")
    if n == 0:
        raise ParseError("no feature entries found")
    uniq = sorted(set(labels))
    if len(uniq) > 2:
        raise ParseError(f"expected binary labels, found {len(uniq)} distinct values")
    y = np.asarray(labels)
    if len(uniq) == 2:
        y = np.where(y == uniq[0], -1.0, 1.0)
    elif uniq[0] not in (-1.0, 1.0):
        raise ParseError(f"single label value {uniq[0]} is not interpretable")
    return CsrMatrix((len(labels), n), indptr, indices, data), y


def load_libsvm(path, gamma: float = 1.0):
    """Ridge-regularized logistic regression objective from a LIBSVM file,
    with a finite ridge weight ``gamma >= 0``, where 0 means no ridge."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError("ridge weight must be finite and nonnegative")
    a, y = read_libsvm(path)
    core = SeparableObjective(a, y, LogisticLoss())
    if gamma > 0:
        return RegularizedObjective(core, gamma)
    return core


# ---------------------------------------------------------------------------
# Reference optimal values


# The reference solve of a non-quadratic runs until the gradient norm is at
# most this, or fails after this many iterations.
_REFERENCE_GRAD_TOL = 1e-10
_REFERENCE_MAX_ITERS = 100_000


def reference_min(obj, b=None) -> float:
    """Optimal objective value, exact for quadratics, iterative otherwise.

    Quadratics use the minimum-norm stationary point; an inconsistent linear
    term means an unbounded objective.  Other objectives must have a positive
    definite curvature matrix B (e.g. any ridge weight > 0), which majorizes
    the Hessian.  From x = y = 0 and t = 1, each iteration takes the
    majorizer's step from the extrapolated point, x' = y - B^{-1} grad f(y),
    with Nesterov's momentum, t' = (1 + sqrt(1 + 4 t^2)) / 2 and
    y' = x' + ((t - 1) / t') (x' - x), and restarts the momentum (t = 1, so
    y' = x') whenever grad f(y)'(x' - x) > 0 (O'Donoghue & Candes, "Adaptive
    restart for accelerated gradient schemes", 2015).  Where B overstates the
    Hessian, as for logistic losses with large margins, this takes a small
    fraction of the plain step x <- x - B^{-1} grad f(x)'s iterations.
    The run ends at the first y whose gradient norm is at most 1e-10, and
    returns f(y); past ``_REFERENCE_MAX_ITERS`` gradients it raises
    :class:`NumericError`.  B is densified, sparse or not, and factored once
    by numpy's Cholesky; a B that is not positive definite raises
    :class:`NumericError`.  ``b`` is that curvature matrix when the caller
    has already built it; by default it is built here.
    """
    if isinstance(obj, QuadraticObjective):
        a = as_dense(obj.a)
        x_star, _, _, _ = np.linalg.lstsq(a, obj.b, rcond=None)
        resid = a @ x_star - obj.b
        if np.linalg.norm(resid) > 1e-8 * (1.0 + np.linalg.norm(obj.b)):
            raise UnboundedLevelSet(
                "linear term has a component outside the curvature range; "
                "the quadratic is unbounded below"
            )
        return float(obj.value(x_star))

    if b is None:
        b = obj.curvature_matrix()
    try:
        chol = np.linalg.cholesky(as_dense(b))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "curvature matrix is not positive definite; the reference solve "
            "needs a strongly convex objective (any ridge weight > 0) or a "
            "quadratic"
        ) from exc
    # B^-1 = W'W with W = L^-1: the iteration's fixed point is grad f = 0
    # whatever the rounding of W, so it only preconditions the steps
    inv_chol = np.linalg.inv(chol)

    x = y = np.zeros(obj.n)
    t = 1.0
    for _ in range(_REFERENCE_MAX_ITERS):
        g = obj.gradient(y)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _REFERENCE_GRAD_TOL:
            return float(obj.value(y))
        x_next = y - inv_chol.T @ (inv_chol @ g)
        step = x_next - x
        if g @ step > 0:  # the momentum points uphill: restart it
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * step
        x, t = x_next, t_next
    raise NumericError(
        f"reference solve did not reach gradient norm {_REFERENCE_GRAD_TOL:g} in "
        f"{_REFERENCE_MAX_ITERS} iterations (achieved {gnorm:.3e})"
    )


# ---------------------------------------------------------------------------
# Structured sparse test matrices


def banded_psd(n: int, bandwidth: int, seed: int = 0) -> CsrSymmetricUpper:
    """Random diagonally dominant banded matrix (hence positive definite).

    Off-diagonal entries are standard normal within the band; each diagonal
    entry exceeds the absolute sum of its row, column included implicitly by
    symmetry.  nnz is about n * (bandwidth + 1).
    """
    if bandwidth < 1 or bandwidth >= n:
        raise ValueError("need 1 <= bandwidth < n")
    rng = RngStream(seed)
    # row i of the band holds B[i, i + d] in column d; past the last column
    # it holds zeros, which are not stored
    band = np.zeros((n, bandwidth + 1))
    rowsum = np.zeros(n)
    for d in range(1, bandwidth + 1):
        v = rng.standard_normal(n - d)
        band[: n - d, d] = v
        rowsum[: n - d] += np.abs(v)
        rowsum[d:] += np.abs(v)
    band[:, 0] = rowsum + 1.0
    keep = band != 0
    cols = np.arange(n)[:, None] + np.arange(bandwidth + 1)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return CsrSymmetricUpper(n, indptr, cols[keep], band[keep])
