"""Symmetric matrix types, factorizations, and spectral utilities.

Dense symmetric matrices are plain ``numpy.ndarray`` objects; the helpers here
validate and symmetrize at construction boundaries.  Sparse symmetric matrices
use :class:`CsrSymmetricUpper`, a compressed-row layout that stores only the
diagonal-and-rightward entries of each row, diagonal first.

Only this module reads the storage of a curvature matrix B.  Other modules
may pick an algorithm by storage (the sparse pair sampler, the sparse solver
states), but they read B through ``shape``, ``diagonal()`` and
``item(i, j)``, which both storages provide, gather blocks with
:func:`gather_submatrix`, and densify it only with :func:`as_dense`.

scipy is imported only inside the functions that call it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    NumericError,
    ParseError,
    SingularSubmatrix,
    ZeroDiagonalNonzeroRow,
)

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "CsrSymmetricUpper",
    "Spectrum",
    "add_to_diagonal",
    "adjugate",
    "as_dense",
    "as_symmetric",
    "eigendecompose",
    "format_triples",
    "gather_submatrix",
    "load_csr_triples",
    "load_dense_triples",
    "minor_threshold",
    "principal_submatrix",
    "psd_det",
    "pseudo_solve",
    "require_finite",
    "save_triples",
    "spd_solve",
    "symmetrize",
    "validate_index_set",
]

# Principal minors below this times (max diagonal) ** tau count as exactly 0.
_DET_CLAMP = 1e-14


def minor_threshold(diag_max: float, tau: int) -> float:
    """The value below which an order-tau principal minor of B counts as
    exactly 0, for B's largest diagonal entry ``diag_max``: 1e-14 times
    ``diag_max ** tau``, or infinity when ``diag_max <= 0``.  Every
    determinantal sampler and :func:`psd_det` clamp with it."""
    return _DET_CLAMP * diag_max**tau if diag_max > 0 else np.inf


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part (a + a.T) / 2 as float64."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def as_symmetric(a, tol: float = 1e-10) -> np.ndarray:
    """Validate that ``a`` is a square, finite, symmetric matrix.

    Asymmetry above ``tol`` (relative to the largest entry) is an error;
    below it, the matrix is symmetrized to remove roundoff.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    require_finite(a)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > tol * scale:
        raise ValueError("matrix is not symmetric")
    return symmetrize(a)


def require_finite(b) -> None:
    """Raise ``ValueError`` when B has a non-finite entry.  A
    :class:`CsrSymmetricUpper` is finite by construction; a dense B is
    scanned once."""
    if not isinstance(b, CsrSymmetricUpper) and not np.isfinite(b).all():
        raise ValueError("matrix contains non-finite entries")


def validate_index_set(s, n: int) -> np.ndarray:
    """Validate a sorted, distinct coordinate subset of range(n).

    Returns the subset as an int64 array.  Subsets are 0-based throughout the
    library; 1-based indices appear only in text file formats.
    """
    s = np.asarray(s, dtype=np.int64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("index set must be a nonempty 1-d sequence")
    if s.size > n:
        raise ValueError(f"index set of size {s.size} exceeds dimension {n}")
    if (np.diff(s) <= 0).any():
        raise ValueError("index set must be strictly increasing")
    if s[0] < 0 or s[-1] >= n:
        raise IndexError(f"index set entries must lie in [0, {n})")
    return s


# ---------------------------------------------------------------------------
# Sparse symmetric storage


class CsrSymmetricUpper:
    """Sparse symmetric PSD matrix stored row-wise, upper triangle only.

    Row i keeps the column indices ``i <= j_1 < ... < j_r`` and values of its
    nonzeros at or to the right of the diagonal; the lower triangle is implied
    by symmetry.  Whenever a row is nonempty its first stored entry must be
    the diagonal with a nonnegative value: a positive-semidefinite matrix with
    ``B[i, i] = 0`` has a zero row, so off-diagonal entries without a stored
    positive diagonal are rejected with :class:`ZeroDiagonalNonzeroRow`.

    The arrays follow the standard compressed-row convention: ``indptr`` has
    length n + 1, ``indices``/``values`` have length nnz.  Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("n", "indptr", "indices", "values")

    def __init__(self, n: int, indptr, indices, values):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=float)
        self._validate()
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.values.setflags(write=False)

    def _validate(self):
        n, indptr, indices, values = self.n, self.indptr, self.indices, self.values
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed indptr")
        if indices.shape != values.shape:
            raise ValueError("indices and values must have equal length")
        if (np.diff(indptr) < 0).any():
            raise ValueError("indptr must be nondecreasing")
        if not np.isfinite(values).all():
            raise ValueError("values contain non-finite entries")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError("column index out of range")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        if (indices < rows).any():
            raise ValueError("entries below the diagonal are not stored")
        first = indptr[:-1][np.diff(indptr) > 0]
        nonempty_rows = np.flatnonzero(np.diff(indptr) > 0)
        # strictly increasing columns inside each row
        interior = np.ones(indices.size, dtype=bool)
        interior[first] = False
        if indices.size > 1 and (np.diff(indices)[interior[1:]] <= 0).any():
            raise ValueError("column indices must be strictly increasing per row")
        if (indices[first] != nonempty_rows).any():
            raise ZeroDiagonalNonzeroRow(
                "nonempty row must store its diagonal entry first"
            )
        if (values[first] < 0).any():
            raise ValueError("diagonal values must be nonnegative")
        row_len = np.diff(indptr)[nonempty_rows]
        if ((values[first] == 0) & (row_len > 1)).any():
            raise ZeroDiagonalNonzeroRow(
                "zero diagonal with off-diagonal entries contradicts positive "
                "semidefiniteness"
            )

    @property
    def nnz(self) -> int:
        """Stored entries (upper triangle incl. diagonal)."""
        return int(self.indices.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n)
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        d[nonempty] = self.values[self.indptr[:-1][nonempty]]
        return d

    def item(self, i: int, j: int) -> float:
        """B[i, j] with symmetric lookup, named like ``ndarray.item``."""
        if i > j:
            i, j = j, i
        lo, hi = self.indptr[i], self.indptr[i + 1]
        # the method skips np.searchsorted's dispatch, most of a lookup's cost
        k = lo + self.indices[lo:hi].searchsorted(j)
        if k < hi and self.indices[k] == j:
            return float(self.values[k])
        return 0.0

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        a[rows, self.indices] = self.values
        return a + a.T - np.diag(np.diag(a))

    @classmethod
    def from_dense(cls, a) -> "CsrSymmetricUpper":
        """Build from a dense symmetric matrix, storing its nonzero entries."""
        import scipy.sparse

        return cls.from_scipy(scipy.sparse.csr_matrix(as_symmetric(a)))

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        """The full symmetric matrix as a scipy CSR matrix."""
        import scipy.sparse

        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = scipy.sparse.coo_matrix(
            (self.values, (rows, self.indices)), shape=self.shape
        )
        off = rows != self.indices
        lower = scipy.sparse.coo_matrix(
            (self.values[off], (self.indices[off], rows[off])), shape=self.shape
        )
        return (upper + lower).tocsr()

    @classmethod
    def from_scipy(cls, sp) -> "CsrSymmetricUpper":
        """Build from a symmetric scipy sparse matrix.

        Only the diagonal and the upper triangle are read, so the lower
        triangle may be left out.  The diagonal is kept explicit for every
        nonempty row, so validation sees the true diagonal values.
        """
        import scipy.sparse

        sp = scipy.sparse.csr_matrix(sp)
        sp.sum_duplicates()
        upper = scipy.sparse.triu(sp, k=1, format="csr")
        with_diag = upper + scipy.sparse.diags(sp.diagonal(), format="csr")
        with_diag.sort_indices()
        return cls(sp.shape[0], with_diag.indptr, with_diag.indices, with_diag.data)

    @classmethod
    def from_rows(cls, n: int, rows) -> "CsrSymmetricUpper":
        """Build from per-row (columns, values) pairs; empty rows allowed."""
        indptr = [0]
        indices: list[int] = []
        values: list[float] = []
        for i in range(n):
            cols, vals = rows[i] if i < len(rows) else ((), ())
            indices.extend(int(c) for c in cols)
            values.extend(float(v) for v in vals)
            indptr.append(len(indices))
        return cls(n, np.asarray(indptr), np.asarray(indices), np.asarray(values))


def as_dense(b) -> np.ndarray:
    """B as a float array, whether stored dense or as a
    :class:`CsrSymmetricUpper`."""
    if isinstance(b, CsrSymmetricUpper):
        return b.to_dense()
    return np.asarray(b, dtype=float)


def add_to_diagonal(b, c: float):
    """B + c * I in the storage of B.

    On a :class:`CsrSymmetricUpper` every row, empty ones included, ends up
    with a stored diagonal, and stored zeros are dropped.
    """
    if isinstance(b, CsrSymmetricUpper):
        import scipy.sparse

        return CsrSymmetricUpper.from_scipy(
            b.to_scipy() + c * scipy.sparse.identity(b.n)
        )
    b = as_dense(b)
    return b + c * np.eye(b.shape[0])


# ---------------------------------------------------------------------------
# Submatrices and factorizations


def principal_submatrix(b, s) -> np.ndarray:
    """Extract the dense principal submatrix B[S, S].

    ``b`` may be a dense symmetric array or a :class:`CsrSymmetricUpper`;
    the result is a dense tau x tau symmetric array.  The subset is
    validated first; see :func:`gather_submatrix` for the unchecked gather.
    """
    if not isinstance(b, CsrSymmetricUpper):
        b = np.asarray(b, dtype=float)
    return gather_submatrix(b, validate_index_set(s, b.shape[0]))


def gather_submatrix(b, s: np.ndarray) -> np.ndarray:
    """B[S, S] as a dense array, for an int64 subset already known to be
    valid (sorted, distinct, in range); nothing is checked.

    ``b`` is an ndarray, read by one fancy index, or a
    :class:`CsrSymmetricUpper`, read by one lookup per entry.
    """
    if isinstance(b, CsrSymmetricUpper):
        idx = s.tolist()
        return np.array([[b.item(i, j) for j in idx] for i in idx])
    return b[s[:, None], s]


@functools.cache
def _cholesky_routines():
    """LAPACK ``dpotrf`` and ``dpotrs``, imported on the first call only, so
    a run that never factors a block never imports scipy and one that does
    runs no import statement per solve."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def spd_solve(m, rhs) -> np.ndarray:
    """Solve M h = rhs for symmetric positive definite M via Cholesky.

    Calls LAPACK ``potrf``/``potrs`` directly; only the lower triangle of M
    is read.  Raises :class:`SingularSubmatrix` on a non-positive pivot,
    which signals a degenerate coordinate selection, and ``ValueError`` on a
    non-square M.
    """
    potrf, potrs = _cholesky_routines()
    m = np.asarray(m, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    c, info = potrf(m, lower=1, clean=0)
    if info > 0:
        raise SingularSubmatrix(
            f"leading minor of order {info} is not positive definite"
        )
    h, _ = potrs(c, rhs, lower=1)
    return h


def pseudo_solve(m, rhs) -> np.ndarray:
    """Minimum-norm least-squares solution pinv(M) @ rhs; total on finite PSD
    input.  A non-finite M raises ``ValueError`` before LAPACK sees it."""
    m = np.asarray(m, dtype=float)
    require_finite(m)
    rhs = np.asarray(rhs, dtype=float)
    sol, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
    return sol


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    ``matrix = q @ diag(eigenvalues) @ q.T`` reconstructs the source.
    """

    eigenvalues: np.ndarray
    q: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def matrix(self) -> np.ndarray:
        return symmetrize((self.q * self.eigenvalues) @ self.q.T)


def eigendecompose(b) -> Spectrum:
    """Full symmetric eigendecomposition, eigenvalues sorted descending."""
    b = as_symmetric(b)
    try:
        w, q = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    order = np.argsort(w)[::-1]
    return Spectrum(eigenvalues=w[order], q=q[:, order])


def psd_det(m, clamp_scale: float | None = None) -> float:
    """Principal-minor determinant of a PSD matrix, clamped to exactly 0.

    Values below :func:`minor_threshold` of the largest diagonal entry are
    treated as degenerate and return 0.0, so floating-point noise cannot give
    a singular submatrix positive sampling probability.  ``clamp_scale``
    overrides that entry when the submatrix is part of a larger matrix.
    """
    m = np.asarray(m, dtype=float)
    scale = float(np.max(np.diag(m))) if clamp_scale is None else float(clamp_scale)
    threshold = minor_threshold(scale, m.shape[0])
    if threshold == np.inf:
        return 0.0
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return 0.0
    det = float(np.prod(np.diag(chol)) ** 2)
    return 0.0 if det < threshold else det


def adjugate(m) -> np.ndarray:
    """Adjugate matrix: satisfies M @ adjugate(M) = det(M) * I.

    Computed as det(M) * inv(M) when M is comfortably nonsingular, by cofactor
    expansion otherwise.  Used by test oracles only; sizes stay small.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1))
    det = float(np.linalg.det(m))
    scale = float(np.abs(m).max()) or 1.0
    if n > 3 and abs(det) > 1e-10 * scale**n:
        return det * np.linalg.inv(m)
    return _adjugate_cofactor(m)


def _adjugate_cofactor(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    adj = np.empty((n, n))
    keep = np.arange(n)
    for i in range(n):
        rows = keep[keep != i]
        for j in range(n):
            cols = keep[keep != j]
            minor = m[np.ix_(rows, cols)]
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


# ---------------------------------------------------------------------------
# Triple-format text IO
#
# One entry per line: "i j v" with 1 <= i <= j, whitespace separated.  Indices
# are 1-based in files (and only in files).  Blank lines and lines starting
# with '#' are ignored.


def _parse_triples(path):
    entries = {}
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'i j v', got {line!r}", line=lineno)
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"malformed triple {line!r}", line=lineno) from None
            if i < 1 or j < i:
                raise ParseError(f"need 1 <= i <= j, got i={i} j={j}", line=lineno)
            if not np.isfinite(v):
                raise ParseError(f"non-finite value {parts[2]!r}", line=lineno)
            entries[(i - 1, j - 1)] = v
            n = max(n, j)
    if not entries:
        raise ParseError("no matrix entries found")
    return n, entries


def load_dense_triples(path, n: int | None = None) -> np.ndarray:
    """Load a dense symmetric matrix from the triple text format."""
    n_seen, entries = _parse_triples(path)
    n = n_seen if n is None else int(n)
    a = np.zeros((n, n))
    for (i, j), v in entries.items():
        a[i, j] = v
        a[j, i] = v
    return a


def load_csr_triples(path, n: int | None = None) -> CsrSymmetricUpper:
    """Load a :class:`CsrSymmetricUpper` from the triple text format."""
    n_seen, entries = _parse_triples(path)
    n = n_seen if n is None else int(n)
    by_row: dict[int, list[tuple[int, float]]] = {}
    for (i, j), v in sorted(entries.items()):
        by_row.setdefault(i, []).append((j, v))
    rows = []
    for i in range(n):
        row = by_row.get(i, [])
        # make the structural diagonal explicit so validation can see it
        if row and row[0][0] != i:
            row = [(i, 0.0)] + row
        cols = [c for c, _ in row]
        vals = [v for _, v in row]
        rows.append((cols, vals))
    return CsrSymmetricUpper.from_rows(n, rows)


def format_triples(b) -> str:
    """A matrix in the triple text format (upper triangle, 1-based).

    Trailing all-zero rows are pinned with an explicit `n n 0` entry so the
    dimension survives a round trip.
    """
    if isinstance(b, CsrSymmetricUpper):
        n = b.n
        rows = np.repeat(np.arange(n), np.diff(b.indptr))
        triples = list(zip(rows.tolist(), b.indices.tolist(), b.values.tolist()))
    else:
        a = as_symmetric(b)
        n = a.shape[0]
        iu, ju = np.nonzero(np.triu(a))
        triples = list(zip(iu.tolist(), ju.tolist(), a[iu, ju].tolist()))
    if not triples or max(j for _, j, _ in triples) < n - 1:
        triples.append((n - 1, n - 1, 0.0))
    return "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in triples)


def save_triples(b, path) -> None:
    """Write a matrix to ``path`` in the triple text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_triples(b))
