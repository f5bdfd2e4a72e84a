"""Symmetric matrix types, factorizations, and spectral utilities.

Dense symmetric matrices are plain ``numpy.ndarray`` objects; the helpers here
validate and symmetrize at construction boundaries.  Sparse symmetric matrices
use :class:`CsrSymmetricUpper`, a compressed-row layout that stores only the
diagonal-and-rightward entries of each row, diagonal first.  A sparse data
matrix A is a :class:`CsrMatrix`, which multiplies vectors, hands out its
columns and builds the upper triangle of scale * A'A; its kernels are numpy
``bincount`` sums, bitwise scipy's CSR kernels.

Other modules may pick an algorithm by storage (the sparse pair sampler,
the sparse solver states).  They read B through ``shape``, ``diagonal()``
and ``item(i, j)``, which both storages provide, gather blocks with
:func:`gather_submatrix`, and densify it only with :func:`as_dense`.  The
one exception is ``sampling.SparseTwoSampler``, which walks the
``indptr``, ``indices`` and ``values`` of a :class:`CsrSymmetricUpper`.

scipy is imported only inside the functions that call it: the LAPACK
Cholesky routines of ``_cholesky_routines``, which the step kernel of
:mod:`volcd.objectives` calls for steps of four or more coordinates, and the
``from_scipy`` bridges of :class:`CsrSymmetricUpper` and :class:`CsrMatrix`,
for callers that already hold scipy matrices.  Every other sparse operation is
numpy alone.

No determinant or adjugate is taken here: the adjugate that the identity
tests enumerate with is an oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParseError, ZeroDiagonalNonzeroRow

__all__ = [
    "CsrMatrix",
    "CsrSymmetricUpper",
    "Spectrum",
    "add_to_diagonal",
    "as_dense",
    "as_symmetric",
    "eigendecompose",
    "format_triples",
    "gather_submatrix",
    "load_csr_triples",
    "load_dense_triples",
    "pseudo_solve",
    "require_finite",
    "save_triples",
    "symmetrize",
    "validate_index_set",
]

# Asymmetry above this, relative to the largest entry, rejects a matrix.
_SYMMETRY_TOL = 1e-10


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the exactly symmetric part (a + a.T) / 2 as float64."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def as_symmetric(a) -> np.ndarray:
    """Validate that ``a`` is a square, finite, symmetric matrix.

    Asymmetry above 1e-10 (relative to the largest entry) is an error;
    below it, the matrix is symmetrized to remove roundoff.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    require_finite(a)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > _SYMMETRY_TOL * scale:
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
    by symmetry.  Diagonal values are nonnegative.  A positive-semidefinite
    matrix with ``B[i, i] = 0`` has a zero row and column i, so where that
    diagonal is absent or stored as 0.0, row i stores nothing else and column
    i no nonzero; :class:`ZeroDiagonalNonzeroRow` is raised otherwise.

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
        if (indptr[1:] < indptr[:-1]).any():
            raise ValueError("indptr must be nondecreasing")
        if not np.isfinite(values).all():
            raise ValueError("values contain non-finite entries")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError("column index out of range")
        rows = self._rows()
        if (indices < rows).any():
            raise ValueError("entries below the diagonal are not stored")
        if ((indices[1:] <= indices[:-1]) & (rows[1:] == rows[:-1])).any():
            raise ValueError("column indices must be strictly increasing per row")
        # columns increase from the diagonal on, so a stored diagonal entry
        # is its row's first
        on_diag = indices == rows
        if (values[on_diag] < 0).any():
            raise ValueError("diagonal values must be nonnegative")
        zero = np.ones(n, dtype=bool)
        zero[indices[on_diag]] = values[on_diag] == 0
        if (~on_diag & (zero[rows] | (values != 0) & zero[indices])).any():
            raise ZeroDiagonalNonzeroRow(
                "a zero diagonal entry, stored or not, admits no other entry in "
                "its row and no nonzero entry in its column"
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

    def _rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self._rows(), self.indices] = self.values
        return a + a.T - np.diag(np.diag(a))

    def full(self) -> "CsrMatrix":
        """The full symmetric matrix as a :class:`CsrMatrix`, without the
        stored zeros."""
        n, rows, cols, vals = self.n, self._rows(), self.indices, self.values
        off = rows != cols
        keys = np.concatenate((rows * n + cols, cols[off] * n + rows[off]))
        vals = np.concatenate((vals, vals[off]))
        return CsrMatrix((n, n), *_nonzero_entries(keys, vals, n))

    @classmethod
    def from_dense(cls, a) -> "CsrSymmetricUpper":
        """Build from a dense symmetric matrix, storing its nonzero entries."""
        a = as_symmetric(a)
        n = a.shape[0]
        rows, cols = np.nonzero(np.triu(a))
        return cls(n, rows.searchsorted(np.arange(n + 1)), cols, a[rows, cols])

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


def _vector(x, size: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (size,):
        raise ValueError(f"expected a vector of length {size}, got shape {x.shape}")
    return x


def _compress(keys, m: int, n: int):
    """``indptr`` and column indices of an m x n matrix's entries, given
    sorted, distinct keys row * n + column."""
    rows, cols = np.divmod(keys, n)
    return rows.searchsorted(np.arange(m + 1)), cols


def _nonzero_entries(keys, vals, n: int):
    """``indptr``, column indices and values of an n x n matrix's nonzero
    entries, given distinct keys row * n + column in any order."""
    keep = vals != 0
    keys, vals = keys[keep], vals[keep]
    order = np.argsort(keys)
    return (*_compress(keys[order], n, n), vals[order])


class CsrMatrix:
    """Rectangular sparse matrix in canonical compressed-row form: the
    storage of a sparse data matrix A.

    Row i keeps strictly increasing column indices
    ``indices[indptr[i]:indptr[i + 1]]`` and the matching float64 ``data``;
    every index array it holds or hands out is intp.  The constructor takes
    any compressed-row arrays: it sorts each row and adds repeated entries
    up in storage order.  Explicit zeros are kept.

    The products are sequential ``np.bincount`` sums from 0, each row's in
    column order for ``A @ x`` and each column's in row order for
    :meth:`rmatvec`, which is the order of scipy's CSR kernels: the results
    are bitwise theirs.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_row")

    def __init__(self, shape, indptr, indices, data):
        m, n = (int(d) for d in shape)
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=float)
        if m < 0 or n < 0:
            raise ValueError(f"invalid shape {shape}")
        if indptr.shape != (m + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed indptr")
        if indices.shape != data.shape:
            raise ValueError("indices and data must have equal length")
        counts = np.diff(indptr)
        if (counts < 0).any():
            raise ValueError("indptr must be nondecreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError("column index out of range")
        row = np.repeat(np.arange(m, dtype=np.intp), counts)
        keys = row * n + indices
        if (keys[1:] <= keys[:-1]).any():
            # unsorted or repeated columns; the repeats add up in storage order
            keys, inverse = np.unique(keys, return_inverse=True)
            data = np.bincount(inverse, weights=data, minlength=keys.size)
            indptr, indices = _compress(keys, m, n)
            row = np.repeat(np.arange(m, dtype=np.intp), np.diff(indptr))
        self.shape = (m, n)
        self.indptr, self.indices, self.data, self._row = indptr, indices, data, row

    @classmethod
    def from_scipy(cls, sp) -> "CsrMatrix":
        """A scipy sparse matrix of any format in this storage."""
        sp = sp.tocsr()
        return cls(sp.shape, sp.indptr, sp.indices, sp.data)

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._row, self.indices] = self.data
        return out

    def __matmul__(self, x) -> np.ndarray:
        """A @ x for a vector x."""
        m, n = self.shape
        return np.bincount(self._row, weights=self.data * _vector(x, n)[self.indices],
                           minlength=m)

    def rmatvec(self, w) -> np.ndarray:
        """A'w for a vector w."""
        m, n = self.shape
        return np.bincount(self.indices, weights=self.data * _vector(w, m)[self._row],
                           minlength=n)

    def columns(self):
        """``(indptr, rows, data)`` of A in compressed-column form, each
        column's rows ascending."""
        order = np.argsort(self.indices, kind="stable")
        indptr = self.indices[order].searchsorted(np.arange(self.shape[1] + 1))
        return indptr, self._row[order], self.data[order]

    def gram(self, scale: float) -> CsrSymmetricUpper:
        """The upper triangle of scale * A'A.

        Entry (i, j) adds a[k, i] * a[k, j] over the rows k in ascending
        order, from 0, and is then scaled; exact zeros are not stored.  That
        is scipy's ``scale * (a.T @ a)`` read by
        :meth:`CsrSymmetricUpper.from_scipy`, bitwise.  An entry that
        overflows raises :class:`NumericError`.
        """
        n, nnz, indices, data = self.shape[1], self.nnz, self.indices, self.data
        # entry e pairs with itself and with the entries right of it in its
        # row, e' = e, e + 1, ...; the pairs come in row order
        entry = np.arange(nnz)
        span = np.repeat(self.indptr[1:], np.diff(self.indptr)) - entry
        second = np.arange(int(span.sum())) - np.repeat(np.cumsum(span) - span - entry, span)
        keys = np.repeat(indices * n, span) + indices[second]
        # products that overflow are caught by the check below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.repeat(data, span) * data[second]
            if n * n <= keys.size:
                # a dense accumulator costs no more memory than the pairs
                sums = np.bincount(keys, weights=products, minlength=n * n)
                keys = np.flatnonzero(sums)
                sums = sums[keys]
            else:
                keys, inverse = np.unique(keys, return_inverse=True)
                sums = np.bincount(inverse, weights=products, minlength=keys.size)
            sums = sums * scale
        if not np.isfinite(sums).all():
            raise NumericError("Gram matrix overflows: an entry of scale * A'A is not finite")
        return CsrSymmetricUpper(n, *_nonzero_entries(keys, sums, n))


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
        n, rows = b.n, b._rows()
        off = rows != b.indices
        keys = np.concatenate((np.arange(n) * (n + 1), rows[off] * n + b.indices[off]))
        vals = np.concatenate((b.diagonal() + c, b.values[off]))
        return CsrSymmetricUpper(n, *_nonzero_entries(keys, vals, n))
    b = as_dense(b)
    return b + c * np.eye(b.shape[0])


# ---------------------------------------------------------------------------
# Submatrices and factorizations


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


# ---------------------------------------------------------------------------
# Triple-format text IO
#
# One entry per line: "i j v" with 1 <= i <= j, whitespace separated.  Indices
# are 1-based in files (and only in files).  Blank lines and lines starting
# with '#' are ignored.


def _parse_triples(path):
    """The file's entries as 0-based ``(rows, cols, vals)`` arrays, sorted by
    row, then column; an entry given twice keeps its last value."""
    ij: list[tuple[int, int]] = []
    vals: list[float] = []
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
            ij.append((i - 1, j - 1))
            vals.append(v)
    if not ij:
        raise ParseError("no matrix entries found")
    rows, cols = np.array(ij, dtype=np.int64).T
    # the sort is stable, so of repeated entries the file's last comes last
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], np.array(vals)[order]
    last = np.append((rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1]), True)
    return rows[last], cols[last], vals[last]


def load_dense_triples(path) -> np.ndarray:
    """Load a dense symmetric matrix from the triple text format."""
    rows, cols, vals = _parse_triples(path)
    n = int(cols.max()) + 1
    a = np.zeros((n, n))
    a[rows, cols] = vals
    a[cols, rows] = vals
    return a


def load_csr_triples(path) -> CsrSymmetricUpper:
    """Load a :class:`CsrSymmetricUpper` from the triple text format."""
    rows, cols, vals = _parse_triples(path)
    n = int(cols.max()) + 1
    return CsrSymmetricUpper(n, rows.searchsorted(np.arange(n + 1)), cols, vals)


def format_triples(b) -> str:
    """A matrix in the triple text format (upper triangle, 1-based).

    Trailing all-zero rows are pinned with an explicit `n n 0` entry so the
    dimension survives a round trip.
    """
    if isinstance(b, CsrSymmetricUpper):
        n = b.n
        triples = list(zip(b._rows().tolist(), b.indices.tolist(), b.values.tolist()))
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
