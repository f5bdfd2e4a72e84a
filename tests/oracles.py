"""Reference computations that the tests check the library against.

Each is the plain form of something the library computes faster or never
needs at run time, kept with its floating-point expressions as they were in
the library, so that a test can demand bitwise agreement:

* :func:`pair_draw` is ``SparseTwoSampler``'s scalar pair search, which the
  sampler's lock-step ``_search`` must match draw for draw;
* :func:`total_pair_mass` is that sampler's normalization constant, the sum
  of all 2x2 principal minors;
* :func:`probabilities` reads a ``VolumeSampler``'s outcome probabilities off
  its cumulative array;
* :func:`psd_det` is a Cholesky determinant, zero for a block the pivot
  rule calls singular;
* :func:`copied_row` is a PSD matrix with one row and column copied onto
  another, whose blocks that hold both are exactly singular;
* :func:`principal_submatrix` validates a subset, then gathers B[S, S];
* :func:`csr_from_rows` builds a ``CsrSymmetricUpper`` from per-row lists;
* :func:`to_scipy` is a ``CsrSymmetricUpper``'s full symmetric matrix as a
  scipy CSR matrix, through ``CsrSymmetricUpper.full``.
"""

import numpy as np

from volcd.linalg import CsrSymmetricUpper, gather_submatrix, validate_index_set
from volcd.sampling import _DET_CLAMP


def pair_draw(sampler, u1: float, u2: float) -> tuple[int, int]:
    """The pair a ``SparseTwoSampler`` draws for the uniforms u1 and u2, by
    three scalar bisections: over the rows, over the row's stored entries,
    then over one inter-entry column gap."""
    q = sampler.q
    i0 = int(np.searchsorted(q, u1 * q[-1], side="left"))

    def pair_mass(j: int, hk: float) -> float:
        # mass of pairs {i0, i0+1..j} given cumulative squared values hk
        return sampler.diag[i0] * (sampler.t[i0] - sampler.t[j + 1]) - hk

    lo, hi = int(sampler.b.indptr[i0]), int(sampler.b.indptr[i0 + 1])
    cols = sampler.b.indices
    hcum = sampler.hcum
    n = sampler.n
    r = hi - lo
    denom = pair_mass(n - 1, hcum[hi - 1])
    target = u2 * denom

    # smallest stored-entry position k whose gap block reaches the target
    a, bnd = 0, r - 1
    while a < bnd:
        mid = (a + bnd) // 2
        nxt = int(cols[lo + mid + 1]) - 1 if mid + 1 < r else n - 1
        if target <= pair_mass(nxt, hcum[lo + mid]):
            bnd = mid
        else:
            a = mid + 1
    k = a

    # smallest column j inside the chosen gap with enough mass
    jlo = int(cols[lo + k])
    jhi = int(cols[lo + k + 1]) - 1 if k + 1 < r else n - 1
    hk = hcum[lo + k]
    while jlo < jhi:
        mid = (jlo + jhi) // 2
        if target <= pair_mass(mid, hk):
            jhi = mid
        else:
            jlo = mid + 1
    return i0, jlo


def total_pair_mass(sampler) -> float:
    """Sum of all 2x2 principal minors a ``SparseTwoSampler`` draws from."""
    return float(sampler.q[-1])


def probabilities(sampler) -> np.ndarray:
    """A ``VolumeSampler``'s probability of each subset in ``sampler.subsets``."""
    return np.diff(sampler.cumulative, prepend=0.0)


def psd_det(m) -> float:
    """Principal-minor determinant of a PSD matrix, the product of its
    squared Cholesky pivots, or exactly 0 for a singular block.

    A block is singular, as ``block_pivots`` rules, when some squared pivot
    c_kk^2 (the LDL' pivot d_k) is at most 1e-14 times its own diagonal
    entry m_kk, or when the Cholesky factorization fails; so floating-point
    noise cannot give a singular submatrix positive sampling probability.
    """
    m = np.asarray(m, dtype=float)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return 0.0
    pivots = np.diag(chol) ** 2
    return 0.0 if (pivots <= _DET_CLAMP * np.diag(m)).any() else float(np.prod(pivots))


def copied_row(seed: int, n: int) -> np.ndarray:
    """a a' + I for a = ``default_rng(seed).standard_normal((n, 4))``, with
    row and column 0 copied onto row and column 1.  Every principal block
    that holds coordinates 0 and 1 is exactly singular, its second pivot 0
    or rounding noise: at n = 6 LAPACK's Cholesky accepted the block
    [0, 1, 2, 3] for 61 of the seeds 0-199, and so for [0, ..., 4] and
    [0, ..., 7] at n = 7 and 10."""
    a = np.random.default_rng(seed).standard_normal((n, 4))
    b = a @ a.T + np.eye(n)
    b[1, :] = b[0, :]
    b[:, 1] = b[:, 0]
    return b


def principal_submatrix(b, s) -> np.ndarray:
    """Extract the dense principal submatrix B[S, S].

    ``b`` may be a dense symmetric array or a ``CsrSymmetricUpper``; the
    result is a dense tau x tau symmetric array.  The subset is validated
    first, so a bad one raises as ``validate_index_set`` does.
    """
    if not isinstance(b, CsrSymmetricUpper):
        b = np.asarray(b, dtype=float)
    return gather_submatrix(b, validate_index_set(s, b.shape[0]))


def csr_from_rows(n: int, rows) -> CsrSymmetricUpper:
    """A ``CsrSymmetricUpper`` from per-row (columns, values) pairs; rows
    past the end of ``rows`` and empty pairs are empty rows."""
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    for i in range(n):
        cols, vals = rows[i] if i < len(rows) else ((), ())
        indices.extend(int(c) for c in cols)
        values.extend(float(v) for v in vals)
        indptr.append(len(indices))
    return CsrSymmetricUpper(n, np.asarray(indptr), np.asarray(indices), np.asarray(values))


def to_scipy(csr: CsrSymmetricUpper):
    """The full symmetric matrix of ``csr`` as a scipy CSR matrix, with the
    arrays of ``csr.full()``."""
    import scipy.sparse

    full = csr.full()
    return scipy.sparse.csr_matrix((full.data, full.indices, full.indptr), shape=csr.shape)
