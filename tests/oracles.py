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
  scipy CSR matrix, through ``CsrSymmetricUpper.full``;
* :func:`majorization_min` is ``reference_min``'s optimum of a non-quadratic
  by the plain majorization step, without momentum.

The raw-determinant enumerations that the spectral identities are checked
against live here too, capped at small sizes; the library takes every
principal minor as the product of ``block_pivots``' pivots and keeps only
the closed forms:

* :func:`raw_minors` is det(B[S, S]) with no pivot test, for any symmetric
  B: closed forms at tau <= 3, batched LU above;
* :func:`sum_principal_minors` sums them over every tau-subset, the
  enumeration side of e_tau(eigenvalues);
* :func:`adjugate` is one block's adjugate, and
  :func:`sum_adjugates_by_enumeration` scatters every block's into an n x n
  matrix, the enumeration side of ``spectral.sum_adjugates``;
* :func:`expected_step_matrix` is E[U_S B_SS^-1 U_S'] under volume
  sampling, over the subsets the pivot rule calls regular.
"""

import math

import numpy as np

from volcd.errors import CombinatorialBlowup, DegenerateApprox, NumericError
from volcd.linalg import (
    CsrSymmetricUpper,
    as_dense,
    gather_submatrix,
    symmetrize,
    validate_index_set,
)
from volcd.problems import _REFERENCE_GRAD_TOL, _REFERENCE_MAX_ITERS
from volcd.sampling import _DET_CLAMP, all_subsets, principal_minors

# paths that factor every submatrix (adjugates, inverses) refuse more than
# this many subsets once n exceeds _ENUM_CAP_N
_ENUM_CAP_N = 12
_ENUM_CAP_SUBSETS = 10**5


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


def majorization_min(obj, b=None) -> float:
    """Optimal value of a strongly convex non-quadratic by the plain
    majorization step x <- x - B^-1 grad f(x) from x = 0, with B = ``b`` or
    the objective's curvature matrix: ``reference_min``'s iteration without
    momentum, with its Cholesky inverse, gradient-norm tolerance and
    iteration cap."""
    if b is None:
        b = obj.curvature_matrix()
    inv_chol = np.linalg.inv(np.linalg.cholesky(as_dense(b)))
    x = np.zeros(obj.n)
    for _ in range(_REFERENCE_MAX_ITERS):
        g = obj.gradient(x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _REFERENCE_GRAD_TOL:
            return float(obj.value(x))
        x = x - inv_chol.T @ (inv_chol @ g)
    raise NumericError(f"majorization did not converge (gradient norm {gnorm:.3e})")


def raw_minors(b, tau: int, subsets=None) -> np.ndarray:
    """det(B[S, S]) for each row S of ``subsets``, ``all_subsets(n, tau)``
    by default, with no pivot test: the diagonal at tau = 1, d_i d_j -
    b_ij^2 at tau = 2, the first-row expansion d_i (d_j d_k - b_jk^2) -
    b_ij^2 d_k - b_ik^2 d_j + 2 b_ij b_ik b_jk at tau = 3 (identities for
    any symmetric B), and batched LU determinants above."""
    b = as_dense(b)
    s = all_subsets(b.shape[0], tau) if subsets is None else np.asarray(subsets)
    d = b.diagonal().astype(float)[s.T]
    if tau == 1:
        return d[0]
    if tau == 2:
        return d[0] * d[1] - b[s[:, 0], s[:, 1]] ** 2
    if tau == 3:
        d_i, d_j, d_k = d
        b_ij, b_ik, b_jk = b[s[:, 0], s[:, 1]], b[s[:, 0], s[:, 2]], b[s[:, 1], s[:, 2]]
        pair = d_j * d_k - b_jk**2
        return d_i * pair - b_ij**2 * d_k - b_ik**2 * d_j + 2.0 * b_ij * b_ik * b_jk
    return np.linalg.det(b[s[:, :, None], s[:, None, :]])


def sum_principal_minors(b, tau: int) -> float:
    """Sum of det(B[S, S]) over all tau-subsets, by enumeration.

    Equals the degree-tau elementary symmetric polynomial of the eigenvalues;
    this is the enumeration side of that identity.  Allowed up to n = 20
    (batched determinants stay cheap there).
    """
    b = as_dense(b)
    n = b.shape[0]
    if not 1 <= tau <= n:
        raise ValueError(f"subset size {tau} out of range for dimension {n}")
    if n > 20:
        raise CombinatorialBlowup(
            f"minor-sum enumeration is capped at n = 20, got n = {n}"
        )
    return float(raw_minors(b, tau).sum())


def adjugate(m) -> np.ndarray:
    """Adjugate matrix: satisfies M @ adjugate(M) = det(M) * I.

    Computed as det(M) * inv(M) when M is comfortably nonsingular, by
    cofactor expansion otherwise; sizes stay small.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1))
    det = float(np.linalg.det(m))
    scale = float(np.abs(m).max()) or 1.0
    if n > 3 and abs(det) > 1e-10 * scale**n:
        return det * np.linalg.inv(m)
    adj = np.empty((n, n))
    keep = np.arange(n)
    for i in range(n):
        rows = keep[keep != i]
        for j in range(n):
            cols = keep[keep != j]
            minor = m[np.ix_(rows, cols)]
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def _guard_enumeration(n: int, tau: int) -> None:
    """Cap for paths that factor every submatrix (adjugates, inverses)."""
    if not 1 <= tau <= n:
        raise ValueError(f"subset size {tau} out of range for dimension {n}")
    if n > _ENUM_CAP_N and math.comb(n, tau) > _ENUM_CAP_SUBSETS:
        raise CombinatorialBlowup(
            f"enumeration over C({n},{tau}) subsets exceeds the brute-force cap"
        )


def sum_adjugates_by_enumeration(b, tau: int) -> np.ndarray:
    """Sum of embedded adjugates of all tau x tau principal submatrices:
    adjugate(B[S, S]) scatter-added into an n x n zero matrix over every
    subset S."""
    b = as_dense(b)
    n = b.shape[0]
    _guard_enumeration(n, tau)
    out = np.zeros((n, n))
    for s in all_subsets(n, tau):
        out[np.ix_(s, s)] += adjugate(b[np.ix_(s, s)])
    return symmetrize(out)


def expected_step_matrix(b, tau: int) -> np.ndarray:
    """Exact expectation of the embedded submatrix inverse under
    determinantal subset sampling, by enumeration.

    Only subsets with a positive minor by ``principal_minors`` contribute,
    those the samplers' pivot rule calls regular, mirroring the samplers'
    exclusion of singular blocks.
    """
    b = as_dense(b)
    n = b.shape[0]
    _guard_enumeration(n, tau)
    subsets = all_subsets(n, tau)
    minors = principal_minors(b, tau, subsets)
    total = minors.sum()
    if total <= 0.0:
        raise DegenerateApprox("all principal minors are zero")
    out = np.zeros((n, n))
    for s, m in zip(subsets, minors):
        if m > 0.0:
            out[np.ix_(s, s)] += adjugate(b[np.ix_(s, s)])
    return symmetrize(out / total)
