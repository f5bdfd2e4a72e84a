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
* :func:`psd_det` is a clamped Cholesky determinant, zero for a degenerate
  block;
* :func:`principal_submatrix` validates a subset, then gathers B[S, S].
"""

import numpy as np

from volcd.linalg import (
    CsrSymmetricUpper,
    gather_submatrix,
    minor_threshold,
    validate_index_set,
)


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


def psd_det(m, clamp_scale: float | None = None) -> float:
    """Principal-minor determinant of a PSD matrix, clamped to exactly 0.

    Values below ``minor_threshold`` of the largest diagonal entry are
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


def principal_submatrix(b, s) -> np.ndarray:
    """Extract the dense principal submatrix B[S, S].

    ``b`` may be a dense symmetric array or a ``CsrSymmetricUpper``; the
    result is a dense tau x tau symmetric array.  The subset is validated
    first, so a bad one raises as ``validate_index_set`` does.
    """
    if not isinstance(b, CsrSymmetricUpper):
        b = np.asarray(b, dtype=float)
    return gather_submatrix(b, validate_index_set(s, b.shape[0]))
