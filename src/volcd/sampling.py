"""Random coordinate-subset generators.

Four samplers live here:

* :class:`CumulativeTable` realizes the classic inverse-CDF method for a
  finite distribution (cumulative sums plus binary search).
* :class:`VolumeSampler` draws tau-element subsets S with probability
  proportional to det(B[S, S]) by enumerating all subsets, practical only
  for small tau.  The enumeration is vectorized: :func:`all_subsets` fills
  the lexicographic subset table block by block, and
  :func:`principal_minors` uses closed forms for tau <= 3 and batched LU
  determinants for tau >= 4.
* :class:`SparseTwoSampler` draws 2-element subsets from the same
  determinantal distribution in O(log n) per draw after an O(nnz + n)
  preprocessing pass over a :class:`~volcd.linalg.CsrSymmetricUpper`.
* :func:`tau_nice_sample` draws subsets uniformly without replacement.

All samplers are immutable after construction; concurrent sampling is safe
as long as each thread owns its :class:`~volcd.rng.RngStream`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CombinatorialBlowup, EmptySupport
from .linalg import _DET_CLAMP, CsrSymmetricUpper, as_dense
from .rng import RngStream

__all__ = [
    "CumulativeTable",
    "SparseTwoSampler",
    "VolumeSampler",
    "all_subsets",
    "build_cumulative",
    "exact_probabilities",
    "principal_minors",
    "sparse2_preprocess",
    "tau_nice_sample",
]

# Enumerating more outcomes than this is refused outright.
MAX_ENUMERATED_SUBSETS = 10**8

_CHUNK = 1 << 14


class CumulativeTable:
    """Cumulative probabilities P_1 <= ... <= P_N = 1 over N outcomes.

    Sampling maps a uniform u in (0, 1) to the smallest index k with
    u <= P_k, so outcomes of weight zero are never returned and ties at
    stored cumulative values resolve to the smaller index.
    """

    __slots__ = ("cumulative",)

    def __init__(self, cumulative: np.ndarray):
        cumulative = np.asarray(cumulative, dtype=float)
        if cumulative.size < 1:
            raise ValueError("need at least one outcome")
        if (cumulative[1:] < cumulative[:-1]).any():
            raise ValueError("cumulative probabilities must be nondecreasing")
        if abs(cumulative[-1] - 1.0) > 1e-12:
            raise ValueError("cumulative probabilities must end at 1")
        self.cumulative = cumulative

    def sample(self, u: float) -> int:
        """Smallest index k with u <= P_k (0-based)."""
        return int(np.searchsorted(self.cumulative, u, side="left"))

    def sample_many(self, us: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.cumulative, us, side="left")


def build_cumulative(weights) -> CumulativeTable:
    """Normalize nonnegative weights into a :class:`CumulativeTable`.

    Raises :class:`EmptySupport` when every weight is zero.
    """
    w = np.asarray(weights, dtype=float)
    if w.size < 1:
        raise ValueError("need at least one weight")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise EmptySupport("all weights are zero")
    cum = np.cumsum(w) / total
    # running roundoff can overshoot 1 before trailing zero weights; clipping
    # keeps the sequence nondecreasing with last entry exactly 1
    np.clip(cum, None, 1.0, out=cum)
    cum[-1] = 1.0
    return CumulativeTable(cum)


# ---------------------------------------------------------------------------
# Subset enumeration and principal minors


def all_subsets(n: int, tau: int) -> np.ndarray:
    """All tau-element subsets of range(n) in lexicographic order, (N, tau).

    For tau >= 3 the table is filled block by block: the subsets that start
    with i are i followed by the last C(n - 1 - i, tau - 1) rows of the
    (tau - 1)-subsets of range(1, n), so each block is one slice copy into
    the preallocated result.  Time and memory are O(C(n, tau) * tau).
    """
    count = math.comb(n, tau)
    if count > MAX_ENUMERATED_SUBSETS:
        raise CombinatorialBlowup(
            f"C({n},{tau}) = {count} subsets exceed the enumeration cap"
        )
    if count == 0:
        return np.empty((0, tau), dtype=np.int64)
    if tau == 1:
        return np.arange(n, dtype=np.int64).reshape(-1, 1)
    if tau == 2:
        iu, ju = np.triu_indices(n, k=1)
        return np.column_stack((iu, ju)).astype(np.int64)
    tail = all_subsets(n - 1, tau - 1)
    tail += 1
    out = np.empty((count, tau), dtype=np.int64)
    pos = 0
    for i in range(n - tau + 1):
        size = math.comb(n - 1 - i, tau - 1)
        out[pos : pos + size, 0] = i
        out[pos : pos + size, 1:] = tail[-size:]
        pos += size
    return out


def _order3_minors(b: np.ndarray, diag: np.ndarray, subsets: np.ndarray):
    """det(B[S, S]) for the rows of ``subsets = all_subsets(n, 3)``.

    Expands each determinant along its first row,
    ``d_i (d_j d_k - b_jk^2) - b_ij^2 d_k - b_ik^2 d_j + 2 b_ij b_ik b_jk``,
    block by leading index i as in :func:`all_subsets`.  The pair terms come
    from one table over the pairs 1 <= j < k < n, which the first block
    lists; block i reads its last C(n - 1 - i, 2) rows.  The expansion is an
    identity for every symmetric matrix, so indefinite input is fine.
    """
    n = diag.size
    pairs = subsets[: math.comb(n - 1, 2), 1:]
    j, k = pairs[:, 0], pairs[:, 1]
    b_jk = b[j, k]
    d_j, d_k = diag[j], diag[k]
    pair = d_j * d_k - b_jk**2
    out = np.empty(subsets.shape[0])
    pos = 0
    for i in range(n - 2):
        size = math.comb(n - 1 - i, 2)
        b_ij, b_ik = b[i, j[-size:]], b[i, k[-size:]]
        out[pos : pos + size] = (
            diag[i] * pair[-size:]
            - b_ij**2 * d_k[-size:]
            - b_ik**2 * d_j[-size:]
            + 2.0 * b_ij * b_ik * b_jk[-size:]
        )
        pos += size
    return out


def principal_minors(
    b, tau: int, subsets: np.ndarray | None = None, clamp: bool = True
) -> np.ndarray:
    """det(B[S, S]) for every tau-subset S in lexicographic order.

    ``b`` may be a dense array or a :class:`~volcd.linalg.CsrSymmetricUpper`;
    tau = 1 reads only its diagonal, larger tau a dense view.  ``subsets``,
    when given, must be ``all_subsets(n, tau)``.  tau <= 3 use closed forms
    (the diagonal, ``d_i d_j - b_ij^2``, and a first-row expansion evaluated
    block by leading index), each O(1) per subset; tau >= 4 gathers B[S, S]
    in chunks and takes batched LU determinants, O(tau^3) per subset.
    With ``clamp=True`` (the PSD sampling path) minors below
    ``1e-14 * (max diagonal) ** tau``, including roundoff negatives, are
    set to exactly 0, so degenerate submatrices carry no sampling mass.
    Pass ``clamp=False`` to get raw determinants, e.g. for indefinite input.
    """
    diag = b.diagonal().astype(float)
    if subsets is None:
        subsets = all_subsets(diag.size, tau)
    if tau == 1:
        # singleton minors are the diagonal, which sparse B gives without
        # densifying
        minors = diag[subsets[:, 0]]
    else:
        b = as_dense(b)
        if tau == 2:
            i, j = subsets[:, 0], subsets[:, 1]
            minors = b[i, i] * b[j, j] - b[i, j] ** 2
        elif tau == 3:
            minors = _order3_minors(b, diag, subsets)
        else:
            minors = np.empty(subsets.shape[0])
            for lo in range(0, subsets.shape[0], _CHUNK):
                block = subsets[lo : lo + _CHUNK]
                sub = b[block[:, :, None], block[:, None, :]]
                minors[lo : lo + block.shape[0]] = np.linalg.det(sub)
    if clamp:
        diag_max = float(np.max(diag))
        threshold = _DET_CLAMP * diag_max**tau if diag_max > 0 else np.inf
        minors[minors < threshold] = 0.0
    return minors


class VolumeSampler:
    """Determinantal subset sampler built by full enumeration.

    Preprocessing builds the lexicographic subset table and every principal
    minor of order tau, then their cumulative sums: O(C(n, tau) * tau) time
    and memory for tau <= 3 (closed-form minors), O(C(n, tau) * tau^3) time
    for tau >= 4 (batched LU).  Each draw afterwards is a single binary
    search.  Construction refuses more than ``MAX_ENUMERATED_SUBSETS``
    outcomes and raises :class:`EmptySupport` when every minor is zero,
    i.e. when tau exceeds the rank of the matrix.
    """

    def __init__(self, b, tau: int):
        n = b.shape[0]
        if not 1 <= tau <= n:
            raise ValueError(f"subset size {tau} out of range for dimension {n}")
        self.n = n
        self.tau = int(tau)
        self.subsets = all_subsets(n, tau)
        minors = principal_minors(b, tau, self.subsets)
        try:
            self.table = build_cumulative(minors)
        except EmptySupport:
            raise EmptySupport(
                f"all order-{tau} principal minors are zero; "
                f"subset size exceeds the matrix rank"
            ) from None

    def sample(self, rng: RngStream) -> np.ndarray:
        return self.subsets[self.table.sample(rng.uniform())]

    def sample_many(self, rng: RngStream, k: int) -> np.ndarray:
        return self.subsets[self.table.sample_many(rng.uniforms(k))]

    def draws(self, rng: RngStream, chunk: int):
        """Endless stream of subsets, drawn ``chunk`` at a time by
        :meth:`sample_many`."""
        while True:
            yield from self.sample_many(rng, chunk)

    def probabilities(self) -> np.ndarray:
        return np.diff(self.table.cumulative, prepend=0.0)


def exact_probabilities(b, tau: int) -> dict[tuple[int, ...], float]:
    """Brute-force subset distribution: det(B[S,S]) / sum of all minors.

    Enumeration oracle for testing both samplers; keep n small (<= 20).
    """
    subsets = all_subsets(b.shape[0], tau)
    minors = principal_minors(b, tau, subsets)
    total = minors.sum()
    if total <= 0:
        raise EmptySupport("all principal minors are zero")
    return {
        tuple(int(i) for i in row): float(m / total)
        for row, m in zip(subsets, minors)
    }


# ---------------------------------------------------------------------------
# Sparse 2-element determinantal sampling


class SparseTwoSampler:
    """2-element determinantal sampler for sparse symmetric PSD matrices.

    Preprocessing is a few vectorized passes over the stored entries,
    O(nnz + n) time and memory:

    * ``hcum``: per-row running sums of squared stored values,
    * ``t``: suffix sums of the diagonal (length n + 1, last entry 0),
    * ``q``: running total of per-row pair masses, where row i carries
      mass ``diag[i] * t[i] - hcum[row end]`` equal to the sum of all
      2x2 principal minors det(B[{i,j},{i,j}]) over j > i.

    Each draw performs three binary searches (over rows, over a row's stored
    entries, then over one inter-entry column gap) with the partial pair mass

        ``pair_mass(i, j, k) = diag[i] * (t[i] - t[j + 1]) - hcum[i][k]``

    evaluated on the fly, so sampling is O(log n) time and O(1) memory.

    Draws are made on demand: :meth:`draws` takes the uniforms for a whole
    chunk at once but runs the searches for one pair only when the caller
    asks for it, so a run that stops early pays only for the pairs it used.
    :meth:`sample_many` is the first ``k`` pairs of a ``k``-chunk stream.
    """

    def __init__(self, b: CsrSymmetricUpper):
        if not isinstance(b, CsrSymmetricUpper):
            raise TypeError("SparseTwoSampler requires a CsrSymmetricUpper matrix")
        if b.n < 2:
            raise ValueError("need dimension at least 2 for pair sampling")
        self.b = b
        n = b.n
        indptr, values = b.indptr, b.values
        rowlen = np.diff(indptr)
        nonempty = rowlen > 0

        sq = values**2
        running = np.cumsum(sq)
        before_row = np.concatenate(([0.0], running))[indptr[:-1]]
        row_of = np.repeat(np.arange(n), rowlen)
        self.hcum = running - before_row[row_of]

        self.diag = diag = b.diagonal()
        self.t = np.concatenate((np.cumsum(diag[::-1])[::-1], [0.0]))

        h_last = np.zeros(n)
        h_last[nonempty] = self.hcum[indptr[1:][nonempty] - 1]
        mass = diag[: n - 1] * self.t[: n - 1] - h_last[: n - 1]
        np.maximum(mass, 0.0, out=mass)
        self.q = np.cumsum(mass)
        if self.q[-1] <= 0.0:
            raise EmptySupport(
                "no 2x2 principal minor is positive; matrix rank is below 2"
            )

    @property
    def n(self) -> int:
        return self.b.n

    def total_pair_mass(self) -> float:
        """Sum of all 2x2 principal minors (the normalization constant)."""
        return float(self.q[-1])

    def _pair_mass(self, i: int, j: int, hk: float) -> float:
        # mass of pairs {i, i+1..j} given cumulative squared values hk
        return self.diag[i] * (self.t[i] - self.t[j + 1]) - hk

    def _sample_one(self, u1: float, u2: float) -> tuple[int, int]:
        q = self.q
        i0 = int(np.searchsorted(q, u1 * q[-1], side="left"))
        lo, hi = int(self.b.indptr[i0]), int(self.b.indptr[i0 + 1])
        cols = self.b.indices
        hcum = self.hcum
        r = hi - lo
        denom = self._pair_mass(i0, self.n - 1, hcum[hi - 1])
        target = u2 * denom

        # smallest stored-entry position k whose gap block reaches the target
        a, bnd = 0, r - 1
        while a < bnd:
            mid = (a + bnd) // 2
            nxt = int(cols[lo + mid + 1]) - 1 if mid + 1 < r else self.n - 1
            if target <= self._pair_mass(i0, nxt, hcum[lo + mid]):
                bnd = mid
            else:
                a = mid + 1
        k = a

        # smallest column j inside the chosen gap with enough mass
        jlo = int(cols[lo + k])
        jhi = int(cols[lo + k + 1]) - 1 if k + 1 < r else self.n - 1
        hk = hcum[lo + k]
        while jlo < jhi:
            mid = (jlo + jhi) // 2
            if target <= self._pair_mass(i0, mid, hk):
                jhi = mid
            else:
                jlo = mid + 1
        return i0, jlo

    def sample(self, rng: RngStream) -> np.ndarray:
        i, j = self._sample_one(rng.uniform(), rng.uniform())
        return np.array([i, j], dtype=np.int64)

    def draws(self, rng: RngStream, chunk: int):
        """Endless stream of pairs, as int64 arrays of length 2.

        Each chunk of ``chunk`` pairs takes ``chunk`` first and then
        ``chunk`` second uniforms from ``rng``, like :meth:`sample_many`;
        the searches for a pair run only when the pair is requested.
        """
        while True:
            u1 = rng.uniforms(chunk).tolist()
            u2 = rng.uniforms(chunk).tolist()
            for a, b in zip(u1, u2):
                yield np.array(self._sample_one(a, b), dtype=np.int64)

    def sample_many(self, rng: RngStream, k: int) -> np.ndarray:
        out = np.empty((k, 2), dtype=np.int64)
        for idx, pair in zip(range(k), self.draws(rng, k)):
            out[idx] = pair
        return out


def sparse2_preprocess(b: CsrSymmetricUpper) -> SparseTwoSampler:
    return SparseTwoSampler(b)


# ---------------------------------------------------------------------------
# Uniform subsets


def tau_nice_sample(n: int, tau: int, rng: RngStream) -> np.ndarray:
    """Uniform tau-element subset of range(n), sampled without replacement."""
    if not 1 <= tau <= n:
        raise ValueError(f"subset size {tau} out of range for dimension {n}")
    pick = rng.generator.choice(n, size=tau, replace=False)
    pick.sort()
    return pick.astype(np.int64)
