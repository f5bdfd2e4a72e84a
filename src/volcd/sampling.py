"""Random coordinate-subset generators.

Four samplers live here:

* :class:`VolumeSampler` draws tau-element subsets S with probability
  proportional to det(B[S, S]) by enumerating all C(n, tau) subsets, so its
  table grows as C(n, tau) * tau.  :func:`all_subsets` fills the
  lexicographic table block by block, and :func:`principal_minors`, the one
  minor kernel (the product of the pivots of :func:`block_pivots`), takes
  every minor.  Each draw is one binary search.  It is the exactness oracle
  for the other determinantal samplers.
* :class:`SpectralVolumeSampler` draws from the same distribution without
  enumerating: it eigendecomposes B once, O(n^3) time and O(n^2) memory,
  picks tau eigenvectors by elementary symmetric polynomials, draws the
  rows of the projection DPP they span by rejection, O(tau^3 + tau log n)
  per draw, and draws again any subset the pivot rule refuses, by the same
  kernel.  Given a handover count, it builds the enumeration table once a
  run has drawn that many subsets and takes the rest of the stream from it.
* :class:`SparseTwoSampler` draws 2-element subsets from the same
  determinantal distribution by rejection from the diagonal product, after
  an O(nnz + n) preprocessing pass over a
  :class:`~volcd.linalg.CsrSymmetricUpper`: it proposes {i, j} with
  probability proportional to B_ii B_jj, as the spectral sampler picks
  eigenvectors, and accepts with probability det(B[S, S]) / (B_ii B_jj).
* :class:`UniformSampler` draws subsets uniformly without replacement.

:func:`make_sampler` picks the determinantal sampler for a storage, n and
tau: the sparse pair sampler for CSR B with tau = 2 where it accepts at
least 1/64 of its proposals, enumeration while
C(n, tau) <= tau * n^2 (every tau <= 2, tau = 3 up to n = 20, tau = 4 up to
n = 12), the spectral sampler beyond, handing over to enumeration after
as many draws as the table costs to build (``_handover_draws``).

This module owns the rule that says when a block B[S, S] is singular: some
pivot of its L D L' factorization, in the subset's sorted order, is at most
1e-14 times its diagonal entry (at tau = 2, det <= 1e-14 B_ii B_jj).
:func:`block_pivots` states it; every minor is the product of its pivots,
zeroed where it refuses the block (:func:`principal_minors`), the pair
sampler accepts no pair it refuses, and the step kernel of
:mod:`volcd.objectives` refuses the same blocks, so a drawn block is one the
step solves.

At a fixed tau, P(S) is the same for c B at every c > 0, so the
determinantal samplers read B 4^(-j) (``_scale_exponent``), whose largest
diagonal entry lies in [1/4, 1): their minors, eigenvalues and diagonal
products neither overflow nor underflow with the scale of B, and B times a
power of two that keeps its entries normal draws bitwise the subsets of B.

The four subset samplers share one stream contract: each yields its draws in
batches from ``_batches(rng, chunk)``, and the common ``draws(rng,
chunk)`` (the endless stream a solver run reads, a :class:`Draws` that hands
out one subset or a slice of its batch at a time) and ``sample_many(rng, k)``
(its first k subsets) are defined once on top of it.  A single draw is
``sample_many(rng, 1)[0]``.

All samplers are immutable after construction; concurrent sampling is safe
as long as each thread owns its :class:`~volcd.rng.RngStream`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CombinatorialBlowup, EmptySupport
from .linalg import CsrSymmetricUpper, as_dense, eigendecompose
from .rng import RngStream

__all__ = [
    "Draws",
    "SparseTwoSampler",
    "SpectralVolumeSampler",
    "UniformSampler",
    "VolumeSampler",
    "all_subsets",
    "block_pivots",
    "build_cumulative",
    "exact_probabilities",
    "make_sampler",
    "principal_minors",
    "subset_counts",
]

# Enumerating more outcomes than this is refused outright.
MAX_ENUMERATED_SUBSETS = 10**8

# The spectral sampler refuses B with more rows than this: it holds three
# dense n x n arrays (B, its eigenvectors and their column CDFs), 384 MB at
# the cap, where the eigendecomposition takes on the order of 20 s on one
# core (18 ms at n = 400, scaled by n^3).
MAX_SPECTRAL_DIMENSION = 4096

# The spectral sampler hands a run over to an enumeration table of at most
# this many subsets (about 80 MB at tau = 3), never to a larger one.
MAX_HANDOVER_SUBSETS = 1 << 21

_CHUNK = 1 << 12

# SparseTwoSampler and SpectralVolumeSampler search their draws this many at
# a time.
_SUB_BATCH = 256

# The samplers give up once this many draws in a row were refused (the pair
# sampler counts whole sub-batches of proposals).
_CLAMP_GIVE_UP = 10_000

# make_sampler takes SparseTwoSampler only where at least this share of its
# proposals is accepted.  At that rate, the 40 rounds of 256 proposals it
# makes before _CLAMP_GIVE_UP are all refused with probability at most
# (63/64)^10240, about e^-160.
_MIN_ACCEPTANCE = 1 / 64

# A block with an L D L' pivot at most this times its diagonal entry is singular.
_DET_CLAMP = 1e-14


def _scale_exponent(diag) -> int:
    """-2j for j = ceil(e / 2), e the binary exponent (``math.frexp``) of the
    largest of the diagonal entries ``diag``, 0 when it is not positive:
    ``np.ldexp(B, -2j)`` has its largest diagonal entry in [1/4, 1).  The
    exponent is even because ``eigh`` is bitwise equivariant under powers of
    4, not of 2."""
    top = float(np.max(diag))
    return 2 * (math.frexp(top)[1] // -2) if top > 0 else 0


def build_cumulative(weights) -> np.ndarray:
    """Cumulative probabilities P_1 <= ... <= P_N = 1 of nonnegative weights.

    ``searchsorted(u)`` on the result maps a uniform u in (0, 1) to the
    smallest index k with u <= P_k, so a u equal to a stored value draws the
    smaller index and outcomes of weight zero are never drawn: P_k is
    exactly 1 from the last positive weight on, though rounding can leave
    its running sum a few ulps below.  Raises :class:`EmptySupport` when
    every weight is zero.
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
    # roundoff can overshoot 1 before the last positive weight or stop short
    # of it there: clip, then 1 from the first entry at the final value on
    np.clip(cum, None, 1.0, out=cum)
    cum[cum.searchsorted(cum[-1]) :] = 1.0
    return cum


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


def block_pivots(d: np.ndarray, o) -> tuple[np.ndarray, np.ndarray]:
    """The L D L' pivots of m symmetric tau x tau blocks, (tau, m), and the
    pivot rule's verdict on each, True where the block is regular.

    The blocks lie along the last axis: ``d`` (tau, m) holds their
    diagonals and ``o`` (tau (tau - 1) / 2, m) their strictly upper entries
    in row order, unused at tau = 1.  A block is singular when some pivot
    d_k, in its own order without pivoting, is at most 1e-14 times its
    diagonal entry B_kk, NaN included; no pivot exceeds its B_kk once the
    earlier ones passed, so this is d_k <= 1e-14 max(B_kk, 0).  Being
    relative to each block's scale, the test does not fall with tau as a
    minor over its diagonal product does.  tau <= 3 take the expressions
    of the step kernel's ``one``, ``two`` and ``three``, so their verdict
    is the step's own, with no product of two diagonal entries; larger tau
    eliminate the stack in lock step, O(m tau^3), which at tau = 3 would be
    ``three``'s arithmetic too.
    """
    tau, m = d.shape
    with np.errstate(all="ignore"):
        if tau == 1:
            piv = d
        elif tau == 2:
            aa, bb = d
            piv = np.array((aa, bb - o[0] * (o[0] / aa)))
        elif tau == 3:
            (d1, dj, dk), (p, q, r) = d, o
            l21, l31 = p / d1, q / d1
            d2 = dj - p * l21
            t = r - q * l21
            piv = np.array((d1, d2, dk - q * l31 - t * (t / d2)))
        else:
            w = np.empty((tau, tau, m))
            i = np.arange(tau)
            upper = i[:, None] < i
            w[upper] = w.transpose(1, 0, 2)[upper] = o
            w[i, i] = d
            for k in range(tau - 1):
                # column k below the pivot, u, and its multipliers u / d_k
                u = w[k + 1 :, k]
                w[k + 1 :, k + 1 :] -= u[:, None] * (u / w[k, k])
            piv = np.diagonal(w).T
        return piv, (piv > _DET_CLAMP * d).all(axis=0)


def principal_minors(b, tau: int, subsets: np.ndarray | None = None) -> np.ndarray:
    """det(B[S, S]) for each row S of ``subsets``: sorted tau-subsets of
    range(n) in any order, ``all_subsets(n, tau)`` by default.

    The one minor kernel, which the enumeration table and the spectral
    sampler's redraw test share, so a subset's minor is the same bits in
    either, in any row order.  ``b`` may be dense or a
    :class:`~volcd.linalg.CsrSymmetricUpper`; tau = 1 reads only its
    diagonal, larger tau a dense B's C-contiguous flat view or a sparse B's
    stored entries, never densified, ``_CHUNK`` rows at a time.  Each chunk
    gathers the blocks' diagonals and strictly upper entries by ``take``s
    (flat ones on a dense B) for :func:`block_pivots`: a minor is the
    product of the pivots, O(1) per subset at tau <= 3 and O(tau^3) above,
    or exactly 0 where the pivot rule refuses the block, so degenerate
    blocks at their own scale, indefinite ones and repeated rows carry no
    sampling mass.  It reads B 4^(-j), so every minor carries the factor
    4^(-j tau), which cancels in every ratio, and none overflows.
    """
    diag = b.diagonal()
    n = diag.size
    scale = _scale_exponent(diag)
    diag = np.ldexp(diag, scale)
    if subsets is None:
        subsets = all_subsets(n, tau)
    # singleton minors are the diagonal alone
    if tau == 1:
        upper = None
    elif isinstance(b, CsrSymmetricUpper):
        upper = b.entries
    else:
        flat = np.ascontiguousarray(b, dtype=float).ravel()

        def upper(i, j):
            return flat.take(i * n + j)

    k = np.arange(tau)
    rows, cols = np.nonzero(k[:, None] < k)
    minors = np.empty(subsets.shape[0])
    for lo in range(0, subsets.shape[0], _CHUNK):
        s = subsets[lo : lo + _CHUNK]
        # one row per position in the subset: its diagonal entries, and its
        # strictly upper entries in row order
        st = np.ascontiguousarray(s.T)
        d = diag.take(st)
        o = np.ldexp(upper(st[rows], st[cols]), scale) if tau > 1 else None
        piv, regular = block_pivots(d, o)
        with np.errstate(invalid="ignore"):  # inf * 0 in a refused block
            minors[lo : lo + s.shape[0]] = np.where(regular, piv.prod(axis=0), 0.0)
    return minors


class Draws:
    """A sampler's endless stream of sorted subsets, each an int64 array of
    length ``tau``, drawn batch by batch as the reader reaches each batch.

    Iterating takes one subset at a time.  ``peek(k)`` hands out the next
    subsets, at most k and never past the end of the current batch, as one
    (m, tau) array slice of that batch, and ``take(m)`` then takes the
    first m of them, so a reader can look ahead and take only what it used.
    Peeking moves nothing: the windowed steps of a dense quadratic peek at
    a slice of several windows' subsets to do their per-subset work at
    once, then peek and take one window at a time.  Each subset taken is
    appended to ``log`` when one is given.
    """

    def __init__(self, batches, tau: int, log: list | None = None):
        self._batches = batches
        self.tau = tau
        self.log = log
        self._batch = np.empty((0, tau), dtype=np.int64)
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        if self._pos == len(self._batch):
            self._batch, self._pos = next(self._batches), 0
        s = self._batch[self._pos]
        self._pos += 1
        if self.log is not None:
            self.log.append(s)
        return s

    def peek(self, k: int) -> np.ndarray:
        if self._pos == len(self._batch):
            self._batch, self._pos = next(self._batches), 0
        return self._batch[self._pos : self._pos + k]

    def take(self, m: int) -> None:
        if self.log is not None:
            self.log.extend(self._batch[self._pos : self._pos + m])
        self._pos += m


class _SubsetStream:
    """The draw methods of every subset sampler, over the subclass's
    ``_batches(rng, chunk)``: a generator of (m, tau) int64 batches that takes
    uniforms from ``rng`` only as each batch is reached."""

    def __init__(self, n: int, tau: int):
        if not 1 <= tau <= n:
            raise ValueError(f"subset size {tau} out of range for dimension {n}")
        self.n, self.tau = n, int(tau)

    def draws(self, rng: RngStream, chunk: int, log: list | None = None) -> Draws:
        """Endless stream of sorted subsets in batches of ``chunk``, as a
        :class:`Draws` that appends each subset taken to ``log``."""
        return Draws(self._batches(rng, chunk), self.tau, log)

    def sample_many(self, rng: RngStream, k: int) -> np.ndarray:
        """The first k subsets of ``draws(rng, k)``, as a (k, tau) array."""
        batches = self._batches(rng, k)
        out, total = [np.empty((0, self.tau), dtype=np.int64)], 0
        while total < k:
            out.append(next(batches))
            total += len(out[-1])
        return np.concatenate(out)[:k]


class VolumeSampler(_SubsetStream):
    """Determinantal subset sampler built by full enumeration.

    Preprocessing builds the lexicographic subset table and every principal
    minor of order tau, then their cumulative sums: O(C(n, tau) * tau) time
    and memory for tau <= 3 (the pivot kernel's closed forms),
    O(C(n, tau) * tau^3) time for tau >= 4 (its lock-step elimination).  Each draw
    afterwards is a single binary search, about 0.5 us.  The build takes
    25-40 ns per subset at tau = 2 (n = 100-400), 40-55 ns at tau = 3 and
    75-80 ns at tau = 4 (n = 40-160), 120-160 ns at tau = 5 and 0.4 us at
    tau = 8 (n = 16-30), and about 0.1 ms at n = 16 (one BLAS thread), so
    :func:`make_sampler` enumerates from the start only while C(n, tau) <=
    tau * n^2, where the table builds in under 1 ms, and otherwise after
    the spectral sampler's handover.  It
    is the exactness oracle either way.  Construction refuses more than
    ``MAX_ENUMERATED_SUBSETS`` outcomes and raises :class:`EmptySupport`
    when every minor is zero, i.e. when tau exceeds the rank of the matrix.
    """

    def __init__(self, b, tau: int):
        n = b.shape[0]
        super().__init__(n, tau)
        self.subsets = all_subsets(n, tau)
        minors = principal_minors(b, tau, self.subsets)
        try:
            self.cumulative = build_cumulative(minors)
        except EmptySupport:
            raise EmptySupport(
                f"all order-{tau} principal minors are zero; "
                f"subset size exceeds the matrix rank"
            ) from None

    def _batches(self, rng: RngStream, chunk: int):
        while True:
            yield self.subsets[self.cumulative.searchsorted(rng.uniforms(chunk))]


def exact_probabilities(b, tau: int) -> dict[tuple[int, ...], float]:
    """Every subset's probability, det(B[S, S]) over the sum of all minors
    by the table's kernel: the reference ``volcd sample-test`` compares
    draws with, built by enumeration, so keep C(n, tau) small."""
    subsets = all_subsets(b.shape[0], tau)
    minors = principal_minors(b, tau, subsets)
    total = minors.sum()
    if total <= 0:
        raise EmptySupport("all principal minors are zero")
    return dict(zip(map(tuple, subsets.tolist()), (minors / total).tolist()))


def subset_counts(samples: np.ndarray, n: int) -> dict[tuple[int, ...], int]:
    """How often each subset occurs among the rows of ``samples``, (k, tau)
    indices into range(n): one ``np.unique`` over the rows' flat indices."""
    dims = (n,) * samples.shape[1]
    keys, counts = np.unique(np.ravel_multi_index(samples.T, dims), return_counts=True)
    rows = np.column_stack(np.unravel_index(keys, dims))
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))


def _redraw_refused(out: np.ndarray, ok: np.ndarray, draw) -> np.ndarray:
    """``out`` with every lane that ``ok`` refuses drawn again by
    ``draw(m)``, which returns m subsets and the pivot rule's verdicts on
    them, until each lane holds an accepted subset.  Raises
    :class:`EmptySupport` once ``_CLAMP_GIVE_UP`` draws were all refused."""
    k = drawn = len(out)
    todo = np.flatnonzero(~ok)
    while todo.size:
        if todo.size == k and drawn >= _CLAMP_GIVE_UP:
            raise EmptySupport(
                f"none of {drawn} drawn order-{out.shape[1]} blocks passed the "
                f"pivot test; the support is empty or nearly so"
            )
        s, ok = draw(todo.size)
        out[todo[ok]] = s[ok]
        drawn += todo.size
        todo = todo[~ok]
    return out


# ---------------------------------------------------------------------------
# Spectral determinantal sampling


def _esp_prefix_table(x: np.ndarray, m: int) -> np.ndarray:
    """Elementary symmetric polynomials of every prefix of x, (m + 1, len + 1).

    ``e[l, j]`` is e_l(x[:j]), with e_0 = 1 and e_l of fewer than l values 0.
    Row l is one cumulative sum of ``x * e[l - 1, :-1]`` behind a leading 0,
    which adds the terms of e_l(x[:j]) = e_l(x[:j - 1]) + x[j - 1] e_{l-1}(x[:j - 1])
    in the order of the scalar recurrence.  O(n * m) time and memory.
    """
    e = np.zeros((m + 1, x.size + 1))
    e[0] = 1.0
    for l in range(1, m + 1):
        np.multiply(x, e[l - 1, :-1], out=e[l, 1:])
        np.cumsum(e[l], out=e[l])
    return e


class SpectralVolumeSampler(_SubsetStream):
    """Determinantal subset sampler from one eigendecomposition of B.

    A tau-subset S is drawn with probability proportional to det(B[S, S]),
    the distribution :class:`VolumeSampler` enumerates, in two phases:

    1. Pick tau eigenvectors J with probability proportional to the product
       of their eigenvalues (Kulesza & Taskar 2012, Alg. 8).  With ``e[l, j]``
       the degree-l elementary symmetric polynomial of the first j
       eigenvalues, the largest of l picks among the first j' lies within
       the first j with probability e[l, j] / e[l, j'], so each pick is one
       ``searchsorted`` over a row of that table.
    2. Draw the rows of the projection DPP spanned by Q[:, J], one at a time
       by rejection (Hough, Krishnapur, Peres & Virag 2006).  A proposal
       takes a column c of J uniformly and a row i from column c's CDF of
       squared entries, that is i with probability ||Q[i, J]||^2 / tau, and
       is accepted with probability w_t(i) / w_0(i), where w_t(i) is the
       part of ||Q[i, J]||^2 orthogonal to the rows already chosen.  That
       needs about tau * H_tau proposals per draw.

    Preprocessing is the eigendecomposition of B 4^(-j), O(n^3) time, and
    O(n^2) memory for the eigenvectors, their column CDFs and a dense view
    of B.  Negative eigenvalues are clamped to 0 and the rest scaled by the
    largest, which cancels in every ratio and keeps the table from
    overflowing; those within roundoff of 0 (at most n * eps times the
    largest) count as 0, so tau above the numerical rank raises
    :class:`EmptySupport`.  A draw costs
    O(tau^3 + tau log n).  Subsets whose minor, by the table's kernel
    :func:`principal_minors`, is 0 are drawn again: the distribution
    is :class:`VolumeSampler`'s, and no drawn block is singular under the
    pivot rule, so the step solves every one.

    Draws come sorted, searched ``_SUB_BATCH`` lanes at a time in lock step:
    each round every unfinished lane makes tau proposals.  The number of
    uniforms a draw takes depends on its rejections, so the stream is its
    own and has no draw-for-draw contract with enumeration.

    A draw costs 10-20 us at tau = 3-5, against about 0.5 us from an
    enumeration table, so a long run is cheaper with the table once it has
    drawn as many subsets as the table costs to build.  With ``handover``
    set, the stream builds a :class:`VolumeSampler` after the first
    ``handover`` draws and continues from it on the same ``rng``, in chunks
    of the caller's ``chunk``; the draws before do not depend on ``chunk``.
    B with more than ``MAX_SPECTRAL_DIMENSION`` rows raises
    :class:`CombinatorialBlowup` before anything is densified.
    """

    def __init__(self, b, tau: int, handover: int | None = None):
        n = b.shape[0]
        super().__init__(n, tau)
        if n > MAX_SPECTRAL_DIMENSION:
            raise CombinatorialBlowup(
                f"dimension {n} exceeds the spectral sampler's cap "
                f"{MAX_SPECTRAL_DIMENSION}: it densifies and eigendecomposes B"
            )
        self.handover = handover
        # C-contiguous, so the redraw test's minors never copy it
        self.b = np.ascontiguousarray(as_dense(b))
        spectrum = eigendecompose(np.ldexp(self.b, _scale_exponent(self.b.diagonal())))
        lam = np.maximum(spectrum.eigenvalues, 0.0)
        if lam[0] > 0.0:
            lam /= lam[0]
        rank = int(np.count_nonzero(lam > n * np.finfo(float).eps))
        if tau > rank:
            raise EmptySupport(
                f"subset size {tau} exceeds the numerical rank {rank}"
            )
        self._esp = _esp_prefix_table(lam[:rank], self.tau)
        self._q = q = np.ascontiguousarray(spectrum.q[:, :rank])
        # column c's CDF, normalized to end at exactly 1 and shifted by 2c,
        # so one search over the flattened columns stays inside column c
        cdf = np.cumsum(q * q, axis=0)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        cdf += 2.0 * np.arange(rank)
        self._cdf = cdf.ravel(order="F")

    def _eigen_sets(self, rng: RngStream, k: int) -> np.ndarray:
        """k eigenvector sets, (k, tau) ascending column indices of ``_q``."""
        e, tau = self._esp, self.tau
        u = rng.uniforms(k * tau).reshape(tau, k)
        picks = np.empty((k, tau), dtype=np.int64)
        top = np.full(k, e.shape[1] - 1)
        for l in range(tau, 0, -1):
            # the largest of l picks among the first ``top`` eigenvalues
            top = np.searchsorted(e[l], u[l - 1] * e[l, top]) - 1
            picks[:, l - 1] = top
        return picks

    def _rows(self, rng: RngStream, sets: np.ndarray) -> np.ndarray:
        """One sorted row set per eigenvector set, by lock-step rejection.

        Each round, every unfinished lane makes ``tau`` proposals and keeps
        the first one accepted, which is the row a one-at-a-time rejection
        loop over the same proposals would keep; the rest go unused.
        """
        q, n, tau = self._q, self.n, self.tau
        k = sets.shape[0]
        rows = np.empty((k, tau), dtype=np.int64)
        basis = np.zeros((k, tau, tau))  # orthonormal rows, zero until chosen
        count = np.zeros(k, dtype=np.int64)
        lanes = np.arange(k)
        while lanes.size:
            m = lanes.size
            uc, ur, ua = rng.uniforms(3 * m * tau).reshape(3, m, tau)
            own = sets[lanes]
            pick = np.minimum((uc * tau).astype(np.int64), tau - 1)
            col = own[np.arange(m)[:, None], pick]
            i = np.searchsorted(self._cdf, 2.0 * col + ur) - n * col
            v = q[i[:, :, None], own[:, None, :]]  # (lane, proposal, tau)
            lane_basis = basis[lanes]
            proj = v @ lane_basis.transpose(0, 2, 1)
            w0 = np.einsum("mrt,mrt->mr", v, v)
            accept = ua * w0 < w0 - np.einsum("mrk,mrk->mr", proj, proj)
            sel = np.flatnonzero(accept.any(axis=1))
            first = accept[sel].argmax(axis=1)
            chosen = proj[sel, first][:, None, :] @ lane_basis[sel]
            resid = v[sel, first] - chosen[:, 0]
            resid /= np.linalg.norm(resid, axis=1)[:, None]
            hit = lanes[sel]
            at = count[hit]
            basis[hit, at] = resid
            rows[hit, at] = i[sel, first]
            count[hit] = at + 1
            lanes = lanes[count[lanes] < tau]
        rows.sort(axis=1)
        return rows

    def _search(self, rng: RngStream, k: int) -> np.ndarray:
        """k sorted subsets, (k, tau) int64; lanes whose minor, by the
        table's kernel :func:`principal_minors`, is 0 are drawn again: those
        the pivot rule refuses, a row accepted twice among them."""

        def draw(m):
            s = self._rows(rng, self._eigen_sets(rng, m))
            return s, principal_minors(self.b, self.tau, s) > 0.0

        return _redraw_refused(*draw(k), draw)

    def _batches(self, rng: RngStream, chunk: int):
        # spectral sub-batches up to the handover, the last one cut short,
        # then the table's chunks, each drawn when the caller reaches it
        if self.handover is None:
            while True:
                yield self._search(rng, _SUB_BATCH)
        for lo in range(0, self.handover, _SUB_BATCH):
            yield self._search(rng, min(_SUB_BATCH, self.handover - lo))
        yield from VolumeSampler(self.b, self.tau)._batches(rng, chunk)


# ---------------------------------------------------------------------------
# Sparse 2-element determinantal sampling


def _bisect(pred, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lock-step bisection: per lane, the smallest index in [a, c) at which
    the monotone ``pred`` holds, else c.  ``pred`` reads every lane each
    round, so a finished lane reads its answer c, which must be an index
    ``pred`` can read."""
    for _ in range(int((c - a).max()).bit_length()):
        mid = (a + c) >> 1
        hit = pred(mid)
        a = np.where(hit, a, mid + 1)
        c = np.where(hit, mid, c)
    return c


def _count_below(keys: np.ndarray) -> np.ndarray:
    """``out[b]`` = how many of the nonnegative ``keys`` have a floor below
    b, for b = 0 .. floor(max) + 1; O(len + max) by one bincount."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys.astype(np.int64)))))


class SparseTwoSampler(_SubsetStream):
    """2-element determinantal sampler for sparse symmetric PSD matrices, by
    rejection from the diagonal product.

    det(B[S, S]) <= B_ii B_jj (Hadamard), so a pair S = {i < j} proposed with
    probability B_ii B_jj / e_2(diag B) and accepted with probability
    det(B[S, S]) / (B_ii B_jj) = d_2 / B_jj, by the pivots of
    :func:`block_pivots`, which refuses the singular pairs, is drawn as
    :class:`VolumeSampler` draws it, exactly.  The proposal is phase 1 of
    :class:`SpectralVolumeSampler` on the diagonal: j from the degree-2 row
    of its prefix table, then i below it from the degree-1 row, each search
    from a guide table's bracket (Chen & Asau 1974); B_ij is found by a
    bisection inside row i.  Preprocessing is O(nnz + n), on B 4^(-j), and
    sets ``acceptance``, the share of proposals accepted: e_2(lambda) /
    e_2(diag B) = 1 - sum_{i<j} B_ij^2 / e_2(diag B).  Proposals are searched
    ``_SUB_BATCH`` at a time, with uniforms of their own, and the stream is
    the accepted ones in order, so it does not depend on the chunk.
    """

    def __init__(self, b: CsrSymmetricUpper):
        if not isinstance(b, CsrSymmetricUpper):
            raise TypeError("SparseTwoSampler requires a CsrSymmetricUpper matrix")
        n = b.n
        super().__init__(n, 2)
        self.b = b
        diag = b.diagonal()
        scale = _scale_exponent(diag)
        self.diag = np.ldexp(diag, scale)
        self._esp = e = _esp_prefix_table(self.diag, 2)
        if e[2, n] <= 0.0:
            raise EmptySupport("fewer than two positive diagonal entries; rank is below 2")
        # per degree l, a guide over n buckets: v lies in bucket floor(v /
        # e[l, n] * n), and the smallest k with v <= e[l, k] in [guide[b],
        # guide[b + 1]].  Ends set to l and n keep a search in [l, n], so it
        # returns a pair even where v underflows to 0, refused if massless
        self._guides = {}
        for l in (1, 2):
            guide = self._guides[l] = _count_below(e[l] / e[l, n] * n)
            guide[0], guide[-1] = l, n
        # the stored entries, with each nonempty row's first, its diagonal, zeroed
        self._off = off = np.ldexp(b.values, scale)
        off[b.indptr[:-1][np.diff(b.indptr) > 0]] = 0.0
        self.acceptance = 1.0 - float(off @ off) / e[2, n]

    def _search(self, l: int, v: np.ndarray) -> np.ndarray:
        """Per lane, the smallest k with v <= e_l(diag[:k]), searched from
        its guide bracket."""
        row, guide = self._esp[l], self._guides[l]
        b = (v / row[-1] * self.n).astype(np.int64)
        return _bisect(lambda k: v <= row[k], guide[b], guide[b + 1])

    def _propose(self, rng: RngStream, m: int) -> tuple[np.ndarray, np.ndarray]:
        """m proposed pairs, (m, 2) int64, and whether each is accepted."""
        u = rng.uniforms(3 * m).reshape(3, m)
        e = self._esp
        # j, the larger pick among all n diagonal entries, then i below it
        j = self._search(2, u[1] * e[2, self.n]) - 1
        i = self._search(1, u[0] * e[1, j]) - 1
        pairs = np.column_stack((i, j))
        # B_ij: the first stored entry of row i at or past column j, if it is j
        indptr, cols = self.b.indptr, self.b.indices
        hi = indptr[i + 1]
        p = _bisect(lambda p: cols.take(p, mode="clip") >= j, indptr[i], hi)
        found = (p < hi) & (cols.take(p, mode="clip") == j)
        b_ij = np.where(found, self._off.take(p, mode="clip"), 0.0)
        d = self.diag.take(pairs.T)
        piv, regular = block_pivots(d, b_ij[None])
        return pairs, regular & (u[2] * d[1] < piv[1])

    def _batches(self, rng: RngStream, chunk: int):
        # the accepted proposals of successive sub-batches, in order, handed
        # out _SUB_BATCH at a time, so batch ends stay where lazy blocks end
        rounds = -(-_CLAMP_GIVE_UP // _SUB_BATCH)
        held = np.empty((0, 2), dtype=np.int64)
        while True:
            for _ in range(rounds):
                pairs, ok = self._propose(rng, _SUB_BATCH)
                if ok.any():
                    break
            else:
                raise EmptySupport(f"none of {rounds * _SUB_BATCH} drawn order-2 blocks was "
                                   f"accepted; the support is empty or nearly so")
            held = np.concatenate((held, pairs[ok]))
            if len(held) >= _SUB_BATCH:
                yield held[:_SUB_BATCH]
                held = held[_SUB_BATCH:]


# ---------------------------------------------------------------------------
# Uniform subsets


class UniformSampler(_SubsetStream):
    """Uniform tau-element subsets of range(n), without replacement.

    Each subset takes its own tau uniforms, so the stream does not depend on
    the chunk size.  Pick k is the floor(u_k * (n - k))-th index not yet
    picked (u_k < 1 keeps it below n - k), found by shifting past the
    earlier picks in increasing order.
    """

    def _batches(self, rng: RngStream, chunk: int):
        n, tau = self.n, self.tau
        while True:
            u = rng.uniforms(chunk * tau).reshape(chunk, tau)
            picks = []  # the picks so far, one sorted column each
            for k in range(tau):
                v = (u[:, k] * (n - k)).astype(np.int64)
                for c, p in enumerate(picks):
                    # shift past p if v reaches it; the smaller stays at c
                    v += v >= p
                    picks[c], v = np.minimum(p, v), np.maximum(p, v)
                picks.append(v)
            yield np.column_stack(picks)


# ---------------------------------------------------------------------------
# Sampler choice


def _handover_draws(n: int, tau: int) -> int | None:
    """How many spectral draws cost as much as building the enumeration
    table, or None when the table would exceed ``MAX_HANDOVER_SUBSETS``.

    Measured on dense quadratics at n = 20-235 (one BLAS thread), when
    tables at tau >= 4 took batched LU determinants: the table built in
    40-70 ns per subset at tau = 3 (closed-form minors) and 0.3-0.75 us at
    tau = 4 and 5, while a spectral draw costs about 5-10, 8-15 and 10-18 us
    more than a table draw.  So the table paid for itself after about
    C(n, 3) / 128 or C(n, tau) / 16 draws.  The pivot kernel builds tau = 4
    and 5 tables in 75-130 ns per subset (n = 20-60), so there the table now
    pays for itself about four times sooner than these counts assume.
    """
    count = math.comb(n, tau)
    if count > MAX_HANDOVER_SUBSETS:
        return None
    return -(-count // (128 if tau == 3 else 16))


def make_sampler(b, tau: int):
    """The determinantal sampler for B's storage, its dimension n and tau.

    * CSR B with tau = 2: :class:`SparseTwoSampler`, O(nnz + n), where its
      ``acceptance`` is at least ``_MIN_ACCEPTANCE`` (0.72-1.0 on the CSR
      workloads measured, under 0.01 on nearly rank-one data), else
      :class:`VolumeSampler`.
    * C(n, tau) <= tau * n^2: :class:`VolumeSampler`.  That covers every
      tau <= 2, tau = 3 up to n = 20 and tau = 4 up to n = 12, where the
      table builds in under 1 ms and its 0.5 us draws repay the difference
      to the spectral build within 50 draws.
    * Larger C(n, tau): :class:`SpectralVolumeSampler`, O(n^3) once and
      O(tau^3 + tau log n) per draw, which suits a short run.  A long run
      is handed over to enumeration after ``_handover_draws(n, tau)`` draws,
      so it pays at most the eigendecomposition and the table's build cost
      again over enumerating from the start; a table above
      ``MAX_HANDOVER_SUBSETS`` is never built.
    """
    n = b.shape[0]
    if isinstance(b, CsrSymmetricUpper) and tau == 2:
        pairs = SparseTwoSampler(b)
        return pairs if pairs.acceptance >= _MIN_ACCEPTANCE else VolumeSampler(b, 2)
    if math.comb(n, tau) <= tau * n * n:
        return VolumeSampler(b, tau)
    return SpectralVolumeSampler(b, tau, handover=_handover_draws(n, tau))
