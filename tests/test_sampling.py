import functools
import itertools
import math

import numpy as np
import pytest

from volcd import sampling
from volcd.errors import CombinatorialBlowup, EmptySupport
from volcd.linalg import CsrSymmetricUpper, gather_submatrix
from volcd.problems import ProblemSpec, banded_psd, generate
from volcd.rng import RngStream
from volcd.spectral import _esp_all_degrees
from volcd.sampling import (
    SparseTwoSampler,
    SpectralVolumeSampler,
    UniformSampler,
    VolumeSampler,
    all_subsets,
    build_cumulative,
    exact_probabilities,
    make_sampler,
    principal_minors,
    subset_counts,
)

from oracles import (
    csr_from_rows,
    probabilities,
    psd_det,
    raw_minors,
)

TRIDIAG = np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]])


def tv_distance(counts: dict, exact: dict, draws: int) -> float:
    return 0.5 * sum(abs(counts.get(s, 0) / draws - p) for s, p in exact.items())


def count_subsets(samples) -> dict:
    counts: dict = {}
    for row in samples:
        key = tuple(int(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def random_psd(rng, n, rank=None):
    g = rng.standard_normal((rank or n, n))
    return g.T @ g


def scaled(b):
    """B 4^-j, j = ceil(e / 2) for e the binary exponent of the dense B's
    largest diagonal entry: the matrix whose minors the samplers read."""
    return np.ldexp(b, -2 * math.ceil(math.frexp(float(np.max(np.diag(b))))[1] / 2))


class Uniforms:
    """An rng whose ``uniforms(k)`` hands out the given k values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniforms(self, k):
        assert k == self.u.size
        return self.u


# ---------------------------------------------------------------------------
# cumulative tables


def test_build_cumulative_normalizes():
    assert np.allclose(build_cumulative([2, 3, 5]), [0.2, 0.5, 1.0])


def test_build_cumulative_zero_weights_kept():
    assert np.allclose(build_cumulative([0, 1, 0]), [0.0, 1.0, 1.0])


def test_build_cumulative_uniform():
    n = 7
    assert np.allclose(build_cumulative(np.ones(n)), np.arange(1, n + 1) / n)


def test_build_cumulative_empty_support():
    with pytest.raises(EmptySupport):
        build_cumulative([0.0, 0.0])


@pytest.mark.parametrize("weights, message", [
    ([], "at least one weight"),
    ([1.0, -0.5], "nonnegative"),
])
def test_build_cumulative_rejects_empty_or_negative_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        build_cumulative(weights)


def test_cumulative_sample_min_rule():
    # VolumeSampler draws by ``cumulative.searchsorted(u)``
    cum = build_cumulative([2, 3, 5])
    assert cum.searchsorted(0.25) == 1
    # boundary: u equal to a stored cumulative goes to the smaller index
    assert cum.searchsorted(0.2) == 0
    zero_first = build_cumulative([0, 1, 0])
    for u in (0.01, 0.5, 0.999):
        assert zero_first.searchsorted(u) == 1
    # through the sampler: {0, 2} is singular, so the cumulative array reads
    # (0.5, 0.5, 1) over {0,1}, {0,2}, {1,2}; u = 0.5 draws {0,1}, and no
    # uniform draws {0,2}
    sampler = VolumeSampler(np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 1]]), 2)
    assert sampler.cumulative.tolist() == [0.5, 0.5, 1.0]
    u = [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1e-300, 0.999]
    got = sampler.sample_many(Uniforms(u), len(u))
    assert got.tolist() == [[0, 1], [0, 1], [1, 2], [0, 1], [1, 2]]


def test_cumulative_sample_matches_linear_scan():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.uniform(0, 1, size=rng.integers(1, 12))
        w[rng.random(w.size) < 0.3] = 0.0
        if w.sum() == 0:
            continue
        # tau = 1 on diag(w): the sampler's minors are the weights
        sampler = VolumeSampler(np.diag(w), 1)
        cum = sampler.cumulative
        assert cum.tobytes() == build_cumulative(w).tobytes()
        # plain uniforms and every stored value in (0, 1), ties included
        u = np.concatenate((rng.uniform(1e-9, 1.0, size=5), cum[(cum > 0) & (cum < 1)]))
        linear = [min(k for k in range(w.size) if v <= cum[k]) for v in u.tolist()]
        drawn = sampler.sample_many(Uniforms(u), u.size)[:, 0]
        assert drawn.tolist() == linear
        assert (w[drawn] > 0).all()


def test_largest_uniform_never_draws_a_trailing_zero_weight():
    # the running sum can stop a few ulps short of 1 at the last positive
    # weight; the largest uniform below 1 must still draw a positive weight
    top = 1.0 - 2.0**-53
    rng = np.random.default_rng(3)
    for _ in range(2000):
        w = rng.uniform(0, 1, size=rng.integers(2, 12))
        w[rng.random(w.size) < 0.3] = 0.0
        w[-1] = 0.0
        if w.sum() == 0:
            continue
        assert (build_cumulative(w)[np.flatnonzero(w)[-1] :] == 1.0).all()
        drawn = VolumeSampler(np.diag(w), 1).sample_many(Uniforms([top]), 1)
        assert w[drawn[0, 0]] > 0
    # coordinate 7 has a zero row and column, so the pairs holding it are
    # singular, the last pair (6, 7) among them
    a = np.random.default_rng(0).standard_normal((8, 7))
    b = a @ a.T
    b[7, :] = b[:, 7] = 0.0
    sampler = VolumeSampler(b, 2)
    assert sampler.sample_many(Uniforms([top]), 1).tolist() == [[5, 6]]


# ---------------------------------------------------------------------------
# general determinantal sampler


def test_tau_one_is_diagonal_proportional():
    sampler = VolumeSampler(np.diag([1.0, 2.0, 3.0]), 1)
    assert np.allclose(probabilities(sampler), [1 / 6, 2 / 6, 3 / 6])


def test_tau_one_same_on_sparse_and_dense_storage():
    b = random_psd(np.random.default_rng(5), 9)
    b[np.abs(b) < 1.0] = 0.0
    np.fill_diagonal(b, np.abs(np.diag(b)) + 0.5)
    b[4, :] = b[:, 4] = 0.0  # a zero row carries no mass
    csr = CsrSymmetricUpper.from_dense(b)
    sparse, dense = VolumeSampler(csr, 1), VolumeSampler(csr.to_dense(), 1)
    assert np.array_equal(probabilities(sparse), probabilities(dense))
    assert probabilities(sparse)[4] == 0.0
    assert np.array_equal(
        sparse.sample_many(RngStream(3), 1000), dense.sample_many(RngStream(3), 1000)
    )


def test_tau_one_empty_sparse_matrix_has_no_support():
    with pytest.raises(EmptySupport):
        VolumeSampler(csr_from_rows(4, []), 1)


def test_tau_two_diagonal_minors():
    sampler = VolumeSampler(np.diag([1.0, 2.0, 3.0]), 2)
    assert np.allclose(probabilities(sampler), [2 / 11, 3 / 11, 6 / 11])


def test_tau_two_tridiagonal():
    sampler = VolumeSampler(TRIDIAG, 2)
    assert np.allclose(probabilities(sampler), [0.3, 0.4, 0.3])


def test_sampler_table_walk_explicit_uniforms():
    sampler = VolumeSampler(np.diag([1.0, 2.0, 3.0]), 2)
    # cumulative masses (2, 5, 11)/11 over {0,1}, {0,2}, {1,2}
    assert sampler.sample_many(Uniforms([0.1, 0.99]), 2).tolist() == [[0, 1], [1, 2]]


def test_lexicographic_subset_order():
    subs = all_subsets(4, 2)
    expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [tuple(s) for s in subs] == expected


@pytest.mark.parametrize(
    "n, tau",
    [(n, tau) for n in (1, 2, 3, 6, 9) for tau in range(1, n + 1)]
    + [(12, 3), (12, 4), (12, 5), (15, 14), (15, 15), (4, 5)],
)
def test_all_subsets_match_itertools(n, tau):
    expected = np.array(
        list(itertools.combinations(range(n), tau)), dtype=np.int64
    ).reshape(-1, tau)
    subs = all_subsets(n, tau)
    assert subs.dtype == np.int64
    assert np.array_equal(subs, expected)


def _per_subset_det(b, tau):
    subsets = itertools.combinations(range(b.shape[0]), tau)
    return np.array([np.linalg.det(b[np.ix_(s, s)]) for s in subsets])


def test_order3_minors_match_per_subset_determinants():
    rng = np.random.default_rng(8)
    for n in (3, 4, 7, 13):
        g = rng.standard_normal((n, n))
        indefinite = g + g.T
        got = raw_minors(indefinite, 3)
        ref = _per_subset_det(indefinite, 3)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    psd = random_psd(rng, 9)
    psd[2, :] = psd[:, 2] = 0.0
    ref = _per_subset_det(psd, 3)
    raw = raw_minors(psd, 3)
    assert np.abs(raw - ref).max() <= 1e-12 * np.abs(ref).max()
    clamped = principal_minors(psd, 3)
    touches_zero_row = (all_subsets(9, 3) == 2).any(axis=1)
    assert (clamped[touches_zero_row] == 0.0).all()
    assert (clamped[~touches_zero_row] > 0.0).all()


def test_clamped_minors_of_an_indefinite_matrix_are_never_negative():
    # blocks with the negative diagonal entry have a negative diagonal
    # product; their minors, -1 and -(1 - c^2) = -2.2e-16, still clamp to 0
    # instead of reaching the table as negative weights
    b = np.eye(4)
    b[0, 0] = -1.0
    b[1, 2] = b[2, 1] = 1.0 - 2.0**-53
    for tau in (1, 2, 3, 4):
        assert (principal_minors(b, tau) >= 0.0).all(), tau
    with pytest.raises(EmptySupport):
        VolumeSampler(b, 3)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
def test_minors_of_any_subset_rows_are_the_tables_bits(tau, sparse):
    # one kernel for the table and for the spectral sampler's redraw test:
    # rows in any order, with repeats, over several chunks, give the
    # table's minor at each subset, as they give the oracle's raw minor
    rng = np.random.default_rng(20 + tau)
    n = 11
    dense = random_psd(rng, n, rank=n - 2) + np.diag(rng.uniform(0, 1, n))
    if sparse:
        dense[np.abs(dense) < 0.5 * np.abs(dense).mean()] = 0.0
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 0.5)
        b = CsrSymmetricUpper.from_dense(dense)
    else:
        b = dense
    table = all_subsets(n, tau)
    rows = rng.integers(0, table.shape[0], size=2 * sampling._CHUNK + 7)
    for minors in (raw_minors, principal_minors):
        full = minors(b, tau)
        got = minors(b, tau, table[rows])
        assert got.tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("tau", [2, 3, 4, 5, 6])
def test_a_subset_with_a_repeated_row_has_a_clamped_minor_of_zero(tau):
    # the spectral sampler draws again any subset whose clamped minor is 0,
    # so a row its rejection loop accepts twice is never drawn, whatever the
    # scale of B's rows
    rng = np.random.default_rng(70 + tau)
    n = 12
    for _ in range(30):
        scale = np.exp(rng.uniform(-5.0, 5.0, n))
        b = scale[:, None] * random_psd(rng, n) * scale
        subsets = np.array([rng.choice(n, size=tau - 1, replace=False) for _ in range(30)])
        subsets = np.sort(np.column_stack((subsets, subsets[:, -1])), axis=1)
        assert (principal_minors(b, tau, subsets) == 0.0).all()


def test_low_order_minors_are_the_closed_forms():
    b = random_psd(np.random.default_rng(9), 8)
    assert np.array_equal(raw_minors(b, 1), np.diag(b))
    # the kernel reads B 4^-j, whose largest diagonal entry lies in [1/4, 1)
    assert 0.25 <= np.diag(scaled(b)).max() < 1.0
    assert np.array_equal(principal_minors(b, 1), np.diag(scaled(b)))
    pairs = np.array(list(itertools.combinations(range(8), 2)))
    i, j = pairs[:, 0], pairs[:, 1]
    expected = b[i, i] * b[j, j] - b[i, j] ** 2
    assert np.array_equal(raw_minors(b, 2), expected)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
def test_table_minors_are_the_pivot_product(tau, sparse):
    # every minor is the product of block_pivots' pivots on B 4^-j, zeroed
    # where it refuses the block, at every tau: the table's closed forms
    # are gone
    rng = np.random.default_rng(40 + tau)
    n = 10
    dense = random_psd(rng, n, rank=n - 3) + np.diag(rng.uniform(0, 1, n))
    dense[2, :] = dense[:, 2] = 0.0
    b = CsrSymmetricUpper.from_dense(dense) if sparse else dense
    st = all_subsets(n, tau).T
    rows, cols = np.triu_indices(tau, 1)
    sc = scaled(dense)
    piv, regular = sampling.block_pivots(sc[st, st], sc[st[rows], st[cols]])
    expected = np.where(regular, piv.prod(0), 0.0)
    assert not regular.all()
    assert principal_minors(b, tau).tobytes() == expected.tobytes()
    assert VolumeSampler(b, tau).cumulative.tobytes() == build_cumulative(expected).tobytes()


@pytest.mark.parametrize("tau", [2, 3, 5])
def test_csr_minors_read_stored_entries_without_densifying(monkeypatch, tau):
    # a CSR B's minors and blocks read its stored entries where they lie, so
    # no n x n array is built; the bits are the dense path's
    n = 200
    b = banded_psd(n, 3, seed=tau)
    dense = b.to_dense()
    runs = np.arange(n - tau + 1)[:, None] + np.arange(tau)
    scattered = np.sort(np.random.default_rng(tau).random((300, n)).argsort(axis=1)[:, :tau], axis=1)
    subsets = np.concatenate((runs, scattered))
    expected = principal_minors(dense, tau, subsets)
    assert (expected > 0).all()

    def densify(self):
        raise AssertionError("a CSR B was densified")

    monkeypatch.setattr(CsrSymmetricUpper, "to_dense", densify)
    assert principal_minors(b, tau, subsets).tobytes() == expected.tobytes()
    for s in subsets[::50]:
        assert gather_submatrix(b, s).tobytes() == dense[s[:, None], s].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tau_three_draws_match_per_subset_determinant_table(seed):
    b = random_psd(np.random.default_rng(10 + seed), 30)
    subsets = all_subsets(30, 3)
    cum = build_cumulative(_per_subset_det(b, 3))
    expected = subsets[cum.searchsorted(RngStream(seed).uniforms(20_000))]
    got = VolumeSampler(b, 3).sample_many(RngStream(seed), 20_000)
    assert np.array_equal(got, expected)


def test_exact_probabilities_match_sampler_table():
    rng = np.random.default_rng(1)
    b = random_psd(rng, 5)
    for tau in (1, 2, 3):
        sampler = VolumeSampler(b, tau)
        exact = exact_probabilities(b, tau)
        for s, p in zip(sampler.subsets, probabilities(sampler)):
            assert exact[tuple(int(i) for i in s)] == pytest.approx(p)


def test_volume_sampler_statistical():
    rng_np = np.random.default_rng(2)
    b = random_psd(rng_np, 4)
    sampler = VolumeSampler(b, 2)
    draws = 20_000
    samples = sampler.sample_many(RngStream(7), draws)
    tv = tv_distance(count_subsets(samples), exact_probabilities(b, 2), draws)
    assert tv <= 0.03


def test_empty_support_when_tau_exceeds_rank():
    b = np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])  # rank one
    with pytest.raises(EmptySupport):
        VolumeSampler(b, 2)


def test_combinatorial_blowup_guard():
    with pytest.raises(CombinatorialBlowup):
        all_subsets(300, 8)


def test_minor_clamp_excludes_degenerate_submatrices():
    # {0,1} block is singular: that pair must get zero mass
    b = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1.0]])
    sampler = VolumeSampler(b, 2)
    probs = dict(zip((tuple(map(int, s)) for s in sampler.subsets),
                     probabilities(sampler)))
    assert probs[(0, 1)] == 0.0
    draws = sampler.sample_many(RngStream(3), 5000)
    assert (0, 1) not in count_subsets(draws)


def test_sampled_submatrices_always_nonsingular():
    rng = np.random.default_rng(4)
    stream = RngStream(5)
    for _ in range(5):
        n = 6
        b = random_psd(rng, n, rank=4)
        b[0, :] = 0.0  # zero row/column: many singular submatrices
        b[:, 0] = 0.0
        for tau in (1, 2, 3):
            sampler = VolumeSampler(b, tau)
            for s in sampler.sample_many(stream, 400):
                assert psd_det(b[np.ix_(s, s)]) > 0


# ---------------------------------------------------------------------------
# spectral determinantal sampler


def _sparse_full_rank(seed, n):
    b = random_psd(np.random.default_rng(seed), n)
    b[np.abs(b) < 0.5 * np.abs(b).mean()] = 0.0
    np.fill_diagonal(b, np.abs(b).sum(axis=1) + 0.5)  # diagonally dominant
    return CsrSymmetricUpper.from_dense(b)


SPECTRAL_CASES = [
    # (name, matrix, taus): n <= 12, dense and CSR, and tau = rank
    ("dense-7", lambda: random_psd(np.random.default_rng(30), 7), (2, 3, 4, 5)),
    ("csr-8", lambda: _sparse_full_rank(31, 8), (2, 3, 5)),
    ("rank4-8", lambda: random_psd(np.random.default_rng(32), 8, rank=4), (3, 4)),
    ("csr-12", lambda: _sparse_full_rank(33, 12), (2,)),
]


@pytest.mark.parametrize(
    "name, make, tau",
    [(name, make, tau) for name, make, taus in SPECTRAL_CASES for tau in taus],
    ids=[f"{name}-tau{tau}" for name, _, taus in SPECTRAL_CASES for tau in taus],
)
def test_spectral_sampler_matches_exact_distribution(name, make, tau):
    # criterion 1's bound: total variation at most 0.02 against enumeration
    b = make()
    draws = 60_000
    samples = SpectralVolumeSampler(b, tau).sample_many(RngStream(40 + tau), draws)
    assert samples.shape == (draws, tau) and samples.dtype == np.int64
    assert (np.diff(samples, axis=1) > 0).all()  # sorted, distinct rows
    exact = exact_probabilities(b, tau)
    assert tv_distance(subset_counts(samples, b.shape[0]), exact, draws) <= 0.02


def test_spectral_sampler_empty_support_above_rank():
    b = random_psd(np.random.default_rng(34), 6, rank=3)
    SpectralVolumeSampler(b, 3)
    with pytest.raises(EmptySupport):
        SpectralVolumeSampler(b, 4)
    with pytest.raises(EmptySupport):
        SpectralVolumeSampler(np.zeros((3, 3)), 1)


def test_spectral_sampler_gives_up_when_every_minor_is_clamped():
    # rank 2 above the sampler's rank cut (eigenvalues 2 and 2.6e-15), but
    # the only pair minor, 5.1e-15, is at most 1e-14 times its block's
    # diagonal product 1, so enumeration has no support either
    c = np.sqrt(1.0 - 5e-15)
    b = np.array([[1.0, c], [c, 1.0]])
    with pytest.raises(EmptySupport):
        VolumeSampler(b, 2)
    sampler = SpectralVolumeSampler(b, 2)
    with pytest.raises(EmptySupport):
        sampler.sample_many(RngStream(0), 1)


def test_spectral_sampler_never_draws_a_degenerate_subset():
    # the {0, 1} block is singular
    b = np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1.0]])
    draws = SpectralVolumeSampler(b, 2).sample_many(RngStream(3), 5000)
    assert (0, 1) not in count_subsets(draws)
    # {1, ..., 8} is the identity: well conditioned at its own scale, though
    # its minor 1 is small beside the others' 60, so it keeps its exact
    # share 1/481, about 42 of 20k draws (standard deviation 6.4)
    b = np.diag([60.0] + [1.0] * 8)
    draws = SpectralVolumeSampler(b, 8).sample_many(RngStream(4), 20_000)
    exact = exact_probabilities(b, 8)
    assert exact[tuple(range(1, 9))] == pytest.approx(1 / 481, rel=1e-12)
    assert 10 <= int((draws[:, 0] == 1).sum()) <= 74
    assert tv_distance(subset_counts(draws, 9), exact, 20_000) <= 0.02


def test_spectral_sampler_same_seed_same_subsets():
    b = _sparse_full_rank(35, 10)
    a = SpectralVolumeSampler(b, 3).sample_many(RngStream(99), 600)
    again = SpectralVolumeSampler(b, 3).sample_many(RngStream(99), 600)
    assert np.array_equal(a, again)
    other = SpectralVolumeSampler(b, 3).sample_many(RngStream(98), 600)
    assert not np.array_equal(a, other)


@pytest.mark.parametrize("chunk", [4, 4096])
def test_spectral_sample_many_is_the_head_of_draws(chunk):
    # the stream contract every determinantal sampler shares:
    # sample_many(rng, k) is the head of draws(rng, k), and every sampler
    # draws the same stream for every chunk.
    b = random_psd(np.random.default_rng(36), 9)
    csr = banded_psd(9, 2, seed=4)
    samplers = (
        VolumeSampler(b, 3),
        VolumeSampler(csr, 3),
        SparseTwoSampler(csr),
        SpectralVolumeSampler(b, 4),
        SpectralVolumeSampler(b, 3, handover=300),
    )
    for sampler in samplers:
        stream = sampler.draws(RngStream(21), chunk)
        head = np.array([next(stream) for _ in range(600)])
        assert np.array_equal(sampler.sample_many(RngStream(21), 600), head)
        for k in (1, 256, 300, 600):
            stream = sampler.draws(RngStream(21), k)
            first = np.array([next(stream) for _ in range(k)])
            assert np.array_equal(sampler.sample_many(RngStream(21), k), first)


@pytest.mark.parametrize("chunk", [4, 4096])
def test_spectral_handover_continues_the_stream_from_enumeration(chunk):
    # 300 spectral draws, searched as sub-batches of 256 and 44, then the
    # table's draws on the same stream
    b = random_psd(np.random.default_rng(37), 9)
    sampler = SpectralVolumeSampler(b, 3, handover=300)
    stream = sampler.draws(RngStream(22), chunk)
    head = np.array([next(stream) for _ in range(800)])
    rng = RngStream(22)
    spectral = SpectralVolumeSampler(b, 3)
    expected = np.concatenate(
        (spectral._search(rng, 256), spectral._search(rng, 44),
         VolumeSampler(b, 3).sample_many(rng, 500))
    )
    assert np.array_equal(head, expected)
    for k in (1, 300, 301, 800):
        assert np.array_equal(sampler.sample_many(RngStream(22), k), head[:k])


def test_spectral_sampler_refuses_a_large_dimension_before_densifying(monkeypatch):
    def no_densify(b):
        raise AssertionError("densified")

    monkeypatch.setattr(sampling, "as_dense", no_densify)
    with pytest.raises(CombinatorialBlowup):
        make_sampler(csr_from_rows(100_000, []), 3)
    cap = sampling.MAX_SPECTRAL_DIMENSION
    with pytest.raises(CombinatorialBlowup):
        SpectralVolumeSampler(csr_from_rows(cap + 1, []), 3)


@pytest.mark.parametrize(
    "storage, n, tau, expected",
    [
        ("dense", 20, 3, ("enumerate", None)),
        ("dense", 21, 3, ("spectral", 11)),  # C(21, 3) = 1330
        ("dense", 12, 4, ("enumerate", None)),
        ("dense", 13, 4, ("spectral", 45)),  # C(13, 4) = 715
        ("dense", 160, 3, ("spectral", 5234)),  # C(160, 3) = 669,920
        ("dense", 233, 3, ("spectral", 16260)),  # the largest table handed over
        ("dense", 234, 3, ("spectral", None)),
        ("csr", 21, 3, ("spectral", 11)),
        ("csr", 2000, 2, ("pairs", None)),  # acceptance at the floor
        ("csr-below-floor", 2000, 2, ("enumerate", None)),
        ("csr", 2000, 1, ("enumerate", None)),
        ("dense", 2000, 2, ("enumerate", None)),
        ("dense", 2000, 1, ("enumerate", None)),
    ],
)
def test_make_sampler_rule_at_its_boundaries(monkeypatch, storage, n, tau, expected):
    # the rule alone: the constructors are replaced, so nothing is built;
    # the pair sampler's stand-in accepts at the floor, or just below it
    class Tagged(tuple):
        acceptance = sampling._MIN_ACCEPTANCE
        if storage == "csr-below-floor":
            acceptance = np.nextafter(acceptance, 0.0)

    for name, tag in (
        ("VolumeSampler", "enumerate"),
        ("SpectralVolumeSampler", "spectral"),
        ("SparseTwoSampler", "pairs"),
    ):
        monkeypatch.setattr(
            sampling, name, lambda *args, tag=tag, handover=None: Tagged((tag, handover))
        )
    if storage.startswith("csr"):
        b = csr_from_rows(n, [])
    else:
        b = np.broadcast_to(0.0, (n, n))
    assert make_sampler(b, tau) == expected


# ---------------------------------------------------------------------------
# sparse pair sampler


def test_sparse2_preprocess_hand_values():
    # the table of B / 4: the largest diagonal entry 2 = 0.5 * 2^2.  e_2 of
    # its diagonal is 0.75 and of its eigenvalues 0.75 - 2 * 0.25^2 = 0.625
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(TRIDIAG))
    assert np.array_equal(sampler._esp, [[1, 1, 1, 1], [0, 0.5, 1, 1.5], [0, 0, 0.25, 0.75]])
    assert sampler.acceptance == pytest.approx(0.625 / 0.75, rel=1e-15)


def test_sparse2_preprocess_identity_two():
    # the table of I / 4: 1 = 0.5 * 2^1, and j = ceil(1 / 2) = 1
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(np.eye(2)))
    assert np.array_equal(sampler._esp[2], [0, 0, 0.0625])
    assert sampler.acceptance == 1.0


def test_sparse2_zero_row_contributes_nothing():
    b = np.diag([1.0, 0.0, 2.0])
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(b))
    assert sampler.acceptance == 1.0
    draws = sampler.sample_many(RngStream(11), 3000)
    assert set(count_subsets(draws)) == {(0, 2)}


def test_sparse2_sample_trace():
    # on B / 4, diag 0.5: e_2 of the prefixes is (0, 0, 0.25, 0.75) and e_1
    # (0, 0.5, 1, 1.5).  Lane by lane, the uniforms of i, of j and of the
    # acceptance test: 0.3 * 0.75 <= 0.25 picks j = 1, and i = 0 below it,
    # whose pivot 0.5 - 0.25^2 / 0.5 = 0.375 accepts u < 0.75; 0.5 * 0.75
    # picks j = 2, and 0.6 or 0.4 of e_1 = 1 picks i = 1 or 0; B_02 = 0
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(TRIDIAG))
    u = [[0.9, 0.9, 0.6, 0.4], [0.3, 0.3, 0.5, 0.5], [0.7, 0.8, 0.7, 0.999]]
    pairs, ok = sampler._propose(Uniforms(np.ravel(u)), 4)
    assert pairs.tolist() == [[0, 1], [0, 1], [1, 2], [0, 2]]
    assert ok.tolist() == [True, False, True, True]


def test_sparse2_statistical_matches_exact():
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(TRIDIAG))
    draws = 20_000
    counts = count_subsets(sampler.sample_many(RngStream(13), draws))
    tv = tv_distance(counts, exact_probabilities(TRIDIAG, 2), draws)
    assert tv <= 0.03


def test_sparse2_matches_general_sampler_distribution():
    rng = np.random.default_rng(6)
    for trial in range(3):
        b = random_psd(rng, 6)
        b[np.abs(b) < 0.2] = 0.0
        np.fill_diagonal(b, np.abs(np.diag(b)) + 1.0)
        csr = CsrSymmetricUpper.from_dense(b)
        exact = exact_probabilities(b, 2)
        draws = 20_000
        tv_sparse = tv_distance(
            count_subsets(SparseTwoSampler(csr).sample_many(RngStream(trial), draws)),
            exact,
            draws,
        )
        tv_general = tv_distance(
            count_subsets(VolumeSampler(b, 2).sample_many(RngStream(trial), draws)),
            exact,
            draws,
        )
        assert tv_sparse <= 0.03
        assert tv_general <= 0.03


def test_sparse2_normalization_equals_minor_sum():
    # acceptance times e_2 of the diagonal, the proposals' normalization, is
    # the sum of all 2x2 principal minors, e_2 of the eigenvalues
    rng = np.random.default_rng(7)
    for _ in range(10):
        b = random_psd(rng, 7)
        b[np.abs(b) < 0.3] = 0.0
        np.fill_diagonal(b, np.abs(np.diag(b)) + 1.0)
        csr = CsrSymmetricUpper.from_dense(b)
        sampler = SparseTwoSampler(csr)
        # the masses are those of B 4^-j
        mass = sampler.acceptance * sampler._esp[2, -1]
        assert mass == pytest.approx(raw_minors(scaled(b), 2).sum(), rel=1e-8)
        lam = np.linalg.eigvalsh(scaled(b))
        sigma2 = sum(
            lam[i] * lam[j] for i in range(7) for j in range(i + 1, 7)
        )
        assert mass == pytest.approx(sigma2, rel=1e-8)


def _near_singular_pair():
    # B[{4, 5}, {4, 5}] = [[1, c], [c, 1]] has det 5e-15 <= 1e-14 B_44 B_55,
    # a block the pivot rule refuses, and about 30 % of the proposals.  Row
    # 0 stores (0, 1) and (0, 4), so B_ij is read both on stored entries and
    # between them
    c = np.sqrt(1.0 - 5e-15)
    b = np.diag([0.25, 0.25, 0.25, 0.25, 1.0, 1.0])
    b[4, 5] = b[5, 4] = c
    b[0, 1] = b[1, 0] = 0.1
    b[0, 4] = b[4, 0] = 1e-8
    return b


def test_sparse2_draws_again_a_pair_the_pivot_rule_refuses():
    b = _near_singular_pair()
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(b))
    pairs, ok = sampler._propose(RngStream(5), 1000)
    # the acceptance test refuses exactly the near-singular pair among the
    # proposals where it is sure, and keeps only regular blocks
    singular = (pairs == (4, 5)).all(axis=1)
    assert 230 <= singular.sum() <= 370 and not ok[singular].any()
    assert ok[(pairs == (0, 4)).all(axis=1) | (pairs[:, 0] > 0) & ~singular].all()
    assert (principal_minors(b, 2, pairs[ok]) > 0.0).all()

    # the stream is the accepted proposals of successive sub-batches, in
    # order, handed out 256 at a time
    rng = RngStream(7)
    accepted = [pairs[ok] for pairs, ok in (sampler._propose(rng, 256) for _ in range(3))]
    draws = sampler.sample_many(RngStream(7), 500)
    assert np.array_equal(draws, np.concatenate(accepted)[:500])
    assert len(accepted[0]) < 256 and sampler.draws(RngStream(7), 4).peek(1000).shape == (256, 2)
    assert not (draws == (4, 5)).all(axis=1).any()
    assert (principal_minors(b, 2, draws) > 0.0).all()

    # rcdvs:2 runs on that B: its step raises SingularSubmatrix on the pair
    from volcd.objectives import QuadraticObjective
    from volcd.solvers import SolverConfig, run

    csr = CsrSymmetricUpper.from_dense(b)
    assert isinstance(make_sampler(csr, 2), SparseTwoSampler)
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=500, record_subsets=True)
    rep = run(QuadraticObjective(csr, np.ones(6)), csr, cfg)
    assert rep.iterations == 500 and rep.status == "budget"
    assert not (np.array(rep.subsets) == (4, 5)).all(axis=1).any()


def test_sparse2_gives_up_when_every_pair_is_refused():
    c = np.sqrt(1.0 - 5e-15)
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(np.array([[1.0, c], [c, 1.0]])))
    with pytest.raises(EmptySupport, match="none of 10240 drawn order-2 blocks"):
        sampler.sample_many(RngStream(0), 256)


def test_sparse2_requires_rank_two():
    with pytest.raises(EmptySupport):
        SparseTwoSampler(CsrSymmetricUpper.from_dense(np.diag([1.0, 0.0])))


def test_sparse_two_sampler_refuses_a_dense_array():
    with pytest.raises(TypeError, match="CsrSymmetricUpper"):
        SparseTwoSampler(np.eye(3))


def test_sparse_two_sampler_single_draw():
    sampler = SparseTwoSampler(CsrSymmetricUpper.from_dense(TRIDIAG))
    s = sampler.sample_many(RngStream(1), 1)[0]
    assert s[0] < s[1]
    assert np.array_equal(s, sampler.sample_many(RngStream(1), 300)[0])


def _badly_scaled_rows():
    # rows 0 and 1 nearly parallel, rows 2-5 at 1e-15: the pair masses of
    # rows 2-5 are the small difference of large suffix sums, the case on
    # which a search over cumulative pair masses drew at TV 0.053.  Its
    # acceptance, 1.5e-14, is far below the floor
    b = np.diag([1.0, 1.0, 2e-15, 1e-15, 1e-15, 1e-15])
    b[0, 1] = b[1, 0] = np.sqrt(1.0 - 5e-15)
    b[0, 2] = b[2, 0] = 1e-8
    b[3, 4] = b[4, 3] = 5e-16
    return CsrSymmetricUpper.from_dense(b)


def test_make_sampler_draws_exactly_on_badly_scaled_rows():
    b = _badly_scaled_rows()
    sampler = make_sampler(b, 2)
    draws = 200_000
    counts = subset_counts(sampler.sample_many(RngStream(1), draws), b.n)
    assert tv_distance(counts, exact_probabilities(b, 2), draws) <= 0.02
    assert isinstance(sampler, VolumeSampler)
    assert SparseTwoSampler(b).acceptance < sampling._MIN_ACCEPTANCE


def test_sparse2_draws_a_subnormal_scale_diagonal():
    # B 4^-j has diagonal (0.25, 2.5e-311, 2.5e-311, 2.5e-311): its pair
    # masses are subnormal, and {0, 1}, {0, 2} and {0, 3} hold all of them
    b = CsrSymmetricUpper.from_dense(np.diag([1.0, 1e-310, 1e-310, 1e-310]))
    draws = 30_000
    counts = subset_counts(SparseTwoSampler(b).sample_many(RngStream(2), draws), b.n)
    assert set(counts) == {(0, 1), (0, 2), (0, 3)}
    assert tv_distance(counts, exact_probabilities(b, 2), draws) <= 0.02
    assert make_sampler(b, 2).acceptance == 1.0


def _sparse_psd_with_empty_rows(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.15)
    g[:, rng.random(n) < 0.25] = 0.0  # empty rows and columns of B
    return CsrSymmetricUpper.from_dense(g.T @ g)


def _sparse_huber_curvature():
    spec = ProblemSpec(kind="huber", n=200, m=500, sparsity=10, seed=5)
    return generate(spec)[0].curvature_matrix()


PAIR_SEARCH_MATRICES = {
    "tridiag": lambda: CsrSymmetricUpper.from_dense(TRIDIAG),
    "eye2": lambda: CsrSymmetricUpper.from_dense(np.eye(2)),
    "zero-rows": lambda: CsrSymmetricUpper.from_dense(np.diag([0.0, 1.0, 0.0, 2.0])),
    "random-9": lambda: _sparse_psd_with_empty_rows(1, 9),
    "random-16": lambda: _sparse_psd_with_empty_rows(2, 16),
    "random-40": lambda: _sparse_psd_with_empty_rows(3, 40),
    "banded-50": lambda: banded_psd(50, 4, seed=50),
    "banded-2000": lambda: banded_psd(2000, 4, seed=2000),
    "banded-20000": lambda: banded_psd(20000, 4, seed=20000),
    "sparse-huber": _sparse_huber_curvature,
}


def _edge_uniforms(sampler, m):
    # m uniforms: for each degree, the ratios e_l(diag[:k]) / e_l(diag) that
    # end a prefix, their nextafter neighbours and the guide's bucket edges
    # k / n (at most 300 of each), then plain uniforms
    rng = np.random.default_rng(sampler.n)
    cols = []
    for l in (1, 2):
        row = sampler._esp[l]
        k = np.unique(np.linspace(1, sampler.n, min(sampler.n, 300)).astype(int))
        ratio = row[k] / row[-1]
        u = np.concatenate((ratio, np.nextafter(ratio, 0.0), np.nextafter(ratio, 1.0), k / sampler.n))
        u = u[(u > 0.0) & (u < 1.0)]
        cols.append(np.concatenate((u, rng.random(m)))[:m])
    return cols[0], cols[1], rng.random(m)


@pytest.mark.parametrize("name", list(PAIR_SEARCH_MATRICES))
def test_pair_proposals_match_a_plain_search(name):
    # the guided searches return plain searchsorted's pair for every
    # uniform, edge cases included, and the row-local lookup reads B_ij as
    # CsrSymmetricUpper.entries does: the verdict is recomputed from them
    b = PAIR_SEARCH_MATRICES[name]()
    sampler = SparseTwoSampler(b)
    u = _edge_uniforms(sampler, 1000)
    pairs, ok = sampler._propose(Uniforms(np.concatenate(u)), 1000)
    e = sampler._esp
    j = np.searchsorted(e[2], u[1] * e[2, -1]) - 1
    i = np.searchsorted(e[1], u[0] * e[1, j]) - 1
    # where u e_l underflows to 0, from u = nextafter(0, 1), the plain
    # search returns no index, and the guided one still a pair
    assert ((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < b.n)).all()
    positive = (u[1] * e[2, -1] > 0.0) & (u[0] * e[1, j] > 0.0)
    assert np.array_equal(pairs[positive], np.column_stack((i, j))[positive])
    i, j = pairs.T
    scale = sampling._scale_exponent(b.diagonal())
    d = np.ldexp(b.diagonal()[pairs.T], scale)
    piv, regular = sampling.block_pivots(d, np.ldexp(b.entries(i, j), scale)[None])
    assert np.array_equal(ok, regular & (u[2] * d[1] < piv[1]))
    # every accepted pair is a block the table's kernel calls regular
    assert (principal_minors(b, 2, pairs[ok]) > 0.0).all()


def test_subset_counts_match_dict_loop():
    rng = np.random.default_rng(12)
    for n, tau in ((6, 1), (6, 2), (9, 3), (4, 4)):
        samples = np.sort(rng.integers(0, n, (5000, tau)), axis=1)
        assert subset_counts(samples, n) == count_subsets(samples)
    assert subset_counts(np.empty((0, 2), dtype=np.int64), 5) == {}


# ---------------------------------------------------------------------------
# uniform subsets and determinism


@pytest.mark.parametrize(
    "make",
    [
        lambda b: VolumeSampler(b.to_dense(), 2),
        lambda b: VolumeSampler(b, 2),
        lambda b: VolumeSampler(b.to_dense(), 3),
        lambda b: VolumeSampler(b, 3),
        lambda b: UniformSampler(b.shape[0], 3),
    ],
    ids=["dense-2", "csr-2", "dense-3", "csr-3", "uniform-3"],
)
def test_draws_continue_sample_many_blocks_across_chunks(make):
    # the solver consumes subsets through draws(); it must be the same
    # stream as consecutive sample_many blocks of the chunk size
    sampler = make(banded_psd(9, 2, seed=4))
    chunk = 4
    stream = sampler.draws(RngStream(21), chunk)
    got = np.array([next(stream) for _ in range(2 * chunk + 3)])
    rng = RngStream(21)
    blocks = np.concatenate([sampler.sample_many(rng, chunk) for _ in range(3)])
    assert np.array_equal(got, blocks[: got.shape[0]])


def _uniform_reference(n, tau, u):
    """Scalar uniform subsets, one per row of ``u``: pick k is the
    floor(u_k (n - k))-th index not yet picked."""
    out = []
    for row in u.tolist():
        picks = []
        for k, uk in enumerate(row):
            v = int(uk * (n - k))
            for p in sorted(picks):
                v += v >= p
            picks.append(v)
        out.append(sorted(picks))
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("n, tau", [(3, 1), (3, 2), (3, 3), (6, 3), (7, 4)])
def test_uniform_sampler_is_uniform(n, tau):
    draws = 50_000
    samples = UniformSampler(n, tau).sample_many(RngStream(17), draws)
    exact = {s: 1 / math.comb(n, tau) for s in itertools.combinations(range(n), tau)}
    assert tv_distance(subset_counts(samples, n), exact, draws) <= 0.03


def test_uniform_sampler_rows_are_sorted_distinct_and_seeded():
    samples = UniformSampler(40, 5).sample_many(RngStream(21), 3000)
    assert samples.dtype == np.int64 and samples.shape == (3000, 5)
    assert (np.diff(samples, axis=1) > 0).all()
    assert samples.min() >= 0 and samples.max() < 40
    u = RngStream(21).uniforms(3000 * 5).reshape(3000, 5)
    assert np.array_equal(samples, _uniform_reference(40, 5, u))
    for tau in (0, 41):
        with pytest.raises(ValueError):
            UniformSampler(40, tau)


def test_uniform_sampler_maps_the_largest_uniform_to_the_largest_free_index():
    # floor(u m) <= m - 1 for the largest double u below 1, so no pick needs
    # a clamp
    class Top:
        def uniforms(self, k):
            return np.full(k, np.nextafter(1.0, 0.0))

    for n, tau in ((1, 1), (3, 1), (3, 3), (7, 4), (1000, 3), (5_000_000, 2)):
        got = UniformSampler(n, tau).sample_many(Top(), 4)
        assert np.array_equal(got, np.tile(np.arange(n - tau, n), (4, 1)))


def test_identical_seeds_identical_sequences():
    b = random_psd(np.random.default_rng(8), 6)
    for factory in (
        lambda: VolumeSampler(b, 2),
        lambda: SparseTwoSampler(
            CsrSymmetricUpper.from_dense(b + 6 * np.eye(6))
        ),
        lambda: UniformSampler(8, 3),
    ):
        a = factory().sample_many(RngStream(99), 500)
        bseq = factory().sample_many(RngStream(99), 500)
        assert np.array_equal(a, bseq)


def test_rng_open_interval():
    rng = RngStream(0)
    u = rng.uniforms(100_000)
    assert (u > 0).all() and (u < 1).all()


# ---------------------------------------------------------------------------
# inclusion frequencies against closed-form marginals, at desk scale
#
# exact_probabilities enumerates (n <= 20) and carries the sampler's own
# clamp.  These cells compare each coordinate's inclusion frequency with its
# exact marginal, in which no clamp enters, at the sizes the samplers run.
# Per coordinate z_i = (count_i - N p_i) / sqrt(N p_i (1 - p_i)); a cell
# bounds max |z| and mean z^2.  The bands were set from sampler seeds
# 100-119 (max |z| 2.7-4.3 and mean z^2 0.85-1.14 for the spectral cells at
# n = 400, 2.7-3.9 and 0.89-1.22 uniform, 1.8-3.6 and 0.59-1.36 at n = 60,
# 3.7-5.2 and 0.97-1.03 for the pairs at n = 10,000); the cells draw with
# seed 1.

# 6400, 3200, ..., 50, then ones: the spectrum of ROADMAP item 1's k-spike
_SPIKES = 6400.0 / 2.0 ** np.arange(8)


@functools.cache
def _k_spike(n):
    """diag(_SPIKES, 1, ..., 1) of size n, conjugated by ten random
    Householder reflections as gen_quadratic conjugates its spectrum."""
    rng = RngStream(0)
    a = np.diag(np.concatenate((_SPIKES, np.ones(n - _SPIKES.size))))
    for _ in range(10):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        w = a @ u
        a -= 2.0 * np.outer(u, w) + 2.0 * np.outer(w, u) - 4.0 * float(u @ w) * np.outer(u, u)
    return 0.5 * (a + a.T)


def _volume_marginals(b, tau):
    """P(i in S) under volume sampling of size tau on B = V diag(lam) V':
    sum_k V_ik^2 lam_k e_{tau-1}(lam without lam_k) / e_tau(lam) (Kulesza &
    Taskar 2012, section 5.2)."""
    lam, v = np.linalg.eigh(b)
    lam = np.maximum(lam, 0.0)
    rest = [_esp_all_degrees(np.delete(lam, k), tau - 1)[-1] for k in range(lam.size)]
    return (v * v) @ (lam * rest) / _esp_all_degrees(lam, tau)[-1]


def _pair_marginals(b):
    """P(i in S) for 2-subsets of CSR B: (B_ii (tr B - B_ii) - sum_{j != i}
    B_ij^2) / e_2, where e_2, the sum of all 2x2 principal minors, is half
    the numerators' sum."""
    d = b.diagonal()
    rows = np.repeat(np.arange(b.n), np.diff(b.indptr))
    off = rows != b.indices
    sq = b.values[off] ** 2
    mass = d * (d.sum() - d) - np.bincount(rows[off], sq, b.n) - np.bincount(b.indices[off], sq, b.n)
    return mass / (0.5 * mass.sum())


def _assert_marginals(draws, p, max_z, mean_z2):
    count = np.bincount(draws.ravel(), minlength=p.size)
    z = (count - len(draws) * p) / np.sqrt(len(draws) * p * (1.0 - p))
    assert np.abs(z).max() <= max_z
    assert mean_z2[0] <= (z * z).mean() <= mean_z2[1]


@pytest.mark.parametrize("tau, draws", [
    (3, 30_000),
    (4, 20_000),
    (8, 2_000),
])
def test_spectral_inclusion_frequencies_match_the_marginals(tau, draws):
    b = _k_spike(400)
    got = SpectralVolumeSampler(b, tau).sample_many(RngStream(1), draws)
    _assert_marginals(got, _volume_marginals(b, tau), 5.0, (0.65, 1.35))


def test_inclusion_frequencies_at_tau_30_match_the_marginals():
    # at n = 60 most tau = 30 blocks have a minor under 1e-14 times their
    # diagonal product, though every pivot is at least 0.045 of its
    # diagonal entry: the pivot rule keeps them, and the draws keep the
    # volume-sampling marginals
    obj, _, _ = generate(ProblemSpec(kind="quadratic", n=60, lam1=400.0, lam2=100.0, seed=0))
    b = obj.curvature_matrix()
    got = SpectralVolumeSampler(b, 30).sample_many(RngStream(1), 1000)
    _assert_marginals(got, _volume_marginals(b, 30), 5.0, (0.65, 1.35))


def test_inclusion_frequencies_past_the_spectral_handover_match_the_marginals():
    b = _k_spike(60)
    sampler = make_sampler(b, 3)
    assert isinstance(sampler, SpectralVolumeSampler) and sampler.handover == 268
    got = sampler.sample_many(RngStream(1), 100_000)
    _assert_marginals(got, _volume_marginals(b, 3), 5.0, (0.1, 1.9))


def test_pair_inclusion_frequencies_match_the_marginals():
    b = banded_psd(10_000, 9)
    got = SparseTwoSampler(b).sample_many(RngStream(1), 200_000)
    _assert_marginals(got, _pair_marginals(b), 6.0, (0.93, 1.07))


def test_uniform_inclusion_frequencies_are_tau_over_n():
    got = UniformSampler(400, 3).sample_many(RngStream(1), 100_000)
    _assert_marginals(got, np.full(400, 3 / 400), 5.0, (0.65, 1.35))
