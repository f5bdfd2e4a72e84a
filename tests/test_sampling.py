import itertools
import math

import numpy as np
import pytest

from volcd.errors import CombinatorialBlowup, EmptySupport
from volcd.linalg import CsrSymmetricUpper, psd_det
from volcd.rng import RngStream
from volcd.sampling import (
    CumulativeTable,
    SparseTwoSampler,
    VolumeSampler,
    all_subsets,
    build_cumulative,
    exact_probabilities,
    principal_minors,
    sparse2_preprocess,
    tau_nice_sample,
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


# ---------------------------------------------------------------------------
# cumulative tables


def test_build_cumulative_normalizes():
    assert np.allclose(build_cumulative([2, 3, 5]).cumulative, [0.2, 0.5, 1.0])


def test_build_cumulative_zero_weights_kept():
    assert np.allclose(build_cumulative([0, 1, 0]).cumulative, [0.0, 1.0, 1.0])


def test_build_cumulative_uniform():
    n = 7
    assert np.allclose(
        build_cumulative(np.ones(n)).cumulative, np.arange(1, n + 1) / n
    )


def test_build_cumulative_empty_support():
    with pytest.raises(EmptySupport):
        build_cumulative([0.0, 0.0])


def test_cumulative_table_validation():
    assert CumulativeTable([0.2, 0.2, 1.0]).sample(0.2) == 0  # ties are allowed
    with pytest.raises(ValueError):
        CumulativeTable([0.5, 0.4, 1.0])
    with pytest.raises(ValueError):
        CumulativeTable([0.5, 0.9])


def test_cumulative_sample_min_rule():
    table = build_cumulative([2, 3, 5])
    assert table.sample(0.25) == 1
    # boundary: u equal to a stored cumulative goes to the smaller index
    assert table.sample(0.2) == 0
    zero_first = build_cumulative([0, 1, 0])
    for u in (0.01, 0.5, 0.999):
        assert zero_first.sample(u) == 1


def test_cumulative_sample_matches_linear_scan():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.uniform(0, 1, size=rng.integers(1, 12))
        w[rng.random(w.size) < 0.3] = 0.0
        if w.sum() == 0:
            continue
        table = build_cumulative(w)
        u = float(rng.uniform(1e-9, 1.0))
        linear = min(k for k in range(w.size) if u <= table.cumulative[k])
        assert table.sample(u) == linear


# ---------------------------------------------------------------------------
# general determinantal sampler


def test_tau_one_is_diagonal_proportional():
    sampler = VolumeSampler(np.diag([1.0, 2.0, 3.0]), 1)
    assert np.allclose(sampler.probabilities(), [1 / 6, 2 / 6, 3 / 6])


def test_tau_one_same_on_sparse_and_dense_storage():
    b = random_psd(np.random.default_rng(5), 9)
    b[np.abs(b) < 1.0] = 0.0
    np.fill_diagonal(b, np.abs(np.diag(b)) + 0.5)
    b[4, :] = b[:, 4] = 0.0  # a zero row carries no mass
    csr = CsrSymmetricUpper.from_dense(b)
    sparse, dense = VolumeSampler(csr, 1), VolumeSampler(csr.to_dense(), 1)
    assert np.array_equal(sparse.probabilities(), dense.probabilities())
    assert sparse.probabilities()[4] == 0.0
    assert np.array_equal(
        sparse.sample_many(RngStream(3), 1000), dense.sample_many(RngStream(3), 1000)
    )


def test_tau_one_empty_sparse_matrix_has_no_support():
    with pytest.raises(EmptySupport):
        VolumeSampler(CsrSymmetricUpper.from_rows(4, []), 1)


def test_tau_two_diagonal_minors():
    sampler = VolumeSampler(np.diag([1.0, 2.0, 3.0]), 2)
    assert np.allclose(sampler.probabilities(), [2 / 11, 3 / 11, 6 / 11])


def test_tau_two_tridiagonal():
    sampler = VolumeSampler(TRIDIAG, 2)
    assert np.allclose(sampler.probabilities(), [0.3, 0.4, 0.3])


def test_sampler_table_walk_explicit_uniforms():
    sampler = VolumeSampler(np.diag([1.0, 2.0, 3.0]), 2)
    # cumulative masses (2, 5, 11)/11 over {0,1}, {0,2}, {1,2}
    assert tuple(sampler.subsets[sampler.table.sample(0.1)]) == (0, 1)
    assert tuple(sampler.subsets[sampler.table.sample(0.99)]) == (1, 2)


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
        got = principal_minors(indefinite, 3, clamp=False)
        ref = _per_subset_det(indefinite, 3)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    psd = random_psd(rng, 9)
    psd[2, :] = psd[:, 2] = 0.0
    ref = _per_subset_det(psd, 3)
    raw = principal_minors(psd, 3, clamp=False)
    assert np.abs(raw - ref).max() <= 1e-12 * np.abs(ref).max()
    clamped = principal_minors(psd, 3)
    touches_zero_row = (all_subsets(9, 3) == 2).any(axis=1)
    assert (clamped[touches_zero_row] == 0.0).all()
    assert (clamped[~touches_zero_row] > 0.0).all()


def test_low_order_minors_are_the_closed_forms():
    b = random_psd(np.random.default_rng(9), 8)
    assert np.array_equal(principal_minors(b, 1, clamp=False), np.diag(b))
    pairs = np.array(list(itertools.combinations(range(8), 2)))
    i, j = pairs[:, 0], pairs[:, 1]
    expected = b[i, i] * b[j, j] - b[i, j] ** 2
    assert np.array_equal(principal_minors(b, 2, clamp=False), expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tau_three_draws_match_per_subset_determinant_table(seed):
    b = random_psd(np.random.default_rng(10 + seed), 30)
    subsets = all_subsets(30, 3)
    table = build_cumulative(_per_subset_det(b, 3))
    expected = subsets[table.sample_many(RngStream(seed).uniforms(20_000))]
    got = VolumeSampler(b, 3).sample_many(RngStream(seed), 20_000)
    assert np.array_equal(got, expected)


def test_exact_probabilities_match_sampler_table():
    rng = np.random.default_rng(1)
    b = random_psd(rng, 5)
    for tau in (1, 2, 3):
        sampler = VolumeSampler(b, tau)
        exact = exact_probabilities(b, tau)
        for s, p in zip(sampler.subsets, sampler.probabilities()):
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
                     sampler.probabilities()))
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
                assert psd_det(b[np.ix_(s, s)], clamp_scale=np.diag(b).max()) > 0


# ---------------------------------------------------------------------------
# sparse pair sampler


def test_sparse2_preprocess_hand_values():
    sampler = sparse2_preprocess(CsrSymmetricUpper.from_dense(TRIDIAG))
    assert np.allclose(sampler.hcum, [4.0, 5.0, 4.0, 5.0, 4.0])
    assert np.allclose(sampler.t, [6.0, 4.0, 2.0, 0.0])
    assert np.allclose(sampler.q, [7.0, 10.0])


def test_sparse2_preprocess_identity_two():
    sampler = sparse2_preprocess(CsrSymmetricUpper.from_dense(np.eye(2)))
    assert np.allclose(sampler.hcum[:1], [1.0])
    assert np.allclose(sampler.t, [2.0, 1.0, 0.0])
    assert np.allclose(sampler.q, [1.0])


def test_sparse2_zero_row_contributes_nothing():
    b = np.diag([1.0, 0.0, 2.0])
    sampler = sparse2_preprocess(CsrSymmetricUpper.from_dense(b))
    # masses: row 0 pairs with {1,2}: 1*0 + 1*2 = 2; row 1: zero
    assert np.allclose(sampler.q, [2.0, 2.0])
    draws = sampler.sample_many(RngStream(11), 3000)
    assert set(count_subsets(draws)) == {(0, 2)}


def test_sparse2_sample_trace():
    sampler = sparse2_preprocess(CsrSymmetricUpper.from_dense(TRIDIAG))
    # row search: q1/q2 = 0.7 >= 0.65 picks the first row; the gap search
    # then lands past the stored neighbor, on column 2
    assert sampler._sample_one(0.65, 0.5) == (0, 2)
    for u2 in (0.1, 0.5, 0.9):
        assert sampler._sample_one(0.75, u2) == (1, 2)


def test_sparse2_statistical_matches_exact():
    sampler = sparse2_preprocess(CsrSymmetricUpper.from_dense(TRIDIAG))
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
            count_subsets(sparse2_preprocess(csr).sample_many(RngStream(trial), draws)),
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
    rng = np.random.default_rng(7)
    for _ in range(10):
        b = random_psd(rng, 7)
        b[np.abs(b) < 0.3] = 0.0
        np.fill_diagonal(b, np.abs(np.diag(b)) + 1.0)
        csr = CsrSymmetricUpper.from_dense(b)
        sampler = sparse2_preprocess(csr)
        total = principal_minors(b, 2, clamp=False).sum()
        assert sampler.total_pair_mass() == pytest.approx(total, rel=1e-8)
        lam = np.linalg.eigvalsh(b)
        sigma2 = sum(
            lam[i] * lam[j] for i in range(7) for j in range(i + 1, 7)
        )
        assert sampler.total_pair_mass() == pytest.approx(sigma2, rel=1e-8)


def test_sparse2_requires_rank_two():
    with pytest.raises(EmptySupport):
        sparse2_preprocess(CsrSymmetricUpper.from_dense(np.diag([1.0, 0.0])))


def test_sparse_two_sampler_single_draw():
    sampler = sparse2_preprocess(CsrSymmetricUpper.from_dense(TRIDIAG))
    s = sampler.sample(RngStream(1))
    assert s[0] < s[1]


# ---------------------------------------------------------------------------
# uniform subsets and determinism


def test_tau_nice_extremes():
    rng = RngStream(0)
    assert tuple(tau_nice_sample(3, 3, rng)) == (0, 1, 2)
    singles = {tuple(tau_nice_sample(3, 1, rng)) for _ in range(200)}
    assert singles == {(0,), (1,), (2,)}


def test_tau_nice_uniform_statistical():
    draws = 20_000
    rng = RngStream(17)
    counts = count_subsets([tau_nice_sample(3, 2, rng) for _ in range(draws)])
    exact = {s: 1 / 3 for s in [(0, 1), (0, 2), (1, 2)]}
    assert tv_distance(counts, exact, draws) <= 0.03


def test_identical_seeds_identical_sequences():
    b = random_psd(np.random.default_rng(8), 6)
    for factory in (
        lambda: VolumeSampler(b, 2),
        lambda: sparse2_preprocess(
            CsrSymmetricUpper.from_dense(b + 6 * np.eye(6))
        ),
    ):
        a = factory().sample_many(RngStream(99), 500)
        bseq = factory().sample_many(RngStream(99), 500)
        assert np.array_equal(a, bseq)
    u1 = [tuple(tau_nice_sample(8, 3, RngStream(21))) for _ in range(1)]
    u2 = [tuple(tau_nice_sample(8, 3, RngStream(21))) for _ in range(1)]
    assert u1 == u2


def test_rng_open_interval():
    rng = RngStream(0)
    u = rng.uniforms(100_000)
    assert (u > 0).all() and (u < 1).all()
