import numpy as np
import pytest

from volcd.errors import CombinatorialBlowup, DegenerateApprox, UnboundedLevelSet
from volcd.linalg import adjugate, eigendecompose
from volcd.spectral import (
    acceleration_ratio,
    b_tau,
    d_tau_quadratic,
    elementary_symmetric,
    expected_step_matrix,
    modulus_quadratic,
    sum_adjugates,
    sum_principal_minors,
)

TRIDIAG = np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]])


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def random_psd(rng, n, rank=None):
    g = rng.standard_normal((rank or n, n))
    return g.T @ g


def min_eig(m):
    return float(np.linalg.eigvalsh(m).min())


# ---------------------------------------------------------------------------
# elementary symmetric polynomials


def test_esp_degree_zero_is_one():
    assert elementary_symmetric([5.0, 7.0], 0) == 1.0
    assert elementary_symmetric([], 0) == 1.0


def test_esp_small_cases():
    assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
    assert elementary_symmetric([1.0, 2.0, 3.0], 3) == pytest.approx(6.0)


def test_esp_top_degree_is_product():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 3.0, size=7)
    assert elementary_symmetric(x, 7) == pytest.approx(float(np.prod(x)))


def test_esp_above_dimension_is_zero():
    assert elementary_symmetric([1.0, 2.0], 3) == 0.0


def _esp_scalar_loop(x, m):
    # the degree-by-degree loop the prefix table replaced
    e = np.zeros(m + 1)
    e[0] = 1.0
    for k, xi in enumerate(x):
        top = min(k + 1, m)
        e[1 : top + 1] += xi * e[0:top]
    return e


def test_esp_prefix_table_bitwise_equals_scalar_loop():
    from volcd.spectral import _esp_all_degrees

    rng = np.random.default_rng(2)
    for trial in range(2000):
        x = rng.random(int(rng.integers(0, 30))) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(x.size) < 0.3 * (trial % 2)] = 0.0
        m = int(rng.integers(0, 35))
        assert _esp_all_degrees(x, m).tobytes() == _esp_scalar_loop(x, m).tobytes()


def test_esp_matches_definitional_sum():
    import itertools

    rng = np.random.default_rng(1)
    x = rng.standard_normal(8)
    for m in range(1, 9):
        direct = sum(
            np.prod([x[i] for i in c]) for c in itertools.combinations(range(8), m)
        )
        assert elementary_symmetric(x, m) == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# minor-sum identity


def test_sum_principal_minors_examples():
    assert sum_principal_minors(np.diag([1.0, 2, 3]), 2) == pytest.approx(11.0)
    assert sum_principal_minors(TRIDIAG, 2) == pytest.approx(10.0)
    assert sum_principal_minors(TRIDIAG, 3) == pytest.approx(np.linalg.det(TRIDIAG))


def test_minor_sum_equals_esp_of_eigenvalues():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        b = random_symmetric(rng, n)
        lam = np.linalg.eigvalsh(b)
        for tau in range(1, n + 1):
            lhs = sum_principal_minors(b, tau)
            rhs = elementary_symmetric(lam, tau)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# adjugate-sum identity


def test_sum_adjugates_examples():
    got = sum_adjugates(np.diag([1.0, 2, 3]), 2)
    assert np.allclose(got, np.diag([5.0, 4.0, 3.0]))
    assert np.allclose(sum_adjugates(np.diag([1.0, 2, 3]), 1), np.eye(3))
    b = random_symmetric(np.random.default_rng(3), 4)
    assert np.allclose(sum_adjugates(b, 4), adjugate(b), atol=1e-8)


def test_sum_adjugates_both_paths_agree():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        b = random_symmetric(rng, n)
        for tau in range(1, n + 1):
            spectral = sum_adjugates(b, tau, method="spectral")
            brute = sum_adjugates(b, tau, method="enumerate")
            scale = max(1.0, np.linalg.norm(brute))
            assert np.linalg.norm(spectral - brute) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# subset-size surrogate


def test_b_tau_hand_example():
    spec = eigendecompose(np.diag([4.0, 2.0, 1.0, 1.0]))
    approx = b_tau(spec, 2)
    assert np.allclose(np.sort(approx.eigenvalues)[::-1], [6.0, 4.0, 4.0, 4.0])
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(approx.matrix()))[::-1], [6.0, 4.0, 4.0, 4.0]
    )


def test_b_tau_one_is_trace_times_identity():
    rng = np.random.default_rng(5)
    b = random_psd(rng, 5)
    approx = b_tau(eigendecompose(b), 1)
    assert np.allclose(approx.matrix(), np.trace(b) * np.eye(5), atol=1e-8)


def test_b_tau_full_rank_is_b_itself():
    rng = np.random.default_rng(6)
    b = random_psd(rng, 5)
    approx = b_tau(eigendecompose(b), 5)
    assert np.allclose(approx.matrix(), b, atol=1e-8)


def test_b_tau_rejects_rank_overflow():
    b = np.outer([1.0, 1.0, 0.5], [1.0, 1.0, 0.5])
    with pytest.raises(DegenerateApprox):
        b_tau(eigendecompose(b), 2)


def test_b_tau_independent_of_eigenbasis_choice():
    rng = np.random.default_rng(7)
    for _ in range(5):
        b = random_psd(rng, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        conj = q @ b @ q.T
        left = q @ b_tau(eigendecompose(b), 2).matrix() @ q.T
        right = b_tau(eigendecompose(conj), 2).matrix()
        assert np.linalg.norm(left - right) <= 1e-8 * np.linalg.norm(right)


def test_sandwich_between_subset_sizes():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        rank = int(rng.integers(2, n + 1))
        b = random_psd(rng, n, rank=rank)
        spec = eigendecompose(b)
        lam = spec.eigenvalues
        for t1 in range(1, rank + 1):
            for t2 in range(t1, rank + 1):
                b1 = b_tau(spec, t1).matrix()
                b2 = b_tau(spec, t2).matrix()
                r = acceleration_ratio(lam, t1, t2)
                scale = np.linalg.norm(b1, 2)
                assert min_eig(b1 - b2) >= -1e-10 * scale
                assert min_eig(r * b2 - b1) >= -1e-10 * scale


# ---------------------------------------------------------------------------
# acceleration ratios


def test_acceleration_ratio_examples():
    lam = [4.0, 2.0, 1.0, 1.0]
    assert acceleration_ratio(lam, 1, 2) == pytest.approx(2.0)
    assert acceleration_ratio(lam, 2, 2) == pytest.approx(1.0)
    lam_big = np.concatenate(([400.0, 100.0], np.ones(398)))
    assert acceleration_ratio(lam_big, 1, 2) == pytest.approx(898 / 498)


def test_acceleration_ratio_monotone_and_multiplicative():
    rng = np.random.default_rng(9)
    lam = np.sort(rng.uniform(0.1, 10.0, size=8))[::-1]
    for t1 in range(1, 9):
        for t2 in range(t1, 9):
            assert acceleration_ratio(lam, t1, t2) >= 1.0
            for t3 in range(t2, 9):
                prod = acceleration_ratio(lam, t1, t2) * acceleration_ratio(
                    lam, t2, t3
                )
                assert acceleration_ratio(lam, t1, t3) == pytest.approx(prod)


def test_acceleration_ratio_zero_tail_rejected():
    with pytest.raises(DegenerateApprox):
        acceleration_ratio([1.0, 0.0], 1, 2)


# ---------------------------------------------------------------------------
# expected step matrix


def test_expected_step_tau_one_equality():
    b = np.diag([1.0, 2.0, 3.0])
    got = expected_step_matrix(b, 1)
    assert np.allclose(got, np.eye(3) / 6.0)
    inv_b1 = b_tau(eigendecompose(b), 1).inverse()
    assert np.allclose(got, inv_b1, atol=1e-10)


def test_expected_step_full_subset_is_inverse():
    rng = np.random.default_rng(10)
    b = random_psd(rng, 4) + np.eye(4)
    assert np.allclose(expected_step_matrix(b, 4), np.linalg.inv(b), atol=1e-8)


def test_expected_step_matches_monte_carlo():
    from volcd.rng import RngStream
    from volcd.sampling import VolumeSampler

    rng = np.random.default_rng(20)
    b = random_psd(rng, 5) + 0.5 * np.eye(5)
    tau = 2
    expected = expected_step_matrix(b, tau)
    sampler = VolumeSampler(b, tau)
    draws = sampler.sample_many(RngStream(21), 40_000)
    acc = np.zeros((5, 5))
    for s in draws:
        acc[np.ix_(s, s)] += np.linalg.inv(b[np.ix_(s, s)])
    acc /= draws.shape[0]
    assert np.linalg.norm(acc - expected) <= 0.05 * np.linalg.norm(expected)


def test_expected_step_spectral_identity_full_support():
    # with every minor positive, the expectation equals the eigenbasis
    # formula: diagonal of reduced-degree symmetric polynomials over the
    # degree-tau one
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        b = random_psd(rng, n) + 0.1 * np.eye(n)
        spec = eigendecompose(b)
        lam = spec.eigenvalues
        for tau in range(1, n + 1):
            direct = expected_step_matrix(b, tau)
            d = np.array(
                [
                    elementary_symmetric(np.delete(lam, i), tau - 1)
                    for i in range(n)
                ]
            )
            via_spectrum = (spec.q * d) @ spec.q.T / elementary_symmetric(lam, tau)
            assert np.linalg.norm(direct - via_spectrum) <= 1e-8 * max(
                1.0, np.linalg.norm(direct)
            )


def test_d_tau_against_level_set_search():
    # brute-force oracle: the squared surrogate-norm radius of the sublevel
    # set is the max of ||y||^2_Btau over y'Ay/2 <= gap; check sampled points
    # never exceed the closed form and the maximizing eigendirection attains it
    rng = np.random.default_rng(23)
    lam = np.sort(rng.uniform(0.2, 5.0, size=6))[::-1]
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag(lam) @ q.T
    spec = eigendecompose(a)
    gap = 1.7
    for tau in (1, 2, 4):
        approx = b_tau(spec, tau)
        d2 = d_tau_quadratic(spec, approx, gap)
        bt = approx.matrix()
        best_seen = 0.0
        for _ in range(3000):
            y = rng.standard_normal(6)
            y *= np.sqrt(2 * gap / (y @ (a @ y)))  # boundary of the level set
            val = float(y @ (bt @ y))
            best_seen = max(best_seen, val)
            assert val <= d2 * (1 + 1e-10)
        i_star = int(np.argmax(approx.eigenvalues / spec.eigenvalues))
        y = spec.q[:, i_star] * np.sqrt(2 * gap / lam[i_star])
        attained = float(y @ (bt @ y))
        assert attained == pytest.approx(d2, rel=1e-10)
        assert best_seen <= attained * (1 + 1e-12)


def test_expected_step_dominates_surrogate_inverse():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 8))
        rank = n if trial % 2 == 0 else int(rng.integers(2, n))
        b = random_psd(rng, n, rank=rank)
        spec = eigendecompose(b)
        for tau in range(1, rank + 1):
            diff = expected_step_matrix(b, tau) - b_tau(spec, tau).inverse()
            assert min_eig(diff) >= -1e-10 * np.linalg.norm(diff + np.eye(n), 2)


# ---------------------------------------------------------------------------
# strong convexity modulus and level-set radius


def test_modulus_hand_example():
    spec = eigendecompose(np.diag([4.0, 2.0, 1.0, 1.0]))
    assert modulus_quadratic(spec, 2) == pytest.approx(0.25)


def test_modulus_tau_one_is_min_over_trace():
    rng = np.random.default_rng(12)
    b = random_psd(rng, 6) + np.eye(6)
    spec = eigendecompose(b)
    lam = spec.eigenvalues
    assert modulus_quadratic(spec, 1) == pytest.approx(lam[-1] / lam.sum())


def test_modulus_full_subset_is_one():
    rng = np.random.default_rng(13)
    b = random_psd(rng, 5) + np.eye(5)
    assert modulus_quadratic(eigendecompose(b), 5) == pytest.approx(1.0)


def test_modulus_chain_inequalities():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(0.05, 5.0, size=n))[::-1]
        spec = eigendecompose(np.diag(lam))
        for t1 in range(1, n + 1):
            m1 = modulus_quadratic(spec, t1)
            for t2 in range(t1, n + 1):
                m2 = modulus_quadratic(spec, t2)
                r = acceleration_ratio(lam, t1, t2)
                assert m1 <= m2 * (1 + 1e-12)
                assert m2 <= r * m1 * (1 + 1e-12)


def test_modulus_requires_nonsingular():
    b = np.diag([1.0, 0.0])
    with pytest.raises(DegenerateApprox):
        modulus_quadratic(eigendecompose(b), 1)


def test_d_tau_matched_norm_sphere():
    spec = eigendecompose(np.diag([2.0, 2.0]))
    approx = b_tau(spec, 2)
    assert d_tau_quadratic(spec, approx, 1.0) == pytest.approx(2.0)


def test_d_tau_ratio_formula():
    spec = eigendecompose(np.diag([4.0, 2.0, 1.0, 1.0]))
    approx = b_tau(spec, 2)
    # surrogate spectrum (6, 4, 4, 4) against (4, 2, 1, 1): worst ratio 4
    assert d_tau_quadratic(spec, approx, 1.0) == pytest.approx(8.0)


def test_d_tau_zero_gap():
    spec = eigendecompose(np.diag([4.0, 2.0, 1.0, 1.0]))
    assert d_tau_quadratic(spec, b_tau(spec, 2), 0.0) == 0.0


def test_d_tau_no_curvature_is_unbounded():
    spec = eigendecompose(np.zeros((2, 2)))
    fake = b_tau(eigendecompose(np.eye(2)), 1)
    with pytest.raises(UnboundedLevelSet):
        d_tau_quadratic(spec, fake, 1.0)


# ---------------------------------------------------------------------------
# range and cap checks

_SPEC4 = eigendecompose(np.diag([4.0, 2.0, 1.0, 1.0]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: elementary_symmetric([1.0, 2.0], -1), ValueError, "degree must be nonnegative"),
    (lambda: sum_principal_minors(TRIDIAG, 0), ValueError, "out of range"),
    (lambda: sum_principal_minors(TRIDIAG, 4), ValueError, "out of range"),
    (lambda: sum_principal_minors(np.eye(21), 2), CombinatorialBlowup, "capped at n = 20"),
    (lambda: sum_adjugates(TRIDIAG, 0, method="enumerate"), ValueError, "out of range"),
    (lambda: sum_adjugates(TRIDIAG, 4, method="enumerate"), ValueError, "out of range"),
    (lambda: sum_adjugates(np.eye(40), 5, method="enumerate"), CombinatorialBlowup,
     "brute-force cap"),
    (lambda: sum_adjugates(TRIDIAG, 2, method="other"), ValueError, "unknown method"),
    (lambda: b_tau(_SPEC4, 0), ValueError, "out of range"),
    (lambda: b_tau(_SPEC4, 5), ValueError, "out of range"),
    (lambda: acceleration_ratio([4.0, 2.0, 1.0], 0, 2), ValueError, "1 <= tau1 <= tau2"),
    (lambda: acceleration_ratio([4.0, 2.0, 1.0], 2, 1), ValueError, "1 <= tau1 <= tau2"),
    (lambda: acceleration_ratio([4.0, 2.0, 1.0], 1, 4), ValueError, "1 <= tau1 <= tau2"),
    (lambda: expected_step_matrix(TRIDIAG, 0), ValueError, "out of range"),
    (lambda: expected_step_matrix(TRIDIAG, 4), ValueError, "out of range"),
    (lambda: expected_step_matrix(np.eye(40), 5), CombinatorialBlowup, "brute-force cap"),
    (lambda: d_tau_quadratic(_SPEC4, b_tau(_SPEC4, 2), -1.0), ValueError,
     "initial gap must be nonnegative"),
    (lambda: d_tau_quadratic(_SPEC4, b_tau(_SPEC4, 2), np.inf), UnboundedLevelSet,
     "not finite"),
    (lambda: d_tau_quadratic(_SPEC4, b_tau(_SPEC4, 2), np.nan), UnboundedLevelSet,
     "not finite"),
])
def test_range_and_cap_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
