import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from volcd import objectives, sampling, solvers
from volcd.errors import ConfigError, SingularSubmatrix
from volcd.linalg import CsrSymmetricUpper, eigendecompose, pseudo_solve
from volcd.objectives import (
    HuberLoss,
    LogisticLoss,
    QuadraticObjective,
    RegularizedObjective,
    SeparableObjective,
    SquareLoss,
    _make_step_solver,
)
from volcd.rng import RngStream
from volcd.problems import ProblemSpec, banded_psd, gen_huber, gen_quadratic, load_libsvm
from volcd.sampling import (
    Draws,
    SparseTwoSampler,
    SpectralVolumeSampler,
    UniformSampler,
    VolumeSampler,
    exact_probabilities,
    make_sampler,
    principal_minors,
)
from volcd.solvers import SolverConfig, run
from volcd.spectral import b_tau

from oracles import copied_row, pair_draw, principal_submatrix, raw_minors


def spd_quadratic(rng, n, shift=1.0):
    g = rng.standard_normal((n, n))
    a = g @ g.T + shift * np.eye(n)
    return QuadraticObjective(a, rng.standard_normal(n))


def cholesky_solve(m, g):
    """M h = g by LAPACK's Cholesky of M's lower triangle, bitwise the step
    kernel's solve of a block of four or more coordinates."""
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(m, lower=True), g)


# ---------------------------------------------------------------------------
# single steps


def test_forced_single_coordinate_step():
    a = np.array([[2.0, 1], [1, 2]])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    cfg = SolverConfig(method="rcdvs", tau=1, max_iters=1, forced_subsets=[[0]])
    rep = run(obj, a, cfg)
    assert np.allclose(rep.x_final, [0.5, 0.0])
    assert rep.final_value == pytest.approx(-0.25)
    assert rep.trace == [(0, 0.0), (1, -0.25)]


def test_full_subset_is_one_newton_step():
    rng = np.random.default_rng(0)
    obj = spd_quadratic(rng, 5)
    cfg = SolverConfig(method="rcdvs", tau=5, max_iters=1, seed=1)
    rep = run(obj, obj.a, cfg)
    x_star = np.linalg.solve(obj.a, obj.b)
    assert np.allclose(rep.x_final, x_star, atol=1e-10)


def test_single_coordinate_step_zeroes_coordinate():
    a = np.diag([1.0, 2.0, 3.0])
    obj = QuadraticObjective(a, np.zeros(3))
    x0 = np.array([0.7, -1.3, 2.1])
    cfg = SolverConfig(
        method="rcdvs", tau=1, max_iters=1, x0=x0, forced_subsets=[[1]]
    )
    rep = run(obj, a, cfg)
    assert rep.x_final[1] == 0.0
    assert np.allclose(rep.x_final[[0, 2]], x0[[0, 2]])


def test_sdna_step_equals_exact_step_when_nonsingular():
    rng = np.random.default_rng(1)
    obj = spd_quadratic(rng, 4)
    forced = [[0, 2]]
    cfg_v = SolverConfig(method="rcdvs", tau=2, max_iters=1, forced_subsets=forced)
    cfg_s = SolverConfig(method="sdna", tau=2, max_iters=1, forced_subsets=forced)
    rep_v = run(obj, obj.a, cfg_v)
    rep_s = run(obj, obj.a, cfg_s)
    assert np.allclose(rep_v.x_final, rep_s.x_final, atol=1e-10)


def test_sdna_rank_deficient_submatrix_still_descends():
    # block {0,1} of the curvature has rank one
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    obj = QuadraticObjective(a, np.array([1.0, 1.0, 0.5]))
    cfg = SolverConfig(method="sdna", tau=2, max_iters=1, forced_subsets=[[0, 1]])
    rep = run(obj, a, cfg)
    assert rep.final_value <= obj.value(np.zeros(3)) + 1e-12


# ---------------------------------------------------------------------------
# stopping rules


def test_check_stop_gap_rules():
    ended = SolverConfig(method="rcd", tau=1, target_gap=0.01, f_star=1.0).stop_rule()
    assert ended(5, 1.0105) is None  # gap 0.0105 > 0.01: continue
    assert ended(5, 1.0) == "converged"
    # a gap exactly equal to the target counts as reached (<=); use an
    # exactly representable gap to keep the boundary check meaningful
    exact = SolverConfig(method="rcd", tau=1, target_gap=0.015625, f_star=1.0)
    assert exact.stop_rule()(5, 1.015625) == "converged"
    # a non-finite value diverges before the gap and the budget are read,
    # and the gap is read before the budget
    both = SolverConfig(method="rcd", tau=1, max_iters=10, target_gap=0.5, f_star=0.0)
    ended = both.stop_rule()
    for value in (np.inf, -np.inf, np.nan):
        assert ended(10, value) == "diverged"
        assert ended(3, value) == "diverged"
    assert ended(10, 0.5) == "converged"
    assert ended(10, 0.75) == "budget"
    assert ended(9, 0.75) is None
    budget_only = SolverConfig(method="rcd", tau=1, max_iters=10).stop_rule()
    assert budget_only(9, -1e300) is None and budget_only(10, -1e300) == "budget"
    gap_only = SolverConfig(method="rcd", tau=1, target_gap=0.5, f_star=0.0).stop_rule()
    assert gap_only(10**18, 0.75) is None and gap_only(1, 0.5) == "converged"


def test_zero_iteration_budget_reports_start():
    a = np.diag([1.0, 2.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    cfg = SolverConfig(method="rcdvs", tau=1, max_iters=0, x0=np.array([3.0, 3.0]))
    rep = run(obj, a, cfg)
    assert rep.iterations == 0
    assert np.allclose(rep.x_final, [3.0, 3.0])
    assert rep.final_value == pytest.approx(obj.value([3.0, 3.0]))


def test_gap_mode_requires_f_star():
    cfg = SolverConfig(method="rcd", tau=1, target_gap=0.1)
    with pytest.raises(ConfigError):
        cfg.validate(3)


@pytest.mark.parametrize(
    "stop",
    [dict(target_gap=float("nan"), f_star=0.0), dict(target_gap=float("inf"), f_star=0.0),
     dict(target_gap=0.1, f_star=float("inf")), dict(target_gap=0.1, f_star=float("-inf")),
     dict(target_gap=0.1, f_star=float("nan"))],
)
def test_non_finite_gap_or_f_star_rejected(stop):
    # a NaN gap is never reached and the run goes on to its budget; an
    # infinite gap or f_star reads as converged at iteration 0
    obj = QuadraticObjective(np.eye(3), np.ones(3))
    with pytest.raises(ConfigError, match="finite"):
        run(obj, np.eye(3), SolverConfig(method="rcd", tau=1, max_iters=50, **stop))


def test_rcd_rejects_larger_tau():
    cfg = SolverConfig(method="rcd", tau=2, max_iters=1)
    with pytest.raises(ConfigError):
        cfg.validate(3)


def test_unknown_method_rejected():
    cfg = SolverConfig(method="newton", tau=1, max_iters=1)
    with pytest.raises(ConfigError):
        cfg.validate(3)


def test_negative_seed_rejected_before_the_run():
    # numpy's seed sequence refuses a negative seed only once the run has
    # started; validate refuses it first
    obj = QuadraticObjective(np.eye(3), np.ones(3))
    with pytest.raises(ConfigError, match="seed"):
        run(obj, np.eye(3), SolverConfig(method="rcd", tau=1, max_iters=5, seed=-1))


@pytest.mark.parametrize("x0", [np.full(6, np.nan), np.full(6, np.inf), np.zeros((6, 1)),
                                np.zeros(5)], ids=["nan", "inf", "column", "short"])
def test_x0_must_be_a_finite_vector_of_length_n(x0):
    # a NaN start would read as a run that stopped at once, and a misshapen
    # one would fail inside numpy's matmul
    obj = spd_quadratic(np.random.default_rng(60), 6)
    with pytest.raises(ConfigError, match="x0"):
        run(obj, obj.a, SolverConfig(method="rcdvs", tau=2, max_iters=50, x0=x0))


# ---------------------------------------------------------------------------
# sampling behavior inside the solvers


def test_rcd_selection_proportional_to_diagonal():
    a = np.diag([1.0, 2.0, 3.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0, 1.0]))
    cfg = SolverConfig(
        method="rcd", tau=1, max_iters=20_000, seed=3, record_subsets=True,
        trace_every=10**9,
    )
    rep = run(obj, a, cfg)
    counts = np.zeros(3)
    for s in rep.subsets:
        counts[s[0]] += 1
    freq = counts / counts.sum()
    assert np.abs(freq - np.array([1, 2, 3]) / 6).max() <= 0.02


def test_sdna_tau_one_is_uniform_not_weighted():
    a = np.diag([1.0, 2.0, 7.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0, 1.0]))
    cfg = SolverConfig(
        method="sdna", tau=1, max_iters=20_000, seed=4, record_subsets=True,
        trace_every=10**9,
    )
    rep = run(obj, a, cfg)
    counts = np.zeros(3)
    for s in rep.subsets:
        counts[s[0]] += 1
    freq = counts / counts.sum()
    assert np.abs(freq - 1 / 3).max() <= 0.02


def test_rcdvs_subsets_follow_exact_distribution():
    rng = np.random.default_rng(5)
    obj = spd_quadratic(rng, 5)
    cfg = SolverConfig(
        method="rcdvs", tau=2, max_iters=20_000, seed=6, record_subsets=True,
        trace_every=10**9,
    )
    rep = run(obj, obj.a, cfg)
    exact = exact_probabilities(obj.a, 2)
    counts: dict = {}
    for s in rep.subsets:
        counts[tuple(int(v) for v in s)] = counts.get(tuple(int(v) for v in s), 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(s, 0) / len(rep.subsets) - p) for s, p in exact.items()
    )
    assert tv <= 0.03


# ---------------------------------------------------------------------------
# descent properties


def test_monotone_descent_on_quadratic_recomputed():
    rng = np.random.default_rng(7)
    obj = spd_quadratic(rng, 12)
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=1000, seed=8, record_subsets=True)
    rep = run(obj, obj.a, cfg)
    # replay the run and recompute the objective from scratch at every step
    x = np.zeros(12)
    prev = obj.value(x)
    for s in rep.subsets:
        g = obj.gradient(x)[s]
        h = cholesky_solve(obj.a[np.ix_(s, s)], g)
        x[s] -= h
        cur = obj.value(x)
        assert cur <= prev + 1e-10
        prev = cur


def test_descent_on_full_residual_losses():
    from volcd.objectives import LogSumExpLoss, SqrtNormLoss

    rng = np.random.default_rng(30)
    a = rng.standard_normal((12, 6))
    b_off = rng.standard_normal(12)
    for loss in (LogSumExpLoss(0.3), SqrtNormLoss(0.3)):
        obj = SeparableObjective(a, b_off, loss)
        bmat = obj.curvature_matrix()
        cfg = SolverConfig(method="rcdvs", tau=2, max_iters=500, seed=31, trace_every=1)
        rep = run(obj, bmat, cfg)
        values = [f for _, f in rep.trace]
        assert (np.diff(values) <= 1e-10).all()
        assert rep.final_value == pytest.approx(obj.value(rep.x_final), abs=1e-9)


def test_monotone_descent_nonquadratic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 8))
    labels = np.sign(rng.standard_normal(30))
    obj = SeparableObjective(a, labels, LogisticLoss())
    b = obj.curvature_matrix()
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=2000, seed=10, trace_every=1)
    rep = run(obj, b, cfg)
    values = [f for _, f in rep.trace]
    diffs = np.diff(values)
    assert (diffs <= 1e-8).all()


def test_rcdvs_tau_four_at_n_400_runs_on_spectral_draws():
    # C(400, 4) = 1.05e9 subsets exceed the enumeration cap; the run draws
    # from the spectral sampler instead and still descends at every step
    obj = gen_quadratic(ProblemSpec(kind="quadratic", n=400, seed=3))[0]
    b = obj.curvature_matrix()
    cfg = SolverConfig(method="rcdvs", tau=4, max_iters=300, seed=5, trace_every=1,
                       record_subsets=True)
    rep = run(obj, b, cfg)
    assert rep.iterations == 300
    values = np.array([f for _, f in rep.trace])
    assert (np.diff(values) <= 1e-10 * np.abs(values).max()).all()
    expected = SpectralVolumeSampler(b, 4).sample_many(RngStream(5), 300)
    assert np.array_equal(np.array(rep.subsets), expected)


def test_long_rcdvs_run_hands_over_to_enumeration():
    # C(30, 3) = 4060 > 3 * 30^2: 32 spectral draws, then enumeration
    obj = gen_quadratic(ProblemSpec(kind="quadratic", n=30, seed=4))[0]
    b = obj.curvature_matrix()
    cfg = SolverConfig(method="rcdvs", tau=3, max_iters=1000, seed=6, trace_every=1,
                       record_subsets=True)
    rep = run(obj, b, cfg)
    assert rep.iterations == 1000
    values = np.array([f for _, f in rep.trace])
    assert (np.diff(values) <= 1e-10 * np.abs(values).max()).all()
    rng = RngStream(6)
    expected = np.concatenate(
        (SpectralVolumeSampler(b, 3)._search(rng, 32),
         VolumeSampler(b, 3).sample_many(rng, 968))
    )
    assert np.array_equal(np.array(rep.subsets), expected)


def test_expected_one_step_decrease_meets_bound():
    rng = np.random.default_rng(11)
    n = 6
    obj = spd_quadratic(rng, n)
    a = obj.a
    x0 = rng.standard_normal(n)
    g = obj.gradient(x0)
    tau = 2
    sampler = VolumeSampler(a, tau)
    draws = sampler.sample_many(RngStream(12), 100_000)
    # one-step decrease for a quadratic: g_S' (A_SS)^{-1} g_S / 2
    decrease_by_subset = {}
    for s in map(tuple, sampler.subsets):
        sub = a[np.ix_(s, s)]
        gs = g[list(s)]
        decrease_by_subset[s] = 0.5 * float(gs @ np.linalg.solve(sub, gs))
    observed = np.array([decrease_by_subset[tuple(s)] for s in draws])
    bound = 0.5 * float(g @ (b_tau(eigendecompose(a), tau).inverse() @ g))
    mean = observed.mean()
    stderr = observed.std(ddof=1) / np.sqrt(observed.size)
    assert mean >= bound - 3 * stderr


def test_rcd_linear_rate_loose():
    # expected gap halves within about (trace / smallest eigenvalue) * ln 2
    # iterations; allow a factor-3 slack and average over repetitions
    d = np.array([1.0, 2.0, 4.0, 8.0])
    a = np.diag(d)
    obj = QuadraticObjective(a, np.zeros(4))
    x0 = np.ones(4)
    gap0 = obj.value(x0)
    k_half = int(3 * np.ceil(d.sum() / d.min() * np.log(2)))
    gaps = []
    for seed in range(40):
        cfg = SolverConfig(
            method="rcd", tau=1, max_iters=k_half, seed=seed, x0=x0,
            trace_every=10**9,
        )
        gaps.append(run(obj, a, cfg).final_value)
    assert np.mean(gaps) <= gap0 / 2


# ---------------------------------------------------------------------------
# reporting


def test_seed_determinism_full_trace():
    rng = np.random.default_rng(13)
    obj = spd_quadratic(rng, 8)
    cfg = dict(method="rcdvs", tau=2, max_iters=500, seed=42, trace_every=7)
    rep1 = run(obj, obj.a, SolverConfig(**cfg))
    rep2 = run(obj, obj.a, SolverConfig(**cfg))
    assert rep1.trace == rep2.trace
    assert np.array_equal(rep1.x_final, rep2.x_final)


def test_trace_cadence_and_export():
    a = np.diag([1.0, 2.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    cfg = SolverConfig(method="rcdvs", tau=1, max_iters=10, seed=0, trace_every=3)
    rep = run(obj, a, cfg)
    ks = [k for k, _ in rep.trace]
    assert ks == [0, 3, 6, 9, 10]


def test_capped_flag_set_when_gap_not_reached():
    a = np.diag([1.0, 2.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    f_star = obj.value(np.linalg.solve(a, obj.b))
    cfg = SolverConfig(
        method="rcdvs", tau=1, max_iters=1, target_gap=1e-12, f_star=f_star, seed=0
    )
    rep = run(obj, a, cfg)
    assert rep.capped and rep.status == "budget"
    # a curvature below the true one diverges to NaN, which must not pass
    # for a converged run
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    f_star = obj.value(np.linalg.solve(a, obj.b))
    cfg = SolverConfig(
        method="rcdvs", tau=1, max_iters=3000, target_gap=1e-6, f_star=f_star, seed=0
    )
    with np.errstate(all="ignore"):
        rep = run(obj, 0.01 * a, cfg)
    # the run ends at the first non-finite value, long before the budget
    assert np.isinf(rep.final_value)
    assert rep.iterations < 3000
    assert rep.capped and rep.status == "diverged"


def test_run_dispatch_and_method_guards():
    a = np.diag([1.0, 2.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    cfg = SolverConfig(method="sdna", tau=2, max_iters=5, seed=0)
    assert run(obj, a, cfg).method == "sdna"


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
@pytest.mark.parametrize("method", ["rcdvs", "sdna"])
def test_run_refuses_a_non_finite_curvature_matrix(method, tau):
    # without the check, the NaN pivot of a 4-coordinate block gives a NaN
    # step, and sdna's pseudoinverse fallback can stall inside LAPACK
    b = np.diag([1.0, 1, 1, np.nan])
    obj = QuadraticObjective(np.eye(4), np.ones(4))
    cfg = SolverConfig(method=method, tau=tau, max_iters=20, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        run(obj, b, cfg)


def test_sparse_and_dense_states_agree_on_forced_run():
    # identical forced subsets through the dense and the sparse quadratic
    # state must produce the same trajectory and maintained values
    from volcd.linalg import CsrSymmetricUpper
    from volcd.problems import banded_psd

    csr = banded_psd(30, 3, seed=21)
    dense = csr.to_dense()
    rhs = np.random.default_rng(22).standard_normal(30)
    rng = np.random.default_rng(23)
    forced = [
        np.sort(rng.choice(30, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(200)
    ]
    reports = []
    for a in (dense, csr):
        obj = QuadraticObjective(a, rhs)
        cfg = SolverConfig(
            method="rcdvs", tau=3, max_iters=200, forced_subsets=list(forced),
            trace_every=1,
        )
        reports.append(run(obj, a, cfg))
    d, s = reports
    assert np.allclose(d.x_final, s.x_final, atol=1e-12)
    for (kd, fd), (ks, fs) in zip(d.trace, s.trace):
        assert kd == ks
        assert fd == pytest.approx(fs, abs=1e-10)


def test_rcd_on_sparse_curvature_stays_sparse():
    # singleton sampling from sparse storage must not densify the matrix
    from volcd.problems import banded_psd

    b = banded_psd(5000, 3, seed=24)
    obj = QuadraticObjective(b, np.ones(5000))
    cfg = SolverConfig(method="rcd", tau=1, max_iters=500, seed=25, trace_every=1)
    rep = run(obj, b, cfg)
    values = [f for _, f in rep.trace]
    assert (np.diff(values) <= 1e-10).all()


def test_sparse_curvature_pair_path():
    # tau = 2 over a sparse curvature matrix drives the sparse pair sampler
    from volcd.problems import banded_psd

    b = banded_psd(50, 3, seed=1)
    obj = QuadraticObjective(b, np.ones(50))
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=300, seed=2, trace_every=1)
    rep = run(obj, b, cfg)
    values = [f for _, f in rep.trace]
    assert (np.diff(values) <= 1e-10).all()
    assert rep.final_value == pytest.approx(obj.value(rep.x_final), abs=1e-9)


def test_pair_solve_same_on_dense_and_sparse_curvature():
    # the closed-form 2x2 and 3x3 solves read the same diagonal and
    # off-diagonal entries from either storage, so the steps agree bit for bit
    csr = banded_psd(40, 4, seed=3)
    dense = csr.to_dense()
    rng = np.random.default_rng(4)
    for size in (2, 3):
        for exact in (True, False):
            solve_d = _make_step_solver(dense, exact)
            solve_s = _make_step_solver(csr, exact)
            for _ in range(200):
                s = np.sort(rng.choice(40, size=size, replace=False))
                g = rng.standard_normal(size)
                assert solve_d(s, g).tobytes() == solve_s(s, g).tobytes()
                assert np.allclose(solve_s(s, g), cholesky_solve(dense[np.ix_(s, s)], g))


def test_singular_sparse_pair_raises_or_falls_back():
    # coordinates 0 and 1 are copies of each other: B[{0,1},{0,1}] has rank one
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    csr = CsrSymmetricUpper.from_dense(a)
    s, g = np.array([0, 1]), np.array([0.5, -0.25])
    with pytest.raises(SingularSubmatrix):
        _make_step_solver(csr, exact=True)(s, g)
    h = _make_step_solver(csr, exact=False)(s, g)
    assert np.array_equal(h, pseudo_solve(principal_submatrix(csr, s), g))
    obj = QuadraticObjective(csr, np.array([1.0, 1.0, 0.5]))
    forced = SolverConfig(method="rcdvs", tau=2, max_iters=1, forced_subsets=[[0, 1]])
    with pytest.raises(SingularSubmatrix):
        run(obj, csr, forced)
    rep = run(obj, csr, SolverConfig(
        method="sdna", tau=2, max_iters=1, forced_subsets=[[0, 1]]))
    assert rep.final_value <= obj.value(np.zeros(3)) + 1e-12


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("method", ["rcdvs", "sdna"])
@pytest.mark.parametrize("tau", [1, 2, 3])
def test_forced_subsets_of_any_size_take_their_newton_step(tau, method, sparse):
    # the step follows the size of the subset it is given, not config.tau
    csr = banded_psd(6, 2, seed=8)
    dense = csr.to_dense()
    b = csr if sparse else dense
    obj = QuadraticObjective(b, np.random.default_rng(9).standard_normal(6))
    forced = [[0, 1], [2], [1, 3, 5], [0, 2, 3, 4], [4, 5], [3]]
    x = np.zeros(6)
    for s in forced:
        cfg = SolverConfig(method=method, tau=tau, max_iters=1, x0=x,
                           forced_subsets=[s])
        rep = run(obj, b, cfg)
        h = np.linalg.solve(dense[np.ix_(s, s)], obj.gradient(x)[s])
        step = x - rep.x_final
        assert np.allclose(step[s], h, rtol=1e-12, atol=1e-12)
        assert not np.delete(step, s).any()
        x = rep.x_final
    rep = run(obj, b, SolverConfig(method=method, tau=tau, max_iters=len(forced),
                                   forced_subsets=forced))
    assert rep.iterations == len(forced)
    assert np.allclose(rep.x_final, x, rtol=1e-12, atol=1e-12)
    assert rep.final_value == pytest.approx(obj.value(rep.x_final), rel=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_block_rule_at_size_three(sparse):
    # coordinates 0 and 1 are copies of each other, so B[{0,1,2},{0,1,2}] is
    # singular; B[{1,2,3},{1,2,3}] is positive definite
    a = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
    b = CsrSymmetricUpper.from_dense(a) if sparse else a
    g = np.array([0.5, -0.25, 1.0])
    singular, regular = np.array([0, 1, 2]), np.array([1, 2, 3])
    with pytest.raises(SingularSubmatrix):
        _make_step_solver(b, exact=True)(singular, g)
    h = _make_step_solver(b, exact=False)(singular, g)
    assert np.array_equal(h, pseudo_solve(a[np.ix_(singular, singular)], g))
    # the regular block takes the closed form, the same bits from dense and
    # CSR B and within roundoff of the LAPACK Cholesky solve
    reference = cholesky_solve(a[np.ix_(regular, regular)], g)
    for exact in (True, False):
        h = _make_step_solver(b, exact)(regular, g)
        other = _make_step_solver(a if sparse else CsrSymmetricUpper.from_dense(a), exact)
        assert h.tobytes() == other(regular, g).tobytes()
        assert np.abs(h - reference).max() <= 1e-12 * np.abs(reference).max()
    obj = QuadraticObjective(b, np.ones(4))
    forced = dict(tau=3, max_iters=1, forced_subsets=[[0, 1, 2]])
    with pytest.raises(SingularSubmatrix):
        run(obj, b, SolverConfig(method="rcdvs", **forced))
    rep = run(obj, b, SolverConfig(method="sdna", **forced))
    assert rep.final_value <= obj.value(np.zeros(4)) + 1e-12


@pytest.mark.parametrize(
    "block",
    [
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]],  # first pivot 0
        [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot 0
        [[2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [3.0, 3.0, 6.0]],  # third pivot 0
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]],  # NaN pivot
    ],
)
def test_size_three_closed_form_checks_every_pivot(block):
    a = np.array(block)
    s, g = np.arange(3), np.array([1.0, -2.0, 0.5])
    with pytest.raises(SingularSubmatrix):
        _make_step_solver(a, exact=True)(s, g)
    if np.isfinite(a).all():  # LAPACK's potrf passes a NaN pivot through
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(a, lower=True)
        h = _make_step_solver(a, exact=False)(s, g)
        assert np.array_equal(h, pseudo_solve(a, g))


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_block_rule_at_size_four(sparse):
    # coordinate 3 has a zero row and column, so B[{0,1,2,3},{0,1,2,3}] has a
    # fourth pivot of 0; and a copied row makes the blocks [0, ..., size - 1]
    # of copied_row exactly singular at sizes 4, 5 and 8, with a second
    # pivot of at most rounding noise, which LAPACK's Cholesky accepted for
    # 61 of these 200 seeds: each block raises under an exact solve and
    # takes the pseudoinverse step otherwise
    a = spd_quadratic(np.random.default_rng(12), 5).a
    a[3, :] = a[:, 3] = 0.0
    cases = [(a, 4, 0)] + [(copied_row(seed, size + 2), size, seed)
                           for size in (4, 5, 8) for seed in range(200)]
    for a, size, seed in cases:
        b = CsrSymmetricUpper.from_dense(a) if sparse else a
        s, g = np.arange(size), np.linspace(-1.0, 2.0, size)
        with pytest.raises(SingularSubmatrix, match=f"singular {size}x{size} submatrix"):
            _make_step_solver(b, exact=True)(s, g)
        h = _make_step_solver(b, exact=False)(s, g)
        assert np.array_equal(h, pseudo_solve(a[np.ix_(s, s)], g))
        if seed:
            continue
        # a forced step on the block, once per matrix and size
        obj = QuadraticObjective(b, np.ones(len(a)))
        forced = dict(tau=size, max_iters=1, forced_subsets=[list(s)])
        with pytest.raises(SingularSubmatrix):
            run(obj, b, SolverConfig(method="rcdvs", **forced))
        rep = run(obj, b, SolverConfig(method="sdna", **forced))
        assert rep.final_value <= obj.value(np.zeros(len(a))) + 1e-12


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_samplers_and_steps_decide_alike_at_the_pivot_rules_boundary(size, sparse):
    # B = L D L' with a unit lower L and its last pivot 1e-15 or 1e-13 of
    # its diagonal entry, either side of the rule's 1e-14: the table's
    # minor (0 or positive, also the spectral sampler's redraw test), the
    # window's solve.regular and the per-step solve (raise or solve) agree,
    # singular at 1e-15 and regular at 1e-13
    rng = np.random.default_rng(80 + size)
    s, upper = np.arange(size), np.triu_indices(size, 1)
    for _ in range(20):
        lower = np.tril(rng.uniform(-1.0, 1.0, (size, size)), -1) + np.eye(size)
        d = rng.uniform(0.5, 2.0, size)
        for ratio, regular in ((1e-15, False), (1e-13, True)):
            # d_n = ratio * B_nn, where B_nn = sum_k L_nk^2 d_k
            d[-1] = ratio / (1.0 - ratio) * float(lower[-1, :-1] ** 2 @ d[:-1])
            a = (lower * d) @ lower.T
            a = np.triu(a) + np.triu(a, 1).T
            b = CsrSymmetricUpper.from_dense(a) if sparse else a
            solve = _make_step_solver(b, exact=True)
            try:
                solve(s, np.ones(size))
                solved = True
            except SingularSubmatrix:
                solved = False
            drawn = principal_minors(b, size, s[None])[0] > 0.0
            tested = solve.regular(a.diagonal()[:, None], a[upper][:, None])[0]
            assert drawn == tested == solved == regular, ratio


@pytest.mark.parametrize("sparse", [False, True])
def test_sdna_single_coordinate_step_on_a_zero_pivot_is_zero(sparse):
    a = np.diag([0.0, 2.0])
    b = CsrSymmetricUpper.from_dense(a) if sparse else a
    solve = _make_step_solver(b, exact=False)
    assert solve(np.array([0]), np.array([0.75])).tolist() == [0.0]
    assert solve.one(0, 0.75) == 0.0
    with pytest.raises(SingularSubmatrix, match="zero diagonal pivot"):
        _make_step_solver(b, exact=True)(np.array([0]), np.array([0.75]))


@pytest.mark.parametrize("subset, message", [
    ([], "nonempty"),
    ([0, 1, 2, 3], "exceeds dimension 3"),
])
def test_forced_subset_empty_or_longer_than_n_is_rejected(subset, message):
    cfg = SolverConfig(method="sdna", tau=1, max_iters=1, forced_subsets=[subset])
    with pytest.raises(ValueError, match=message):
        cfg.validate(3)
    obj = QuadraticObjective(np.eye(3), np.ones(3))
    with pytest.raises(ValueError, match=message):
        run(obj, np.eye(3), cfg)


def _two_batches(sampler, rng):
    return np.concatenate([sampler.sample_many(rng, 4096) for _ in range(2)])


def _two_scalar_chunks(b, rng):
    # the scalar search on each 4096-draw chunk's uniforms: the chunk's
    # first uniforms, then its second ones
    sampler = SparseTwoSampler(b)
    pairs = []
    for _ in range(2):
        u1, u2 = rng.uniforms(4096).tolist(), rng.uniforms(4096).tolist()
        pairs += [pair_draw(sampler, a, c) for a, c in zip(u1, u2)]
    return pairs


@pytest.mark.parametrize(
    "method, sparse, reference",
    [
        ("rcdvs", True, lambda b, rng: _two_scalar_chunks(b, rng)),
        ("rcdvs", False, lambda b, rng: _two_batches(VolumeSampler(b, 2), rng)),
        ("sdna", True, lambda b, rng: UniformSampler(b.shape[0], 2).sample_many(rng, 5000)),
    ],
)
def test_subset_stream_matches_reference_draws(method, sparse, reference):
    # a run draws the same subsets as its sampler's reference draws over
    # consecutive 4096-draw chunks, also across the chunk boundary: the
    # scalar pair search for SparseTwoSampler, sample_many batches for
    # VolumeSampler, and one 5000-subset block of UniformSampler for sdna
    csr = banded_psd(60, 3, seed=5)
    b = csr if sparse else csr.to_dense()
    obj = QuadraticObjective(b, np.random.default_rng(6).standard_normal(60))
    cfg = SolverConfig(method=method, tau=2, max_iters=5000, seed=7,
                       trace_every=10**9, record_subsets=True)
    rep = run(obj, b, cfg)
    expected = np.asarray(reference(b, RngStream(7)))
    assert rep.iterations == 5000
    assert np.array_equal(np.array(rep.subsets), expected[:5000])


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize(
    "forced, error",
    [([[1, 1]], ValueError), ([[2, 0]], ValueError), ([[0, 3]], IndexError)],
)
def test_forced_subsets_are_validated(sparse, forced, error):
    # a repeated index would apply a step to x once but to the gradient or
    # residual twice, so a bad forced subset must fail before the run
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    b = CsrSymmetricUpper.from_dense(a) if sparse else a
    obj = QuadraticObjective(b, np.ones(3))
    cfg = SolverConfig(method="sdna", tau=2, max_iters=1, forced_subsets=forced)
    with pytest.raises(error):
        run(obj, b, cfg)


# ---------------------------------------------------------------------------
# steps through the state's public methods: every dense quadratic run off
# the window, and the reference of the fused sparse step


class _PublicState:
    """A state that offers the loop only ``value``, ``x``,
    ``partial_gradient`` and ``apply_step``, so ``run`` takes the generic
    loop for it."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def value(self):
        return self._inner.value

    @property
    def x(self):
        return self._inner.x

    def partial_gradient(self, s):
        return self._inner.partial_gradient(s)

    def apply_step(self, s, h):
        self._inner.apply_step(s, h)


class _PublicObjective:
    def __init__(self, obj):
        self._obj = obj
        self.n = obj.n

    def init_state(self, x0):
        return _PublicState(self._obj.init_state(x0))


def _outcome(rep):
    return (
        rep.iterations,
        np.float64(rep.final_value).tobytes(),
        rep.x_final.tobytes(),
        np.array(rep.trace, dtype=float).tobytes(),
        None if rep.subsets is None else [s.tolist() for s in rep.subsets],
        rep.capped,
    )


def _both_paths(monkeypatch, obj, b, cfg, loop):
    """The outcomes of one run through the fused step of ``objectives``
    named ``loop`` and through the state's public methods; the first must
    have taken the fused step."""
    fused_calls = []
    fused = getattr(objectives, loop)

    def spy(*args):
        fused_calls.append(1)
        return fused(*args)

    monkeypatch.setattr(objectives, loop, spy)
    with np.errstate(all="ignore"):
        direct = run(obj, b, cfg)
        generic = run(_PublicObjective(obj), b, cfg)
    assert fused_calls == [1]
    return direct, generic


def _newton_steps(a, rhs, x0, forced):
    """The iterates x <- x - A[S, S]^{-1} (A x - rhs)[S], one per subset,
    recomputed from scratch at every step."""
    x = np.array(x0, dtype=float)
    for s in forced:
        x[s] -= np.linalg.solve(a[np.ix_(s, s)], (a @ x - rhs)[s])
    return x


def test_dense_sdna_pseudoinverse_steps_keep_the_value_on_the_objective(monkeypatch):
    # coordinates 2k and 2k + 1 are copies, so uniform pairs often meet a
    # singular 2x2 block and take the pseudoinverse step
    base = spd_quadratic(np.random.default_rng(14), 5).a
    a = np.kron(base, np.ones((2, 2)))
    obj = QuadraticObjective(a, np.random.default_rng(15).standard_normal(10))
    calls = []

    def counting(m, rhs):
        calls.append(1)
        return pseudo_solve(m, rhs)

    monkeypatch.setattr(objectives, "pseudo_solve", counting)
    windows = []
    window = objectives._dense_window_steps

    def spy(*args):
        windows.append(1)
        return window(*args)

    # the window hands each singular block to sdna's per-step solve
    monkeypatch.setattr(objectives, "_dense_window_steps", spy)
    cfg = SolverConfig(method="sdna", tau=2, max_iters=500, seed=16, trace_every=3,
                       record_subsets=True)
    rep = run(obj, a, cfg)
    assert windows == [1]
    assert rep.iterations == len(rep.subsets) == 500
    assert len(calls) >= 40
    full = obj.value(rep.x_final)
    assert abs(rep.final_value - full) <= 1e-12 * max(1.0, abs(full))


def test_dense_forced_subsets_of_sizes_one_to_five_take_their_newton_steps():
    # off the window a dense quadratic steps through its public methods,
    # whose _apply has one branch for a single coordinate and one for more
    obj = spd_quadratic(np.random.default_rng(17), 12)
    rng = np.random.default_rng(18)
    forced = [np.sort(rng.choice(12, size=1 + p % 5, replace=False)) for p in range(60)]
    stepper = objectives.steps(obj.init_state(np.zeros(12)), iter(forced), obj.a, exact=True)
    assert stepper.__name__ == "_public_steps"
    expected = _newton_steps(obj.a, obj.b, np.zeros(12), forced)
    for method in ("rcdvs", "sdna"):
        cfg = SolverConfig(method=method, tau=2, max_iters=len(forced),
                           forced_subsets=forced, trace_every=1, record_subsets=True)
        rep = run(obj, obj.a, cfg)
        assert rep.iterations == len(forced)
        assert [s.tolist() for s in rep.subsets] == [s.tolist() for s in forced]
        assert np.abs(rep.x_final - expected).max() <= 1e-10 * np.abs(expected).max()
        assert rep.final_value == pytest.approx(obj.value(rep.x_final), rel=1e-12)


def test_fused_loop_raises_on_the_same_singular_step():
    # the fourth forced subset is the singular block {0, 1}: the first three
    # steps are taken and the fourth raises
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    obj = QuadraticObjective(a, np.array([1.0, 0.5, 0.5]))
    forced = [[0], [2], [1, 2], [0, 1], [2]]
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=3, forced_subsets=forced,
                       record_subsets=True)
    rep = run(obj, a, cfg)
    assert rep.iterations == 3
    assert [s.tolist() for s in rep.subsets] == forced[:3]
    assert np.allclose(rep.x_final, _newton_steps(a, obj.b, np.zeros(3), forced[:3]),
                       rtol=1e-14, atol=1e-14)
    with pytest.raises(SingularSubmatrix):
        run(obj, a, replace(cfg, max_iters=4))


def test_fused_loop_refreshes_at_the_generic_loops_steps(monkeypatch):
    # a short refresh interval, set after import: a per-step run recomputes
    # its state every 9 steps and keeps the maintained value on the
    # from-scratch one
    monkeypatch.setattr(objectives, "REFRESH_INTERVAL", 9)
    refreshed = []
    refresh = objectives.GradientState.refresh

    def spy(state):
        refreshed.append(state.x.tobytes())
        refresh(state)

    monkeypatch.setattr(objectives.GradientState, "refresh", spy)
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=30, lam1=400.0, seed=19))
    b = obj.curvature_matrix()
    forced = [np.sort(np.random.default_rng(20).choice(30, size=1 + p % 3, replace=False))
              for p in range(100)]
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=100, trace_every=1,
                       forced_subsets=forced)
    refreshed.clear()
    rep = run(obj, b, cfg)
    at_steps = list(refreshed)
    assert len(at_steps) == 100 // 9
    # the state is refreshed after its 9th, 18th, ... step
    for k, x in enumerate(at_steps, start=1):
        assert x == run(obj, b, replace(cfg, max_iters=9 * k)).x_final.tobytes()
    full = obj.value(rep.x_final)
    assert abs(rep.final_value - full) <= 1e-9 * abs(full)


def test_rcdvs_8_runs_where_the_largest_diagonal_clamped_every_minor():
    # with the clamp at 1e-14 * max(diag)^8 the spectral sampler drew 10240
    # subsets of this B, found none above it and raised EmptySupport; at
    # each block's own diagonal product the run takes its 50 steps, on
    # blocks of positive minor that the old clamp removed
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=160, lam1=1600.0, seed=0))
    b = obj.curvature_matrix()
    rep = run(obj, b, SolverConfig(method="rcdvs", tau=8, max_iters=50, record_subsets=True))
    assert rep.iterations == 50 and rep.final_value < obj.value(np.zeros(160))
    drawn = np.array(rep.subsets)
    assert (principal_minors(b, 8, drawn) > 0.0).all()
    assert (raw_minors(b, 8, drawn) < 1e-14 * b.diagonal().max() ** 8).all()


def test_rcdvs_50_runs_where_every_minor_fell_under_the_diagonal_product():
    # the old clamp, a minor at most 1e-14 times its block's diagonal
    # product, refused every drawn order-50 block of this B and raised
    # EmptySupport; by the pivot rule each is regular, and the run takes its
    # 20 steps
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=60, lam1=400.0, lam2=100.0, seed=0))
    b = obj.curvature_matrix()
    rep = run(obj, b, SolverConfig(method="rcdvs", tau=50, max_iters=20, record_subsets=True))
    assert rep.iterations == 20 and rep.final_value < obj.value(np.zeros(60))
    drawn = np.array(rep.subsets)
    assert (principal_minors(b, 50, drawn) > 0.0).all()
    raw = raw_minors(b, 50, drawn)
    assert (raw <= 1e-14 * b.diagonal()[drawn].prod(axis=1)).all()


# ---------------------------------------------------------------------------
# the windowed steps of sampled runs on dense quadratics: rcd:1, rcdvs:2,
# rcdvs:3, sdna:1, sdna:2 and sdna:3, and rcdvs and sdna at tau 4, 5 and 8
# where _WINDOWED_WIDE is listed

# the window solves each window's steps as one linear system, so it agrees
# with the per-step path to rounding, not bitwise
_WINDOW_RTOL = 1e-10


def _window_spy(monkeypatch):
    """Counts the runs that take the windowed steps."""
    calls = []
    window = objectives._dense_window_steps

    def spy(*args):
        calls.append(1)
        return window(*args)

    monkeypatch.setattr(objectives, "_dense_window_steps", spy)
    return calls


def _window_and_replay(monkeypatch, obj, b, cfg):
    """A sampled run, which must take the windowed step, and the per-step
    replay of the subsets it recorded."""
    calls = _window_spy(monkeypatch)
    with np.errstate(all="ignore"):
        windowed = run(obj, b, replace(cfg, record_subsets=True))
        replay = run(obj, b, replace(cfg, forced_subsets=windowed.subsets))
    assert calls == [1]
    return windowed, replay


def _assert_agree(windowed, replay):
    """Equal iterations and trace steps; values and iterates within
    ``_WINDOW_RTOL`` of the replay's scale."""
    assert windowed.iterations == replay.iterations
    assert [k for k, _ in windowed.trace] == [k for k, _ in replay.trace]
    fw = np.array([f for _, f in windowed.trace])
    fr = np.array([f for _, f in replay.trace])
    assert np.abs(fw - fr).max() <= _WINDOW_RTOL * np.abs(fr).max()
    xr = replay.x_final
    assert np.abs(windowed.x_final - xr).max() <= _WINDOW_RTOL * np.abs(xr).max()


_WINDOWED = [("rcd", 1), ("rcdvs", 2), ("sdna", 1), ("sdna", 2), ("rcdvs", 3), ("sdna", 3)]
# four or more coordinates per subset: each block takes the per-step solve's
# own LAPACK Cholesky test
_WINDOWED_WIDE = [("rcdvs", 4), ("sdna", 4), ("rcdvs", 5), ("sdna", 5), ("rcdvs", 8),
                  ("sdna", 8)]


def _stream(method, b, tau):
    """The sampler whose stream a sampled run reads."""
    return UniformSampler(b.shape[0], tau) if method == "sdna" else make_sampler(b, tau)


@pytest.mark.parametrize("method, tau", _WINDOWED + _WINDOWED_WIDE)
@pytest.mark.parametrize("trace_every", [1, 7])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_window_agrees_with_the_per_step_replay(monkeypatch, method, tau, trace_every, scale):
    # B = 2A halves each step: the diagonal blocks come from B, the rest of
    # each window's system from A
    obj, _, f_star = gen_quadratic(ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=3))
    b = scale * obj.curvature_matrix()
    x0 = np.random.default_rng(4).standard_normal(40)
    per = objectives._WINDOW // tau
    stops = [dict(target_gap=1e-3, f_star=f_star, max_iters=100_000)]
    # budgets that stop the run at offsets 0, 1 and per - 1 of its fourth window
    stops += [dict(max_iters=3 * per + offset + 1) for offset in (0, 1, per - 1)]
    for stop in stops:
        cfg = SolverConfig(method=method, tau=tau, seed=5, x0=x0, trace_every=trace_every,
                           **stop)
        windowed, replay = _window_and_replay(monkeypatch, obj, b, cfg)
        _assert_agree(windowed, replay)
        assert 0 < windowed.iterations < 100_000 and not windowed.capped
        # the stream logs exactly the subsets the steps took
        drawn = _stream(method, b, tau).sample_many(RngStream(5), windowed.iterations)
        assert np.array_equal(np.array(windowed.subsets), drawn)
    assert windowed.iterations == 4 * per


@pytest.mark.parametrize("method, tau", _WINDOWED)
def test_window_stops_a_diverging_run_at_its_first_non_finite_value(monkeypatch, method, tau):
    # B = A / 4 overshoots: every step raises the value and the iteration
    # amplifies rounding, so no window is taken and the run steps one subset
    # at a time; a window's cumsum would outlast the per-step update's
    # overflow and could stop a few steps late
    for problem_seed in (0, 1, 2, 3):
        obj, _, f_star = gen_quadratic(
            ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=problem_seed))
        for seed in range(15) if problem_seed < 3 else (5,):
            cfg = SolverConfig(method=method, tau=tau, seed=seed, target_gap=1e-3,
                               f_star=f_star, max_iters=100_000, trace_every=1)
            windowed, replay = _window_and_replay(monkeypatch, obj,
                                                  obj.curvature_matrix() / 4, cfg)
            where = f"problem seed {problem_seed}, solver seed {seed}"
            assert windowed.capped and not np.isfinite(windowed.final_value), where
            assert windowed.iterations == replay.iterations < 100_000, where
            assert np.isfinite([f for _, f in windowed.trace[:-1]]).all(), where


@pytest.mark.parametrize("method, tau", _WINDOWED)
def test_a_ridge_quadratic_never_takes_the_window(monkeypatch, method, tau):
    # the window steps the quadratic's own gradient and value, which leave
    # out the ridge term: a sampled ridge run takes the per-step path, so it
    # is bitwise its forced replay, and its value is the objective's
    quad, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=3))
    obj = RegularizedObjective(quad, 2.0)
    b = obj.curvature_matrix()
    x0 = np.random.default_rng(4).standard_normal(40)
    calls = _window_spy(monkeypatch)
    cfg = SolverConfig(method=method, tau=tau, seed=5, x0=x0, max_iters=300, trace_every=1,
                       record_subsets=True)
    sampled = run(obj, b, cfg)
    replay = run(obj, b, replace(cfg, forced_subsets=sampled.subsets))
    assert calls == [] and sampled.iterations == 300
    assert _outcome(sampled) == _outcome(replay)
    assert sampled.final_value == pytest.approx(obj.value(sampled.x_final), rel=1e-12)


def test_window_refreshes_at_the_per_step_paths_steps(monkeypatch):
    # windows end at the refresh boundary, so a short interval refreshes at
    # the steps where the per-step replay refreshes
    monkeypatch.setattr(objectives, "REFRESH_INTERVAL", 9)
    refreshed = []
    refresh = objectives.GradientState.refresh

    def spy(state):
        refreshed.append(state.x.copy())
        refresh(state)

    monkeypatch.setattr(objectives.GradientState, "refresh", spy)
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=30, lam1=400.0, seed=19))
    b = obj.curvature_matrix()
    for method, tau in _WINDOWED:
        cfg = SolverConfig(method=method, tau=tau, max_iters=100, seed=21, trace_every=1)
        refreshed.clear()
        windowed, replay = _window_and_replay(monkeypatch, obj, b, cfg)
        per_run = 100 // 9
        assert len(refreshed) == 2 * per_run
        for xw, xr in zip(refreshed[:per_run], refreshed[per_run:]):
            assert np.abs(xw - xr).max() <= _WINDOW_RTOL * np.abs(xr).max()
        _assert_agree(windowed, replay)
        full = obj.value(windowed.x_final)
        assert abs(windowed.final_value - full) <= 1e-9 * abs(full)


@pytest.mark.parametrize("method, tau", [("rcd", 1), ("rcdvs", 2), ("rcdvs", 3)])
def test_window_value_stays_on_the_objective_over_200k_steps(method, tau):
    obj, _, _ = gen_quadratic(
        ProblemSpec(kind="quadratic", n=100, lam1=6400.0, lam2=100.0, seed=40)
    )
    cfg = SolverConfig(method=method, tau=tau, max_iters=200_000, seed=41, trace_every=2**62)
    rep = run(obj, obj.curvature_matrix(), cfg)
    full = obj.value(rep.x_final)
    assert rep.iterations == 200_000
    assert abs(rep.final_value - full) <= 1e-9 * abs(full)


def _yielded(stepper, count):
    """The next ``count`` values of the steps as floats, a block's walked:
    at its (length, last value) it sends 0 and collects the block's length
    values; the steps must yield exactly that many."""
    values = []
    while len(values) < count:
        value = next(stepper)
        if type(value) is tuple:
            length, value = value[0], stepper.send(0)
            values += [value] + [next(stepper) for _ in range(length - 1)]
        else:
            values.append(value)
    assert len(values) == count
    return values


_BLOCK_CASES = ([("dense", method, tau) for method in ("rcdvs", "sdna") for tau in (1, 2, 3, 8)]
                + [(kind, "rcdvs", tau) for kind in ("huber", "ridge-logistic")
                   for tau in (1, 2, 3)])


@pytest.mark.parametrize("kind, method, tau", _BLOCK_CASES)
def test_a_block_is_its_length_and_last_value_and_a_close_applies_the_values_yielded(
        tmp_path, kind, method, tau):
    # a dense window's first steps and a sparse rowwise run's lazy block
    # alike: a block is yielded as (length, last value), and every other
    # value as a float; 0 sent at a block walks its length values, the
    # last bitwise the block's; a close at the block takes it, and a close
    # inside the walk applies the steps walked
    if kind == "dense":
        obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=3))
        b = obj.curvature_matrix()
    else:
        obj, b = _sparse_separable(kind, tmp_path)
    stream = _stream(method, b, tau)
    x0 = np.random.default_rng(4).standard_normal(obj.n)

    def first_block():
        """A fresh run's steps, its log and state, and its first block; the
        values before it must be floats."""
        log, state = [], obj.init_state(x0)
        stepper = objectives.steps(state, stream.draws(RngStream(5), solvers._SAMPLE_CHUNK, log),
                                   b, exact=method != "sdna", trace_every=2**62)
        for _ in range(1000):
            value = next(stepper)
            if type(value) is tuple:
                return stepper, log, state, value
            assert isinstance(value, float)
        pytest.fail("no block in 1000 values")

    stepper, log, state, block = first_block()
    length, last = block
    assert len(block) == 2 and type(length) is int and length > 1 and isinstance(last, float)
    walked = [stepper.send(0)] + [next(stepper) for _ in range(length - 1)]
    assert all(isinstance(value, float) for value in walked)
    assert np.float64(walked[-1]).tobytes() == np.float64(last).tobytes()
    stepper.close()
    stepper, log, state, (length, last) = first_block()
    before = len(log)
    stepper.close()
    assert len(log) == before + length and state.value == last
    for j in sorted({1, length // 2, length - 1, length}):
        stepper, log, state, _ = first_block()
        before = len(log)
        walked = [stepper.send(0)] + [next(stepper) for _ in range(j - 1)]
        stepper.close()
        assert len(log) == before + j and state.value == walked[-1]


def test_window_raises_at_the_singular_blocks_step():
    # the third pair is the singular block {0, 1}: the window takes the two
    # pairs before it, and the per-step step raises on it
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    obj = QuadraticObjective(a, np.array([1.0, 0.5, 0.5]))
    batch = np.array([[0, 2], [1, 2], [0, 1], [0, 2]])
    draws = Draws(iter([batch]), 2, log=[])
    state = obj.init_state(np.zeros(3))
    stepper = objectives.steps(state, draws, a, exact=True)
    assert stepper.__name__ == "_dense_window_steps"
    values = _yielded(stepper, 2)
    with pytest.raises(SingularSubmatrix):
        next(stepper)
    replay = run(obj, a, SolverConfig(method="rcdvs", tau=2, max_iters=2,
                                      forced_subsets=list(batch[:2])))
    assert values == pytest.approx([f for _, f in replay.trace[1:]], rel=1e-14)
    assert state.x == pytest.approx(replay.x_final, rel=1e-14)
    assert np.array_equal(np.array(draws.log), batch[:3])


def test_closing_a_window_inside_its_block_applies_the_blocks_steps():
    # a reader that walks a block and closes the steps at its last value
    # has the steps of every value the block held applied and logged
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=3))
    b = obj.curvature_matrix()
    draws = make_sampler(b, 2).draws(RngStream(5), 4096, log=[])
    state = obj.init_state(np.zeros(40))
    stepper = objectives.steps(state, draws, b, exact=True)
    values = _yielded(stepper, 23)
    stepper.close()
    assert len(draws.log) == 23
    replay = run(obj, b, SolverConfig(method="rcdvs", tau=2, max_iters=23,
                                      forced_subsets=draws.log))
    assert state.value == values[-1]
    assert values == pytest.approx([f for _, f in replay.trace[1:]], rel=1e-12)
    assert np.abs(state.x - replay.x_final).max() <= _WINDOW_RTOL * np.abs(replay.x_final).max()


@pytest.mark.parametrize("method", ["rcdvs", "sdna"])
@pytest.mark.parametrize(
    "singular",
    [
        [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]],  # third pivot exactly 0
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot exactly 0
    ],
)
def test_window_meets_a_singular_three_block_as_the_per_step_path_does(method, singular):
    # the third subset is the singular block {0, 1, 2}: the window takes the
    # two subsets before it; at the block rcdvs raises and sdna takes its
    # pseudoinverse step, and the stream has logged up to that block
    a = np.zeros((5, 5))
    a[:3, :3] = singular
    a[3:, 3:] = [[2.0, 1.0], [1.0, 2.0]]
    obj = QuadraticObjective(a, np.array([1.0, 0.5, 0.5, -1.0, 0.25]))
    batch = np.array([[0, 3, 4], [2, 3, 4], [0, 1, 2], [1, 3, 4]])
    draws = Draws(iter([batch]), 3, log=[])
    state = obj.init_state(np.zeros(5))
    stepper = objectives.steps(state, draws, a, exact=method == "rcdvs")
    assert stepper.__name__ == "_dense_window_steps"
    values = _yielded(stepper, 2)
    if method == "rcdvs":
        with pytest.raises(SingularSubmatrix):
            next(stepper)
        taken = 2
    else:
        values += _yielded(stepper, 1)
        taken = 3
    replay = run(obj, a, SolverConfig(method=method, tau=3, max_iters=taken,
                                      forced_subsets=list(batch[:taken])))
    assert values == pytest.approx([f for _, f in replay.trace[1:]], rel=1e-14)
    assert state.x == pytest.approx(replay.x_final, rel=1e-14, abs=1e-14)
    assert np.array_equal(np.array(draws.log), batch[:3])


def _assert_same_run(a, b):
    """Bitwise the same run, whatever the two traces' cadences."""
    assert _outcome(a)[:3] + _outcome(a)[4:] == _outcome(b)[:3] + _outcome(b)[4:]


def _assert_same_trace(traced, walked, every):
    """The same run, and ``traced``'s trace, at every ``every``-th step and
    the last, bitwise the trace of ``walked``, which traces every step."""
    _assert_same_run(traced, walked)
    expected = [(k, f) for k, f in walked.trace if k % every == 0 or k == walked.iterations]
    assert np.array(traced.trace).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("method, tau", _WINDOWED)
def test_a_block_taken_whole_is_bitwise_its_value_by_value_walk(monkeypatch, method, tau):
    # trace_every = 2**62 lets run take each block of values whole unless
    # it may stop inside; trace_every = 1 walks every block value by value;
    # trace_every = per - 1 takes and traces a block whose last value lands
    # on a trace point, and walks one with a trace point inside
    obj, _, f_star = gen_quadratic(ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=3))
    b = obj.curvature_matrix()
    x0 = np.random.default_rng(4).standard_normal(40)
    per = objectives._WINDOW // tau
    base = SolverConfig(method=method, tau=tau, seed=5, x0=x0, record_subsets=True)
    # the first two windows are whole: a block of per - 1 values, then a float
    stepper = objectives.steps(obj.init_state(x0), _stream(method, b, tau).draws(
        RngStream(5), solvers._SAMPLE_CHUNK), b, exact=method != "sdna")
    sizes = [value[0] if type(value) is tuple else 1 for value in
             (next(stepper) for _ in range(4))]
    stepper.close()
    assert sizes == [per - 1, 1, per - 1, 1]
    values = [f for _, f in run(obj, b, replace(base, max_iters=2 * per, trace_every=1)).trace]
    cases = []
    # gap stops at the first, a middle and the last value of the second
    # block that lowers the value: a step that lowers it by 0 cannot be
    # the first below a gap
    lower = [k for k in range(per + 1, 2 * per) if values[k] < values[k - 1]]
    assert lower[0] <= per + 3 and lower[-1] >= 2 * per - 3
    for step in (lower[0], lower[len(lower) // 2], lower[-1]):
        gap = (values[step - 1] - values[step]) / 2
        cases.append((dict(target_gap=gap, f_star=values[step] - gap / 2, max_iters=10**5),
                      b, step))
    cases.append((dict(max_iters=3 * per + per // 2), b, 3 * per + per // 2))
    # B = 0.45 A diverges: no window is taken
    cases.append((dict(target_gap=1e-3, f_star=f_star, max_iters=10**5), 0.45 * b, None))
    calls = _window_spy(monkeypatch)
    for stop, curvature, expected in cases:
        calls.clear()
        with np.errstate(all="ignore"):
            whole = run(obj, curvature, replace(base, trace_every=2**62, **stop))
            walked = run(obj, curvature, replace(base, trace_every=1, **stop))
            ends = run(obj, curvature, replace(base, trace_every=per - 1, **stop))
        assert calls == [1, 1, 1]
        _assert_same_run(whole, walked)
        _assert_same_trace(ends, walked, per - 1)
        if expected is None:
            assert whole.capped and not np.isfinite(whole.final_value)
        else:
            assert whole.iterations == expected
    # refreshes every 100 steps, at steps inside the windows of an unpatched run
    monkeypatch.setattr(objectives, "REFRESH_INTERVAL", 100)
    for stop in (dict(max_iters=450), dict(target_gap=1e-3, f_star=f_star, max_iters=10**5)):
        whole = run(obj, b, replace(base, trace_every=2**62, **stop))
        walked = run(obj, b, replace(base, trace_every=1, **stop))
        _assert_same_run(whole, walked)
        _assert_same_trace(run(obj, b, replace(base, trace_every=per - 1, **stop)), walked,
                           per - 1)
        assert whole.iterations > 100


@pytest.mark.parametrize("method, tau", _WINDOWED)
@pytest.mark.parametrize("early", [True, False])
def test_window_stops_where_check_stop_does(monkeypatch, method, tau, early):
    # as for the fused sparse loop, with step 47, the last value of a block
    # for every window size: there value - f_star <= gap and value <=
    # f_star + gap disagree.  Early, the first holds and the run stops at
    # 47; late, only the second holds and the run goes on.  A block is taken
    # whole only when the stop rule's own expression misses the gap at its
    # last value.  The early case needs a gap that is not small against
    # f_star, where value - f_star rounds.
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=30, lam1=400.0, seed=3))
    b = obj.curvature_matrix()
    cfg = SolverConfig(method=method, tau=tau, max_iters=60, seed=38, trace_every=1)
    values = [f for _, f in run(obj, b, cfg).trace]
    v = values[47]
    gap, f_star = next(
        (gap, f)
        for gap in [1e-6, 2e-6, 3e-6, 7e-7] + [k / 8 * abs(v) for k in range(12, 160)]
        for f in (v - gap + d * np.spacing(v - gap) for d in range(-8, 9))
        if (v - f <= gap) == early and (v <= f + gap) != early
    )
    cfg = replace(cfg, target_gap=gap, f_star=f_star, record_subsets=True)
    ended = cfg.stop_rule()
    stop = next(k for k, f in enumerate(values) if ended(k, f))
    assert stop == 47 if early else stop > 47
    calls = _window_spy(monkeypatch)
    whole = run(obj, b, replace(cfg, trace_every=2**62))
    walked = run(obj, b, cfg)
    assert calls == [1, 1]
    _assert_same_run(whole, walked)
    assert whole.iterations == stop


def test_vectorized_pivot_tests_match_the_closed_forms():
    # solve.regular is the window's test of which blocks the closed forms
    # solve; on small-integer blocks, many of them singular or indefinite
    # with pivots of exactly 0, it decides as one, two and three do
    rng = np.random.default_rng(50)
    for size in (1, 2, 3):
        blocks = [np.array(m, dtype=float) for m in (
            np.diag([0.0] * size), np.diag([np.nan] + [1.0] * (size - 1)))]
        for _ in range(400):
            f = rng.integers(-2, 3, size=(size, size))
            blocks.append((f @ f.T + np.diag(rng.integers(-1, 2, size=size))).astype(float))
        upper = np.triu_indices(size, 1)
        d = np.array([m.diagonal() for m in blocks])
        o = np.array([m[upper] for m in blocks]).reshape(len(blocks), -1)
        closed = []
        for m in blocks:
            try:
                _make_step_solver(m, exact=True)(np.arange(size), np.ones(size))
                closed.append(True)
            except SingularSubmatrix:
                closed.append(False)
        # the window's input: the blocks' diagonals and upper entries
        regular = _make_step_solver(scipy.linalg.block_diag(*blocks), exact=True).regular
        assert regular(d.T, o.T).tolist() == closed
        assert 50 < sum(closed) < len(blocks) - 50


@pytest.mark.parametrize("method, tau", _WINDOWED)
def test_window_steps_past_the_value_limit_one_subset_at_a_time(monkeypatch, method, tau):
    # a start at f(x0) = 4e300 puts the first values above _VALUE_LIMIT:
    # a window from a value above it is not taken, and it and the rest of a
    # window's worth of subsets take the per-step path; the windows take
    # over below it
    obj, _, _ = gen_quadratic(ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=3))
    u = np.random.default_rng(4).standard_normal(40)
    x0 = u * np.sqrt(4e300 / obj.value(u))
    per_step = []
    apply = objectives._QuadraticDenseState._apply

    def counting(state, s, h):
        per_step.append(1)
        apply(state, s, h)

    cfg = SolverConfig(method=method, tau=tau, seed=5, x0=x0, max_iters=400, trace_every=1,
                       record_subsets=True)
    monkeypatch.setattr(objectives._QuadraticDenseState, "_apply", counting)
    windowed = run(obj, obj.a, cfg)
    monkeypatch.setattr(objectives._QuadraticDenseState, "_apply", apply)
    replay = run(obj, obj.a, replace(cfg, forced_subsets=windowed.subsets))
    _assert_agree(windowed, replay)
    above = sum(f > objectives._VALUE_LIMIT for _, f in windowed.trace[:-1])
    per = objectives._WINDOW // tau
    assert 0 < above <= len(per_step) < above + per
    assert len(per_step) % per == 0 and len(per_step) < windowed.iterations == 400


# ---------------------------------------------------------------------------
# windows of four or more coordinates per subset


def test_subsets_wider_than_the_window_take_one_subset_windows(monkeypatch):
    # tau = 50 > _WINDOW: every window holds one subset, whose step is
    # yielded as a float and solved by np.linalg.solve on B[S, S]
    obj, _, f_star = gen_quadratic(ProblemSpec(kind="quadratic", n=60, lam1=400.0, seed=3))
    b = obj.curvature_matrix()
    x0 = np.random.default_rng(4).standard_normal(60)
    stepper = objectives.steps(obj.init_state(x0), _stream("sdna", b, 50).draws(
        RngStream(5), solvers._SAMPLE_CHUNK), b, exact=False)
    assert stepper.__name__ == "_dense_window_steps"
    assert all(isinstance(next(stepper), float) for _ in range(20))
    stepper.close()
    for stop in (dict(target_gap=1e-9, f_star=f_star, max_iters=100_000), dict(max_iters=40)):
        cfg = SolverConfig(method="sdna", tau=50, seed=5, x0=x0, trace_every=1, **stop)
        windowed, replay = _window_and_replay(monkeypatch, obj, b, cfg)
        _assert_agree(windowed, replay)
        assert 0 < windowed.iterations < 100_000 and not windowed.capped
        drawn = _stream("sdna", b, 50).sample_many(RngStream(5), windowed.iterations)
        assert np.array_equal(np.array(windowed.subsets), drawn)


@pytest.mark.parametrize("method, tau", [("rcdvs", 4), ("sdna", 4), ("rcdvs", 8), ("sdna", 8)])
def test_window_of_four_or_more_coordinates_stops_a_diverging_run_at_its_replays_step(
        monkeypatch, method, tau):
    # B = A / 4 overshoots, as at tau <= 3: no window is taken, and the run
    # steps one subset at a time to its replay's first non-finite value
    for problem_seed in (0, 1):
        obj, _, f_star = gen_quadratic(
            ProblemSpec(kind="quadratic", n=40, lam1=400.0, seed=problem_seed))
        for seed in range(4):
            cfg = SolverConfig(method=method, tau=tau, seed=seed, target_gap=1e-3,
                               f_star=f_star, max_iters=100_000, trace_every=1)
            windowed, replay = _window_and_replay(monkeypatch, obj,
                                                  obj.curvature_matrix() / 4, cfg)
            where = f"problem seed {problem_seed}, solver seed {seed}"
            assert windowed.capped and not np.isfinite(windowed.final_value), where
            assert windowed.iterations == replay.iterations < 100_000, where
            assert np.isfinite([f for _, f in windowed.trace[:-1]]).all(), where


def test_window_leaves_every_block_lapack_refuses_to_the_per_step_path(monkeypatch):
    # coordinate 3 has a zero row and column, so every block that holds it
    # is singular; in copied_row every block that holds 0 and 1 is, though
    # LAPACK's Cholesky accepts some of them.  Each such block ends its
    # window and takes sdna's per-step pseudoinverse step, the windows take
    # every other block, and the run matches its replay
    rng = np.random.default_rng(60)
    zero_row = spd_quadratic(rng, 8).a
    zero_row[3, :] = zero_row[:, 3] = 0.0
    rhs = rng.standard_normal(8)
    copied = copied_row(61, 8)
    cases = [
        (zero_row, np.where(np.arange(8) == 3, 0.0, rhs), lambda s: 3 in s, (100, 200)),
        (copied, np.where(np.arange(8) == 1, rhs[0], rhs), lambda s: {0, 1} <= set(s), (30, 110)),
    ]
    apply = objectives._QuadraticDenseState._apply
    for a, rhs, singular, (low, high) in cases:
        obj = QuadraticObjective(a, rhs)
        pseudo, per_step = [], []

        def counting_pseudo(m, g):
            pseudo.append(1)
            return pseudo_solve(m, g)

        def counting_apply(state, s, h):
            per_step.append(singular(s.tolist()))
            apply(state, s, h)

        monkeypatch.setattr(objectives, "pseudo_solve", counting_pseudo)
        monkeypatch.setattr(objectives._QuadraticDenseState, "_apply", counting_apply)
        cfg = SolverConfig(method="sdna", tau=4, seed=61, max_iters=300, trace_every=1)
        windowed = run(obj, a, replace(cfg, record_subsets=True))
        monkeypatch.setattr(objectives._QuadraticDenseState, "_apply", apply)
        holding = sum(singular(s.tolist()) for s in windowed.subsets)
        assert per_step == [True] * holding and len(pseudo) == holding
        assert low < holding < high
        windowed, replay = _window_and_replay(monkeypatch, obj, a, cfg)
        _assert_agree(windowed, replay)


def test_window_block_test_of_four_or_more_coordinates_is_the_per_step_solves():
    # solve.regular is the pivot kernel's verdict, and the per-step solve
    # tests its block by the same kernel: on small-integer blocks, many of
    # them singular, and on copied-row blocks, it decides as the per-step
    # solve does
    rng = np.random.default_rng(51)
    for size in (4, 5, 8):
        blocks = [np.diag([0.0] * size), np.ones((size, size))]
        for _ in range(200):
            # rank size // 2 plus a 0/1 diagonal: singular unless the
            # diagonal adds the missing rank
            f = rng.integers(-2, 3, size=(size, size // 2))
            blocks.append((f @ f.T + np.diag(rng.integers(0, 2, size=size))).astype(float))
        blocks += [copied_row(seed, size + 2)[:size, :size] for seed in range(40)]
        solve = _make_step_solver(scipy.linalg.block_diag(*blocks), exact=True)
        subsets = np.arange(len(blocks) * size).reshape(-1, size)
        per_step = []
        for s in subsets:
            try:
                solve(s, np.ones(size))
                per_step.append(True)
            except SingularSubmatrix:
                per_step.append(False)
        upper = np.triu_indices(size, 1)
        d = np.array([m.diagonal() for m in blocks])
        o = np.array([m[upper] for m in blocks])
        assert solve.regular(d.T, o.T).tolist() == per_step
        assert 20 < sum(per_step) < len(blocks) - 20


# ---------------------------------------------------------------------------
# the fused loop of sparse separable runs

_SPARSE_KINDS = ("huber", "square", "logistic", "ridge-logistic")
_SPARSE_LOOP = "_sparse_separable_steps"


def _sparse_separable(kind, tmp_path, gamma=0.5):
    """A 40 x 17 sparse separable objective and its CSR curvature matrix.

    Columns 9..16 copy columns 0..7 and column 8 is empty, so B has singular
    pairs and a zero diagonal entry.  The logistic objectives are read from
    a LIBSVM file, without ridge or with ridge weight ``gamma``."""
    import scipy.sparse

    rng = np.random.default_rng(30)
    base = scipy.sparse.random(40, 8, density=0.3, random_state=30, format="csc",
                               data_rvs=rng.standard_normal)
    a = scipy.sparse.hstack([base, scipy.sparse.csc_matrix((40, 1)), base]).tocsr()
    if kind == "huber":
        obj = SeparableObjective(a, rng.standard_normal(40), HuberLoss(0.5))
    elif kind == "square":
        obj = SeparableObjective(a, rng.standard_normal(40), SquareLoss())
    else:
        path = tmp_path / "data.svm"
        with open(path, "w", encoding="utf-8") as fh:
            for row, label in zip(a.toarray(), rng.choice([-1, 1], size=40)):
                feats = " ".join(f"{j + 1}:{float(row[j])!r}" for j in np.flatnonzero(row))
                fh.write(f"{label:+d} {feats}\n")
        obj = load_libsvm(path, gamma=gamma if kind == "ridge-logistic" else 0.0)
    return obj, obj.curvature_matrix()


@pytest.mark.parametrize("method, tau", [("rcd", 1), ("rcdvs", 2), ("rcdvs", 3), ("sdna", 2)])
@pytest.mark.parametrize("kind", _SPARSE_KINDS)
def test_sparse_fused_loop_is_bitwise_the_generic_loop(monkeypatch, tmp_path, kind, method, tau):
    obj, b = _sparse_separable(kind, tmp_path)
    x0 = np.random.default_rng(31).standard_normal(obj.n)
    f0 = obj.value(x0)
    f_ref = run(obj, b, SolverConfig(method="rcd", max_iters=2000, seed=32, x0=x0)).final_value
    calls = []

    def counting(m, rhs):
        calls.append(1)
        return pseudo_solve(m, rhs)

    monkeypatch.setattr(objectives, "pseudo_solve", counting)
    for trace_every in (1, 7):
        for stop in (dict(target_gap=0.05 * (f0 - f_ref), f_star=f_ref, max_iters=20_000),
                     dict(max_iters=300)):
            cfg = SolverConfig(method=method, tau=tau, seed=33, x0=x0, trace_every=trace_every,
                               record_subsets=True, **stop)
            direct, generic = _both_paths(monkeypatch, obj, b, cfg, _SPARSE_LOOP)
            assert _outcome(direct) == _outcome(generic)
            assert 0 < direct.iterations < 20_000 and not direct.capped
    # uniform pairs meet the copied columns and the empty one, whose 2x2
    # blocks are singular without ridge: sdna takes the pseudoinverse step
    assert (len(calls) > 0) == (method == "sdna" and kind != "ridge-logistic")


@pytest.mark.parametrize("kind", _SPARSE_KINDS)
def test_sparse_fused_loop_matches_on_forced_subsets_of_every_size(monkeypatch, tmp_path, kind):
    # rcdvs steps on distinct columns; sdna's subsets may hold a copied
    # column or the empty one, and so singular blocks of every size
    obj, b = _sparse_separable(kind, tmp_path)
    rng = np.random.default_rng(34)
    for method, pool in (("rcdvs", 8), ("sdna", obj.n)):
        forced = [np.sort(rng.choice(pool, size=1 + p % 5, replace=False)) for p in range(60)]
        cfg = SolverConfig(method=method, tau=2, max_iters=len(forced),
                           forced_subsets=forced, trace_every=1, record_subsets=True)
        direct, generic = _both_paths(monkeypatch, obj, b, cfg, _SPARSE_LOOP)
        assert _outcome(direct) == _outcome(generic)
        assert direct.iterations == len(forced)
        assert direct.final_value == pytest.approx(obj.value(direct.x_final), rel=1e-12)


@pytest.mark.parametrize("singular", [[8], [0, 9], [0, 9, 12]])
@pytest.mark.parametrize("kind", ["huber", "logistic"])
def test_sparse_fused_loop_raises_on_the_same_singular_step(monkeypatch, tmp_path, kind, singular):
    # the fourth forced subset is an empty column, a column and its copy, or
    # a block whose second pivot is zero: both loops take the first three
    # steps alike and raise at the fourth
    obj, b = _sparse_separable(kind, tmp_path)
    forced = [[0], [2, 3], [1, 4, 5], singular, [6]]
    cfg = SolverConfig(method="rcdvs", tau=2, max_iters=3, forced_subsets=forced)
    direct, generic = _both_paths(monkeypatch, obj, b, cfg, _SPARSE_LOOP)
    assert _outcome(direct) == _outcome(generic) and direct.iterations == 3
    for target in (obj, _PublicObjective(obj)):
        with pytest.raises(SingularSubmatrix):
            run(target, b, replace(cfg, max_iters=4))


@pytest.mark.parametrize("kind", ["huber", "ridge-logistic"])
def test_sparse_fused_loop_refreshes_at_the_generic_loops_steps(monkeypatch, tmp_path, kind):
    # a refresh replaces z, ell and w (and recomputes the squared norm under
    # ridge): the fused loop must go on with the new arrays, at the steps
    # where the generic loop refreshes
    monkeypatch.setattr(objectives, "REFRESH_INTERVAL", 7)
    refreshed = []
    refresh = objectives.GradientState.refresh

    def spy(state):
        refreshed.append((type(state).__name__, state.x.tobytes()))
        refresh(state)

    monkeypatch.setattr(objectives.GradientState, "refresh", spy)
    obj, b = _sparse_separable(kind, tmp_path)
    rng = np.random.default_rng(35)
    forced = [np.sort(rng.choice(8, size=1 + p % 4, replace=False)) for p in range(100)]
    # one refresh per interval, with or without ridge
    per_run = 100 // 7
    for extra in (dict(method="rcd", tau=1), dict(method="rcdvs", tau=2),
                  dict(method="sdna", tau=2), dict(method="rcdvs", tau=2, forced_subsets=forced)):
        cfg = SolverConfig(max_iters=100, seed=36, trace_every=1, record_subsets=True, **extra)
        refreshed.clear()
        direct, generic = _both_paths(monkeypatch, obj, b, cfg, _SPARSE_LOOP)
        assert len(refreshed) == 2 * per_run
        assert refreshed[:per_run] == refreshed[per_run:]
        assert _outcome(direct) == _outcome(generic)
        full = obj.value(direct.x_final)
        assert abs(direct.final_value - full) <= 1e-9 * abs(full)


@pytest.mark.parametrize("method, tau, trace_every", [
    pytest.param(method, tau, every, id=f"{method}-{tau}{suffix}")
    for every, suffix in ((5, ""), (2**62, "-untraced"))
    for method, tau in (("rcd", 1), ("rcdvs", 2), ("rcdvs", 3), ("sdna", 2))
])
@pytest.mark.parametrize("kind", ["square", "ridge-logistic"])
def test_sparse_fused_loop_stops_a_diverging_run_where_the_generic_loop_does(
    monkeypatch, tmp_path, kind, method, tau, trace_every
):
    # a quarter of the curvature overshoots each step threefold on the
    # square loss and on a dominant ridge term: both loops stop at the same
    # first non-finite value.  Untraced, the values rise, so the blocks
    # fall back to single steps.
    obj, b = _sparse_separable(kind, tmp_path, gamma=8.0)
    quarter = CsrSymmetricUpper.from_dense(b.to_dense() / 4)
    cfg = SolverConfig(method=method, tau=tau, seed=37, target_gap=1e-3, f_star=0.0,
                       max_iters=20_000, trace_every=trace_every)
    direct, generic = _both_paths(monkeypatch, obj, quarter, cfg, _SPARSE_LOOP)
    assert _outcome(direct) == _outcome(generic)
    assert not np.isfinite(direct.final_value) and direct.iterations < 20_000
    assert np.isfinite([f for _, f in direct.trace[:-1]]).all()


@pytest.mark.parametrize("kind", ["huber", "ridge-logistic"])
def test_sparse_fused_loop_stops_where_check_stop_does(monkeypatch, tmp_path, kind):
    # as for the dense loop: at step 40, value - f_star <= gap is false
    # while value <= f_star + gap is true, and both loops stop where the
    # stop rule says, on the state's own value expression under ridge
    obj, b = _sparse_separable(kind, tmp_path)
    cfg = SolverConfig(method="rcd", tau=1, max_iters=60, seed=38, trace_every=1)
    values = [f for _, f in run(obj, b, cfg).trace]
    v = values[40]
    gap, f_star = next(
        (gap, f)
        for gap in (1e-6, 2e-6, 3e-6, 7e-7)
        for f in (v - gap + d * np.spacing(v) for d in range(-8, 9))
        if v <= f + gap and not v - f <= gap
    )
    cfg = replace(cfg, target_gap=gap, f_star=f_star)
    ended = cfg.stop_rule()
    stop = next(k for k, f in enumerate(values) if ended(k, f))
    assert stop > 40
    direct, generic = _both_paths(monkeypatch, obj, b, cfg, _SPARSE_LOOP)
    assert _outcome(direct) == _outcome(generic)
    assert direct.iterations == stop


@pytest.mark.parametrize(
    "method, tau, kind",
    [("rcd", 1, "huber"), ("rcdvs", 2, "huber"),
     ("rcd", 1, "ridge-logistic"), ("rcdvs", 2, "ridge-logistic")],
    ids=["rcd-1", "rcdvs-2", "rcd-1-ridge-logistic", "rcdvs-2-ridge-logistic"],
)
def test_sparse_huber_value_does_not_drift_over_a_long_run(method, tau, kind):
    # 20k steps on a sparse Huber instance and on a ridge logistic one of
    # perfbench's shapes (about 33 and 250 rows per column): the value the
    # steps maintain one column at a time stays with a from-scratch
    # evaluation at the final iterate
    if kind == "huber":
        obj, _, _ = gen_huber(ProblemSpec(kind="huber", n=200, m=500, sparsity=10, mu=0.01,
                                          seed=4))
    else:
        import scipy.sparse

        rng = np.random.default_rng(4)
        a = scipy.sparse.random(1000, 40, density=0.25, random_state=4, format="csr",
                                data_rvs=rng.standard_normal)
        labels = np.sign(rng.standard_normal(1000))
        obj = RegularizedObjective(SeparableObjective(a, labels, LogisticLoss()), 1.0)
    rep = run(obj, obj.curvature_matrix(),
              SolverConfig(method=method, tau=tau, seed=5, max_iters=20_000, trace_every=1000))
    assert rep.iterations == 20_000
    full = obj.value(rep.x_final)
    assert abs(rep.final_value - full) <= 1e-10 * max(1.0, abs(full))


def _block_spy(monkeypatch):
    """The lengths of the runs of subsets that ``Draws.take`` took, and the
    ``lazy`` flag of each fused sparse step built: the fused step takes a
    stream's subsets through ``take`` only for a block taken whole."""
    taken, flags = [], []
    take, fused = Draws.take, objectives._sparse_separable_steps

    def take_spy(draws, m):
        taken.append(m)
        take(draws, m)

    def fused_spy(*args):
        flags.append(args[3])
        return fused(*args)

    monkeypatch.setattr(Draws, "take", take_spy)
    monkeypatch.setattr(objectives, _SPARSE_LOOP, fused_spy)
    return taken, flags


@pytest.mark.parametrize("method, tau", [("rcd", 1), ("rcdvs", 2), ("rcdvs", 3), ("sdna", 2)])
@pytest.mark.parametrize("kind", _SPARSE_KINDS)
def test_an_untraced_sparse_run_takes_blocks_bitwise_its_forced_replay(
        monkeypatch, tmp_path, kind, method, tau):
    # untraced, a sampled run steps in blocks and replays the block where it
    # stops one step at a time; its forced replay steps one at a time
    # throughout, and both end alike, by the gap and by the budget
    obj, b = _sparse_separable(kind, tmp_path)
    x0 = np.random.default_rng(31).standard_normal(obj.n)
    f0 = obj.value(x0)
    f_ref = run(obj, b, SolverConfig(method="rcd", max_iters=2000, seed=32, x0=x0)).final_value
    taken, flags = _block_spy(monkeypatch)
    per = objectives._BLOCK
    for stop in (dict(target_gap=1e-7 * (f0 - f_ref), f_star=f_ref, max_iters=20_000),
                 dict(max_iters=777)):
        cfg = SolverConfig(method=method, tau=tau, seed=33, x0=x0, trace_every=2**62,
                           record_subsets=True, **stop)
        taken.clear()
        flags.clear()
        sampled = run(obj, b, cfg)
        assert flags == [True] and taken and set(taken) == {per}
        assert sampled.iterations > len(taken) * per
        taken.clear()
        flags.clear()
        replay = run(obj, b, replace(cfg, forced_subsets=sampled.subsets))
        assert flags == [False] and taken == []
        assert _outcome(sampled) == _outcome(replay)
        assert sampled.status == ("budget" if "target_gap" not in stop else "converged")
        # a run traced at a multiple of the block's length takes blocks,
        # and traces each block's last value; other traced runs take none
        traced = run(obj, b, replace(cfg, trace_every=2 * per))
        assert flags[-1] is True and taken and set(taken) == {per}
        replay = run(obj, b, replace(cfg, trace_every=2 * per, forced_subsets=traced.subsets))
        assert _outcome(traced) == _outcome(replay)
        assert len(traced.trace) == 2 + traced.iterations // (2 * per)
        taken.clear()
        for every in (1, 7, per + 16):
            traced = run(obj, b, replace(cfg, trace_every=every))
            assert flags[-1] is False and taken == []
            assert _outcome(traced)[:3] == _outcome(sampled)[:3]


@pytest.mark.parametrize("kind", ["huber", "ridge-logistic"])
def test_a_sparse_rowwise_value_is_the_exact_sum_at_every_blocks_end(tmp_path, kind):
    # at every _BLOCK-th step the value is bitwise the loss summed afresh at
    # the state's z plus its ridge term, whether the state steps one step
    # at a time through its public methods or the fused step, or in blocks
    per = objectives._BLOCK
    for interval in (objectives.REFRESH_INTERVAL, solvers._SAMPLE_CHUNK,
                     sampling._SUB_BATCH):
        assert interval % per == 0
    obj, b = _sparse_separable(kind, tmp_path)
    inner = obj.inner if kind == "ridge-logistic" else obj

    def exact(state):
        total = float(inner.loss.eval(state._z, inner.b)[0].sum())
        return total + 0.5 * state._gamma * state._sq if state._gamma else total

    sampler, solve = make_sampler(b, 2), _make_step_solver(b, True)
    public = obj.init_state(np.zeros(obj.n))
    ends = []
    for k, s in enumerate(sampler.sample_many(RngStream(41), 256)[: 3 * per], start=1):
        public.apply_step(s, solve(s, public.partial_gradient(s)))
        if k % per == 0:
            assert public.value == exact(public)
            ends.append((public.value, public.x.tobytes()))
    for every in (1, 2**62):
        for blocks in range(1, 4):
            state = obj.init_state(np.zeros(obj.n))
            stepper = objectives.steps(state, sampler.draws(RngStream(41), 256), b, True,
                                       trace_every=every)
            values = [next(stepper) for _ in range(blocks if every > 1 else blocks * per)]
            # untraced, each value is a block's (length, last value); the
            # close at the last block's end takes that block
            stepper.close()
            if every > 1:
                assert [length for length, _ in values] == [per] * blocks
                values = [last for _, last in values]
            assert state._steps == blocks * per
            assert values[-1] == state.value == exact(state) == ends[blocks - 1][0]
            assert state.x.tobytes() == ends[blocks - 1][1]


def test_a_lazy_block_under_a_b_that_does_not_bound_f_may_pass_the_target(tmp_path):
    # with B_00 cut to 0.3 of its value B no longer bounds f, and the steps
    # on coordinate 0 overshoot, so values rise inside some blocks.  With the
    # target at the first new low that its block's end rises above again
    # (the end not above the block's start), the per-step run and the forced
    # replay stop at that low; the untraced run sees only the block's end,
    # takes the block and stops later
    obj, b = _sparse_separable("huber", tmp_path)
    dense = b.to_dense()
    dense[0, 0] *= 0.3
    under, per = CsrSymmetricUpper.from_dense(dense), objectives._BLOCK
    cfg = SolverConfig(method="rcd", tau=1, seed=33, max_iters=3000)
    values = [value for _, value in run(obj, under, cfg).trace]

    def passed(k):
        start, end = values[k - k % per], values[k - k % per + per]
        return k % per and values[k] < min(values[:k]) and values[k] < end <= start

    low = next(k for k in range(1, len(values) - per) if passed(k))
    stop = replace(cfg, target_gap=values[low], f_star=0.0, record_subsets=True)
    stepped = run(obj, under, stop)
    assert (stepped.iterations, stepped.status) == (low, "converged")
    lazy = run(obj, under, replace(stop, trace_every=2**62))
    assert lazy.status == "converged" and lazy.iterations >= low - low % per + per
    replay = run(obj, under, replace(stop, forced_subsets=lazy.subsets))
    assert _outcome(replay) == _outcome(stepped)


def test_a_tall_sparse_state_takes_no_checkpoints_and_no_blocks(monkeypatch):
    # 4000 rows and 3 nonzeros in each of 40 columns: a sum over all rows
    # costs more than the rows _BLOCK steps touch, so the value keeps the
    # per-step changes alone and an untraced run steps one step at a time,
    # bitwise a traced run and the public methods
    import scipy.sparse

    rng = np.random.default_rng(43)
    rows = np.concatenate([rng.choice(4000, 3, replace=False) for _ in range(40)])
    a = scipy.sparse.csc_matrix((rng.standard_normal(120), (rows, np.repeat(np.arange(40), 3))),
                                shape=(4000, 40))
    obj = SeparableObjective(a, rng.standard_normal(4000), HuberLoss(0.5))
    b = obj.curvature_matrix()
    assert objectives._BLOCK * 120 < 4000 * 40
    assert not obj.init_state(np.zeros(40))._checkpoints
    taken, flags = _block_spy(monkeypatch)
    for method, tau in (("rcd", 1), ("rcdvs", 2)):
        cfg = SolverConfig(method=method, tau=tau, seed=44, max_iters=500, trace_every=2**62)
        untraced = run(obj, b, cfg)
        assert flags == [False] and taken == []
        traced = run(obj, b, replace(cfg, trace_every=1))
        assert _outcome(traced)[:3] == _outcome(untraced)[:3]
        generic = run(_PublicObjective(obj), b, cfg)
        assert _outcome(generic) == _outcome(untraced)
        flags.clear()


# ---------------------------------------------------------------------------
# one subset drawn per iteration


@pytest.mark.parametrize("kind, trace_every", [
    pytest.param("dense", 1, id="dense"),
    pytest.param("huber", 1, id="huber"),
    pytest.param("ridge-logistic", 1, id="ridge-logistic"),
    pytest.param("huber", 2**62, id="huber-untraced"),
    pytest.param("ridge-logistic", 2**62, id="ridge-logistic-untraced"),
])
def test_a_run_draws_exactly_one_subset_per_iteration(monkeypatch, tmp_path, kind, trace_every):
    # the steps take a subset only when the loop asks for the next value: a
    # run that stops at the gap or at its budget has consumed the first k
    # subsets of its stream, through the window (a dense quadratic's sdna
    # run), the fused sparse step and the public methods alike.  Untraced,
    # the fused step takes blocks, and both runs stop inside one.
    if kind == "dense":
        obj, _, f_star = gen_quadratic(ProblemSpec(kind="quadratic", n=30, lam1=400.0, seed=3))
        b, gap = obj.curvature_matrix(), 1e-3
    else:
        obj, b = _sparse_separable(kind, tmp_path)
        f_star = run(obj, b, SolverConfig(method="rcd", max_iters=2000, seed=32)).final_value
        gap = 0.05 * (obj.value(np.zeros(obj.n)) - f_star)
    for stop, budget in ((dict(target_gap=gap, f_star=f_star, max_iters=100_000), False),
                         (dict(max_iters=200), True)):
        cfg = SolverConfig(method="sdna", tau=2, seed=39, record_subsets=True,
                           trace_every=trace_every, **stop)
        if kind == "dense":
            reps = _window_and_replay(monkeypatch, obj, b, cfg)
            _assert_agree(*reps)
        else:
            reps = _both_paths(monkeypatch, obj, b, cfg, _SPARSE_LOOP)
            assert _outcome(reps[0]) == _outcome(reps[1])
        direct = reps[0]
        assert (direct.iterations == 200) if budget else (0 < direct.iterations < 100_000)
        assert not direct.capped
        if trace_every > 1:
            assert direct.iterations > objectives._BLOCK
            assert direct.iterations % objectives._BLOCK
        drawn = UniformSampler(obj.n, 2).sample_many(RngStream(39), direct.iterations)
        for rep in reps:
            assert len(rep.subsets) == rep.iterations
            assert np.array_equal(np.array(rep.subsets), drawn)


# ---------------------------------------------------------------------------
# how a run ends: one status per stop, on every path


def test_a_run_that_ends_at_its_start_builds_no_steps(monkeypatch):
    # max_iters = 0 ends at the budget, and a start inside the gap has
    # converged, before the steps are built
    def refuse(*args, **kwargs):
        raise AssertionError("a run that ends at k = 0 builds no steps")

    monkeypatch.setattr(objectives, "steps", refuse)
    a = np.diag([1.0, 2.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))
    x0 = np.array([3.0, 3.0])
    f0 = obj.value(x0)
    base = SolverConfig(method="rcdvs", tau=1, x0=x0)
    for stop, status, capped in [
        (dict(max_iters=0), "budget", False),
        (dict(max_iters=0, target_gap=1.0, f_star=f0 - 2.0), "budget", True),
        # the start's gap equals the target exactly: converged (<=)
        (dict(max_iters=10, target_gap=1.0, f_star=f0 - 1.0), "converged", False),
        (dict(target_gap=1.0, f_star=f0 - 0.5), "converged", False),
    ]:
        rep = run(obj, a, replace(base, **stop))
        assert (rep.status, rep.capped, rep.iterations) == (status, capped, 0), stop
        assert rep.trace == [(0, f0)] and rep.x_final.tolist() == x0.tolist()


_PATHS = {"per-step": "_public_steps", "window": "_dense_window_steps", "fused": _SPARSE_LOOP}


def _ended(monkeypatch, path, obj, b, cfg):
    """The report of ``run``, which must take the step generator of
    ``objectives`` that ``path`` names, with every warning an error."""
    calls = []
    loop = getattr(objectives, _PATHS[path])

    def spy(*args):
        calls.append(1)
        return loop(*args)

    monkeypatch.setattr(objectives, _PATHS[path], spy)
    errstate = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run(obj, b, cfg)
    monkeypatch.setattr(objectives, _PATHS[path], loop)
    assert calls == [1] and np.geterr() == errstate
    return rep


@pytest.mark.parametrize("path", list(_PATHS))
def test_each_path_ends_with_the_status_of_its_stop(monkeypatch, tmp_path, path):
    # converged, budget and diverged on the per-step path, the window and
    # the fused sparse step; exhausted where forced subsets take the path,
    # which leaves out the window.  A quarter of the curvature overshoots
    # every step, and the run diverges without a warning.
    if path == "fused":
        obj, b = _sparse_separable("square", tmp_path)
        f_star = run(obj, b, SolverConfig(method="rcd", max_iters=2000, seed=32)).final_value
        gap = 0.05 * (obj.value(np.zeros(obj.n)) - f_star)
        quarter = CsrSymmetricUpper.from_dense(b.to_dense() / 4)
    else:
        quad, _, f_star = gen_quadratic(ProblemSpec(kind="quadratic", n=30, lam1=400.0, seed=3))
        obj = quad if path == "window" else _PublicObjective(quad)
        b, gap = quad.curvature_matrix(), 1e-3
        quarter = b / 4
    gap_stop = dict(target_gap=gap, f_star=f_star, max_iters=100_000)
    base = SolverConfig(method="rcdvs", tau=2, seed=40, trace_every=1, record_subsets=True)

    converged = _ended(monkeypatch, path, obj, b, replace(base, **gap_stop))
    assert (converged.status, converged.capped) == ("converged", False)
    assert 0 < converged.iterations < 100_000
    assert converged.final_value - f_star <= gap < converged.trace[-2][1] - f_star

    budget = _ended(monkeypatch, path, obj, b, replace(base, max_iters=50))
    assert (budget.status, budget.capped, budget.iterations) == ("budget", False, 50)

    for stop in (gap_stop, dict(max_iters=100_000)):
        diverged = _ended(monkeypatch, path, obj, quarter, replace(base, **stop))
        assert (diverged.status, diverged.capped) == ("diverged", "target_gap" in stop)
        assert 0 < diverged.iterations < 100_000 and not np.isfinite(diverged.final_value)
        assert np.isfinite([f for _, f in diverged.trace[:-1]]).all()

    if path == "window":
        return
    forced = replace(base, forced_subsets=budget.subsets[:20])
    for stop, capped in ((dict(max_iters=100), False),
                         (dict(target_gap=gap, f_star=f_star - 1e6, max_iters=100), True)):
        exhausted = _ended(monkeypatch, path, obj, b, replace(forced, **stop))
        assert (exhausted.status, exhausted.capped, exhausted.iterations) == (
            "exhausted", capped, 20)
        assert exhausted.trace == budget.trace[:21]
    # a budget met by the last forced subset ends the run as a budget
    last = _ended(monkeypatch, path, obj, b, replace(forced, max_iters=20))
    assert (last.status, last.iterations) == ("budget", 20)


@pytest.mark.parametrize("method, tau, iterations",
                         [("rcd", 1, 584), ("rcdvs", 2, 396), ("sdna", 4, 400)])
def test_a_diverging_windowed_run_ends_diverged_at_its_first_non_finite_value(
        monkeypatch, method, tau, iterations):
    # B = A / 4 on a spiked quadratic, in budget mode: each run ends at its
    # first non-finite value, reported diverged and not capped, with every
    # numpy warning an error
    obj, _, _ = gen_quadratic(
        ProblemSpec(kind="quadratic", n=60, lam1=400.0, lam2=100.0, seed=0))
    rep = _ended(monkeypatch, "window", obj, obj.curvature_matrix() / 4,
                 SolverConfig(method=method, tau=tau, max_iters=200_000))
    assert (rep.status, rep.capped, rep.iterations) == ("diverged", False, iterations)
    assert not np.isfinite(rep.final_value)
