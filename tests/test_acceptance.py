"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they complete.  Every tolerance is pinned here, not configurable.
"""

import os
import time

import numpy as np
import pytest

from volcd.benchmark import ExperimentConfig, run_experiment
from volcd.linalg import CsrSymmetricUpper, eigendecompose
from volcd.objectives import (
    HuberLoss,
    LogisticLoss,
    QuadraticObjective,
    RegularizedObjective,
    SeparableObjective,
)
from volcd.problems import ProblemSpec, banded_psd, read_libsvm, reference_min
from volcd.rng import RngStream
from volcd.sampling import (
    SparseTwoSampler,
    VolumeSampler,
    exact_probabilities,
    principal_minors,
    subset_counts,
)
from volcd.solvers import SolverConfig, run
from volcd.spectral import (
    acceleration_ratio,
    b_tau,
    d_tau_quadratic,
    elementary_symmetric,
    modulus_quadratic,
    sum_adjugates,
    sum_principal_minors,
)

from oracles import psd_det


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {verdict}{suffix}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _tv(counts: dict, exact: dict, draws: int) -> float:
    return 0.5 * sum(abs(counts.get(s, 0) / draws - p) for s, p in exact.items())


def _random_psd(rng, n, rank=None):
    g = rng.standard_normal((rank or n, n))
    return g.T @ g


# ---------------------------------------------------------------------------


def test_criterion_1_sampler_exactness():
    started = time.perf_counter()
    draws = 100_000
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(10):
        b = _random_psd(rng, 6)
        for tau in (1, 2, 3):
            exact = exact_probabilities(b, tau)
            sampler = VolumeSampler(b, tau)
            samples = sampler.sample_many(RngStream(1000 + trial), draws)
            counts = subset_counts(samples, 6)
            worst = max(worst, _tv(counts, exact, draws))
        pair = SparseTwoSampler(CsrSymmetricUpper.from_dense(b))
        counts = subset_counts(pair.sample_many(RngStream(2000 + trial), draws), 6)
        worst = max(worst, _tv(counts, exact_probabilities(b, 2), draws))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "sampler exactness",
        worst <= 0.02 and elapsed < 30.0,
        f"worst TV {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_minor = 0.0
    worst_adj = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = rng.standard_normal((n, n))
        b = 0.5 * (m + m.T)
        lam = np.linalg.eigvalsh(b)
        for tau in range(1, n + 1):
            lhs = sum_principal_minors(b, tau)
            rhs = elementary_symmetric(lam, tau)
            worst_minor = max(
                worst_minor, abs(lhs - rhs) / max(1.0, abs(rhs))
            )
            spectral = sum_adjugates(b, tau, method="spectral")
            brute = sum_adjugates(b, tau, method="enumerate")
            denom = max(1.0, float(np.linalg.norm(brute)))
            worst_adj = max(
                worst_adj, float(np.linalg.norm(spectral - brute)) / denom
            )
    elapsed = time.perf_counter() - started
    _report(
        2,
        "spectral identity suite",
        worst_minor <= 1e-8 and worst_adj <= 1e-8 and elapsed < 60.0,
        f"minor-sum err {worst_minor:.2e}, adjugate-sum err {worst_adj:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_spectral_bounds():
    from volcd.spectral import expected_step_matrix

    rng = np.random.default_rng(103)
    worst = np.inf
    for trial in range(50):
        n = int(rng.integers(3, 11))
        rank = int(rng.integers(2, n)) if trial < 10 else n
        b = _random_psd(rng, n, rank=rank)
        spec = eigendecompose(b)
        lam = spec.eigenvalues
        for t1 in range(1, rank + 1):
            a1 = b_tau(spec, t1).matrix()
            scale = float(np.linalg.norm(a1, 2))
            for t2 in range(t1, rank + 1):
                a2 = b_tau(spec, t2).matrix()
                r = acceleration_ratio(lam, t1, t2)
                worst = min(
                    worst,
                    float(np.linalg.eigvalsh(a1 - a2).min()) / scale,
                    float(np.linalg.eigvalsh(r * a2 - a1).min()) / scale,
                )
            step = expected_step_matrix(b, t1)
            dom = step - b_tau(spec, t1).inverse()
            dscale = max(1.0, float(np.linalg.norm(step, 2)))
            worst = min(worst, float(np.linalg.eigvalsh(dom).min()) / dscale)
    _report(
        3,
        "surrogate sandwich and expected-step dominance",
        worst >= -1e-10,
        f"worst scaled min-eigenvalue {worst:.2e}",
    )


def _gap_traces(obj, b, tau, runs, iters, seed0):
    gaps = np.empty((runs, iters + 1))
    for r in range(runs):
        cfg = SolverConfig(
            method="rcdvs", tau=tau, max_iters=iters, seed=seed0 + r, trace_every=1
        )
        rep = run(obj, b, cfg)
        gaps[r] = [f for _, f in rep.trace]
    return gaps


def test_criterion_4_rate_envelopes():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    runs, iters = 1000, 200
    n = 10

    # strongly convex: geometric envelope per subset size
    a = _random_psd(rng, n) + 0.5 * np.eye(n)
    x_star = rng.uniform(-1, 1, size=n)
    obj = QuadraticObjective(a, a @ x_star)
    f_star = obj.value(np.linalg.solve(a, obj.b))
    gap0 = obj.value(np.zeros(n)) - f_star
    spec = eigendecompose(a)
    ok = True
    details = []
    for tau in (1, 2, 3):
        mu = modulus_quadratic(spec, tau)
        gaps = _gap_traces(obj, a, tau, runs, iters, seed0=40_000 + tau)
        gaps -= f_star
        mean = gaps.mean(axis=0)
        stderr = gaps.std(axis=0, ddof=1) / np.sqrt(runs)
        envelope = (1.0 - mu) ** np.arange(iters + 1) * gap0
        margin = mean - (envelope + 3 * stderr)
        ok &= bool((margin <= 0).all())
        details.append(f"sc tau={tau} max excess {margin.max():.2e}")

    # non-strongly-convex: harmonic envelope on a rank-deficient quadratic
    a2 = _random_psd(rng, n, rank=n - 1)
    spec2 = eigendecompose(a2)
    x_ref = rng.uniform(-1, 1, size=n)
    obj2 = QuadraticObjective(a2, a2 @ x_ref)
    f_star2 = reference_min(obj2)
    gap02 = obj2.value(np.zeros(n)) - f_star2
    for tau in (1, 2, 3):
        d2 = d_tau_quadratic(spec2, b_tau(spec2, tau), gap02)
        gaps = _gap_traces(obj2, a2, tau, runs, iters, seed0=50_000 + tau)
        gaps -= f_star2
        mean = gaps.mean(axis=0)
        stderr = gaps.std(axis=0, ddof=1) / np.sqrt(runs)
        envelope = 2.0 * d2 / (np.arange(iters + 1) + 1.0)
        margin = mean - (envelope + 3 * stderr)
        ok &= bool((margin <= 0).all())
        details.append(f"cvx tau={tau} max excess {margin.max():.2e}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 300.0
    _report(4, "convergence-rate envelopes", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_5_monotone_descent():
    rng = np.random.default_rng(105)

    # quadratic: recompute the objective from scratch at every step
    n = 20
    a = _random_psd(rng, n) + np.eye(n)
    obj = QuadraticObjective(a, rng.standard_normal(n))
    cfg = SolverConfig(
        method="rcdvs", tau=2, max_iters=10_000, seed=9, record_subsets=True,
        trace_every=10**9,
    )
    rep = run(obj, a, cfg)
    x = np.zeros(n)
    prev = obj.value(x)
    violations = 0
    for s in rep.subsets:
        g = obj.gradient(x)[s]
        sub = a[np.ix_(s, s)]
        h = np.linalg.solve(sub, g)
        x[s] -= h
        cur = obj.value(x)
        if cur > prev + 1e-10:
            violations += 1
        prev = cur

    # smoothed-l1 and logistic: maintained trace, slack 1e-8
    worst_rise = 0.0
    m = 40
    a_data = rng.standard_normal((m, 15))
    huber = SeparableObjective(a_data, rng.standard_normal(m), HuberLoss(0.1))
    logistic = RegularizedObjective(
        SeparableObjective(a_data, np.sign(rng.standard_normal(m)), LogisticLoss()),
        1.0,
    )
    for obj_nq in (huber, logistic):
        b = obj_nq.curvature_matrix()
        cfg = SolverConfig(
            method="rcdvs", tau=2, max_iters=5_000, seed=10, trace_every=1
        )
        rep = run(obj_nq, b, cfg)
        values = np.array([f for _, f in rep.trace])
        worst_rise = max(worst_rise, float(np.diff(values).max()))
    _report(
        5,
        "monotone descent",
        violations == 0 and worst_rise <= 1e-8,
        f"quadratic violations {violations}, worst non-quadratic rise {worst_rise:.2e}",
    )


def _gap_experiment(ratio: float, repetitions: int, seed: int):
    cfg = ExperimentConfig(
        problem=ProblemSpec(
            kind="quadratic", n=400, lam1=100.0 * ratio, lam2=100.0
        ),
        methods=[("rcdvs", 2)],
        epsilon=0.01,
        repetitions=repetitions,
        seed=seed,
    )
    table = run_experiment(cfg)
    rcd = next(r for r in table.rows if r.method == "rcd")
    rcdvs = next(r for r in table.rows if r.method == "rcdvs")
    return rcd, rcdvs


def test_criterion_6_paper_table_desk_scale():
    started = time.perf_counter()
    rcd4, rcdvs4 = _gap_experiment(4.0, repetitions=10, seed=106)
    rcd256, rcdvs256 = _gap_experiment(256.0, repetitions=10, seed=107)
    ok = (
        60.0 <= rcdvs4.pct <= 160.0
        and 50.0 <= rcdvs256.pct <= 130.0
        and rcd256.median_it >= 10.0 * rcdvs256.median_it
    )
    elapsed = time.perf_counter() - started
    _report(
        6,
        "synthetic benchmark table",
        ok and elapsed < 600.0,
        f"pct(4)={rcdvs4.pct:.0f}, pct(256)={rcdvs256.pct:.0f}, "
        f"It rcd/rcdvs at 256: {rcd256.median_it:.0f}/{rcdvs256.median_it:.0f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_spectral_gap_insensitivity():
    started = time.perf_counter()
    rcd_medians = {}
    rcdvs_medians = {}
    for i, ratio in enumerate((4.0, 16.0, 64.0, 256.0, 1024.0)):
        rcd, rcdvs = _gap_experiment(ratio, repetitions=5, seed=170 + i)
        rcd_medians[ratio] = rcd.median_it
        rcdvs_medians[ratio] = rcdvs.median_it
    flat = max(rcdvs_medians.values()) / min(rcdvs_medians.values())
    growth = rcd_medians[1024.0] / rcd_medians[4.0]
    elapsed = time.perf_counter() - started
    _report(
        7,
        "spectral-gap insensitivity",
        flat <= 2.0 and growth >= 20.0,
        f"rcdvs spread x{flat:.2f}, rcd growth x{growth:.1f}, {elapsed:.0f}s",
    )


def _find_dataset(name: str):
    candidates = [
        os.environ.get("VOLCD_DATA"),
        os.path.join(os.path.dirname(__file__), "data"),
        "data",
        ".",
    ]
    for root in candidates:
        if not root:
            continue
        path = os.path.join(root, name)
        if os.path.exists(path):
            return path
    return None


def test_criterion_8_dataset_spectrum():
    path = _find_dataset("breast-cancer")
    if path is None:
        print("[acceptance 8] dataset spectrum: SKIP (breast-cancer not found)",
              flush=True)
        pytest.skip("breast-cancer dataset not supplied")
    a, y = read_libsvm(path)
    obj = RegularizedObjective(SeparableObjective(a, y, LogisticLoss()), 1.0)
    b = obj.curvature_matrix()
    dense = b.to_dense() if isinstance(b, CsrSymmetricUpper) else b
    lam = eigendecompose(dense).eigenvalues
    expected = np.array([891.0, 118.0, 41.0, 35.0])
    rel = np.abs(lam[:4] - expected) / expected
    ratio = acceleration_ratio(lam, 1, 2)
    ok = bool((rel <= 0.02).all()) and abs(ratio - 4.0) <= 0.2
    _report(
        8,
        "dataset spectrum",
        ok,
        f"top-4 {np.round(lam[:4], 1)}, R(1,2)={ratio:.2f}",
    )


_TIMING_SCRIPT = r"""
import gc, json, time
import numpy as np
from volcd.problems import banded_psd
from volcd.rng import RngStream
from volcd.sampling import SparseTwoSampler

sizes = (10_000, 20_000, 40_000)  # ~1e5, 2e5, 4e5 stored entries
mats = {n: banded_psd(n, 9, seed=n) for n in sizes}
for b in mats.values():
    SparseTwoSampler(b)  # warm allocator and caches

# interleave the timed rounds so transient load hits every size alike
best = {n: float("inf") for n in sizes}
gc.collect()
gc.disable()
for _ in range(9):
    for n in sizes:
        t0 = time.perf_counter()
        SparseTwoSampler(mats[n])
        best[n] = min(best[n], time.perf_counter() - t0)
gc.enable()

# three samplers per size, each timed by its best of seven rounds of 3000
# draws; the rounds are interleaved over all nine samplers, as above, so a
# slow spell of the machine hits every size alike, and a size's draw cost
# is the median of its three samplers
lat_sizes = (10_000, 100_000, 1_000_000)
timed = []
for n in lat_sizes:
    b = banded_psd(n, 4, seed=n + 1)
    for _ in range(3):
        sampler, rng = SparseTwoSampler(b), RngStream(n)
        sampler.sample_many(rng, 500)  # warm up
        timed.append([sampler, rng, float("inf")])
for _ in range(7):
    for entry in timed:
        sampler, rng, _ = entry
        t0 = time.perf_counter()
        sampler.sample_many(rng, 3000)
        entry[2] = min(entry[2], (time.perf_counter() - t0) / 3000)
latency = [sorted(e[2] for e in timed[3 * k:3 * k + 3])[1] for k in range(len(lat_sizes))]

print(json.dumps({"preprocess": [best[n] for n in sizes], "latency": latency}))
"""


def test_criterion_9_sparse_sampler_complexity():
    # Timed in a fresh interpreter with glibc's mmap and trim thresholds
    # pinned: the dynamic mmap threshold otherwise parks itself at the
    # largest array size and adds a page-fault cycle to every call at that
    # size only.  Pinning it alone leaves the trim threshold at 128 KiB, so
    # the freed top of the heap goes back to the system and faults in again
    # on a later call, at whichever sizes the heap's layout puts there.
    # Either swamps the O(nnz) work under study with allocator noise.  The
    # child imports the volcd under test, installed or not.
    import json
    import subprocess
    import sys
    from pathlib import Path

    import volcd

    env = dict(os.environ)
    src = str(Path(volcd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["MALLOC_MMAP_THRESHOLD_"] = env["MALLOC_TRIM_THRESHOLD_"] = str(64 * 1024 * 1024)
    proc = subprocess.run(
        [sys.executable, "-c", _TIMING_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    timings = json.loads(proc.stdout)
    t1, t2, t4 = timings["preprocess"]
    r12, r24 = t2 / t1, t4 / t2
    scaling_ok = 1.5 <= r12 <= 3.0 and 1.5 <= r24 <= 3.0
    lat = timings["latency"]
    # draw cost may grow at most twofold over the hundredfold size range
    latency_ok = lat[1] / lat[0] <= 2.0 and lat[2] / lat[0] <= 2.0
    _report(
        9,
        "sparse sampler complexity",
        scaling_ok and latency_ok,
        f"preprocess ratios {r12:.2f}, {r24:.2f}; "
        f"latency us {[round(v * 1e6, 2) for v in lat]}",
    )


def test_degenerate_submatrices_never_sampled():
    # companion check: the samplers assign zero mass to singular blocks even
    # when the matrix has many of them
    rng = np.random.default_rng(108)
    stream = RngStream(109)
    for trial in range(4):
        b = _random_psd(rng, 6, rank=4)
        b[5, :] = 0.0
        b[:, 5] = 0.0
        scale = float(np.diag(b).max())
        for tau in (1, 2, 3):
            sampler = VolumeSampler(b, tau)
            for s in sampler.sample_many(stream, 2500):
                assert psd_det(b[np.ix_(s, s)], clamp_scale=scale) > 0
        csr = CsrSymmetricUpper.from_dense(b)
        for s in SparseTwoSampler(csr).sample_many(stream, 2500):
            assert psd_det(b[np.ix_(s, s)], clamp_scale=scale) > 0
