import numpy as np
import pytest
import scipy.sparse

from volcd.linalg import CsrSymmetricUpper
from volcd.objectives import (
    HuberLoss,
    LogSumExpLoss,
    LogisticLoss,
    QuadraticObjective,
    RegularizedObjective,
    SeparableObjective,
    SqrtNormLoss,
    SquareLoss,
)

RNG = np.random.default_rng(0)


def make_objectives(rng, m=9, n=6):
    """One instance of every objective family, dense and sparse."""
    a_dense = rng.standard_normal((m, n))
    a_sparse = scipy.sparse.random(m, n, density=0.4, random_state=2, format="csr")
    offsets = rng.standard_normal(m)
    labels = np.sign(rng.standard_normal(m))
    g = rng.standard_normal((n, n))
    quad_a = g @ g.T + np.eye(n)
    quad = QuadraticObjective(quad_a, rng.standard_normal(n))
    quad_sp = QuadraticObjective(
        CsrSymmetricUpper.from_dense(np.diag(rng.uniform(1, 3, n))), rng.standard_normal(n)
    )
    objs = {
        "quadratic": quad,
        "quadratic_sparse": quad_sp,
        "least_squares": SeparableObjective(a_dense, offsets, SquareLoss()),
        "logistic": SeparableObjective(a_dense, labels, LogisticLoss()),
        "huber": SeparableObjective(a_dense, offsets, HuberLoss(0.5)),
        "logsumexp": SeparableObjective(a_dense, offsets, LogSumExpLoss(0.3)),
        "sqrtnorm": SeparableObjective(a_dense, offsets, SqrtNormLoss(0.3)),
        "logistic_sparse": SeparableObjective(a_sparse, labels, LogisticLoss()),
        "huber_sparse": SeparableObjective(a_sparse, offsets, HuberLoss(0.5)),
        "logsumexp_sparse": SeparableObjective(a_sparse, offsets, LogSumExpLoss(0.3)),
        "sqrtnorm_sparse": SeparableObjective(a_sparse, offsets, SqrtNormLoss(0.3)),
        "ridge_logistic": RegularizedObjective(
            SeparableObjective(a_dense, labels, LogisticLoss()), 1.0
        ),
    }
    return objs


# ---------------------------------------------------------------------------
# closed-form values and gradients


def test_quadratic_closed_form():
    obj = QuadraticObjective(np.diag([1.0, 2.0]), np.zeros(2))
    assert obj.value([1.0, 1.0]) == pytest.approx(1.5)
    assert np.allclose(obj.gradient([1.0, 1.0]), [1.0, 2.0])


def test_huber_pointwise_values():
    h = HuberLoss(1.0)
    z = np.array([0.0, 0.5, 2.0])
    assert np.allclose(h.eval(z, np.zeros(3))[0], [0.0, 0.125, 1.5])


def test_logistic_at_origin():
    obj = SeparableObjective(np.array([[1.0]]), np.array([1.0]), LogisticLoss())
    assert obj.value([0.0]) == pytest.approx(np.log(2.0))
    assert obj.gradient([0.0]) == pytest.approx(-0.5)


def test_logistic_extreme_margins_stable():
    loss = LogisticLoss()
    z = np.array([1e4, -1e4])
    b = np.array([1.0, 1.0])
    vals = loss.eval(z, b)[0]
    assert np.isfinite(vals).all()
    assert vals[0] == pytest.approx(0.0, abs=1e-300)
    assert vals[1] == pytest.approx(1e4)
    for labels in (b, -b):
        d = loss.eval(z * labels, labels)[1]  # margins s = +1e4, -1e4
        assert np.isfinite(d).all()
        assert np.array_equal(d, [0.0, -labels[1]])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    objs = make_objectives(rng)
    eps = 1e-6
    for name, obj in objs.items():
        for _ in range(100):
            x = rng.standard_normal(obj.n)
            g = obj.gradient(x)
            for i in rng.choice(obj.n, size=2, replace=False):
                e = np.zeros(obj.n)
                e[i] = eps
                fd = (obj.value(x + e) - obj.value(x - e)) / (2 * eps)
                scale = max(1.0, abs(fd))
                assert abs(g[i] - fd) <= 1e-5 * scale, name


# ---------------------------------------------------------------------------
# the defining smoothness certificate


def test_curvature_matrix_certifies_smoothness():
    rng = np.random.default_rng(2)
    objs = make_objectives(rng)
    for name, obj in objs.items():
        b = obj.curvature_matrix()
        b_dense = b.to_dense() if isinstance(b, CsrSymmetricUpper) else b
        for _ in range(1000):
            x = rng.standard_normal(obj.n)
            y = rng.standard_normal(obj.n)
            d = y - x
            upper = obj.value(x) + obj.gradient(x) @ d + 0.5 * d @ (b_dense @ d)
            assert obj.value(y) <= upper + 1e-8, name


# ---------------------------------------------------------------------------
# curvature matrices


def test_least_squares_curvature_identity_rows():
    obj = SeparableObjective(np.eye(2), np.zeros(2), SquareLoss())
    assert np.allclose(obj.curvature_matrix(), np.eye(2))


def test_ridge_logistic_curvature():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    obj = RegularizedObjective(
        SeparableObjective(a, np.array([1.0, -1.0]), LogisticLoss()), 1.0
    )
    assert np.allclose(obj.curvature_matrix(), np.diag([1.25, 2.0]))


def test_huber_curvature_scale_rule():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 4))
    obj = SeparableObjective(a, np.zeros(5), HuberLoss(0.01))
    assert np.allclose(obj.curvature_matrix(), 100.0 * a.T @ a)


def test_vector_loss_curvature_is_gram_over_mu():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 4))
    for loss in (LogSumExpLoss(0.25), SqrtNormLoss(0.25)):
        obj = SeparableObjective(a, np.zeros(6), loss)
        assert np.allclose(obj.curvature_matrix(), 4.0 * a.T @ a)


def test_sparse_curvature_matches_dense():
    a = scipy.sparse.random(12, 7, density=0.4, random_state=5, format="csr")
    obj = SeparableObjective(a, np.zeros(12), SquareLoss())
    b = obj.curvature_matrix()
    assert isinstance(b, CsrSymmetricUpper)
    assert np.allclose(b.to_dense(), (a.T @ a).toarray(), atol=1e-12)


def test_ridge_sparse_curvature_adds_diagonal():
    a = scipy.sparse.random(10, 6, density=0.3, random_state=6, format="csr")
    inner = SeparableObjective(a, np.sign(np.arange(10) - 4.5), LogisticLoss())
    b = RegularizedObjective(inner, 2.0).curvature_matrix()
    assert isinstance(b, CsrSymmetricUpper)
    assert np.allclose(
        b.to_dense(), 0.25 * (a.T @ a).toarray() + 2.0 * np.eye(6), atol=1e-12
    )


# ---------------------------------------------------------------------------
# partial gradients and incremental state


def test_partial_gradient_restriction():
    obj = QuadraticObjective(np.diag([1.0, 2.0]), np.zeros(2))
    state = obj.init_state([1.0, 1.0])
    assert np.allclose(state.partial_gradient(np.array([1])), [2.0])
    assert np.allclose(
        state.partial_gradient(np.array([0, 1])), obj.gradient(state.x)[[0, 1]]
    )


def test_partial_gradient_least_squares_at_origin():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    obj = SeparableObjective(a, b, SquareLoss())
    state = obj.init_state(np.zeros(5))
    s = np.array([1, 3])
    assert np.allclose(state.partial_gradient(s), -(b @ a)[s], atol=1e-12)


def test_zero_step_leaves_state_unchanged():
    rng = np.random.default_rng(7)
    objs = make_objectives(rng)
    for name, obj in objs.items():
        state = obj.init_state(rng.standard_normal(obj.n))
        before_x = state.x.copy()
        before_v = state.value
        state.apply_step(np.array([0]), np.array([0.0]))
        assert np.array_equal(state.x, before_x), name
        assert state.value == pytest.approx(before_v, rel=1e-12), name


@pytest.mark.parametrize("steps", [10_000])
def test_incremental_state_drift(steps):
    rng = np.random.default_rng(8)
    objs = make_objectives(rng)
    for name, obj in objs.items():
        state = obj.init_state(rng.standard_normal(obj.n) * 0.1)
        n = obj.n
        for _ in range(steps):
            tau = int(rng.integers(1, 3))
            s = np.sort(rng.choice(n, size=tau, replace=False))
            state.apply_step(s, 0.01 * rng.standard_normal(tau))
        fresh_value = obj.value(state.x)
        scale = max(1.0, abs(fresh_value))
        assert abs(state.value - fresh_value) <= 1e-6 * scale, name
        fresh_grad = obj.gradient(state.x)
        gscale = max(1.0, float(np.linalg.norm(fresh_grad)))
        assert (
            np.linalg.norm(state.partial_gradient(np.arange(n)) - fresh_grad)
            <= 1e-6 * gscale
        ), name
        # maintained and recomputed partial gradients agree on a subset
        s = np.sort(rng.choice(n, size=2, replace=False))
        assert np.allclose(
            state.partial_gradient(s), fresh_grad[s], atol=1e-8
        ), name


def test_refresh_matches_incremental_state():
    rng = np.random.default_rng(11)
    for name, obj in make_objectives(rng).items():
        state = obj.init_state(rng.standard_normal(obj.n) * 0.1)
        for _ in range(3000):
            tau = int(rng.integers(1, 3))
            s = np.sort(rng.choice(obj.n, size=tau, replace=False))
            state.apply_step(s, 0.01 * rng.standard_normal(tau))
        everything = np.arange(obj.n)
        kept_value, kept_grad = state.value, state.partial_gradient(everything)
        # the separable caches: derivatives w and loss values ell, per row
        # or, under a full-residual loss, the total
        caches = [c for c in ("_w", "_ell") if hasattr(state, c)]
        kept = {c: getattr(state, c).copy() for c in caches}
        state.refresh()
        for value in (kept_value, obj.value(state.x)):
            assert state.value == pytest.approx(value, rel=1e-9), name
        for grad in (kept_grad, obj.gradient(state.x)):
            gap = np.linalg.norm(state.partial_gradient(everything) - grad)
            assert gap <= 1e-9 * np.linalg.norm(grad), name
        for c in caches:
            fresh = getattr(state, c)
            gap = np.linalg.norm(fresh - kept[c])
            assert gap <= 1e-9 * np.linalg.norm(fresh), (name, c)


def test_ridge_state_recomputes_once_per_refresh_interval(monkeypatch):
    from volcd import objectives

    monkeypatch.setattr(objectives, "REFRESH_INTERVAL", 10)
    a = scipy.sparse.random(12, 5, density=0.5, random_state=8, format="csr")
    obj = RegularizedObjective(
        SeparableObjective(a, np.sign(np.arange(12) - 5.5), LogisticLoss()), 0.5
    )
    state = obj.init_state(np.zeros(5))
    recomputes = []
    recompute = state._recompute
    monkeypatch.setattr(
        state, "_recompute", lambda: (recomputes.append(1), recompute())
    )
    for k in range(10):
        state.apply_step([k % 5], [0.1 * (k + 1)])
    assert len(recomputes) == 1
    assert state.value == pytest.approx(obj.value(state.x), abs=1e-12)


def test_apply_step_matches_fresh_recompute():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    obj = SeparableObjective(a, b, SquareLoss())
    state = obj.init_state(np.zeros(4))
    s = np.array([0, 2])
    h = np.array([0.3, -0.7])
    state.apply_step(s, h)
    x = np.zeros(4)
    x[s] -= h
    assert np.allclose(state._z, a @ x, atol=1e-12)
    assert state.value == pytest.approx(obj.value(x), rel=1e-12)


def test_huber_smoothing_sandwich():
    rng = np.random.default_rng(10)
    m, n = 8, 5
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    mu = 0.2
    obj = SeparableObjective(a, b, HuberLoss(mu))
    for _ in range(50):
        x = rng.standard_normal(n)
        l1 = float(np.abs(a @ x - b).sum())
        smooth = obj.value(x)
        assert smooth <= l1 + 1e-12
        assert l1 <= smooth + m * mu / 2 + 1e-12


@pytest.mark.parametrize(
    "loss",
    [HuberLoss(0.5), LogisticLoss(), LogSumExpLoss(0.3), SqrtNormLoss(0.3), SquareLoss()],
)
@pytest.mark.parametrize(
    "s, h",
    [
        (np.array([0, 1]), np.array([0.8, -1.3])),
        (np.array([0, 1, 2]), np.array([0.8, -1.3, 0.6])),
        (np.array([1]), np.array([-1.3])),
    ],
)
def test_sparse_step_on_shared_rows(loss, s, h):
    # columns 0 and 1 share rows 1 and 3, and column 2 meets both in rows 0
    # and 3: the column-by-column update must leave z exactly as one
    # scatter-subtract over all columns would
    a = scipy.sparse.csr_matrix(np.array([
        [1.0, 0.0, 0.5],
        [2.0, -1.0, 0.0],
        [0.0, 3.0, 0.0],
        [-0.5, 0.7, 1.0],
        [0.0, 0.0, 2.0],
    ]))
    labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    obj = SeparableObjective(a, labels, loss)
    x0 = np.array([0.3, -0.2, 0.1])
    state = obj.init_state(x0)
    z_ref = state._z.copy()
    state.apply_step(s, h)
    csc = a.tocsc()
    cols = [slice(csc.indptr[j], csc.indptr[j + 1]) for j in s]
    rows = np.concatenate([csc.indices[c] for c in cols])
    deltas = np.concatenate([csc.data[c] * hj for c, hj in zip(cols, h)])
    np.subtract.at(z_ref, rows, deltas)
    assert state._z.tobytes() == z_ref.tobytes()
    assert np.array_equal(state._w, obj._loss_eval(z_ref)[1])
    if loss.rowwise:
        ell, w = loss.eval(z_ref, labels)
        assert state._ell.tobytes() == ell.tobytes()
        assert state._w.tobytes() == w.tobytes()
    x = x0.copy()
    x[s] -= h
    assert state.value == pytest.approx(obj.value(x), rel=1e-12, abs=1e-12)


def _reference_values_and_derivs(loss, z, b):
    """The values and derivatives as separate expressions, one pass each;
    ``eval`` shares their common work and must agree bit for bit.  A
    full-residual loss's pair is the separate value and gradient it had
    before ``eval``, its total as a 0-d array."""
    if isinstance(loss, LogSumExpLoss):
        r = z - b
        top = float(np.max(r))
        value = top + loss.mu * (np.log(np.sum(np.exp((r - top) / loss.mu))) - np.log(r.size))
        e = np.exp((r - np.max(r)) / loss.mu)
        return np.asarray(float(value)), e / e.sum()
    if isinstance(loss, SqrtNormLoss):
        r = z - b
        value = float(np.sqrt(r @ r + loss.mu**2) - loss.mu)
        return np.asarray(value), r / np.sqrt(r @ r + loss.mu**2)
    if isinstance(loss, SquareLoss):
        return 0.5 * (z - b) ** 2, z - b
    if isinstance(loss, LogisticLoss):
        s = b * z
        values = np.maximum(0.0, -s) + np.log1p(np.exp(-np.abs(s)))
        e = np.exp(-np.abs(s))
        return values, -b * (np.where(s >= 0, e, 1.0) / (1.0 + e))
    # the clip form: c = clip(d / mu, -1, 1) times d - c * mu / 2
    c = np.clip((z - b) / loss.mu, -1.0, 1.0)
    return c * ((z - b) - 0.5 * loss.mu * c), c


def _piecewise_huber(d, mu):
    """The textbook Huber values: d^2 / (2 mu) inside |d| <= mu, else |d| - mu / 2."""
    t = np.abs(d)
    return np.where(t <= mu, 0.5 * t**2 / mu, t - 0.5 * mu)


@pytest.mark.parametrize(
    "loss", [SquareLoss(), LogisticLoss(), HuberLoss(0.5), HuberLoss(0.01), HuberLoss(0.3),
             LogSumExpLoss(0.3), LogSumExpLoss(0.01), SqrtNormLoss(0.3), SqrtNormLoss(0.01)]
)
def test_loss_eval_matches_reference_formulas(loss):
    # a power-of-two mu scales exactly, so 0.01 and 0.3 are the cases that
    # pin the kernel's rounding
    rng = np.random.default_rng(12)
    mu = getattr(loss, "mu", 0.5)
    b = np.concatenate([np.sign(rng.standard_normal(40)), [1.0, -1.0] * 2,
                        [mu, -mu, 2.0 * mu, -2.0 * mu], [1.0, -1.0] * 2])
    z = np.concatenate([
        b[:40] + 3.0 * mu * rng.standard_normal(40),  # a quarter with |z - b| < mu
        [1e4, -1e4, -1e4, 1e4],  # margins b * z of +-1e4
        [2.0 * mu, -2.0 * mu, mu, -mu],  # |z - b| exactly mu for Huber
        [1.0, -1.0],  # z - b = 0
        [np.nan, np.nan],
    ])
    # with and without the NaN rows, which poison a full-residual loss's
    # total and every derivative
    for rows in (slice(None), slice(-2)):
        values, derivs = loss.eval(z[rows], b[rows])
        ref_values, ref_derivs = _reference_values_and_derivs(loss, z[rows], b[rows])
        assert values.shape == (derivs.shape if loss.rowwise else ())
        assert values.tobytes() == ref_values.tobytes()
        assert derivs.tobytes() == ref_derivs.tobytes()
    values, derivs = loss.eval(z, b)
    if loss.rowwise:
        assert np.isnan(values[-2:]).all() and np.isnan(derivs[-2:]).all()
        assert not np.isnan(values[:-2]).any()
    else:
        assert np.isnan(values) and np.isnan(derivs).all()


@pytest.mark.parametrize("mu", [0.5, 0.01, 0.3, 1e-5, 7.0])
def test_huber_clip_form_agrees_with_the_piecewise_formula(mu):
    # outside |d| <= mu bitwise; inside within a few ulp (each form is
    # within about 1.3 ulp of the exact value); derivatives bitwise
    rng = np.random.default_rng(13)
    b = rng.standard_normal(4000) * mu
    z = b + mu * np.concatenate([rng.uniform(-1.0, 1.0, 2000), rng.uniform(-50.0, 50.0, 2000)])
    z = np.concatenate([z, b + mu, b - mu, b])
    b = np.concatenate([b, b, b, b])
    d = z - b
    values, derivs = HuberLoss(mu).eval(z, b)
    ref = _piecewise_huber(d, mu)
    outside = np.abs(d) > mu
    assert 1500 < outside.sum() < 6000
    assert values[outside].tobytes() == ref[outside].tobytes()
    inside = ~outside
    assert (np.abs(values[inside] - ref[inside]) <= 3.0 * np.spacing(ref[inside])).all()
    assert (values[inside] >= 0.0).all() and (values[d == 0.0] == 0.0).all()
    assert derivs.tobytes() == np.clip(d / mu, -1.0, 1.0).tobytes()


@pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_constructors_refuse_a_non_finite_or_non_positive_weight(weight):
    # a NaN weight is not <= 0; an infinite mu gives smoothness 0, so a zero
    # curvature matrix
    inner = SeparableObjective(np.eye(2), np.zeros(2), SquareLoss())
    for make in (HuberLoss, LogSumExpLoss, SqrtNormLoss,
                 lambda gamma: RegularizedObjective(inner, gamma)):
        with pytest.raises(ValueError):
            make(weight)


def test_smoothed_losses_refuse_a_mu_with_an_infinite_reciprocal():
    # 1 / 1e-320 overflows: the smoothness constant, and so B, would be inf
    for make in (HuberLoss, LogSumExpLoss, SqrtNormLoss):
        with pytest.raises(ValueError, match="finite reciprocal"):
            make(1e-320)
        assert make(1e-300).smoothness == 1.0 / 1e-300


@pytest.mark.parametrize("make, message", [
    (lambda b: QuadraticObjective(np.eye(3), b), "linear term has wrong length"),
    (lambda b: QuadraticObjective(CsrSymmetricUpper.from_dense(np.eye(3)), b),
     "linear term has wrong length"),
    (lambda b: SeparableObjective(np.ones((3, 2)), b, SquareLoss()),
     "per-row parameter has wrong length"),
])
@pytest.mark.parametrize("b", [np.zeros(2), np.zeros(4), np.zeros((3, 1))])
def test_objectives_refuse_a_b_of_the_wrong_length(make, message, b):
    with pytest.raises(ValueError, match=message):
        make(b)


# ---------------------------------------------------------------------------
# sparse input is kept as canonical float64 CSR


def _rcd_run(obj, steps=50):
    from volcd.solvers import SolverConfig, run

    return run(obj, obj.curvature_matrix(),
               SolverConfig(method="rcd", tau=1, max_iters=steps, seed=3))


def test_repeated_sparse_entries_step_as_their_sum():
    # entry (1, 2) is stored as two repeats, 0.5 + 1.0; a column's rows were
    # once scattered with put, which wrote row 1 once and lost the other
    # repeat, so the maintained value left the objective
    repeated = scipy.sparse.csr_matrix((
        np.array([2.0, -1.0, 0.5, 1.0, 1.5, 3.0, 1.0, -2.0]),
        np.array([0, 2, 2, 2, 0, 1, 1, 2]),
        np.array([0, 2, 5, 7, 8]),
    ), shape=(4, 3))
    summed = repeated.copy()
    summed.sum_duplicates()
    offsets = np.array([1.0, -2.0, 0.5, 3.0])
    rep = _rcd_run(SeparableObjective(repeated, offsets, SquareLoss()))
    ref = _rcd_run(SeparableObjective(summed, offsets, SquareLoss()))
    assert rep.final_value == pytest.approx(
        SeparableObjective(summed, offsets, SquareLoss()).value(rep.x_final), rel=1e-12
    )
    assert rep.x_final.tobytes() == ref.x_final.tobytes()
    assert rep.trace == ref.trace


def test_float32_sparse_input_steps_in_float64():
    # float32 column values times a float step stayed float32, and the
    # maintained value drifted from a recomputation by 1e-8
    single = scipy.sparse.random(20, 8, density=0.4, random_state=11, format="csr",
                                 dtype=np.float32)
    double = single.astype(np.float64)
    offsets = np.random.default_rng(11).standard_normal(20)
    obj = SeparableObjective(single, offsets, HuberLoss(0.3))
    assert obj.a.data.dtype == np.float64
    assert obj._columns()[0][0].dtype == np.intp
    rep = _rcd_run(obj, 200)
    ref = _rcd_run(SeparableObjective(double, offsets, HuberLoss(0.3)), 200)
    assert rep.x_final.tobytes() == ref.x_final.tobytes()
    assert rep.trace == ref.trace
    assert rep.final_value == pytest.approx(obj.value(rep.x_final), rel=1e-13)
