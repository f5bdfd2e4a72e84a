import numpy as np
import pytest
import scipy.sparse

from volcd import problems
from volcd.errors import ConfigError, NumericError, ParseError, UnboundedLevelSet
from volcd.linalg import CsrSymmetricUpper, eigendecompose
from volcd.objectives import (
    HuberLoss,
    LogSumExpLoss,
    QuadraticObjective,
    RegularizedObjective,
    SeparableObjective,
    SqrtNormLoss,
    SquareLoss,
)
from volcd.problems import (
    ProblemSpec,
    banded_psd,
    gen_huber,
    gen_quadratic,
    generate,
    load_libsvm,
    read_libsvm,
    reference_min,
)

from oracles import majorization_min


# ---------------------------------------------------------------------------
# quadratic generator


def test_quadratic_spectrum_is_exact():
    spec = ProblemSpec(kind="quadratic", n=40, lam1=400.0, lam2=100.0, seed=0)
    obj, _, _ = gen_quadratic(spec)
    lam = np.sort(np.linalg.eigvalsh(obj.a))[::-1]
    expected = np.concatenate(([400.0, 100.0], np.ones(38)))
    assert np.abs(lam - expected).max() <= 1e-8 * 400.0


def test_quadratic_zero_reflections_is_diagonal():
    spec = ProblemSpec(kind="quadratic", n=5, lam1=160.0, seed=1, reflections=0)
    obj, _, _ = gen_quadratic(spec)
    assert np.allclose(obj.a, np.diag([160.0, 100.0, 1.0, 1.0, 1.0]))


def test_quadratic_generated_point_is_stationary():
    spec = ProblemSpec(kind="quadratic", n=25, lam1=1600.0, seed=2)
    obj, x_star, f_star = gen_quadratic(spec)
    assert np.linalg.norm(obj.gradient(x_star)) <= 1e-8
    assert obj.value(x_star) == pytest.approx(f_star)


def test_quadratic_fresh_seeds_fresh_instances():
    s1 = ProblemSpec(kind="quadratic", n=10, lam1=400.0, seed=3)
    s2 = ProblemSpec(kind="quadratic", n=10, lam1=400.0, seed=4)
    a1 = gen_quadratic(s1)[0].a
    a2 = gen_quadratic(s2)[0].a
    assert not np.allclose(a1, a2)


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "quadratic", "n": 30, "lam1": 900.0, "lam2": 0.5},
        {"kind": "huber", "n": 20, "m": 35, "lam1": 400.0},
        {"kind": "huber", "n": 24, "m": 15, "lam1": 400.0, "lam2": 30.0},
    ],
)
def test_spec_eigenvalues_match_generated_curvature(fields):
    spec = ProblemSpec(seed=13, **fields)
    obj, _, _ = generate(spec)
    lam = eigendecompose(obj.curvature_matrix()).eigenvalues
    expected = np.sort(spec.eigenvalues())[::-1]
    assert np.abs(lam - expected).max() <= 1e-8 * spec.lam1


# ---------------------------------------------------------------------------
# huber generator


def test_huber_square_case_spectrum():
    spec = ProblemSpec(kind="huber", n=20, m=20, lam1=400.0, seed=5)
    obj, _, _ = gen_huber(spec)
    lam = np.sort(np.linalg.eigvalsh(obj.curvature_matrix()))[::-1]
    expected = np.concatenate(([400.0, 100.0], np.ones(18)))
    assert np.abs(lam - expected).max() <= 1e-6 * 400.0


def test_huber_underdetermined_has_zero_eigenvalues():
    spec = ProblemSpec(kind="huber", n=24, m=15, lam1=400.0, seed=6)
    obj, _, _ = gen_huber(spec)
    lam = np.sort(np.linalg.eigvalsh(obj.curvature_matrix()))[::-1]
    assert (np.abs(lam[15:]) < 1e-8).all()
    assert np.abs(lam[:2] - [400.0, 100.0]).max() <= 1e-6 * 400.0


def test_huber_optimum_is_zero():
    spec = ProblemSpec(kind="huber", n=12, m=18, lam1=400.0, seed=7)
    obj, x_star, f_star = gen_huber(spec)
    assert f_star == 0.0
    assert obj.value(x_star) == pytest.approx(0.0, abs=1e-20)


def test_huber_sparse_mode_emits_sparse_curvature():
    spec = ProblemSpec(kind="huber", n=300, m=200, lam1=400.0, seed=8, sparsity=4)
    obj, _, _ = gen_huber(spec)
    b = obj.curvature_matrix()
    assert isinstance(b, CsrSymmetricUpper)
    assert b.nnz < 300 * 301 // 4  # genuinely sparse
    lam = np.sort(np.linalg.eigvalsh(b.to_dense()))[::-1]
    assert np.abs(lam[:2] - [400.0, 100.0]).max() <= 1e-6 * 400.0
    assert (np.abs(lam[200:]) < 1e-6).all()


def test_huber_sparsity_one_keeps_matrix_diagonal():
    spec = ProblemSpec(kind="huber", n=9, m=9, seed=9, sparsity=1)
    obj, _, _ = gen_huber(spec)
    a = obj.a.toarray()
    assert np.count_nonzero(a - np.diag(np.diag(a))) == 0


def _scipy_huber_matrix(spec):
    """gen_huber's sparse data matrix as scipy's sparse products build it,
    from the same draws, with its rows sorted."""
    import scipy.sparse

    from volcd.rng import RngStream

    rng = RngStream(spec.seed)
    m, n, p = spec.m, spec.n, spec.sparsity
    diag = np.sqrt(spec.mu * spec.eigenvalues()[: min(m, n)])
    a = scipy.sparse.diags(diag, shape=(m, n), format="csr")

    def direction(dim):
        idx = rng.generator.choice(dim, size=p, replace=False)
        u = rng.standard_normal(p)
        u = u / np.linalg.norm(u)
        return scipy.sparse.csc_matrix((u, (idx, np.zeros(p, dtype=np.int64))), shape=(dim, 1))

    for _ in range(spec.reflections):
        u, v = direction(m), direction(n)
        a = (a - 2.0 * (u @ (u.T @ a))).tocsr()
        a = (a - 2.0 * ((a @ v) @ v.T)).tocsr()
    a.sort_indices()
    return a


@pytest.mark.parametrize("shape", [(500, 200, 10, 0), (90, 60, 6, 1), (40, 70, 5, 2),
                                   (30, 30, 1, 3), (25, 20, 20, 4)])
def test_sparse_huber_matrix_matches_the_scipy_construction(shape):
    # the declared difference: scipy leaves rows unsorted after a reflection
    # and its A v sums them in that order, while the numpy reflections sum
    # each row in column order; the pattern stays and entries agree to 1e-15
    m, n, sparsity, seed = shape
    spec = ProblemSpec(kind="huber", n=n, m=m, sparsity=sparsity, seed=seed)
    obj, x_star, _ = gen_huber(spec)
    expected = _scipy_huber_matrix(spec)
    assert obj.a.indices.dtype == np.intp
    assert np.array_equal(obj.a.indptr, expected.indptr)
    assert np.array_equal(obj.a.indices, expected.indices)
    top = np.abs(expected.data).max()
    assert np.abs(obj.a.data - expected.data).max() <= 1e-15 * top
    assert obj.b.tobytes() == (obj.a @ x_star).tobytes()


def test_huber_sparsity_bounds_checked():
    spec = ProblemSpec(kind="huber", n=6, m=4, seed=0, sparsity=5)
    with pytest.raises(ConfigError):
        gen_huber(spec)


@pytest.mark.parametrize("field", [dict(seed=-1), dict(reflections=-3)])
def test_negative_seed_or_reflection_count_rejected(field):
    # a negative reflection count used to generate the unreflected diagonal
    for spec in (ProblemSpec(kind="quadratic", n=6, **field),
                 ProblemSpec(kind="huber", n=6, m=4, **field)):
        with pytest.raises(ConfigError, match=next(iter(field))):
            generate(spec)


def test_logistic_kind_is_not_generated():
    spec = ProblemSpec(kind="logistic", n=3)
    with pytest.raises(ConfigError, match="--dataset"):
        spec.validate()
    with pytest.raises(ConfigError):
        generate(spec)


@pytest.mark.parametrize("spec, message", [
    (ProblemSpec(kind="cubic", n=4), "unknown problem kind"),
    (ProblemSpec(kind="quadratic", n=0), "dimension must be positive"),
    (ProblemSpec(kind="huber", n=4), "need a row count m"),
    (ProblemSpec(kind="huber", n=4, m=0), "need a row count m"),
])
def test_problem_spec_validate_rejects(spec, message):
    with pytest.raises(ConfigError, match=message):
        spec.validate()


def test_gen_huber_refuses_a_quadratic_spec():
    with pytest.raises(ConfigError, match="needs a huber ProblemSpec"):
        gen_huber(ProblemSpec(kind="quadratic", n=4))


@pytest.mark.parametrize("n, bandwidth", [(5, 0), (5, 5), (5, 7)])
def test_banded_psd_bandwidth_must_lie_below_n(n, bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        banded_psd(n, bandwidth)


# ---------------------------------------------------------------------------
# libsvm ingestion


def test_libsvm_single_line(tmp_path):
    path = tmp_path / "tiny.svm"
    path.write_text("+1 1:0.5\n")
    a, y = read_libsvm(path)
    assert a.shape == (1, 1)
    assert y.tolist() == [1.0]
    assert a.toarray().tolist() == [[0.5]]


def test_libsvm_arrays_match_scipy(tmp_path):
    import scipy.sparse

    rng = np.random.default_rng(13)
    lines, indptr, indices, data = [], [0], [], []
    for i in range(25):
        cols = np.flatnonzero(rng.random(9) < 0.4)  # some rows stay empty
        vals = rng.standard_normal(cols.size)
        lines.append(("+1" if i % 3 else "-1")
                     + "".join(f" {j + 1}:{v!r}" for j, v in zip(cols.tolist(), vals.tolist()))
                     + "\n")
        indices += cols.tolist()
        data += vals.tolist()
        indptr.append(len(indices))
    path = tmp_path / "rows.svm"
    path.write_text("".join(lines))
    a, y = read_libsvm(path)
    expected = scipy.sparse.csr_matrix((data, indices, indptr), shape=(25, max(indices) + 1))
    assert a.shape == expected.shape
    assert a.indptr.dtype == a.indices.dtype == np.intp
    assert np.array_equal(a.indptr, expected.indptr)
    assert np.array_equal(a.indices, expected.indices)
    assert a.data.tobytes() == expected.data.tobytes()
    assert y.tolist() == [1.0 if i % 3 else -1.0 for i in range(25)]


def test_libsvm_label_mapping(tmp_path):
    path = tmp_path / "two.svm"
    path.write_text("2 1:1.0\n4 2:1.0\n")
    _, y = read_libsvm(path)
    assert y.tolist() == [-1.0, 1.0]


def test_libsvm_malformed_line_number(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("+1 1:0.5\n-1 oops\n")
    with pytest.raises(ParseError) as err:
        read_libsvm(path)
    assert err.value.line == 2


@pytest.mark.parametrize("text, line, message", [
    # read as [1, -1, 1, -1] before: inf the +1 class, the real 1s the -1
    ("inf 1:1\n1 2:1\ninf 1:2\n1 2:3\n", 1, "non-finite label 'inf'"),
    ("1 1:1\n-1 1:1 2:nan\n", 2, "non-finite value 'nan'"),
    ("1 1:1\n-1 2:2\n# overflows to inf\n1 1:1e309\n", 4, "non-finite value '1e309'"),
])
def test_libsvm_non_finite_entries_are_parse_errors(tmp_path, text, line, message):
    path = tmp_path / "bad.svm"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_libsvm(path)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_libsvm_without_feature_entries_is_a_parse_error(tmp_path):
    # labels alone would make a data matrix with no columns
    path = tmp_path / "labels.svm"
    path.write_text("1\n-1\n1\n")
    with pytest.raises(ParseError, match="^no feature entries found$"):
        read_libsvm(path)


@pytest.mark.parametrize("text, line, message", [
    ("+1 1:1\nyes 1:1\n", 2, "bad label 'yes'"),
    ("+1 0:1\n", 1, "feature index 0 < 1"),
    ("+1 1:1 1:2\n", 1, "feature indices must increase, got 1 after 1"),
    ("+1 2:1 1:2\n", 1, "feature indices must increase, got 1 after 2"),
])
def test_libsvm_malformed_entries_are_parse_errors(tmp_path, text, line, message):
    path = tmp_path / "bad.svm"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_libsvm(path)
    assert str(err.value) == f"line {line}: {message}"


def test_libsvm_without_samples_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("# no samples\n\n")
    with pytest.raises(ParseError, match="^no samples found$"):
        read_libsvm(path)


def test_libsvm_nonbinary_labels(tmp_path):
    path = tmp_path / "multi.svm"
    path.write_text("1 1:1\n2 1:1\n3 1:1\n")
    with pytest.raises(ParseError):
        read_libsvm(path)
    path.write_text("2 1:1\n2 1:0.5\n")  # one label, not +-1
    with pytest.raises(ParseError):
        read_libsvm(path)


def test_load_libsvm_applies_ridge(tmp_path):
    path = tmp_path / "tiny.svm"
    path.write_text("+1 1:1\n-1 1:0.5\n")
    obj = load_libsvm(path, gamma=2.0)
    assert isinstance(obj, RegularizedObjective)
    b = obj.curvature_matrix()
    dense = b.to_dense() if isinstance(b, CsrSymmetricUpper) else b
    assert dense[0, 0] == pytest.approx(0.25 * (1 + 0.25) + 2.0)


@pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
def test_load_libsvm_refuses_a_bad_ridge_weight(tmp_path, gamma):
    # before, a negative or NaN weight silently dropped the ridge; 0 still
    # means no ridge
    path = tmp_path / "tiny.svm"
    path.write_text("+1 1:1\n-1 1:0.5\n")
    with pytest.raises(ValueError):
        load_libsvm(path, gamma=gamma)
    assert not isinstance(load_libsvm(path, gamma=0.0), RegularizedObjective)


# ---------------------------------------------------------------------------
# reference optima


def test_reference_min_quadratic_closed_form():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((6, 6))
    a = g @ g.T + np.eye(6)
    b = rng.standard_normal(6)
    obj = QuadraticObjective(a, b)
    f_star = reference_min(obj)
    assert f_star == pytest.approx(obj.value(np.linalg.solve(a, b)), rel=1e-12)


def test_reference_min_rejects_inconsistent_quadratic():
    a = np.diag([1.0, 0.0])
    obj = QuadraticObjective(a, np.array([1.0, 1.0]))  # unbounded along e2
    with pytest.raises(UnboundedLevelSet):
        reference_min(obj)


def test_reference_min_one_dim_logistic_bisection_oracle(tmp_path):
    # minimize ln(1 + exp(-x)) + x^2/2: stationarity is x = 1/(1 + e^x)
    path = tmp_path / "unit.svm"
    path.write_text("+1 1:1\n")
    obj = load_libsvm(path, gamma=1.0)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid - 1.0 / (1.0 + np.exp(mid)) > 0:
            hi = mid
        else:
            lo = mid
    x_root = 0.5 * (lo + hi)
    assert x_root == pytest.approx(0.4010581, abs=1e-6)
    f_oracle = float(np.log1p(np.exp(-x_root)) + 0.5 * x_root**2)
    assert reference_min(obj) == pytest.approx(f_oracle, rel=1e-9)


def test_reference_min_lower_bounds_function_values(tmp_path):
    path = tmp_path / "few.svm"
    path.write_text("+1 1:1 2:-0.5\n-1 2:2\n+1 1:-1 3:1\n")
    obj = load_libsvm(path, gamma=1.0)
    f_star = reference_min(obj)
    rng = np.random.default_rng(11)
    for _ in range(100):
        assert f_star <= obj.value(rng.standard_normal(obj.n) * 3) + 1e-12


def test_reference_min_refuses_a_curvature_that_is_not_positive_definite(tmp_path):
    # feature 2 never occurs, so without a ridge B has a zero row
    path = tmp_path / "gap.svm"
    path.write_text("+1 1:1 3:0.5\n-1 1:0.5\n")
    with pytest.raises(NumericError, match="not positive definite"):
        reference_min(load_libsvm(path, gamma=0.0))
    obj = load_libsvm(path, gamma=0.5)
    b = obj.curvature_matrix()
    assert isinstance(b, CsrSymmetricUpper)
    assert reference_min(obj) == reference_min(obj, b=b.to_dense())


def _planted_libsvm(path, seed: int, rows: int = 300, features: int = 20):
    """A LIBSVM file whose labels are the sign of a planted score plus
    noise, each entry present with probability 0.3."""
    gen = np.random.default_rng(seed)
    w = gen.standard_normal(features)
    x = np.where(gen.random((rows, features)) < 0.3, gen.standard_normal((rows, features)), 0.0)
    y = np.where(x @ w + 0.5 * gen.standard_normal(rows) > 0.0, "+1", "-1")
    path.write_text("".join(
        label + "".join(f" {j + 1}:{row[j]!r}" for j in np.flatnonzero(row).tolist()) + "\n"
        for label, row in zip(y.tolist(), x.tolist())
    ))
    return path


def _counting_gradients(obj):
    """Wrap ``obj.gradient`` so that each call appends the gradient's norm."""
    norms = []
    gradient = obj.gradient

    def counted(x):
        g = gradient(x)
        norms.append(float(np.linalg.norm(g)))
        return g

    obj.gradient = counted
    return norms


@pytest.mark.parametrize("gamma", [1.0, 1e-2, 1e-4])
def test_reference_min_matches_the_plain_majorization_on_a_logistic_file(tmp_path, gamma):
    obj = load_libsvm(_planted_libsvm(tmp_path / "planted.svm", seed=1), gamma=gamma)
    assert reference_min(obj) == pytest.approx(majorization_min(obj), rel=1e-12, abs=0)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize(
    "loss", [HuberLoss(0.5), LogSumExpLoss(0.3), SqrtNormLoss(0.3), SquareLoss()],
    ids=["huber", "logsumexp", "sqrtnorm", "square"],
)
def test_reference_min_matches_the_plain_majorization_on_ridge_objectives(loss, sparse):
    rng = np.random.default_rng(21)
    a = rng.standard_normal((60, 10))
    a[rng.random(a.shape) < 0.6] = 0.0
    data = scipy.sparse.csr_matrix(a) if sparse else a
    obj = RegularizedObjective(SeparableObjective(data, rng.standard_normal(60), loss), 1e-2)
    assert reference_min(obj) == pytest.approx(majorization_min(obj), rel=1e-12, abs=0)


def test_reference_min_takes_accelerated_steps(tmp_path):
    # the band holds the 57-84 gradient evaluations of seeds 100-199 at this
    # shape with room; the plain majorization step took 168-262 there
    obj = load_libsvm(_planted_libsvm(tmp_path / "planted.svm", seed=1), gamma=1.0)
    norms = _counting_gradients(obj)
    reference_min(obj)
    assert 40 <= len(norms) <= 120
    assert norms[-1] <= 1e-10 < min(norms[:-1])


def test_reference_min_fails_at_its_iteration_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(problems, "_REFERENCE_MAX_ITERS", 3)
    obj = load_libsvm(_planted_libsvm(tmp_path / "planted.svm", seed=1), gamma=1.0)
    norms = _counting_gradients(obj)
    with pytest.raises(NumericError) as err:
        reference_min(obj)
    assert len(norms) == 3
    assert str(err.value) == (
        "reference solve did not reach gradient norm 1e-10 in 3 iterations "
        f"(achieved {norms[-1]:.3e})"
    )


# ---------------------------------------------------------------------------
# structured matrices


def test_banded_psd_structure_and_definiteness():
    b = banded_psd(60, 4, seed=12)
    dense = b.to_dense()
    assert np.linalg.eigvalsh(dense).min() > 0
    i, j = np.nonzero(dense)
    assert np.abs(i - j).max() <= 4
    assert b.nnz == 60 + sum(60 - d for d in range(1, 5))


def _banded_psd_by_scipy(n, bandwidth, seed):
    """banded_psd through scipy's COO matrix and from_scipy, with the same
    draws: the oracle for the band-array build."""
    import scipy.sparse

    from volcd.rng import RngStream

    rng = RngStream(seed)
    rows, cols, vals = [], [], []
    rowsum = np.zeros(n)
    for d in range(1, bandwidth + 1):
        v = rng.standard_normal(n - d)
        i = np.arange(n - d)
        rows.append(i)
        cols.append(i + d)
        vals.append(v)
        np.add.at(rowsum, i, np.abs(v))
        np.add.at(rowsum, i + d, np.abs(v))
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(rowsum + 1.0)
    upper = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return CsrSymmetricUpper.from_scipy(upper)


# bandwidth n - 1 stops at n = 1000: at n = 10000 it stores 5e7 entries
@pytest.mark.parametrize("n, bandwidth", [
    (n, bw) for n in (2, 10, 50, 1000, 10000) for bw in sorted({1, 4, 9, n - 1})
    if bw < n and (bw < 10 or n <= 1000)
])
def test_banded_psd_matches_the_scipy_construction_bitwise(n, bandwidth):
    for seed in range(4):
        got, expected = banded_psd(n, bandwidth, seed), _banded_psd_by_scipy(n, bandwidth, seed)
        assert got.n == expected.n
        for name in ("indptr", "indices", "values"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def test_dataset_curvature_spectrum_pipeline(tmp_path):
    # synthetic stand-in for the dataset spectral check: rows are coordinate
    # spikes, so the regularized curvature spectrum is known exactly and the
    # file-to-eigenvalues path can be verified end to end
    from volcd.linalg import eigendecompose
    from volcd.spectral import acceleration_ratio

    target = np.array([891.0, 118, 41, 35, 30, 25, 20, 15, 8, 5])
    n, m = 10, 683
    scale = np.sqrt(4.0 * (target - 1.0))  # gamma = 1 adds the identity back
    counts = np.full(n, m // n)
    counts[: m % n] += 1
    lines = []
    label = 1
    for j in range(n):
        per_row = float(scale[j] / np.sqrt(counts[j]))
        for _ in range(counts[j]):
            lines.append(f"{'+1' if label > 0 else '-1'} {j + 1}:{per_row!r}")
            label = -label
    path = tmp_path / "spikes.svm"
    path.write_text("\n".join(lines) + "\n")

    obj = load_libsvm(path, gamma=1.0)
    b = obj.curvature_matrix()
    dense = b.to_dense() if isinstance(b, CsrSymmetricUpper) else b
    lam = eigendecompose(dense).eigenvalues
    assert np.allclose(lam, target, rtol=1e-10)
    assert acceleration_ratio(lam, 1, 2) == pytest.approx(4.0)
