import builtins

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from volcd.errors import ParseError, SingularSubmatrix, ZeroDiagonalNonzeroRow
from volcd.linalg import (
    CsrMatrix,
    CsrSymmetricUpper,
    add_to_diagonal,
    as_symmetric,
    eigendecompose,
    load_csr_triples,
    load_dense_triples,
    pseudo_solve,
    save_triples,
)
from volcd.objectives import QuadraticObjective, _make_step_solver

from oracles import adjugate, copied_row, csr_from_rows, principal_submatrix, psd_det, to_scipy

TRIDIAG = np.array([[2.0, 1, 0], [1, 2, 1], [0, 1, 2]])


# ---------------------------------------------------------------------------
# principal submatrices


def test_submatrix_diagonal_selection():
    b = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(principal_submatrix(b, [0, 2]), np.diag([1.0, 3.0]))


def test_submatrix_direct_lookup():
    assert np.array_equal(
        principal_submatrix(TRIDIAG, [0, 2]), np.array([[2.0, 0], [0, 2.0]])
    )


def test_submatrix_full_set_is_identity_case():
    assert np.array_equal(principal_submatrix(TRIDIAG, [0, 1, 2]), TRIDIAG)


def test_submatrix_out_of_range():
    with pytest.raises(IndexError):
        principal_submatrix(TRIDIAG, [0, 3])


def test_submatrix_csr_matches_dense():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(2, 9)
        g = rng.standard_normal((n, n))
        b = g @ g.T
        b[np.abs(b) < 0.3] = 0.0
        np.fill_diagonal(b, np.abs(np.diag(b)) + 1.0)
        csr = CsrSymmetricUpper.from_dense(b)
        tau = int(rng.integers(1, n + 1))
        s = np.sort(rng.choice(n, size=tau, replace=False))
        assert np.array_equal(
            principal_submatrix(csr, s), principal_submatrix(b, s)
        )
    # an empty row reads as zeros, inside and outside the selected block
    csr = csr_from_rows(
        4, [([0, 2], [2.0, 0.5]), ([], []), ([2, 3], [3.0, -1.0]), ([3], [1.5])]
    )
    dense = csr.to_dense()
    for s in ([1], [0, 1], [0, 2], [1, 3], [0, 1, 2], [0, 1, 2, 3]):
        assert np.array_equal(
            principal_submatrix(csr, s), principal_submatrix(dense, s)
        )


def test_submatrix_of_psd_is_psd():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n))
        b = g @ g.T
        tau = int(rng.integers(1, n + 1))
        s = np.sort(rng.choice(n, size=tau, replace=False))
        sub = principal_submatrix(b, s)
        assert np.linalg.eigvalsh(sub).min() >= -1e-10


# ---------------------------------------------------------------------------
# solves


def _kernel_solve(m, rhs, sparse=False, exact=True):
    """The step kernel's solve of M h = rhs, M taken as a whole block of a
    dense or CSR B; four or more coordinates take LAPACK's Cholesky."""
    m = np.asarray(m, dtype=float)
    b = CsrSymmetricUpper.from_dense(m) if sparse else m
    return _make_step_solver(b, exact)(np.arange(len(m)), np.asarray(rhs, dtype=float))


def test_spd_solve_diagonal():
    for sparse in (False, True):
        h = _kernel_solve(np.diag([2.0, 4.0, 8.0, 16.0]), [2.0, 4.0, 8.0, 16.0], sparse)
        assert np.allclose(h, np.ones(4))


def test_spd_solve_hand_case():
    m = np.kron(np.eye(2), [[2.0, 1], [1, 2]])
    for sparse in (False, True):
        assert np.allclose(_kernel_solve(m, [3.0, 3.0, 3.0, 3.0], sparse), np.ones(4))


def test_spd_solve_singular_raises():
    for m in (
        np.ones((4, 4)),  # rank one
        np.kron(np.eye(3), [[1.0, 2], [2, 1]]),  # indefinite
        np.diag([2.0, 0, 3, 1, 5]),  # zero pivot
        np.kron(np.diag([1.0, 2, 3, 4]), np.ones((2, 2))),  # copied rows at size 8
        # a copied row at sizes 4, 5 and 8, whose blocks LAPACK accepted for
        # 61 of these 200 seeds
        *(copied_row(seed, size + 2)[:size, :size] for size in (4, 5, 8) for seed in range(200)),
    ):
        for sparse in (False, True):
            with pytest.raises(SingularSubmatrix, match=f"singular {len(m)}x{len(m)} submatrix"):
                _kernel_solve(m, np.ones(len(m)), sparse)


def test_spd_solve_imports_lapack_once(monkeypatch):
    _kernel_solve(np.eye(4), np.ones(4))
    imported = []
    real_import = builtins.__import__

    def recording(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", recording)
    h = _kernel_solve(4.0 * np.eye(4), np.ones(4))
    h_sparse = _kernel_solve(4.0 * np.eye(4), np.ones(4), sparse=True)
    monkeypatch.undo()
    assert imported == []
    assert np.array_equal(h, np.full(4, 0.25))
    assert np.array_equal(h_sparse, np.full(4, 0.25))


def test_spd_solve_bitwise_matches_scipy_cholesky():
    rng = np.random.default_rng(11)
    for n in (4, 5, 8):
        for _ in range(200):
            g = rng.standard_normal((n + 2, n))
            m = g.T @ g
            rhs = rng.standard_normal(n)
            factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
            expected = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            for sparse in (False, True):
                h = _kernel_solve(m, rhs, sparse)
                assert h.shape == expected.shape
                assert np.array_equal(h, expected)


def test_spd_solve_residual_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        g = rng.standard_normal((n, n))
        m = g @ g.T + np.eye(n)
        rhs = rng.standard_normal(n)
        for sparse in (False, True):
            h = _kernel_solve(m, rhs, sparse)
            assert np.linalg.norm(m @ h - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


def test_add_to_diagonal_matches_scipy_sum():
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((5, 7))
    dense = dense.T @ dense
    dense[3, :] = dense[:, 3] = 0.0
    shifted = add_to_diagonal(dense, 0.5)
    assert np.array_equal(shifted, dense + 0.5 * np.eye(7))
    csrs = [
        CsrSymmetricUpper.from_dense(dense),
        # an empty row and a stored off-diagonal zero
        csr_from_rows(
            4, [([0, 2], [2.0, 0.0]), ([], []), ([2, 3], [1.0, 0.5]), ([3], [1.0])]
        ),
        csr_from_rows(3, []),
    ]
    for csr in csrs:
        expected = CsrSymmetricUpper.from_scipy(
            _scipy_full(csr) + 0.5 * scipy.sparse.identity(csr.n)
        )
        got = add_to_diagonal(csr, 0.5)
        assert isinstance(got, CsrSymmetricUpper)
        _assert_same_upper(got, expected)
        assert (np.diff(got.indptr) > 0).all()


# ---------------------------------------------------------------------------
# numpy CSR kernels, bitwise against scipy oracles


def _scipy_full(csr):
    """The full symmetric scipy matrix of a CsrSymmetricUpper, built from its
    upper triangle by scipy alone."""
    rows = np.repeat(np.arange(csr.n), np.diff(csr.indptr))
    upper = scipy.sparse.coo_matrix((csr.values, (rows, csr.indices)), shape=csr.shape)
    off = rows != csr.indices
    lower = scipy.sparse.coo_matrix(
        (csr.values[off], (csr.indices[off], rows[off])), shape=csr.shape
    )
    return (upper + lower).tocsr()


def _assert_same_upper(got, expected):
    assert got.n == expected.n
    for name in ("indptr", "indices", "values"):
        assert getattr(got, name).dtype == getattr(expected, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def _assert_same_csr(got, expected):
    """A CsrMatrix against a canonical scipy matrix: equal arrays, bitwise
    data, intp indices."""
    assert got.shape == expected.shape
    assert got.indptr.dtype == got.indices.dtype == np.intp
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert got.data.dtype == np.float64
    assert got.data.tobytes() == expected.data.astype(np.float64).tobytes()


def _sparse_cases():
    """scipy CSR data matrices: random ones with an empty row and an empty
    column, an all-zero one, and one stored with unsorted rows, a repeated
    entry and empty rows."""
    cases = []
    shapes = [(30, 12, 0.3), (12, 30, 0.1), (40, 40, 0.05), (7, 5, 0.9), (1, 1, 1.0)]
    for seed, (m, n, density) in enumerate(shapes):
        rng = np.random.default_rng(seed)
        d = np.where(rng.random((m, n)) < density, rng.standard_normal((m, n)), 0.0)
        if m > 2 and n > 2:
            d[1] = 0.0
            d[:, 2] = 0.0
        cases.append(scipy.sparse.csr_matrix(d))
    cases.append(scipy.sparse.csr_matrix((6, 4)))
    # row 0 unsorted, row 2 unsorted with column 1 twice, rows 1 and 3 empty
    cases.append(scipy.sparse.csr_matrix((
        np.array([0.5, -1.25, 2.0, 0.75, 3.0, -0.5, 1.5]),
        np.array([3, 0, 2, 1, 1, 0, 3]),
        np.array([0, 3, 3, 6, 6, 7]),
    ), shape=(5, 4)))
    return cases


def _canonical(sp):
    canon = sp.copy()
    canon.sum_duplicates()  # sorts each row and adds repeats
    return canon


def test_csr_matrix_arrays_and_products_match_scipy():
    rng = np.random.default_rng(21)
    for sp in _sparse_cases():
        m, n = sp.shape
        a = CsrMatrix.from_scipy(sp)
        canon = _canonical(sp)
        _assert_same_csr(a, canon)
        assert a.toarray().tobytes() == canon.toarray().tobytes()
        x, w = rng.standard_normal(n), rng.standard_normal(m)
        assert (a @ x).tobytes() == (canon @ x).tobytes()
        assert a.rmatvec(w).tobytes() == (canon.T @ w).tobytes()


def test_csr_matrix_sums_repeated_entries_in_float64():
    sp = _sparse_cases()[-1]
    a = CsrMatrix.from_scipy(sp.astype(np.float32))
    assert a.data.dtype == np.float64
    assert np.array_equal(a.toarray(), sp.toarray())
    assert a.toarray()[2, 1] == 3.75
    with pytest.raises(ValueError, match="length 4"):
        a @ np.zeros(5)


def test_csr_gram_matches_scipy():
    cases = _sparse_cases()
    pairs = [int((np.diff(c.indptr) * (np.diff(c.indptr) + 1) // 2).sum()) for c in cases]
    # both accumulators run: dense where n * n is at most the pair count
    assert {c.shape[1] ** 2 <= p for c, p in zip(cases, pairs)} == {True, False}
    for sp in cases:
        a, canon = CsrMatrix.from_scipy(sp), _canonical(sp)
        for scale in (1.0, 0.25, 1.0 / 0.3):
            expected = CsrSymmetricUpper.from_scipy(scale * (canon.T @ canon))
            _assert_same_upper(a.gram(scale), expected)


def test_csr_columns_match_scipy_csc():
    for sp in _sparse_cases():
        csc = scipy.sparse.csc_matrix(_canonical(sp))
        indptr, rows, data = CsrMatrix.from_scipy(sp).columns()
        assert indptr.dtype == rows.dtype == np.intp
        assert np.array_equal(indptr, csc.indptr)
        assert np.array_equal(rows, csc.indices)
        assert data.tobytes() == csc.data.tobytes()


def _symmetric_cases():
    """Dense PSD matrices, with zero-diagonal (empty) rows among them."""
    out = [TRIDIAG, np.zeros((3, 3)), np.diag([0.0, 2.0, 0.0])]
    for sp in _sparse_cases():
        canon = _canonical(sp)
        out.append((canon.T @ canon).toarray())
    return out


def test_from_dense_and_add_to_diagonal_match_scipy():
    for dense in _symmetric_cases():
        csr = CsrSymmetricUpper.from_dense(dense)
        expected = CsrSymmetricUpper.from_scipy(scipy.sparse.csr_matrix(as_symmetric(dense)))
        _assert_same_upper(csr, expected)
        for c in (0.5, 1.0 / 3.0):
            _assert_same_upper(
                add_to_diagonal(csr, c),
                CsrSymmetricUpper.from_scipy(
                    _scipy_full(csr) + c * scipy.sparse.identity(csr.n)
                ),
            )


def test_full_operator_and_its_products_match_scipy():
    rng = np.random.default_rng(22)
    csrs = [CsrSymmetricUpper.from_dense(d) for d in _symmetric_cases()]
    # a stored off-diagonal zero, which the full operator leaves out
    csrs.append(csr_from_rows(3, [([0, 2], [2.0, 0.0]), ([], []), ([2], [1.0])]))
    for csr in csrs:
        expected = _scipy_full(csr)
        for full in (csr.full(), QuadraticObjective(csr, np.zeros(csr.n))._operator()):
            _assert_same_csr(full, expected)
            x = rng.standard_normal(csr.n)
            assert (full @ x).tobytes() == (expected @ x).tobytes()
        bridged = to_scipy(csr)
        assert np.array_equal(bridged.indices, expected.indices)
        assert bridged.data.tobytes() == expected.data.tobytes()


def test_pseudo_solve_zero_block():
    assert np.allclose(pseudo_solve(np.diag([2.0, 0.0]), [4.0, 5.0]), [2.0, 0.0])


def test_pseudo_solve_rank_one():
    assert np.allclose(pseudo_solve([[1.0, 1], [1, 1]], [2.0, 2.0]), [1.0, 1.0])


def test_pseudo_solve_refuses_a_non_finite_matrix():
    # LAPACK's least-squares routine can stall on a NaN matrix
    with pytest.raises(ValueError, match="non-finite"):
        pseudo_solve(np.diag([1.0, np.nan]), np.array([1.0, 1.0]))


def test_pseudo_solve_matches_spd_solve_on_spd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        g = rng.standard_normal((n, n))
        m = g @ g.T + np.eye(n)
        rhs = rng.standard_normal(n)
        assert np.allclose(pseudo_solve(m, rhs), _kernel_solve(m, rhs), atol=1e-8)


# ---------------------------------------------------------------------------
# spectra, determinants, adjugates


def test_eigendecompose_diagonal():
    spec = eigendecompose(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])


def test_eigendecompose_2x2_closed_form():
    spec = eigendecompose([[2.0, 1], [1, 2]])
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])


def test_eigendecompose_invariants_and_similarity():
    rng = np.random.default_rng(4)
    d = rng.uniform(0.5, 5.0, size=6)
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    h = np.eye(6) - 2 * np.outer(u, u)
    b = h @ np.diag(d) @ h
    spec = eigendecompose(b)
    assert np.allclose(spec.eigenvalues, np.sort(d)[::-1], atol=1e-8)
    assert np.allclose(spec.q.T @ spec.q, np.eye(6), atol=1e-10)
    assert np.linalg.norm(spec.matrix() - b) <= 1e-8 * np.linalg.norm(b)


def test_determinant_and_adjugate_small():
    assert np.allclose(adjugate(np.diag([1.0, 2.0])), np.diag([2.0, 1.0]))
    assert np.allclose(adjugate(np.eye(4)), np.eye(4))
    assert np.allclose(
        adjugate(np.array([[2.0, 1], [1, 2]])), np.array([[2.0, -1], [-1, 2]])
    )


def test_adjugate_identity_m_times_adj():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n))
        m = 0.5 * (m + m.T)
        adj = adjugate(m)
        det = np.linalg.det(m)
        scale = max(1.0, abs(det))
        assert np.allclose(m @ adj, det * np.eye(n), atol=1e-8 * scale)


def test_psd_det_clamps_degenerate():
    assert psd_det(np.array([[1.0, 1], [1, 1]])) == 0.0
    assert psd_det(np.zeros((2, 2))) == 0.0
    assert psd_det(np.diag([1.0, 2.0])) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# sparse storage validation


def test_csr_requires_diagonal_first():
    with pytest.raises(ZeroDiagonalNonzeroRow):
        csr_from_rows(2, [([1], [1.0]), ([1], [2.0])])


def test_csr_zero_diagonal_with_offdiag_rejected():
    with pytest.raises(ZeroDiagonalNonzeroRow):
        csr_from_rows(2, [([0, 1], [0.0, 1.0]), ([1], [2.0])])


def test_csr_zero_diagonal_with_nonzero_above_it_rejected():
    # [[1, 0.5], [0.5, 0]] is indefinite: its column 1 holds 0.5 above a
    # diagonal that is absent or stored as 0.0
    for indptr, indices, values in (
        ([0, 2, 2], [0, 1], [1.0, 0.5]),
        ([0, 2, 3], [0, 1, 1], [1.0, 0.5, 0.0]),
    ):
        with pytest.raises(ZeroDiagonalNonzeroRow):
            CsrSymmetricUpper(2, indptr, indices, values)
    with pytest.raises(ZeroDiagonalNonzeroRow):
        CsrSymmetricUpper.from_dense([[1.0, 0.5], [0.5, 0.0]])
    # a stored zero above a zero diagonal contradicts nothing
    c = CsrSymmetricUpper(2, [0, 2, 2], [0, 1], [1.0, 0.0])
    assert np.array_equal(c.to_dense(), np.diag([1.0, 0.0]))


def test_csr_zero_rows_allowed():
    c = csr_from_rows(3, [([0], [1.0]), ([], []), ([2], [2.0])])
    assert np.allclose(c.to_dense(), np.diag([1.0, 0.0, 2.0]))
    assert c.indptr[1] == c.indptr[2]  # row 1 stores nothing


def test_csr_rejects_unsorted_columns():
    with pytest.raises(ValueError):
        csr_from_rows(3, [([0, 2, 1], [1.0, 0.5, 0.5]), ([], []), ([], [])])


def test_csr_rejects_negative_diagonal():
    with pytest.raises(ValueError):
        csr_from_rows(1, [([0], [-1.0])])


def test_csr_entry_lookup():
    c = CsrSymmetricUpper.from_dense(TRIDIAG)
    assert c.item(0, 1) == 1.0
    assert c.item(1, 0) == 1.0
    assert c.item(0, 2) == 0.0
    assert np.allclose(c.diagonal(), [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# triple-format text IO


def test_triple_roundtrip_csr(tmp_path):
    path = tmp_path / "m.txt"
    c = CsrSymmetricUpper.from_dense(TRIDIAG)
    save_triples(c, path)
    back = load_csr_triples(path)
    assert np.allclose(back.to_dense(), TRIDIAG)


def test_triple_roundtrip_dense_with_trailing_zero_row(tmp_path):
    path = tmp_path / "m.txt"
    b = np.zeros((4, 4))
    b[0, 0] = 2.0
    b[0, 1] = b[1, 0] = -1.0
    b[1, 1] = 3.0
    save_triples(b, path)
    back = load_dense_triples(path)
    assert back.shape == (4, 4)
    assert np.allclose(back, b)


def test_triple_loader_is_one_based(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 1 2.0\n1 2 1.0\n2 2 2.0\n")
    assert np.allclose(load_dense_triples(path), [[2.0, 1.0], [1.0, 2.0]])


def test_triple_loader_rejects_lower_triangle(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 1 1.0\n")
    with pytest.raises(ParseError) as err:
        load_dense_triples(path)
    assert err.value.line == 1


def test_triple_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 1 2.0\nnot a triple\n")
    with pytest.raises(ParseError) as err:
        load_csr_triples(path)
    assert err.value.line == 2


def test_triple_loaders_sort_entries_and_keep_the_last_repeat(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# B\n2 3 1.0\n3 3 4.0\n1 1 2.0\n\n2 2 9.0\n2 2 3.0\n1 3 0.0\n")
    expected = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert np.array_equal(load_dense_triples(path), expected)
    c = load_csr_triples(path)
    # the stored zero stays stored
    assert c.indptr.tolist() == [0, 2, 4, 5]
    assert c.indices.tolist() == [0, 2, 1, 2, 2]
    assert c.values.tolist() == [2.0, 0.0, 3.0, 1.0, 4.0]


@pytest.mark.parametrize("text", [
    "1 2 0.5\n2 2 1.0\n",  # row 1 has no diagonal
    "1 1 0.0\n1 2 0.5\n2 2 1.0\n",  # row 1's diagonal is 0
    "1 1 1.0\n1 2 0.5\n",  # column 2 has no diagonal
    "1 1 1.0\n1 2 0.5\n2 2 0.0\n",  # column 2's diagonal is 0
])
def test_csr_triple_loader_rejects_an_entry_beside_a_zero_diagonal(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ZeroDiagonalNonzeroRow):
        load_csr_triples(path)
    assert load_dense_triples(path).shape == (2, 2)


def test_as_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError):
        as_symmetric([[1.0, 2.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize("n, indptr, indices, values, error, message", [
    (0, [0], [], [], ValueError, "dimension must be at least 1"),
    (2, [0, 1], [0], [1.0], ValueError, "malformed indptr"),
    (2, [1, 1, 1], [0], [1.0], ValueError, "malformed indptr"),
    (2, [0, 1, 2], [0, 1], [1.0], ValueError, "equal length"),
    (2, [0, 2, 1], [0], [1.0], ValueError, "nondecreasing"),
    (2, [0, 1, 2], [0, 1], [1.0, np.inf], ValueError, "non-finite"),
    (2, [0, 1, 2], [0, 2], [1.0, 1.0], IndexError, "out of range"),
    (2, [0, 1, 2], [0, 0], [1.0, 1.0], ValueError, "below the diagonal"),
])
def test_csr_symmetric_upper_rejects_malformed_arrays(n, indptr, indices, values, error,
                                                      message):
    with pytest.raises(error, match=message):
        CsrSymmetricUpper(n, indptr, indices, values)


@pytest.mark.parametrize("shape, indptr, indices, data, error, message", [
    ((-1, 2), [0], [], [], ValueError, "invalid shape"),
    ((2, 2), [0, 1], [0], [1.0], ValueError, "malformed indptr"),
    ((2, 2), [0, 1, 2], [0, 1], [1.0], ValueError, "equal length"),
    ((2, 2), [0, 2, 1], [0], [1.0], ValueError, "nondecreasing"),
    ((2, 2), [0, 1, 2], [0, 2], [1.0, 1.0], IndexError, "out of range"),
])
def test_csr_matrix_rejects_malformed_arrays(shape, indptr, indices, data, error, message):
    with pytest.raises(error, match=message):
        CsrMatrix(shape, indptr, indices, data)


@pytest.mark.parametrize("a, message", [
    (np.ones((2, 3)), "expected a square matrix"),
    (np.ones(3), "expected a square matrix"),
    (np.empty((0, 0)), "at least 1"),
])
def test_as_symmetric_rejects_a_non_square_or_empty_matrix(a, message):
    with pytest.raises(ValueError, match=message):
        as_symmetric(a)


@pytest.mark.parametrize("text, message", [
    ("1 1\n", "expected 'i j v'"),
    ("1 1 2.0 3\n", "expected 'i j v'"),
    ("1 1 nan\n", "non-finite value"),
    ("1 1 inf\n", "non-finite value"),
    ("# only a comment\n\n", "no matrix entries found"),
])
@pytest.mark.parametrize("load", [load_dense_triples, load_csr_triples])
def test_triple_loaders_reject_malformed_files(tmp_path, text, message, load):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load(path)
