import builtins

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from volcd.errors import ParseError, SingularSubmatrix, ZeroDiagonalNonzeroRow
from volcd.linalg import (
    CsrSymmetricUpper,
    add_to_diagonal,
    adjugate,
    as_symmetric,
    eigendecompose,
    load_csr_triples,
    load_dense_triples,
    principal_submatrix,
    psd_det,
    pseudo_solve,
    save_triples,
    spd_solve,
)

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
    csr = CsrSymmetricUpper.from_rows(
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


def test_spd_solve_diagonal():
    assert np.allclose(spd_solve(np.diag([2.0, 4.0]), [2.0, 4.0]), [1.0, 1.0])


def test_spd_solve_hand_case():
    assert np.allclose(spd_solve([[2.0, 1], [1, 2]], [3.0, 3.0]), [1.0, 1.0])


def test_spd_solve_singular_raises():
    for m in (
        [[1.0, 1], [1, 1]],  # rank deficient
        [[1.0, 2], [2, 1]],  # indefinite
        [[2.0, 0, 0], [0, 0, 0], [0, 0, 3]],  # zero pivot
    ):
        with pytest.raises(SingularSubmatrix):
            spd_solve(m, np.ones(len(m)))


def test_spd_solve_imports_lapack_once(monkeypatch):
    spd_solve(np.eye(4), np.ones(4))
    imported = []
    real_import = builtins.__import__

    def recording(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", recording)
    h = spd_solve(4.0 * np.eye(4), np.ones(4))
    monkeypatch.undo()
    assert imported == []
    assert np.array_equal(h, np.full(4, 0.25))


def test_spd_solve_rejects_non_square():
    with pytest.raises(ValueError):
        spd_solve(np.ones((2, 3)), [1.0, 2.0])


def test_spd_solve_bitwise_matches_scipy_cholesky():
    rng = np.random.default_rng(11)
    for n in (3, 5):
        for _ in range(200):
            g = rng.standard_normal((n + 2, n))
            m = g.T @ g
            for rhs in (rng.standard_normal(n), rng.standard_normal((n, 2))):
                factor = scipy.linalg.cho_factor(m, lower=True, check_finite=False)
                expected = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
                h = spd_solve(m, rhs)
                assert h.shape == expected.shape
                assert np.array_equal(h, expected)


def test_spd_solve_residual_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        g = rng.standard_normal((n, n))
        m = g @ g.T + np.eye(n)
        rhs = rng.standard_normal(n)
        h = spd_solve(m, rhs)
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
        CsrSymmetricUpper.from_rows(
            4, [([0, 2], [2.0, 0.0]), ([], []), ([2, 3], [1.0, 0.5]), ([3], [1.0])]
        ),
        CsrSymmetricUpper.from_rows(3, []),
    ]
    for csr in csrs:
        expected = CsrSymmetricUpper.from_scipy(
            csr.to_scipy() + 0.5 * scipy.sparse.identity(csr.n)
        )
        got = add_to_diagonal(csr, 0.5)
        assert isinstance(got, CsrSymmetricUpper)
        for name in ("indptr", "indices", "values"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert (np.diff(got.indptr) > 0).all()


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
        assert np.allclose(pseudo_solve(m, rhs), spd_solve(m, rhs), atol=1e-8)


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
        CsrSymmetricUpper.from_rows(2, [([1], [1.0]), ([1], [2.0])])


def test_csr_zero_diagonal_with_offdiag_rejected():
    with pytest.raises(ZeroDiagonalNonzeroRow):
        CsrSymmetricUpper.from_rows(2, [([0, 1], [0.0, 1.0]), ([1], [2.0])])


def test_csr_zero_rows_allowed():
    c = CsrSymmetricUpper.from_rows(3, [([0], [1.0]), ([], []), ([2], [2.0])])
    assert np.allclose(c.to_dense(), np.diag([1.0, 0.0, 2.0]))
    assert c.indptr[1] == c.indptr[2]  # row 1 stores nothing


def test_csr_rejects_unsorted_columns():
    with pytest.raises(ValueError):
        CsrSymmetricUpper.from_rows(3, [([0, 2, 1], [1.0, 0.5, 0.5]), ([], []), ([], [])])


def test_csr_rejects_negative_diagonal():
    with pytest.raises(ValueError):
        CsrSymmetricUpper.from_rows(1, [([0], [-1.0])])


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


def test_as_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError):
        as_symmetric([[1.0, 2.0], [0.0, 1.0]])
