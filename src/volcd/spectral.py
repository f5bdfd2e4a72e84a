"""Spectral quantities governing the solver's convergence rate.

Everything here is a pure function of eigenvalues (and eigenvectors where a
matrix is materialized): elementary symmetric polynomials, subset-size
surrogate matrices, tail-sum acceleration ratios, strong-convexity moduli,
and sublevel-set radii for quadratics.  Brute-force enumeration paths back
the identity tests and are hard-capped at small sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialBlowup, DegenerateApprox, UnboundedLevelSet
from .linalg import Spectrum, adjugate, as_dense, eigendecompose, symmetrize
from .sampling import _esp_prefix_table, all_subsets, principal_minors

__all__ = [
    "TauApprox",
    "acceleration_ratio",
    "b_tau",
    "d_tau_quadratic",
    "elementary_symmetric",
    "expected_step_matrix",
    "modulus_quadratic",
    "sum_adjugates",
    "sum_principal_minors",
]

_ENUM_CAP_N = 12
_ENUM_CAP_SUBSETS = 10**5
_RANK_RTOL = 1e-12


def elementary_symmetric(x, m: int) -> float:
    """Elementary symmetric polynomial of degree m, with sigma_0 = 1.

    Evaluated by the degree-by-degree recurrence over prefixes, O(n * m)
    time and memory, which is stable for nonnegative inputs; degrees above
    len(x) return 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m > x.size:
        return 0.0
    return float(_esp_all_degrees(x, m)[m])


def _esp_all_degrees(x: np.ndarray, m: int) -> np.ndarray:
    """Degrees 0..m of the elementary symmetric polynomials of x: the last
    column of the spectral sampler's prefix table."""
    return _esp_prefix_table(x, m)[:, -1]


def sum_principal_minors(b, tau: int) -> float:
    """Sum of det(B[S, S]) over all tau-subsets, by enumeration.

    Equals the degree-tau elementary symmetric polynomial of the eigenvalues;
    this is the enumeration side of that identity.  Allowed up to n = 20
    (batched determinants stay cheap there).
    """
    b = as_dense(b)
    n = b.shape[0]
    if not 1 <= tau <= n:
        raise ValueError(f"subset size {tau} out of range for dimension {n}")
    if n > 20:
        raise CombinatorialBlowup(
            f"minor-sum enumeration is capped at n = 20, got n = {n}"
        )
    return float(principal_minors(b, tau, clamp=False).sum())


def sum_adjugates(b, tau: int, method: str = "spectral") -> np.ndarray:
    """Sum of embedded adjugates of all tau x tau principal submatrices.

    Two evaluation paths give the same matrix:

    * ``"enumerate"``: scatter-add adjugate(B[S, S]) into an n x n zero
      matrix over every subset S (slow; capped at small n),
    * ``"spectral"``: conjugate by the eigenvectors a diagonal of
      elementary symmetric polynomials of degree tau - 1 in the eigenvalues
      with one entry removed at a time.
    """
    b = as_dense(b)
    n = b.shape[0]
    if method == "enumerate":
        _guard_enumeration(n, tau)
        out = np.zeros((n, n))
        for s in all_subsets(n, tau):
            out[np.ix_(s, s)] += adjugate(b[np.ix_(s, s)])
        return symmetrize(out)
    if method == "spectral":
        spec = eigendecompose(b)
        lam = spec.eigenvalues
        d = np.empty(n)
        for i in range(n):
            d[i] = _esp_all_degrees(np.delete(lam, i), tau - 1)[tau - 1]
        return symmetrize((spec.q * d) @ spec.q.T)
    raise ValueError(f"unknown method {method!r}")


def _guard_enumeration(n: int, tau: int) -> None:
    """Cap for paths that factor every submatrix (adjugates, inverses)."""
    if not 1 <= tau <= n:
        raise ValueError(f"subset size {tau} out of range for dimension {n}")
    if n > _ENUM_CAP_N and math.comb(n, tau) > _ENUM_CAP_SUBSETS:
        raise CombinatorialBlowup(
            f"enumeration over C({n},{tau}) subsets exceeds the brute-force cap"
        )


# ---------------------------------------------------------------------------
# Subset-size surrogate matrix


@dataclass(frozen=True)
class TauApprox:
    """Spectral surrogate matrix for a given subset size.

    Shares the eigenbasis of the source matrix; its eigenvalues are
    ``s_i = lambda_i + tail`` for the top tau eigenvalues and
    ``s_i = lambda_tau + tail`` below, with ``tail`` the eigenvalue sum past
    position tau.  Nonsingular whenever tau does not exceed the source rank.
    """

    tau: int
    eigenvalues: np.ndarray  # s_1 >= ... >= s_n > 0
    q: np.ndarray

    def matrix(self) -> np.ndarray:
        return symmetrize((self.q * self.eigenvalues) @ self.q.T)

    def inverse(self) -> np.ndarray:
        return symmetrize((self.q / self.eigenvalues) @ self.q.T)


def _numerical_rank(lam: np.ndarray) -> int:
    scale = max(float(lam[0]), 0.0)
    if scale <= 0.0:
        return 0
    return int(np.count_nonzero(lam > _RANK_RTOL * scale))


def b_tau(spectrum: Spectrum, tau: int) -> TauApprox:
    """Build the subset-size surrogate from a spectral decomposition.

    Raises :class:`DegenerateApprox` when tau exceeds the numerical rank,
    since the surrogate would then be singular.
    """
    lam = np.maximum(spectrum.eigenvalues, 0.0)
    n = lam.size
    if not 1 <= tau <= n:
        raise ValueError(f"subset size {tau} out of range for dimension {n}")
    if tau > _numerical_rank(lam):
        raise DegenerateApprox(
            f"subset size {tau} exceeds the numerical rank {_numerical_rank(lam)}"
        )
    tail = float(lam[tau:].sum())
    s = np.concatenate((lam[:tau] + tail, np.full(n - tau, lam[tau - 1] + tail)))
    return TauApprox(tau=int(tau), eigenvalues=s, q=spectrum.q)


def acceleration_ratio(eigenvalues, tau1: int, tau2: int) -> float:
    """Ratio of eigenvalue tail sums: the predicted speedup from growing
    the subset size from tau1 to tau2.  Always at least 1.
    """
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    n = lam.size
    if not 1 <= tau1 <= tau2 <= n:
        raise ValueError(f"need 1 <= tau1 <= tau2 <= {n}")
    num = float(lam[tau1 - 1 :].sum())
    den = float(lam[tau2 - 1 :].sum())
    if den <= 0.0:
        raise DegenerateApprox(
            f"tail sum from position {tau2} is zero; tau2 exceeds the rank"
        )
    return num / den


def expected_step_matrix(b, tau: int) -> np.ndarray:
    """Exact expectation of the embedded submatrix inverse under
    determinantal subset sampling, by enumeration.

    Only subsets with a (clamped) positive minor contribute, mirroring the
    sampler's exclusion of degenerate submatrices.
    """
    b = as_dense(b)
    n = b.shape[0]
    _guard_enumeration(n, tau)
    subsets = all_subsets(n, tau)
    minors = principal_minors(b, tau, subsets, clamp=True)
    total = minors.sum()
    if total <= 0.0:
        raise DegenerateApprox("all principal minors are zero")
    out = np.zeros((n, n))
    for s, m in zip(subsets, minors):
        if m > 0.0:
            out[np.ix_(s, s)] += adjugate(b[np.ix_(s, s)])
    return symmetrize(out / total)


def modulus_quadratic(spectrum: Spectrum, tau: int) -> float:
    """Strong-convexity modulus of a quadratic in the surrogate norm.

    For f(x) = x'Bx/2 - b'x measured against the subset-size surrogate of B,
    the modulus is min_i lambda_i / s_i.  Requires B nonsingular.
    """
    lam = spectrum.eigenvalues
    n = lam.size
    if _numerical_rank(np.maximum(lam, 0.0)) < n:
        raise DegenerateApprox("matrix is singular; modulus undefined")
    s = b_tau(spectrum, tau).eigenvalues
    return float(np.min(lam / s))


def d_tau_quadratic(spectrum: Spectrum, approx: TauApprox, gap0: float) -> float:
    """Squared sublevel-set radius, in the surrogate norm, for a quadratic.

    For f(x) = x'Ax/2 - b'x with b in the range of A and initial objective
    gap ``gap0``, the squared radius of the initial sublevel set measured in
    the surrogate norm (minimum-norm minimizer convention, directions
    restricted to the range of A) is ``2 * gap0 * max_i s_i / lambda_i``
    over the positive eigenvalues.  Returns the squared radius.
    """
    if gap0 < 0.0:
        raise ValueError("initial gap must be nonnegative")
    if not np.isfinite(gap0):
        raise UnboundedLevelSet("initial objective gap is not finite")
    lam = np.maximum(spectrum.eigenvalues, 0.0)
    pos = lam > _RANK_RTOL * max(float(lam[0]), 1e-300)
    if not pos.any():
        raise UnboundedLevelSet(
            "no positive-curvature direction: sublevel sets are unbounded in "
            "directions the surrogate norm weights"
        )
    if gap0 == 0.0:
        return 0.0
    ratio = float(np.max(approx.eigenvalues[pos] / lam[pos]))
    return 2.0 * gap0 * ratio
