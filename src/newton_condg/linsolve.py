"""Linear step solves with an explicit residual contract.

Every factorization goes through lu_factor, which checks the model matrix
once (finite, non-zero, no pivot below PIVOT_RTOL * maxabs) and factorizes it
with partial pivoting: LAPACK for a dense ndarray, SuperLU
(scipy.sparse.linalg.splu) for a scipy.sparse matrix. solve_direct solves with
that factorization; solve_inexact only promises ||M s - b|| <= eta * ||b|| in
the Euclidean norm, produced by GMRES (dense or sparse M alike) with the
contract re-verified by recomputation. Norm and conditioning estimates for
diagnostics live here too and share lu_factor and one power iteration.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import gmres, splu

PIVOT_RTOL = 1e-14


class LinearSolveFailure(Exception):
    """The linear step could not be produced (singular/non-finite model)."""


@dataclass
class LinSolveOutcome:
    """Step s, recomputed residual r = M s - b, and achieved ||r||/||b||."""

    s: np.ndarray
    r: np.ndarray
    eta_used: float


@dataclass(frozen=True)
class ConstantEta:
    """Forcing policy eta_k = value for every k."""

    value: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.value < 1.0):
            raise ValueError("constant eta must lie in [0, 1)")


@dataclass(frozen=True)
class AdaptiveEta:
    """Forcing policy eta_k = min(eta_max, c * ||F(x_k)||)."""

    c: float = 1.0
    eta_max: float = 0.1

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if not (0.0 <= self.eta_max < 1.0):
            raise ValueError("eta_max must lie in [0, 1)")


class _DenseLU:
    """LAPACK LU factors (getrf) of a dense matrix."""

    def __init__(self, lu, piv):
        self.lu_piv = (lu, piv)
        self.pivots = np.diag(lu)

    def solve(self, b, trans=0):
        """x with M x = b (trans=0) or M^T x = b (trans=1)."""
        return linalg.lu_solve(self.lu_piv, b, trans=trans, check_finite=False)


class _SparseLU:
    """SuperLU factors of a sparse matrix."""

    def __init__(self, superlu):
        self.superlu = superlu
        self.pivots = superlu.U.diagonal()

    def solve(self, b, trans=0):
        """x with M x = b (trans=0) or M^T x = b (trans=1)."""
        return self.superlu.solve(np.asarray(b, dtype=float), trans="NT"[trans])


def lu_factor(M):
    """LU factorization of M with partial pivoting; its .solve(b, trans=0) solves.

    A scipy.sparse M is factorized by SuperLU, anything else as a dense
    float array by LAPACK. Raises LinearSolveFailure when M has a non-finite
    entry, is zero, or is singular to working precision (some pivot below
    PIVOT_RTOL * maxabs(M)).
    """
    if sparse.issparse(M):
        A = sparse.csc_array(M, dtype=float)
        A.sum_duplicates()
        scale = _checked_scale(A.data)
        try:
            factors = _SparseLU(splu(A))
        except RuntimeError:  # SuperLU met an exactly zero pivot
            raise LinearSolveFailure("model matrix is singular") from None
    else:
        A = np.asarray(M, dtype=float)
        scale = _checked_scale(A)
        factors = _DenseLU(*linalg.lu_factor(A, check_finite=False))
    if np.abs(factors.pivots).min() < PIVOT_RTOL * scale:
        raise LinearSolveFailure("model matrix is singular to working precision")
    return factors


def solve_direct(M, b):
    """Solve M s = b with the factorization of lu_factor.

    Raises LinearSolveFailure when M is non-finite or singular to working
    precision (some pivot below 1e-14 * maxabs(M)).
    """
    M = _as_matrix(M)
    b = np.asarray(b, dtype=float)
    s = lu_factor(M).solve(b)
    return _outcome(M, b, s)


def solve_inexact(M, b, eta):
    """Return s with ||M s - b|| <= eta * ||b|| (Euclidean norms).

    eta = 0 behaves as solve_direct. Otherwise GMRES is run to relative
    residual eta; the contract is checked by recomputation and, should GMRES
    miss it, the direct solve is substituted (which satisfies any eta).
    """
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must lie in [0, 1)")
    if eta == 0.0:
        return solve_direct(M, b)
    M = _as_matrix(M)
    b = np.asarray(b, dtype=float)
    _require_finite(M.data if sparse.issparse(M) else M)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return LinSolveOutcome(s=np.zeros_like(b), r=np.zeros_like(b), eta_used=0.0)
    n = b.size
    s, _info = gmres(M, b, rtol=eta, atol=0.0, restart=min(n, 100), maxiter=50)
    if np.linalg.norm(M @ s - b) <= eta * bnorm:
        return _outcome(M, b, s)
    return solve_direct(M, b)


def forcing_eta(k, resnorm, policy, cond_estimate=None, vartheta=None):
    """Forcing term eta_k from a policy, optionally capped by vartheta/cond.

    The conditioning cap eta_k * cond <= vartheta is applied only when a
    condition estimate is supplied (diagnostic mode); it is never computed
    implicitly.
    """
    if resnorm < 0:
        raise ValueError("resnorm must be >= 0")
    if isinstance(policy, ConstantEta):
        eta = policy.value
    elif isinstance(policy, AdaptiveEta):
        eta = min(policy.eta_max, policy.c * resnorm)
    else:
        raise TypeError(f"unknown forcing policy {policy!r}")
    if cond_estimate is not None and vartheta is not None and cond_estimate > 0:
        eta = min(eta, vartheta / cond_estimate)
    return float(eta)


def spectral_norm(A, tol=1e-8, max_iter=2000):
    """Largest singular value by power iteration on A^T A."""
    A = _as_matrix(A)
    return _power_norm(lambda v: A @ v, lambda w: A.T @ w, A.shape[1], tol, max_iter)


def condition_estimate(M, tol=1e-8):
    """cond_2(M) estimate: spectral norms of M and M^{-1} via power iteration."""
    M = _as_matrix(M)
    factors = lu_factor(M)
    norm_inv = _power_norm(
        factors.solve, lambda w: factors.solve(w, trans=1), M.shape[0], tol, 2000
    )
    return spectral_norm(M, tol=tol) * norm_inv


def _power_norm(apply, apply_t, n, tol, max_iter):
    """||A||_2 by power iteration on A^T A, given v -> A v and w -> A^T w."""
    v = np.ones(n) + np.arange(n) / max(n, 2)  # deterministic, unlikely orthogonal
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = apply_t(apply(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = np.linalg.norm(apply(v))
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    return sigma


def _as_matrix(M):
    """A scipy.sparse M unchanged, anything else as a dense float array."""
    return M if sparse.issparse(M) else np.asarray(M, dtype=float)


def _require_finite(values):
    if not np.all(np.isfinite(values)):
        raise LinearSolveFailure("model matrix has non-finite entries")


def _checked_scale(values):
    """maxabs of the stored entries; LinearSolveFailure if non-finite or zero."""
    _require_finite(values)
    scale = np.abs(values).max() if values.size else 0.0
    if scale == 0.0:
        raise LinearSolveFailure("model matrix is zero")
    return scale


def _outcome(M, b, s):
    r = M @ s - b
    bnorm = np.linalg.norm(b)
    eta_used = float(np.linalg.norm(r) / bnorm) if bnorm > 0 else 0.0
    return LinSolveOutcome(s=s, r=r, eta_used=eta_used)
