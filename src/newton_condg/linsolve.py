"""Linear step solves with an explicit residual contract.

Every factorization goes through lu_factor, which checks the model matrix
once (finite, non-zero) and factorizes it with partial pivoting. The storage
picks the kernel: LAPACK getrf for a dense ndarray; LAPACK gbtrf for a
scipy.sparse matrix whose band, read from its stored structure, fits in
BAND_STORAGE_RATIO times its stored entries; SuperLU
(scipy.sparse.linalg.splu) for any other scipy.sparse matrix. All three
share one pivot check (none below PIVOT_RTOL * maxabs). What a sparse
factorization needs of the structure alone (the row of every entry, kl and
ku, the kernel, where each entry goes in the band storage) is one
_FactorPlan, the symbolic half of the factorization. A model built from a
declared pattern carries its pattern's plan (see _attach_plan), so that
analysis runs once per pattern and every later factorization of the
pattern is numeric only; any other sparse model is analysed per call, with
the same result. solve_direct solves
with that factorization; solve_inexact only promises ||M s - b|| <= eta *
||b|| in the Euclidean norm, produced by GMRES with the contract re-verified by
recomputation. GMRES runs on a dense M as it is and on a scipy.sparse M with
an incomplete-LU preconditioner (scipy.sparse.linalg.spilu at its default
drop tolerance and fill factor); the contract is on the unpreconditioned
residual either way. That contract is all an inexact solve guarantees: the
theory's vartheta bound on the preconditioned residual M^{-1}(M s - b), which
eta * cond(M) <= vartheta would imply, is not checked.
spectral_norm, for the solver's model diagnostics, lives here too.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

PIVOT_RTOL = 1e-14
# a sparse matrix goes to the banded LU when its LAPACK band storage,
# (2*kl + ku + 1) * n, is at most this many times its stored entries. A fully
# stored band with kl + ku much below n stays below 2 (tridiagonal: 4n
# against 3n - 2), so 3 keeps every band-shaped model with room for a few
# empty diagonals inside the band, while a wide pattern (an arrowhead:
# (3n - 2) * n against 3n - 2) goes to SuperLU, which keeps its fill small.
BAND_STORAGE_RATIO = 3
POWER_RTOL = 1e-8
POWER_MAX_ITER = 2000


class LinearSolveFailure(Exception):
    """The linear step could not be produced (singular/non-finite model)."""


@dataclass
class LinSolveOutcome:
    """Step s and its achieved relative residual ||M s - b|| / ||b||."""

    s: np.ndarray
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

    def solve(self, b):
        """x with M x = b."""
        return linalg.lu_solve(self.lu_piv, b, check_finite=False)


class _SparseLU:
    """SuperLU factors of a sparse matrix."""

    def __init__(self, superlu):
        self.superlu = superlu
        self.pivots = superlu.U.diagonal()

    def solve(self, b):
        """x with M x = b."""
        return self.superlu.solve(np.asarray(b, dtype=float))


class _BandLU:
    """LAPACK banded LU factors (gbtrf) of a sparse matrix with a narrow band."""

    def __init__(self, lu, piv, kl, ku):
        self.lu, self.piv, self.kl, self.ku = lu, piv, kl, ku
        self.pivots = lu[kl + ku]  # the diagonal of U

    def solve(self, b):
        """x with M x = b."""
        x, _info = dgbtrs(self.lu, self.kl, self.ku, np.asarray(b, dtype=float), self.piv)
        return x


def lu_factor(M):
    """LU factorization of M with partial pivoting; its .solve(b) solves M x = b.

    b may be a vector or a matrix of right-hand sides. A scipy.sparse M is
    factorized by LAPACK's banded LU when its band storage is at most
    BAND_STORAGE_RATIO times its stored entries (kl and ku come from the
    stored structure, never from values) and by SuperLU otherwise; anything
    else is factorized as a dense float array by LAPACK. The structure of a
    sparse M is analysed once per pattern: a model that carries the
    _FactorPlan of its own indptr and indices (every model built from a
    Problem's pattern does) reuses it, and any other sparse M is analysed
    here; the kernel and the factors are the same either way. Raises
    LinearSolveFailure when M has a non-finite entry, is zero, or is
    singular to working precision (some pivot below PIVOT_RTOL * maxabs(M)),
    whichever kernel ran.
    """
    if sparse.issparse(M):
        A, plan = M, getattr(M, "_factor_plan", None)
        if plan is None or not plan.fits(M):
            A = sparse.csr_array(M, dtype=float)
            if not A.has_canonical_format:  # A may share M's arrays; sort a copy
                A = A.copy()
                A.sum_duplicates()
            plan = _FactorPlan(A.indptr, A.indices)
        scale = _checked_scale(A.data)
        factors = _sparse_lu(A, plan)
    else:
        A = np.asarray(M, dtype=float)
        scale = _checked_scale(A)
        factors = _DenseLU(*linalg.lu_factor(A, check_finite=False))
    if np.abs(factors.pivots).min() < PIVOT_RTOL * scale:
        raise LinearSolveFailure("model matrix is singular to working precision")
    return factors


class _FactorPlan:
    """The structure of a canonical CSR matrix's factorization, from its
    indptr and indices alone.

    rows is the row of every stored entry, kl and ku the band's sub- and
    superdiagonals, band whether the band storage fits (BAND_STORAGE_RATIO),
    and, for a band, flat the position of every entry in the Fortran-ordered
    gbtrf storage, A[i, j] at ab[kl + ku + i - j, j]. The plan keeps the
    arrays it was derived from and fits only a matrix that stores those very
    arrays, so it cannot be applied to a structure it was not derived from.
    """

    def __init__(self, indptr, indices):
        self.indptr, self.indices = indptr, indices
        n = len(indptr) - 1
        self.rows = np.repeat(np.arange(n), np.diff(indptr))
        offsets = indices - self.rows  # j - i
        self.kl = max(-int(offsets.min()), 0) if offsets.size else 0
        self.ku = max(int(offsets.max()), 0) if offsets.size else 0
        ldab = 2 * self.kl + self.ku + 1
        self.band = ldab * n <= BAND_STORAGE_RATIO * indices.size
        self.flat = (
            (self.kl + self.ku - offsets) + ldab * indices.astype(np.intp) if self.band else None
        )

    def fits(self, M):
        """True when M is a float CSR matrix storing this plan's own arrays."""
        return (
            M.format == "csr"
            and M.indptr is self.indptr
            and M.indices is self.indices
            and M.dtype == np.float64
        )


def _attach_plan(model):
    """Derive the _FactorPlan of a canonical float CSR model and attach it.

    Copies of model (copy.copy) carry the plan, and lu_factor reuses it for
    every copy that still stores model's indptr and indices. Returns the plan.
    """
    model._factor_plan = _FactorPlan(model.indptr, model.indices)
    return model._factor_plan


def _sparse_lu(A, plan):
    """_BandLU of a canonical CSR A when plan says its band fits, else _SparseLU."""
    if not plan.band:
        try:
            return _SparseLU(splu(A.tocsc()))
        except RuntimeError:  # SuperLU met an exactly zero pivot
            raise LinearSolveFailure("model matrix is singular") from None
    kl, ku, n = plan.kl, plan.ku, A.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab.reshape(-1, order="F")[plan.flat] = A.data
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info > 0:  # an exactly zero pivot
        raise LinearSolveFailure("model matrix is singular")
    return _BandLU(lu, piv, kl, ku)


def solve_direct(M, b):
    """Solve M s = b with the factorization of lu_factor.

    Raises LinearSolveFailure when M is non-finite or singular to working
    precision (some pivot below 1e-14 * maxabs(M)).
    """
    M = _as_matrix(M)
    b = np.asarray(b, dtype=float)
    s = lu_factor(M).solve(b)
    bnorm = np.linalg.norm(b)
    eta_used = float(np.linalg.norm(M @ s - b) / bnorm) if bnorm > 0 else 0.0
    return LinSolveOutcome(s=s, eta_used=eta_used)


def solve_inexact(M, b, eta):
    """Return s with ||M s - b|| <= eta * ||b|| (Euclidean norms).

    eta = 0 behaves as solve_direct. Otherwise GMRES is run to relative
    residual eta, preconditioned by the incomplete LU factors of M (spilu)
    when M is scipy.sparse and unpreconditioned when M is dense. The
    contract is checked by recomputation and, should GMRES miss it or spilu
    fail, the direct solve is substituted (which satisfies any eta).
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
        return LinSolveOutcome(s=np.zeros_like(b), eta_used=0.0)
    n = b.size
    precond = None
    if sparse.issparse(M):
        try:
            ilu = spilu(sparse.csc_array(M, dtype=float))
        except RuntimeError:  # spilu met an exactly zero pivot
            return solve_direct(M, b)
        precond = LinearOperator(M.shape, matvec=ilu.solve, dtype=float)
    s, _info = gmres(
        M, b, rtol=eta, atol=0.0, restart=min(n, 100), maxiter=50, M=precond
    )
    rnorm = np.linalg.norm(M @ s - b)
    if rnorm <= eta * bnorm:
        return LinSolveOutcome(s=s, eta_used=float(rnorm / bnorm))
    return solve_direct(M, b)


def forcing_eta(resnorm, policy):
    """Forcing term eta_k of a policy at the residual norm ||F(x_k)||."""
    if resnorm < 0:
        raise ValueError("resnorm must be >= 0")
    if isinstance(policy, ConstantEta):
        eta = policy.value
    elif isinstance(policy, AdaptiveEta):
        eta = min(policy.eta_max, policy.c * resnorm)
    else:
        raise TypeError(f"unknown forcing policy {policy!r}")
    return float(eta)


def spectral_norm(A):
    """Largest singular value by power iteration on A^T A.

    Stops once sigma moves by at most POWER_RTOL * sigma, or after
    POWER_MAX_ITER iterations.
    """
    A = _as_matrix(A)
    n = A.shape[1]
    v = np.ones(n) + np.arange(n) / max(n, 2)  # deterministic, unlikely orthogonal
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(POWER_MAX_ITER):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = np.linalg.norm(A @ v)
        if abs(new_sigma - sigma) <= POWER_RTOL * max(new_sigma, 1e-300):
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
    # max and min copy nothing, unlike np.abs(values); a nan makes both nan,
    # +inf the max and -inf the min, so checking both catches every one
    high, low = (values.max(), values.min()) if values.size else (0.0, 0.0)
    if not (np.isfinite(high) and np.isfinite(low)):
        raise LinearSolveFailure("model matrix has non-finite entries")
    scale = max(high, -low)
    if scale == 0.0:
        raise LinearSolveFailure("model matrix is zero")
    return scale
