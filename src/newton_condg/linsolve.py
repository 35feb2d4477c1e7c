"""Linear step solves with an explicit residual contract.

as_model is the one conversion of a model matrix: a float ndarray, or a
canonical float CSRModel that carries its _FactorPlan, the symbolic half of
its factorization (the row of every entry, kl and ku, the kernel, where each
entry goes in the band storage). A sparse matrix is sorted in a copy, never
in place, and every model built from a declared pattern already carries the
pattern's plan, so that analysis runs once per pattern. Every factorization
goes through lu_factor, which checks the model once (finite, non-zero) and
factorizes it with partial pivoting. The storage and the order pick the
kernel: LAPACK gbtrf for a sparse model whose band, read from its stored
structure, fits in BAND_STORAGE_RATIO times its stored entries; SuperLU
(scipy.sparse.linalg.splu) for any other sparse one; LAPACK getrf for a dense
one of order below MIXED_MIN_N (250, where the next kernel stops costing
more than it saves); and for a larger dense one, LAPACK sgetrf on a float32
copy with mixed-precision iterative refinement (Buttari et al., ACM TOMS
2008; Carson & Higham, SIAM J. Sci. Comput. 2018): each solve takes sgetrs
steps on the float64 residual b - M x until ||b - M x||_inf <= 4 u
(||M||_inf ||x||_inf + ||b||_inf), u = 2^-53, a backward error at working
precision. So a dense direct step of order >= MIXED_MIN_N is refined to
working precision, not the bitwise output of getrs. Such a model goes to
getrf when a float32 pivot is below MIXED_PIVOT_RTOL * maxabs (or sgetrf
meets an exactly zero one), or when refinement has not met its stop rule
after MIXED_MAX_STEPS corrections or a correction does not reduce the
residual. The getrf, gbtrf and SuperLU factors share one pivot check (none
below PIVOT_RTOL * maxabs). solve_direct solves with that factorization,
and its achieved residual is refinement's last one when refinement ran.
solve_inexact only promises ||M s - b|| <= eta * ||b|| in the Euclidean
norm, produced by GMRES with the contract re-verified by recomputation.
GMRES runs on a dense M as it is and on a sparse M with an incomplete-LU
preconditioner (scipy.sparse.linalg.spilu at its default drop tolerance and
fill factor); the contract is on the unpreconditioned residual either way.
That contract is all an inexact solve guarantees: the theory's vartheta
bound on the preconditioned residual M^{-1}(M s - b), which
eta * cond(M) <= vartheta would imply, is not checked.
spectral_norm, for the solver's model diagnostics, lives here too.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs, dlange, sgetrf, sgetrs
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

PIVOT_RTOL = 1e-14
# a sparse matrix goes to the banded LU when its LAPACK band storage,
# (2*kl + ku + 1) * n, is at most this many times its stored entries. A fully
# stored band with kl + ku much below n stays below 2 (tridiagonal: 4n
# against 3n - 2), so 3 keeps every band-shaped model with room for a few
# empty diagonals inside the band, while a wide pattern (an arrowhead:
# (3n - 2) * n against 3n - 2) goes to SuperLU, which keeps its fill small.
BAND_STORAGE_RATIO = 3
# a dense model of at least this order gets the float32 LU with float64
# refinement (_MixedLU); below it the refinement's matvecs cost about what the
# faster factorization saves. One solve_direct with one BLAS thread, random,
# pb1 and pb4 models: the refined solve took 7-8% longer than getrf at
# n=175, between 5% less and 1% more at n=200 and 225, and 5-14% less at
# n=250-300, 17% less at n=400 and a third less at n=1000.
MIXED_MIN_N = 250
# a float32 pivot below this times maxabs(M) sends the model to getrf
MIXED_PIVOT_RTOL = 1e-5
# refinement corrections after which an unconverged solve goes to getrf
MIXED_MAX_STEPS = 10
UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u = 2^-53
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


class _MixedLU:
    """LAPACK LU factors (sgetrf) of a float32 copy of a dense matrix, whose
    solves are refined in float64 against the matrix itself.

    The factors are those of M^T, so that a C-ordered M is cast to float32
    without a transposing copy; sgetrs solves with their transpose. M is kept
    by reference, not copied, and must not change while the factors are used.
    """

    def __init__(self, M, maxabs, lu, piv):
        self.M, self.maxabs, self.lu, self.piv = M, maxabs, lu, piv
        self.norm_inf = dlange("1", M.T)  # ||M^T||_1 = ||M||_inf, with no temporary
        self.fallback = None  # the getrf factors, once refinement failed

    def solve(self, b):
        """x with M x = b."""
        return self.refine(b)[0]

    def refine(self, b):
        """(x, r): x with M x = b and its residual r = b - M x, the last one
        refinement computed; r is None when the solve fell back to getrf.

        Refinement stops when every column meets ||r||_inf <= 4 u (||M||_inf
        ||x||_inf + ||b||_inf), u = 2^-53: a backward error at working
        precision. When MIXED_MAX_STEPS corrections do not get there, or one
        does not reduce ||r||_inf, M is factorized by getrf (and its pivots
        checked against PIVOT_RTOL) for this and every later solve.
        """
        b = np.asarray(b, dtype=float)
        if self.fallback is None:
            bnorm = np.abs(b).max(axis=0)
            x = self._correction(b, bnorm)
            previous = np.inf
            for corrections in range(MIXED_MAX_STEPS + 1):
                r = b - self.M @ x
                rnorm = np.abs(r).max(axis=0)
                bound = 4.0 * UNIT_ROUNDOFF * (self.norm_inf * np.abs(x).max(axis=0) + bnorm)
                met = rnorm <= bound
                if met.all():
                    return x, r
                # a column that stalls, grows or is not finite will not converge
                if corrections == MIXED_MAX_STEPS or not (met | (rnorm < previous)).all():
                    break
                previous = rnorm
                x += self._correction(r, rnorm)
            self.fallback = _dense_lu(self.M, self.maxabs)
        return self.fallback.solve(b), None

    def _correction(self, r, rnorm):
        """The float32 solve of M d = r, in float64. Each column of r is
        divided by its max-norm rnorm first, so that no finite r overflows
        float32."""
        scale = np.where(rnorm > 0.0, rnorm, 1.0)
        d, _info = sgetrs(self.lu, self.piv, (r / scale).astype(np.float32), trans=1,
                          overwrite_b=True)
        return scale * d


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


class CSRModel(sparse.csr_array):
    """CSR model matrix whose nbytes counts the data, indices and indptr it stores."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def as_model(M):
    """M as a model matrix: a float ndarray, or a canonical float CSRModel.

    A scipy.sparse M that carries the _FactorPlan of its own indptr and
    indices (every model built from a Problem's pattern does) is returned as
    it is. Any other sparse M becomes a CSRModel with sorted, summed entries,
    made in a copy when M is not canonical, and gets its plan here. Copies of
    the result (copy.copy) carry the plan too.
    """
    if not sparse.issparse(M):
        return np.asarray(M, dtype=float)
    plan = getattr(M, "_factor_plan", None)
    if plan is not None and plan.fits(M):
        return M
    A = canonical_csr(M)
    A._factor_plan = _FactorPlan(A.indptr, A.indices)
    return A


def canonical_csr(M):
    """A sparse M as a CSRModel with sorted, summed float entries and no
    _FactorPlan; made in a copy when M is not canonical, so M is never sorted."""
    A = CSRModel(M, dtype=float)
    if not A.has_canonical_format:  # A may share M's arrays; sort a copy
        A = A.copy()
        A.sum_duplicates()
    return A


def lu_factor(M):
    """LU factorization of M with partial pivoting; its .solve(b) solves M x = b.

    b may be a vector or a matrix of right-hand sides. M goes through
    as_model. A sparse model is factorized by LAPACK's banded LU when its
    band storage is at most BAND_STORAGE_RATIO times its stored entries (kl
    and ku come from the stored structure, never from values) and by
    SuperLU otherwise, as its _FactorPlan says. A dense one is factorized by
    LAPACK getrf below order MIXED_MIN_N, and above it by sgetrf on a
    float32 copy whose solves are refined against M (_MixedLU), which keeps
    a reference to M: M must not change while the factors are in use; it is
    never written. Raises LinearSolveFailure when M has a non-finite entry,
    is zero, or is singular to working precision (some pivot below
    PIVOT_RTOL * maxabs(M) in getrf, gbtrf or SuperLU); for a refined
    model, the check runs when it falls back to getrf, which can be in
    .solve(b).
    """
    A = as_model(M)
    if sparse.issparse(A):
        scale = _checked_scale(A.data)
        factors = _sparse_lu(A)
        _check_pivots(factors.pivots, scale)
        return factors
    scale = _checked_scale(A)
    if A.shape[0] >= MIXED_MIN_N:
        # factors of A^T: a C-ordered A is cast without a transposing copy
        lu, piv, info = sgetrf(A.T.astype(np.float32, order="F"), overwrite_a=True)
        # written so that a nan pivot (a float32 overflow) falls back too
        if info == 0 and np.abs(np.diag(lu)).min() >= MIXED_PIVOT_RTOL * scale:
            return _MixedLU(A, scale, lu, piv)
    return _dense_lu(A, scale)


def _dense_lu(A, scale):
    """_DenseLU of a dense model A by getrf; scale is maxabs(A)."""
    factors = _DenseLU(*linalg.lu_factor(A, check_finite=False))
    _check_pivots(factors.pivots, scale)
    return factors


def _check_pivots(pivots, scale):
    """LinearSolveFailure when a pivot is below PIVOT_RTOL * scale (maxabs)."""
    if np.abs(pivots).min() < PIVOT_RTOL * scale:
        raise LinearSolveFailure("model matrix is singular to working precision")


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


def _sparse_lu(A):
    """_BandLU of a sparse model A when its plan says the band fits, else _SparseLU."""
    plan = A._factor_plan
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

    eta_used is ||M s - b|| / ||b||: refinement's last residual when the
    refined kernel solved the step, one more matvec otherwise. Raises
    LinearSolveFailure when M is non-finite or singular to working precision
    (some pivot below PIVOT_RTOL * maxabs(M)).
    """
    M = as_model(M)
    b = np.asarray(b, dtype=float)
    factors = lu_factor(M)
    if isinstance(factors, _MixedLU):
        s, r = factors.refine(b)  # r is the achieved residual, or None
    else:
        s, r = factors.solve(b), None
    if r is None:
        r = M @ s - b
    bnorm = np.linalg.norm(b)
    eta_used = float(np.linalg.norm(r) / bnorm) if bnorm > 0 else 0.0
    return LinSolveOutcome(s=s, eta_used=eta_used)


def solve_inexact(M, b, eta):
    """Return s with ||M s - b|| <= eta * ||b|| (Euclidean norms).

    eta = 0 behaves as solve_direct. Otherwise GMRES is run to relative
    residual eta, preconditioned by the incomplete LU factors of M (spilu)
    when M is scipy.sparse and unpreconditioned when M is dense. The
    contract is checked by recomputation and, should GMRES miss it or spilu
    fail, the direct solve is substituted (which satisfies any eta). Raises
    LinearSolveFailure when M is non-finite or zero, whatever b is.
    """
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must lie in [0, 1)")
    if eta == 0.0:
        return solve_direct(M, b)
    M = as_model(M)
    b = np.asarray(b, dtype=float)
    _checked_scale(M.data if sparse.issparse(M) else M)
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
    A = as_model(A)
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
