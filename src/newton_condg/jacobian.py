"""Jacobian approximation strategies for the outer iteration.

Three ways to build the model matrix M_k: the user-supplied analytic
Jacobian, forward finite differences, and a sparsity-preserving rowwise
secant update (Schubert/Broyden) refreshed by finite differences every
`refresh_period` iterations.

The storage of M_k follows what the problem supplies. When problem.pattern
is a scipy.sparse matrix, or problem.jac returns one, M_k is a CSRModel (a
CSR matrix with the pattern's structure): finite differences perturb each
group of structurally orthogonal columns in one residual call (Curtis,
Powell and Reid 1974), with the greedy column colouring computed once per
solve, and the secant update rewrites the CSR data array in O(nnz).
Otherwise M_k is a dense ndarray built column by column.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

EXACT = "exact"
FINITE_DIFFERENCE = "finite_difference"
SCHUBERT = "schubert"

_SQRT_EPS = np.sqrt(np.finfo(float).eps)


class JacobianError(Exception):
    """Raised when a usable model matrix cannot be produced."""


class CSRModel(sparse.csr_array):
    """CSR model matrix whose nbytes counts the data, indices and indptr it stores."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass
class JacobianState:
    """Model matrix M plus the bookkeeping its strategy needs.

    pattern is the sparsity mask the model keeps (schubert, and every
    strategy of a problem with a sparse pattern); colouring is the column
    colouring of a sparse pattern, computed once and carried along.
    """

    M: object
    k_last_refresh: int
    strategy: str
    pattern: Optional[object] = None
    colouring: Optional[np.ndarray] = None


def as_model(M):
    """A sparse M as a canonical float CSRModel, anything else as a float ndarray."""
    if not sparse.issparse(M):
        return np.asarray(M, dtype=float)
    M = CSRModel(M, dtype=float)
    M.sum_duplicates()
    return M


def _pattern_model(pattern):
    """CSRModel holding 1.0 at every entry of a dense or sparse boolean pattern."""
    P = sparse.csr_array(pattern, dtype=bool, copy=True)
    P.eliminate_zeros()
    return as_model(P)


def column_colouring(pattern):
    """Greedy colouring of the columns of a sparsity pattern.

    Columns j and k get different colours whenever some row i has both
    (i, j) and (i, k) in the pattern, so the columns of one colour can be
    perturbed together. Returns colour[j] for every column; a full pattern
    needs n colours, a tridiagonal one 3.
    """
    P = sparse.csr_array(pattern, dtype=float)
    # columns that share a row are the neighbours in P^T P
    graph = sparse.csr_array(P.T @ P)
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    n = P.shape[1]
    colour = [-1] * n
    for j in range(n):
        taken = {colour[k] for k in indices[indptr[j]:indptr[j + 1]]}
        c = 0
        while c in taken:
            c += 1
        colour[j] = c
    return np.asarray(colour, dtype=np.intp)


def fd_jacobian(fun, x, f0=None, pattern=None, colouring=None):
    """Forward-difference Jacobian of fun at x.

    Column j uses the step h_j = sqrt(machine eps) * max(|x_j|, 1) with the
    sign of x_j (positive when x_j == 0). Without a pattern every column
    costs one residual evaluation and the result is a dense ndarray. With a
    sparsity pattern (dense or scipy.sparse), the columns of each colour of
    column_colouring(pattern) (or of the colouring passed in) are perturbed
    together in one evaluation and the result is a CSRModel with exactly
    the pattern's structure; its entries are bit-identical to the dense
    ones when fun honours the pattern. f0 = fun(x) saves one evaluation.
    Raises JacobianError when a perturbed residual is non-finite.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if f0 is None:
        f0 = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise JacobianError("residual is non-finite at the base point")
    h = _SQRT_EPS * np.maximum(np.abs(x), 1.0)
    h[x < 0] *= -1.0

    if pattern is None:
        jac = np.empty((n, n))
        for j in range(n):
            jac[:, j] = _perturbed_difference(fun, x, f0, h, j) / h[j]
        return jac

    P = _pattern_model(pattern)
    colour = column_colouring(P) if colouring is None else colouring
    order = np.argsort(colour, kind="stable")
    bounds = np.flatnonzero(np.diff(colour[order])) + 1
    diffs = np.empty((colour.max() + 1, n))
    for cols in np.split(order, bounds):
        diffs[colour[cols[0]]] = _perturbed_difference(fun, x, f0, h, cols)
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    P.data = diffs[colour[P.indices], rows] / h[P.indices]
    return P


def _perturbed_difference(fun, x, f0, h, cols):
    """fun(x + h_j e_j summed over the column(s) cols) - f0, checked to be finite."""
    xp = x.copy()
    xp[cols] += h[cols]
    diff = np.asarray(fun(xp), dtype=float) - f0
    if not np.all(np.isfinite(diff)):
        raise JacobianError(
            f"residual is non-finite at a point perturbed in x[{np.min(cols)}]"
        )
    return diff


def detect_pattern(jac, rel_threshold=1e-10):
    """Sparsity mask of a Jacobian: entries above rel_threshold * maxabs."""
    jac = np.asarray(jac)
    scale = np.abs(jac).max()
    if scale == 0.0:
        return np.zeros(jac.shape, dtype=bool)
    return np.abs(jac) > rel_threshold * scale


def schubert_update(M, s, yvec, pattern):
    """Rowwise secant update of M constrained to a sparsity pattern.

    For each row i let z_i be s masked to the pattern columns of that row;
    rows with ||z_i|| > 0 are corrected so that (M' s)_i == yvec_i, rows with
    ||z_i|| == 0 are left unchanged, and no entry outside the pattern is ever
    written. With a dense pattern this is the classical rank-one secant
    (Broyden) update. A sparse M is updated in O(nnz) and returned as a
    CSRModel with the pattern's structure.
    """
    s = np.asarray(s, dtype=float)
    yvec = np.asarray(yvec, dtype=float)
    if sparse.issparse(M):
        return _schubert_update_csr(M, s, yvec, pattern)
    M = np.asarray(M, dtype=float)
    pattern = np.asarray(pattern, dtype=bool)
    if M.shape != pattern.shape:
        raise ValueError("M and pattern shapes differ")
    if np.any(M[~pattern] != 0.0):
        raise JacobianError("M has entries outside the sparsity pattern")
    masked_sq = np.where(pattern, (s * s)[None, :], 0.0)
    denom = masked_sq.sum(axis=1)
    resid = yvec - M @ s
    safe = np.where(denom > 0.0, denom, 1.0)
    scale = np.where(denom > 0.0, resid / safe, 0.0)
    return M + np.where(pattern, scale[:, None] * s[None, :], 0.0)


def _schubert_update_csr(M, s, yvec, pattern):
    P = _pattern_model(pattern)
    M = as_model(M)
    if M.shape != P.shape:
        raise ValueError("M and pattern shapes differ")
    P.data = _on_pattern(M, P)
    n = P.shape[0]
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    s_at = s[P.indices]
    denom = np.bincount(rows, weights=s_at * s_at, minlength=n)
    resid = yvec - P @ s
    safe = np.where(denom > 0.0, denom, 1.0)
    scale = np.where(denom > 0.0, resid / safe, 0.0)
    P.data = P.data + scale[rows] * s_at
    return P


def _on_pattern(M, P):
    """Values of the canonical CSR matrix M at the stored entries of P.

    Raises JacobianError when M has a non-zero entry outside P.
    """
    if np.array_equal(M.indptr, P.indptr) and np.array_equal(M.indices, P.indices):
        return M.data.copy()
    p_keys, m_keys = _entry_keys(P), _entry_keys(M)
    inside = np.isin(m_keys, p_keys)
    if np.any(M.data[~inside] != 0.0):
        raise JacobianError("M has entries outside the sparsity pattern")
    data = np.zeros(P.nnz)
    data[np.searchsorted(p_keys, m_keys[inside])] = M.data[inside]
    return data


def _entry_keys(A):
    """Row-major keys i * ncols + j of the stored entries of a canonical CSR A."""
    rows = np.repeat(np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr))
    return rows * A.shape[1] + A.indices


def next_jacobian(state, k, problem, x, refresh_period=5, step=None, fx=None):
    """Model matrix for outer iteration k.

    exact: analytic Jacobian every iteration (JacobianError if the problem
    has none). finite_difference: fd_jacobian every iteration. schubert:
    fd_jacobian masked to the pattern at k == 0 and whenever
    (k - 1) mod refresh_period == 0, otherwise the rowwise secant update of
    the previous matrix using step = (x_k - x_{k-1}, F(x_k) - F(x_{k-1})).
    The pattern comes from problem.pattern, or is detected from the first
    finite-difference Jacobian when the problem declares none. A sparse
    problem.pattern makes the finite differences column-grouped and the
    model CSR. fx = F(x), when given, spares fd_jacobian one evaluation.
    Finiteness of M is left to the linear solve, which checks it once.
    """
    if state is None:
        raise ValueError("state must carry the strategy; use a fresh JacobianState")
    strategy = state.strategy
    x = np.asarray(x, dtype=float)

    if strategy == EXACT:
        if problem.jac is None:
            raise JacobianError("exact strategy needs an analytic Jacobian")
        return JacobianState(M=as_model(problem.jac(x)), k_last_refresh=k, strategy=EXACT)

    if strategy not in (FINITE_DIFFERENCE, SCHUBERT):
        raise ValueError(f"unknown jacobian strategy {strategy!r}")
    pattern = state.pattern
    if pattern is None and sparse.issparse(problem.pattern):
        pattern = problem.pattern
    grouped = pattern if sparse.issparse(pattern) else None
    colouring = state.colouring
    if grouped is not None and colouring is None:
        colouring = column_colouring(grouped)

    refresh = k == 0 or (k >= 1 and (k - 1) % refresh_period == 0)
    if strategy == FINITE_DIFFERENCE or refresh or state.M is None:
        M = fd_jacobian(problem.fun, x, fx, grouped, colouring)
        if strategy == SCHUBERT and grouped is None:
            if pattern is None:
                pattern = problem.pattern if problem.pattern is not None else detect_pattern(M)
            M = np.where(pattern, M, 0.0)
        return JacobianState(
            M=M, k_last_refresh=k, strategy=strategy, pattern=pattern, colouring=colouring,
        )
    if step is None:
        raise ValueError("schubert update needs the previous step data")
    s, f_diff = step
    return JacobianState(
        M=schubert_update(state.M, s, f_diff, pattern), k_last_refresh=state.k_last_refresh,
        strategy=SCHUBERT, pattern=pattern, colouring=colouring,
    )


def initial_state(strategy):
    """Empty state carrying only the strategy tag."""
    return JacobianState(M=None, k_last_refresh=-1, strategy=strategy)
