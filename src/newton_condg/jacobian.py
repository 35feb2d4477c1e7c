"""Jacobian approximation strategies for the outer iteration.

Three ways to build the model matrix M_k: the user-supplied analytic
Jacobian, forward finite differences, and a sparsity-preserving rowwise
secant update (Schubert/Broyden) refreshed by finite differences every
`refresh_period` iterations.

The storage of M_k follows what the problem declares. When it declares a
pattern (Problem stores every pattern as a boolean CSR array), M_k is a
CSRModel with the pattern's structure: finite differences perturb each group
of structurally orthogonal columns in one residual call (Curtis, Powell and
Reid 1974), with the greedy column colouring computed once per solve, and
the Schubert update rewrites the CSR data array in O(nnz). A problem that
declares no pattern gets a dense ndarray built column by column and the
classical Broyden update, except that the exact strategy keeps a sparse
problem.jac sparse. Sparsity is never guessed from computed values.
"""

from dataclasses import dataclass, replace
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
    """Model matrix M plus what the next call of next_jacobian reuses.

    colouring is the column colouring of problem.pattern, computed once and
    carried along; None when the problem declares no pattern.
    """

    M: object
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
    sign of x_j (positive when x_j == 0). One loop perturbs a group of
    columns per residual evaluation. Without a pattern each column is a group
    and the result is a dense ndarray. With a sparsity pattern (dense or
    scipy.sparse) the groups are the colours of column_colouring(pattern), or
    of the colouring passed in (gaps in its numbering are fine), and the
    result is a CSRModel with exactly the pattern's structure, bit-identical
    to the dense one when fun honours the pattern. f0 = fun(x) saves one
    evaluation. Raises JacobianError when a perturbed residual is non-finite.
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
        diffs, groups = jac.T, range(n)  # row j of diffs is column j of jac
    else:
        P = _pattern_model(pattern)
        colour = column_colouring(P) if colouring is None else colouring
        _, colour = np.unique(colour, return_inverse=True)  # renumber 0, 1, ...
        order = np.argsort(colour, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(colour[order])) + 1)
        diffs = np.empty((len(groups), n))
    for g, cols in enumerate(groups):
        xp = x.copy()
        xp[cols] += h[cols]
        diffs[g] = np.asarray(fun(xp), dtype=float) - f0
        if not np.all(np.isfinite(diffs[g])):
            raise JacobianError(
                f"residual is non-finite at a point perturbed in x[{np.min(cols)}]"
            )
    if pattern is None:
        jac /= h
        return jac
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    P.data = diffs[colour[P.indices], rows] / h[P.indices]
    return P


def schubert_update(M, s, yvec, pattern=None):
    """Rowwise secant update of M constrained to a sparsity pattern.

    For each row i let z_i be s masked to the pattern columns of that row;
    rows with ||z_i|| > 0 are corrected so that (M' s)_i == yvec_i, rows with
    ||z_i|| == 0 are left unchanged, and no entry outside the pattern is ever
    written. pattern=None is the classical rank-one secant (Broyden) update
    of a dense M, bit-identical to an all-true mask; a zero step returns M.
    A sparse M is updated in O(nnz) and returned as a CSRModel with the
    pattern's structure.
    """
    s = np.asarray(s, dtype=float)
    yvec = np.asarray(yvec, dtype=float)
    if sparse.issparse(M):
        if pattern is None:
            raise ValueError("a sparse M needs its sparsity pattern")
        return _schubert_update_csr(M, s, yvec, pattern)
    M = np.asarray(M, dtype=float)
    if pattern is None:
        denom = np.sum(s * s)
        if denom == 0.0:
            return M
        return M + np.outer((yvec - M @ s) / denom, s)
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
    n = P.shape[0]
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    if np.array_equal(M.indptr, P.indptr) and np.array_equal(M.indices, P.indices):
        P.data = M.data
    else:  # embed M, which may store only part of the pattern
        P.data = M[rows, P.indices]
        if np.count_nonzero(P.data) != np.count_nonzero(M.data):
            raise JacobianError("M has entries outside the sparsity pattern")
    s_at = s[P.indices]
    denom = np.bincount(rows, weights=s_at * s_at, minlength=n)
    resid = yvec - P @ s
    safe = np.where(denom > 0.0, denom, 1.0)
    scale = np.where(denom > 0.0, resid / safe, 0.0)
    P.data = P.data + scale[rows] * s_at
    return P


def next_jacobian(state, k, problem, x, strategy, refresh_period=5, step=None, fx=None):
    """Model matrix for outer iteration k, given the state of iteration k - 1.

    state is None on the first call. exact: analytic Jacobian every
    iteration (JacobianError if the problem has none). finite_difference:
    fd_jacobian every iteration. schubert: fd_jacobian at k == 0 and
    whenever (k - 1) mod refresh_period == 0,
    otherwise the rowwise secant update of the previous matrix using
    step = (x_k - x_{k-1}, F(x_k) - F(x_{k-1})). With a declared
    problem.pattern the first call colours it, every finite-difference build
    is column-grouped and the model is CSR; without one, the builds are
    column by column and the secant update is Broyden's. fx = F(x), when
    given, spares fd_jacobian one evaluation. Finiteness of M is left to the
    linear solve, which checks it once.
    """
    x = np.asarray(x, dtype=float)
    if strategy == EXACT:
        if problem.jac is None:
            raise JacobianError("exact strategy needs an analytic Jacobian")
        return JacobianState(M=as_model(problem.jac(x)))
    if strategy not in (FINITE_DIFFERENCE, SCHUBERT):
        raise ValueError(f"unknown jacobian strategy {strategy!r}")

    pattern = problem.pattern
    if state is None:
        colouring = None if pattern is None else column_colouring(pattern)
        state = JacobianState(M=None, colouring=colouring)

    refresh = k == 0 or (k >= 1 and (k - 1) % refresh_period == 0)
    if strategy == FINITE_DIFFERENCE or refresh or state.M is None:
        return replace(state, M=fd_jacobian(problem.fun, x, fx, pattern, state.colouring))
    if step is None:
        raise ValueError("schubert update needs the previous step data")
    s, f_diff = step
    return replace(state, M=schubert_update(state.M, s, f_diff, pattern))
