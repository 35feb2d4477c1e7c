"""Jacobian approximation strategies for the outer iteration.

Three ways to build the model matrix M_k: the user-supplied analytic
Jacobian, forward finite differences, and a sparsity-preserving rowwise
secant update (Schubert/Broyden) refreshed by finite differences every
`refresh_period` iterations.

The storage of M_k follows what the problem declares. When it declares a
pattern (Problem stores every pattern as a read-only boolean CSR array), M_k is a
CSRModel with the pattern's structure: finite differences perturb each group
of structurally orthogonal columns in one residual call (Curtis, Powell and
Reid 1974), and the Schubert update rewrites the CSR data array in O(nnz).
A problem that declares no pattern gets a dense ndarray built column by
column and the classical Broyden update, except that the exact strategy
keeps a sparse problem.jac sparse. Sparsity is never guessed from computed
values.

Every model goes through linsolve.as_model, which owns CSRModel and gives
each sparse model its factorization plan. What both builds need of a
pattern (the greedy column colouring and its group order, the row of every
stored entry, and a template, the as_model of the pattern, whose indptr,
indices and plan every model shares) lives in one _Layout per pattern. Each
model is a shallow copy of the template with its own data array, so no
model pays the sparse constructor's checks and lu_factor analyses the
pattern's structure once, not once per factorization. A Problem's layout is
built on its first finite-difference or Schubert build and kept on
problem.pattern, so every later solve reads it, and so do
dataclasses.replace copies, which keep the same pattern object. A problem
solved only with its exact Jacobian never builds one.

Either way one loop makes the finite differences, one residual call per
block of column groups. A block is a single group unless the problem
declares a vectorized residual (Problem.vectorized): then one call evaluates
as many perturbed points, stacked as rows, as fit in FD_BLOCK_ENTRIES
entries, and the model is bit-identical to the one built point by point.
"""

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import canonical_pattern
from .linsolve import (  # noqa: F401 (CSRModel: the type of every sparse model)
    CSRModel,
    as_model,
    canonical_csr,
)

EXACT = "exact"
FINITE_DIFFERENCE = "finite_difference"
SCHUBERT = "schubert"

_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# entries per residual call of a vectorized fd_jacobian (512 KB of float64);
# 2**14 and 2**18 built pb4's n = 1000 Jacobian in about the same time
FD_BLOCK_ENTRIES = 2 ** 16


class JacobianError(Exception):
    """Raised when a usable model matrix cannot be produced."""


@dataclass
class JacobianState:
    """Model matrix M of one outer iteration; the next secant update reads it."""

    M: object


class _Layout:
    """What finite differences and the Schubert update need of a canonical
    boolean CSR pattern P, derived once.

    colour is column_colouring(P), order and start give the columns of group
    g as order[start[g]:start[g + 1]] (ascending: the sort is stable), and
    entry_colour gives the column's group of every stored entry. template is
    as_model of P's structure, built and checked once by scipy; indptr and
    indices are its read-only arrays, and plan its linsolve._FactorPlan,
    which every model built by model() shares; plan.rows is the row of every
    stored entry.
    """

    def __init__(self, P):
        self.shape = P.shape
        data = np.zeros(P.nnz)
        data.flags.writeable = False  # every model gets its own data array
        self.template = as_model(sparse.csr_array((data, P.indices, P.indptr), shape=P.shape))
        self.indptr, self.indices = self.template.indptr, self.template.indices
        self.plan = self.template._factor_plan
        self.colour = column_colouring(P)
        self.order = np.argsort(self.colour, kind="stable")
        self.start = np.searchsorted(
            self.colour[self.order], np.arange(self.colour.max() + 2)
        ).tolist()
        self.entry_colour = self.colour[P.indices]

    def model(self, data):
        """The CSRModel storing the float array data at the pattern's entries."""
        M = copy.copy(self.template)
        M.data = data
        return M


def _layout(pattern):
    """The _Layout of a dense or sparse boolean pattern.

    It is kept on the canonical pattern, so a Problem's pattern, which is
    already canonical, builds one layout in its lifetime; any other pattern
    is copied to a canonical one, and its layout goes with that copy.
    """
    P = canonical_pattern(pattern)
    layout = getattr(P, "_jacobian_layout", None)
    if layout is None:
        layout = P._jacobian_layout = _Layout(P)
    return layout


def column_colouring(pattern):
    """Greedy colouring of the columns of a sparsity pattern.

    Columns j and k get different colours whenever some row i has both
    (i, j) and (i, k) in the pattern, so the columns of one colour can be
    perturbed together. Returns colour[j] for every column; a full pattern
    needs n colours, a tridiagonal one 3. The colours are 0, 1, ..., k - 1:
    a column takes the smallest colour none of its neighbours has.
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


def fd_jacobian(fun, x, f0=None, pattern=None, vectorized=False):
    """Forward-difference Jacobian of fun at x.

    Column j uses the step h_j = sqrt(machine eps) * max(|x_j|, 1) with the
    sign of x_j (positive when x_j == 0). A group of columns is perturbed
    together at one point. Without a pattern each column is a group and the
    result is a dense ndarray. With a sparsity pattern (dense or
    scipy.sparse) the groups are the colours of column_colouring(pattern),
    computed once per Problem pattern, and the result is a CSRModel with
    exactly the pattern's structure, bit-identical to the dense one when fun
    honours the pattern.

    One loop runs over blocks of groups and makes one residual call per
    block. A block is one group, unless vectorized is true: then fun takes an
    (m, n) array of points, one per row, and returns their (m, n) residuals,
    and a block is as many groups as fit in FD_BLOCK_ENTRIES entries. The
    entries are the same bits either way when fun's rows match its 1-D calls
    (core.check_problem verifies that). f0 = fun(x) saves one evaluation.
    Raises JacobianError when the residual is non-finite at x or at a
    perturbed point, naming the first column of the first such group.
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
        diffs = jac.T  # row j of diffs is column j of jac
        colour = order = np.arange(n)
        start = range(n + 1)
    else:
        layout = _layout(pattern)
        colour, order, start = layout.colour, layout.order, layout.start
        diffs = np.empty((len(start) - 1, n))
    groups_per_block = max(1, FD_BLOCK_ENTRIES // n) if vectorized else 1
    # group g perturbs the columns order[start[g]:start[g + 1]] in row
    # g % groups_per_block of its block's points; flat holds those positions
    # in the flattened points
    flat = colour[order] % groups_per_block * n + order
    step = h[order]
    for g0 in range(0, len(diffs), groups_per_block):
        block = diffs[g0:g0 + groups_per_block]
        s0, s1 = start[g0], start[g0 + len(block)]
        X = x[None, :].repeat(len(block), axis=0)
        X.reshape(-1)[flat[s0:s1]] += step[s0:s1]
        F = fun(X) if vectorized else fun(X[0])
        np.subtract(np.asarray(F, dtype=float), f0, out=block)
        if not np.isfinite(block).all():
            g = g0 + np.flatnonzero(~np.isfinite(block).all(axis=1))[0]
            raise JacobianError(
                f"residual is non-finite at a point perturbed in x[{order[start[g]]}]"
            )
    if pattern is None:
        jac /= h
        return jac
    return layout.model(diffs[layout.entry_colour, layout.plan.rows] / h[layout.indices])


def schubert_update(M, s, yvec, pattern=None):
    """Rowwise secant update of M constrained to a sparsity pattern.

    For each row i let z_i be s masked to the pattern columns of that row;
    rows with ||z_i|| > 0 are corrected so that (M' s)_i == yvec_i, rows with
    ||z_i|| == 0 are left unchanged, and no entry outside the pattern is ever
    written. pattern=None is the classical rank-one secant (Broyden) update
    of a dense M, bit-identical to an all-true mask; a zero step returns M.
    A dense M stays dense under a dense or sparse pattern. A sparse M is
    updated in O(nnz) and returned as a CSRModel with the pattern's structure.
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
    pattern = np.asarray(pattern.toarray() if sparse.issparse(pattern) else pattern, dtype=bool)
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
    layout = _layout(pattern)
    if M.shape != layout.shape:
        raise ValueError("M and pattern shapes differ")
    rows, indices = layout.plan.rows, layout.indices
    if not layout.plan.fits(M):  # M was not built from this layout
        M = canonical_csr(M)  # compared and embedded only: no plan is derived for it
        if not (
            np.array_equal(M.indptr, layout.indptr) and np.array_equal(M.indices, indices)
        ):
            data = M[rows, indices]  # embed M, which may store only part of the pattern
            if np.count_nonzero(data) != np.count_nonzero(M.data):
                raise JacobianError("M has entries outside the sparsity pattern")
            M = layout.model(data)
    s_at = s[indices]
    denom = np.bincount(rows, weights=s_at * s_at, minlength=layout.shape[0])
    resid = yvec - M @ s
    safe = np.where(denom > 0.0, denom, 1.0)
    scale = np.where(denom > 0.0, resid / safe, 0.0)
    return layout.model(M.data + scale[rows] * s_at)


def next_jacobian(state, k, problem, x, strategy, refresh_period=5, step=None, fx=None):
    """Model matrix for outer iteration k, given the state of iteration k - 1.

    state is None on the first call. exact: analytic Jacobian every
    iteration (JacobianError if the problem has none). finite_difference:
    fd_jacobian every iteration. schubert: fd_jacobian at k == 0 and
    whenever (k - 1) mod refresh_period == 0,
    otherwise the rowwise secant update of the previous matrix using
    step = (x_k - x_{k-1}, F(x_k) - F(x_{k-1})). With a declared
    problem.pattern every finite-difference build is column-grouped and the
    model is CSR; both builds read the pattern's layout (colouring, group
    order, entry rows, CSR template), which the problem's first
    finite-difference or Schubert build derives and problem.pattern keeps for
    every later solve of the problem or of a dataclasses.replace copy.
    Without a pattern, the builds are column by column and the secant update
    is Broyden's. A problem that declares vectorized=True has fd_jacobian
    evaluate its perturbed points in blocks. fx = F(x), when given, spares
    fd_jacobian one evaluation.
    Finiteness of M is left to the linear solve, which checks it once.
    """
    x = np.asarray(x, dtype=float)
    if strategy == EXACT:
        if problem.jac is None:
            raise JacobianError("exact strategy needs an analytic Jacobian")
        return JacobianState(M=as_model(problem.jac(x)))
    if strategy not in (FINITE_DIFFERENCE, SCHUBERT):
        raise ValueError(f"unknown jacobian strategy {strategy!r}")

    refresh = k == 0 or (k >= 1 and (k - 1) % refresh_period == 0)
    if strategy == FINITE_DIFFERENCE or refresh or state is None:
        return JacobianState(
            M=fd_jacobian(problem.fun, x, fx, problem.pattern, problem.vectorized)
        )
    if step is None:
        raise ValueError("schubert update needs the previous step data")
    s, f_diff = step
    return JacobianState(M=schubert_update(state.M, s, f_diff, problem.pattern))
