"""Jacobian approximation strategies for the outer iteration.

Three ways to build the model matrix M_k: the user-supplied analytic
Jacobian, forward finite differences, and a sparsity-preserving rowwise
secant update (Schubert/Broyden) refreshed by finite differences every
`refresh_period` iterations.

The storage of M_k follows what the problem declares. When it declares a
pattern (Problem stores every pattern as linsolve.canonical_pattern makes
it), M_k is a CSRModel with the pattern's structure: finite differences
perturb each group of structurally orthogonal columns in one residual call
(Curtis, Powell and Reid 1974), and the Schubert update rewrites the CSR
data array in O(nnz).
A problem that declares no pattern gets a dense ndarray built column by
column and the classical Broyden update, except that the exact strategy
keeps a sparse problem.jac sparse. A model's storage is never guessed from
computed values; only linsolve.lu_factor reads a dense model's exact zeros,
to factorize one that is tridiagonal by value with gttrf.

Every model goes through linsolve.as_model. A sparse model is a model of
one canonical pattern; linsolve._Pattern says what that object carries and
when it derives each part. fd_jacobian and the Schubert update read
canonical_pattern(problem.pattern), which returns a Problem's pattern as it
is, so each problem derives them once, and the Schubert update takes only
models of that pattern.

Either way one loop makes the finite differences, one residual call per
block of column groups. A block is a single group unless the problem
declares a vectorized residual (Problem.vectorized): then one call evaluates
as many perturbed points, stacked as rows, as fit in FD_BLOCK_ENTRIES
entries, and the model is bit-identical to the one built point by point.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .linsolve import as_model, canonical_pattern

EXACT = "exact"
FINITE_DIFFERENCE = "finite_difference"
SCHUBERT = "schubert"
JACOBIAN_STRATEGIES = (EXACT, FINITE_DIFFERENCE, SCHUBERT)
SECANT = "secant"  # the model of a schubert step between refreshes (model_kind)

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


def fd_jacobian(fun, x, f0=None, pattern=None, vectorized=False):
    """Forward-difference Jacobian of fun at x.

    Column j uses the step h_j = sqrt(machine eps) * max(|x_j|, 1) with the
    sign of x_j (positive when x_j == 0). A group of columns is perturbed
    together at one point. Without a pattern each column is a group and the
    result is a dense ndarray. With a sparsity pattern (dense or
    scipy.sparse, of shape (n, n), else ValueError) the groups are the
    colours of linsolve.column_colouring, derived once per Problem pattern
    (canonical_pattern(pattern).groups), and the result is the pattern's
    model, a CSRModel with exactly the pattern's structure, bit-identical to
    the dense one when fun honours the pattern.

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
    if not np.isfinite(f0).all():
        raise JacobianError("residual is non-finite at the base point")
    h = _SQRT_EPS * np.maximum(np.abs(x), 1.0)
    h = np.where(x < 0, -h, h)  # not copysign, which would negate at x = -0.0

    groups_per_block = max(1, FD_BLOCK_ENTRIES // n) if vectorized else 1
    # group g perturbs the columns order[start[g]:start[g + 1]] in row
    # g % groups_per_block of its block's points; flat holds those positions
    # in the flattened points
    if pattern is None:
        # a block's differences go to one contiguous buffer, are checked and
        # divided by their steps there, and are then stored as columns of jac
        jac = np.empty((n, n))
        buf = np.empty((min(groups_per_block, n), n))
        order = np.arange(n)
        start = range(n + 1)
        flat = order % groups_per_block * n + order
    else:
        P = canonical_pattern(pattern)
        if P.shape != (n, n):
            raise ValueError("x and pattern shapes differ")
        order, start, entry_flat = P.groups[1:]
        flat = P.scatter(groups_per_block)
        diffs = np.empty((len(start) - 1, n))
    step = h[order]
    n_groups = len(start) - 1
    for g0 in range(0, n_groups, groups_per_block):
        g1 = min(g0 + groups_per_block, n_groups)
        block = buf[:g1 - g0] if pattern is None else diffs[g0:g1]
        s0, s1 = start[g0], start[g1]
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
            block /= step[g0:g1, None]
            jac.T[g0:g1] = block  # row j of jac.T is column j of jac
    if pattern is None:
        return jac
    return P.model(diffs.reshape(-1).take(entry_flat) / h[P.indices])


def schubert_update(M, s, yvec, pattern=None):
    """Rowwise secant update of M constrained to a sparsity pattern.

    For each row i let z_i be s masked to the pattern columns of that row;
    rows with ||z_i|| > 0 are corrected so that (M' s)_i == yvec_i, rows with
    ||z_i|| == 0 are left unchanged, and no entry outside the pattern is ever
    written. pattern=None is the classical rank-one secant (Broyden) update
    of a dense M, bit-identical to an all-true mask; a zero step returns M.
    A dense M stays dense under a dense or sparse pattern, and JacobianError
    says when it has an entry off the pattern. A sparse M must be a model of
    its pattern: P.model(data) with P = linsolve.canonical_pattern(pattern),
    which fd_jacobian and this update return (P.fits(M)); any other sparse M
    raises ValueError, as a missing pattern does. It is updated in O(nnz)
    into a new model of P, and M is not written.
    """
    s = np.asarray(s, dtype=float)
    yvec = np.asarray(yvec, dtype=float)
    if sparse.issparse(M):
        if pattern is None:
            raise ValueError("a sparse M needs its sparsity pattern")
        P = canonical_pattern(pattern)
        if M.shape != P.shape:
            raise ValueError("M and pattern shapes differ")
        if not P.fits(M):
            raise ValueError("a sparse M must be a model of its pattern")
        rows, s_at = P.rows, s[P.indices]
        denom = np.bincount(rows, weights=s_at * s_at, minlength=P.shape[0])
        resid = yvec - M @ s
        safe = np.where(denom > 0.0, denom, 1.0)
        scale = np.where(denom > 0.0, resid / safe, 0.0)
        return P.model(M.data + scale[rows] * s_at)
    M = np.asarray(M, dtype=float)
    if pattern is None:
        denom = np.sum(s * s)
        if denom == 0.0:
            return M
        update = np.outer((yvec - M @ s) / denom, s)
        update += M  # one n-by-n temporary; addition commutes bit for bit
        return update
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


def model_kind(k, strategy, refresh_period=5):
    """The model outer iteration k gets under strategy: EXACT, FINITE_DIFFERENCE
    or SECANT.

    exact: the analytic Jacobian every iteration. finite_difference: a
    finite-difference build every iteration. schubert: a finite-difference
    refresh at k == 0 and whenever (k - 1) mod refresh_period == 0, a secant
    update of the previous model otherwise.
    """
    if strategy not in JACOBIAN_STRATEGIES:
        raise ValueError(f"unknown jacobian strategy {strategy!r}")
    if strategy == SCHUBERT and k >= 1 and (k - 1) % refresh_period != 0:
        return SECANT
    return EXACT if strategy == EXACT else FINITE_DIFFERENCE


def next_jacobian(state, k, problem, x, strategy, refresh_period=5, step=None, fx=None):
    """Model matrix for outer iteration k, given the state of iteration k - 1.

    state is None on the first call. model_kind(k, strategy, refresh_period)
    says which model iteration k gets: exact, the analytic Jacobian
    (JacobianError if the problem has none); finite_difference,
    fd_jacobian (also when a secant step has no state to update); secant,
    the rowwise secant update of the previous matrix using
    step = (x_k - x_{k-1}, F(x_k) - F(x_{k-1})). With a declared
    problem.pattern every finite-difference build is column-grouped and the
    model is CSR; both builds read what problem.pattern derived (entry
    rows, CSR template, and the colouring and group order on the first
    finite-difference build) for every later solve of the problem or of a
    dataclasses.replace copy. The exact model is as_model(problem.jac(x)),
    which returns a sparse Jacobian that carries the pattern of its own
    arrays unchanged and analyses any other one.
    Without a pattern, the builds are column by column and the secant update
    is Broyden's. A problem that declares vectorized=True has fd_jacobian
    evaluate its perturbed points in blocks. fx = F(x), when given, spares
    fd_jacobian one evaluation.
    Finiteness of M is left to the linear solve, which checks it once.
    """
    x = np.asarray(x, dtype=float)
    kind = model_kind(k, strategy, refresh_period)
    if kind == EXACT:
        if problem.jac is None:
            raise JacobianError("exact strategy needs an analytic Jacobian")
        return JacobianState(M=as_model(problem.jac(x)))
    if kind == FINITE_DIFFERENCE or state is None:
        return JacobianState(
            M=fd_jacobian(problem.fun, x, fx, problem.pattern, problem.vectorized)
        )
    if step is None:
        raise ValueError("schubert update needs the previous step data")
    s, f_diff = step
    return JacobianState(M=schubert_update(state.M, s, f_diff, problem.pattern))
