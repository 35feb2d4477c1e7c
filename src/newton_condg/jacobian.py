"""Jacobian approximation strategies for the outer iteration.

Three ways to build the model matrix M_k: the user-supplied analytic
Jacobian, forward finite differences, and a sparsity-preserving rowwise
secant update (Schubert/Broyden) refreshed by finite differences every
`refresh_period` iterations.

The storage of M_k follows what the problem declares. When it declares a
pattern (Problem stores every pattern as canonical_pattern makes it, a
read-only boolean CSR array), M_k is a CSRModel with the pattern's
structure: finite differences perturb each group of structurally orthogonal
columns in one residual call (Curtis, Powell and Reid 1974), and the
Schubert update rewrites the CSR data array in O(nnz).
A problem that declares no pattern gets a dense ndarray built column by
column and the classical Broyden update, except that the exact strategy
keeps a sparse problem.jac sparse. Sparsity is never guessed from computed
values.

Every model goes through linsolve.as_model, which owns CSRModel and gives
each sparse model its factorization plan. What the builds need of a
pattern (the row of every stored entry, a template, the as_model of the
pattern, whose indptr, indices and plan every model shares, and for finite
differences the greedy column colouring, its group order and, per block
size, where each column's step goes in a block's points) lives in one
_Layout per pattern. Each model is a shallow copy of the template with its
own data array, so no model pays the sparse constructor's checks and
lu_factor analyses the pattern's structure once, not once per
factorization. An exact Jacobian that is a float CSR matrix storing exactly
the pattern's indptr and indices (the registry's sparse problems return
one) becomes such a model too; any other exact Jacobian goes through
as_model. A Problem's layout is built on its first finite-difference,
Schubert or sparse exact build and kept on problem.pattern, so every later
solve reads it, and so do dataclasses.replace copies, which keep the same
pattern object. The colouring is derived on the first finite-difference
build, so a problem solved only with its exact Jacobian never colours its
pattern. A canonical pattern pickles as its data, indices and indptr alone
and unpickles through canonical_pattern, so its layout, several times the
pattern's size, is not sent, and the unpickled pattern is canonical again:
its first build derives one layout, not one per build.

Either way one loop makes the finite differences, one residual call per
block of column groups. A block is a single group unless the problem
declares a vectorized residual (Problem.vectorized): then one call evaluates
as many perturbed points, stacked as rows, as fit in FD_BLOCK_ENTRIES
entries, and the model is bit-identical to the one built point by point.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .linsolve import as_model, canonical_csr, with_data

EXACT = "exact"
FINITE_DIFFERENCE = "finite_difference"
SCHUBERT = "schubert"
JACOBIAN_STRATEGIES = (EXACT, FINITE_DIFFERENCE, SCHUBERT)

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


class _Pattern(sparse.csr_array):
    """A canonical pattern; it pickles as its three arrays and unpickles
    through canonical_pattern, leaving its cached _Layout behind."""

    def __reduce__(self):
        return canonical_pattern, (
            sparse.csr_array((self.data, self.indices, self.indptr), shape=self.shape),
        )


def canonical_pattern(pattern):
    """A dense or sparse boolean mask as the canonical form Problem stores.

    That form is a boolean _Pattern (a scipy.sparse.csr_array) with sorted,
    duplicate-free indices, no explicit False, and read-only data, indices
    and indptr, so that what is derived from it once (its _Layout) cannot go
    stale. A pattern already in that form is returned as it is; anything
    else is copied.
    """
    if (
        type(pattern) is _Pattern
        and pattern.dtype == bool
        and not (
            pattern.data.flags.writeable
            or pattern.indices.flags.writeable
            or pattern.indptr.flags.writeable
        )
        and pattern.has_canonical_format
        and pattern.data.all()
    ):
        return pattern
    patt = _Pattern(pattern, dtype=bool, copy=True)
    patt.eliminate_zeros()
    patt.sum_duplicates()
    for arr in (patt.data, patt.indices, patt.indptr):
        arr.flags.writeable = False
    return patt


class _Layout:
    """What every sparse model of a canonical boolean CSR pattern P needs of
    it, derived once.

    template is as_model of P's structure, built and checked once by scipy;
    indptr and indices are its read-only arrays, and plan its
    linsolve._FactorPlan, which every model built by model() shares;
    plan.rows is the row of every stored entry. groups, the column groups of
    finite differences, is derived on its first use, so that an exact-only
    solve never colours P: colour is column_colouring(P), order and start
    give the columns of group g as order[start[g]:start[g + 1]] (ascending:
    the sort is stable), and entry_flat gives every stored entry's position
    in the flattened (groups, n) differences, colour[j] * n + i for entry
    (i, j), so that the model's data is one 1-D take.
    """

    def __init__(self, P):
        self.pattern, self.shape = P, P.shape
        data = np.zeros(P.nnz)
        data.flags.writeable = False  # every model gets its own data array
        self.template = as_model(sparse.csr_array((data, P.indices, P.indptr), shape=P.shape))
        self.indptr, self.indices = self.template.indptr, self.template.indices
        self.plan = self.template._factor_plan
        self._scatter = {}

    @cached_property
    def groups(self):
        """(colour, order, start, entry_flat), derived on first use."""
        colour = column_colouring(self.pattern)
        order = np.argsort(colour, kind="stable")
        start = np.searchsorted(colour[order], np.arange(colour.max() + 2)).tolist()
        return colour, order, start, colour[self.indices] * self.shape[1] + self.plan.rows

    def scatter(self, groups_per_block):
        """colour[order] % groups_per_block * n + order, derived once per
        block size: group g perturbs its columns in row g % groups_per_block
        of its block's points."""
        flat = self._scatter.get(groups_per_block)
        if flat is None:
            colour, order = self.groups[:2]
            flat = colour[order] % groups_per_block * self.shape[1] + order
            self._scatter[groups_per_block] = flat
        return flat

    def model(self, data):
        """The CSRModel storing the float array data at the pattern's entries."""
        return with_data(self.template, data)

    def stores(self, M):
        """True when M is a float CSR matrix storing exactly the pattern's
        indptr and indices (by value), so that model(M.data) holds M."""
        return (
            M.format == "csr"
            and M.dtype == np.float64
            and M.shape == self.shape
            and np.array_equal(M.indptr, self.indptr)
            and np.array_equal(M.indices, self.indices)
        )


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
        layout = _layout(pattern)
        order, start, entry_flat = layout.groups[1:]
        flat = layout.scatter(groups_per_block)
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
    return layout.model(diffs.reshape(-1).take(entry_flat) / h[layout.indices])


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


def _schubert_update_csr(M, s, yvec, pattern):
    layout = _layout(pattern)
    if M.shape != layout.shape:
        raise ValueError("M and pattern shapes differ")
    rows, indices = layout.plan.rows, layout.indices
    if not layout.plan.fits(M):  # M was not built from this layout
        M = canonical_csr(M)  # compared and embedded only: no plan is derived for it
        if not layout.stores(M):
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
    order, entry rows, CSR template), which the problem's first build that
    needs it derives and problem.pattern keeps for every later solve of the
    problem or of a dataclasses.replace copy; an exact Jacobian that stores
    exactly the pattern's CSR structure is a model of that template too, and
    shares its factorization plan.
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
        J = problem.jac(x)
        if problem.pattern is not None and sparse.issparse(J):
            layout = _layout(problem.pattern)
            if layout.stores(J):
                return JacobianState(M=layout.model(J.data))
        return JacobianState(M=as_model(J))
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
