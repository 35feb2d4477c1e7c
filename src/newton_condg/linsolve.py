"""Linear step solves with an explicit residual contract.

One object describes a sparse structure: its _Pattern, a boolean CSR
array, and canonical_pattern is its one maker. It copies the structure into
the form Problem stores (read-only arrays, no explicit False) and derives,
once, what every model of the structure needs: the row of every entry, the
LU kernel and where each entry goes in its storage (the symbolic half of
the factorization), and a read-only zero CSRModel template on the
pattern's own indptr and indices. So a _Pattern that carries its template
is canonical, and canonical_pattern returns it as it is. The greedy
column colouring of finite differences (column_colouring) and its group
order wait for the first finite-difference build (groups), so a pattern
that serves only exact or secant models is never coloured. A sparse model
is pattern.model(data), a shallow copy of the template (with_data) that
shares its index arrays and carries the pattern as _pattern.
as_model is the one conversion of a model matrix: a float ndarray, or a
canonical float CSRModel that carries its _pattern. A sparse matrix is
sorted in a copy, never in place. A model that carries the pattern of its
own arrays is returned as it is: the finite-difference and Schubert models
of a declared pattern and the sparse registry problems' exact Jacobians all
carry the Problem's, so its analysis runs once per pattern; the structure
of any other sparse matrix, its explicit zeros included, is copied into a
canonical pattern of its own, which shares no array with the caller's.
A model that is not square fails lu_factor, solve_direct and solve_inexact
alike, with LinearSolveFailure("model matrix is not square"), before any
kernel reads it (_square_model). Every factorization goes
through lu_factor, which picks the kernel by storage, and for a dense model
by its exact zeros, and checks the model once (finite, non-zero); each
kernel is one class that factorizes with partial pivoting and checks its
own pivots (none below PIVOT_RTOL * maxabs). _TridiagonalLU (LAPACK gttrf,
which scipy.linalg.solve_banded picks for a tridiagonal band too) takes a
model of order n >= 3 whose entries all lie within one diagonal of the main
one (|j - i| <= 1: a diagonal, bidiagonal or tridiagonal model): a sparse
one by its stored structure, a dense one by its values, every entry off
those three diagonals being exactly zero (_tridiagonal_by_value, the test
Julia's factorize and MATLAB's mldivide make of a full matrix; it costs
O(1) on a model with a nonzero corner, one strided pass over the entries
off the band otherwise, 12-19 us at n = 200, and a model that passes it is
checked on its copied band alone). The
model's storage stays what it is. _SparseLU (scipy.sparse.linalg.splu)
takes every other sparse one; _DenseLU every other dense one, by
LAPACK dgetrf below order MIXED_MIN_N (250, where the float32 factors stop
costing more than they save) and by sgetrf on a float32 copy above it, with
mixed-precision iterative refinement (Buttari et al., ACM TOMS 2008; Carson
& Higham, SIAM J. Sci. Comput. 2018) for one right-hand side: sgetrs steps
on the float64 residual b - M x until ||b - M x||_inf <= 4 u (||M||_inf
||x||_inf + ||b||_inf), u = 2^-53, a backward error at working precision,
not the bitwise output of getrs. Such a model takes getrf when a float32
pivot is below MIXED_PIVOT_RTOL * maxabs (or sgetrf meets an exactly zero
one); a solve takes it for a block of right-hand sides (as
verify_mk_conditions sends) and, from then on, once refinement has not met
its stop rule after MIXED_MAX_STEPS corrections or a correction does not
reduce the residual. Every LAPACK kernel is a scipy.linalg.lapack routine
called directly (dgetrf/dgetrs, sgetrf/sgetrs, dgttrf/dgttrs), never a
wrapper such as scipy.linalg.lu_factor: each class reads the info it
returns, so an exactly singular dense model raises LinearSolveFailure and
no warning (lu_factor would emit LinAlgWarning first, an exception under
-W error). solve_direct solves with that factorization, and its achieved
residual is refinement's last one when refinement ran. A dense
Broyden step (solve_direct's prev_step) keeps the float32 factors of the
model it updates and adds one Sherman-Morrison term of the inverse update
to every correction, so it costs O(n^2), not sgetrf's O(n^3); refinement,
against the updated model, keeps its stop rule and its getrf fallback.
solve_inexact only promises ||M s - b|| <= eta * ||b|| in the Euclidean
norm, checked by recomputation, under one rule. A model with an exact LU
(_has_exact_lu, lu_factor's own rule: sparse, gttrf or SuperLU, or dense
and tridiagonal by value, gttrf) is factorized once, by lu_factor, and
those factors precondition GMRES, which then stops after one iteration with
the direct step to rounding; a full dense model gets plain GMRES. GMRES
runs one restart cycle of at most 100 iterations, never more, so a step
it misses costs that cycle plus one factorization: at eta = 1e-20, which
rounding cannot meet, 41 ms on a dense 300 x 300 model and 2.8 ms on a
pb3_troesch n = 500 CSR model (one BLAS thread, 2-vCPU virtual machine),
where 50 restart cycles took about 2 s on each. eta = 0,
a b whose norm overflows and a missed contract take the one direct exit,
_direct_step, which solve_direct ends in too, with the factors already
made (a full dense model is factorized there). So an inexact solve calls
lu_factor at most once, and a model whose LU fails fails the solve. The
contract is on the unpreconditioned residual either way, and it is all an
inexact solve guarantees: the theory's vartheta bound on the
preconditioned residual M^{-1}(M s - b), which eta * cond(M) <= vartheta
would imply, is not checked for a full dense model. On a model with an
exact LU the step is the direct step to rounding, so that caveat is moot
there.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgetrf, dgetrs, dgttrf, dgttrs, dlange, sgetrf, sgetrs
from scipy.sparse.linalg import LinearOperator, gmres, splu

PIVOT_RTOL = 1e-14
# a dense model of at least this order gets the float32 LU with float64
# refinement (_DenseLU); below it the refinement's matvecs cost about what the
# faster factorization saves. One solve_direct with one BLAS thread, random,
# pb1 and pb4 models: the refined solve took 7-8% longer than getrf at
# n=175, between 5% less and 1% more at n=200 and 225, and 5-14% less at
# n=250-300, 17% less at n=400 and a third less at n=1000.
MIXED_MIN_N = 250
# a float32 pivot below this times maxabs(M) sends the model to getrf
MIXED_PIVOT_RTOL = 1e-5
# refinement corrections after which an unconverged solve goes to getrf
MIXED_MAX_STEPS = 10
# a Broyden update whose Sherman-Morrison denominator s^T z (z = P y, P the
# inverse the kept float32 factors apply) is below this times ||s|| ||z||
# gets a fresh factorization: the updated model is then near singular, and
# the rounding of z, relative u_32 = 2^-24, would grow by the inverse of it
SECANT_DENOM_RTOL = 1e-4
UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u = 2^-53


class LinearSolveFailure(Exception):
    """The linear step could not be produced (non-square, singular or
    non-finite model)."""


@dataclass
class LinSolveOutcome:
    """Step s and its achieved relative residual ||M s - b|| / ||b||.

    factors is the factorization a direct solve used (what solve_direct's
    prev_step takes for the next secant step); None for an inexact step that
    met its contract.
    """

    s: np.ndarray
    eta_used: float
    factors: object = None

    @property
    def kernel(self):
        """The kernel that solved the step, read from factors: "getrf",
        "sgetrf" (refined), "secant" (refined against kept float32 factors),
        "gttrf" or "superlu"; "gmres" when factors is None."""
        return "gmres" if self.factors is None else self.factors.kernel


class _DenseLU:
    """LU factors of a dense model M: sgetrf's of a float32 copy, refined
    against M, from order MIXED_MIN_N on, and dgetrf's where those do not
    serve, solved with dgetrs.

    The float32 factors are those of M^T, so that a C-ordered M is cast
    without a transposing copy; sgetrs solves with their transpose. They are
    kept when every float32 pivot is at least MIXED_PIVOT_RTOL * maxabs. The
    pivot-checked getrf factors are derived where needed: in the constructor
    below MIXED_MIN_N or when a float32 pivot is too small, else on the first
    solve of a 2-D b or once refinement has failed. An exactly zero pivot of
    either kernel (info > 0) warns of nothing: sgetrf's sends M to getrf,
    and getrf's fails the pivot check (LinearSolveFailure). M is kept by
    reference, never written, and must not change while the factors are
    used.

    Given lu32, the float32 factors of another model M0, and terms, the
    factors serve M through the inverse updates of the secant steps from M0
    to M (secant_successor), with no sgetrf: each correction applies the
    float32 solve and then, in order, every term (u, s) as d += u (s^T d).
    """

    def __init__(self, M, maxabs, lu32=None, terms=()):
        self.M, self.maxabs = M, maxabs
        self.lu32, self.lu64, self.terms = lu32, None, terms  # (lu, piv) of sgetrf and of getrf
        if lu32 is None and M.shape[0] >= MIXED_MIN_N:
            lu, piv, info = sgetrf(M.T.astype(np.float32, order="F"), overwrite_a=True)
            # written so that a nan pivot (a float32 overflow) goes to getrf too
            if info == 0 and np.abs(np.diag(lu)).min() >= MIXED_PIVOT_RTOL * maxabs:
                self.lu32 = (lu, piv)
        if self.lu32 is None:
            self._getrf()
        else:
            self.norm_inf = dlange("1", M.T)  # ||M^T||_1 = ||M||_inf, with no temporary

    def secant_successor(self, M, s, y):
        """The factors of M = M0 + (y - M0 s) s^T / (s^T s), the Broyden
        update of the model M0 these factors hold, without factorizing M;
        None when M needs lu_factor.

        The float32 factors are kept and the inverse update, in its s/y form
        (Sherman-Morrison), becomes one more term of every correction:
        P+ r = P r + (s - z) (s^T P r) / (s^T z), with P the inverse these
        factors apply and z = P y. Refinement runs against the explicit M,
        with its stop rule and its getrf fallback, so a solve meets what it
        meets with fresh factors. M is checked as lu_factor checks it
        (LinearSolveFailure when non-finite or zero). None when these
        factors hold no float32 ones or |s^T z| < SECANT_DENOM_RTOL ||s|| ||z||.
        """
        if self.lu32 is None:
            return None
        maxabs = _checked_scale(M)
        s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float)
        z = self._correction(y, np.abs(y).max())
        denom = s @ z
        # written so that a nan denominator takes lu_factor too
        if not abs(denom) >= SECANT_DENOM_RTOL * math.sqrt((s @ s) * (z @ z)):
            return None
        return _DenseLU(M, maxabs, self.lu32, self.terms + (((s - z) / denom, s),))

    @property
    def kernel(self):
        """What solved the last 1-D right-hand side: "getrf" once the float32
        factors are gone, else "secant" when secant terms ride on them and
        "sgetrf" when none do."""
        if self.lu32 is None:
            return "getrf"
        return "secant" if self.terms else "sgetrf"

    def _getrf(self):
        """The getrf factors, derived and pivot-checked on first use.

        An exactly zero pivot (dgetrf's info > 0) is below any positive
        PIVOT_RTOL * maxabs, so _check_pivots raises for it too.
        """
        if self.lu64 is None:
            lu, piv, _info = dgetrf(self.M)
            _check_pivots(np.diag(lu), self.maxabs)
            self.lu64 = (lu, piv)
        return self.lu64

    def solve(self, b):
        """x with M x = b."""
        return self.refine(b)[0]

    def refine(self, b):
        """(x, r): x with M x = b and its residual r = b - M x, the last one
        refinement computed; r is None when getrf solved it.

        Refinement serves a 1-D b (a 2-D one takes getrf) and stops when
        ||r||_inf <= 4 u (||M||_inf ||x||_inf + ||b||_inf), u = 2^-53: a
        backward error at working precision. When MIXED_MAX_STEPS corrections
        do not get there, or one does not reduce ||r||_inf, this and every
        later solve takes getrf.
        """
        b = np.asarray(b, dtype=float)
        if self.lu32 is not None and b.ndim == 1:
            # Python floats, whose product and sum overflow to inf with no warning
            bnorm = float(np.abs(b).max())
            x = self._correction(b, bnorm)
            previous = np.inf
            for corrections in range(MIXED_MAX_STEPS + 1):
                r = b - self.M @ x
                rnorm = np.abs(r).max()
                if rnorm <= 4.0 * UNIT_ROUNDOFF * (self.norm_inf * float(np.abs(x).max()) + bnorm):
                    return x, r
                # a residual that stalls, grows or is not finite will not converge
                if corrections == MIXED_MAX_STEPS or not rnorm < previous:
                    break
                previous = rnorm
                x += self._correction(r, rnorm)
            self.lu32 = None
        x, _info = dgetrs(*self._getrf(), b)
        return x, None

    def _correction(self, r, rnorm):
        """The float32 solve of M d = r, in float64, followed by the secant
        terms. r is divided by its max-norm rnorm first, so that no finite r
        overflows float32."""
        scale = np.float64(rnorm if rnorm > 0.0 else 1.0)  # so that scale * d is float64
        d, _info = sgetrs(*self.lu32, (r / scale).astype(np.float32), trans=1,
                          overwrite_b=True)
        d = scale * d
        for u, s in self.terms:
            d += (s @ d) * u
        return d


class _SparseLU:
    """SuperLU factors of a sparse model."""

    kernel = "superlu"

    def __init__(self, A, maxabs):
        try:
            self.superlu = splu(A.tocsc())
        except RuntimeError:  # SuperLU met an exactly zero pivot
            raise LinearSolveFailure("model matrix is singular") from None
        _check_pivots(self.superlu.U.diagonal(), maxabs)

    def solve(self, b):
        """x with M x = b."""
        return self.superlu.solve(np.asarray(b, dtype=float))


class _TridiagonalLU:
    """LAPACK gttrf's LU factors of a model whose nonzeros all lie within one
    diagonal of the main one: a sparse model whose _pattern is tridiagonal,
    or a dense one that is tridiagonal by value (_tridiagonal_by_value),
    from its band (band(A)), which gttrf overwrites. lu is (dl, d, du, du2):
    the multipliers and U's three diagonals, d being the pivots, which are
    checked."""

    kernel = "gttrf"

    @staticmethod
    def band(A):
        """A's three diagonals laid end to end in a new array, dl | d | du:
        A[i + 1, i] at i, A[i, i] at n - 1 + i and A[i, i + 1] at 2n - 1 + i.

        A dense model's are copied out of it. A sparse model that stores the
        whole band has, in canonical CSR order, its diagonal at entries 0,
        3, 6, ..., its superdiagonal at 1, 4, ... and its subdiagonal at 2,
        5, ..., so its band is three strided copies of its data; any other
        is scattered by its pattern's flat into zeros."""
        if not sparse.issparse(A):
            return np.concatenate([np.diagonal(A, k) for k in (-1, 0, 1)])
        if A._pattern.flat is None:  # all 3n - 2 entries, stored d u l d u l ... d
            return np.concatenate((A.data[2::3], A.data[::3], A.data[1::3]))
        band = np.zeros(3 * A.shape[0] - 2)
        band[A._pattern.flat] = A.data
        return band

    def __init__(self, band, maxabs):
        n = (band.size + 2) // 3
        *self.lu, self.piv, info = dgttrf(
            band[:n - 1], band[n - 1:2 * n - 1], band[2 * n - 1:],
            overwrite_dl=True, overwrite_d=True, overwrite_du=True,
        )
        if info > 0:  # an exactly zero pivot
            raise LinearSolveFailure("model matrix is singular")
        _check_pivots(self.lu[1], maxabs)

    def solve(self, b):
        """x with M x = b."""
        x, _info = dgttrs(*self.lu, self.piv, np.asarray(b, dtype=float))
        return x


class CSRModel(sparse.csr_array):
    """CSR model matrix whose nbytes counts the data, indices and indptr it stores."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def with_data(M, data, cls=None):
    """The sparse matrix M storing data in place of M.data, as a cls (by
    default type(M)).

    A shallow copy, as copy.copy(M) followed by setting .data makes it, but
    without copy's __reduce_ex__ round trip or the sparse constructor's
    checks: it shares M's index arrays and carries whatever M carries, its
    _pattern and cached format flags included.
    """
    A = object.__new__(cls or type(M))
    A.__dict__ = {**M.__dict__, "data": data}
    return A


class _Pattern(sparse.csr_array):
    """A sparse structure, as a boolean CSR array, and what every model of
    it needs, derived once.

    rows is the row of every stored entry, and tridiagonal whether every
    entry lies within one diagonal of the main one (|j - i| <= 1) with
    n >= 3 (scipy's gttrf wrapper rejects n = 2, so that order takes
    SuperLU). For a tridiagonal pattern that stores only part of the band,
    flat is the position of every entry in _TridiagonalLU's storage, the
    three diagonals dl | d | du laid end to end: A[i + 1, i] at i, A[i, i]
    at n - 1 + i and A[i, i + 1] at 2n - 1 + i. It is None for any other
    pattern, one storing all 3n - 2 entries included: _TridiagonalLU reads
    those diagonals from the data by strides. template is a read-only zero
    CSRModel on the pattern's own indptr and indices; model(data) is a copy
    of it storing data, and carries the pattern as _pattern, which
    lu_factor reads and as_model checks with fits. groups, the column groups
    of finite differences, is derived on its first use, so a pattern that
    serves only exact or secant models is never coloured, and scatter once
    per block size.

    canonical_pattern makes every _Pattern that carries these: build one
    any other way and canonical_pattern copies it. It pickles as its three
    arrays and unpickles through canonical_pattern, leaving what it derived
    behind.
    """

    def __reduce__(self):
        return canonical_pattern, (
            sparse.csr_array((self.data, self.indices, self.indptr), shape=self.shape),
        )

    def _derive(self):
        """Derive template, rows, tridiagonal and flat from the structure; self."""
        zeros = np.zeros(self.indices.size)
        zeros.flags.writeable = False  # every model gets its own data array
        self.template = with_data(self, zeros, CSRModel)
        n = self.shape[0]
        self.rows = np.repeat(np.arange(n), np.diff(self.indptr))
        offsets = self.indices - self.rows  # j - i
        self.tridiagonal = n >= 3 and bool((np.abs(offsets) <= 1).all())
        self.flat = None
        if self.tridiagonal and self.indices.size < 3 * n - 2:
            start = np.array([0, n - 1, 2 * n - 1])  # of dl, d and du
            self.flat = start[offsets + 1] + np.minimum(self.rows, self.indices)
        self._scatter = {}
        return self

    @cached_property
    def groups(self):
        """(colour, order, start, entry_flat), derived on first use.

        colour is column_colouring(self), order and start give the columns
        of group g as order[start[g]:start[g + 1]] (ascending: the sort is
        stable), and entry_flat gives every stored entry's position in the
        flattened (groups, n) differences, colour[j] * n + i for entry
        (i, j), so that a model's data is one 1-D take.
        """
        colour = column_colouring(self)
        order = np.argsort(colour, kind="stable")
        start = np.searchsorted(colour[order], np.arange(colour.max() + 2)).tolist()
        return colour, order, start, colour[self.indices] * self.shape[1] + self.rows

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
        M = with_data(self.template, data)
        M._pattern = self  # not on the template, which would make a reference cycle
        return M

    def fits(self, M):
        """True when M is a float CSR matrix storing this pattern's own arrays."""
        return (
            M.format == "csr"
            and M.indptr is self.indptr
            and M.indices is self.indices
            and M.dtype == np.float64
        )


def canonical_pattern(pattern):
    """A dense or sparse boolean mask as the canonical form Problem stores.

    That form is a boolean _Pattern (a scipy.sparse.csr_array) with sorted,
    duplicate-free indices, no explicit False, and read-only data, indices
    and indptr, so that what is derived from it once cannot go stale. This
    is the one maker of that form: a _Pattern it made (one carrying its
    template) is returned as it is, and anything else, a _Pattern built by
    hand included, is copied and derived.
    """
    if type(pattern) is _Pattern and "template" in vars(pattern):  # made here
        return pattern
    P = _Pattern(pattern, dtype=bool, copy=True)
    P.eliminate_zeros()
    P.sum_duplicates()
    for arr in (P.data, P.indices, P.indptr):
        arr.flags.writeable = False
    return P._derive()


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


def as_model(M):
    """M as a model matrix: a float ndarray, or a canonical float CSRModel.

    A scipy.sparse M that carries the _Pattern of its own indptr and indices
    (every model a pattern makes does, the sparse registry Jacobians
    included) is returned as it is. Any other sparse M has its entries
    sorted and summed, in a copy when M is not canonical, and its stored
    structure, explicit zeros included, copied by canonical_pattern into a
    pattern of its own; the result is that pattern's model of M's values. A
    user jac that returns a fresh CSR matrix pays that analysis on every
    call. Copies of the result (copy.copy, with_data) carry the pattern too.
    """
    if not sparse.issparse(M):
        return np.asarray(M, dtype=float)
    P = getattr(M, "_pattern", None)
    if P is not None and P.fits(M):
        return M
    A = sparse.csr_array(M, dtype=float)
    if not A.has_canonical_format:  # A may share M's arrays; sort a copy
        A = A.copy()
        A.sum_duplicates()
    structure = (np.ones(A.nnz, dtype=bool), A.indices, A.indptr)
    return canonical_pattern(sparse.csr_array(structure, shape=A.shape)).model(A.data)


def _square_model(M):
    """as_model(M); LinearSolveFailure("model matrix is not square") when it
    is not a square matrix, the one shape check of lu_factor, solve_direct and
    solve_inexact."""
    A = as_model(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LinearSolveFailure("model matrix is not square")
    return A


def lu_factor(M):
    """LU factorization of M with partial pivoting; its .solve(b) solves M x = b.

    b may be a vector or a matrix of right-hand sides. M goes through
    as_model; each kernel is one class that factorizes it and checks its own
    pivots. A sparse model gets LAPACK's gttrf (_TridiagonalLU) when its
    order is at least 3 and every stored entry lies within one diagonal of
    the main one (read from the stored structure, never from values), and
    SuperLU (_SparseLU) otherwise, as its _pattern says. A dense one of
    order at least 3 whose nonzeros all lie within one diagonal of the main
    one gets gttrf on a copy of its three diagonals: that test
    (_tridiagonal_by_value) reads the exact zeros of M itself, so it guesses
    nothing about other models, and runs before the finite and non-zero
    check, which then reads only the copied band (every entry off it is
    +-0.0; a nan or inf off it fails the test). Every other dense one gets
    _DenseLU: LAPACK dgetrf below order MIXED_MIN_N, above it sgetrf on a
    float32 copy, whose solves of one right-hand side are refined against M,
    while a block of right-hand sides is solved by dgetrs. _DenseLU keeps a
    reference to M, which must not change while the factors are in use; it
    is never written. Raises LinearSolveFailure when M is not square, has a
    non-finite entry, is zero, or is singular to working precision (some
    pivot below PIVOT_RTOL * maxabs(M) in getrf, gttrf or SuperLU; an
    exactly singular dense M raises it with no warning, and "model matrix is
    singular" when gttrf meets the exactly zero pivot); with float32
    factors, the getrf check runs in the .solve(b) that first takes getrf.
    """
    A = _square_model(M)
    if not _has_exact_lu(A):
        return _DenseLU(A, _checked_scale(A))
    if sparse.issparse(A) and not A._pattern.tridiagonal:
        return _SparseLU(A, _checked_scale(A.data))
    band = _TridiagonalLU.band(A)
    return _TridiagonalLU(band, _checked_scale(band))


def _has_exact_lu(A):
    """True when lu_factor gives the model A (as_model's) an LU whose solve
    is exact to rounding, gttrf's or SuperLU's: A is sparse, or dense and
    tridiagonal by value. Every other dense model gets _DenseLU."""
    return sparse.issparse(A) or _tridiagonal_by_value(A)


def _tridiagonal_by_value(A):
    """True when the dense A, of order n >= 3, has every nonzero within one
    diagonal of the main one (|j - i| <= 1), read from its exact zeros: -0.0
    is a zero, and nan is not.

    A nonzero corner A[-1, 0] or A[0, -1] answers in O(1), which a full
    model does. Otherwise one pass over the entries off the band decides:
    in C order, the (n - 1) x (n + 1) view of A's first n^2 - 1 entries
    starts row i at A[i, i], so its columns 2 to n - 1 hold exactly the
    entries with |j - i| >= 2, each once. An F-ordered A is read through
    its transpose, and A of any other strides through a C-ordered copy.
    With one BLAS thread on a 2-vCPU Xeon virtual machine that pass took
    12-19 us at n = 200, where counting the nonzeros of A and of its three
    diagonals took 33 us and gttrf 11 us.
    """
    n = A.shape[0]
    if n < 3 or A[-1, 0] != 0.0 or A[0, -1] != 0.0:
        return False
    if A.flags.f_contiguous:  # n >= 3: not C-ordered too
        A = A.T
    # reshape(-1) is a view of a C-ordered A, a C-ordered copy of any other
    return not A.reshape(-1)[:(n - 1) * (n + 1)].reshape(n - 1, n + 1)[:, 2:n].any()


def _check_pivots(pivots, scale):
    """LinearSolveFailure when a pivot is below PIVOT_RTOL * scale (maxabs).

    The check is on pivot size alone, so a model that is singular in exact
    arithmetic can pass it: the product of default_rng(1) Gaussians of shape
    300 x 299 and 299 x 300 factorizes, and solve_direct with b = ones
    returns a step with eta_used 0.37 and ||s||_inf 2e12 (one BLAS thread;
    0.24 and 1.3e12 with two). The solver records eta_used in each
    RunReport step but gates nothing on it. A condition estimate (LAPACK
    gecon) would catch such a model.
    """
    if np.abs(pivots).min() < PIVOT_RTOL * scale:
        raise LinearSolveFailure("model matrix is singular to working precision")


def solve_direct(M, b, prev_step=None):
    """Solve M s = b with the factorization of lu_factor.

    prev_step = (factors, s, y), when given, says that M is the secant
    update of the model M0 that factors (the .factors of M0's solve_direct
    outcome, of any kernel) hold. Only dense float32 ones serve it: the
    Broyden update M0 + (y - M0 s) s^T / (s^T s) gets them with one more
    inverse-update term (_DenseLU.secant_successor), an O(n^2) step whose
    refinement against M meets a fresh one's stop rule. M gets lu_factor
    after gttrf, SuperLU or getrf factors, or a denominator too near 0.
    The outcome's factors are the factorization the step used.
    eta_used is ||M s - b|| / ||b||: refinement's last residual when
    refinement solved the step, one more matvec otherwise. Raises
    LinearSolveFailure when M is not square (before prev_step is read),
    non-finite or singular to working precision (some pivot below
    PIVOT_RTOL * maxabs(M)), or b is non-finite.
    """
    M = _square_model(M)
    factors = None
    if prev_step is not None:
        previous, s, y = prev_step
        if isinstance(previous, _DenseLU):
            factors = previous.secant_successor(M, s, y)
    return _direct_step(M, factors, b)


def solve_inexact(M, b, eta):
    """Return s with ||M s - b|| <= eta * ||b|| (Euclidean norms).

    One rule: a model with an exact LU (_has_exact_lu: sparse, or dense and
    tridiagonal by value) is factorized once, by lu_factor, before b is
    read, and those factors precondition GMRES, which then stops after one
    iteration; a full dense model runs GMRES with no preconditioner. GMRES
    runs one restart cycle (at most 100 iterations) toward relative residual
    eta, and the contract is checked by recomputation on the unpreconditioned
    residual. So a missed contract costs one cycle and one factorization,
    whatever eta asks (41 ms at eta = 1e-20 on a dense 300 x 300 model, one
    BLAS thread). eta = 0, a b whose norm
    overflows (on which GMRES would warn) and a GMRES step that misses the
    contract take the one direct exit: solve_direct's step with the factors
    already made, or, for a full dense model, lu_factor's. So lu_factor runs
    at most once. The direct step meets the contract to rounding; an eta
    below its eta_used (about 1e-16 on a well-conditioned model) is not met,
    and eta_used says so. Raises LinearSolveFailure when M is not square,
    non-finite or zero, whatever b is, when b is non-finite, before GMRES
    runs, and when lu_factor fails, as solve_direct would on M. So a
    singular model with an exact LU fails with b = 0 too, where a full dense
    one returns the zero step.
    """
    if not (0.0 <= eta < 1.0):
        raise ValueError("eta must lie in [0, 1)")
    M = _square_model(M)
    factors = lu_factor(M) if eta == 0.0 or _has_exact_lu(M) else None
    if factors is None:
        _checked_scale(M)
    if eta > 0.0:
        b = _checked_rhs(b)
        bnorm = math.sqrt(np.vdot(b, b))
        if bnorm == 0.0:
            return LinSolveOutcome(s=np.zeros_like(b), eta_used=0.0)
        if bnorm < math.inf:
            precond = None
            if factors is not None:  # exact: GMRES stops after one iteration
                precond = LinearOperator(M.shape, matvec=factors.solve, dtype=float)
            # one restart cycle of at most 100 iterations (gmres clips restart to n)
            s, _info = gmres(M, b, rtol=eta, atol=0.0, restart=100, maxiter=1, M=precond)
            r = M @ s - b
            rnorm = math.sqrt(np.vdot(r, r))
            if rnorm <= eta * bnorm:
                return LinSolveOutcome(s=s, eta_used=rnorm / bnorm)
    return _direct_step(M, factors, b)


def _direct_step(M, factors, b):
    """The outcome of M s = b solved with factors, M's own, or with
    lu_factor(M)'s when factors is None: b checked (_checked_rhs), refined
    by a _DenseLU or solved by any other kernel, and eta_used =
    ||M s - b|| / ||b||, from refinement's last residual when it ran and from
    one more matvec otherwise."""
    if factors is None:
        factors = lu_factor(M)
    b = _checked_rhs(b)
    if isinstance(factors, _DenseLU):
        s, r = factors.refine(b)  # r is the achieved residual, or None
    else:
        s, r = factors.solve(b), None
    if r is None:
        r = M @ s - b
    # np.linalg.norm of a contiguous 1-D float array is sqrt(v.dot(v)): same bits
    # as np.vdot, which gives inf without a warning where the sum overflows
    bnorm = math.sqrt(np.vdot(b, b))
    eta_used = math.sqrt(np.vdot(r, r)) / bnorm if bnorm > 0 else 0.0
    return LinSolveOutcome(s=s, eta_used=eta_used, factors=factors)


def _checked_rhs(b):
    """b as a float array; LinearSolveFailure if it has a non-finite entry."""
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise LinearSolveFailure("right-hand side has non-finite entries")
    return b


def _checked_scale(values):
    """maxabs of the stored entries; LinearSolveFailure if non-finite or zero."""
    # max and min copy nothing, unlike np.abs(values); a nan makes both nan,
    # +inf the max and -inf the min, so checking both catches every one
    high, low = (values.max(), values.min()) if values.size else (0.0, 0.0)
    if not (math.isfinite(high) and math.isfinite(low)):
        raise LinearSolveFailure("model matrix has non-finite entries")
    scale = max(high, -low)
    if scale == 0.0:
        raise LinearSolveFailure("model matrix is zero")
    return scale
