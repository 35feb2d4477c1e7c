import copy

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.linalg.lapack import sgetrf
from scipy.sparse.linalg import gmres, splu

import newton_condg.linsolve
import newton_condg.solver
from newton_condg import (
    AdaptiveEta,
    ConstantEta,
    LinearSolveFailure,
    SolverConfig,
    TheoryParams,
    forcing_eta,
    make_problem,
    next_jacobian,
    solve,
    solve_direct,
    solve_inexact,
    spectral_norm,
    starting_point,
    verify_mk_conditions,
)
from newton_condg.jacobian import schubert_update
from newton_condg.linsolve import (
    MIXED_MIN_N,
    UNIT_ROUNDOFF,
    _DenseLU,
    _Pattern,
    _SparseLU,
    _TridiagonalLU,
    _checked_scale,
    as_model,
    canonical_pattern,
    lu_factor,
    with_data,
)


def _random_band(rng, n, kl, ku):
    """A random CSR matrix with kl sub- and ku superdiagonals, all stored."""
    offsets = list(range(-kl, ku + 1))
    diagonals = [rng.standard_normal(n - abs(k)) for k in offsets]
    return sparse.diags_array(diagonals, offsets=offsets, shape=(n, n), format="csr")


class TestSolveDirect:
    def test_identity(self):
        out = solve_direct(np.eye(2), -np.array([1.0, -2.0]))
        np.testing.assert_allclose(out.s, [-1.0, 2.0])
        assert out.eta_used <= 1e-14

    def test_diagonal(self):
        out = solve_direct(np.diag([2.0, 4.0]), -np.array([2.0, 4.0]))
        np.testing.assert_allclose(out.s, [-1.0, -1.0])

    def test_permutation(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = solve_direct(M, -np.array([3.0, 5.0]))
        np.testing.assert_allclose(out.s, [-5.0, -3.0])
        np.testing.assert_allclose(M @ out.s, [-3.0, -5.0], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(LinearSolveFailure):
            solve_direct(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
        with pytest.raises(LinearSolveFailure):
            solve_direct(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(LinearSolveFailure):
            solve_direct(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_residual_recomputation_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            b = rng.standard_normal(n)
            out = solve_direct(M, b)
            fnorm = np.linalg.norm(b)
            rnorm = np.linalg.norm(M @ out.s - b)
            assert out.eta_used == pytest.approx(rnorm / fnorm, rel=1e-12)
            assert rnorm <= 1e-10 * (1.0 + fnorm)


class TestSolveInexact:
    def test_eta_zero_is_direct(self):
        M = np.diag([1.0, 3.0])
        b = np.array([2.0, 9.0])
        np.testing.assert_allclose(solve_inexact(M, b, 0.0).s, solve_direct(M, b).s)

    def test_contract_on_identity(self):
        b = -np.array([4.0, -3.0])
        out = solve_inexact(np.eye(2), b, 0.5)
        assert out.eta_used <= 0.5
        # the explicitly damped step also satisfies the contract
        s = 0.6 * b
        assert np.linalg.norm(np.eye(2) @ s - b) <= 0.5 * np.linalg.norm(b)

    def test_contract_recomputation(self):
        M = np.diag([1.0, 10.0])
        F = np.array([1.0, 1.0])
        out = solve_inexact(M, -F, 0.3)
        assert np.linalg.norm(M @ out.s + F) <= 0.3 * np.sqrt(2.0) + 1e-12
        assert out.eta_used <= 0.3 + 1e-12

    def test_agrees_with_direct_on_well_conditioned(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            M = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
            assert np.linalg.cond(M) < 1e8
            b = rng.standard_normal(n)
            sd = solve_direct(M, b).s
            si = solve_inexact(M, b, 0.0).s
            np.testing.assert_allclose(si, sd, rtol=1e-10, atol=1e-12)

    def test_zero_rhs(self):
        out = solve_inexact(np.eye(3), np.zeros(3), 0.5)
        np.testing.assert_array_equal(out.s, np.zeros(3))
        assert out.eta_used == 0.0

    @pytest.mark.parametrize("zero", [np.zeros((3, 3)), sparse.csr_array((3, 3))],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("b", [np.zeros(3), np.ones(3)], ids=["b=0", "b!=0"])
    def test_zero_model_fails_whatever_b_is(self, zero, b):
        for solve in (lambda: solve_inexact(zero, b, 0.5), lambda: solve_direct(zero, b)):
            with pytest.raises(LinearSolveFailure, match="^model matrix is zero$"):
                solve()

    @pytest.mark.parametrize("model", [3.0 * np.eye(3), sparse.csr_array(3.0 * np.eye(3))],
                             ids=["dense", "sparse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_fails_before_gmres(self, monkeypatch, model, bad):
        def no_gmres(*args, **kwargs):
            raise AssertionError("GMRES ran on a non-finite right-hand side")

        monkeypatch.setattr(newton_condg.linsolve, "gmres", no_gmres)
        b = np.array([1.0, bad, 2.0])
        for solve in (lambda: solve_inexact(model, b, 0.5), lambda: solve_inexact(model, b, 0.0),
                      lambda: solve_direct(model, b)):
            with pytest.raises(LinearSolveFailure,
                               match="^right-hand side has non-finite entries$"):
                solve()

    def test_contract_over_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            M = rng.standard_normal((n, n)) + (2.0 + n) * np.eye(n)
            b = rng.standard_normal(n)
            eta = rng.uniform(0.0, 0.9)
            out = solve_inexact(M, b, eta)
            assert np.linalg.norm(M @ out.s - b) <= eta * np.linalg.norm(b) + 1e-12

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            solve_inexact(np.eye(2), np.ones(2), 1.0)

    @pytest.mark.parametrize("model", ["dense", "csr"])
    def test_missed_contract_takes_the_direct_step(self, monkeypatch, model):
        # a GMRES step that misses the contract is replaced by solve_direct's
        rng = np.random.default_rng(41)
        n = 60
        if model == "dense":
            M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        else:
            M = sparse.csr_array(_random_band(rng, n, 1, 1) + 4.0 * sparse.eye_array(n))
        b = rng.standard_normal(n)
        monkeypatch.setattr(newton_condg.linsolve, "gmres",
                            lambda A, rhs, **kwargs: (np.zeros_like(rhs), 0))
        factored = _counting(monkeypatch, "lu_factor")
        out = solve_inexact(M, b, 0.1)
        assert len(factored) == 1
        direct = solve_direct(M, b)
        assert out.s.tobytes() == direct.s.tobytes()
        assert out.eta_used == direct.eta_used <= 0.1

    @pytest.mark.parametrize("exit", ["eta=0", "overflowing b", "missed contract"])
    def test_troesch_model_is_factorized_once_on_every_direct_exit(self, monkeypatch, exit):
        # the factors that precondition GMRES are the direct exit's factors
        p = make_problem("pb3_troesch", 200)
        x = starting_point(p, 1)
        M = next_jacobian(None, 0, p, x, "exact").M
        assert sparse.issparse(M)
        b, eta = -p.fun(x), 0.1
        if exit == "eta=0":
            eta = 0.0
        elif exit == "overflowing b":
            b = np.full(p.n, 1e300)
        else:
            monkeypatch.setattr(newton_condg.linsolve, "gmres",
                                lambda A, rhs, **kwargs: (np.zeros_like(rhs), 0))
        factored = _counting(monkeypatch, "lu_factor")
        out = solve_inexact(M, b, eta)
        assert len(factored) == 1
        assert out.kernel == "gttrf"
        assert out.s.tobytes() == solve_direct(M, b).s.tobytes()

    @pytest.mark.parametrize("model", ["dense", "troesch"])
    def test_unattainable_eta_costs_one_gmres_cycle(self, monkeypatch, model):
        # eta = 1e-20 is below any step's rounding: one restart cycle, then the
        # direct exit (sgetrf for the dense model of order 300, gttrf for CSR)
        if model == "dense":
            rng = np.random.default_rng(0)
            M = rng.standard_normal((300, 300)) / np.sqrt(300) + 2.0 * np.eye(300)
            b = rng.standard_normal(300)
        else:
            p = make_problem("pb3_troesch", 500)
            x = starting_point(p, 1)
            M, b = next_jacobian(None, 0, p, x, "exact").M, -p.fun(x)
            assert sparse.issparse(M)
        calls = []
        original = newton_condg.linsolve.gmres

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(newton_condg.linsolve, "gmres", counted)
        out = solve_inexact(M, b, 1e-20)
        assert [kwargs["maxiter"] for kwargs in calls] == [1]
        direct = solve_direct(M, b)
        assert out.kernel == direct.kernel == ("sgetrf" if model == "dense" else "gttrf")
        assert out.s.tobytes() == direct.s.tobytes()
        assert out.eta_used == direct.eta_used > 1e-20

    @pytest.mark.parametrize("eta", [0.5, 0.1, 1e-8])
    def test_dense_tridiagonal_model_is_preconditioned_by_its_gttrf(self, monkeypatch, eta):
        # tridiagonal by value: lu_factor's gttrf is exact, so GMRES meets any
        # eta with the step's rounding
        rng = np.random.default_rng(42)
        M = _diagonals(rng, 200, [-1, 0, 1]).toarray()
        b = rng.standard_normal(200)
        factored = _counting(monkeypatch, "lu_factor")
        out = solve_inexact(M, b, eta)
        assert len(factored) == 1 and factored[0] is M
        assert out.kernel == "gmres"
        assert out.eta_used < 1e-14
        assert np.linalg.norm(M @ out.s - b) <= out.eta_used * np.linalg.norm(b) * (1 + 1e-12)

    def test_dense_model_runs_plain_gmres(self):
        # no preconditioner on a dense M: the step is scipy's own GMRES step
        rng = np.random.default_rng(5)
        for n in (3, 40, 150):
            M = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
            b = rng.standard_normal(n)
            for eta in (0.5, 0.1, 1e-6):
                plain, _info = gmres(M, b, rtol=eta, atol=0.0, restart=100, maxiter=1)
                assert np.linalg.norm(M @ plain - b) <= eta * np.linalg.norm(b)
                np.testing.assert_array_equal(solve_inexact(M, b, eta).s, plain)


def _assert_same_lu_as_lapack(factors, M, rng, rhs=((), (3,))):
    """gttrf's factors and solves agree with dense getrf's and SuperLU's."""
    n = M.shape[0]
    dense = linalg.lu_factor(M.toarray())
    superlu = splu(sparse.csc_array(M))
    # the same partial pivoting gives the same diagonal of U
    np.testing.assert_allclose(factors.lu[1], np.diag(dense[0]), rtol=1e-9)
    cond = np.linalg.cond(M.toarray())
    for shape in rhs:
        b = rng.standard_normal((n, *shape))
        x = factors.solve(b)
        assert x.shape == b.shape
        for reference in (linalg.lu_solve(dense, b), superlu.solve(b)):
            err = np.linalg.norm(x - reference)
            assert err <= 1e-13 * cond * np.linalg.norm(reference)


class TestTridiagonalLU:
    @pytest.mark.parametrize(
        "n, kl, ku", [(3, 0, 0), (9, 0, 0), (40, 1, 1), (40, 1, 0), (40, 0, 1)]
    )
    def test_matches_superlu_and_dense_lapack(self, n, kl, ku):
        rng = np.random.default_rng(1000 * n + 10 * kl + ku)
        M = _random_band(rng, n, kl, ku)
        band = lu_factor(M)
        assert isinstance(band, _TridiagonalLU)
        _assert_same_lu_as_lapack(band, M, rng)

    def test_tridiagonal_row_interchanges(self):
        # every subdiagonal entry outweighs its diagonal, so every step swaps rows
        n = 30
        rng = np.random.default_rng(3)
        M = _random_band(rng, n, 1, 1).tolil()
        for i in range(n - 1):
            M[i, i] = 0.1 * rng.uniform(0.5, 1.0)
            M[i + 1, i] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        M = sparse.csr_array(M)
        band = lu_factor(M)
        assert isinstance(band, _TridiagonalLU)
        np.testing.assert_array_equal(band.piv - 1, linalg.lu_factor(M.toarray())[1])
        np.testing.assert_array_equal(band.piv[:-1], np.arange(2, n + 1))  # 1-based
        _assert_same_lu_as_lapack(band, M, rng)

    @pytest.mark.parametrize("unstored", [(5, 4), (5, 6), (0, 1), (11, 10)])
    def test_tridiagonal_pattern_with_an_unstored_entry(self, unstored):
        n = 12
        rng = np.random.default_rng(4)
        A = _random_band(rng, n, 1, 1).toarray()
        A[unstored] = 0.0
        M = sparse.csr_array(A)  # drops the zero, so the pattern misses one entry
        assert M.nnz == 3 * n - 3
        band = lu_factor(M)
        assert isinstance(band, _TridiagonalLU)
        _assert_same_lu_as_lapack(band, M, rng)

    def test_tridiagonal_matrix_right_hand_sides(self):
        n = 50
        rng = np.random.default_rng(5)
        M = _random_band(rng, n, 1, 1)
        band = lu_factor(M)
        assert isinstance(band, _TridiagonalLU)
        _assert_same_lu_as_lapack(band, M, rng, rhs=((1,), (4,)))
        B = rng.standard_normal((n, 6))
        for b in (B[:, ::2], np.asfortranarray(B), B.T.copy().T):
            before = b.copy()
            np.testing.assert_array_equal(band.solve(b), band.solve(np.ascontiguousarray(b)))
            np.testing.assert_array_equal(b, before)  # the right-hand side is not written

    def test_exactly_singular_tridiagonal_model_fails(self):
        # rows 0 and 1 are equal: gttrf meets an exactly zero pivot (info > 0)
        M = sparse.csr_array(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert as_model(M)._pattern.tridiagonal
        with pytest.raises(LinearSolveFailure, match="^model matrix is singular$"):
            lu_factor(M)

    def test_tridiagonal_pivot_below_the_relative_floor_fails(self):
        M = sparse.csr_array(
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]])
        )
        assert as_model(M)._pattern.tridiagonal
        with pytest.raises(LinearSolveFailure, match="working precision"):
            lu_factor(M)

    def test_exactly_singular_order_two_model_fails(self):
        # two equal rows: SuperLU, which takes order 2, meets an exactly zero pivot
        M = sparse.csr_array(np.ones((2, 2)))
        with pytest.raises(LinearSolveFailure, match="^model matrix is singular$"):
            lu_factor(M)

    def test_pivot_below_the_relative_floor_fails(self):
        # the second pivot is (1 + 1e-15) - 1, about 1.1e-15 < PIVOT_RTOL * 1
        M = sparse.csr_array(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
        with pytest.raises(LinearSolveFailure, match="working precision"):
            lu_factor(M)

    def test_duplicates_are_summed_without_touching_the_input(self):
        data, indices = np.array([1.0, 2.0, 3.0, 5.0]), np.array([1, 0, 0, 1])
        M = sparse.csr_array((data, indices, [0, 3, 4]), shape=(2, 2))  # [[5, 1], [0, 5]]
        x = lu_factor(M).solve(np.array([6.0, 5.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)
        np.testing.assert_array_equal(M.indices, [1, 0, 0, 1])
        np.testing.assert_array_equal(M.data, [1.0, 2.0, 3.0, 5.0])


def _diagonals(rng, n, offsets):
    """A diagonally dominant CSR matrix storing the diagonals at offsets."""
    return sparse.diags_array(
        [(4.0 * len(offsets) if k == 0 else 0.0) + rng.uniform(-1.0, 1.0, n - abs(k))
         for k in offsets],
        offsets=offsets, format="csr",
    )


def _unstored_tridiagonal(rng, n):
    A = _diagonals(rng, n, [-1, 0, 1]).toarray()
    A[[0, 5, 5, n - 1], [1, 4, 6, n - 2]] = 0.0
    return sparse.csr_array(A)  # drops the zeros: four entries of the band unstored


# (the model, built from an rng, and the kernel lu_factor takes for it): every
# entry within one diagonal of the main one at n >= 3 is gttrf's, any other SuperLU's
KERNEL_RULE = {
    "diagonal": (lambda rng: _diagonals(rng, 10, [0]), _TridiagonalLU),
    "lower-bidiagonal": (lambda rng: _diagonals(rng, 10, [-1, 0]), _TridiagonalLU),
    "upper-bidiagonal": (lambda rng: _diagonals(rng, 10, [0, 1]), _TridiagonalLU),
    "tridiagonal": (lambda rng: _diagonals(rng, 40, [-1, 0, 1]), _TridiagonalLU),
    "tridiagonal-unstored": (lambda rng: _unstored_tridiagonal(rng, 12), _TridiagonalLU),
    "order-one": (lambda rng: _diagonals(rng, 1, [0]), _SparseLU),
    "order-two": (lambda rng: _diagonals(rng, 2, [-1, 0, 1]), _SparseLU),
    "pentadiagonal": (lambda rng: _diagonals(rng, 40, [-2, -1, 0, 1, 2]), _SparseLU),
    "upper-band": (lambda rng: _diagonals(rng, 25, [0, 1, 2, 3]), _SparseLU),
    "lower-band": (lambda rng: _diagonals(rng, 25, [-3, -2, -1, 0]), _SparseLU),
    "wide-upper-band": (lambda rng: _diagonals(rng, 40, range(-2, 6)), _SparseLU),
    "wide-lower-band": (lambda rng: _diagonals(rng, 40, range(-4, 2)), _SparseLU),
    "arrowhead": (lambda rng: sparse.csr_array(_arrowhead(20)), _SparseLU),
}


@pytest.mark.parametrize("case", KERNEL_RULE)
def test_kernel_rule(case):
    build, kernel = KERNEL_RULE[case]
    rng = np.random.default_rng(0)
    M = build(rng)
    n = M.shape[0]
    assert type(lu_factor(M)) is kernel
    for b in rng.standard_normal((4, n)):
        out = solve_direct(M, b)
        reference = linalg.lu_solve(linalg.lu_factor(M.toarray()), b)
        assert np.linalg.norm(out.s - reference) <= 1e-12 * np.linalg.norm(reference)
        expected = np.linalg.norm(M @ out.s - b) / np.linalg.norm(b)
        assert np.float64(out.eta_used).tobytes() == expected.tobytes()
    # a zeroed last row, its entries kept as stored zeros: the same pattern, so the same kernel
    A = as_model(M)
    singular = with_data(A, A.data.copy())
    singular.data[A.indptr[-2]:A.indptr[-1]] = 0.0
    # the zeroed row of a 1 x 1 model is the whole model
    message = "^model matrix is zero$" if n == 1 else "^model matrix is singular$"
    with pytest.raises(LinearSolveFailure, match=message):
        lu_factor(singular)


def _off_band(rng, n, where=None):
    """A dense tridiagonal model plus one entry of 1e-300 two diagonals out,
    at where (by default (n - 1, n - 3))."""
    A = _diagonals(rng, n, [-1, 0, 1]).toarray()
    A[(n - 1, n - 3) if where is None else where] = 1e-300
    return A


def _minus_zero_off_band(rng, n):
    """A dense tridiagonal model storing -0.0 at every entry off the band."""
    A = _diagonals(rng, n, [-1, 0, 1]).toarray()
    i, j = np.indices(A.shape)
    A[abs(i - j) >= 2] = -0.0
    return A


def _strided(A):
    """The dense A as a [::2, ::2] view of a larger array."""
    big = np.zeros((2 * A.shape[0], 2 * A.shape[1]))
    big[::2, ::2] = A
    return big[::2, ::2]


# (the dense model, built from an rng, and the kernel lu_factor takes for it):
# a dense model of order n >= 3 whose nonzeros all lie within one diagonal of
# the main one, read from its values, is gttrf's, any other _DenseLU's
DENSE_KERNEL_RULE = {
    **{
        f"{name}-n{n}": (lambda rng, n=n, offsets=offsets: _diagonals(rng, n, offsets).toarray(),
                         _TridiagonalLU)
        for n in (3, 40, 300)
        for name, offsets in (
            ("diagonal", [0]),
            ("lower-bidiagonal", [-1, 0]),
            ("upper-bidiagonal", [0, 1]),
            ("tridiagonal", [-1, 0, 1]),
        )
    },
    "order-two": (lambda rng: _diagonals(rng, 2, [-1, 0, 1]).toarray(), _DenseLU),
    "pentadiagonal": (lambda rng: _diagonals(rng, 40, [-2, -1, 0, 1, 2]).toarray(), _DenseLU),
    "full-n40": (lambda rng: rng.standard_normal((40, 40)) + 4.0 * np.sqrt(40) * np.eye(40),
                 _DenseLU),
    "full-n300": (lambda rng: rng.standard_normal((300, 300)) + 4.0 * np.sqrt(300) * np.eye(300),
                  _DenseLU),
    "off-band-n40": (lambda rng: _off_band(rng, 40), _DenseLU),
    "off-band-n300": (lambda rng: _off_band(rng, 300), _DenseLU),
    # the one pass reads C-ordered models, F-ordered ones through their
    # transpose and any other strides through a copy
    "tridiagonal-f-order-n40": (
        lambda rng: np.asfortranarray(_diagonals(rng, 40, [-1, 0, 1]).toarray()), _TridiagonalLU),
    "tridiagonal-strided-n40": (
        lambda rng: _strided(_diagonals(rng, 40, [-1, 0, 1]).toarray()), _TridiagonalLU),
    "off-band-f-order-n40": (lambda rng: np.asfortranarray(_off_band(rng, 40)), _DenseLU),
    "off-band-strided-n40": (lambda rng: _strided(_off_band(rng, 40)), _DenseLU),
    # -0.0 is an exact zero
    "minus-zero-off-band-n40": (lambda rng: _minus_zero_off_band(rng, 40), _TridiagonalLU),
    # the first and last entries the view's off-band columns hold
    "off-band-at-0-2-n40": (lambda rng: _off_band(rng, 40, (0, 2)), _DenseLU),
    "off-band-at-2-0-n40": (lambda rng: _off_band(rng, 40, (2, 0)), _DenseLU),
    "off-band-at-n-3-n-1-n40": (lambda rng: _off_band(rng, 40, (37, 39)), _DenseLU),
}


@pytest.mark.parametrize("case", DENSE_KERNEL_RULE)
def test_dense_kernel_rule(case):
    build, kernel = DENSE_KERNEL_RULE[case]
    rng = np.random.default_rng(0)
    M = build(rng)
    before = M.copy()
    n = M.shape[0]
    assert MIXED_MIN_N <= 300  # so the n = 300 cases are past getrf's orders
    assert type(lu_factor(M)) is kernel
    for b in rng.standard_normal((4, n)):
        out = solve_direct(M, b)
        assert type(out.factors) is kernel
        reference = linalg.lu_solve(linalg.lu_factor(M), b)
        assert np.linalg.norm(out.s - reference) <= 1e-12 * np.linalg.norm(reference)
        expected = np.linalg.norm(M @ out.s - b) / np.linalg.norm(b)
        assert np.float64(out.eta_used).tobytes() == expected.tobytes()
    np.testing.assert_array_equal(M, before)  # the dense model is not written


# off the band, where the band test sends the model to _DenseLU, and on it,
# where the band's scale check fails it
@pytest.mark.parametrize("where", [(5, 0), (0, 9), (7, 2), (4, 4), (0, 1), (9, 8)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_off_band_nan_of_a_dense_tridiagonal_model_fails(where, bad):
    M = _diagonals(np.random.default_rng(1), 10, [-1, 0, 1]).toarray()
    M[where] = bad
    with pytest.raises(LinearSolveFailure, match="^model matrix has non-finite entries$"):
        lu_factor(M)


@pytest.mark.parametrize("n", [3, 40, 300])
def test_dense_zero_model_fails(n):
    with pytest.raises(LinearSolveFailure, match="^model matrix is zero$"):
        lu_factor(np.zeros((n, n)))


def test_exactly_singular_dense_tridiagonal_model_fails():
    # rows 0 and 1 are equal: gttrf meets an exactly zero pivot (info > 0),
    # where getrf's zero pivot failed the pivot check ("... to working precision")
    M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(LinearSolveFailure, match="^model matrix is singular$"):
        lu_factor(M)


@pytest.mark.parametrize("n", [3, 10, 2000])
def test_diagonal_model_step_is_b_over_d(n):
    # gttrf's step on a diagonal model is b / d, bit for bit
    rng = np.random.default_rng(n)
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    b = rng.standard_normal(n)
    out = solve_direct(sparse.diags_array(d, format="csr"), b)
    assert isinstance(out.factors, _TridiagonalLU)
    assert out.s.tobytes() == (b / d).tobytes()


@pytest.mark.parametrize("n", [3, 10, 2000])
@pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
def test_synthetic_quadratic_steps_are_b_over_d(monkeypatch, n, strategy):
    # the registry's one diagonal model: every direct step is -F(x) / diag(M)
    steps = []
    original = newton_condg.solver.solve_direct

    def recorded(M, b, **kwargs):
        out = original(M, b, **kwargs)
        steps.append((M, b, out))
        return out

    monkeypatch.setattr(newton_condg.solver, "solve_direct", recorded)
    p = make_problem("synthetic_quadratic", n)
    report = solve(p, starting_point(p, 1), SolverConfig(jacobian_strategy=strategy))
    assert report.status == "converged" and len(steps) == report.iterations
    for M, b, out in steps:
        assert isinstance(out.factors, _TridiagonalLU)
        assert out.s.tobytes() == (b / M.diagonal()).tobytes()


def _graded(n, decades, seed):
    """Q1 diag(logspace(0, -decades)) Q2^T with random orthogonal Q1, Q2."""
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return (q1 * np.logspace(0, -decades, n)) @ q2.T


def _normwise_close(x, reference, rtol):
    """||x - reference||_inf <= rtol * ||reference||_inf, column by column."""
    return bool(np.all(np.abs(x - reference).max(axis=0)
                       <= rtol * np.abs(reference).max(axis=0)))


def _meets_stop_rule(M, x, b):
    rnorm = np.abs(b - M @ x).max(axis=0)
    bound = 4 * UNIT_ROUNDOFF * (np.abs(M).sum(axis=1).max() * np.abs(x).max(axis=0)
                                 + np.abs(b).max(axis=0))
    return bool(np.all(rnorm <= bound))


def _counting_sgetrs(monkeypatch):
    calls = []
    sgetrs = newton_condg.linsolve.sgetrs

    def counted(*args, **kwargs):
        calls.append(args)
        return sgetrs(*args, **kwargs)

    monkeypatch.setattr(newton_condg.linsolve, "sgetrs", counted)
    return calls


class TestMixedLU:
    """Dense models of order >= MIXED_MIN_N: float32 LU, float64 refinement
    of one right-hand side, getrf for a block of them."""

    N = MIXED_MIN_N + 7

    def test_well_conditioned_model_meets_the_stop_rule(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((self.N, self.N)) + 2.0 * np.sqrt(self.N) * np.eye(self.N)
        b = rng.standard_normal(self.N)
        factors = lu_factor(M)
        assert isinstance(factors, _DenseLU) and factors.lu32 is not None
        x, r = factors.refine(b)
        assert r is not None and factors.lu32 is not None and factors.lu64 is None
        assert r.tobytes() == (b - M @ x).tobytes()
        assert _meets_stop_rule(M, x, b)
        assert _normwise_close(x, linalg.lu_solve(linalg.lu_factor(M), b), 1e-14)

    def test_eta_used_is_the_last_refinement_residual(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((self.N, self.N)) + 2.0 * np.sqrt(self.N) * np.eye(self.N)
        b = rng.standard_normal(self.N)
        out = solve_direct(M, b)
        assert out.eta_used == np.linalg.norm(M @ out.s - b) / np.linalg.norm(b)
        assert solve_direct(M, np.zeros(self.N)).eta_used == 0.0

    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_matrix_right_hand_side(self, monkeypatch, nrhs):
        # a block goes to getrf, bit for bit, and leaves the float32 factors
        # to later solves of one right-hand side
        rng = np.random.default_rng(13)
        M = _graded(self.N, 4, seed=13)
        B = rng.standard_normal((self.N, nrhs))
        B[:, 0] *= 1e-6
        solves = _counting_sgetrs(monkeypatch)
        factors = lu_factor(M)
        X = factors.solve(B)
        assert X.shape == B.shape
        assert X.tobytes() == linalg.lu_solve(linalg.lu_factor(M), B).tobytes()
        assert solves == [] and factors.lu32 is not None
        for j in range(nrhs):
            x, r = factors.refine(B[:, j])
            assert r is not None and _meets_stop_rule(M, x, B[:, j])
            # cond(M) = 1e4: forward errors up to about cond * u
            assert _normwise_close(x, X[:, j], 1e-11)
        assert len(solves) >= 2 * nrhs  # the first solve and a correction, at least

    def test_small_float32_pivot_takes_getrf(self):
        # cond 1e10: a float32 pivot is far below MIXED_PIVOT_RTOL * maxabs
        M = _graded(self.N, 10, seed=14)
        b = np.random.default_rng(14).standard_normal(self.N)
        factors = lu_factor(M)
        assert factors.lu32 is None and factors.lu64 is not None
        reference = linalg.lu_solve(linalg.lu_factor(M), b)
        assert factors.solve(b).tobytes() == reference.tobytes()
        assert solve_direct(M, b).s.tobytes() == reference.tobytes()
        assert _meets_stop_rule(M, reference, b)

    def test_unconverged_refinement_takes_getrf(self, monkeypatch):
        # cond 1e6 needs more than one correction
        M = _graded(self.N, 6, seed=15)
        b = np.random.default_rng(15).standard_normal(self.N)
        monkeypatch.setattr(newton_condg.linsolve, "MIXED_MAX_STEPS", 1)
        factors = lu_factor(M)
        assert factors.lu32 is not None and factors.lu64 is None
        x, r = factors.refine(b)
        assert r is None and factors.lu32 is None and factors.lu64 is not None
        reference = linalg.lu_factor(M)
        assert x.tobytes() == linalg.lu_solve(reference, b).tobytes()
        # every later solve takes getrf, one right-hand side or a block
        solves = _counting_sgetrs(monkeypatch)
        assert factors.solve(2.0 * b).tobytes() == (2.0 * linalg.lu_solve(reference, b)).tobytes()
        B = np.column_stack([b, -b])
        assert factors.solve(B).tobytes() == linalg.lu_solve(reference, B).tobytes()
        assert solves == []
        out = solve_direct(M, b)
        assert out.s.tobytes() == linalg.lu_solve(reference, b).tobytes()
        assert out.eta_used == np.linalg.norm(M @ out.s - b) / np.linalg.norm(b)

    def test_growing_residual_takes_getrf_at_once(self, monkeypatch):
        # factors of another matrix: every correction makes the residual grow
        rng = np.random.default_rng(20)
        M, other = (rng.standard_normal((self.N, self.N)) for _ in range(2))
        factors = _DenseLU(M, np.abs(M).max())
        lu, piv, _info = sgetrf(other.T.astype(np.float32, order="F"))
        factors.lu32 = (lu, piv)
        solves = _counting_sgetrs(monkeypatch)
        b = rng.standard_normal(self.N)
        x, r = factors.refine(b)
        assert r is None and len(solves) == 2  # the first solve and one correction
        assert x.tobytes() == linalg.lu_solve(linalg.lu_factor(M), b).tobytes()

    @pytest.mark.parametrize("size", [1e-300, 1e300])  # 0 and inf in float32
    def test_right_hand_side_beyond_float32_range(self, size):
        rng = np.random.default_rng(16)
        M = rng.standard_normal((self.N, self.N)) + 2.0 * np.sqrt(self.N) * np.eye(self.N)
        b = size * rng.standard_normal(self.N)
        x, r = lu_factor(M).refine(b)
        assert r is not None and _meets_stop_rule(M, x, b)
        assert _normwise_close(x, linalg.lu_solve(linalg.lu_factor(M), b), 1e-14)

    @pytest.mark.parametrize("offset", [0.0, 1e-16], ids=["equal rows", "rows 1e-16 apart"])
    def test_singular_model_fails(self, offset):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((self.N, self.N))
        M[9] = M[5] + offset * rng.standard_normal(self.N)
        with pytest.raises(LinearSolveFailure,
                           match="^model matrix is singular to working precision$"):
            solve_direct(M, np.ones(self.N))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_fails(self, bad):
        M = np.eye(self.N)
        M[3, 7] = bad
        with pytest.raises(LinearSolveFailure, match="^model matrix has non-finite entries$"):
            solve_direct(M, np.ones(self.N))

    def test_model_is_not_written(self, monkeypatch):
        for M in (_graded(self.N, 4, seed=18), np.asfortranarray(_graded(self.N, 4, seed=19))):
            before = M.tobytes()
            factors = lu_factor(M)
            assert factors.lu32 is not None and factors.M is M
            factors.solve(np.ones(self.N))
            factors.solve(np.ones((self.N, 2)))  # through getrf
            assert M.tobytes() == before
        monkeypatch.setattr(newton_condg.linsolve, "MIXED_MAX_STEPS", 0)
        lu_factor(M).solve(np.ones(self.N))  # through getrf, once refinement failed
        assert M.tobytes() == before

    @pytest.mark.parametrize("n", [1, 40, MIXED_MIN_N - 1])
    def test_below_the_crossover_is_getrf_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        factors = lu_factor(M)
        assert factors.lu32 is None and factors.lu64 is not None
        reference = linalg.lu_factor(M)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
            assert factors.solve(b).tobytes() == linalg.lu_solve(reference, b).tobytes()
        b = rng.standard_normal(n)
        out = solve_direct(M, b)
        assert out.s.tobytes() == linalg.lu_solve(reference, b).tobytes()

    def test_verify_mk_conditions_takes_getrf(self, monkeypatch):
        # a block of right-hand sides, F', makes no float32 solve
        rng = np.random.default_rng(21)
        M = rng.standard_normal((self.N, self.N)) + 2.0 * np.sqrt(self.N) * np.eye(self.N)
        J = M + 0.01 * rng.standard_normal(M.shape)
        solves = _counting_sgetrs(monkeypatch)
        check = verify_mk_conditions(M, J, TheoryParams(omega1=2.0, omega2=0.5))
        assert solves == []
        B = linalg.lu_solve(linalg.lu_factor(M), J)
        assert check.norm_inv_jac == spectral_norm(B)
        assert check.within_omega1 and check.within_omega2


def _counting(monkeypatch, name):
    """The calls of newton_condg.linsolve.<name>, recorded as their args[0]."""
    calls = []
    original = getattr(newton_condg.linsolve, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(newton_condg.linsolve, name, counted)
    return calls


def _broyden_pair(rng, M):
    """(s, y) of a secant step whose y departs from M s by a random change."""
    s = rng.standard_normal(M.shape[0])
    return s, M @ s + np.sqrt(M.shape[0]) * rng.standard_normal(M.shape[0])


class TestSecantSolve:
    """solve_direct's prev_step: a dense Broyden update solved with the kept
    float32 factors and one inverse-update term per secant step."""

    @pytest.mark.parametrize("n", [MIXED_MIN_N, 400])
    @pytest.mark.parametrize("updates", [1, 2, 3, 4])
    def test_chain_meets_the_stop_rule_without_sgetrf(self, monkeypatch, n, updates):
        rng = np.random.default_rng(n + updates)
        M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        factors = solve_direct(M, rng.standard_normal(n)).factors
        assert factors.lu32 is not None and factors.terms == ()
        sgetrf_calls = _counting(monkeypatch, "sgetrf")
        sgetrs_calls = _counting(monkeypatch, "sgetrs")
        for j in range(1, updates + 1):
            s, y = _broyden_pair(rng, M)
            M = schubert_update(M, s, y)
            b = rng.standard_normal(n)
            sgetrs_calls.clear()
            out = solve_direct(M, b, (factors, s, y))
            # z = P y, then the solve and the two corrections fresh factors take here
            assert len(sgetrs_calls) <= 4
            assert out.factors.M is M and out.factors.lu32 is factors.lu32
            assert len(out.factors.terms) == j
            assert _meets_stop_rule(M, out.s, b)
            assert out.eta_used == np.linalg.norm(M @ out.s - b) / np.linalg.norm(b)
            factors = out.factors
        assert sgetrf_calls == []
        fresh = solve_direct(M, b).s
        assert _normwise_close(out.s, fresh, 1e-10)

    def test_zero_denominator_takes_a_fresh_factorization(self, monkeypatch):
        # s^T M^-1 y = 0 makes the update singular: M+ (M^-1 y - s) = 0
        n = MIXED_MIN_N
        rng = np.random.default_rng(30)
        M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        factors = lu_factor(M)
        s, w = rng.standard_normal(n), rng.standard_normal(n)
        w -= (s @ w) / (s @ s) * s  # s^T w = 0
        y = M @ w
        assert factors.secant_successor(schubert_update(M, s, y), s, y) is None
        factored = _counting(monkeypatch, "lu_factor")
        updated = schubert_update(M, s, y)
        with pytest.raises(LinearSolveFailure, match="^model matrix is singular"):
            solve_direct(updated, np.ones(n), (factors, s, y))
        assert len(factored) == 1 and factored[0] is updated

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update_fails(self, bad):
        n = MIXED_MIN_N
        rng = np.random.default_rng(31)
        M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        factors = lu_factor(M)
        s, y = _broyden_pair(rng, M)
        updated = schubert_update(M, s, y)
        updated[3, 7] = bad
        with pytest.raises(LinearSolveFailure, match="^model matrix has non-finite entries$"):
            solve_direct(updated, np.ones(n), (factors, s, y))

    def test_getrf_factors_take_a_fresh_factorization(self, monkeypatch):
        # below MIXED_MIN_N there are no float32 factors to update
        n = MIXED_MIN_N - 1
        rng = np.random.default_rng(32)
        M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        factors = lu_factor(M)
        s, y = _broyden_pair(rng, M)
        updated = schubert_update(M, s, y)
        factored = _counting(monkeypatch, "lu_factor")
        b = rng.standard_normal(n)
        out = solve_direct(updated, b, (factors, s, y))
        assert len(factored) == 1 and factored[0] is updated and out.factors.terms == ()
        assert out.s.tobytes() == solve_direct(updated, b).s.tobytes()

    @pytest.mark.parametrize("kind", ["band", "getrf", "unconverged"])
    def test_factors_without_float32_ones_give_a_fresh_solve(self, monkeypatch, kind):
        # prev_step takes the factors of any kernel; band factors, getrf-only
        # ones and those whose refinement failed leave the update to lu_factor
        rng = np.random.default_rng(33)
        if kind == "band":
            p = make_problem("pb3_troesch", 500)
            x = starting_point(p, 1)
            M0 = next_jacobian(None, 0, p, x, "exact").M
            s = 1e-3 * rng.standard_normal(p.n)
            y = p.fun(x + s) - p.fun(x)
            M = schubert_update(M0, s, y, p.pattern)
            previous = lu_factor(M0)
            assert isinstance(previous, _TridiagonalLU)
        else:
            if kind == "getrf":
                n = MIXED_MIN_N - 1
                M0 = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
                previous = lu_factor(M0)
            else:  # as in TestMixedLU.test_unconverged_refinement_takes_getrf
                monkeypatch.setattr(newton_condg.linsolve, "MIXED_MAX_STEPS", 1)
                M0 = _graded(TestMixedLU.N, 6, seed=15)
                previous = lu_factor(M0)
                assert previous.refine(rng.standard_normal(TestMixedLU.N))[1] is None
            assert isinstance(previous, _DenseLU) and previous.lu32 is None
            s, y = _broyden_pair(rng, M0)
            M = schubert_update(M0, s, y)
        b = rng.standard_normal(M.shape[0])
        factored = _counting(monkeypatch, "lu_factor")
        out = solve_direct(M, b, (previous, s, y))
        fresh = solve_direct(M, b)
        assert len(factored) == 2 and all(A is M for A in factored)
        assert type(out.factors) is type(previous)
        assert out.s.tobytes() == fresh.s.tobytes()
        assert out.eta_used == fresh.eta_used


def _non_square(kind, n):
    """A well-scaled model of n rows with one column too few or too many:
    dense, or CSR (a band or an arrowhead)."""
    rng = np.random.default_rng(n)
    if kind == "csr band":  # (n, n + 1): gttrf's band would not fit it
        return sparse.csr_array(_random_band(rng, n + 1, 1, 1)[:n])
    if kind == "csr arrowhead":  # (n, n - 1)
        return sparse.csr_array(_arrowhead(n)[:, :-1])
    cols = n + 1 if kind == "dense wide" else n - 1
    return rng.standard_normal((n, cols)) + 4.0 * np.eye(n, cols)


NON_SQUARE = [("dense tall", 3), ("dense tall", 40), ("dense tall", MIXED_MIN_N),
              ("dense wide", 40), ("dense wide", 300), ("csr band", 20),
              ("csr arrowhead", 20)]


@pytest.mark.parametrize("kind, n", NON_SQUARE)
@pytest.mark.parametrize("solve_with", ["lu_factor", "direct", "inexact", "inexact eta 0"])
def test_non_square_model_fails_every_solve_alike(kind, n, solve_with):
    M, b = _non_square(kind, n), np.ones(n)
    call = {"lu_factor": lambda: lu_factor(M), "direct": lambda: solve_direct(M, b),
            "inexact": lambda: solve_inexact(M, b, 0.5),
            "inexact eta 0": lambda: solve_inexact(M, b, 0.0)}[solve_with]
    with pytest.raises(LinearSolveFailure, match="^model matrix is not square$"):
        call()


@pytest.mark.parametrize("kind", ["dense tall", "dense wide"])
def test_non_square_secant_model_fails_before_its_factors_are_read(kind):
    # float32 factors of a square model, offered for a model of another shape
    n = MIXED_MIN_N + 10
    rng = np.random.default_rng(34)
    M0 = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    previous = lu_factor(M0)
    assert previous.lu32 is not None
    s, y = _broyden_pair(rng, M0)
    with pytest.raises(LinearSolveFailure, match="^model matrix is not square$"):
        solve_direct(_non_square(kind, n), np.ones(n), (previous, s, y))


def _kernel_case(kind, monkeypatch):
    """The outcome of one step that kind names."""
    rng = np.random.default_rng(40)
    n = MIXED_MIN_N
    M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    b = rng.standard_normal(n)
    if kind == "getrf":
        return solve_direct(M[:40, :40], b[:40])
    if kind == "sgetrf":
        return solve_direct(M, b)
    if kind == "secant":
        s, y = _broyden_pair(rng, M)
        return solve_direct(schubert_update(M, s, y), b, (solve_direct(M, b).factors, s, y))
    if kind == "refinement failed":  # as in TestMixedLU.test_unconverged_refinement_takes_getrf
        monkeypatch.setattr(newton_condg.linsolve, "MIXED_MAX_STEPS", 1)
        M = _graded(TestMixedLU.N, 6, seed=15)
        assert lu_factor(M).lu32 is not None  # kept until refinement fails
        return solve_direct(M, rng.standard_normal(TestMixedLU.N))
    if kind == "gttrf":
        return solve_direct(_diagonals(rng, 40, [-1, 0, 1]).toarray(), b[:40])
    if kind == "superlu":
        return solve_direct(_diagonals(rng, 40, [-2, -1, 0, 1, 2]), b[:40])
    return solve_inexact(M, b, 0.5)  # dense: plain GMRES meets it


@pytest.mark.parametrize("kind, kernel", [
    ("getrf", "getrf"), ("sgetrf", "sgetrf"), ("secant", "secant"),
    ("refinement failed", "getrf"), ("gttrf", "gttrf"), ("superlu", "superlu"),
    ("gmres", "gmres"),
])
def test_outcome_names_the_kernel_that_solved_it(monkeypatch, kind, kernel):
    out = _kernel_case(kind, monkeypatch)
    assert out.kernel == kernel
    assert (out.factors is None) == (kernel == "gmres")


def _arrowhead(n):
    A = np.diag(np.full(n, 4.0))
    A[0, :] = A[:, 0] = 1.0
    A[0, 0] = 4.0
    return A


def _pattern_model(A):
    """A model of A built as finite differences build one: from its canonical pattern."""
    return canonical_pattern(sparse.csr_array(A != 0)).model(sparse.csr_array(A).data.copy())


def _plain(M):
    """A scipy-built copy of M that carries no pattern."""
    return sparse.csr_array((M.data.copy(), M.indices.copy(), M.indptr.copy()), shape=M.shape)


def _patterns_derived(monkeypatch):
    """Every _Pattern whose structure is analysed from now on, in order."""
    patterns = []
    original = _Pattern._derive

    def counted(self):
        patterns.append(self)
        return original(self)

    monkeypatch.setattr(_Pattern, "_derive", counted)
    return patterns


class TestModelPattern:
    """A model built from a canonical pattern factorizes with that pattern's
    analysis, and exactly as a plain CSR copy of it does."""

    @pytest.mark.parametrize(
        "A, kind",
        [(_random_band(np.random.default_rng(3), 40, 1, 1).toarray(), _TridiagonalLU),
         (_arrowhead(20), _SparseLU)],
        ids=["tridiagonal", "arrowhead"],
    )
    def test_cached_pattern_gives_the_same_bits(self, monkeypatch, A, kind):
        M = _pattern_model(A)
        derived = _patterns_derived(monkeypatch)
        cached = lu_factor(M)
        assert derived == []  # read from the model
        plain = lu_factor(_plain(M))
        assert len(derived) == 1  # derived for the copy
        assert type(cached) is type(plain) is kind
        b = np.random.default_rng(4).standard_normal((A.shape[0], 2))
        for rhs in (b[:, 0], b):
            assert cached.solve(rhs).tobytes() == plain.solve(rhs).tobytes()
        np.testing.assert_allclose(cached.solve(b), np.linalg.solve(A, b), rtol=1e-12)

    @pytest.mark.parametrize("A", [_random_band(np.random.default_rng(5), 12, 1, 1).toarray(),
                                   _arrowhead(12)], ids=["tridiagonal", "arrowhead"])
    def test_failures_are_the_same_either_way(self, A):
        cases = []
        for bad in (np.nan, np.inf, -np.inf):
            M = _pattern_model(A)
            M.data[3] = bad
            cases.append(M)
        M = _pattern_model(A)
        M.data[:] = 0.0
        cases.append(M)
        M = _pattern_model(A)
        M.data[M.indptr[1]:M.indptr[2]] = 0.0  # a stored zero row
        cases.append(M)
        messages = []
        for M in cases:
            with pytest.raises(LinearSolveFailure) as cached:
                lu_factor(M)
            with pytest.raises(LinearSolveFailure) as plain:
                lu_factor(_plain(M))
            assert str(cached.value) == str(plain.value)
            messages.append(str(cached.value))
        assert messages[:3] == ["model matrix has non-finite entries"] * 3
        assert messages[3] == "model matrix is zero"
        assert "singular" in messages[4]

    def test_a_model_with_other_indices_is_analysed_afresh(self, monkeypatch):
        n = 8
        M = _pattern_model(_random_band(np.random.default_rng(6), n, 1, 1).toarray())
        derived = _patterns_derived(monkeypatch)
        equal = copy.copy(M)
        equal.indices = M.indices.copy()  # the same structure in another array
        lu_factor(equal)
        assert len(derived) == 1
        # a stale pattern would place row 1's entries in the wrong diagonals
        moved = copy.copy(M)
        moved.indices = M.indices.copy()
        moved.indices[M.indptr[1]:M.indptr[2]] = [1, 2, 3]
        b = np.arange(1.0, n + 1.0)
        x = lu_factor(moved).solve(b)
        assert len(derived) == 2
        np.testing.assert_allclose(x, np.linalg.solve(_plain(moved).toarray(), b), rtol=1e-12)

    def test_a_foreign_matrix_gets_a_canonical_pattern_of_its_own(self):
        M = sparse.csr_array(_arrowhead(6))
        M.data[1] = 0.0  # an explicit zero, kept in the structure
        A = as_model(M)
        P = A._pattern
        assert P.nnz == M.nnz and P[0, 1]
        for mine, theirs in ((P.data, M.data), (P.indices, M.indices), (P.indptr, M.indptr)):
            assert not mine.flags.writeable
            assert not np.shares_memory(mine, theirs)
        assert canonical_pattern(P) is P
        M.indices[0] = 2  # the caller's arrays stay the caller's
        assert P.indices[0] == 0
        expected = _arrowhead(6)
        expected[0, 1] = 0.0
        np.testing.assert_array_equal(A.toarray(), expected)

    def test_a_pattern_made_by_hand_is_derived(self, monkeypatch):
        P = canonical_pattern(sparse.csr_array(_random_band(np.random.default_rng(7), 9, 1, 1)))
        by_hand = _Pattern((P.data, P.indices, P.indptr), shape=P.shape)
        derived = _patterns_derived(monkeypatch)
        Q = canonical_pattern(by_hand)
        assert len(derived) == 1 and Q.tridiagonal
        assert canonical_pattern(Q) is Q and len(derived) == 1
        A = Q.model(np.arange(1.0, Q.nnz + 1.0) + 10.0 * (Q.rows == Q.indices))
        assert lu_factor(A).kernel == "gttrf"

    def test_models_own_their_data(self):
        P = canonical_pattern(sparse.csr_array(_arrowhead(6) != 0))
        first = P.model(np.ones(P.rows.size))
        second = P.model(np.full(P.rows.size, 2.0))
        first.data[0] = 7.0
        assert first[0, 0] == 7.0 and second[0, 0] == 2.0
        assert not P.template.data.any() and not P.template.data.flags.writeable
        assert first.indices is second.indices is P.template.indices is P.indices
        assert first.indptr is second.indptr is P.template.indptr is P.indptr
        assert first._pattern is second._pattern is P


class TestCheckedScale:
    NON_FINITE = "model matrix has non-finite entries"

    @pytest.mark.parametrize("where", [0, 4, 8])  # first, in the middle, last
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_anywhere(self, where, bad):
        A = np.arange(1.0, 10.0).reshape(3, 3) - 5.0
        A.flat[where] = bad
        with pytest.raises(LinearSolveFailure, match=f"^{self.NON_FINITE}$"):
            _checked_scale(A)
        with pytest.raises(LinearSolveFailure, match=f"^{self.NON_FINITE}$"):
            lu_factor(A)
        with pytest.raises(LinearSolveFailure, match=f"^{self.NON_FINITE}$"):
            lu_factor(sparse.csr_array(A))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_matrix(self, zero):
        A = np.full((3, 3), zero)
        for values in (A, A[:0]):
            with pytest.raises(LinearSolveFailure, match="^model matrix is zero$"):
                _checked_scale(values)
        with pytest.raises(LinearSolveFailure, match="^model matrix is zero$"):
            lu_factor(A)

    def test_is_the_max_abs_entry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            A = rng.standard_normal((5, 5)) * 10.0 ** rng.uniform(-5, 5)
            A[rng.random((5, 5)) < 0.3] = -0.0
            assert _checked_scale(A) == np.abs(A).max()
        assert _checked_scale(np.array([-3.0, -0.0, 2.0])) == 3.0
        assert _checked_scale(np.array([-0.0, 2.0])) == 2.0


class TestForcingEta:
    def test_constant(self):
        pol = ConstantEta(0.0)
        assert forcing_eta(5.0, pol) == 0.0

    def test_adaptive_min_rule(self):
        pol = AdaptiveEta(c=1.0, eta_max=0.1)
        assert forcing_eta(0.05, pol) == pytest.approx(0.05)

    def test_adaptive_cap(self):
        pol = AdaptiveEta(c=1.0, eta_max=0.1)
        assert forcing_eta(10.0, pol) == pytest.approx(0.1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ConstantEta(1.0)
        with pytest.raises(ValueError):
            AdaptiveEta(eta_max=1.0)
        with pytest.raises(TypeError):
            forcing_eta(1.0, policy="bogus")


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        A = rng.standard_normal((n, n))
        np.testing.assert_allclose(
            spectral_norm(A), np.linalg.norm(A, 2), rtol=1e-6, atol=1e-10
        )
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_mk_check_reads_the_exact_norm():
    # a power iteration read ||M^{-1} F'|| = 1.000198 on this model and so
    # passed omega1 = 1.00025; the norm is 1.000298
    p = make_problem("pb1_h_equation", 100)
    x0 = starting_point(p, 3)
    M = next_jacobian(None, 0, p, x0, "finite_difference").M
    check = verify_mk_conditions(M, p.jac(x0), TheoryParams(omega1=1.00025))
    sigma = np.linalg.svd(np.linalg.solve(M, p.jac(x0)), compute_uv=False)[0]
    assert check.norm_inv_jac == pytest.approx(sigma, rel=1e-12)
    assert check.norm_inv_jac > 1.00029 and not check.within_omega1
    assert spectral_norm(sparse.csr_array(M)) == spectral_norm(M)
