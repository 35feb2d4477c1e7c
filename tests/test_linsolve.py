import copy

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.sparse.linalg import gmres, splu

from newton_condg import (
    AdaptiveEta,
    ConstantEta,
    LinearSolveFailure,
    forcing_eta,
    solve_direct,
    solve_inexact,
    spectral_norm,
)
from newton_condg.jacobian import _layout
from newton_condg.linsolve import _BandLU, _FactorPlan, _SparseLU, _checked_scale, lu_factor


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

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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

    def test_dense_model_runs_plain_gmres(self):
        # no preconditioner on a dense M: the step is scipy's own GMRES step
        rng = np.random.default_rng(5)
        for n in (3, 40, 150):
            M = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
            b = rng.standard_normal(n)
            for eta in (0.5, 0.1, 1e-6):
                plain, _info = gmres(M, b, rtol=eta, atol=0.0, restart=min(n, 100), maxiter=50)
                assert np.linalg.norm(M @ plain - b) <= eta * np.linalg.norm(b)
                np.testing.assert_array_equal(solve_inexact(M, b, eta).s, plain)


class TestBandLU:
    @pytest.mark.parametrize(
        "n, kl, ku",
        [(1, 0, 0), (9, 0, 0), (40, 1, 1), (40, 2, 5), (40, 4, 1), (25, 0, 3), (25, 3, 0)],
    )
    def test_matches_superlu_and_dense_lapack(self, n, kl, ku):
        rng = np.random.default_rng(1000 * n + 10 * kl + ku)
        M = _random_band(rng, n, kl, ku)
        band = lu_factor(M)
        assert isinstance(band, _BandLU)
        dense = linalg.lu_factor(M.toarray())
        superlu = splu(sparse.csc_array(M))
        # the same partial pivoting: row kl + ku of the band factors is U's diagonal
        np.testing.assert_allclose(band.pivots, np.diag(dense[0]), rtol=1e-9)
        cond = np.linalg.cond(M.toarray())
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = band.solve(b)
            assert x.shape == b.shape
            for reference in (linalg.lu_solve(dense, b), superlu.solve(b)):
                err = np.linalg.norm(x - reference)
                assert err <= 1e-13 * cond * np.linalg.norm(reference)

    def test_exactly_singular_band_model_fails(self):
        # two equal rows: gbtrf meets an exactly zero pivot (info > 0)
        M = sparse.csr_array(np.ones((2, 2)))
        with pytest.raises(LinearSolveFailure, match="^model matrix is singular$"):
            lu_factor(M)

    def test_pivot_below_the_relative_floor_fails(self):
        # the second pivot is (1 + 1e-15) - 1, about 1.1e-15 < PIVOT_RTOL * 1
        M = sparse.csr_array(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
        with pytest.raises(LinearSolveFailure, match="working precision"):
            lu_factor(M)

    def test_wide_pattern_goes_to_superlu(self):
        n = 20
        A = np.diag(np.full(n, 4.0))
        A[0, :] = A[:, 0] = 1.0  # arrowhead: band storage (3n - 2) * n, 3n - 2 entries
        A[0, 0] = 4.0
        M = sparse.csr_array(A)
        factors = lu_factor(M)
        assert isinstance(factors, _SparseLU)
        b = np.arange(1.0, n + 1.0)
        np.testing.assert_allclose(factors.solve(b), np.linalg.solve(A, b), rtol=1e-12)

    def test_duplicates_are_summed_without_touching_the_input(self):
        data, indices = np.array([1.0, 2.0, 3.0, 5.0]), np.array([1, 0, 0, 1])
        M = sparse.csr_array((data, indices, [0, 3, 4]), shape=(2, 2))  # [[5, 1], [0, 5]]
        x = lu_factor(M).solve(np.array([6.0, 5.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-15)
        np.testing.assert_array_equal(M.indices, [1, 0, 0, 1])
        np.testing.assert_array_equal(M.data, [1.0, 2.0, 3.0, 5.0])


def _arrowhead(n):
    A = np.diag(np.full(n, 4.0))
    A[0, :] = A[:, 0] = 1.0
    A[0, 0] = 4.0
    return A


def _layout_model(A):
    """A model of A built as finite differences build one: from its pattern's layout."""
    layout = _layout(sparse.csr_array(A != 0))
    return layout.model(sparse.csr_array(A).data.copy())


def _plain(M):
    """A scipy-built copy of M that carries no factorization plan."""
    return sparse.csr_array((M.data.copy(), M.indices.copy(), M.indptr.copy()), shape=M.shape)


def _plans_derived(monkeypatch):
    plans = []
    original = _FactorPlan.__init__

    def counted(self, *args):
        plans.append(self)
        original(self, *args)

    monkeypatch.setattr(_FactorPlan, "__init__", counted)
    return plans


class TestFactorPlan:
    """A model built from a pattern's layout factorizes with the cached plan,
    and exactly as a plain CSR copy of it does."""

    @pytest.mark.parametrize(
        "A, kind",
        [(_random_band(np.random.default_rng(3), 40, 1, 1).toarray(), _BandLU),
         (_arrowhead(20), _SparseLU)],
        ids=["tridiagonal", "arrowhead"],
    )
    def test_cached_plan_gives_the_same_bits(self, monkeypatch, A, kind):
        M = _layout_model(A)
        plans = _plans_derived(monkeypatch)
        cached = lu_factor(M)
        assert plans == []  # read from the model
        plain = lu_factor(_plain(M))
        assert len(plans) == 1  # derived for the copy
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
            M = _layout_model(A)
            M.data[3] = bad
            cases.append(M)
        M = _layout_model(A)
        M.data[:] = 0.0
        cases.append(M)
        M = _layout_model(A)
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
        M = _layout_model(_random_band(np.random.default_rng(6), n, 1, 1).toarray())
        plans = _plans_derived(monkeypatch)
        equal = copy.copy(M)
        equal.indices = M.indices.copy()  # the same structure in another array
        lu_factor(equal)
        assert len(plans) == 1
        # a stale plan would place row 1's entries in the wrong diagonals
        moved = copy.copy(M)
        moved.indices = M.indices.copy()
        moved.indices[M.indptr[1]:M.indptr[2]] = [1, 2, 3]
        b = np.arange(1.0, n + 1.0)
        x = lu_factor(moved).solve(b)
        assert len(plans) == 2
        np.testing.assert_allclose(x, np.linalg.solve(_plain(moved).toarray(), b), rtol=1e-12)

    def test_models_own_their_data(self):
        layout = _layout(sparse.csr_array(_arrowhead(6) != 0))
        first = layout.model(np.ones(layout.plan.rows.size))
        second = layout.model(np.full(layout.plan.rows.size, 2.0))
        first.data[0] = 7.0
        assert first[0, 0] == 7.0 and second[0, 0] == 2.0
        assert not layout.template.data.any()
        assert first.indices is second.indices is layout.template.indices


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
