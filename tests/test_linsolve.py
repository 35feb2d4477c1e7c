import numpy as np
import pytest
from scipy.sparse.linalg import gmres

from newton_condg import (
    AdaptiveEta,
    ConstantEta,
    LinearSolveFailure,
    forcing_eta,
    solve_direct,
    solve_inexact,
    spectral_norm,
)


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
