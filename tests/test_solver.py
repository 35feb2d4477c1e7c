import dataclasses

import numpy as np
import pytest

from newton_condg import (
    Box,
    Problem,
    SolverConfig,
    TheoryParams,
    condg_epsilon,
    make_problem,
    solve,
    starting_point,
    verify_mk_conditions,
)
from newton_condg.linsolve import LinearSolveFailure

from oracles import scalar_newton_iterates


def _scalar_problem(fun, dfun, lower, upper):
    return Problem(
        name="scalar", n=1,
        fun=lambda x: np.array([fun(x[0])]),
        jac=lambda x: np.array([[dfun(x[0])]]),
        feasible_set=Box([lower], [upper]),
    )


class TestCondGEpsilon:
    def test_values(self):
        assert condg_epsilon(1e-5, np.array([1.0])) == pytest.approx(1e-5)
        assert condg_epsilon(0.0, np.array([3.0, 4.0])) == 0.0
        assert condg_epsilon(0.005, np.array([3.0, 4.0])) == pytest.approx(0.125)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            condg_epsilon(-1.0, np.ones(2))

    def test_nan_theta_rejected(self):
        with pytest.raises(ValueError):
            condg_epsilon(float("nan"), np.ones(3))


class TestSolve:
    def test_start_at_root_stops_immediately(self):
        p = make_problem("synthetic_quadratic", 6)
        report = solve(p, p.known_root, SolverConfig(jacobian_strategy="exact"))
        assert report.status == "converged"
        assert report.iterations == 0
        assert report.residual_norms[-1] <= 1e-10
        assert report.condg_iters == [] and report.newton_steps == []

    def test_interior_run_matches_unconstrained_newton(self):
        # independent oracle: the scalar Newton recursion for x^2 - 1 on [0, 2]
        p = _scalar_problem(lambda x: x * x - 1.0, lambda x: 2.0 * x, 0.0, 2.0)
        cfg = SolverConfig(jacobian_strategy="exact", theta=0.0)
        report = solve(p, np.array([1.5]), cfg)
        assert report.status == "converged"
        assert report.iterations <= 5
        expected = scalar_newton_iterates(
            1.5, lambda x: x * x - 1.0, lambda x: 2.0 * x, report.iterations
        )
        np.testing.assert_allclose(
            [it[0] for it in report.iterates], expected, rtol=1e-14
        )
        assert expected[1] == pytest.approx(1.5 - 1.25 / 3.0)

    def test_feasibility_of_all_iterates(self):
        for pid, gamma in (("synthetic_quadratic", 1), ("pb3_troesch", 1)):
            p = make_problem(pid, 40 if pid == "pb3_troesch" else 10)
            report = solve(p, starting_point(p, gamma))
            assert report.status == "converged"
            for it in report.iterates:
                assert p.feasible_set.contains(it, 1e-12)
            assert len(report.residual_norms) == len(report.iterates)

    def test_infeasible_start_is_projected_and_recorded(self):
        p = make_problem("synthetic_quadratic", 5)
        report = solve(p, np.full(5, 9.0), SolverConfig(jacobian_strategy="exact"))
        assert report.x0_projected
        assert report.status == "converged"
        np.testing.assert_allclose(report.iterates[0], np.full(5, 2.0), atol=1e-12)

    def test_max_iterations_status(self):
        p = _scalar_problem(lambda x: x * x - 1.0, lambda x: 2.0 * x, 0.0, 2.0)
        cfg = SolverConfig(jacobian_strategy="exact", max_outer=1, tol_inf=1e-12)
        report = solve(p, np.array([1.9]), cfg)
        assert report.status == "max_iterations"
        assert report.iterations == 1

    def test_no_progress_on_rootless_problem(self):
        # F(x) = x^2 + 1 never vanishes; iterates pin to the lower bound
        p = _scalar_problem(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.5, 2.0)
        report = solve(p, np.array([1.0]), SolverConfig(jacobian_strategy="exact"))
        assert report.status == "no_progress"
        assert report.iterations <= 30

    def test_no_progress_on_vanishing_step(self):
        # triple root: steps shrink geometrically while the residual is cubed;
        # with an unreachable tolerance the step-floor rule must fire
        p = _scalar_problem(lambda x: (x - 5.0) ** 3, lambda x: 3 * (x - 5.0) ** 2, 0.0, 10.0)
        cfg = SolverConfig(jacobian_strategy="exact", tol_inf=1e-300, theta=0.0)
        report = solve(p, np.array([6.0]), cfg)
        assert report.status == "no_progress"

    def test_linear_solve_failure_status(self):
        p = _scalar_problem(lambda x: x * x, lambda x: 0.0, -1.0, 1.0)  # wrong jac
        report = solve(p, np.array([0.5]), SolverConfig(jacobian_strategy="exact"))
        assert report.status == "linear_solve_failure"

    def test_inexact_mode_converges(self):
        p = make_problem("synthetic_quadratic", 8)
        cfg = SolverConfig(jacobian_strategy="exact", linsolve="inexact")
        report = solve(p, starting_point(p, 1), cfg)
        assert report.status == "converged"
        assert report.residual_norms[-1] <= cfg.tol_inf

    def test_theory_params_validated_when_supplied(self):
        p = make_problem("synthetic_quadratic", 4)
        tp = TheoryParams(omega1=1.0, lam=0.0)
        with pytest.raises(ValueError, match="theta"):
            solve(p, starting_point(p, 1), SolverConfig(theta=1e-5), theory=tp)

    def test_deterministic_replay(self):
        p = make_problem("pb2_discrete_boundary", 60)
        x0 = starting_point(p, 1)
        r1 = solve(p, x0)
        r2 = solve(p, x0)
        assert r1.status == r2.status
        assert r1.residual_norms == r2.residual_norms
        for a, b in zip(r1.iterates, r2.iterates):
            assert np.array_equal(a, b)

    def test_monotone_error_decrease_near_root(self):
        rng = np.random.default_rng(13)
        p = make_problem("synthetic_quadratic", 10)
        cfg = SolverConfig(jacobian_strategy="exact", theta=0.0)
        for _ in range(10):
            x0 = p.known_root + rng.uniform(-0.05, 0.05, 10)
            report = solve(p, x0, cfg)
            assert report.status == "converged"
            errs = [np.linalg.norm(it - p.known_root) for it in report.iterates]
            assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("strategy", ["finite_difference", "schubert"])
@pytest.mark.parametrize("pid, n", [("pb1_h_equation", 100), ("pb4_discrete_integral", 200)])
def test_vectorized_fd_keeps_every_history_bit_for_bit(pid, n, strategy):
    p = make_problem(pid, n)
    assert p.vectorized
    cfg = SolverConfig(jacobian_strategy=strategy)
    for gamma in (1, 3):
        x0 = starting_point(p, gamma)
        batched = solve(p, x0, cfg)
        per_point = solve(dataclasses.replace(p, vectorized=False), x0, cfg)
        assert batched.status == per_point.status
        assert batched.residual_norms == per_point.residual_norms
        assert len(batched.iterates) == len(per_point.iterates)
        for a, b in zip(batched.iterates, per_point.iterates):
            assert a.tobytes() == b.tobytes()


class TestVerifyMkConditions:
    def test_exact_jacobian_is_the_newton_case(self):
        J = np.array([[2.0, 0.3], [0.1, 1.5]])
        check = verify_mk_conditions(J, J, TheoryParams(omega1=1.0, omega2=0.0))
        assert check.norm_inv_jac == pytest.approx(1.0, abs=1e-7)
        assert check.norm_inv_jac_minus_identity == pytest.approx(0.0, abs=1e-7)
        assert check.within_omega1 and check.within_omega2

    def test_scaled_jacobian(self):
        J = np.diag([3.0, 1.0])
        check = verify_mk_conditions(2.0 * J, J, TheoryParams(omega1=0.6, omega2=0.5))
        assert check.norm_inv_jac == pytest.approx(0.5, abs=1e-7)
        assert check.norm_inv_jac_minus_identity == pytest.approx(0.5, abs=1e-7)

    def test_perturbed_jacobian_neumann_bound(self):
        rng = np.random.default_rng(3)
        J = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        E = 0.01 * rng.standard_normal((4, 4))
        M = J @ (np.eye(4) + E)
        check = verify_mk_conditions(M, J, TheoryParams(omega1=1.1, omega2=0.1))
        norm_e = np.linalg.norm(E, 2)
        assert check.norm_inv_jac <= 1.0 / (1.0 - norm_e) + 1e-7
        assert check.norm_inv_jac_minus_identity <= norm_e / (1.0 - norm_e) + 1e-7

    def test_singular_model_rejected(self):
        with pytest.raises(LinearSolveFailure):
            verify_mk_conditions(np.zeros((2, 2)), np.eye(2), TheoryParams(omega1=1.0))
