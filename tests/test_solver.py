import dataclasses
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse

from newton_condg import (
    Box,
    EuclideanBall,
    Problem,
    Simplex,
    SolverConfig,
    TheoryParams,
    make_problem,
    solve,
    starting_point,
    verify_mk_conditions,
)
from newton_condg import linsolve, solver
from newton_condg.jacobian import model_kind
from newton_condg import AdaptiveEta, ConstantEta, LinearSolveFailure, forcing_eta

from oracles import LmoOnly, scalar_newton_iterates


def _scalar_problem(fun, dfun, lower, upper):
    return Problem(
        name="scalar", n=1,
        fun=lambda x: np.array([fun(x[0])]),
        jac=lambda x: np.array([[dfun(x[0])]]),
        feasible_set=Box([lower], [upper]),
    )


@pytest.mark.parametrize("theta", [1e-5, 0.0])
def test_condg_tolerance_is_theta_times_the_squared_step(monkeypatch, theta):
    real, eps = solver.condg, []

    def spy(fset, y, x, epsilon, cap):
        eps.append(epsilon)
        return real(fset, y, x, epsilon, cap)

    monkeypatch.setattr(solver, "condg", spy)
    p = make_problem("pb3_troesch", 40)
    report = solve(p, starting_point(p, 1), SolverConfig(theta=theta))
    assert report.status == "converged" and not report.x0_projected
    assert len(eps) == len(report.steps) > 0
    for epsilon, step in zip(eps, report.steps):
        assert epsilon == pytest.approx(theta * step.step_norm ** 2, rel=1e-12)


class TestSolve:
    def test_start_at_root_stops_immediately(self):
        p = make_problem("synthetic_quadratic", 6)
        report = solve(p, p.known_root, SolverConfig(jacobian_strategy="exact"))
        assert report.status == "converged"
        assert report.iterations == 0
        assert report.residual_norms[-1] <= 1e-10
        assert report.steps == []

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

    @pytest.mark.parametrize(
        "n, singular",
        [(4, "ones"), (linsolve.MIXED_MIN_N, "zero column"), (400, "zero column")],
    )
    def test_exactly_singular_model_fails_without_a_warning(self, n, singular):
        # an exactly zero pivot: getrf's below MIXED_MIN_N, above it sgetrf's
        # first and then getrf's; solve reports it under any warning filter
        def jac(x):
            if singular == "ones":
                return np.ones((n, n))
            J = np.diag(2.0 * x)
            J[:, 0] = 0.0
            return J

        p = Problem(
            name="singular", n=n, fun=lambda x: x * x - 1.0, jac=jac,
            feasible_set=Box(np.zeros(n), np.full(n, 2.0)),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            report = solve(p, np.full(n, 0.5), SolverConfig(jacobian_strategy="exact"))
        assert report.status == "linear_solve_failure"
        assert report.steps == []
        assert caught == []

    @pytest.mark.parametrize("linsolve", ["direct", "inexact"])
    @pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
    @pytest.mark.parametrize("x0, history", [(1.8, [2.24]), (1.0, [])], ids=["at x1", "at x0"])
    def test_non_finite_residual_is_a_linear_solve_failure(self, strategy, linsolve, x0,
                                                           history):
        # F is nan below 1.2: from 1.8 the first step lands there, from 1.0
        # the start does; the exact Jacobian stays finite either way
        n = 4
        p = Problem(
            name="nan_below", n=n, fun=lambda x: np.where(x < 1.2, np.nan, x * x - 1.0),
            jac=lambda x: np.diag(2.0 * x), feasible_set=Box(np.zeros(n), np.full(n, 2.0)),
        )
        cfg = SolverConfig(jacobian_strategy=strategy, linsolve=linsolve)
        report = solve(p, np.full(n, x0), cfg)
        assert report.status == "linear_solve_failure"
        assert report.residual_norms[:-1] == pytest.approx(history)
        assert np.isnan(report.residual_norms[-1])

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("linsolve", ["direct", "inexact"])
    @pytest.mark.parametrize("fset", [
        Box(np.zeros(3), np.ones(3)), EuclideanBall(np.zeros(3), 1.0), Simplex(3, scale=0.6),
    ], ids=["box", "ball", "simplex"])
    def test_overflowing_step_is_a_linear_solve_failure(self, fset, linsolve, action):
        # F = 1e308 is finite, but ||F||_2 and the step -F / 0.5 overflow:
        # a status, not condg's "eps must be >= 0" or an overflow warning
        p = Problem(name="overflow", n=3, fun=lambda x: np.full(3, 1e308),
                    jac=lambda x: 0.5 * np.eye(3), feasible_set=fset)
        cfg = SolverConfig(jacobian_strategy="exact", linsolve=linsolve)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            report = solve(p, np.full(3, 0.2), cfg)
        assert report.status == "linear_solve_failure"
        assert report.steps == [] and report.residual_norms == [1e308]

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("linsolve", ["direct", "inexact"])
    def test_overflowing_refinement_is_a_linear_solve_failure(self, linsolve, action):
        # n = 300 takes the refined sgetrf step, whose stop test overflows to
        # inf with no warning, so the run ends as it does under any filter
        n = 300
        A = 0.5 * np.eye(n) + 0.01
        p = Problem(name="overflow", n=n, fun=lambda x: A @ x + 1e308, jac=lambda x: A,
                    feasible_set=Box(np.zeros(n), np.ones(n)))
        cfg = SolverConfig(jacobian_strategy="exact", linsolve=linsolve)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            report = solve(p, np.full(n, 0.2), cfg)
        assert report.status == "linear_solve_failure"
        assert report.steps == []

    @pytest.mark.parametrize("linsolve", ["direct", "inexact"])
    @pytest.mark.parametrize("case", ["fd perturbs into inf", "exact without jac"])
    def test_unbuildable_model_is_a_linear_solve_failure(self, case, linsolve):
        # F is finite at x0 = 1 and inf beyond it, where finite differences
        # perturb; the exact strategy needs a jac the problem does not have
        n = 4
        if case == "fd perturbs into inf":
            fun, strategy = lambda x: np.where(x > 1.0, np.inf, x * x - 2.0), "finite_difference"
        else:
            fun, strategy = lambda x: x * x - 2.0, "exact"
        p = Problem(name="unbuildable", n=n, fun=fun,
                    feasible_set=Box(np.zeros(n), np.full(n, 2.0)))
        cfg = SolverConfig(jacobian_strategy=strategy, linsolve=linsolve)
        report = solve(p, np.ones(n), cfg)
        assert report.status == "linear_solve_failure"
        assert report.steps == [] and report.residual_norms == [1.0]

    @pytest.mark.parametrize("linsolve", ["direct", "inexact"])
    @pytest.mark.parametrize("n, shape", [(10, "tall"), (linsolve.MIXED_MIN_N, "tall"),
                                          (300, "wide"), (20, "csr wide")])
    def test_non_square_model_is_a_linear_solve_failure(self, n, shape, linsolve):
        # a jac of the wrong shape is an unusable model, reported, not raised
        def jac(x):
            if shape == "csr wide":
                return sparse.diags_array([2.0 * x, np.ones(n)], offsets=[0, 1],
                                          shape=(n, n + 1), format="csr")
            return np.eye(n, n - 1 if shape == "tall" else n + 1) * 2.0 * x[:, None]

        p = Problem(name="non_square", n=n, fun=lambda x: x * x - 1.0, jac=jac,
                    feasible_set=Box(np.zeros(n), np.full(n, 2.0)))
        cfg = SolverConfig(jacobian_strategy="exact", linsolve=linsolve)
        report = solve(p, np.full(n, 0.5), cfg)
        assert report.status == "linear_solve_failure"
        assert report.steps == [] and report.residual_norms == [0.75]

    @pytest.mark.parametrize("offset, projected", [(5e-7, False), (2e-6, True)])
    def test_start_is_feasible_up_to_condg_start_slack(self, offset, projected):
        # Box(0, inf) is capped at 1e6, where condg's start slack is
        # 1e-12 * 1e6 = 1e-6: a start within it is kept, one beyond it projected
        n = 3
        p = Problem(name="capped", n=n, fun=lambda x: x - 1.0, jac=lambda x: np.eye(n),
                    feasible_set=Box(np.zeros(n), np.full(n, np.inf)))
        x0 = np.full(n, 1e6 + offset)
        report = solve(p, x0, SolverConfig(jacobian_strategy="exact"))
        assert report.x0_projected == projected
        np.testing.assert_array_equal(report.iterates[0], np.full(n, 1e6) if projected else x0)
        assert report.status == "converged"

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

    @pytest.mark.parametrize("shape", [(3,), (4, 1), ()])
    def test_x0_of_the_wrong_shape_raises(self, shape):
        p = make_problem("synthetic_quadratic", 4)
        with pytest.raises(ValueError, match="^x0 must be an n-vector$"):
            solve(p, np.ones(shape))

    @pytest.mark.parametrize("fun", [
        lambda x: x[:-1] - 0.25,
        lambda x: (x - 0.25)[:, None],
        lambda x: np.float64(0.0),
        lambda x: x - 0.25 + 0j,
    ], ids=["short", "column", "scalar", "complex"])
    def test_residual_at_x0_that_is_not_a_real_n_vector_raises(self, fun):
        p = Problem(name="bad_residual", n=3, fun=fun,
                    feasible_set=Box(np.zeros(3), np.ones(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(ValueError, match=r"^fun\(x0\) must return a real n-vector$"):
                solve(p, np.full(3, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fset", [Box(np.zeros(3), np.ones(3)),
                                      EuclideanBall(np.zeros(3), 1.0), Simplex(3)],
                             ids=["box", "ball", "simplex"])
    def test_non_finite_x0_raises(self, fset, bad):
        p = Problem(name="shift", n=3, fun=lambda x: x - 0.25, feasible_set=fset)
        x0 = np.full(3, 0.25)
        x0[1] = bad
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            solve(p, x0)

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


def _stop_case(stop):
    """(problem, x0, SolverConfig fields, status) of a run that ends the named way."""
    if stop == "converged":
        p = make_problem("synthetic_quadratic", 8)
        return p, starting_point(p, 1), {}, "converged"
    if stop == "step_floor":
        p = make_problem("pb3_troesch", 50)
        return p, starting_point(p, 1), {"tol_inf": 1e-300}, "no_progress"
    if stop == "stagnation":  # x^2 + 1 never vanishes
        p = _scalar_problem(lambda x: x * x + 1.0, lambda x: 2.0 * x, 0.5, 2.0)
        return p, np.array([1.0]), {}, "no_progress"
    if stop == "max_iterations":
        p = _scalar_problem(lambda x: x * x - 1.0, lambda x: 2.0 * x, 0.0, 2.0)
        return p, np.array([1.9]), {"max_outer": 1, "tol_inf": 1e-12}, "max_iterations"
    if stop == "singular_model":  # a zero Jacobian fails the first step
        p = _scalar_problem(lambda x: x * x, lambda x: 0.0, -1.0, 1.0)
        return p, np.array([0.5]), {}, "linear_solve_failure"
    # F is nan below 1.2: the first step lands there, and the second fails
    p = Problem(
        name="nan_below", n=4, fun=lambda x: np.where(x < 1.2, np.nan, x * x - 1.0),
        jac=lambda x: np.diag(2.0 * x), feasible_set=Box(np.zeros(4), np.full(4, 2.0)),
    )
    return p, np.full(4, 1.8), {}, "linear_solve_failure"


class TestStepRecords:
    @pytest.mark.parametrize("linsolve_mode", ["direct", "inexact"])
    @pytest.mark.parametrize("stop", [
        "converged", "step_floor", "stagnation", "max_iterations", "singular_model",
        "non_finite_residual",
    ])
    def test_one_record_per_step_taken(self, stop, linsolve_mode):
        p, x0, fields, status = _stop_case(stop)
        cfg = SolverConfig(jacobian_strategy="exact", linsolve=linsolve_mode, **fields)
        report = solve(p, x0, cfg)
        assert report.status == status
        assert len(report.steps) == report.iterations
        if stop == "step_floor":  # too few iterates for the stagnation rule
            assert report.iterations < solver.NO_PROGRESS_WINDOW
        if linsolve_mode == "direct":
            assert all(0.0 <= step.eta_used <= 1e-10 for step in report.steps)

    @pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
    @pytest.mark.parametrize("pid", [
        "pb1_h_equation", "pb2_discrete_boundary", "pb3_troesch", "synthetic_linear",
    ])
    def test_unreachable_tolerance_keeps_one_record_per_step(self, pid, strategy):
        p = make_problem(pid, 30)
        cfg = SolverConfig(jacobian_strategy=strategy, tol_inf=1e-300)
        report = solve(p, starting_point(p, 1), cfg)
        assert report.status == "no_progress"
        assert len(report.steps) == report.iterations

    def test_records_of_an_interior_run(self):
        # theta = 0 and every y_k feasible: CondG returns y_k itself
        p = _scalar_problem(lambda x: x * x - 1.0, lambda x: 2.0 * x, 0.0, 2.0)
        report = solve(p, np.array([1.5]), SolverConfig(jacobian_strategy="exact", theta=0.0))
        assert report.status == "converged"
        for x, z, step in zip(report.iterates, report.iterates[1:], report.steps):
            assert step.step_norm == pytest.approx(abs(z[0] - x[0]), rel=1e-12)
            assert (step.inner_iters, step.final_gap, step.terminated_by) == (1, 0.0, "gap")

    @pytest.mark.parametrize("policy", [ConstantEta(), AdaptiveEta()],
                             ids=["constant", "adaptive"])
    @pytest.mark.parametrize("pid", ["pb1_h_equation", "pb3_troesch"])  # dense, CSR model
    def test_inexact_steps_record_eta_within_the_forcing_term(self, pid, policy):
        # a step whose GMRES met its contract records the kernel "gmres"; one
        # that missed it took the direct exit and records its factors' kernel
        p = make_problem(pid, 50)
        cfg = SolverConfig(jacobian_strategy="exact", linsolve="inexact", eta_policy=policy)
        report = solve(p, starting_point(p, 1), cfg)
        assert report.status == "converged"
        assert any(step.kernel == "gmres" for step in report.steps)
        for x, step in zip(report.iterates, report.steps):
            if step.kernel == "gmres":
                assert step.eta_used <= forcing_eta(float(np.linalg.norm(p.fun(x))), policy)

    def test_capped_start_projection_is_uncertified(self):
        # the LMO-only box projects the start by Frank-Wolfe with eps = 0,
        # which cannot certify and ends at the cap
        p = make_problem("synthetic_quadratic", 10)
        lmo_only = dataclasses.replace(p, feasible_set=LmoOnly(p.feasible_set))
        x0 = np.array([3, 1.5, 3, 1.2, 0.5, 3, 1.1, 0.9, 2.5, 1.3])
        report = solve(lmo_only, x0, SolverConfig(jacobian_strategy="exact"))
        assert report.x0_projected and report.status == "converged"
        capped = sum(step.terminated_by == "iteration_cap" for step in report.steps)
        assert report.uncertified_steps == 1 + capped


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


@pytest.mark.parametrize("strategy", ["finite_difference", "exact", "schubert"])
@pytest.mark.parametrize("pid, n", [
    ("pb4_discrete_integral", 50),
    ("pb2_discrete_boundary", 50),
    ("pb4_discrete_integral", linsolve.MIXED_MIN_N),  # secant steps keep float32 factors
])
def test_one_model_is_held_at_a_time(monkeypatch, pid, n, strategy):
    # the solver lets the previous model (and the factors that hold it) go
    # before every build but a secant update, which reads it; weak
    # references see which models live
    p = make_problem(pid, n)
    built = []  # (k, weak reference to the model next_jacobian returned)
    original = solver.next_jacobian

    def tracked(state, k, *args):
        if built:
            previous = built[-1][1]()
            if model_kind(k, strategy, refresh_period=2) == "secant":
                assert state is not None and state.M is previous
            else:
                assert state is None and previous is None
        new = original(state, k, *args)
        built.append((k, weakref.ref(new.M)))
        return new

    monkeypatch.setattr(solver, "next_jacobian", tracked)
    config = SolverConfig(jacobian_strategy=strategy, refresh_period=2)
    report = solve(p, starting_point(p, 3), config)
    assert report.status == "converged"
    iters = [k for k, _ in built]
    assert iters == list(range(len(report.steps)))
    if strategy == "schubert":
        assert {2, 3} <= set(iters)  # a secant update ran, and a refresh after it
    assert [step.model for step in report.steps] == [
        model_kind(k, strategy, refresh_period=2) for k in iters
    ]


@pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
@pytest.mark.parametrize("pid, n, gamma", [
    ("pb1_h_equation", 400, 3), ("pb4_discrete_integral", 1000, 1),
])
def test_secant_steps_factorize_nothing(monkeypatch, pid, n, gamma, strategy):
    # a dense Broyden step of order >= MIXED_MIN_N updates the previous
    # step's float32 factors: lu_factor runs once per exact or FD step only
    factored = []
    lu_factor = linsolve.lu_factor

    def counted(M):
        factored.append(M.shape[0])
        return lu_factor(M)

    monkeypatch.setattr(linsolve, "lu_factor", counted)
    p = make_problem(pid, n)
    report = solve(p, starting_point(p, gamma), SolverConfig(jacobian_strategy=strategy))
    assert report.status == "converged"
    models = [step.model for step in report.steps]
    assert models == [model_kind(k, strategy) for k in range(len(models))]
    assert len(factored) == sum(model != "secant" for model in models)
    if strategy == "schubert":
        assert "secant" in models
    else:
        assert len(factored) == len(models)


@pytest.mark.parametrize("pid, n, linsolve_mode, per_step, steps", [
    ("pb3_troesch", 500, "direct", 1, 8),
    ("pb4_discrete_integral", linsolve.MIXED_MIN_N - 1, "direct", 1, 7),
    ("pb4_discrete_integral", 1000, "inexact", 0, 7),
])
def test_secant_steps_without_float32_factors(monkeypatch, pid, n, linsolve_mode,
                                             per_step, steps):
    # the solver hands every secant step its factors; band and getrf-only
    # factors serve no update, so a direct step factorizes every time, and
    # an inexact dense step never does
    factored = []
    lu_factor = linsolve.lu_factor

    def counted(M):
        factored.append(M.shape[0])
        return lu_factor(M)

    monkeypatch.setattr(linsolve, "lu_factor", counted)
    p = make_problem(pid, n)
    config = SolverConfig(jacobian_strategy="schubert", linsolve=linsolve_mode)
    report = solve(p, starting_point(p, 1), config)
    assert report.status == "converged" and len(report.steps) == steps
    assert "secant" in [step.model for step in report.steps]
    assert len(factored) == per_step * steps


def test_dense_secant_solve_holds_two_models_and_one_factorization():
    # at most two n-by-n float64 models (the previous and its secant update)
    # and one float32 factorization are alive at once; 2 MiB covers the rest
    n = 1000
    p = make_problem("pb4_discrete_integral", n)
    x0 = starting_point(p, 1)
    config = SolverConfig(jacobian_strategy="schubert")
    tracemalloc.start()
    try:
        report = solve(p, x0, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "converged" and "secant" in [s.model for s in report.steps]
    assert peak <= 2 * 8 * n * n + 4 * n * n + 2 * 2 ** 20


@pytest.mark.parametrize("strategy", ["exact", "finite_difference"])
def test_dense_solve_holds_one_model_and_one_factorization(strategy):
    # a step's float32 factors outlive it until the next build, which starts
    # without them and without the model: one n-by-n float64 model and one
    # float32 factorization are alive at once; 2 MiB covers the rest
    n = 1000
    p = make_problem("pb4_discrete_integral", n)
    x0 = starting_point(p, 1)
    tracemalloc.start()
    try:
        report = solve(p, x0, SolverConfig(jacobian_strategy=strategy))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == "converged"
    assert peak <= 8 * n * n + 4 * n * n + 2 * 2 ** 20


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
