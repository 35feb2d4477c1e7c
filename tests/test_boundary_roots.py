"""Roots on the boundary of the feasible set: the constraint is active there.

F(x) = A(x - r) + (x - r)*(x - r)/2 with A = tridiag(-1, 4, -1), n = 50, and
a seeded root r on the boundary of a box, a ball or a simplex. Near r the
Newton point x + s leaves the set on the face that holds r, so every step
depends on the inner projection; a Frank-Wolfe loop that stalls on that face
shows up here as a failed solve or a capped inner call.
"""

import numpy as np
import pytest

import newton_condg.linsolve
from newton_condg import Box, EuclideanBall, Problem, Simplex, SolverConfig, solve

from oracles import LmoOnly

N = 50
CONFIG = SolverConfig(jacobian_strategy="exact")


def boundary_problem(kind, seed):
    """(problem, x0): the root r on the boundary of the set, x0 at its centre.

    box: r in [0, 1]^n with half its coordinates at the upper bound; ball: r
    on the unit sphere; simplex: r on a face of the unit simplex with half
    its coordinates zero.
    """
    rng = np.random.default_rng(seed)
    half = N // 2
    if kind == "box":
        root = rng.uniform(0.1, 0.9, N)
        root[rng.choice(N, half, replace=False)] = 1.0
        fset, x0 = Box(np.zeros(N), np.ones(N)), np.full(N, 0.5)
    elif kind == "ball":
        root = rng.standard_normal(N)
        root /= np.linalg.norm(root)
        fset, x0 = EuclideanBall(np.zeros(N), 1.0), np.zeros(N)
    else:
        weights = rng.uniform(0.5, 1.5, half)
        root = np.zeros(N)
        root[rng.choice(N, half, replace=False)] = weights / weights.sum()
        fset, x0 = Simplex(N), np.full(N, 1.0 / N)
    A = 4.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)

    def fun(x):
        d = x - root
        return A @ d + 0.5 * d * d

    def jac(x):
        return A + np.diag(x - root)

    problem = Problem(name=f"boundary_{kind}", n=N, fun=fun, jac=jac,
                      feasible_set=fset, known_root=root)
    return problem, x0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_boundary_root_converges_with_certified_steps(kind, seed):
    problem, x0 = boundary_problem(kind, seed)
    report = solve(problem, x0, CONFIG)
    assert report.status == "converged"
    assert np.abs(report.x - problem.known_root).max() <= 1e-5
    assert report.uncertified_steps == 0
    assert max(step.inner_iters for step in report.steps) < CONFIG.max_condg


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("strategy", ["finite_difference", "schubert"])
def test_simplex_root_at_a_tight_tolerance_keeps_certified_steps(strategy, seed):
    # near the root the Newton point is within rounding of the simplex, and
    # the exact projection's computed gap is rounding too
    problem, x0 = boundary_problem("simplex", seed)
    report = solve(problem, x0, SolverConfig(jacobian_strategy=strategy, tol_inf=1e-12))
    assert report.status == "converged"
    assert report.uncertified_steps == 0
    assert max(step.inner_iters for step in report.steps) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["box", "ball", "simplex"])
def test_dense_tridiagonal_models_take_gttrf(monkeypatch, kind, seed):
    # jac is A + diag(x - r), dense and tridiagonal by value: every step is
    # gttrf's, and the run is getrf's to rounding
    problem, x0 = boundary_problem(kind, seed)
    report = solve(problem, x0, CONFIG)
    assert report.steps and all(step.kernel == "gttrf" for step in report.steps)
    monkeypatch.setattr(newton_condg.linsolve, "_tridiagonal_by_value", lambda A: False)
    reference = solve(problem, x0, CONFIG)
    assert all(step.kernel == "getrf" for step in reference.steps)
    assert report.status == reference.status == "converged"
    assert report.iterations == reference.iterations
    assert report.residual_norms[-1] == pytest.approx(reference.residual_norms[-1], rel=1e-12)


def test_capped_inner_calls_are_reported():
    # the LMO-only view of the box runs the Frank-Wolfe loop, capped at 1
    problem, x0 = boundary_problem("box", 0)
    lmo_only = Problem(name="boundary_box_lmo_only", n=N, fun=problem.fun,
                       jac=problem.jac, feasible_set=LmoOnly(problem.feasible_set))
    config = SolverConfig(jacobian_strategy="exact", max_condg=1, max_outer=20)
    report = solve(lmo_only, x0, config)
    assert report.uncertified_steps > 0
    assert not report.x0_projected
    capped = sum(step.terminated_by == "iteration_cap" for step in report.steps)
    assert report.uncertified_steps == capped
