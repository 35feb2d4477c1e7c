"""End-to-end acceptance suite.

One test per criterion; the conftest prints a PASS/FAIL line for each at the
end of the session. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from newton_condg import (
    Box,
    SolverConfig,
    TheoryParams,
    condg,
    holder_majorant,
    holder_radius,
    majorant_sequence,
    make_problem,
    nf,
    schubert_update,
    smale_majorant,
    smale_radius,
    solve,
    starting_point,
)

from oracles import random_theory_params, rho_bisection

pytestmark = pytest.mark.acceptance

EXACT_NEWTON = TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.0, lam=0.0)


def _run(pid, n, gamma, strategy, refresh=5):
    problem = make_problem(pid, n)
    config = SolverConfig(
        tol_inf=1e-6, max_outer=300, theta=1e-5, max_condg=300,
        jacobian_strategy=strategy, refresh_period=refresh, linsolve="direct",
    )
    start = time.perf_counter()
    report = solve(problem, starting_point(problem, gamma), config)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.mark.parametrize(
    "pid, n, gamma, max_iters",
    [
        ("pb1_h_equation", 400, 1, 8),       # typically 5
        ("pb2_discrete_boundary", 500, 1, 14),  # typically 9
        ("pb2_discrete_boundary", 500, 2, 3),   # typically 1
        ("pb3_troesch", 500, 1, 10),         # typically 6
        ("pb4_discrete_integral", 1000, 2, 6),  # typically 3
    ],
)
def test_criterion_1_fd_iteration_budgets(pid, n, gamma, max_iters):
    report, elapsed = _run(pid, n, gamma, "finite_difference")
    assert report.status == "converged"
    assert report.residual_norms[-1] <= 1e-6
    assert report.iterations <= max_iters
    assert elapsed < 30.0


@pytest.mark.parametrize(
    "pid, gamma, max_iters",
    [
        ("pb2_discrete_boundary", 1, 18),  # typically 12
        ("pb3_troesch", 1, 18),            # typically 8
    ],
)
def test_criterion_2_schubert(pid, gamma, max_iters):
    report, elapsed = _run(pid, 500, gamma, "schubert", refresh=5)
    assert report.status == "converged"
    assert report.residual_norms[-1] <= 1e-6
    assert report.iterations <= max_iters
    assert elapsed < 30.0


def test_criterion_3_radius_closed_forms():
    # pinned exact-Newton values, 12 significant digits
    assert holder_radius(1.0, 1.0, EXACT_NEWTON).rho == pytest.approx(
        2.0 / 3.0, rel=1e-12
    )
    assert smale_radius(1.0, EXACT_NEWTON).rho == pytest.approx(
        (5.0 - math.sqrt(17.0)) / 4.0, rel=1e-12
    )
    # 100 random valid draws per family against the sup-definition oracle
    rng = np.random.default_rng(2024)
    for _ in range(100):
        om1, om2, vt, lam = random_theory_params(rng)
        tp = TheoryParams(om1, om2, vt, lam)
        K, p = rng.uniform(0.1, 10.0), rng.uniform(0.3, 1.0)
        m = holder_majorant(K, p)
        rho = holder_radius(K, p, tp).rho
        assert abs(rho - rho_bisection(m.f, m.fprime, m.nu, tp)) <= 1e-8 * rho
        gamma = rng.uniform(0.1, 10.0)
        ms = smale_majorant(gamma)
        rho_s = smale_radius(gamma, tp).rho
        assert abs(rho_s - rho_bisection(ms.f, ms.fprime, ms.nu, tp)) <= 1e-8 * rho_s


def test_criterion_4_condg_approximate_projection():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        lower = rng.uniform(-5.0, 0.0, n)
        box = Box(lower, lower + rng.uniform(0.2, 4.0, n))
        width = box.capped_upper - box.lower
        side = rng.integers(0, 2, n).astype(bool)
        margin = rng.uniform(0.001, 10.0, n) * width  # up to 10x outside
        y = np.where(side, box.capped_upper + margin, box.lower - margin)
        x = box.sample(rng)
        eps = rng.uniform(0.0, 1.0)
        exact = box.project(y)
        z_eps = condg(box, y, x, eps, 300).z
        assert np.linalg.norm(z_eps - exact) <= math.sqrt(2.0 * eps) + 1e-9
        z_zero = condg(box, y, x, 0.0, 300).z
        assert np.linalg.norm(z_zero - exact) <= 1e-9


def test_criterion_5_quadratic_convergence():
    problem = make_problem("synthetic_quadratic", 10)
    rng = np.random.default_rng(5)
    config = SolverConfig(jacobian_strategy="exact", theta=0.0, linsolve="direct")
    for _ in range(5):
        offset = rng.uniform(-1.0, 1.0, 10)
        offset *= rng.uniform(0.3, 1.0) * 0.1 / np.linalg.norm(offset)
        x0 = problem.known_root + offset  # within 0.1 of the root
        report = solve(problem, x0, config)
        assert report.status == "converged"
        errs = [float(np.linalg.norm(it - problem.known_root))
                for it in report.iterates]
        assert all(b < a for a, b in zip(errs, errs[1:]))  # monotone decrease
        quad = [b / a ** 2 for a, b in zip(errs[:-1], errs[1:])
                if 1e-10 < a < 1e-2]
        if quad:
            assert max(quad) <= 10.0 * float(np.median(quad))


def test_criterion_6_majorant_envelope():
    # F(x) = x*x - 1 on [0,2]^n, root at ones. Scaled-derivative bound:
    # F'(x*)^{-1}[F'(x) - F'(x* + tau (x - x*))] = diag((1-tau)(x_i - 1)), so
    # its spectral norm is (1-tau) max|x_i - 1| <= K (1-tau) ||x - x*|| with
    # K = 1 and exponent p = 1.
    problem = make_problem("synthetic_quadratic", 10)
    majorant = holder_majorant(1.0, 1.0)
    x0 = problem.known_root + 0.03  # e0 ~ 0.095 < sigma = 2/3
    for theta, theory in (
        (0.0, EXACT_NEWTON),
        (1e-5, TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.0,
                            lam=math.sqrt(2e-5))),
    ):
        config = SolverConfig(jacobian_strategy="exact", theta=theta)
        report = solve(problem, x0, config, theory=theory)
        assert report.status == "converged"
        errs = np.array([np.linalg.norm(it - problem.known_root)
                         for it in report.iterates])
        ts = majorant_sequence(majorant, theory, theta, errs[0], len(errs) - 1)
        for k, e_k in enumerate(errs):
            t_k = ts[k] if k < ts.size else 0.0
            assert e_k <= t_k + 1e-12


def test_criterion_7_invariant_suites():
    rng = np.random.default_rng(7)

    # feasibility of all iterates (1e-12)
    for pid, n in (("pb3_troesch", 60), ("synthetic_quadratic", 10)):
        p = make_problem(pid, n)
        report = solve(p, starting_point(p, 1), SolverConfig())
        assert report.status == "converged"
        assert all(p.feasible_set.contains(it, 1e-12) for it in report.iterates)

    # Schubert secant residual and pattern preservation
    for _ in range(50):
        n = int(rng.integers(2, 9))
        pattern = rng.uniform(size=(n, n)) < 0.5
        pattern[np.arange(n), np.arange(n)] = True
        M = np.where(pattern, rng.standard_normal((n, n)), 0.0)
        s = rng.standard_normal(n)
        yvec = rng.standard_normal(n)
        updated = schubert_update(M, s, yvec, pattern)
        assert np.all(updated[~pattern] == 0.0)
        assert np.abs(updated @ s - yvec).max() <= 1e-12 * (1.0 + np.abs(yvec).max())

    # LMO optimality sampling
    for _ in range(200):
        n = int(rng.integers(1, 7))
        lower = rng.uniform(-2.0, 0.0, n)
        box = Box(lower, lower + rng.uniform(0.5, 3.0, n))
        d = rng.standard_normal(n)
        u = box.lmo(d)
        for _ in range(20):
            assert d @ u <= d @ box.sample(rng) + 1e-12

    # nf negativity, contraction inequality, h3 monotonicity grids
    for majorant in (holder_majorant(1.0, 1.0), holder_majorant(2.0, 0.5),
                     smale_majorant(1.0)):
        ts = np.linspace(majorant.nu * 1e-6, majorant.nu * (1 - 1e-9), 1000)
        assert np.all(nf(majorant, ts) < 0)
    for majorant, rho in (
        (holder_majorant(1.0, 1.0), holder_radius(1.0, 1.0, EXACT_NEWTON).rho),
        (smale_majorant(1.0), smale_radius(1.0, EXACT_NEWTON).rho),
    ):
        ts = np.linspace(rho * 1e-6, rho * (1 - 1e-9), 1000)
        lhs = np.abs(nf(majorant, ts))  # exact-Newton: q = 0, c1 = 1
        assert np.all(lhs < ts)
    m = holder_majorant(2.0, 0.5)
    ts = np.linspace(m.nu * 1e-4, m.nu * (1 - 1e-9), 1000)
    ratio = (m.f(ts) / m.fprime(ts) - ts) / ts ** (m.p + 1)
    assert np.all(np.diff(ratio) > 0)
