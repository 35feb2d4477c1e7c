import numpy as np
import pytest

from newton_condg import (
    Box,
    Problem,
    SolverConfig,
    check_problem,
    fd_jacobian,
    make_problem,
    solve,
    starting_point,
)
from newton_condg.bench import REGISTRY

ALL_IDS = [
    "pb1_h_equation",
    "pb2_discrete_boundary",
    "pb3_troesch",
    "pb4_discrete_integral",
    "synthetic_quadratic",
    "synthetic_linear",
]


def test_registry_contents():
    assert list(REGISTRY) == ALL_IDS
    assert [e.id for e in REGISTRY.values()] == ALL_IDS
    with pytest.raises(KeyError):
        make_problem("pb99_unknown")
    with pytest.raises(ValueError):
        make_problem("synthetic_quadratic", 1)


def test_table_boxes():
    cases = {
        "pb1_h_equation": (400, 0.0, 5.0),
        "pb2_discrete_boundary": (500, -100.0, 100.0),
        "pb3_troesch": (500, -1.0, 1.0),
        "pb4_discrete_integral": (1000, -10.0, 10.0),
    }
    for pid, (default_n, lo, hi) in cases.items():
        p = make_problem(pid)
        assert p.n == default_n
        assert np.all(p.feasible_set.lower == lo)
        assert np.all(p.feasible_set.upper == hi)


def test_h_equation_independent_recomputation():
    n = 17
    p = make_problem("pb1_h_equation", n)
    rng = np.random.default_rng(0)
    h = rng.uniform(0.5, 2.0, n)
    fx = p.fun(h)
    c = 0.99
    for i in range(n):
        mu_i = (i + 0.5) / n
        acc = 0.0
        for j in range(n):
            mu_j = (j + 0.5) / n
            acc += mu_i * h[j] / (mu_i + mu_j)
        expected = h[i] - 1.0 / (1.0 - c / (2 * n) * acc)
        assert fx[i] == pytest.approx(expected, rel=1e-14)


def test_discrete_boundary_value_at_zero():
    n = 25
    p = make_problem("pb2_discrete_boundary", n)
    fx = p.fun(np.zeros(n))
    h = 1.0 / (n + 1)
    for i in range(n):
        t_i = (i + 1) * h
        assert fx[i] == pytest.approx(h * h * (t_i + 1.0) ** 3 / 2.0, rel=1e-14)


def test_troesch_independent_recomputation():
    n = 12
    lam = 10.0
    p = make_problem("pb3_troesch", n)
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, n)
    fx = p.fun(x)
    h = 1.0 / (n + 1)
    padded = np.concatenate(([0.0], x, [1.0]))  # boundary values
    for i in range(1, n + 1):
        expected = (
            2.0 * padded[i] - padded[i - 1] - padded[i + 1]
            + lam * h * h * np.sinh(lam * padded[i])
        )
        assert fx[i - 1] == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_discrete_integral_independent_recomputation():
    n = 30
    p = make_problem("pb4_discrete_integral", n)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, n)
    fx = p.fun(x)
    h = 1.0 / (n + 1)
    t = (np.arange(n) + 1) * h
    for i in range(n):
        low = sum(t[j] * (x[j] + t[j] + 1.0) ** 3 for j in range(i + 1))
        high = sum((1.0 - t[j]) * (x[j] + t[j] + 1.0) ** 3 for j in range(i + 1, n))
        expected = x[i] + h * ((1.0 - t[i]) * low + t[i] * high) / 2.0
        assert fx[i] == pytest.approx(expected, rel=1e-13)


def test_synthetic_roots():
    q = make_problem("synthetic_quadratic", 10)
    np.testing.assert_array_equal(q.fun(np.ones(10)), np.zeros(10))
    lin = make_problem("synthetic_linear", 20)
    assert np.abs(lin.fun(lin.known_root)).max() <= 1e-12


@pytest.mark.parametrize("pid", ALL_IDS)
def test_problem_invariants_and_analytic_jacobians(pid):
    p = make_problem(pid, 25)
    check_problem(p)  # shape, pattern zeros, known-root residual
    rng = np.random.default_rng(7)
    x = p.feasible_set.sample(rng)
    if pid == "pb3_troesch":
        x = np.clip(x, -0.8, 0.8)  # keep sinh moderate for FD accuracy
    fd = fd_jacobian(p.fun, x)
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(fd - p.jac(x)).max() <= 5e-6 * scale


@pytest.mark.parametrize("pid", ["pb2_discrete_boundary", "pb3_troesch"])
def test_fd_jacobian_is_tridiagonal(pid):
    p = make_problem(pid, 60)
    x = starting_point(p, 1)
    fd = fd_jacobian(p.fun, x)
    off = np.abs(fd[~p.pattern.toarray()]).max()
    assert off <= 1e-10 * np.abs(fd).max()


def test_starting_points():
    p1 = make_problem("pb1_h_equation", 50)
    np.testing.assert_allclose(starting_point(p1, 1), np.full(50, 1.25))
    p3 = make_problem("pb3_troesch", 50)
    np.testing.assert_allclose(starting_point(p3, 2), np.zeros(50))
    with pytest.raises(ValueError):
        starting_point(p1, 4)


def test_starting_point_infinite_bound_rule():
    n = 6
    p = Problem(
        name="halfline", n=n, fun=lambda x: x - 2.0,
        feasible_set=Box(np.ones(n), np.full(n, np.inf)),
    )
    np.testing.assert_allclose(starting_point(p, 0), np.ones(n))
    np.testing.assert_allclose(starting_point(p, 3), np.full(n, 1000.0))
    assert p.feasible_set.contains(starting_point(p, 3))


def test_starting_points_feasible_across_registry():
    for pid in ALL_IDS:
        p = make_problem(pid, 20)
        for gamma in (1, 2, 3):
            assert p.feasible_set.contains(starting_point(p, gamma), 1e-12)


def test_h_equation_has_interior_root():
    p = make_problem("pb1_h_equation", 400)
    report = solve(p, starting_point(p, 1), SolverConfig())
    assert report.status == "converged"
    assert report.residual_norms[-1] <= 1e-6
    x = report.x
    assert np.all(x > p.feasible_set.lower) and np.all(x < p.feasible_set.capped_upper)
