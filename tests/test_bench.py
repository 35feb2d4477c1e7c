import dataclasses

import numpy as np
import pytest
from scipy import optimize, sparse

from newton_condg import (
    Box,
    EuclideanBall,
    Problem,
    SolverConfig,
    check_problem,
    fd_jacobian,
    make_problem,
    next_jacobian,
    solve,
    starting_point,
)
from newton_condg.bench import REGISTRY, _cube
from newton_condg.jacobian import FD_BLOCK_ENTRIES

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


def _discrete_boundary_reference(x):
    n = x.size
    h = 1.0 / (n + 1)
    padded = [0.0, *x.tolist(), 0.0]  # boundary values
    return [
        2.0 * padded[i] - padded[i - 1] - padded[i + 1]
        + h * h * (padded[i] + i * h + 1.0) ** 3 / 2.0
        for i in range(1, n + 1)
    ]


def _discrete_integral_reference(x):
    n = x.size
    h = 1.0 / (n + 1)
    t = [(j + 1) * h for j in range(n)]
    cube = [(x[j] + t[j] + 1.0) ** 3 for j in range(n)]
    out = []
    for i in range(n):
        low = sum(t[j] * cube[j] for j in range(i + 1))
        high = sum((1.0 - t[j]) * cube[j] for j in range(i + 1, n))
        out.append(x[i] + h * ((1.0 - t[i]) * low + t[i] * high) / 2.0)
    return out


def test_discrete_boundary_value_at_zero():
    n = 25
    p = make_problem("pb2_discrete_boundary", n)
    np.testing.assert_allclose(
        p.fun(np.zeros(n)), _discrete_boundary_reference(np.zeros(n)), rtol=1e-14
    )


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
    np.testing.assert_allclose(p.fun(x), _discrete_integral_reference(x), rtol=1e-13)


def test_cube_is_bit_identical_to_pow_for_non_negative_bases():
    rng = np.random.default_rng(3)
    g = np.concatenate((
        [0.0, -0.0, np.inf, np.nan, 1e-310, 1e100],
        rng.uniform(0.0, 200.0, 1000),
        10.0 ** rng.uniform(-300.0, 100.0, 1000),
    ))
    for shape in (g.shape, (34, 59)):
        base = g.reshape(shape)
        assert _cube(base).tobytes() == (base ** 3).tobytes()


def test_cube_is_minus_the_cube_of_abs_for_negative_bases():
    rng = np.random.default_rng(4)
    g = -np.concatenate(([np.inf, 1e-310, 1e100], rng.uniform(0.0, 200.0, 1000)))
    g = g[g < 0]
    expected = -(np.abs(g) ** 3)
    assert _cube(g).tobytes() == expected.tobytes()
    assert _cube(g.reshape(1, -1)).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "pid, reference",
    [
        ("pb2_discrete_boundary", _discrete_boundary_reference),
        ("pb4_discrete_integral", _discrete_integral_reference),
    ],
)
def test_cubed_residuals_at_negative_bases(pid, reference):
    # the gamma = 0 and 1 starts and random points where every x + t + 1 < 0
    n = 30
    p = make_problem(pid, n)
    t = np.arange(1, n + 1) / (n + 1)
    rng = np.random.default_rng(5)
    points = [starting_point(p, 0), starting_point(p, 1)]
    points += [rng.uniform(p.feasible_set.lower, -t - 1.0 - 1e-3) for _ in range(4)]
    for x in points:
        assert np.all(x + t + 1.0 < 0.0)
        np.testing.assert_allclose(p.fun(x), reference(x), rtol=1e-13, atol=0.0)
    if p.vectorized:
        stacked = p.fun(np.stack(points))
        assert stacked.tobytes() == np.stack([p.fun(x) for x in points]).tobytes()
    check_problem(p)


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


TRIDIAGONAL_CASES = [
    (pid, n) for pid in ("pb2_discrete_boundary", "pb3_troesch") for n in (2, 3, 500)
]


def _shifted_second_difference(x, right):
    """2 x_i - x_{i-1} - x_{i+1} from concatenated shifts, x_{n+1} = right."""
    xm = np.concatenate(([0.0], x[:-1]))
    xp = np.concatenate((x[1:], [right]))
    return 2.0 * x - xm - xp


def _tridiagonal_points(p):
    rng = np.random.default_rng(8)
    points = [starting_point(p, gamma) for gamma in (0, 1, 2, 3)]
    points += [p.feasible_set.sample(rng) for _ in range(3)]
    return np.stack(points)


@pytest.mark.parametrize("pid, n", TRIDIAGONAL_CASES)
def test_tridiagonal_problems_declare_vectorized_residuals(pid, n):
    p = make_problem(pid, n)
    assert p.vectorized
    check_problem(p)
    points = _tridiagonal_points(p)
    rows = [p.fun(x) for x in points]
    for m in (1, len(points)):
        stacked = p.fun(points[:m])
        assert stacked.shape == (m, n)
        assert stacked.tobytes() == np.stack(rows[:m]).tobytes()
    # the 1-D residual is the same bits as the shifted-copy formula
    h = 1.0 / (n + 1)
    for x, fx in zip(points, rows):
        if pid == "pb3_troesch":
            lam = 10.0
            expected = _shifted_second_difference(x, 1.0) + lam * h * h * np.sinh(lam * x)
        else:
            t = np.arange(1, n + 1) * h
            expected = _shifted_second_difference(x, 0.0) + h * h * _cube(x + t + 1.0) / 2.0
        assert fx.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pid, n", TRIDIAGONAL_CASES)
def test_vectorized_fd_model_is_the_per_colour_model(pid, n):
    p = make_problem(pid, n)
    per_colour = dataclasses.replace(p, vectorized=False)
    for gamma in (0, 1, 2, 3):
        x = starting_point(p, gamma)
        batched = next_jacobian(None, 0, p, x, "finite_difference").M
        looped = next_jacobian(None, 0, per_colour, x, "finite_difference").M
        assert batched.data.tobytes() == looped.data.tobytes()


@pytest.mark.parametrize("pid, n", TRIDIAGONAL_CASES)
def test_exact_tridiagonal_jacobian_is_a_fresh_matrix_of_one_structure(pid, n):
    p = make_problem(pid, n)
    P = p.pattern  # the structure every model of the problem stores
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h
    off = np.full(n - 1, -1.0)
    for x in _tridiagonal_points(p):
        if pid == "pb3_troesch":
            lam = 10.0
            diagonal = 2.0 + lam * lam * h * h * np.cosh(lam * x)
        else:
            diagonal = 2.0 + 1.5 * h * h * (x + t + 1.0) ** 2
        expected = sparse.diags_array([off, diagonal, off], offsets=[-1, 0, 1], format="csr")
        first, second = p.jac(x), p.jac(x)
        for J in (first, second):
            assert J.format == "csr" and J.shape == (n, n)
            assert J.indptr is P.indptr and J.indices is P.indices and J._pattern is P
            assert J.data.tobytes() == expected.data.tobytes()
            assert J.indices.dtype == expected.indices.dtype
            assert J.indptr.dtype == expected.indptr.dtype
            np.testing.assert_array_equal(J.indices, expected.indices)
            np.testing.assert_array_equal(J.indptr, expected.indptr)
            assert J.has_canonical_format
        assert not np.shares_memory(first.data, second.data)
        first.data[:] = 0.0  # a caller may write its own matrix's data
        assert second.data.tobytes() == expected.data.tobytes()


def _h_equation_expression(n, c=0.99):
    """pb1's residual as one expression, with a temporary per operation."""
    mu = (np.arange(1, n + 1) - 0.5) / n
    A = (c / (2.0 * n)) * (mu[:, None] / (mu[:, None] + mu[None, :]))
    return lambda h: h - 1.0 / (1.0 - np.matmul(A, h[..., None])[..., 0])


def _discrete_integral_expression(n):
    """pb4's residual as expressions, with a temporary per operation."""
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h

    def fun(x):
        g = _cube(x + t + 1.0)
        s1 = np.cumsum(t * g, axis=-1)
        tail = (1.0 - t) * g
        rest = np.sum(tail, axis=-1, keepdims=True) - np.cumsum(tail, axis=-1)
        return x + h * ((1.0 - t) * s1 + t * rest) / 2.0

    return fun


DENSE_RESIDUAL_CASES = [
    ("pb1_h_equation", n, _h_equation_expression) for n in (2, 3, 400)
] + [
    ("pb4_discrete_integral", n, _discrete_integral_expression) for n in (2, 3, 1000)
]


@pytest.mark.parametrize("pid, n, expression", DENSE_RESIDUAL_CASES)
def test_dense_residuals_in_place_keep_their_bits(pid, n, expression):
    # pb1 and pb4 compute in their own buffers; every stack of points and
    # every point gives the bits of the expression, and nothing is shared
    p = make_problem(pid, n)
    reference = expression(n)
    t = np.arange(1, n + 1) / (n + 1)
    rng = np.random.default_rng(9)
    points = [starting_point(p, gamma) for gamma in (0, 1, 2, 3)]
    points.append(-t - 2.0)  # every cube base x + t + 1 is negative
    full_block = max(1, FD_BLOCK_ENTRIES // n)
    for x in points:
        x.flags.writeable = False  # the residual must not write its input
        fx = p.fun(x)
        assert fx.flags.c_contiguous and fx.dtype == np.float64 and fx.shape == (n,)
        assert fx.tobytes() == reference(x).tobytes()
        again = p.fun(x)
        assert again.tobytes() == fx.tobytes()
        assert not np.shares_memory(fx, again)
        for m in (1, 7, full_block):
            X = x + rng.uniform(-1e-3, 1e-3, (m, n))
            X[0] = x
            X.flags.writeable = False
            F = p.fun(X)
            assert F.shape == (m, n)
            assert F.tobytes() == reference(X).tobytes()
            assert F[0].tobytes() == fx.tobytes()
            for i in rng.choice(m, min(m, 3), replace=False):
                assert F[i].tobytes() == p.fun(X[i]).tobytes()
            assert not np.shares_memory(F, p.fun(X))


@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_discrete_integral_jacobian_keeps_the_where_weights(n):
    # the weights are built by an outer product and blocks of rows; J is the
    # product of the np.where weights with the column scales, bit for bit
    p = make_problem("pb4_discrete_integral", n)
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h
    weights = np.where(
        t[None, :] <= t[:, None],
        (1.0 - t)[:, None] * t[None, :],
        t[:, None] * (1.0 - t)[None, :],
    )
    rng = np.random.default_rng(10)
    for x in (starting_point(p, 0), starting_point(p, 3), p.feasible_set.sample(rng)):
        expected = np.multiply(weights, 1.5 * h)
        expected *= ((x + t + 1.0) ** 2)[None, :]
        expected.flat[::n + 1] += 1.0
        J = p.jac(x)
        assert J.flags.c_contiguous and J.dtype == np.float64
        assert J.tobytes() == expected.tobytes()


def test_starting_points():
    p1 = make_problem("pb1_h_equation", 50)
    np.testing.assert_allclose(starting_point(p1, 1), np.full(50, 1.25))
    p3 = make_problem("pb3_troesch", 50)
    np.testing.assert_allclose(starting_point(p3, 2), np.zeros(50))
    for gamma in (4, True, np.True_, False):  # a bool is no gamma
        with pytest.raises(ValueError, match="^gamma must be one of 0, 1, 2, 3$"):
            starting_point(p1, gamma)


def test_starting_point_needs_a_box():
    p = Problem(name="ball", n=2, fun=lambda x: x, feasible_set=EuclideanBall(np.zeros(2), 1.0))
    with pytest.raises(TypeError, match="starting_point needs a box feasible set"):
        starting_point(p, 1)


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


@pytest.mark.parametrize("pid", [
    "pb2_discrete_boundary", "pb3_troesch", "synthetic_quadratic", "synthetic_linear",
])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_sparse_pattern_is_every_entry_of_the_exact_jacobian(pid, n):
    # the pattern is the exact Jacobian's structure, every entry True: the
    # band |i - j| <= 1, or the diagonal of synthetic_quadratic
    p = make_problem(pid, n)
    width = 0 if pid == "synthetic_quadratic" else 1
    i, j = np.indices((n, n))
    assert p.pattern.dtype == bool and p.pattern.data.all()
    np.testing.assert_array_equal(p.pattern.toarray(), np.abs(i - j) <= width)
    J = p.jac(starting_point(p, 1))
    np.testing.assert_array_equal(J.indptr, p.pattern.indptr)
    np.testing.assert_array_equal(J.indices, p.pattern.indices)


def test_h_equation_starts_reach_its_two_roots():
    # the H-equation has two solutions for 0 < c < 1 (Kelley, Solving
    # Nonlinear Equations with Newton's Method, SIAM 2003), both in the box:
    # the start of gamma = 1 reaches the first, those of gamma = 2 and 3 the
    # second. MINPACK's hybr, judged by its iterate, finds the same roots
    # from gamma = 1 and 2; from gamma = 3 it leaves the box, so that row is
    # compared with the second root from gamma = 2
    p = make_problem("pb1_h_equation", 100)
    config = SolverConfig(jacobian_strategy="exact", linsolve="direct", tol_inf=1e-13)
    roots = {}
    for gamma in (1, 2, 3):
        report = solve(p, starting_point(p, gamma), config)
        assert report.status == "converged"
        roots[gamma] = report.x
    assert roots[1].max() == pytest.approx(2.467, abs=1e-3)
    assert roots[2].max() == pytest.approx(3.490, abs=1e-3)
    hybr = {
        gamma: optimize.root(
            p.fun, starting_point(p, gamma), jac=p.jac, method="hybr", options={"xtol": 1e-14}
        ).x
        for gamma in (1, 2)
    }
    for gamma, reference in ((1, 1), (2, 2), (3, 2)):
        assert np.abs(roots[gamma] - hybr[reference]).max() <= 1e-12


def test_h_equation_schubert_run_from_gamma_3_ends_at_the_first_root():
    # the paper-core row pb1_h_equation,400,3,schubert: its secant models
    # drift between refreshes and the run converges to the first root, where
    # the exact and FD runs from the same start reach the second
    p = make_problem("pb1_h_equation", 400)
    report = solve(p, starting_point(p, 3), SolverConfig(jacobian_strategy="schubert"))
    assert report.status == "converged"
    assert report.x.max() == pytest.approx(2.471, abs=1e-3)


@pytest.mark.parametrize("n", [2.5, "7", True, 1, np.float64(7.0)])
def test_make_problem_n_must_be_an_integer_at_least_2(n):
    with pytest.raises(ValueError, match="^n must be an integer >= 2$"):
        make_problem("pb3_troesch", n)


def test_make_problem_takes_a_numpy_n():
    assert make_problem("pb3_troesch", np.int64(7)).n == 7
