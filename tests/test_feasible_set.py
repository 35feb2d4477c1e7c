import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from newton_condg import Box, EuclideanBall, Problem, Simplex, SolverConfig, condg, solve
from newton_condg.feasible_set import BOX_CAP

from oracles import random_set_and_point, simplex_projection_exact, simplex_threshold_bisection


class TestBoxLMO:
    def test_sign_rule(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(box.lmo(np.array([1.0, -1.0])), [0.0, 1.0])

    def test_tie_break_to_lower(self):
        box = Box([-1.0, 0.0], [2.0, 5.0])
        np.testing.assert_array_equal(box.lmo(np.zeros(2)), [-1.0, 0.0])

    def test_returns_vertex(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(1, 9)
            lower = rng.uniform(-2, 0, n)
            upper = lower + rng.uniform(0.1, 3, n)
            box = Box(lower, upper)
            u = box.lmo(rng.standard_normal(n))
            at_bound = (u == box.lower) | (u == box.capped_upper)
            assert at_bound.all()

    def test_infinite_upper_is_capped(self):
        box = Box([1.0, 1.0], [np.inf, 4.0])
        np.testing.assert_array_equal(box.lmo(np.array([-1.0, -1.0])), [1e6, 4.0])
        assert box.contains(box.lmo(np.array([-1.0, 0.5])))

    def test_rejects_non_finite_direction(self):
        box = Box([0.0], [1.0])
        with pytest.raises(ValueError):
            box.lmo(np.array([np.nan]))


def test_ball_lmo_closed_form():
    ball = EuclideanBall(np.zeros(2), 2.0)
    u = ball.lmo(np.array([3.0, 4.0]))
    np.testing.assert_allclose(u, [-1.2, -1.6], atol=1e-14)
    # optimality against a large feasible sample
    rng = np.random.default_rng(0)
    v = rng.standard_normal((10 ** 6, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v *= 2.0 * rng.uniform(0, 1, (10 ** 6, 1)) ** 0.5
    d = np.array([3.0, 4.0])
    assert d @ u <= (v @ d).min() + 1e-12


def test_lmo_optimality_sampling():
    # <d, lmo(d)> <= <d, v> + 1e-12 for random sets and feasible v
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        kind = trial % 3
        if kind == 0:
            lower = rng.uniform(-3, 0, n)
            fset = Box(lower, lower + rng.uniform(0.5, 4, n))
        elif kind == 1:
            fset = EuclideanBall(rng.standard_normal(n), rng.uniform(0.5, 3))
        else:
            fset = Simplex(n, scale=rng.uniform(0.5, 3))
        d = rng.standard_normal(n)
        u = fset.lmo(d)
        assert fset.contains(u, 1e-12)
        best = d @ u
        for _ in range(100):
            assert best <= d @ fset.sample(rng) + 1e-12


class TestContains:
    def test_box_interior_and_boundary(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert box.contains(np.array([0.5, 1.0]), tol=0.0)
        assert box.contains(np.array([1.0 + 1e-13, 0.0]), tol=1e-12)
        assert not box.contains(np.array([1.0 + 1e-13, 0.0]), tol=0.0)

    def test_ball(self):
        ball = EuclideanBall(np.zeros(2), 1.0)
        assert not ball.contains(np.array([1.0, 1.0]))
        assert ball.contains(np.array([1.0, 0.0]))

    def test_simplex(self):
        s = Simplex(3, scale=1.0)
        assert s.contains(np.array([0.2, 0.3, 0.5]))
        assert not s.contains(np.array([0.2, 0.3, 0.6]))
        assert s.contains(np.array([-1e-13, 0.5, 0.5]), tol=1e-12)

    def test_ball_projections_and_vertices_at_every_scale(self):
        # a projection or an LMO vertex lies on the sphere up to rounding,
        # which scales with the radius and with the centre's entries
        rng = np.random.default_rng(9)
        for _ in range(2000):
            n = int(rng.integers(1, 300))
            center = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n)
            ball = EuclideanBall(center, 10.0 ** rng.uniform(-3, 6))
            y = center + ball.radius * rng.uniform(1.01, 10) * rng.standard_normal(n)
            assert ball.contains(ball.project(y))
            assert ball.contains(ball.lmo(rng.standard_normal(n)))

    def test_ball_slack_is_relative(self):
        ball = EuclideanBall(np.zeros(2), 1e6)
        assert ball.contains(np.array([1e6 + 1e-7, 0.0]))
        assert not ball.contains(np.array([1e6 + 1e-5, 0.0]))
        assert not EuclideanBall(np.zeros(2), 1e-3).contains(np.array([1e-3 + 1e-13, 0.0]))
        far = EuclideanBall(np.full(2, 1e6), 1.0)
        assert far.contains(far.center + np.array([1.0 + 1e-7, 0.0]))
        assert not far.contains(far.center + np.array([1.0 + 1e-5, 0.0]))

    def test_simplex_samples_at_every_scale(self):
        # a sampled point is on the simplex up to the rounding of its sum
        rng = np.random.default_rng(8)
        for _ in range(1000):
            s = Simplex(int(rng.integers(1, 201)), scale=10.0 ** rng.uniform(-3, 6))
            assert s.contains(s.sample(rng))

    def test_simplex_sum_slack_is_relative(self):
        s = Simplex(2, scale=1e6)
        assert s.contains(np.array([5e5, 5e5 + 1e-7]))
        assert not s.contains(np.array([5e5, 5e5 + 1e-5]))
        assert not Simplex(2, scale=1e-3).contains(np.array([5e-4, 5e-4 + 1e-13]))


# each set with a point on its boundary whose first coordinate is 0.0 on a
# lower bound (or at the centre's height, for the ball), and a unit
# direction that leaves the set from it
BOUNDARY_POINTS = {
    "box": (Box([0.0, -1.0], [1.0, 2.0]), [0.0, 2.0], [0.0, 1.0]),
    "simplex": (Simplex(2, scale=1.0), [0.0, 1.0], [-1.0, 0.0]),
    "ball": (EuclideanBall(np.zeros(2), 1.0), [0.0, 1.0], [0.0, 1.0]),
}


@pytest.mark.parametrize("kind", sorted(BOUNDARY_POINTS))
class TestContainsSemantics:
    def test_nan_coordinate_is_rejected(self, kind):
        fset, point, _ = BOUNDARY_POINTS[kind]
        for i in range(2):
            x = np.array(point)
            x[i] = np.nan
            assert not fset.contains(x, tol=0.0)
            assert not fset.contains(x, tol=1e-12)

    def test_point_on_the_boundary_is_accepted_at_tol_0(self, kind):
        fset, point, _ = BOUNDARY_POINTS[kind]
        assert fset.contains(np.array(point), tol=0.0)

    def test_point_outside_by_less_than_tol_is_accepted(self, kind):
        fset, point, out = BOUNDARY_POINTS[kind]
        tol = 1e-6
        near = np.array(point) + 0.5 * tol * np.array(out)
        assert fset.contains(near, tol=tol)
        assert not fset.contains(near, tol=0.0)
        assert not fset.contains(np.array(point) + 2.0 * tol * np.array(out), tol=tol)

    def test_negative_zero_on_a_zero_bound_is_accepted(self, kind):
        fset, point, _ = BOUNDARY_POINTS[kind]
        x = np.array(point)
        x[0] = -0.0
        assert np.signbit(x[0])
        assert fset.contains(x, tol=0.0)


def test_contains_caps_an_infinite_upper_bound():
    box = Box([0.0, 0.0], [np.inf, 1.0])
    assert box.contains(np.array([BOX_CAP, 1.0]), tol=0.0)
    assert not box.contains(np.array([np.nextafter(BOX_CAP, np.inf), 1.0]), tol=0.0)
    assert not box.contains(np.array([np.inf, 1.0]), tol=1e-12)
    assert box.contains(np.array([BOX_CAP + 0.5, 1.0]), tol=1.0)


def test_sampled_start_on_a_large_simplex_is_kept():
    # F(x) = A(x - r) with A = tridiag(-1, 4, -1) and r on the simplex
    n, scale = 50, 1e6
    fset = Simplex(n, scale)
    rng = np.random.default_rng(50)
    root = fset.sample(rng)
    A = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    problem = Problem(name="linear_simplex", n=n, fun=lambda x: A @ (x - root),
                      jac=lambda x: A, feasible_set=fset)
    x0 = fset.sample(rng)
    report = solve(problem, x0, SolverConfig(jacobian_strategy="exact"))
    assert report.x0_projected is False
    np.testing.assert_array_equal(report.iterates[0], x0)
    assert report.status == "converged"


class TestProjectBox:
    def test_clip(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(box.project(np.array([2.0, -3.0])), [1.0, 0.0])

    def test_identity_on_feasible(self):
        box = Box([0.0, 0.0], [5.0, 5.0])
        y = np.array([2.5, 4.0])
        np.testing.assert_array_equal(box.project(y), y)

    def test_partial_clip(self):
        box = Box([0.0, 0.0], [5.0, 5.0])
        np.testing.assert_array_equal(box.project(np.array([2.5, 7.0])), [2.5, 5.0])

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        box = Box(rng.uniform(-2, 0, 5), rng.uniform(1, 3, 5))
        y = rng.standard_normal(5) * 10
        once = box.project(y)
        np.testing.assert_array_equal(box.project(once), once)

    def test_minimizes_distance(self):
        rng = np.random.default_rng(5)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        for _ in range(50):
            y = rng.standard_normal(2) * 3
            p = box.project(y)
            for _ in range(50):
                v = box.sample(rng)
                assert np.linalg.norm(p - y) <= np.linalg.norm(v - y) + 1e-12


class TestExactProjections:
    DRAWS = 1500

    def test_simplex_matches_threshold_bisection(self):
        rng = np.random.default_rng(61)
        for _ in range(self.DRAWS):
            n = int(rng.integers(1, 41))
            scale = 10.0 ** rng.uniform(-3, 6)
            y = scale * rng.uniform(0.0, 3.0) * rng.standard_normal(n)
            tau = simplex_threshold_bisection(y, scale)
            expected = np.maximum(y - tau, 0.0)
            got = Simplex(n, scale).project(y)
            assert np.abs(got - expected).max() <= 1e-12 * max(scale, np.abs(y).max())

    def test_simplex_projection_is_exact_to_the_scale(self):
        # against the exact projection of the same floats: the shifted sums
        # keep the scale where plain sums of y near 10^3 scale lose bits of it
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 41))
            simplex = Simplex(n, 10.0 ** rng.uniform(-3, 6))
            spread = 10.0 ** rng.uniform(-2, 3) * simplex.scale / n
            y = simplex.sample(rng) + spread * rng.standard_normal(n)
            exact = simplex_projection_exact(y, simplex.scale)
            error = max(abs(Fraction(got) - x) for got, x in zip(simplex.project(y), exact))
            assert error <= Fraction(2.0 ** -50 * simplex.scale)

    def test_ball_matches_rescale_formula(self):
        rng = np.random.default_rng(62)
        for _ in range(self.DRAWS):
            n = int(rng.integers(1, 41))
            scale = 10.0 ** rng.uniform(-3, 6)
            center = scale * rng.standard_normal(n)
            radius = scale * rng.uniform(0.5, 3)
            y = center + scale * rng.uniform(0.0, 6.0) * rng.standard_normal(n)
            dist = np.sqrt(((y - center) ** 2).sum())
            expected = center + (y - center) * min(1.0, radius / dist)
            got = EuclideanBall(center, radius).project(y)
            assert np.abs(got - expected).max() <= 1e-12 * scale

    def test_feasible_and_idempotent(self):
        rng = np.random.default_rng(63)
        for _ in range(self.DRAWS):
            fset, y, scale = random_set_and_point(rng)
            z = fset.project(y)
            assert np.abs(fset.project(z) - z).max() <= 1e-12 * scale
            assert fset.contains(z)


class TestHugeFiniteInputs:
    # finite points whose plain arithmetic overflows, under the suite's -W error
    def test_ball_projects_and_certifies_a_far_point(self):
        ball = EuclideanBall(np.zeros(3), 1.0)
        y = np.array([1e200, 0.0, 0.0])
        np.testing.assert_array_equal(ball.project(y), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(ball.lmo(-y), [1.0, 0.0, 0.0])
        assert not ball.contains(y)
        result = condg(ball, y, np.zeros(3), 0.0, 300)
        np.testing.assert_array_equal(result.z, [1.0, 0.0, 0.0])
        assert result.terminated_by == "gap"

    def test_ball_lmo_of_a_direction_whose_norm_underflows(self):
        ball = EuclideanBall(np.zeros(3), 1.0)
        np.testing.assert_array_equal(ball.lmo(np.array([5e-324, 0.0, 0.0])), [-1.0, 0.0, 0.0])
        # ||d||^2 = 2e-320 is subnormal and carries about 12 bits
        u = ball.lmo(np.array([1e-160, 1e-160, 0.0]))
        np.testing.assert_allclose(u, [-math.sqrt(0.5), -math.sqrt(0.5), 0.0], rtol=1e-15)
        assert ball.contains(u)

    def test_ball_projection_of_a_point_whose_offset_norm_underflows(self):
        ball = EuclideanBall(np.zeros(3), 1e-161)
        z = ball.project(np.array([1e-160, 1e-160, 0.0]))
        np.testing.assert_allclose(z, [math.sqrt(0.5) * 1e-161] * 2 + [0.0], rtol=1e-15)
        assert ball.contains(z)

    def test_ball_with_a_huge_centre(self):
        # the centre's own norm overflows its plain sum of squares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ball = EuclideanBall([1e200, 0.0, 0.0], 1.0)
        assert not ball.contains(np.zeros(3))
        result = condg(ball, np.zeros(3), ball.center, 0.0, 300)
        assert ball.contains(result.z)
        assert result.terminated_by == "gap"

    def test_simplex_projects_a_point_whose_sum_overflows(self):
        simplex = Simplex(3)
        np.testing.assert_array_equal(simplex.project([1e308, 1e308, 0.0]), [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(simplex.project([1e308, -1e308, 1e308]), [0.5, 0.0, 0.5])
        assert not simplex.contains([1e308, 1e308, 0.0])

    def test_simplex_projection_keeps_a_scale_far_below_the_entries(self):
        # plain sums of 1e300 lose the scale 1 to rounding, and the support
        # test then finds no support; the projection is invariant under
        # y -> y - t * ones
        simplex = Simplex(3)
        np.testing.assert_array_equal(simplex.project([1e300, 1e300, 0.0]), [0.5, 0.5, 0.0])
        np.testing.assert_allclose(simplex.project([-1e300, -1e300, -1e300]), [1 / 3] * 3,
                                   rtol=1e-15)

    @pytest.mark.parametrize("top", [1e308, 1e300])
    def test_simplex_projection_in_high_dimension(self, top):
        # both inputs leave the plain sums; the shifted copy's sums reach
        # about 2n, which is far below the largest float
        y = np.zeros(3000)
        y[:2] = top
        z = Simplex(3000).project(y)
        np.testing.assert_array_equal(z[:2], [0.5, 0.5])
        assert not z[2:].any()


def test_box_invariant_validation():
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        Box([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        Box([2e6], [np.inf])  # lower above the cap
    with pytest.raises(ValueError):
        Box([-np.inf], [1.0])
    with pytest.raises(ValueError):
        EuclideanBall(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Simplex(3, scale=0.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        Simplex(0)
    with pytest.raises(ValueError, match="center must be a 1-d array"):
        EuclideanBall(np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize(
    "build, argument",
    [
        (lambda: EuclideanBall(np.zeros(2), np.inf), "radius"),
        (lambda: EuclideanBall(np.zeros(2), np.nan), "radius"),
        (lambda: EuclideanBall([0.0, np.inf], 1.0), "center"),
        (lambda: EuclideanBall([np.nan, 0.0], 1.0), "center"),
        (lambda: Simplex(3, scale=np.inf), "scale"),
        (lambda: Simplex(3, scale=np.nan), "scale"),
        (lambda: EuclideanBall(np.zeros(2), 5e-324), "radius"),
        (lambda: Simplex(3, scale=5e-324), "scale"),
    ],
)
def test_non_compact_sets_are_rejected(build, argument):
    # an infinite ball or simplex has no finite LMO vertex; contains(1e300)
    # would hold and lmo would return -inf entries. A subnormal radius or
    # scale is rejected too: its projections and vertices round off the set
    with pytest.raises(ValueError, match=argument):
        build()


@pytest.mark.parametrize("fset", [EuclideanBall(np.zeros(2), 1.0), Simplex(2)],
                         ids=["ball", "simplex"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lmo_rejects_a_non_finite_direction(fset, bad):
    with pytest.raises(ValueError, match="lmo direction must be finite"):
        fset.lmo(np.array([1.0, bad]))


def test_ball_lmo_of_a_zero_direction_is_the_centre():
    ball = EuclideanBall([1.0, -2.0], 0.5)
    vertex = ball.lmo(np.zeros(2))
    np.testing.assert_array_equal(vertex, [1.0, -2.0])
    vertex[0] = 7.0  # a copy: the ball's centre is not handed out
    np.testing.assert_array_equal(ball.center, [1.0, -2.0])


@pytest.mark.parametrize("fset, name", [
    (Simplex(3), "simplex"),
    (Box(np.zeros(3), np.ones(3)), "box"),
    (EuclideanBall(np.zeros(3), 1.0), "ball"),
], ids=["simplex", "box", "ball"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simplex_projection_rejects_a_non_finite_point(fset, name, bad):
    # every set with a projection rejects such a point in the same words
    with pytest.raises(ValueError, match=f"^{name} projection needs a finite point$"):
        fset.project(np.array([0.2, bad, 0.3]))


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(3.0), True, "3"])
def test_simplex_n_must_be_an_integer(n):
    with pytest.raises(ValueError, match="^n must be >= 1 and an integer$"):
        Simplex(n)


def test_simplex_n_may_be_a_numpy_integer():
    simplex = Simplex(np.int64(3))
    assert simplex.n == 3 and type(simplex.n) is int
