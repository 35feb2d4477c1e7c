import numpy as np
import pytest

from newton_condg import Box, EuclideanBall, Simplex, condg, wolfe_gap
from newton_condg.condg import _start_tolerance

from oracles import LmoOnly, random_set_and_point


def _random_box(rng, n):
    lower = rng.uniform(-3, 0, n)
    return Box(lower, lower + rng.uniform(0.5, 4, n))


def test_projecting_the_start_returns_it_immediately():
    box = Box([0.0, 0.0], [1.0, 1.0])
    x = np.array([0.3, 0.7])
    res = condg(box, x, x, 0.0, 300)
    np.testing.assert_array_equal(res.z, x)
    assert res.inner_iters == 1
    assert res.final_gap == 0.0
    assert res.terminated_by == "gap"


def test_corner_projection_two_lmo_calls():
    # brute-force oracle: (1, 0) minimizes ||u - y|| over the box grid
    box = Box([0.0, 0.0], [1.0, 1.0])
    y = np.array([2.0, 0.0])
    grid = np.linspace(0.0, 1.0, 101)
    uu, vv = np.meshgrid(grid, grid)
    pts = np.stack([uu.ravel(), vv.ravel()], axis=1)
    best = pts[np.argmin(((pts - y) ** 2).sum(axis=1))]
    np.testing.assert_array_equal(best, [1.0, 0.0])

    res = condg(LmoOnly(box), y, np.zeros(2), 0.0, 300)
    np.testing.assert_allclose(res.z, [1.0, 0.0], atol=1e-15)
    assert res.inner_iters == 2
    assert res.terminated_by == "gap"


def test_infeasible_start_rejected():
    box = Box([0.0], [1.0])
    with pytest.raises(ValueError, match="feasible"):
        condg(box, np.array([0.5]), np.array([2.0]), 0.0, 10)
    for eps in (-1.0, np.nan):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            condg(box, np.array([0.5]), np.array([0.5]), eps, 10)
    with pytest.raises(ValueError):
        condg(box, np.array([0.5]), np.array([0.5]), 0.0, 0)

    with pytest.raises(ValueError, match="feasible"):
        condg(box, np.array([0.5]), np.array([np.nan]), 0.0, 10)


@pytest.mark.parametrize("cap", [0, 2.5, 2.0, np.nan, True])
@pytest.mark.parametrize("lmo_only", [False, True], ids=["projection", "lmo-only"])
def test_cap_must_be_an_integer_at_least_1(cap, lmo_only):
    box = Box([0.0], [1.0])
    fset = LmoOnly(box) if lmo_only else box
    with pytest.raises(ValueError, match="^cap must be an integer >= 1$"):
        condg(fset, np.array([2.0]), np.array([0.5]), 0.0, cap)


def test_cap_may_be_a_numpy_integer():
    res = condg(LmoOnly(Box([0.0], [1.0])), np.array([2.0]), np.array([0.5]), 0.0, np.int64(5))
    assert res.terminated_by == "gap"
    np.testing.assert_array_equal(res.z, [1.0])


@pytest.mark.parametrize("x", [
    [0.5, np.nan, -3.0], [np.nan], [-0.0], [-0.0, 0.0], [-5e6, 3.0, 2e6], [-0.25, 7e5], [],
])
def test_start_tolerance_is_the_abs_max_form(x):
    x = np.array(x)
    expected = 1e-12 * max(1.0, float(np.abs(x).max()) if x.size else 1.0)
    assert np.float64(_start_tolerance(x)).tobytes() == np.float64(expected).tobytes()


def test_outside_y_matches_exact_projection():
    # components strictly outside on both sides: the projection is a vertex
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        box = _random_box(rng, n)
        width = box.capped_upper - box.lower
        side = rng.integers(0, 2, n).astype(bool)
        y = np.where(
            side,
            box.capped_upper + rng.uniform(0.01, 10, n) * width,
            box.lower - rng.uniform(0.01, 10, n) * width,
        )
        x = box.sample(rng)
        eps = rng.uniform(0.0, 1.0)
        res = condg(box, y, x, eps, 300)
        exact = box.project(y)
        assert np.linalg.norm(res.z - exact) <= np.sqrt(2.0 * eps) + 1e-9
        res0 = condg(box, y, x, 0.0, 300)
        assert np.linalg.norm(res0.z - exact) <= 1e-9


def test_gap_certificate_bounds_distance_to_projection():
    # mixed feasible/infeasible components exercise the iterative path
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        box = _random_box(rng, n)
        width = box.capped_upper - box.lower
        y = box.lower + rng.uniform(-0.8, 1.8, n) * width
        if box.contains(y):
            y[rng.integers(0, n)] = box.capped_upper[0] + 0.5 * width[0]
        x = box.sample(rng)
        mu = rng.uniform(1e-3, 0.5)
        res = condg(LmoOnly(box), y, x, mu, 20000)
        assert res.terminated_by == "gap"
        assert res.final_gap >= -mu
        assert np.linalg.norm(res.z - box.project(y)) <= np.sqrt(2.0 * mu) + 1e-9


def test_contraction_against_exact_projection():
    # ||condg(y, x, mu) - P(ytilde)|| <= ||y - ytilde|| + sqrt(2 mu)
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        box = _random_box(rng, n)
        width = box.capped_upper - box.lower
        y = box.lower + rng.uniform(-0.5, 1.5, n) * width
        ytilde = box.lower + rng.uniform(-0.5, 1.5, n) * width
        x = box.sample(rng)
        mu = rng.uniform(0.0, 0.3)
        res = condg(LmoOnly(box), y, x, mu, 20000)
        bound = np.linalg.norm(y - ytilde) + np.sqrt(2.0 * mu)
        assert np.linalg.norm(res.z - box.project(ytilde)) <= bound + 1e-9


class _DirectionLog(LmoOnly):
    """An LMO-only view that keeps every direction d = z_t - y it is asked about."""

    def __init__(self, inner):
        super().__init__(inner)
        self.directions = []

    def lmo(self, d):
        self.directions.append(np.array(d, copy=True))
        return super().lmo(d)


def test_iterates_stay_feasible_and_objective_decreases():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        box = _random_box(rng, n)
        width = box.capped_upper - box.lower
        y = box.lower + rng.uniform(-0.6, 1.6, n) * width
        x = box.sample(rng)
        view = _DirectionLog(box)
        res = condg(view, y, x, 1e-4, 20000)
        iterates = [d + y for d in view.directions] + [res.z]  # z_t = d + y
        dists = [np.linalg.norm(d) for d in view.directions]  # ||z_t - y||
        dists.append(np.linalg.norm(res.z - y))
        for z in iterates:
            assert box.contains(z, 1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_iteration_cap_reported():
    # interior target with a tiny cap: the cap binds and is reported as such
    box = Box([0.0, 0.0], [1.0, 1.0])
    y = np.array([0.3, 0.9])
    x = np.array([0.9, 0.1])
    view = LmoOnly(box)
    res = condg(view, np.array([1.5, 0.9]), x, 0.0, 2)
    assert res.terminated_by in ("gap", "iteration_cap")
    res = condg(view, np.array([1.5, -0.2]), x, 1e-16, 1)
    assert res.inner_iters == 1
    if res.terminated_by == "iteration_cap":
        assert res.final_gap < -1e-16
    assert box.contains(res.z, 1e-12)
    assert y.shape == res.z.shape


def test_ball_projection():
    ball = EuclideanBall(np.zeros(2), 1.0)
    y = np.array([3.0, 4.0])
    res = condg(ball, y, np.array([0.0, 0.0]), 1e-10, 50000)
    np.testing.assert_allclose(res.z, [0.6, 0.8], atol=1e-4)
    assert res.terminated_by == "gap"


class TestWolfeGap:
    def test_zero_at_exact_projection(self):
        rng = np.random.default_rng(17)
        box = _random_box(rng, 4)
        y = box.lower - 1.0  # strictly outside below
        z = box.project(y)
        assert wolfe_gap(box, y, z) == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_value(self):
        box = Box([0.0], [1.0])
        assert wolfe_gap(box, np.array([2.0]), np.array([0.0])) == pytest.approx(-2.0)

    def test_nonpositive_for_feasible_points(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            box = _random_box(rng, 3)
            y = rng.standard_normal(3) * 4
            z = box.sample(rng)
            assert wolfe_gap(box, y, z) <= 0.0


def test_exact_projection_certified_in_one_call():
    # every built-in set projects exactly; one LMO call certifies it at eps=0
    rng = np.random.default_rng(65)
    for _ in range(1500):
        fset, y, _ = random_set_and_point(rng)
        res = condg(fset, y, fset.sample(rng), 0.0, 300)
        assert res.terminated_by == "gap"
        assert res.inner_iters == 1
        expected = y if fset.contains(y) else fset.project(y)
        np.testing.assert_array_equal(res.z, expected)


def test_near_feasible_simplex_point_certified_in_one_call():
    # the computed gap of the exact projection is -7.6e-18 here, while
    # ||z - y|| is 5.7e-10: it carries the rounding of z itself
    rng = np.random.default_rng(0)
    simplex = Simplex(50)
    y = rng.dirichlet(np.ones(50)) + 1e-9 * rng.standard_normal(50)
    res = condg(simplex, y, np.full(50, 1.0 / 50), 0.0, 300)
    assert (res.terminated_by, res.inner_iters) == ("gap", 1)
    np.testing.assert_array_equal(res.z, simplex.project(y))


class _CentreBall(EuclideanBall):
    """A ball whose project returns its centre: a wrong projection."""

    def project(self, y):
        return self.center.copy()


class _OffSimplex(Simplex):
    """A simplex whose project moves 1e-9 * scale of the exact projection's
    largest entry to a zero entry: feasible, but not the projection."""

    def project(self, y):
        z = super().project(y)
        z[np.argmax(z)] -= 1e-9 * self.scale
        z[np.argmin(z)] += 1e-9 * self.scale
        return z


@pytest.mark.parametrize(
    "fset, y",
    [
        # gap -1e110 far from the origin, where ||z|| is 1e120
        (_CentreBall(np.array([1e120, 0.0, 0.0]), 1.0), np.array([1e120, 1e110, 0.0])),
        (_OffSimplex(5, 3.0), np.array([4.0, 0.5, -2.0, 0.2, -1.0])),
    ],
    ids=["ball-centre", "simplex-off-by-1e-9"],
)
def test_wrong_projection_is_not_certified_by_one_call(fset, y):
    z = fset.project(y)
    assert fset.contains(z) and wolfe_gap(fset, y, z) < 0.0
    res = condg(fset, y, z, 0.0, 300)
    assert res.inner_iters > 1
    assert not np.array_equal(res.z, z)
