"""Properties of the public entry points over generated inputs, under the
deterministic hypothesis profile of conftest.py."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import sparse

import newton_condg.jacobian
import newton_condg.linsolve
from newton_condg import (
    EuclideanBall, Simplex, check_problem, condg, fd_jacobian, make_problem, solve_inexact,
    starting_point,
)
from newton_condg.bench import GAMMAS, REGISTRY
from newton_condg.jacobian import JacobianError

from oracles import column_by_column_jacobian, random_set_and_point, tridiagonal_residual

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the model kinds, and whether lu_factor gives each an exact LU (gttrf or SuperLU)
MODELS = {"dense full": False, "dense tridiagonal": True, "csr tridiagonal": True,
          "csr superlu": True}
# the relative residual of a direct step on these well-conditioned models, at most
DIRECT_ROUNDING = 1e-14


def _model(kind, n, rng):
    """A diagonally dominant model of the kind: its nonzeros are random
    entries of the stored structure, plus 4 + n on the diagonal."""
    if kind == "dense full":
        return rng.standard_normal((n, n)) + (4.0 + n) * np.eye(n)
    offsets = [-1, 0, 1] if "tridiagonal" in kind else [-2, -1, 0, 1, 2]
    M = sparse.diags_array(
        [rng.standard_normal(n - abs(k)) + (4.0 + n) * (k == 0) for k in offsets],
        offsets=offsets, format="csr",
    )
    return M.toarray() if kind.startswith("dense") else M


@hypothesis.given(
    kind=st.sampled_from(sorted(MODELS)),
    n=st.integers(3, 40),
    seed=st.integers(0, 2 ** 32 - 1),
    eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
)
def test_inexact_step_meets_its_contract_with_at_most_one_factorization(kind, n, seed, eta):
    # and with at most one GMRES restart cycle, whatever eta asks
    rng = np.random.default_rng(seed)
    M = _model(kind, n, rng)
    b = rng.standard_normal(n)
    factored, cycles = [], []
    lu_factor, gmres = newton_condg.linsolve.lu_factor, newton_condg.linsolve.gmres

    def counted_lu(A):
        factored.append(A)
        return lu_factor(A)

    def counted_gmres(*args, **kwargs):
        cycles.append(kwargs["maxiter"])
        return gmres(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newton_condg.linsolve, "lu_factor", counted_lu)
        patch.setattr(newton_condg.linsolve, "gmres", counted_gmres)
        out = solve_inexact(M, b, eta)
    assert cycles == [1]
    r = M @ out.s - b
    rnorm, bnorm = math.sqrt(np.vdot(r, r)), math.sqrt(np.vdot(b, b))
    if out.kernel == "gmres":  # GMRES met the contract
        assert out.eta_used == rnorm / bnorm <= eta
    else:  # the direct exit: the contract to rounding, which an eta below it cannot ask
        assert out.eta_used <= max(eta, DIRECT_ROUNDING)
        assert rnorm <= max(eta, DIRECT_ROUNDING) * bnorm
    assert len(factored) == (1 if MODELS[kind] else out.kernel != "gmres")


@hypothesis.given(
    n=st.integers(1, 24),
    groups_per_block=st.integers(1, 25),
    vectorized=st.booleans(),
    storage=st.sampled_from(["dense", "tridiagonal"]),
    seed=st.integers(0, 2 ** 32 - 1),
    data=st.data(),
)
def test_fd_model_is_the_column_by_column_one_and_names_a_bad_column(
        n, groups_per_block, vectorized, storage, seed, data):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, n)
    pattern = None
    if storage == "tridiagonal":  # all 3n - 2 entries, as a Problem stores them
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
        pattern = newton_condg.linsolve.canonical_pattern(band)
    bad = data.draw(st.integers(0, n - 1), label="bad")
    stepped = x.copy()
    stepped[bad] = 2.0  # its step is positive: only points perturbed in x[bad] exceed 2

    def spoiled(X):  # finite at stepped, nan wherever x[bad] was stepped
        return tridiagonal_residual(X) * np.where(X[..., bad:bad + 1] > 2.0, np.nan, 1.0)

    reference = column_by_column_jacobian(tridiagonal_residual, x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newton_condg.jacobian, "FD_BLOCK_ENTRIES", groups_per_block * n)
        model = fd_jacobian(tridiagonal_residual, x, pattern=pattern, vectorized=vectorized)
        if pattern is None:
            assert type(model) is np.ndarray and model.flags.c_contiguous
            assert model.tobytes() == reference.tobytes()
        else:
            assert pattern.fits(model)
            assert model.data.tobytes() == reference[pattern.rows, pattern.indices].tobytes()
        # the error names the first column of the group perturbed in x[bad]: a
        # dense model's groups are its columns, the greedy colours of a full
        # tridiagonal pattern are j mod 3
        named = bad if pattern is None else bad % 3
        with pytest.raises(JacobianError, match=rf"x\[{named}\]$"):
            fd_jacobian(spoiled, stepped, pattern=pattern, vectorized=vectorized)


# finite floats of every size, subnormals included
FINITE = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)
# a ball's centre entries, up to the documented 2^969 that keeps y - center finite
CENTRE = st.floats(-2.0 ** 969, 2.0 ** 969, allow_nan=False, allow_infinity=False)


def _built(make, *args):
    """make(*args), which must emit no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return make(*args)


@hypothesis.given(y=st.lists(FINITE, min_size=3, max_size=3),
                  center=st.lists(CENTRE, min_size=3, max_size=3),
                  radius=st.floats(1e-150, 1e300))
def test_ball_projection_and_lmo_of_any_finite_point(y, center, radius):
    ball = _built(EuclideanBall, center, radius)
    y = np.array(y)
    z, u = ball.project(y), ball.lmo(y)
    for point in (z, u):
        assert np.isfinite(point).all() and ball.contains(point)
    # math.hypot scales, so it neither over- nor underflows; the known
    # answers hold to the rounding that contains allows
    rounding = 1e-12 * (radius + math.hypot(*center))
    v = y - ball.center  # finite: the centre is below 2^970
    if math.hypot(*v) > radius:
        expected = ball.center + radius * (v / math.hypot(*v))
        np.testing.assert_allclose(z, expected, rtol=0.0, atol=rounding)
    if y.any():
        np.testing.assert_allclose(u, ball.center - radius * (y / math.hypot(*y)),
                                   rtol=0.0, atol=rounding)


@hypothesis.given(y=st.lists(FINITE, min_size=1, max_size=6),
                  scale=st.floats(sys.float_info.min, 1e300),
                  a=st.floats(0.5, 1e308), zeros=st.integers(0, 4))
def test_simplex_projection_and_lmo_of_any_finite_point(y, scale, a, zeros):
    simplex = _built(Simplex, len(y), scale)
    for point in (simplex.project(y), simplex.lmo(y)):
        assert np.isfinite(point).all() and simplex.contains(point)
    # (a, a, 0, ...) with a >= 1/2 projects to (1/2, 1/2, 0, ...)
    pair = Simplex(2 + zeros).project([a, a] + [0.0] * zeros)
    np.testing.assert_allclose(pair, [0.5, 0.5] + [0.0] * zeros, rtol=0.0, atol=1e-12)


@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), offset=st.floats(-12.0, 0.0))
def test_exact_projection_of_a_point_near_the_set_is_certified_in_one_call(seed, offset):
    # a box, ball or simplex and a point 10^offset * scale off a boundary
    # point of it, where the computed gap of the exact projection is rounding
    rng = np.random.default_rng(seed)
    fset, _, scale = random_set_and_point(rng)
    n = fset.sample(rng).size
    anchor = fset.project(fset.sample(rng) + 4.0 * scale * rng.standard_normal(n))
    direction = rng.standard_normal(n)
    y = anchor + 10.0 ** offset * scale * direction / np.linalg.norm(direction)
    res = condg(fset, y, fset.sample(rng), 0.0, 300)
    assert (res.terminated_by, res.inner_iters) == ("gap", 1)


@hypothesis.given(pid=st.sampled_from(sorted(REGISTRY)), n=st.integers(2, 40),
                  gamma=st.sampled_from(GAMMAS), seed=st.integers(0, 2 ** 32 - 1))
def test_registry_problem_rows_are_its_one_point_residuals(pid, n, gamma, seed):
    # check_problem: a vectorized residual maps a stack of sampled points to
    # their 1-D residuals bit for bit; the start is one more row
    p = make_problem(pid, n)
    x0 = starting_point(p, gamma)
    assert p.n == n and x0.shape == (n,) and p.feasible_set.contains(x0, 1e-12)
    rng = np.random.default_rng(seed)
    check_problem(p, rng, samples=3)
    if p.vectorized:
        X = np.stack([p.feasible_set.sample(rng), x0])
        assert p.fun(X)[1].tobytes() == p.fun(x0).tobytes()


# what is no count: bools, floats (integral ones included) and strings
NOT_A_COUNT = st.one_of(
    st.booleans(), st.just(np.True_), st.floats(), st.floats().map(np.float64),
    st.integers(0, 3).map(float), st.sampled_from(["", "x", "2", "400", "2.0"]),
)


@hypothesis.given(pid=st.sampled_from(sorted(REGISTRY)), n=NOT_A_COUNT, gamma=NOT_A_COUNT)
def test_registry_rejects_a_bool_float_or_string_n_or_gamma(pid, n, gamma):
    with pytest.raises(ValueError, match="^n must be an integer >= 2$"):
        make_problem(pid, n)
    p = make_problem(pid, 3)
    with pytest.raises(ValueError, match="^gamma must be one of 0, 1, 2, 3$"):
        starting_point(p, gamma)
