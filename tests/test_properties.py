"""Properties of the public entry points over generated inputs, under the
deterministic hypothesis profile of conftest.py."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy import sparse

import newton_condg.linsolve
from newton_condg import EuclideanBall, Simplex, condg, solve_inexact

from oracles import random_set_and_point

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
