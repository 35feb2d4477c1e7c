import numpy as np
import pytest

from newton_condg import (
    AdaptiveEta,
    Box,
    ConstantEta,
    Problem,
    SolverConfig,
    TheoryParams,
    check_problem,
    validate_config,
)


def test_theory_params_accepts_valid_draw():
    # omega1*vartheta + omega2 = 0.5 < 1 and lambda_max = (1-0.5)/1.5 = 1/3 > 0.3
    tp = TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.5, lam=0.3)
    assert tp.lambda_max() == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize(
    "params, fragment",
    [
        (dict(omega1=1.0, omega2=1.5), "omega2 < omega1"),
        (dict(omega1=1.0, omega2=-0.1), "omega2 < omega1"),
        (dict(omega1=2.0, omega2=0.5, vartheta=0.3), "omega1*vartheta + omega2 < 1"),
        (dict(omega1=1.0, vartheta=1.0), "vartheta < 1"),
        (dict(omega1=1.0, lam=1.0), "lambda"),
        (dict(omega1=1.0, lam=-0.1), "lambda"),
    ],
)
def test_theory_params_names_first_violation(params, fragment):
    with pytest.raises(ValueError, match="violated"):
        try:
            TheoryParams(**params)
        except ValueError as exc:
            assert fragment in str(exc)
            raise


def test_validate_config_theta_boundary():
    # theta = lambda^2/2 exactly is accepted
    cfg = SolverConfig(theta=0.005)
    tp = TheoryParams(omega1=1.0, lam=0.1)
    validate_config(cfg, tp)


def test_validate_config_rejects_theta_with_zero_lambda():
    cfg = SolverConfig(theta=1e-5)
    tp = TheoryParams(omega1=1.0, lam=0.0)
    with pytest.raises(ValueError, match="theta"):
        validate_config(cfg, tp)
    validate_config(SolverConfig(theta=0.0), tp)


def test_validate_config_monotone_in_theta():
    tp = TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.0, lam=0.2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(0.0, tp.lam ** 2 / 2.0)
        validate_config(SolverConfig(theta=theta), tp)
        validate_config(SolverConfig(theta=rng.uniform(0.0, theta)), tp)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tol_inf=0.0),
        dict(max_outer=0),
        dict(max_condg=0),
        dict(refresh_period=0),
        dict(theta=-1e-9),
        dict(jacobian_strategy="bogus"),
        dict(linsolve="bogus"),
        dict(theta=float("nan")),
        dict(linsolve="direct", eta_policy=ConstantEta(0.1)),
        dict(linsolve="direct", eta_policy=AdaptiveEta()),
    ],
)
def test_solver_config_invariants(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("policy", [0.1, "constant:0.1", ConstantEta])
def test_solver_config_rejects_what_is_not_a_forcing_policy(policy):
    with pytest.raises(TypeError, match="unknown forcing policy"):
        SolverConfig(linsolve="inexact", eta_policy=policy)


def _quadratic_problem(n=4):
    return Problem(
        name="q",
        n=n,
        fun=lambda x: x * x - 1.0,
        jac=lambda x: np.diag(2.0 * x),
        pattern=np.eye(n, dtype=bool),
        feasible_set=Box(np.zeros(n), np.full(n, 2.0)),
        known_root=np.ones(n),
    )


def test_check_problem_passes_on_consistent_problem():
    check_problem(_quadratic_problem())


def test_check_problem_flags_bad_root():
    p = _quadratic_problem()
    bad = Problem(
        name="bad", n=p.n, fun=p.fun, jac=p.jac, feasible_set=p.feasible_set,
        known_root=np.full(p.n, 1.5),
    )
    with pytest.raises(AssertionError, match="known_root"):
        check_problem(bad)


def test_check_problem_flags_pattern_violation():
    n = 4
    dense_fun = lambda x: np.full(n, x.sum()) ** 3 - x
    bad = Problem(
        name="bad", n=n, fun=dense_fun, pattern=np.eye(n, dtype=bool),
        feasible_set=Box(np.zeros(n), np.ones(n)),
    )
    with pytest.raises(AssertionError, match="pattern"):
        check_problem(bad)


def test_check_problem_accepts_a_vectorized_fun():
    n = 5
    p = Problem(
        name="rows", n=n, fun=lambda x: x * x - np.sum(x, axis=-1, keepdims=True),
        feasible_set=Box(np.zeros(n), np.ones(n)), vectorized=True,
    )
    check_problem(p)


@pytest.mark.parametrize(
    "fun, message",
    [
        # np.sum without an axis adds up every point of the stack
        (lambda x: x * x - np.sum(x), "rows differ"),
        (lambda x: np.ravel(x * x), "shape"),
    ],
    ids=["axis-less-sum", "flattened"],
)
def test_check_problem_flags_a_false_vectorized_declaration(fun, message):
    n = 5
    bad = Problem(
        name="not_rows", n=n, fun=fun, feasible_set=Box(np.zeros(n), np.ones(n)),
        vectorized=True,
    )
    with pytest.raises(AssertionError, match=rf"not_rows: vectorized fun.*{message}"):
        check_problem(bad)
    check_problem(Problem(name="per_point", n=n, fun=fun, feasible_set=bad.feasible_set))


@pytest.mark.parametrize("flag", [1, np.True_, "yes", None])
def test_problem_rejects_a_vectorized_that_is_not_a_bool(flag):
    with pytest.raises(TypeError, match="vectorized"):
        Problem(name="x", n=1, fun=lambda x: x, feasible_set=Box([0.0], [1.0]),
                vectorized=flag)


def test_problem_shape_validation():
    with pytest.raises(ValueError):
        Problem(name="x", n=0, fun=lambda x: x, feasible_set=Box([0.0], [1.0]))
    with pytest.raises(ValueError):
        Problem(
            name="x", n=2, fun=lambda x: x, pattern=np.eye(3, dtype=bool),
            feasible_set=Box([0.0, 0.0], [1.0, 1.0]),
        )


def test_problem_rejects_a_feasible_set_of_another_dimension():
    for fset in (Box(np.zeros(5), np.ones(5)), Box([0.0], [1.0])):
        with pytest.raises(ValueError, match=rf"n={fset.n}\b.*n=3\b"):
            Problem(name="x", n=3, fun=lambda x: x, feasible_set=fset)
