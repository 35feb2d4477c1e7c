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
    forcing_eta,
    validate_config,
)


def test_theory_params_accepts_valid_draw():
    # omega1*vartheta + omega2 = 0.5 < 1 and lambda < (1-0.5)/1.5 = 1/3
    TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.5, lam=0.3)
    with pytest.raises(ValueError, match="lambda"):
        TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.5, lam=0.34)


@pytest.mark.parametrize(
    "params, fragment",
    [
        (dict(omega1=1.0, omega2=1.5), "omega2 < omega1"),
        (dict(omega1=1.0, omega2=-0.1), "omega2 < omega1"),
        (dict(omega1=2.0, omega2=0.5, vartheta=0.3), "omega1*vartheta + omega2 < 1"),
        (dict(omega1=1.0, vartheta=1.0), "vartheta < 1"),
        (dict(omega1=1.0, lam=1.0), "lambda"),
        (dict(omega1=1.0, lam=-0.1), "lambda"),
        # below the closed form's 1.59e-16, but 1 - omega1((1 + vartheta) lam
        # + vartheta) - omega2, the radii's divisor, rounds to 0
        (dict(omega1=0.6, omega2=0.5499999999999999, vartheta=0.7499999999999999,
              lam=1.0007032796395773e-16), "lambda"),
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
        dict(max_outer=2.5),
        dict(max_outer=2.0),
        dict(max_outer=True),
        dict(max_condg=300.0),
        dict(refresh_period=1.5),
        dict(refresh_period=float("nan")),
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


@pytest.mark.parametrize(
    "where, value, flagged",
    [
        ((0, 3), np.nan, True),
        ((0, 3), np.inf, True),
        ((1, 1), np.inf, False),  # on the pattern: not outside it
        ((0, 3), 1e-14, False),  # relative to the largest entry
    ],
    ids=["off-nan", "off-inf", "on-inf", "off-tiny"],
)
def test_check_problem_reports_non_finite_entries_outside_the_pattern(where, value, flagged):
    p = _quadratic_problem()

    def jac(x):
        J = np.diag(2.0 * x)
        J[where] = value * (np.abs(J).max() if np.isfinite(value) else 1.0)
        return J

    planted = Problem(name="planted", n=p.n, fun=p.fun, jac=jac, pattern=p.pattern,
                      feasible_set=p.feasible_set, known_root=p.known_root)
    if flagged:
        with pytest.raises(AssertionError, match="planted: Jacobian entry outside pattern"):
            check_problem(planted)
    else:
        check_problem(planted)


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
    for n in (3.0, 2.5, float("nan"), True):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            Problem(name="x", n=n, fun=lambda x: x, feasible_set=Box(np.zeros(3), np.ones(3)))
    assert Problem(name="x", n=np.int64(3), fun=lambda x: x,
                   feasible_set=Box(np.zeros(3), np.ones(3))).n == 3
    with pytest.raises(ValueError):
        Problem(
            name="x", n=2, fun=lambda x: x, pattern=np.eye(3, dtype=bool),
            feasible_set=Box([0.0, 0.0], [1.0, 1.0]),
        )
    with pytest.raises(ValueError, match="known_root must be an n-vector"):
        Problem(name="x", n=2, fun=lambda x: x, feasible_set=Box([0.0, 0.0], [1.0, 1.0]),
                known_root=np.zeros(3))


def test_problem_rejects_a_feasible_set_of_another_dimension():
    for fset in (Box(np.zeros(5), np.ones(5)), Box([0.0], [1.0])):
        with pytest.raises(ValueError, match=rf"n={fset.n}\b.*n=3\b"):
            Problem(name="x", n=3, fun=lambda x: x, feasible_set=fset)


def test_adaptive_eta_rejects_a_negative_c():
    for c in (-1, np.nan):
        with pytest.raises(ValueError, match="c must be >= 0"):
            AdaptiveEta(c=c)


def test_forcing_eta_rejects_a_negative_residual_norm():
    for resnorm in (-1.0, np.nan):
        for policy in (ConstantEta(), AdaptiveEta()):
            with pytest.raises(ValueError, match="resnorm must be >= 0"):
                forcing_eta(resnorm, policy)


def test_check_problem_flags_a_residual_of_the_wrong_shape():
    bad = Problem(name="short", n=3, fun=lambda x: x[:2],
                  feasible_set=Box(np.zeros(3), np.ones(3)))
    with pytest.raises(AssertionError, match=r"short: fun\(x\) has shape \(2,\)"):
        check_problem(bad)


@pytest.mark.parametrize("samples", [0, 2.5, True])
@pytest.mark.parametrize("vectorized", [False, True], ids=["per-point", "vectorized"])
def test_check_problem_rejects_a_samples_that_is_not_a_count(samples, vectorized):
    n = 3
    p = Problem(name="shift", n=n, fun=lambda x: x - 0.5,
                feasible_set=Box(np.zeros(n), np.ones(n)), vectorized=vectorized)
    with pytest.raises(ValueError, match="^samples must be an integer >= 1$"):
        check_problem(p, samples=samples)
    check_problem(p, samples=np.int64(2))
