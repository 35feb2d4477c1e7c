"""Outer iteration: Newton-like steps returned to the feasible set.

Each outer iteration k builds an invertible model M_k of the Jacobian,
solves M_k s_k = -F(x_k) (exactly or to a relative-residual contract),
forms y_k = x_k + s_k, and takes x_{k+1} = condg(y_k, x_k, theta*||s_k||^2)
so the iterate stays feasible. Pure local method: no line search and no
globalization.

A direct step keeps the factorization it used, and each secant step hands
it with its (s, y) to solve_direct (prev_step), which alone decides whether
it serves the update. The model and its factors are dropped before every
build that is not a secant update, so at most two models and one
factorization are alive at once.
"""

import math

import numpy as np

from . import core
from .condg import ITERATION_CAP, condg
from .core import ConstantEta, RunReport, SolverConfig, forcing_eta
from .jacobian import SCHUBERT, SECANT, JacobianError, model_kind, next_jacobian
from .linsolve import LinearSolveFailure, solve_direct, solve_inexact
from .theory import validate_config

STEP_FLOOR = 1e-15
# stagnation: the best residual of the last NO_PROGRESS_WINDOW iterations is
# above NO_PROGRESS_FACTOR times the best of all earlier ones
NO_PROGRESS_WINDOW = 10
NO_PROGRESS_FACTOR = 0.9


def solve(problem, x0, config=None, theory=None):
    """Run the constrained Newton-like iteration from x0.

    Parameters
    ----------
    problem : core.Problem
    x0 : finite n-vector, ValueError otherwise; an infeasible start is
        first returned to the set with a zero-tolerance conditional-gradient
        projection, which raises the report's x0_projected flag and counts
        in uncertified_steps if capped. problem.fun at that start must
        return a real n-vector (finite or not), ValueError otherwise.
    config : core.SolverConfig, defaults to SolverConfig().
    theory : optional theory.TheoryParams; when given the configuration is
        validated against them before iterating (theta <= lambda^2/2).

    Returns a RunReport; failures (iteration cap, stagnation, unusable model
    matrix, a non-finite residual) are reported through its status, never
    raised.
    """
    config = SolverConfig() if config is None else config
    if theory is not None:
        validate_config(config, theory)
    fset = problem.feasible_set
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError("x0 must be an n-vector")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")

    x0_projected = not fset.contains(x, 1e-12)
    uncertified_steps = 0
    if x0_projected:
        start = fset.lmo(np.zeros(problem.n))
        projection = condg(fset, x, start, 0.0, config.max_condg)
        x = projection.z
        uncertified_steps = int(projection.terminated_by == ITERATION_CAP)

    iterates = []
    residual_norms = []
    steps = []
    status = core.MAX_ITERATIONS
    jac_state = factors = None
    prev_step = None

    fx = np.asarray(problem.fun(x))
    if fx.shape != (problem.n,) or fx.dtype.kind not in "biuf":
        raise ValueError("fun(x0) must return a real n-vector")
    fx = fx.astype(float, copy=False)
    for k in range(config.max_outer + 1):
        iterates.append(x.copy())
        residual_norms.append(float(np.abs(fx).max()))
        if residual_norms[-1] <= config.tol_inf:
            status = core.CONVERGED
            break
        if _stalled(residual_norms):
            status = core.NO_PROGRESS
            break
        if k == config.max_outer:
            status = core.MAX_ITERATIONS
            break
        if not residual_norms[-1] < math.inf:  # nan or inf: no step can be solved
            status = core.LINEAR_SOLVE_FAILURE
            break

        model = model_kind(k, config.jacobian_strategy, config.refresh_period)
        if model != SECANT:
            # only a secant update reads the previous model and its factors:
            # let them go before the next model is built
            jac_state = factors = None
        try:
            jac_state = next_jacobian(
                jac_state, k, problem, x, config.jacobian_strategy,
                config.refresh_period, prev_step, fx,
            )
        except JacobianError:
            status = core.LINEAR_SOLVE_FAILURE
            break

        try:
            s, eta_used, factors, kernel = _linear_step(
                jac_state.M, fx, config, None if factors is None else (factors, *prev_step)
            )
        except LinearSolveFailure:
            status = core.LINEAR_SOLVE_FAILURE
            break

        # np.linalg.norm of a contiguous 1-D float array is sqrt(v.dot(v)): same bits
        s_sq = s @ s
        snorm = math.sqrt(s_sq)
        if snorm < STEP_FLOOR * max(1.0, math.sqrt(x @ x)):
            status = core.NO_PROGRESS
            break

        y = x + s
        # the inner accuracy theta ||s_k||^2; SolverConfig checks theta >= 0
        inner = condg(fset, y, x, float(config.theta * s_sq), config.max_condg)
        steps.append(core.Step(snorm, eta_used, inner.inner_iters,
                               inner.final_gap, inner.terminated_by, model,
                               kernel))
        uncertified_steps += inner.terminated_by == ITERATION_CAP

        z = inner.z
        fz = np.asarray(problem.fun(z), dtype=float)
        if config.jacobian_strategy == SCHUBERT:  # the only reader of the step
            prev_step = (z - x, fz - fx)
        x, fx = z, fz

    return RunReport(
        status=status,
        iterates=iterates,
        residual_norms=residual_norms,
        steps=steps,
        x0_projected=x0_projected,
        uncertified_steps=uncertified_steps,
    )


def _linear_step(M, fx, config, prev_step):
    """(s, eta_used, factors, kernel) of the step M s = -F(x): direct, given
    the previous step's factors and (s, y) as prev_step when M is their
    secant update, or inexact to the configured forcing term."""
    if config.linsolve == "direct":
        outcome = solve_direct(M, -fx, prev_step=prev_step)
    else:
        policy = config.eta_policy or ConstantEta()
        outcome = solve_inexact(M, -fx, forcing_eta(math.sqrt(fx @ fx), policy))
    return outcome.s, outcome.eta_used, outcome.factors, outcome.kernel


def _stalled(residual_norms):
    w = NO_PROGRESS_WINDOW
    if len(residual_norms) <= w:
        return False
    recent = min(residual_norms[-w:])
    earlier = min(residual_norms[:-w])
    return recent > NO_PROGRESS_FACTOR * earlier
