"""Outer iteration: Newton-like steps returned to the feasible set.

Each outer iteration k builds an invertible model M_k of the Jacobian,
solves M_k s_k = -F(x_k) (exactly or to a relative-residual contract),
forms y_k = x_k + s_k, and takes x_{k+1} = condg(y_k, x_k, theta_k*||s_k||^2)
so the iterate stays feasible. Pure local method: no line search and no
globalization.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import core, linsolve
from .condg import condg
from .core import RunReport, SolverConfig, validate_config
from .jacobian import JacobianError, initial_state, next_jacobian
from .linsolve import (
    ConstantEta,
    LinearSolveFailure,
    forcing_eta,
    solve_direct,
    solve_inexact,
    spectral_norm,
)

STEP_FLOOR = 1e-15


def condg_epsilon(theta_k, s):
    """Inner accuracy theta_k * ||s_k||^2 (Euclidean norm squared)."""
    if theta_k < 0:
        raise ValueError("theta must be >= 0")
    s = np.asarray(s, dtype=float)
    return float(theta_k * (s @ s))


def solve(problem, x0, config=None, theory=None):
    """Run the constrained Newton-like iteration from x0.

    Parameters
    ----------
    problem : core.Problem
    x0 : array; an infeasible start is first returned to the set with a
        zero-tolerance conditional-gradient projection and the report's
        x0_projected flag is raised.
    config : core.SolverConfig, defaults to SolverConfig().
    theory : optional core.TheoryParams; when given the configuration is
        validated against them before iterating (theta <= lambda^2/2 etc).

    Returns a RunReport; failures (iteration cap, stagnation, unusable model
    matrix) are reported through its status, never raised.
    """
    config = SolverConfig() if config is None else config
    if theory is not None:
        validate_config(config, theory)
    fset = problem.feasible_set
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n,):
        raise ValueError("x0 must be an n-vector")

    x0_projected = False
    if not fset.contains(x, 1e-12):
        start = fset.lmo(np.zeros(problem.n))
        x = condg(fset, x, start, 0.0, config.max_condg).z
        x0_projected = True

    iterates = []
    residual_norms = []
    condg_iters = []
    newton_steps = []
    status = core.MAX_ITERATIONS
    jac_state = initial_state(config.jacobian_strategy)
    prev_step = None

    fx = np.asarray(problem.fun(x), dtype=float)
    for k in range(config.max_outer + 1):
        iterates.append(x.copy())
        residual_norms.append(float(np.abs(fx).max()))
        if residual_norms[-1] <= config.tol_inf:
            status = core.CONVERGED
            break
        if _stalled(residual_norms, config):
            status = core.NO_PROGRESS
            break
        if k == config.max_outer:
            status = core.MAX_ITERATIONS
            break

        try:
            jac_state = next_jacobian(
                jac_state, k, problem, x, config.refresh_period, prev_step, fx
            )
        except JacobianError:
            status = core.LINEAR_SOLVE_FAILURE
            break

        try:
            if config.linsolve == "direct":
                outcome = solve_direct(jac_state.M, -fx)
            else:
                policy = config.eta_policy or ConstantEta()
                eta = forcing_eta(k, float(np.linalg.norm(fx)), policy)
                outcome = solve_inexact(jac_state.M, -fx, eta)
        except LinearSolveFailure:
            status = core.LINEAR_SOLVE_FAILURE
            break

        s = outcome.s
        snorm = float(np.linalg.norm(s))
        newton_steps.append(snorm)
        if snorm < STEP_FLOOR * max(1.0, float(np.linalg.norm(x))):
            status = core.NO_PROGRESS
            break

        y = x + s
        inner = condg(fset, y, x, condg_epsilon(config.theta_at(k), s), config.max_condg)
        condg_iters.append(inner.inner_iters)

        z = inner.z
        fz = np.asarray(problem.fun(z), dtype=float)
        prev_step = (z - x, fz - fx)
        x, fx = z, fz

    return RunReport(
        status=status,
        iterates=iterates,
        residual_norms=residual_norms,
        condg_iters=condg_iters,
        newton_steps=newton_steps,
        x0_projected=x0_projected,
    )


def _stalled(residual_norms, config):
    w = config.no_progress_window
    if len(residual_norms) <= w:
        return False
    recent = min(residual_norms[-w:])
    earlier = min(residual_norms[:-w])
    return recent > config.no_progress_factor * earlier


@dataclass
class MkConditionCheck:
    """Diagnostic operator norms of M^{-1} F'(x) and M^{-1} F'(x) - I."""

    norm_inv_jac: float
    norm_inv_jac_minus_identity: float
    within_omega1: bool
    within_omega2: bool


def verify_mk_conditions(M, fprime, theory):
    """Measure how well a model matrix tracks the true Jacobian.

    Computes ||M^{-1} F'|| and ||M^{-1} F' - I|| (spectral norms by power
    iteration, tolerance 1e-8) and flags them against omega1 and omega2.
    Diagnostic only; never gates the iteration. M and fprime may be dense or
    scipy.sparse. Raises LinearSolveFailure for singular M.
    """
    fprime = fprime.toarray() if sparse.issparse(fprime) else np.asarray(fprime, dtype=float)
    B = linsolve.lu_factor(M).solve(fprime)
    norm_b = spectral_norm(B, tol=1e-8)
    norm_bi = spectral_norm(B - np.eye(B.shape[0]), tol=1e-8)
    return MkConditionCheck(
        norm_inv_jac=norm_b,
        norm_inv_jac_minus_identity=norm_bi,
        within_omega1=norm_b <= theory.omega1 + 1e-8,
        within_omega2=norm_bi <= theory.omega2 + 1e-8,
    )
