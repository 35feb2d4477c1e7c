"""Solver library for constrained nonlinear systems F(x) = 0, x in C.

An outer Newton-like iteration with approximate Jacobians and
residual-controlled linear solves, combined with an inner conditional-gradient
(Frank-Wolfe) procedure that keeps iterates feasible using only a
linear-minimization oracle (boxes, balls and simplexes take their exact
projection instead, certified by one oracle call), plus majorant-based
convergence radii and rate diagnostics and a registry of classic
box-constrained benchmark problems.
"""

from .bench import make_problem, starting_point
from .condg import CondGResult, condg, wolfe_gap
from .core import (
    CONVERGED,
    LINEAR_SOLVE_FAILURE,
    MAX_ITERATIONS,
    NO_PROGRESS,
    AdaptiveEta,
    ConstantEta,
    Problem,
    RunReport,
    SolverConfig,
    check_problem,
    forcing_eta,
)
from .feasible_set import Box, EuclideanBall, FeasibleSet, Simplex
from .jacobian import (
    JacobianError,
    fd_jacobian,
    next_jacobian,
    schubert_update,
)
from .linsolve import LinearSolveFailure, LinSolveOutcome, solve_direct, solve_inexact
from .solver import solve
from .theory import (
    MajorantFunction,
    TheoryParams,
    holder_majorant,
    holder_radius,
    majorant_sequence,
    nf,
    rate_check,
    smale_majorant,
    smale_radius,
    spectral_norm,
    validate_config,
    verify_mk_conditions,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveEta",
    "Box",
    "CONVERGED",
    "CondGResult",
    "ConstantEta",
    "EuclideanBall",
    "FeasibleSet",
    "JacobianError",
    "LINEAR_SOLVE_FAILURE",
    "LinSolveOutcome",
    "LinearSolveFailure",
    "MAX_ITERATIONS",
    "MajorantFunction",
    "NO_PROGRESS",
    "Problem",
    "RunReport",
    "Simplex",
    "SolverConfig",
    "TheoryParams",
    "check_problem",
    "condg",
    "fd_jacobian",
    "forcing_eta",
    "holder_majorant",
    "holder_radius",
    "majorant_sequence",
    "make_problem",
    "next_jacobian",
    "nf",
    "rate_check",
    "schubert_update",
    "smale_majorant",
    "smale_radius",
    "solve",
    "solve_direct",
    "solve_inexact",
    "spectral_norm",
    "starting_point",
    "validate_config",
    "verify_mk_conditions",
    "wolfe_gap",
]
