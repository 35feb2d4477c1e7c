"""Shared domain types: problem definitions, solver configuration and its
forcing policies, run reports.

Everything here is immutable after construction and safe to share across
threads; `Problem.fun` is expected to be pure.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .feasible_set import FeasibleSet, _is_count
from .jacobian import FINITE_DIFFERENCE, JACOBIAN_STRATEGIES, fd_jacobian
from .linsolve import canonical_pattern

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
NO_PROGRESS = "no_progress"
LINEAR_SOLVE_FAILURE = "linear_solve_failure"

LINSOLVE_MODES = ("direct", "inexact")


@dataclass(frozen=True)
class Problem:
    """A constrained nonlinear system F(x) = 0, x in a convex compact set.

    Attributes:
        name: identifier of the problem instance.
        n: dimension, an integer >= 1, not a bool (F maps n-vectors to
            n-vectors).
        fun: residual callback x -> F(x), pure.
        feasible_set: the constraint set (provides the LMO), of dimension n.
        jac: optional analytic Jacobian callback x -> (n, n) array or
            scipy.sparse matrix.
        pattern: optional boolean (n, n) Jacobian sparsity mask, dense or
            scipy.sparse, stored as linsolve.canonical_pattern(pattern): a
            boolean CSR array with read-only arrays, kept as it is when it
            already is one (so dataclasses.replace copies share it) and copied
            otherwise, so the caller's mask stays writable. It is the one
            object of the structure: when canonical_pattern makes it, it
            derives in O(nnz) the row of every entry, the LU kernel and the
            template every model of the pattern copies, so a problem solved
            only with its exact Jacobian pays that once too; the
            finite-difference colouring waits for the first
            finite-difference build. Declaring one selects CSR
            model matrices under every Jacobian strategy (column-grouped
            finite differences, the Schubert update on the pattern); with
            None the models are dense and the secant update is Broyden's. A
            sparse analytic Jacobian alone keeps the model sparse only for
            the exact strategy.
        known_root: optional root, used by diagnostics and tests only.
        vectorized: True declares that fun also takes an (m, n) array whose
            rows are points and returns the (m, n) array of their residuals,
            row i bit-identical to fun of row i. Finite-difference Jacobians
            then evaluate many perturbed points per call. Points are rows,
            not columns, so that a reduction along the contiguous last axis
            (cumsum, the pairwise sum of np.sum(..., axis=-1)) adds the same
            numbers in the same order as the 1-D call. fun must still take
            an n-vector. check_problem verifies the declaration.
    """

    name: str
    n: int
    fun: Callable[[np.ndarray], np.ndarray]
    feasible_set: FeasibleSet
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    pattern: Optional[object] = None
    known_root: Optional[np.ndarray] = None
    vectorized: bool = False

    def __post_init__(self):
        if not _is_count(self.n):
            raise ValueError("n must be a positive integer")
        if not isinstance(self.vectorized, bool):
            raise TypeError("vectorized must be a bool")
        if self.feasible_set.n != self.n:
            raise ValueError(
                f"feasible_set has n={self.feasible_set.n} but the problem has n={self.n}"
            )
        if self.pattern is not None:
            patt = canonical_pattern(self.pattern)
            if patt.shape != (self.n, self.n):
                raise ValueError("pattern must be a boolean (n, n) mask")
            object.__setattr__(self, "pattern", patt)
        if self.known_root is not None:
            root = np.asarray(self.known_root, dtype=float)
            if root.shape != (self.n,):
                raise ValueError("known_root must be an n-vector")
            object.__setattr__(self, "known_root", root)


@dataclass(frozen=True)
class ConstantEta:
    """Forcing policy eta_k = value for every k."""

    value: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.value < 1.0):
            raise ValueError("constant eta must lie in [0, 1)")


@dataclass(frozen=True)
class AdaptiveEta:
    """Forcing policy eta_k = min(eta_max, c * ||F(x_k)||)."""

    c: float = 1.0
    eta_max: float = 0.1

    def __post_init__(self):
        if not self.c >= 0:  # nan too
            raise ValueError("c must be >= 0")
        if not (0.0 <= self.eta_max < 1.0):
            raise ValueError("eta_max must lie in [0, 1)")


def forcing_eta(resnorm, policy):
    """Forcing term eta_k of a policy at the residual norm ||F(x_k)||."""
    if not resnorm >= 0:  # nan too
        raise ValueError("resnorm must be >= 0")
    if isinstance(policy, ConstantEta):
        eta = policy.value
    elif isinstance(policy, AdaptiveEta):
        eta = min(policy.eta_max, policy.c * resnorm)
    else:
        raise TypeError(f"unknown forcing policy {policy!r}")
    return float(eta)


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the outer iteration.

    max_outer, max_condg and refresh_period are integers (Python or numpy,
    not bools) >= 1; anything else, 2.0 included, raises ValueError. An
    eta_policy that forcing_eta does not know raises TypeError, and one given
    with linsolve="direct" raises ValueError.

    Attributes:
        tol_inf: stop when ||F(x_k)||_inf <= tol_inf.
        max_outer: cap on outer iterations.
        theta: inner accuracy parameter; every outer step k uses theta_k = theta.
        max_condg: cap on inner conditional-gradient iterations.
        jacobian_strategy: one of "exact", "finite_difference", "schubert".
        refresh_period: finite-difference refresh period m of the schubert
            strategy (refresh at k = 0 and whenever (k-1) mod m == 0).
        linsolve: "direct" or "inexact".
        eta_policy: forcing policy (ConstantEta or AdaptiveEta) of an inexact
            solve, None for ConstantEta(); a direct solve takes None only.
    """

    tol_inf: float = 1e-6
    max_outer: int = 300
    theta: float = 1e-5
    max_condg: int = 300
    jacobian_strategy: str = FINITE_DIFFERENCE
    refresh_period: int = 5
    linsolve: str = "direct"
    eta_policy: object = None

    def __post_init__(self):
        if not self.tol_inf > 0:
            raise ValueError("tol_inf must be positive")
        for name in ("max_outer", "max_condg", "refresh_period"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 1")
        if self.jacobian_strategy not in JACOBIAN_STRATEGIES:
            raise ValueError(f"unknown jacobian_strategy {self.jacobian_strategy!r}")
        if self.linsolve not in LINSOLVE_MODES:
            raise ValueError(f"unknown linsolve mode {self.linsolve!r}")
        if not self.theta >= 0:
            raise ValueError("theta must be >= 0")
        if self.eta_policy is not None:
            forcing_eta(0.0, self.eta_policy)  # TypeError for an unknown policy
            if self.linsolve == "direct":
                raise ValueError("eta_policy applies to inexact solves only")


@dataclass(frozen=True)
class Step:
    """Record of one outer step taken, x_k to x_{k+1}.

    Attributes:
        step_norm: ||s_k||_2 of the linear step.
        eta_used: achieved relative residual ||M_k s_k + F(x_k)|| / ||F(x_k)||.
        inner_iters, final_gap, terminated_by: the step's CondG call, as in
            condg.CondGResult.
        model: the step's model M_k, "exact", "finite_difference" or
            "secant", as jacobian.model_kind schedules it.
        kernel: what solved M_k s_k = -F(x_k), linsolve.LinSolveOutcome.kernel:
            "getrf", "sgetrf", "secant", "gttrf", "superlu" or "gmres".
    """

    step_norm: float
    eta_used: float
    inner_iters: int
    final_gap: float
    terminated_by: str
    model: str
    kernel: str


@dataclass
class RunReport:
    """History of one solve.

    Attributes:
        status: "converged", "max_iterations", "no_progress" or
            "linear_solve_failure".
        iterates: x_0, x_1, ... (one entry per outer iterate, x_0 included).
        residual_norms: ||F(x_k)||_inf, one entry per iterate.
        steps: one Step per outer step taken, so len(steps) == iterations; a
            step the run stopped at (step floor, failed model or linear
            solve) has none.
        x0_projected: True when the supplied start was infeasible and was
            returned to the set before iterating.
        uncertified_steps: CondG calls that ended at their iteration cap,
            without the Wolfe-gap certificate the local theory assumes: the
            start's projection and every step's call; a converged run with
            uncertified_steps > 0 is outside the paper's guarantee.
    """

    status: str
    iterates: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    x0_projected: bool = False
    uncertified_steps: int = 0

    @property
    def x(self):
        return self.iterates[-1]

    @property
    def iterations(self):
        return len(self.iterates) - 1


def check_problem(problem, rng=None, samples=8):
    """Assert the Problem invariants on `samples` sampled feasible points.

    samples is an integer >= 1 (Python or numpy, not a bool); anything else
    raises ValueError. Checks the residual shape, that Jacobian entries
    outside the declared pattern vanish (relative to the largest finite
    entry, tolerance 1e-12, so that a nan or inf outside the pattern is
    reported and one on it is not; the Jacobian is the analytic one, or
    finite differences, dense or sparse alike), that a vectorized fun maps the (samples, n) stack of the sampled points to the stack of
    their residuals bit for bit, and that the known root has max-norm
    residual <= 1e-10.
    """
    if not _is_count(samples):
        raise ValueError("samples must be an integer >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    points, residuals = [], []
    for _ in range(samples):
        x = problem.feasible_set.sample(rng)
        fx = np.asarray(problem.fun(x))
        if fx.shape != (problem.n,):
            raise AssertionError(f"{problem.name}: fun(x) has shape {fx.shape}")
        points.append(x)
        residuals.append(fx)
        if problem.pattern is not None:
            if problem.jac is not None:
                jac = problem.jac(x)
            else:
                jac = fd_jacobian(problem.fun, x, fx, vectorized=problem.vectorized)
            off, scale = _off_pattern_max(jac, problem.pattern)
            if not off <= 1e-12 * scale:  # a nan or inf off the pattern too
                raise AssertionError(
                    f"{problem.name}: Jacobian entry outside pattern ({off:.3e})"
                )
    if problem.vectorized:
        stacked = np.asarray(problem.fun(np.stack(points)))
        if stacked.shape != (samples, problem.n):
            raise AssertionError(
                f"{problem.name}: vectorized fun maps ({samples}, {problem.n}) "
                f"points to shape {stacked.shape}"
            )
        if not np.array_equal(stacked, np.stack(residuals)):
            raise AssertionError(
                f"{problem.name}: vectorized fun's rows differ from its 1-D residuals"
            )
    if problem.known_root is not None:
        res = np.abs(problem.fun(problem.known_root)).max()
        if res > 1e-10:
            raise AssertionError(f"{problem.name}: known_root residual {res:.3e}")


def _off_pattern_max(jac, pattern):
    """(largest |entry| of jac outside the CSR pattern, nan when one is nan;
    max(largest finite |entry|, 1e-300)).

    The entries outside are picked by their coordinates, never by
    subtracting the ones inside, where inf - inf would make an inf on the
    pattern a nan.
    """
    mag = abs(sparse.csr_array(jac, dtype=float)).tocoo()
    # every stored entry of jac and of the pattern by its flat position
    keys = [np.ravel_multi_index(A.coords, A.shape) for A in (mag, pattern.tocoo())]
    outside = mag.data[~np.isin(*keys)]
    finite = mag.data[np.isfinite(mag.data)]
    return outside.max(initial=0.0), max(finite.max(initial=0.0), 1e-300)
