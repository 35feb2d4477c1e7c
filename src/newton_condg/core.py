"""Shared domain types: problem definitions, solver configuration, run reports.

Everything here is immutable after construction and safe to share across
threads; `Problem.fun` is expected to be pure.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from .feasible_set import FeasibleSet
from .linsolve import AdaptiveEta, ConstantEta

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
NO_PROGRESS = "no_progress"
LINEAR_SOLVE_FAILURE = "linear_solve_failure"

JACOBIAN_STRATEGIES = ("exact", "finite_difference", "schubert")
LINSOLVE_MODES = ("direct", "inexact")


@dataclass(frozen=True)
class TheoryParams:
    """Constants (omega1, omega2, vartheta, lambda) of the local convergence theory.

    omega1 bounds ||M_k^{-1} F'(x_k)||, omega2 bounds ||M_k^{-1} F'(x_k) - I||,
    vartheta caps the preconditioned forcing term, and lam caps sqrt(2*theta).
    Construction raises ValueError naming the first violated inequality.
    """

    omega1: float
    omega2: float = 0.0
    vartheta: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.vartheta < 1.0):
            raise ValueError("violated: 0 <= vartheta < 1")
        if not (0.0 <= self.omega2 < self.omega1):
            raise ValueError("violated: 0 <= omega2 < omega1")
        if not (self.omega1 * self.vartheta + self.omega2 < 1.0):
            raise ValueError("violated: omega1*vartheta + omega2 < 1")
        if not (0.0 <= self.lam < self.lambda_max()):
            raise ValueError(
                "violated: 0 <= lambda < (1 - omega2 - omega1*vartheta)"
                "/(omega1*(1 + vartheta))"
            )

    def lambda_max(self):
        return (1.0 - self.omega2 - self.omega1 * self.vartheta) / (
            self.omega1 * (1.0 + self.vartheta)
        )


@dataclass(frozen=True)
class Problem:
    """A constrained nonlinear system F(x) = 0, x in a convex compact set.

    Attributes:
        name: identifier of the problem instance.
        n: dimension (F maps n-vectors to n-vectors).
        fun: residual callback x -> F(x), pure.
        feasible_set: the constraint set (provides the LMO), of dimension n.
        jac: optional analytic Jacobian callback x -> (n, n) array or
            scipy.sparse matrix.
        pattern: optional boolean (n, n) Jacobian sparsity mask, dense or
            scipy.sparse, stored as canonical_pattern(pattern): a boolean CSR
            array with read-only arrays, kept as it is when it already is one
            (so dataclasses.replace copies share it) and copied otherwise, so
            the caller's mask stays writable. Declaring
            one selects CSR model matrices under every Jacobian strategy
            (column-grouped finite differences, the Schubert update on the
            pattern); with None the models are dense and the secant update
            is Broyden's. A sparse analytic Jacobian alone keeps the model
            sparse only for the exact strategy.
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
        if self.n < 1:
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

    def __getstate__(self):
        # pickle the pattern's arrays alone: what the Jacobian layer caches
        # on it (its layout, several times the pattern's size) would be
        # dropped by the canonical copy __setstate__ makes anyway
        state = dict(self.__dict__)
        if self.pattern is not None:
            P = self.pattern
            state["pattern"] = sparse.csr_array((P.data, P.indices, P.indptr), shape=P.shape)
        return state

    def __setstate__(self, state):
        # unpickling skips __post_init__ and numpy restores the pattern's
        # arrays writable: store it in canonical form again, so that its
        # Jacobian layout is derived once, not on every build
        self.__dict__.update(state)
        if self.pattern is not None:
            object.__setattr__(self, "pattern", canonical_pattern(self.pattern))


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the outer iteration.

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
    jacobian_strategy: str = "finite_difference"
    refresh_period: int = 5
    linsolve: str = "direct"
    eta_policy: object = None

    def __post_init__(self):
        if not self.tol_inf > 0:
            raise ValueError("tol_inf must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.max_condg < 1:
            raise ValueError("max_condg must be >= 1")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if self.jacobian_strategy not in JACOBIAN_STRATEGIES:
            raise ValueError(f"unknown jacobian_strategy {self.jacobian_strategy!r}")
        if self.linsolve not in LINSOLVE_MODES:
            raise ValueError(f"unknown linsolve mode {self.linsolve!r}")
        if not self.theta >= 0:
            raise ValueError("theta must be >= 0")
        if self.eta_policy is not None:
            if not isinstance(self.eta_policy, (ConstantEta, AdaptiveEta)):
                raise TypeError(f"unknown forcing policy {self.eta_policy!r}")
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
    """

    step_norm: float
    eta_used: float
    inner_iters: int
    final_gap: float
    terminated_by: str


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


def validate_config(config, theory):
    """Check a SolverConfig against TheoryParams.

    Accepts iff theta <= lam**2 / 2 (with lam = 0 this forces theta = 0);
    raises ValueError otherwise. TheoryParams checks its own inequalities when
    it is built.
    """
    if config.theta > theory.lam ** 2 / 2.0:
        raise ValueError("violated: theta <= lambda**2/2")
    return config


def check_problem(problem, rng=None, samples=8):
    """Assert the Problem invariants on sampled feasible points.

    Checks the residual shape, that Jacobian entries outside the declared
    pattern vanish (relative tolerance 1e-12; the Jacobian is the analytic
    one, or finite differences, dense or sparse alike), that a vectorized
    fun maps the (samples, n) stack of the sampled points to the stack of
    their residuals bit for bit, and that the known root has max-norm
    residual <= 1e-10.
    """
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
                from .jacobian import fd_jacobian

                jac = fd_jacobian(problem.fun, x, fx, vectorized=problem.vectorized)
            off, scale = _off_pattern_max(jac, problem.pattern)
            if off > 1e-12 * scale:
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


def canonical_pattern(pattern):
    """A dense or sparse boolean mask as the canonical form Problem stores.

    That form is a boolean scipy.sparse.csr_array with sorted, duplicate-free
    indices, no explicit False, and read-only data, indices and indptr, so
    that what is derived from it once (the Jacobian layer's colouring) cannot
    go stale. A pattern already in that form is returned as it is; anything
    else is copied.
    """
    if (
        type(pattern) is sparse.csr_array
        and pattern.dtype == bool
        and not (
            pattern.data.flags.writeable
            or pattern.indices.flags.writeable
            or pattern.indptr.flags.writeable
        )
        and pattern.has_canonical_format
        and pattern.data.all()
    ):
        return pattern
    patt = sparse.csr_array(pattern, dtype=bool, copy=True)
    patt.eliminate_zeros()
    patt.sum_duplicates()
    for arr in (patt.data, patt.indices, patt.indptr):
        arr.flags.writeable = False
    return patt


def _off_pattern_max(jac, pattern):
    """(largest |entry| of jac outside the CSR pattern, max(largest |entry|, 1e-300))."""
    mag = abs(sparse.csr_array(jac, dtype=float))
    off = mag - mag.multiply(pattern)
    return off.max(), max(mag.max(), 1e-300)
