"""The local convergence theory: its constants, majorant-based radii, and
diagnostics of runs and model matrices against it.

TheoryParams holds the constants omega1, omega2, vartheta and lambda, and
validate_config checks a SolverConfig's theta against them.
verify_mk_conditions measures the two operator norms that omega1 and omega2
bound, exactly (spectral_norm, LAPACK's 2-norm).

A majorant function is a scalar convex model f with f(0) = 0, f'(0) = -1
whose derivative dominates the variation of the scaled Jacobian around the
root. Two closed-form families are provided: the Holder family
f(t) = K t^{p+1}/(p+1) - t and the analytic (Smale) family
f(t) = t/(1 - gamma t) - 2t. From either one, closed forms give the radii

    nu    : where f' stays negative,
    rho   : where the contraction inequality of the outer iteration holds,
    sigma : min(kappa, rho), the convergence-ball radius,

and the scalar comparison sequence t_k that dominates ||x_k - x*||.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .core import CONVERGED
from .feasible_set import _is_count
from .linsolve import lu_factor

HOLDER = "holder"
SMALE = "smale"

ENVELOPE_SLACK = 1e-12
RATIO_SLACK = 0.1  # finite runs cannot realize a limsup; documented headroom
ERROR_FLOOR = 1e-14


@dataclass(frozen=True)
class TheoryParams:
    """Constants (omega1, omega2, vartheta, lambda) of the local convergence theory.

    omega1 bounds ||M_k^{-1} F'(x_k)||, omega2 bounds ||M_k^{-1} F'(x_k) - I||,
    vartheta caps the preconditioned forcing term, and lam caps sqrt(2*theta).
    Construction raises ValueError naming the first violated inequality. The
    last one, on lam, is checked as omega1 ((1 + vartheta) lam + vartheta)
    + omega2 < 1, the form whose complement the radii divide by.
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
        if not (0.0 <= self.lam and _linear_coeff(self, self.lam) < 1.0):
            raise ValueError(
                "violated: 0 <= lambda < (1 - omega2 - omega1*vartheta)"
                "/(omega1*(1 + vartheta))"
            )


def validate_config(config, theory):
    """Check a SolverConfig against TheoryParams.

    Accepts iff theta <= lam**2 / 2 (with lam = 0 this forces theta = 0);
    raises ValueError otherwise. TheoryParams checks its own inequalities when
    it is built.
    """
    if not _theta_admissible(config.theta, theory):
        raise ValueError("violated: theta <= lambda**2/2")
    return config


def _theta_admissible(theta, theory):
    """0 <= theta <= lam**2/2: the inner accuracy the theory admits."""
    return 0.0 <= theta <= theory.lam ** 2 / 2.0


@dataclass(frozen=True)
class MajorantFunction:
    """Scalar majorant model; build with holder_majorant or smale_majorant.

    p is the rate exponent of the family; the analytic family has p = 1.
    """

    kind: str
    K: Optional[float] = None
    p: Optional[float] = None
    gamma: Optional[float] = None

    def f(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == HOLDER:
            return self.K * t ** (self.p + 1) / (self.p + 1) - t
        return t / (1.0 - self.gamma * t) - 2.0 * t

    def fprime(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == HOLDER:
            return self.K * t ** self.p - 1.0
        return 1.0 / (1.0 - self.gamma * t) ** 2 - 2.0

    @property
    def nu(self):
        """sup{t : f'(t) < 0}."""
        if self.kind == HOLDER:
            return (1.0 / self.K) ** (1.0 / self.p)
        return (math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) * self.gamma)


def holder_majorant(K, p):
    if not K > 0:
        raise ValueError("K must be positive")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    return MajorantFunction(kind=HOLDER, K=float(K), p=float(p))


def smale_majorant(gamma):
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return MajorantFunction(kind=SMALE, p=1.0, gamma=float(gamma))


def nf(majorant, t):
    """Newton iteration map t - f(t)/f'(t) of the majorant.

    Defined on (0, nu), where it is negative; raises ValueError outside.
    Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t < majorant.nu)):  # nan fails it too
        raise ValueError("nf is defined on (0, nu)")
    out = t - majorant.f(t) / majorant.fprime(t)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RadiusBreakdown:
    """Radii nu > rho and sigma = min(kappa, rho)."""

    nu: float
    rho: float
    sigma: float
    kappa: float


def holder_radius(K, p, theory, kappa=math.inf):
    """Closed-form radii of the Holder majorant holder_majorant(K, p).

    Raises ValueError for K <= 0, p outside (0, 1] or kappa <= 0.
    """
    return _breakdown(holder_majorant(K, p), theory, kappa)


def smale_radius(gamma, theory, kappa=math.inf):
    """Closed-form radii of the analytic (Smale) majorant smale_majorant(gamma).

    Raises ValueError for gamma <= 0, kappa <= 0, or constants outside the
    closed form (a^2 < 8 b^2).
    """
    return _breakdown(smale_majorant(gamma), theory, kappa)


def _breakdown(majorant, theory, kappa):
    """RadiusBreakdown of a majorant; kappa must be positive."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    rho = _rho(majorant, theory)
    return RadiusBreakdown(nu=majorant.nu, rho=rho, sigma=min(kappa, rho), kappa=kappa)


def _rho(majorant, theory):
    """Closed-form radius rho of either family under the theory's constants."""
    vt, lam = theory.vartheta, theory.lam
    if majorant.kind == HOLDER:
        K, p = majorant.K, majorant.p
        denom = K * (
            p
            - theory.omega1 * ((1.0 + vt) * lam + vt - p)
            - theory.omega2 * (p + 1.0)
            + 1.0
        )
        return ((1.0 - _linear_coeff(theory, lam)) * (p + 1.0) / denom) ** (1.0 / p)
    a = theory.omega1 * (1.0 + vt) * (1.0 - 3.0 * lam) + 4.0 * (
        1.0 - theory.omega1 * vt - theory.omega2
    )
    b = 1.0 - _linear_coeff(theory, lam)
    disc = a * a - 8.0 * b * b
    if disc < 0.0:
        raise ValueError("parameter combination outside the closed form (a^2 < 8 b^2)")
    # divide by gamma last: 4 gamma b underflows to 0 for a subnormal gamma,
    # where this quotient overflows to inf as it does for gamma = 1e-320
    return (a - math.sqrt(disc)) / (4.0 * b) / majorant.gamma


def majorant_sequence(majorant, theory, theta, t0, kmax):
    """Scalar comparison sequence t_0 = t0, strictly decreasing to 0.

    t_{k+1} = omega1 (1+vartheta)(1 + sqrt(2 theta)) |n_f(t_k)|
              + (omega1 [(1+vartheta) sqrt(2 theta) + vartheta] + omega2) t_k.

    Returns t_0, ..., t_kmax. Raises ValueError unless 0 < t0 < rho (the
    closed-form radius of the majorant's family), 0 <= theta <= lam^2/2 and
    kmax is an integer >= 0 (Python or numpy, not a bool). Stops early if a
    term underflows to exactly 0.
    """
    if not _is_count(kmax, 0):
        raise ValueError("kmax must be an integer >= 0")
    if not _theta_admissible(theta, theory):
        raise ValueError("need 0 <= theta <= lambda**2/2")
    if not (0.0 < t0 < _rho(majorant, theory)):
        raise ValueError("need 0 < t0 < rho")

    sq = math.sqrt(2.0 * theta)
    newton_coeff = theory.omega1 * (1.0 + theory.vartheta) * (1.0 + sq)
    q = _linear_coeff(theory, sq)
    ts = [float(t0)]
    for _ in range(kmax):
        t = ts[-1]
        if t == 0.0:
            break
        ts.append(float(newton_coeff * abs(nf(majorant, t)) + q * t))
    return np.array(ts)


@dataclass
class RateDiagnostic:
    """Observed errors of a run against the theoretical rate bounds.

    ratios are e_{k+1}/e_k over steps with both errors above the rounding
    floor; ratio_cap is the asymptotic bound
    omega1[(1+vartheta) sqrt(2 theta) + vartheta] + omega2, compared with
    RATIO_SLACK headroom over the last five steps. per_step_bound_ok verifies
    the explicit error recursion, envelope_ok the comparison-sequence
    domination e_k <= t_k.
    """

    errors: np.ndarray
    ratios: np.ndarray
    max_ratio_last5: Optional[float]
    ratio_cap: float
    ratio_within_cap: bool
    per_step_bound_ok: bool
    envelope_ok: bool


def rate_check(report, x_star, majorant, theory, theta_bar):
    """Check a converged run against the theoretical rate statements.

    Computes e_k = ||x_k - x*|| and evaluates (i) the asymptotic ratio bound
    over the last five steps (with documented slack), (ii) the per-step error
    recursion with exponent p + 1, and (iii) the comparison-sequence envelope
    started at t_0 = e_0. Errors below 1e-14 are excluded from ratios.
    Raises ValueError when the report did not converge or e_0 falls outside
    the majorant domain.
    """
    if report.status != CONVERGED:
        raise ValueError("rate_check needs a converged report")
    x_star = np.asarray(x_star, dtype=float)
    errors = np.array([np.linalg.norm(it - x_star) for it in report.iterates])
    cap = _linear_coeff(theory, math.sqrt(2.0 * theta_bar))

    if np.all(errors <= ERROR_FLOOR):
        return RateDiagnostic(
            errors=errors, ratios=np.array([]), max_ratio_last5=None, ratio_cap=cap,
            ratio_within_cap=True, per_step_bound_ok=True, envelope_ok=True,
        )

    e0 = errors[0]
    if not (0.0 < e0 < majorant.nu):
        raise ValueError("starting error outside the majorant domain (0, nu)")

    valid = (errors[:-1] > ERROR_FLOOR) & (errors[1:] > ERROR_FLOOR)
    ratios = errors[1:][valid] / errors[:-1][valid]
    max_last5 = float(ratios[-5:].max()) if ratios.size else None
    ratio_ok = max_last5 is None or max_last5 <= cap + RATIO_SLACK

    # explicit recursion: e_{k+1} <= C (e_k/e_0)^{p+1} + q e_k
    p = majorant.p
    coef = (
        theory.omega1
        * (1.0 + theory.vartheta)
        * (1.0 + theory.lam)
        * float(majorant.f(e0) / majorant.fprime(e0) - e0)
    )
    q = _linear_coeff(theory, theory.lam)
    bound = coef * (errors[:-1] / e0) ** (p + 1.0) + q * errors[:-1]
    per_step_ok = bool(np.all(errors[1:] <= bound + ENVELOPE_SLACK))

    ts = majorant_sequence(majorant, theory, theta_bar, e0, len(errors) - 1)
    # a truncated sequence ended at exactly 0; missing tail entries are 0
    ts = np.pad(ts, (0, errors.size - ts.size))
    envelope_ok = bool(np.all(errors <= ts + ENVELOPE_SLACK))

    return RateDiagnostic(
        errors=errors, ratios=ratios, max_ratio_last5=max_last5, ratio_cap=cap,
        ratio_within_cap=ratio_ok, per_step_bound_ok=per_step_ok,
        envelope_ok=envelope_ok,
    )


def _linear_coeff(theory, lam):
    """omega1[(1+vartheta) lam + vartheta] + omega2, the linear-term weight.

    The radii pass theory.lam; the comparison sequence and the ratio cap pass
    sqrt(2 theta).
    """
    return (
        theory.omega1 * ((1.0 + theory.vartheta) * lam + theory.vartheta)
        + theory.omega2
    )


@dataclass
class MkConditionCheck:
    """Diagnostic operator norms of M^{-1} F'(x) and M^{-1} F'(x) - I."""

    norm_inv_jac: float
    norm_inv_jac_minus_identity: float
    within_omega1: bool
    within_omega2: bool


def verify_mk_conditions(M, fprime, theory):
    """Measure how well a model matrix tracks the true Jacobian.

    Computes ||M^{-1} F'|| and ||M^{-1} F' - I|| (exact spectral norms,
    spectral_norm) and flags them against omega1 and omega2.
    Diagnostic only; never gates the iteration. M and fprime may be dense or
    scipy.sparse. Raises LinearSolveFailure for singular M.
    """
    fprime = fprime.toarray() if sparse.issparse(fprime) else np.asarray(fprime, dtype=float)
    B = lu_factor(M).solve(fprime)
    norm_b = spectral_norm(B)
    norm_bi = spectral_norm(B - np.eye(B.shape[0]))
    return MkConditionCheck(
        norm_inv_jac=norm_b,
        norm_inv_jac_minus_identity=norm_bi,
        within_omega1=norm_b <= theory.omega1 + 1e-8,
        within_omega2=norm_bi <= theory.omega2 + 1e-8,
    )


def spectral_norm(A):
    """Largest singular value of A: LAPACK's exact 2-norm, A densified if sparse."""
    A = A.toarray() if sparse.issparse(A) else np.asarray(A, dtype=float)
    return float(np.linalg.norm(A, 2))
