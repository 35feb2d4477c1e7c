"""Seeded workloads of the solver benchmark and the check of every solve.

Every instance is built through the public newton_condg API: registry
problems come from `make_problem`/`starting_point`, and the `boundary`
problems are assembled here from `Problem` and the `Box`, `EuclideanBall`
and `Simplex` feasible sets. The seed fixes the instance order of a pass and
draws the roots of the `boundary` problems; nothing else depends on it.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import newton_condg as nc

WORKLOADS = ("banded", "dense", "boundary")

METHODS = {"exact": "exact", "fd": "finite_difference", "schubert": "schubert"}

BOUNDARY_N = 200
BOUNDARY_KINDS = ("box", "ball", "simplex")
# Three roots per set: the outer iteration count of the failing box and
# simplex solves moves by a few steps from root to root, and averaging three
# keeps the per-seed pass time steady.
BOUNDARY_ROOTS = 3

# feasibility slack of the output check; iterates are convex combinations of
# feasible points, so only rounding separates them from the set
FEASIBILITY_TOL = 1e-9
# a converged boundary solve must land this close (max norm) to the known
# root; the operator A has smallest eigenvalue above 2, so tol_inf = 1e-6
# puts the iterate well inside this distance
ROOT_TOL = 1e-5


@dataclass(frozen=True)
class Instance:
    """One solve: a problem, its starting point and the solver configuration."""

    key: str
    problem: nc.Problem
    x0: np.ndarray
    config: nc.SolverConfig


@dataclass
class Outcome:
    """What one solve returned, how long it took, and whether it checked out.

    status is the solver's status, or "raised" when solve threw; error then
    holds the exception type and message. check_error names the first failed
    output check. solved means converged and every check passed.
    """

    key: str
    status: str
    iters: int
    final_norm_inf: float
    wall_s: float
    error: Optional[str] = None
    check_error: Optional[str] = None

    @property
    def solved(self):
        return self.status == nc.CONVERGED and self.check_error is None

    @property
    def fingerprint(self):
        """status, iterations and final residual in the CLI's %.5e format."""
        return f"{self.status} {self.iters} {self.final_norm_inf:.5e}"


def _registry_instance(problems, pid, n, gamma, method, eta_policy=None):
    problem = problems[(pid, n)]
    linsolve = "direct" if eta_policy is None else "inexact"
    config = nc.SolverConfig(
        jacobian_strategy=METHODS[method], linsolve=linsolve, eta_policy=eta_policy
    )
    key = f"{pid}/n{n}/g{gamma}/{method}/{linsolve}"
    return Instance(key, problem, nc.starting_point(problem, gamma), config)


def _registry_specs(workload):
    """(problem id, n, gamma, method, eta policy) of a workload's registry solves."""
    if workload == "banded":
        specs = [
            (pid, 500, gamma, method, None)
            for pid in ("pb2_discrete_boundary", "pb3_troesch")
            for gamma in (1, 2, 3)
            for method in ("fd", "schubert")
        ]
        specs += [
            ("pb2_discrete_boundary", 2000, 1, "exact", None),
            ("pb3_troesch", 2000, 1, "exact", None),
            ("pb3_troesch", 500, 1, "fd", nc.ConstantEta(0.1)),
        ]
        return specs
    if workload == "dense":
        # pb1 at gamma=3 needs up to 6 CondG iterations per step; it runs in
        # `boundary`, so that CondG does one iteration per step here
        specs = [
            (pid, n, gamma, method, None)
            for pid, n, gammas in (
                ("pb1_h_equation", 400, (1, 2)),
                ("pb4_discrete_integral", 1000, (1, 2, 3)),
            )
            for gamma in gammas
            for method in ("exact", "fd", "schubert")
        ]
        specs += [
            ("pb1_h_equation", 400, 1, "exact", nc.AdaptiveEta()),
            ("pb4_discrete_integral", 1000, 1, "exact", nc.AdaptiveEta()),
        ]
        return specs
    if workload == "boundary":
        return [
            ("pb1_h_equation", 400, 3, "exact", None),
            ("pb1_h_equation", 400, 3, "schubert", None),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def tridiagonal_operator(n):
    """A = tridiag(-1, 4, -1), dense."""
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = 4.0
    A[idx[:-1], idx[:-1] + 1] = -1.0
    A[idx[1:], idx[1:] - 1] = -1.0
    return A


def boundary_problem(kind, n, rng):
    """F(x) = A(x - r) + (x - r)*(x - r)/2 with a root r on the boundary of the set.

    kind "box": r in [0, 1]^n with half its coordinates at the upper bound;
    "ball": r on the unit sphere; "simplex": r on a face of the unit simplex
    with half its coordinates zero. Returns the problem (with known_root r)
    and a feasible starting point at the centre of the set.
    """
    A = tridiagonal_operator(n)
    half = n // 2
    if kind == "box":
        root = rng.uniform(0.1, 0.9, n)
        root[rng.choice(n, half, replace=False)] = 1.0
        fset = nc.Box(np.zeros(n), np.ones(n))
        x0 = np.full(n, 0.5)
    elif kind == "ball":
        root = rng.standard_normal(n)
        root /= np.linalg.norm(root)
        fset = nc.EuclideanBall(np.zeros(n), 1.0)
        x0 = np.zeros(n)
    elif kind == "simplex":
        weights = rng.uniform(0.5, 1.5, half)
        root = np.zeros(n)
        root[rng.choice(n, half, replace=False)] = weights / weights.sum()
        fset = nc.Simplex(n)
        x0 = np.full(n, 1.0 / n)
    else:
        raise ValueError(f"unknown boundary kind {kind!r}")

    def fun(x):
        d = x - root
        return A @ d + 0.5 * d * d

    def jac(x):
        return A + np.diag(x - root)

    problem = nc.Problem(
        name=f"boundary_{kind}", n=n, fun=fun, jac=jac, feasible_set=fset,
        known_root=root,
    )
    return problem, x0


def build(workload, seed):
    """The workload's instances in the seeded pass order.

    Returns (instances, make_problem_s), the second being the time spent in
    the library's make_problem.
    """
    specs = _registry_specs(workload)
    problems = {}
    make_problem_s = 0.0
    for pid, n, *_ in specs:
        if (pid, n) not in problems:
            t0 = time.perf_counter()
            problems[(pid, n)] = nc.make_problem(pid, n)
            make_problem_s += time.perf_counter() - t0
    instances = [_registry_instance(problems, *spec) for spec in specs]
    rng = np.random.default_rng(seed)
    if workload == "boundary":
        config = nc.SolverConfig(jacobian_strategy="exact")
        for kind in BOUNDARY_KINDS:
            for i in range(BOUNDARY_ROOTS):
                problem, x0 = boundary_problem(kind, BOUNDARY_N, rng)
                key = f"{kind}/n{BOUNDARY_N}/seed{seed}/root{i}"
                instances.append(Instance(key, problem, x0, config))
    order = rng.permutation(len(instances))
    return [instances[i] for i in order], make_problem_s


def check_output(instance, report):
    """Name the first output check the report fails, or None.

    Every solve must end at a feasible iterate whose recomputed max-norm
    residual is the one reported. A converged solve must also meet tol_inf
    and, when the root is known, lie within ROOT_TOL of it.
    """
    problem = instance.problem
    x = report.x
    if not problem.feasible_set.contains(x, FEASIBILITY_TOL):
        return "final iterate is infeasible"
    residual = float(np.abs(problem.fun(x)).max())
    reported = report.residual_norms[-1]
    if not math.isclose(residual, reported, rel_tol=1e-12, abs_tol=0.0):
        return f"reported residual {reported:.5e} but F(x) gives {residual:.5e}"
    if report.status != nc.CONVERGED:
        return None
    if not residual <= instance.config.tol_inf:
        return f"converged with residual {residual:.5e} above tol_inf"
    if problem.known_root is not None:
        dist = float(np.abs(x - problem.known_root).max())
        if not dist <= ROOT_TOL:
            return f"converged {dist:.3e} away from the known root"
    return None


def same_history(a, b):
    """True when two reports hold bit-identical iterates and residual histories."""
    if a is None or b is None:
        return a is b
    return (
        a.status == b.status
        and a.residual_norms == b.residual_norms
        and len(a.iterates) == len(b.iterates)
        and all(np.array_equal(x, y) for x, y in zip(a.iterates, b.iterates))
    )


def run_instance(instance, problem=None, solve=nc.solve):
    """Solve one instance, time the solve alone, then check its output.

    The traced run passes a copy of the problem with wrapped callbacks and a
    wrapped solve; the check always uses the instance's own problem.
    Returns (Outcome, RunReport or None).
    """
    problem = instance.problem if problem is None else problem
    t0 = time.perf_counter()
    try:
        report = solve(problem, instance.x0, instance.config)
    except Exception as exc:  # a raising solve is recorded, not fatal
        wall = time.perf_counter() - t0
        outcome = Outcome(
            instance.key, "raised", 0, math.nan, wall,
            error=f"{type(exc).__name__}: {exc}",
        )
        return outcome, None
    wall = time.perf_counter() - t0
    outcome = Outcome(
        instance.key, report.status, report.iterations,
        float(report.residual_norms[-1]), wall,
        check_error=check_output(instance, report),
    )
    return outcome, report
