"""Command-line harness: single solves, benchmark sweeps, radius calculators.

Exit codes: 0 on success/convergence, 1 when the solver reports a failure
status, 2 on usage errors. Benchmark CSV columns are fixed as
problem,n,gamma,method,iters,final_norm_inf,status,wall_ms with the residual
in scientific notation (6 significant digits); row order is lexicographic in
(problem, gamma, method), so output bytes are stable apart from the wall_ms
column. A row whose solve raised has status "error"; `solve --format json`
and `solve --trace` also carry the exception as "error": "<type>: <message>".
`solve --format json` also lists the model of every step taken ("exact",
"finite_difference" or "secant") as "models", and the kernel that solved it
("getrf", "sgetrf", "secant", "gttrf", "superlu" or "gmres") as "kernels".
`solve --trace` writes every RunReport field, `steps` as a list of objects,
each with its "model" and "kernel". A --n that make_problem rejects is a
usage error (exit 2) with its message.
Both write strict JSON: a nan or infinite number becomes null.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from .bench import GAMMAS, PAPER_CORE, REGISTRY, SYNTHETIC, make_problem, starting_point
from .core import CONVERGED, LINSOLVE_MODES, AdaptiveEta, ConstantEta, SolverConfig
from .jacobian import EXACT, FINITE_DIFFERENCE, SCHUBERT
from .solver import solve
from .theory import TheoryParams, holder_radius, smale_radius

CSV_HEADER = "problem,n,gamma,method,iters,final_norm_inf,status,wall_ms"

METHOD_TO_STRATEGY = {"exact": EXACT, "fd": FINITE_DIFFERENCE, "schubert": SCHUBERT}

SUITES = {"paper-core": PAPER_CORE, "all": tuple(REGISTRY), "synthetic": SYNTHETIC}


@dataclass
class RunRow:
    """One benchmark-table row; error is the exception of a raised solve,
    models and kernels the model of each step taken and what solved it (not
    CSV columns)."""

    problem: str
    n: int
    gamma: int
    method: str
    iters: int
    final_norm_inf: float
    status: str
    wall_ms: float
    error: Optional[str] = None
    models: list = field(default_factory=list)
    kernels: list = field(default_factory=list)

    def to_csv(self):
        return (
            f"{self.problem},{self.n},{self.gamma},{self.method},{self.iters},"
            f"{self.final_norm_inf:.5e},{self.status},{self.wall_ms:.3f}"
        )


def _parse_eta_policy(text):
    """'constant[:<value>]' or 'adaptive[:<c>[,<eta_max>]]'; an omitted
    number takes the policy's own default."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "constant":
            return ConstantEta(float(rest)) if rest else ConstantEta()
        if kind == "adaptive":
            c, _, eta_max = rest.partition(",")
            if eta_max:
                return AdaptiveEta(float(c), float(eta_max))
            return AdaptiveEta(float(c)) if rest else AdaptiveEta()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad eta policy {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(f"unknown eta policy {text!r}")


def _choice_list(text, allowed):
    """Items of a comma-separated list, which must be non-empty and all allowed."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items or not set(items) <= set(allowed):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of {', '.join(allowed)}: {text!r}"
        )
    return items


def _parse_methods(text):
    """'fd,schubert' -> ['fd', 'schubert']; every method must be a known one."""
    return _choice_list(text, tuple(METHOD_TO_STRATEGY))


def _parse_gammas(text):
    """'1,2,3' -> [1, 2, 3]; every gamma must be one of bench.GAMMAS."""
    return [int(g) for g in _choice_list(text, [str(g) for g in GAMMAS])]


def _config_from_args(args, parser):
    """The one SolverConfig of the solver flags; a value it rejects, such as
    an --eta-policy with --linsolve direct, is a usage error."""
    try:
        return SolverConfig(
            tol_inf=args.tol,
            max_outer=args.max_iter,
            theta=args.theta,
            max_condg=args.max_condg,
            refresh_period=args.refresh,
            linsolve=args.linsolve,
            eta_policy=args.eta_policy,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _run_one(problem_id, n, gamma, method, config):
    """(row, report) of one solve; report is None when the solve raised.

    A ValueError of make_problem (a bad n) propagates, for the caller to
    report as a usage error; anything raised after it makes an "error" row.
    """
    start = time.perf_counter()
    problem = make_problem(problem_id, n)
    try:  # never abort a sweep on one bad row
        x0 = starting_point(problem, gamma)
        config = replace(config, jacobian_strategy=METHOD_TO_STRATEGY[method])
        report = solve(problem, x0, config)
        status = report.status
        iters = report.iterations
        final = report.residual_norms[-1]
        error = None
        models = [step.model for step in report.steps]
        kernels = [step.kernel for step in report.steps]
    except Exception as exc:
        status, iters, final, report, models, kernels = "error", 0, math.nan, None, [], []
        error = f"{type(exc).__name__}: {exc}"
    wall_ms = 1000.0 * (time.perf_counter() - start)
    row = RunRow(
        problem=problem_id, n=problem.n, gamma=gamma, method=method,
        iters=iters, final_norm_inf=final, status=status, wall_ms=wall_ms,
        error=error, models=models, kernels=kernels,
    )
    return row, report


def _strict_json(value):
    """value with every nan or infinite float in it, at any depth, as None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict_json(item) for item in value]
    return value


def _write(text, path):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args, parser):
    config = _config_from_args(args, parser)
    try:
        row, report = _run_one(args.problem, args.n, args.gamma, args.method, config)
    except ValueError as exc:  # make_problem's, as for --n 1
        parser.error(str(exc))
    if args.format == "json":
        text = json.dumps(_strict_json(asdict(row)), indent=2, allow_nan=False) + "\n"
    else:
        text = CSV_HEADER + "\n" + row.to_csv() + "\n"
    _write(text, args.out)
    if args.trace:
        payload = {"status": row.status, "error": row.error}
        if report is not None:
            payload.update(asdict(report), iterates=[it.tolist() for it in report.iterates])
        with open(args.trace, "w") as fh:
            json.dump(_strict_json(payload), fh, allow_nan=False)
    return 0 if row.status == CONVERGED else 1


def suite_runs(suite, methods, gammas):
    """Deterministic (problem, n, gamma, method) grid of a suite named in SUITES."""
    runs = [
        (pid, REGISTRY[pid].default_n, gamma, method)
        for pid in SUITES[suite]
        for gamma in gammas
        for method in methods
    ]
    runs.sort(key=lambda r: (r[0], r[2], r[3]))
    return runs


def cmd_benchmark(args, parser):
    config = _config_from_args(args, parser)
    runs = suite_runs(args.suite, args.methods, args.gammas)
    rows = [_run_one(pid, n, gamma, method, config)[0] for pid, n, gamma, method in runs]

    lines = [CSV_HEADER] + [row.to_csv() for row in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_radius(args, parser):
    try:
        theory = TheoryParams(
            omega1=args.omega1, omega2=args.omega2, vartheta=args.vartheta, lam=args.lam
        )
        if args.kind == "holder":
            if args.K is None or args.p is None:
                parser.error("--kind holder needs --K and --p")
            breakdown = holder_radius(args.K, args.p, theory, kappa=args.kappa)
        else:
            if args.gamma is None:
                parser.error("--kind smale needs --gamma")
            breakdown = smale_radius(args.gamma, theory, kappa=args.kappa)
    except ValueError as exc:
        parser.error(str(exc))
    for label, value in (
        ("nu", breakdown.nu), ("rho", breakdown.rho), ("sigma", breakdown.sigma)
    ):
        sys.stdout.write(f"{label} = {value:.12g}\n")
    return 0


def cmd_list_problems(args, parser):
    for entry in REGISTRY.values():
        box = make_problem(entry.id, 2).feasible_set
        sys.stdout.write(
            f"{entry.id}  n={entry.default_n}  box=[{box.lower[0]:g},{box.upper[0]:g}]"
            f"  {entry.description}\n"
        )
    return 0


def _add_solver_flags(sub):
    sub.add_argument("--tol", type=float, default=SolverConfig.tol_inf)
    sub.add_argument("--max-iter", type=int, default=SolverConfig.max_outer,
                     dest="max_iter")
    sub.add_argument("--theta", type=float, default=SolverConfig.theta)
    sub.add_argument("--max-condg", type=int, default=SolverConfig.max_condg,
                     dest="max_condg")
    sub.add_argument("--refresh", type=int, default=SolverConfig.refresh_period)
    sub.add_argument("--linsolve", choices=LINSOLVE_MODES, default=SolverConfig.linsolve)
    sub.add_argument("--eta-policy", type=_parse_eta_policy, default=None,
                     dest="eta_policy")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="newton-condg",
        description="Constrained nonlinear-system solver and benchmark harness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run one problem instance")
    p_solve.add_argument("--problem", required=True, choices=tuple(REGISTRY),
                         metavar="PROBLEM", help="a registry id, as list-problems prints")
    p_solve.add_argument("--n", type=int, default=None)
    p_solve.add_argument("--gamma", type=int, choices=GAMMAS, default=1)
    p_solve.add_argument("--method", choices=tuple(METHOD_TO_STRATEGY), default="fd")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_solve.add_argument("--trace", default=None,
                         help="write the run's iterates, residuals and steps as JSON")

    p_bench = subs.add_parser("benchmark", help="run a suite and emit a CSV table")
    p_bench.add_argument("--suite", choices=tuple(SUITES), default="paper-core")
    p_bench.add_argument("--methods", type=_parse_methods, default="fd,schubert")
    p_bench.add_argument("--gammas", type=_parse_gammas, default="1,2,3")
    _add_solver_flags(p_bench)
    p_bench.add_argument("--out", default=None)

    p_rad = subs.add_parser("radius", help="convergence-radius calculator")
    p_rad.add_argument("--kind", choices=("holder", "smale"), required=True)
    p_rad.add_argument("--K", type=float, default=None)
    p_rad.add_argument("--p", type=float, default=None)
    p_rad.add_argument("--gamma", type=float, default=None)
    p_rad.add_argument("--omega1", type=float, default=1.0)
    p_rad.add_argument("--omega2", type=float, default=0.0)
    p_rad.add_argument("--vartheta", type=float, default=0.0)
    p_rad.add_argument("--lambda", type=float, default=0.0, dest="lam")
    p_rad.add_argument("--kappa", type=float, default=math.inf)

    subs.add_parser("list-problems", help="enumerate the problem registry")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "benchmark": cmd_benchmark,
        "radius": cmd_radius,
        "list-problems": cmd_list_problems,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
