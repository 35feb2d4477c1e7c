"""Solver benchmark: seeded workloads, end-to-end metrics and a per-layer trace.

    python3 perfbench/run.py --workload {banded,dense,boundary} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src`.
With --trace 0 the run times untraced solves and prints the end-to-end
metrics, its timings scaled to reference speed by the kernel in speed.py. With --trace 1 it alternates untraced and traced passes and prints
the per-layer metrics. Every solve's output is checked either way. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a report for people.
"""

import os

# one BLAS thread, set before numpy is imported here or in a child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORD = HERE / "record.json"

SETUP_PROBES = 7  # fresh processes per run at least; setup_s is their median
SETUP_KERNEL_RUNS = 5  # calibration kernel runs per set-up probe, median taken
MAKE_PROBLEM_BUILDS = 3  # in-process builds; bench.make_problem_s is their median

END_TO_END = {
    "setup_s": "s",
    "solved_per_s": "1/s",
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solver.outer_iters": "count",
    "solver.self_s": "s",
    "problem.fun_calls": "count",
    "problem.fun_s": "s",
    "problem.jac_calls": "count",
    "problem.jac_s": "s",
    "jacobian.builds_exact": "count",
    "jacobian.builds_fd": "count",
    "jacobian.builds_secant": "count",
    "jacobian.fd_s": "s",
    "jacobian.secant_s": "s",
    "jacobian.self_s": "s",
    "jacobian.model_bytes_computed": "B",
    "linsolve.direct_calls": "count",
    "linsolve.lu_calls": "count",
    "linsolve.lu_s": "s",
    "linsolve.lu_flops_computed": "flop",
    "linsolve.gmres_calls": "count",
    "linsolve.gmres_s": "s",
    "linsolve.gmres_contract_met_frac": "frac",
    "linsolve.self_s": "s",
    "condg.calls": "count",
    "condg.inner_iters": "count",
    "condg.cap_hits": "count",
    "condg.certified_frac": "frac",
    "condg.self_s": "s",
    "feasible_set.lmo_calls": "count",
    "feasible_set.lmo_s": "s",
    "feasible_set.contains_calls": "count",
    "feasible_set.contains_s": "s",
    "bench.make_problem_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}
# layer self times must add up to the traced solve wall within this share
COVERAGE_SLACK = 0.02
# spans every traced pass of a workload must record at least once, when
# their layer is hooked: a span that stops being reached means the hook no
# longer sees the calls it is meant to time
_REGISTRY_SPANS = (
    "problem.fun", "problem.jac", "jacobian.fd_jacobian",
    "jacobian.schubert_update", "linsolve.lu_factor", "linsolve.solve_inexact",
    "linsolve.gmres", "condg.condg", "feasible_set.contains",
)
REACHED_SPANS = {
    "banded": _REGISTRY_SPANS,
    "dense": _REGISTRY_SPANS,
    "boundary": (
        "problem.fun", "problem.jac", "jacobian.fd_jacobian",
        "jacobian.schubert_update", "linsolve.lu_factor", "condg.condg",
        "feasible_set.lmo", "feasible_set.contains",
    ),
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="time import and instance generation in this process, print it and exit",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def use_checkout_sources():
    """Import newton_condg from this checkout's src, or exit with an error."""
    if not (SRC / "newton_condg" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no newton_condg sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(workload, seed, import_s):
    """Print the set-up time of this process, the import then the build, and
    the calibration kernel's time measured right after it."""
    import workloads

    t0 = time.perf_counter()
    workloads.build(workload, seed)
    setup_s = import_s + time.perf_counter() - t0
    import speed  # after the timed set-up, which must not include it

    kernel = speed.Kernel()
    kernel.run()
    kernel_s = kernel.time_s(SETUP_KERNEL_RUNS)
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s}))


def probe_setup(workload, seed):
    """Set-up wall time of one fresh process and its reference-speed time."""
    import speed

    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * speed.REFERENCE_S / probe["kernel_s"]


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_passes(run_pass, seconds):
    """Whole passes until `seconds` have elapsed, at least one."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass())
    return passes


def pass_wall(outcomes):
    return sum(o.wall_s for o in outcomes)


def instance_times(passes):
    """Each instance's median reference-speed time over the passes.

    A pass is a list of (Outcome, speed scale) pairs. On a shared 2-core
    virtual machine the speed of a core drifts both ways within seconds;
    there the median of a few passes varied less from one stretch of passes
    to the next than the minimum did.
    """
    return [
        statistics.median(p[i][0].wall_s * p[i][1] for p in passes)
        for i in range(len(passes[0]))
    ]


class Report:
    """Collects the report lines and the verdicts of one run."""

    def __init__(self):
        self.lines = []
        self.problems = []  # reasons the run's outputs are not correct

    def say(self, text):
        self.lines.append(text)

    def fail(self, reason):
        self.problems.append(reason)
        self.say(f"INCORRECT: {reason}")


def harrell_davis(values, p):
    """The Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of the sorted values with Beta((n+1)p, (n+1)(1-p))
    weights, so the estimate does not hinge on the one value that sits at
    the quantile's rank. Across runs of the same code it moved about half
    as much as the plain percentile of the per-instance times.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * v for lo, hi, v in zip(edges[:-1], edges[1:], x)))


def check_passes(report, reference, passes):
    """Every output check passed and every pass repeats the reference fingerprints."""
    want = [o.fingerprint for o in reference]
    for outcomes in passes:
        for o in outcomes:
            if o.check_error is not None:
                report.fail(f"{o.key}: {o.check_error}")
        if [o.fingerprint for o in outcomes] != want:
            report.fail("a pass did not repeat the fingerprints of the first")
            break


def summarize_outcomes(report, outcomes, first):
    """Status histogram, raised solves, fingerprints and drift from the record."""
    hist = Counter(o.status for o in outcomes)
    report.say("statuses: " + ", ".join(f"{k}={v}" for k, v in sorted(hist.items())))
    for o in {o.key: o for o in outcomes if o.error}.values():
        report.say(f"raised: {o.key}: {o.error}")
    record = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    drift, unrecorded = [], 0
    for o in first:
        report.say(f"fingerprint {o.key}: {o.fingerprint}")
        if o.key not in record:
            unrecorded += 1
        elif record[o.key] != o.fingerprint:
            drift.append(f"drift {o.key}: {record[o.key]} -> {o.fingerprint}")
    for line in drift:
        report.say(line)
    report.say(
        f"drift from record: {len(drift)} of {len(first) - unrecorded} recorded"
        f" instances ({unrecorded} without a record)"
    )


def run_end_to_end(args, report):
    import speed
    import workloads

    setup = [probe_setup(args.workload, args.seed)]
    instances, _ = workloads.build(args.workload, args.seed)
    import newton_condg.jacobian
    import newton_condg.solver

    if newton_condg.solver.next_jacobian is not newton_condg.jacobian.next_jacobian:
        report.fail("the untraced run found a hook installed")

    kernel = speed.Kernel()
    kernel.run()

    def run_pass():
        # the calibration kernel runs between solves, outside their timing
        timed = []
        before = kernel.time_s()
        for inst in instances:
            outcome = workloads.run_instance(inst)[0]
            after = kernel.time_s()
            timed.append((outcome, speed.scale(before, after)))
            before = after
        # set-up probes spread over the run, so that a burst of load from
        # other work on the machine reaches few of them
        setup.append(probe_setup(args.workload, args.seed))
        return timed

    warm = [o for o, _ in run_pass()]  # lazy imports and first touches, not timed
    passes = timed_passes(run_pass, args.seconds)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args.workload, args.seed))
    check_passes(report, warm, [[o for o, _ in p] for p in passes])
    outcomes = [o for p in passes for o, _ in p]
    scales = [s for p in passes for _, s in p]
    attempted = len(outcomes)
    solved = sum(o.solved for o in outcomes)
    times = instance_times(passes)
    p50, p90 = (1000.0 * harrell_davis(times, q) for q in (0.5, 0.9))
    raw = [statistics.median(p[i][0].wall_s for p in passes) for i in range(len(instances))]
    raw_p50, raw_p90 = (1000.0 * harrell_davis(raw, q) for q in (0.5, 0.9))
    failed = attempted - solved
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(s for _, s in setup),
        "solved_per_s": sum(o.solved for o in warm) / sum(times),
        "solve_ms.p50": float(p50),
        "solve_ms.p90": float(p90),
        "solved_frac": solved / attempted,
        "peak_rss_mb": rss_mb,
    }
    report.say(
        f"speed: wall time x {statistics.median(scales):.4f} (median; range"
        f" {min(scales):.4f}-{max(scales):.4f}) is reference-speed time, where the"
        f" calibration kernel takes {speed.REFERENCE_S * 1000:g} ms"
    )
    report.say(
        f"setup_s {metrics['setup_s']:.4f} s  reference-speed median of {len(setup)}"
        f" fresh processes, one after each pass: {' '.join(f'{s:.4f}' for _, s in setup)};"
        f" wall median {statistics.median(w for w, _ in setup):.4f} s"
    )
    basis = (f"per-instance median reference-speed time over {len(passes)} passes"
             f" of {len(instances)} solves")
    report.say(
        f"solved_per_s {metrics['solved_per_s']:.4f} 1/s  {basis}; {solved} of"
        f" {attempted} solved in {pass_wall(outcomes):.3f} s of solve wall"
    )
    report.say(f"solve_ms.p50 {p50:.3f} ms  n={attempted}, {basis}; wall {raw_p50:.3f} ms")
    report.say(f"solve_ms.p90 {p90:.3f} ms  n={attempted}, {basis}; wall {raw_p90:.3f} ms")
    report.say(f"failed_frac {failed / attempted:.4f}  {failed} of {attempted} did not"
               " converge, raised or failed the check")
    report.say(f"solved_frac {metrics['solved_frac']:.4f}  {solved} of {attempted}")
    report.say(f"peak_rss_mb {rss_mb:.2f} MB  peak resident set of this process")
    summarize_outcomes(report, outcomes, [o for o, _ in passes[0]])
    raised_or_wrong = sum(o.error is not None or o.check_error is not None
                          for o in outcomes)
    return metrics, END_TO_END, attempted, raised_or_wrong


def layer_metrics(trace, outer_iters):
    """Per-layer metrics of one traced pass (a SolveTrace summed over its solves)."""
    c = trace.counts
    inexact = trace.calls("linsolve.solve_inexact")
    condg_calls = trace.calls("condg.condg")
    return {
        "solver.outer_iters": outer_iters,
        "solver.self_s": trace.layer_self_s("solver"),
        "problem.fun_calls": trace.calls("problem.fun"),
        "problem.fun_s": trace.inclusive_s("problem.fun"),
        "problem.jac_calls": trace.calls("problem.jac"),
        "problem.jac_s": trace.inclusive_s("problem.jac"),
        "jacobian.builds_exact": c["builds_exact"],
        "jacobian.builds_fd": c["builds_fd"],
        "jacobian.builds_secant": c["builds_secant"],
        "jacobian.fd_s": trace.inclusive_s("jacobian.fd_jacobian"),
        "jacobian.secant_s": trace.inclusive_s("jacobian.schubert_update"),
        "jacobian.self_s": trace.layer_self_s("jacobian"),
        "jacobian.model_bytes_computed": c["model_bytes"],
        "linsolve.direct_calls": trace.calls("linsolve.solve_direct"),
        "linsolve.lu_calls": trace.calls("linsolve.lu_factor"),
        "linsolve.lu_s": trace.inclusive_s("linsolve.lu_factor"),
        "linsolve.lu_flops_computed": c["lu_flops"],
        "linsolve.gmres_calls": trace.calls("linsolve.gmres"),
        "linsolve.gmres_s": trace.inclusive_s("linsolve.gmres"),
        # vacuously 1 when the workload makes no inexact solve
        "linsolve.gmres_contract_met_frac": (
            c["inexact_contract_met"] / inexact if inexact else 1.0
        ),
        "linsolve.self_s": trace.layer_self_s("linsolve"),
        "condg.calls": condg_calls,
        "condg.inner_iters": c["condg_inner_iters"],
        "condg.cap_hits": c["condg_cap_hits"],
        "condg.certified_frac": (
            c["condg_certified"] / condg_calls if condg_calls else 1.0
        ),
        "condg.self_s": trace.layer_self_s("condg"),
        "feasible_set.lmo_calls": trace.calls("feasible_set.lmo"),
        "feasible_set.lmo_s": trace.inclusive_s("feasible_set.lmo"),
        "feasible_set.contains_calls": trace.calls("feasible_set.contains"),
        "feasible_set.contains_s": trace.inclusive_s("feasible_set.contains"),
    }


def unreached_spans(workload, traces, unmeasured):
    """Spans of REACHED_SPANS in hooked layers that some trace has no call of."""
    return [
        name for name in REACHED_SPANS[workload]
        if name.split(".", 1)[0] not in unmeasured and any(t.calls(name) == 0 for t in traces)
    ]


def mark_unmeasured(metrics, layers):
    """None for the metrics of unhooked layers and for the self times absorbing them."""
    if not layers:
        return dict(metrics)
    return {
        name: None
        if name.split(".")[0] in layers or name in ("solver.self_s", "trace.coverage_frac")
        else value
        for name, value in metrics.items()
    }


def run_traced(args, report):
    import tracing
    import workloads

    builds = [workloads.build(args.workload, args.seed) for _ in range(MAKE_PROBLEM_BUILDS)]
    make_problem_s = statistics.median(b[1] for b in builds)
    instances = builds[-1][0]
    tracer = tracing.Tracer()

    def untraced_pass():
        return [workloads.run_instance(inst) for inst in instances]

    def traced_pass():
        solve = tracer.traced_solve()
        with tracer.installed():
            problems = {inst.key: tracer.traced_problem(inst.problem) for inst in instances}
            results = []
            for inst in instances:
                tracer.trace = tracing.SolveTrace()
                outcome, solved = workloads.run_instance(inst, problems[inst.key], solve)
                results.append((outcome, solved, tracer.trace))
        return results

    warm = untraced_pass()
    pairs = timed_passes(lambda: (untraced_pass(), traced_pass()), args.seconds)

    # traced solves must compute exactly what untraced ones do
    for (_, traced) in pairs:
        for (_, reference), (out, solved, _) in zip(warm, traced):
            if not workloads.same_history(reference, solved):
                report.fail(f"{out.key}: traced solve differs from the untraced one")
    plain = [[o for o, _ in untraced] for untraced, _ in pairs]
    traced_outcomes = [[o for o, _, _ in traced] for _, traced in pairs]
    check_passes(report, [o for o, _ in warm], plain + traced_outcomes)

    per_pass = []
    for outcomes, (_, traced) in zip(traced_outcomes, pairs):
        total = tracing.SolveTrace()
        for _, _, trace in traced:
            total.add(trace)
        outer = sum(o.iters for o in outcomes)
        metrics = layer_metrics(total, outer)
        layer_self = sum(total.layer_self_s(layer) for layer in tracing.LAYERS)
        metrics["trace.coverage_frac"] = layer_self / pass_wall(outcomes)
        per_pass.append((metrics, total))

    metrics = {}
    for name in per_pass[0][0]:
        values = [m[name] for m, _ in per_pass]
        if PER_LAYER[name] == "s" or name == "trace.coverage_frac":
            metrics[name] = statistics.median(values)
        else:  # counts, and shares of counts, repeat exactly
            if len(set(values)) != 1:
                report.fail(f"{name} differs between traced passes: {sorted(set(values))}")
            metrics[name] = values[0]
    metrics["bench.make_problem_s"] = make_problem_s
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_wall(t) for t in traced_outcomes)
        / statistics.median(pass_wall(p) for p in plain) - 1.0
    )
    metrics = {name: metrics[name] for name in PER_LAYER}

    if tracer.unmeasured:
        report.say("unmeasured layers: " + ", ".join(sorted(tracer.unmeasured)))
        metrics = mark_unmeasured(metrics, tracer.unmeasured)
    coverage = metrics["trace.coverage_frac"]
    if coverage is not None:
        verdict = f"layer self times are {coverage:.4f} of the traced solve wall"
        if abs(coverage - 1.0) <= COVERAGE_SLACK:
            report.say(f"coverage check ok: {verdict}")
        else:
            report.fail(f"coverage check: {verdict}")
    for name in unreached_spans(args.workload, [t for _, t in per_pass], tracer.unmeasured):
        report.fail(f"span {name} was not reached in every traced pass")

    report.say(f"{len(pairs)} traced and {len(pairs)} untraced passes of {len(instances)}")
    first_total = per_pass[0][1]
    report.say(f"condg: at most {first_total.condg_max_inner} inner iterations per call")
    for (outcome, _, trace) in pairs[0][1]:
        report.say(
            f"instance {outcome.key}: {outcome.fingerprint}, fun_calls"
            f" {trace.calls('problem.fun')}, jac_calls {trace.calls('problem.jac')},"
            f" condg calls {trace.calls('condg.condg')} inner"
            f" {trace.counts['condg_inner_iters']} cap_hits {trace.counts['condg_cap_hits']}"
        )
    for name, value in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        report.say(f"{name} {shown} {PER_LAYER[name]}")
    outcomes = [o for p in traced_outcomes for o in p]
    summarize_outcomes(report, outcomes, traced_outcomes[0])
    raised_or_wrong = sum(o.error is not None or o.check_error is not None
                          for o in outcomes)
    return metrics, PER_LAYER, len(outcomes), raised_or_wrong


def main(argv=None):
    t0 = time.perf_counter()
    use_checkout_sources()
    import workloads  # and with it newton_condg and numpy

    import_s = time.perf_counter() - t0
    args = parse_args(argv, workloads.WORKLOADS)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, import_s)
        return 0
    report = Report()
    report.say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
               f" trace {args.trace}")
    report.say("env " + json.dumps(environment(), sort_keys=True))
    measure = run_traced if args.trace else run_end_to_end
    metrics, units, attempted, failed = measure(args, report)
    for line in report.lines:
        print(line)
    result = {
        "correct": not report.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
