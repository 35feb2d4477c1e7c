import json
from pathlib import Path

import pytest

import newton_condg as nc
import newton_condg.linsolve
import newton_condg.solver
import run
import tracing
import workloads


def _originals():
    import newton_condg.jacobian

    return [
        newton_condg.solver.next_jacobian, newton_condg.solver.solve_direct,
        newton_condg.solver.condg, newton_condg.linsolve.lu_factor,
        newton_condg.jacobian.fd_jacobian, nc.Box.lmo, nc.Simplex.contains,
    ]


def _traced_runs(tracer, instances):
    solve = tracer.traced_solve()
    with tracer.installed():
        out = []
        for inst in instances:
            tracer.trace = tracing.SolveTrace()
            outcome, report = workloads.run_instance(
                inst, tracer.traced_problem(inst.problem), solve
            )
            out.append((outcome, report, tracer.trace))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_solves_are_bit_identical(workload):
    instances, _ = workloads.build(workload, 3)
    plain = [workloads.run_instance(inst) for inst in instances]
    tracer = tracing.Tracer()
    traced = _traced_runs(tracer, instances)
    total = tracing.SolveTrace()
    for (outcome, report), (t_outcome, t_report, trace) in zip(plain, traced):
        assert report is not None and t_report is not None, outcome.key
        assert workloads.same_history(report, t_report), outcome.key
        assert trace.calls("problem.fun") >= 1
        total.add(trace)
    assert run.unreached_spans(workload, [total], tracer.unmeasured) == []


def test_unreached_spans_skip_unmeasured_layers():
    empty = tracing.SolveTrace()
    assert run.unreached_spans("boundary", [empty], set()) == list(run.REACHED_SPANS["boundary"])
    assert "feasible_set.lmo" not in run.unreached_spans("boundary", [empty], {"feasible_set"})


def test_hooks_are_removed_after_the_block():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert newton_condg.solver.next_jacobian is not before[0]
    assert _originals() == before


def test_missing_hook_marks_its_layer_unmeasured():
    hooks = tracing.FUNCTION_HOOKS + (
        ("newton_condg.solver", "renamed_away", "jacobian.renamed_away"),
        ("newton_condg.no_such_module", "anything", "condg.anything"),
    )
    tracer = tracing.Tracer(function_hooks=hooks)
    problem = nc.make_problem("synthetic_linear", 20)
    inst = workloads.Instance(
        "linear", problem, nc.starting_point(problem, 1),
        nc.SolverConfig(jacobian_strategy="finite_difference"),
    )
    ((outcome, _, trace),) = _traced_runs(tracer, [inst])
    assert outcome.solved
    assert tracer.unmeasured == {"jacobian", "condg"}
    assert trace.calls("jacobian.fd_jacobian") == outcome.iters

    metrics = run.layer_metrics(trace, outcome.iters)
    metrics["trace.coverage_frac"] = 1.0
    marked = run.mark_unmeasured(metrics, tracer.unmeasured)
    assert marked["jacobian.fd_s"] is None and marked["condg.calls"] is None
    assert marked["solver.self_s"] is None and marked["trace.coverage_frac"] is None
    assert marked["problem.fun_calls"] == metrics["problem.fun_calls"]


def test_counts_match_what_the_solver_does():
    # fd on a 20-dimensional problem: one residual per iterate, and a base
    # plus 20 perturbed residuals per Jacobian; one LU and one CondG call per step
    problem = nc.make_problem("synthetic_linear", 20)
    inst = workloads.Instance(
        "linear", problem, nc.starting_point(problem, 1),
        nc.SolverConfig(jacobian_strategy="finite_difference"),
    )
    tracer = tracing.Tracer()
    ((outcome, report, trace),) = _traced_runs(tracer, [inst])
    k = outcome.iters
    metrics = run.layer_metrics(trace, k)
    assert metrics["problem.fun_calls"] == (k + 1) + 21 * k
    assert metrics["jacobian.builds_fd"] == k
    assert metrics["linsolve.lu_calls"] == k
    assert metrics["linsolve.lu_flops_computed"] == pytest.approx(k * 2 * 20 ** 3 / 3)
    assert metrics["jacobian.model_bytes_computed"] == k * 20 * 20 * 8
    assert metrics["condg.calls"] == len(report.condg_iters)
    assert metrics["condg.inner_iters"] == sum(report.condg_iters)
    self_total = sum(trace.layer_self_s(layer) for layer in tracing.LAYERS)
    assert self_total == pytest.approx(trace.inclusive_s(tracing.ROOT_SPAN))


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.REACHED_SPANS) == set(workloads.WORKLOADS)
