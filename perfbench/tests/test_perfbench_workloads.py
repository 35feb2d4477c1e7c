import dataclasses

import numpy as np
import pytest

import newton_condg as nc
import workloads


@pytest.mark.parametrize("kind", workloads.BOUNDARY_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_boundary_root_is_a_feasible_root_with_an_active_constraint(kind, seed):
    problem, x0 = workloads.boundary_problem(kind, 40, np.random.default_rng(seed))
    fset, root = problem.feasible_set, problem.known_root
    assert fset.contains(root, 1e-12)
    assert fset.contains(x0)
    assert np.abs(problem.fun(root)).max() <= 1e-12
    if kind == "box":
        active = np.any(root == fset.upper) or np.any(root == fset.lower)
    elif kind == "ball":
        active = abs(np.linalg.norm(root - fset.center) - fset.radius) <= 1e-12
    else:
        active = np.any(root == 0.0)
    assert active


def _snapshot(instances):
    return [
        (i.key, i.problem.name, i.x0.tobytes(), i.config,
         None if i.problem.known_root is None else i.problem.known_root.tobytes())
        for i in instances
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_instances(workload):
    first, _ = workloads.build(workload, 5)
    again, _ = workloads.build(workload, 5)
    assert _snapshot(first) == _snapshot(again)


def test_seed_draws_the_boundary_roots():
    a, _ = workloads.build("boundary", 1)
    b, _ = workloads.build("boundary", 2)
    roots = lambda insts: sorted(  # noqa: E731
        i.problem.known_root.tobytes() for i in insts if i.problem.known_root is not None
    )
    assert roots(a) != roots(b)
    assert len(roots(a)) == len(workloads.BOUNDARY_KINDS) * workloads.BOUNDARY_ROOTS


def test_workload_sizes():
    sizes = {w: len(workloads.build(w, 0)[0]) for w in workloads.WORKLOADS}
    assert sizes == {"banded": 15, "dense": 17, "boundary": 11}


def _synthetic_instance():
    problem = nc.make_problem("synthetic_quadratic", 10)
    config = nc.SolverConfig(jacobian_strategy="exact", theta=0.0)
    return workloads.Instance("synthetic", problem, nc.starting_point(problem, 1), config)


def test_check_accepts_an_honest_solve_and_fingerprints_it():
    outcome, report = workloads.run_instance(_synthetic_instance())
    assert outcome.solved and outcome.check_error is None
    assert outcome.fingerprint == (
        f"converged {report.iterations} {report.residual_norms[-1]:.5e}"
    )


def test_check_rejects_wrong_reports():
    inst = _synthetic_instance()
    _, report = workloads.run_instance(inst)

    lied = dataclasses.replace(report, residual_norms=report.residual_norms[:-1] + [0.0])
    assert "reported residual" in workloads.check_output(inst, lied)

    outside = dataclasses.replace(report, iterates=report.iterates + [np.full(10, 3.0)])
    assert "infeasible" in workloads.check_output(inst, outside)

    wrong_root = dataclasses.replace(
        inst, problem=dataclasses.replace(inst.problem, known_root=np.full(10, 0.5))
    )
    assert "known root" in workloads.check_output(wrong_root, report)


def test_a_raising_solve_is_recorded_with_type_and_message():
    inst = _synthetic_instance()

    def broken(x):
        raise RuntimeError("residual unavailable")

    inst = dataclasses.replace(inst, problem=dataclasses.replace(inst.problem, fun=broken))
    outcome, report = workloads.run_instance(inst)
    assert report is None
    assert outcome.status == "raised" and not outcome.solved
    assert outcome.error == "RuntimeError: residual unavailable"
