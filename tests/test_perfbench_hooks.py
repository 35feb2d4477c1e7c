"""The library names that perfbench/tracing.py hooks by name still exist,
and the spans it charges them with still measure what their names say.

A hook whose target is renamed or gone marks its layer "unmeasured" in the
benchmark instead of failing, so these checks keep the contract in tier-1.
The perfbench modules are only read here, never edited; the last test
installs the tracer's hooks for one pass of each workload.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from scipy import sparse

from newton_condg import Box, EuclideanBall, Simplex, linsolve, make_problem, next_jacobian
from newton_condg.linsolve import CSRModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _perfbench("tracing")


def test_function_hook_targets_are_callable():
    hooks = _tracing().FUNCTION_HOOKS
    assert hooks
    for module_name, attr, span in hooks:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{span}: {module_name}.{attr} is not callable"


@pytest.mark.parametrize("cls", [Box, EuclideanBall, Simplex])
def test_method_hooks_are_defined_on_every_built_in_set(cls):
    for attr, span in _tracing().METHOD_HOOKS:
        assert attr in vars(cls), f"{span}: {cls.__name__}.{attr} is not defined"


@pytest.mark.parametrize("pid", ["pb1_h_equation", "pb3_troesch"])
@pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
def test_models_report_nbytes(pid, strategy):
    # the tracer reads next_jacobian(...).M.nbytes for the model-bytes count
    # and args[0].shape of lu_factor; FD and Schubert models of a pattern are
    # copies of one template, and must report both as a constructed CSRModel does
    p = make_problem(pid, 20)
    x = p.feasible_set.sample(np.random.default_rng(0))
    s = 1e-3 * x
    step = (s, p.fun(x + s) - p.fun(x))
    first = next_jacobian(None, 0, p, x, strategy)
    second = next_jacobian(first, 2, p, x + s, strategy, step=step)
    for M in (first.M, second.M):
        assert M.nbytes > 0
        assert M.shape == (20, 20)
        if p.pattern is not None and strategy != "exact":
            assert isinstance(M, CSRModel)
            built = CSRModel((M.data, M.indices, M.indptr), shape=M.shape)
            assert M.nbytes == built.nbytes


def test_refined_dense_solve_keeps_the_tracer_spans_apart(monkeypatch):
    # the tracer charges linsolve.lu_s to lu_factor, which it hooks by name
    # with the model as args[0]; refinement must run after lu_factor returns,
    # in solve_direct, so that lu_s stays the factorization alone
    hooks = {(module, attr) for module, attr, _span in _tracing().FUNCTION_HOOKS}
    assert ("newton_condg.linsolve", "lu_factor") in hooks
    assert ("newton_condg.linsolve", "solve_direct") in hooks
    factored, refined = [], []  # the models lu_factor got; where each sgetrs ran
    inside = []
    lu_factor, sgetrs = linsolve.lu_factor, linsolve.sgetrs

    def hooked_lu_factor(*args):
        factored.append(args[0])
        inside.append(True)
        try:
            return lu_factor(*args)
        finally:
            inside.pop()

    def counted_sgetrs(*args, **kwargs):
        refined.append(bool(inside))
        return sgetrs(*args, **kwargs)

    monkeypatch.setattr(linsolve, "lu_factor", hooked_lu_factor)
    monkeypatch.setattr(linsolve, "sgetrs", counted_sgetrs)
    n = linsolve.MIXED_MIN_N
    rng = np.random.default_rng(0)
    M = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    out = linsolve.solve_direct(M, rng.standard_normal(n))
    assert out.eta_used < 1e-14
    assert len(factored) == 1 and factored[0] is M
    assert refined and not any(refined)  # every float32 solve ran outside lu_factor


@pytest.mark.parametrize("workload", ["banded", "dense", "boundary"])
def test_lu_s_is_the_factorization_on_every_workload(monkeypatch, workload):
    # the tracer's linsolve.lu_s is the time inside the hooked lu_factor. Every
    # factorization kernel must run there: gttrf for a dense model that is
    # tridiagonal by value, else getrf below MIXED_MIN_N and sgetrf from it
    # on (then getrf only when a float32 pivot is too small), gttrf or
    # SuperLU for a sparse model. Every solve, and a getrf that a solve
    # derives, must run after it returns. On dense only the exact rows run:
    # the FD and Schubert rows factorize models of the same orders.
    workloads = _perfbench("workloads")
    factorizations = []  # (model, float32 factors kept, kernels run inside)
    calls = [[]]  # calls[0]: kernels run outside lu_factor; calls[-1]: the current ones
    lu_factor = linsolve.lu_factor

    def hooked_lu_factor(*args):
        calls.append([])
        try:
            factors = lu_factor(*args)
        finally:
            inside = calls.pop()
        factorizations.append((args[0], getattr(factors, "lu32", None) is not None, inside))
        return factors

    def counted(name, kernel):
        def call(*args, **kwargs):
            calls[-1].append(name)
            return kernel(*args, **kwargs)
        return call

    monkeypatch.setattr(linsolve, "lu_factor", hooked_lu_factor)
    for name in ("sgetrf", "sgetrs", "dgttrf", "dgttrs", "splu"):
        monkeypatch.setattr(linsolve, name, counted(name, getattr(linsolve, name)))
    monkeypatch.setattr(linsolve, "dgetrf", counted("getrf", linsolve.dgetrf))
    instances, _ = workloads.build(workload, seed=0)
    for instance in instances:
        if workload != "dense" or "/exact/" in instance.key:
            outcome, _report = workloads.run_instance(instance)
            assert outcome.solved, outcome.key
    for M, kept, inside in factorizations:
        if sparse.issparse(M):
            assert inside in (["dgttrf"], ["splu"])
        elif M.shape[0] >= 3 and not np.triu(M, 2).any() and not np.tril(M, -2).any():
            assert inside == ["dgttrf"]
        elif M.shape[0] < linsolve.MIXED_MIN_N:
            assert inside == ["getrf"]
        else:
            assert inside == (["sgetrf"] if kept else ["sgetrf", "getrf"])
    assert set(calls[0]) <= {"sgetrs", "getrf", "dgttrs"}
    orders = {M.shape[0] for M, _kept, _inside in factorizations if not sparse.issparse(M)}
    assert bool(orders) == (workload != "banded")
    assert any(n >= linsolve.MIXED_MIN_N for n in orders) == ("sgetrs" in calls[0])
    # the tridiagonal pb2 and pb3 rows of banded, and the dense tridiagonal
    # box, ball and simplex models of boundary, factorize with gttrf
    assert any(inside == ["dgttrf"] for _M, _kept, inside in factorizations) == (
        workload in ("banded", "boundary")
    )


# dense rows that reach every span of REACHED_SPANS["dense"] (a Schubert
# solve: residuals, FD, secant updates, LU; an inexact solve: the analytic
# Jacobian and GMRES; both: CondG and contains) without pb4's n = 1000 builds
DENSE_TRACED_ROWS = (
    "pb1_h_equation/n400/g1/schubert/direct",
    "pb1_h_equation/n400/g1/exact/inexact",
)


@pytest.mark.parametrize("workload", ["banded", "dense", "boundary"])
def test_traced_pass_reaches_every_required_span(monkeypatch, workload):
    # run.py --trace 1 reports INCORRECT when a span of REACHED_SPANS gets no
    # call in a traced pass, which is what a solver path that bypasses a
    # hooked name looks like; this runs the same tracer over one pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; restored after
    required = _perfbench("run").REACHED_SPANS[workload]
    tracing, workloads = _tracing(), _perfbench("workloads")
    instances, _ = workloads.build(workload, seed=0)
    if workload == "dense":
        instances = [inst for inst in instances if inst.key in DENSE_TRACED_ROWS]
        assert len(instances) == len(DENSE_TRACED_ROWS)
    tracer = tracing.Tracer()
    solve = tracer.traced_solve()
    with tracer.installed():
        for instance in instances:
            problem = tracer.traced_problem(instance.problem)
            outcome, _report = workloads.run_instance(instance, problem, solve)
            assert outcome.error is None and outcome.check_error is None, outcome.key
    assert not tracer.unmeasured
    unreached = [span for span in required if tracer.trace.calls(span) == 0]
    assert not unreached, f"{workload}: spans not reached: {unreached}"
