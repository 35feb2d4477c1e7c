"""The library names that perfbench/tracing.py hooks by name still exist.

A hook whose target is renamed or gone marks its layer "unmeasured" in the
benchmark instead of failing, so these checks keep the contract in tier-1.
The tracer module is only read here: no hook is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from newton_condg import Box, EuclideanBall, Simplex, linsolve, make_problem, next_jacobian
from newton_condg.jacobian import CSRModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
