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

from newton_condg import Box, EuclideanBall, Simplex, make_problem, next_jacobian
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
