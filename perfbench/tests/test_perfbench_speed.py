import ast
from pathlib import Path

import pytest

import run
import speed
import workloads


def test_kernel_is_deterministic_and_independent_of_the_library():
    assert speed.Kernel().run() == speed.Kernel().run()
    tree = ast.parse(Path(speed.__file__).read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("newton_condg") for name in imported)


def test_scale_is_one_at_reference_speed_and_follows_the_kernel():
    ref = speed.REFERENCE_S
    assert speed.scale(ref, ref) == pytest.approx(1.0)
    # a machine running at half speed doubles the kernel time and the wall time
    assert speed.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.scale(ref, 3 * ref) == pytest.approx(0.5)


def test_instance_times_take_the_median_reference_speed_time():
    def outcome(wall_s):
        return workloads.Outcome("k", "converged", 1, 0.0, wall_s)

    passes = [
        [(outcome(0.2), 0.5), (outcome(1.0), 1.0)],
        [(outcome(0.1), 1.0), (outcome(2.0), 0.5)],
        [(outcome(0.3), 1.0), (outcome(9.0), 1.0)],
    ]
    assert run.instance_times(passes) == pytest.approx([0.1, 1.0])


def test_harrell_davis_weights_the_values_around_the_quantile():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert run.harrell_davis(values, 0.5) == pytest.approx(3.0)
    assert run.harrell_davis([7.0], 0.9) == pytest.approx(7.0)
    p90 = run.harrell_davis(values, 0.9)
    assert 4.0 < p90 < 5.0
    # the estimate moves with every value near the quantile, not only the one at its rank
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.5, 5.0], 0.5) > 3.0
