"""The paper-core sweep keeps its recorded iters, status and final residual.

tests/data/paper_core.csv holds columns 1-7 (every column but wall_ms) of

    newton-condg benchmark --suite paper-core --methods exact,fd,schubert --gammas 1,2,3

run with one BLAS thread. A change that moves any of them, even in the last
printed digit of a residual, fails here, names every moved row as
`problem,n,gamma,method: old -> new`, and has to explain itself. The sweep
runs in a subprocess pinned to one BLAS thread, because a threaded dense LU
rounds differently: on a 2-core machine the default thread count moves the
last digits of several pb1 and pb4 residuals. The table is exact for the
floating-point kernels it was recorded with; another CPU family may round
differently.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "paper_core.csv"
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rows(table):
    """{"problem,n,gamma,method": "iters,final_norm_inf,status"} of a table."""
    return {
        ",".join(fields[:4]): ",".join(fields[4:])
        for fields in (line.split(",") for line in table.splitlines())
    }


def test_paper_core_sweep_matches_the_recorded_table():
    env = dict(os.environ, **{name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-m", "newton_condg", "benchmark", "--suite", "paper-core",
         "--methods", "exact,fd,schubert", "--gammas", "1,2,3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    table = "".join(
        ",".join(line.split(",")[:7]) + "\n" for line in result.stdout.splitlines()
    )
    recorded, swept = _rows(TABLE.read_text()), _rows(table)
    moved = [
        f"{key}: {recorded.get(key)} -> {swept.get(key)}"
        for key in {**recorded, **swept}
        if recorded.get(key) != swept.get(key)
    ]
    assert not moved, "rows moved from the recorded table:\n" + "\n".join(moved)
    assert table == TABLE.read_text()  # also the same rows in the same order
