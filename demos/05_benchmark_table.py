"""Run the benchmark suite over the four classic problems and print one slice.

Covers the finite-difference and sparse-secant (Schubert) variants over the
registry's default dimensions from the starting point x0(gamma) with
gamma = 1, with the usual protocol: ||F||_inf <= 1e-6, theta = 1e-5, refresh
period 5, at most 300 outer and 300 inner iterations. The table is the CLI's
CSV (problem,n,gamma,method,iters,final_norm_inf,status,wall_ms), because
this script is the CLI sweep:

    newton-condg benchmark --suite paper-core --methods fd,schubert --gammas 1

The full sweep over gamma = 1, 2, 3 and the exact method as well is
recorded in tests/data/paper_core.csv and checked, row for row, by
tests/test_paper_core_table.py:

    newton-condg benchmark --suite paper-core --methods exact,fd,schubert --gammas 1,2,3
"""

import sys

from newton_condg import cli

PROTOCOL = [
    "--methods", "fd,schubert", "--gammas", "1",
    "--tol", "1e-6", "--theta", "1e-5", "--refresh", "5",
    "--max-iter", "300", "--max-condg", "300",
]

sys.exit(cli.main(["benchmark", "--suite", "paper-core", *PROTOCOL]))
