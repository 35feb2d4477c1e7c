"""Run the benchmark suite over the four classic problems and print the table.

Covers the finite-difference and sparse-secant (Schubert) variants over the
registry's default dimensions and starting points x0(gamma), gamma = 1, 2, 3,
with the usual protocol: ||F||_inf <= 1e-6, theta = 1e-5, refresh period 5,
at most 300 outer and 300 inner iterations. The table is the CLI's CSV
(problem,n,gamma,method,iters,final_norm_inf,status,wall_ms), because this
script is the CLI sweep:

    newton-condg benchmark --suite paper-core --methods fd,schubert
"""

import sys

from newton_condg import cli

PROTOCOL = [
    "--methods", "fd,schubert", "--gammas", "1,2,3",
    "--tol", "1e-6", "--theta", "1e-5", "--refresh", "5",
    "--max-iter", "300", "--max-condg", "300",
]

sys.exit(cli.main(["benchmark", "--suite", "paper-core", *PROTOCOL]))
