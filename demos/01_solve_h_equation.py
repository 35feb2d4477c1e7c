"""Solve the Chandrasekhar H-equation (n = 400, box [0, 5]) and watch the run.

The outer iteration builds a finite-difference Jacobian, solves the Newton
system, and hands the step to the conditional-gradient procedure so every
iterate stays inside the box. Each row prints the record of the step taken
from x_k: ||s_k||, the achieved linear-solve residual eta_used (rounding
level for a direct solve) and CondG's inner iterations.
"""

import numpy as np

from newton_condg import SolverConfig, make_problem, solve, starting_point

problem = make_problem("pb1_h_equation", 400)
x0 = starting_point(problem, gamma=1)  # l + 0.25 (u - l) = 1.25 * ones

config = SolverConfig(
    tol_inf=1e-6,
    theta=1e-5,
    jacobian_strategy="finite_difference",
    linsolve="direct",
)
report = solve(problem, x0, config)

print(f"status: {report.status} after {report.iterations} outer iterations\n")
print(f"{'k':>3}  {'||F(x_k)||_inf':>14}  {'||s_k||':>10}  {'eta_used':>10}  {'inner':>5}")
for k, res in enumerate(report.residual_norms):
    row = f"{k:3d}  {res:14.3e}"
    if k < len(report.steps):  # the last iterate takes no step
        step = report.steps[k]
        row += f"  {step.step_norm:10.3e}  {step.eta_used:10.3e}  {step.inner_iters:5d}"
    print(row)

x = report.x
print(f"\nfinal iterate range: [{x.min():.6f}, {x.max():.6f}] (interior of [0, 5])")
print(f"feasible: {problem.feasible_set.contains(x, 1e-12)}")
