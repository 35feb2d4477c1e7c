"""The conditional-gradient step: the Frank-Wolfe loop and the exact projection.

A box, a ball and a simplex each have an exact Euclidean projection, which
condg takes in one step and certifies with one call of the
linear-minimization oracle (LMO). A set that exposes only its LMO runs the
Frank-Wolfe loop instead; the view below hides the box's projection to show
it. Either way a "gap" return with threshold eps lands within sqrt(2 eps) of
the exact projection.
"""

import numpy as np

from newton_condg import Box, EuclideanBall, FeasibleSet, Simplex, condg, wolfe_gap
from newton_condg.condg import PROJECTION_GAP_RTOL


class LmoOnly(FeasibleSet):
    """The box through its LMO alone: no project, so condg runs the loop."""

    def __init__(self, inner):
        self.inner, self.n = inner, inner.n

    def lmo(self, d):
        return self.inner.lmo(d)

    def contains(self, x, tol=0.0):
        return self.inner.contains(x, tol)

    def sample(self, rng):
        return self.inner.sample(rng)


rng = np.random.default_rng(0)
box = Box(lower=np.zeros(8), upper=np.ones(8))
x = box.sample(rng)

# a point outside the box in every coordinate projects onto a vertex
y = np.where(rng.integers(0, 2, 8) == 1, 1.0 + rng.uniform(1, 5, 8),
             -rng.uniform(1, 5, 8))
res = condg(LmoOnly(box), y, x, eps=0.0, cap=300)
print("Frank-Wolfe loop, all-outside point:")
print(f"  inner iterations: {res.inner_iters}, terminated by {res.terminated_by}")
print(f"  ||z - clip(y)|| = {np.linalg.norm(res.z - box.project(y)):.3e}\n")

# mixed coordinates need many loop iterations; the certificate still holds
y = rng.uniform(-0.5, 1.5, 8)
print("Frank-Wolfe loop, mixed point, shrinking eps:")
print(f"{'eps':>8}  {'inner':>6}  {'||z - P(y)||':>12}  {'sqrt(2 eps)':>12}  {'gap':>10}")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    res = condg(LmoOnly(box), y, x, eps, cap=100000)
    dist = np.linalg.norm(res.z - box.project(y))
    print(f"{eps:8.0e}  {res.inner_iters:6d}  {dist:12.3e}  {np.sqrt(2 * eps):12.3e}"
          f"  {res.final_gap:10.2e}")

print(f"\nWolfe gap at the exact projection: {wolfe_gap(box, y, box.project(y)):.2e}")
print(f"Wolfe gap at a random feasible z:  {wolfe_gap(box, y, box.sample(rng)):.2e}\n")

# the sets' own projections: one step, certified by one LMO call at eps = 0;
# the computed gap is zero up to rounding, which the allowance absorbs
print("exact projection, certified at eps = 0:")
print(f"{'set':>18}  {'inner':>5}  {'gap':>10}  {'allowance':>10}  {'stopped by':>10}")
for name, fset in (("box", box), ("ball", EuclideanBall(np.zeros(8), 1.0)),
                   ("simplex, scale 1e6", Simplex(8, 1e6))):
    y = fset.sample(rng) + 3.0 * rng.standard_normal(8) * np.abs(fset.sample(rng)).max()
    res = condg(fset, y, fset.sample(rng), eps=0.0, cap=300)
    d = res.z - y
    u = fset.lmo(d)
    allowance = PROJECTION_GAP_RTOL * np.linalg.norm(d) * (
        np.linalg.norm(u) + np.linalg.norm(res.z))
    print(f"{name:>18}  {res.inner_iters:5d}  {res.final_gap:10.2e}  {allowance:10.2e}"
          f"  {res.terminated_by:>10}")
