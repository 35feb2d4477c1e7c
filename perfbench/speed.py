"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of a core drifts both ways, by up to
1.6x over minutes and by 10-20% within seconds, and every kind of work
drifts with it: interpreted Python and small LAPACK factorizations slow
down by similar factors, memory-bound dense products by somewhat less.
Wall times taken a few minutes apart therefore disagree by more than any
optimisation worth measuring.

`Kernel` is a fixed kernel made of the same three kinds of work the
solver does, with no call into newton_condg, so no change to the library
can change it. Its mix (mostly interpreted loop and LU, a little
memory-bound product) is the one whose time tracked the solves of all
three workloads best. A solve's wall time times `REFERENCE_S / kernel time`
measured around it is its wall time on a machine where the kernel takes
REFERENCE_S: "reference-speed" time. A change that makes a solve faster
lowers it by the same factor as it lowers the wall time.
"""

import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# the kernel's typical wall time on a 2-vCPU Intel Xeon (Sapphire Rapids)
# KVM guest with one BLAS thread; reference-speed times are close to wall
# times there
REFERENCE_S = 0.0075


class Kernel:
    """A fixed mix of interpreted loop, LU factorization and dense products."""

    def __init__(self):
        rng = np.random.default_rng(20170522)
        self.v = rng.standard_normal(200)
        self.w = rng.standard_normal(200)
        self.lu_matrix = rng.standard_normal((400, 400)) + 20.0 * np.eye(400)
        self.rhs = rng.standard_normal(400)
        self.big = rng.standard_normal((1000, 1000))
        self.x = rng.standard_normal(1000)

    def run(self):
        # a CondG-like loop of small vector operations
        w = self.w.copy()
        for _ in range(180):
            d = self.v - w
            i = int(np.argmax(np.abs(d)))
            w = w + (0.01 + 1e-3 * i / 200.0) * d / (1.0 + float(d @ d))
        # a direct solve of the size the solver factorizes
        sol = lu_solve(lu_factor(self.lu_matrix), self.rhs)
        # memory-bound products with an 8 MB matrix
        y = self.x
        for _ in range(2):
            y = self.big @ y
            y /= np.abs(y).max()
        return float(w[0] + sol[0] + y[0])

    def time_s(self, runs=3):
        """Median wall time of `runs` runs of the kernel."""
        walls = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self.run()
            walls.append(time.perf_counter() - t0)
        return statistics.median(walls)


def scale(before_s, after_s):
    """Factor turning a wall time into reference-speed time.

    before_s and after_s are kernel times measured just before and just
    after the timed work.
    """
    return REFERENCE_S / (0.5 * (before_s + after_s))
