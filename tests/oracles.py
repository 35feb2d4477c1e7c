"""Independent oracles used by the tests.

Kept deliberately separate from the library: the bisection radius oracle
works from the sup-definition of the contraction radius, not from the closed
forms it is checking, and the simplex threshold comes from bisection, or
from exact rational sums, not from the floating-point sort the library uses.
"""

from fractions import Fraction

import numpy as np

from newton_condg import Box, EuclideanBall, FeasibleSet, Simplex


def rho_bisection(f, fprime, nu, theory, iters=200):
    """Contraction radius from its sup definition, by bisection.

    rho = sup{delta in (0, nu) : c1*(f(t)/(t f'(t)) - 1) + q < 1 on (0, delta)}
    with c1 = omega1 (1+vartheta)(1+lambda) and
    q = omega1[(1+vartheta) lambda + vartheta] + omega2. The bracketed
    expression is increasing in t for both majorant families, so the sup is
    the unique crossing point (or nu when there is none).
    """
    om1, om2, vt, lam = theory.omega1, theory.omega2, theory.vartheta, theory.lam
    c1 = om1 * (1.0 + vt) * (1.0 + lam)
    q = om1 * ((1.0 + vt) * lam + vt) + om2

    def below_one(t):
        return c1 * (f(t) / (t * fprime(t)) - 1.0) + q < 1.0

    hi = nu * (1.0 - 1e-15)
    if below_one(hi):
        return hi
    lo = nu * 1e-300
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if below_one(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_theory_params(rng):
    """A valid random parameter draw (strictly inside every inequality)."""
    om1 = rng.uniform(0.2, 3.0)
    vt = rng.uniform(0.0, min(0.95, 0.9 / om1))
    om2 = rng.uniform(0.0, 0.9 * min(om1, 1.0 - om1 * vt))
    lam_max = (1.0 - om2 - om1 * vt) / (om1 * (1.0 + vt))
    lam = rng.uniform(0.0, 0.9 * lam_max)
    return om1, om2, vt, lam


def scalar_newton_iterates(x0, func, dfunc, steps):
    """Plain 1-d Newton recursion, written independently of the solver."""
    xs = [x0]
    for _ in range(steps):
        x = xs[-1]
        xs.append(x - func(x) / dfunc(x))
    return xs


class LmoOnly(FeasibleSet):
    """A view of a set with its lmo, contains and sample but no projection.

    condg on this view runs the Frank-Wolfe loop, as on any set that exposes
    only its linear-minimization oracle.
    """

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def lmo(self, d):
        return self.inner.lmo(d)

    def contains(self, x, tol=0.0):
        return self.inner.contains(x, tol)

    def sample(self, rng):
        return self.inner.sample(rng)


def simplex_threshold_bisection(y, scale, iters=200):
    """tau with sum(max(y - tau, 0)) = scale, by bisection on tau.

    The sum is continuous and decreasing in tau, scale at the answer, at
    least scale at min(y) - scale/n and 0 at max(y).
    """
    lo, hi = float(y.min()) - scale / y.size, float(y.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(y - mid, 0.0).sum() > scale:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simplex_projection_exact(y, scale):
    """The projection of y onto {x >= 0, sum(x) = scale}, as Fractions.

    Every float is a rational, so the sort-and-threshold rule run on
    Fractions gives the exact projection of the floats y and scale: the
    support is the largest k with y_(k) > (sum of the k largest - scale)/k.
    """
    ys = [Fraction(v) for v in y]
    total = Fraction(0)
    for k, v in enumerate(sorted(ys, reverse=True), 1):
        total += v
        candidate = (total - Fraction(scale)) / k
        if v > candidate:
            tau = candidate
    return [max(v - tau, Fraction(0)) for v in ys]


def random_set_and_point(rng):
    """(set, y, scale): a box, ball or simplex at a scale in [1e-3, 1e6] and a
    point around it, inside or outside."""
    scale = 10.0 ** rng.uniform(-3, 6)
    n = int(rng.integers(1, 41))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        lower = scale * rng.uniform(-3, 0, n)
        fset = Box(lower, lower + scale * rng.uniform(0.2, 4, n))
    elif kind == 1:
        fset = EuclideanBall(scale * rng.standard_normal(n), scale * rng.uniform(0.5, 3))
    else:
        fset = Simplex(n, scale)
    y = fset.sample(rng) + scale * rng.uniform(0.0, 3.0) * rng.standard_normal(n)
    return fset, y, scale


def tridiagonal_residual(X):
    """A residual whose row i reads x[i - 1], x[i] and x[i + 1] only; X is a
    point or a stack of points, one per row, each row the 1-D value bit for
    bit."""
    pad = np.zeros(X.shape[:-1] + (1,))
    left = np.concatenate((pad, X[..., :-1]), axis=-1)
    right = np.concatenate((X[..., 1:], pad), axis=-1)
    return 3.0 * X - left - right + X ** 3 / 10.0


def column_by_column_jacobian(fun, x):
    """Forward differences one column and one 1-D call at a time, with the
    step fd_jacobian documents: sqrt(eps) * max(|x_j|, 1), signed as x_j."""
    n = x.size
    f0 = fun(x)
    jac = np.empty((n, n))
    for j in range(n):
        h = np.sqrt(np.finfo(float).eps) * max(abs(x[j]), 1.0)
        h = -h if x[j] < 0 else h
        point = x.copy()
        point[j] += h
        jac[:, j] = (fun(point) - f0) / h
    return jac
