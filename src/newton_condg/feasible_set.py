"""Convex compact feasible sets exposing a linear-minimization oracle.

Supported sets are boxes (with +inf upper bounds replaced by a finite cap to
keep the set compact), Euclidean balls, and scaled standard simplexes. Each
of them also has an exact Euclidean `project`: the box clips, the ball
rescales `y - center`, the simplex subtracts a sort-based threshold. `condg`
uses that projection, certified by one LMO call; a `FeasibleSet` whose
`project` returns None (the default) exposes only its LMO and gets the
Frank-Wolfe loop. Each `project` raises ValueError for a non-finite point,
as each `lmo` does for a non-finite direction. All operations are stateless
and thread-safe.
"""

import math
from abc import ABC, abstractmethod
from numbers import Integral

import numpy as np

BOX_CAP = 1e6  # finite stand-in for +inf upper bounds of a Box
# relative rounding slack of contains on the simplex equality sum(x) = scale
# and on the ball's sphere ||x - center|| = radius. Rounding each of n
# entries and summing them moves a sum or a norm by up to about n*eps_machine
# times the size of the entries (1e-14 at n = 50), so a point on the simplex
# or the sphere (a projection, an LMO vertex) passes at tol=0 for n up to
# several thousand. The size is scale for the simplex and radius +
# ||center|| for the ball, whose points carry the centre's rounding too.
CONTAINS_RTOL = 1e-12


class FeasibleSet(ABC):
    """A convex compact subset of R^n."""

    n: int

    @abstractmethod
    def lmo(self, d):
        """Return a minimizer of <d, v> over the set.

        Raises ValueError for non-finite d.
        """

    @abstractmethod
    def contains(self, x, tol=0.0):
        """Membership in the set expanded by `tol` per constraint."""

    @abstractmethod
    def sample(self, rng):
        """Draw a uniformly-ish distributed feasible point (test utility)."""

    def project(self, y):
        """Exact Euclidean projection of y, or None for an LMO-only set.

        Raises ValueError for non-finite y.
        """
        return None


class Box(FeasibleSet):
    """{x : lower <= x <= upper}, upper bounds (+inf included) capped at BOX_CAP.

    The capped box is the effective feasible set: lmo, contains, project and
    sample all use min(upper, BOX_CAP).
    """

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not np.all(np.isfinite(lower)):
            raise ValueError("lower bounds must be finite")
        capped = np.minimum(upper, BOX_CAP)
        if not np.all(lower < capped):
            raise ValueError("need lower < min(upper, BOX_CAP) per coordinate")
        self.lower = lower
        self.upper = upper
        self.capped_upper = capped
        self.n = lower.size

    def lmo(self, d):
        d = _direction(d)
        # ties (d_i == 0) go to the lower bound for determinism
        return np.where(d < 0, self.capped_upper, self.lower)

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(
            (x >= self.lower - tol).all() and (x <= self.capped_upper + tol).all()
        )

    def project(self, y):
        """Exact Euclidean projection: coordinatewise clip to the capped box."""
        return np.clip(_point(y, "box"), self.lower, self.capped_upper)

    def sample(self, rng):
        return self.lower + rng.uniform(0.0, 1.0, self.n) * (
            self.capped_upper - self.lower
        )

    def __repr__(self):
        return f"Box(n={self.n})"


class EuclideanBall(FeasibleSet):
    """{x : ||x - center|| <= radius}, with a finite 1-d center (a scalar is
    a 1-vector) and a finite positive radius; n is the center's length.
    Construction raises ValueError otherwise."""

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.ndim != 1:
            raise ValueError("center must be a 1-d array")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if not 0 < radius < np.inf:
            raise ValueError("radius must be positive and finite")
        self.center = center
        self.radius = float(radius)
        self.n = center.size
        self._rounding = CONTAINS_RTOL * (self.radius + np.linalg.norm(center))

    def lmo(self, d):
        d = _direction(d)
        nd = math.sqrt(d @ d)
        if nd == 0.0:
            return self.center.copy()
        return self.center - self.radius * d / nd

    def contains(self, x, tol=0.0):
        """||x - center|| <= radius + tol + CONTAINS_RTOL*(radius + ||center||)."""
        v = np.asarray(x, dtype=float) - self.center
        return math.sqrt(v @ v) <= self.radius + tol + self._rounding

    def project(self, y):
        """Exact Euclidean projection: rescale y - center onto the sphere."""
        y = _point(y, "ball")
        v = y - self.center
        nv = math.sqrt(v @ v)
        if nv <= self.radius:
            return y.copy()
        return self.center + (self.radius / nv) * v

    def sample(self, rng):
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        return self.center + self.radius * rng.uniform(0.0, 1.0) ** (1.0 / self.n) * v

    def __repr__(self):
        return f"EuclideanBall(n={self.n}, radius={self.radius})"


class Simplex(FeasibleSet):
    """{x : x >= 0, sum(x) = scale} in R^n, with a finite positive scale.

    n is an integer >= 1 (Python or numpy, not a bool); construction raises
    ValueError otherwise, or for a scale that is not positive and finite.
    """

    def __init__(self, n, scale=1.0):
        if not (isinstance(n, Integral) and not isinstance(n, bool) and n >= 1):
            raise ValueError("n must be >= 1 and an integer")
        if not 0 < scale < np.inf:
            raise ValueError("scale must be positive and finite")
        self.n = int(n)
        self.scale = float(scale)

    def lmo(self, d):
        d = _direction(d)
        out = np.zeros(self.n)
        out[np.argmin(d)] = self.scale  # argmin takes the lowest index on ties
        return out

    def contains(self, x, tol=0.0):
        """x >= -tol and |sum(x) - scale| <= tol + CONTAINS_RTOL*scale."""
        x = np.asarray(x, dtype=float)
        return bool(
            (x >= -tol).all()
            and abs(x.sum() - self.scale) <= tol + CONTAINS_RTOL * self.scale
        )

    def project(self, y):
        """Exact Euclidean projection max(y - tau, 0), tau by sorting.

        tau puts sum(max(y - tau, 0)) at scale; the support is the largest k
        with y_(k) > (sum of the k largest entries - scale)/k (Held, Wolfe and
        Crowder 1974; Duchi et al., ICML 2008). O(n log n).
        """
        y = _point(y, "simplex")
        desc = np.sort(y)[::-1]
        excess = np.cumsum(desc) - self.scale
        k = np.arange(1, self.n + 1)
        support = np.nonzero(desc * k > excess)[0][-1] + 1
        tau = excess[support - 1] / support
        return np.maximum(y - tau, 0.0)

    def sample(self, rng):
        return self.scale * rng.dirichlet(np.ones(self.n))

    def __repr__(self):
        return f"Simplex(n={self.n}, scale={self.scale})"


def _direction(d):
    """d as a float array, the one input check of every lmo: raises
    ValueError unless all its entries are finite."""
    d = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("lmo direction must be finite")
    return d


def _point(y, name):
    """y as a float array, the one input check of every project: raises
    ValueError unless all its entries are finite."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"{name} projection needs a finite point")
    return y
