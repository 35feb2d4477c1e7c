"""Conditional-gradient (Frank-Wolfe) approximate projection onto the feasible set.

condg(fset, y, x, eps, cap) approximately minimizes 0.5*||z - y||^2 over the
set, starting from a feasible x. Termination is certified by the Wolfe gap:
on a "gap" return the output z satisfies <z - y, u - z> >= -eps for every u
in the set, which bounds the distance to the exact projection by
sqrt(2*eps).

A set with an exact Euclidean projection (Box clips, EuclideanBall rescales,
Simplex subtracts a sort-based threshold) gets it in one step, certified by
one LMO call up to a rounding allowance of PROJECTION_GAP_RTOL times
sum_i (|d_i| + |u_i - z_i|) (|u_i| + |z_i|), d = z - y: componentwise,
because the computed gap carries the rounding of z itself, which does not
shrink with d, and measured from the entries rather than from ||z||, so that
a wrong projection far from the origin is not certified. Any other
FeasibleSet, whose `project` returns None, runs the Frank-Wolfe loop on its
linear-minimization oracle alone; a call that ends at the iteration cap
carries no certificate. The solver records every step's inner_iters,
final_gap and terminated_by in RunReport.steps, and counts the capped
calls, the start's projection included, in RunReport.uncertified_steps.
"""

from dataclasses import dataclass

import numpy as np

from .feasible_set import _is_count

GAP = "gap"
ITERATION_CAP = "iteration_cap"
# rounding allowance of the one-call certificate of an exact projection, as a
# share of sum_i (|d_i| + |u_i - z_i|) (|u_i| + |z_i|), d = z - y: the rounding
# of the terms of <d, u - z>, and of z itself, which does not shrink with d.
# At eps = 0, over exact projections of points 10^U(-12, 0) * scale outside
# random boxes, balls and simplices (tests/oracles.py), a share of
# ||d|| (||u|| + ||z||) rejected 3,098 of 6,733 simplex and 280 of 2,936 ball
# draws, and one of ||d|| ||u - z|| 3,750 and 1,913; this one rejects none of
# the 16,053, and still rejects a simplex projection off by 1e-9 * scale
PROJECTION_GAP_RTOL = 1e-12


@dataclass
class CondGResult:
    """Outcome of one inner call.

    z is feasible; final_gap is the last Wolfe-gap value evaluated;
    terminated_by is "gap" (certificate holds, for a certified projection up
    to its rounding allowance) or "iteration_cap".
    """

    z: np.ndarray
    inner_iters: int
    final_gap: float
    terminated_by: str


def condg(fset, y, x, eps, cap):
    """Approximate projection of y onto fset, started at the feasible point x.

    Parameters
    ----------
    fset : FeasibleSet
    y : array, point to project (need not be feasible).
    x : array, feasible starting point.
    eps : float >= 0, Wolfe-gap termination threshold.
    cap : integer >= 1 (Python or numpy, not a bool), iteration cap; when it
        binds the last iterate is returned with terminated_by="iteration_cap"
        and no gap certificate.

    A feasible y is its own Euclidean projection and has Wolfe gap exactly 0,
    so it is returned directly with the certificate 0 >= -eps. Otherwise the
    set's exact projection z, when it has one, is returned after one LMO call
    shows gap(z) >= -eps - PROJECTION_GAP_RTOL * sum_i (|d_i| + |u_i - z_i|)
    * (|u_i| + |z_i|) with d = z - y and u the LMO's vertex: the rounding of
    each term of the gap and of z itself, which a rule proportional to
    ||d|| misses near the set, where d is rounding too. The Frank-Wolfe loop
    from x runs for sets without a projection and when that check fails. Raises ValueError for a negative
    or nan eps, a cap that is not an integer >= 1, or an infeasible x.
    """
    if not eps >= 0:  # nan too
        raise ValueError("eps must be >= 0")
    if not _is_count(cap):
        raise ValueError("cap must be an integer >= 1")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if not fset.contains(x, _start_tolerance(x)):
        raise ValueError("condg requires a feasible starting point")

    if fset.contains(y):
        return CondGResult(z=y.copy(), inner_iters=1, final_gap=0.0, terminated_by=GAP)

    z = fset.project(y)
    if z is not None:
        d, u, gap = _gap(fset, y, z)
        # np.vdot gives inf with no warning where the sum overflows
        rounding = PROJECTION_GAP_RTOL * np.vdot(np.abs(d) + np.abs(u - z), np.abs(u) + np.abs(z))
        if gap >= -eps - rounding:
            return CondGResult(z=z, inner_iters=1, final_gap=gap, terminated_by=GAP)

    z = x.copy()
    gap = 0.0
    for t in range(1, cap + 1):
        _, u, gap = _gap(fset, y, z)
        if gap >= -eps:
            return CondGResult(z=z, inner_iters=t, final_gap=gap, terminated_by=GAP)
        denom = float((u - z) @ (u - z))
        if denom == 0.0:
            # only reachable through rounding: gap < -eps <= 0 forces u != z
            return CondGResult(z=z, inner_iters=t, final_gap=gap, terminated_by=GAP)
        alpha = min(1.0, -gap / denom)
        z = z + alpha * (u - z)
    return CondGResult(z=z, inner_iters=cap, final_gap=gap, terminated_by=ITERATION_CAP)


def _start_tolerance(x):
    """Slack of condg's feasibility test of its start x: 1e-12 at unit
    scale, relative to maxabs(x) so that ulp-level drift of huge coordinates
    (capped boxes) is not mistaken for infeasibility.

    max(x.max(), -x.min()) is np.abs(x).max(), a nan included, without the
    n-vector np.abs allocates.
    """
    return 1e-12 * max(1.0, float(max(x.max(), -x.min())) if x.size else 1.0)


def wolfe_gap(fset, y, z):
    """min over u in the set of <z - y, u - z>; always <= 0 for feasible z.

    condg's certificate: its "gap" returns have wolfe_gap(fset, y, z) >= -eps,
    for a certified projection up to its rounding allowance. Evaluated by one
    LMO call, which raises ValueError when z - y is not finite.
    """
    return _gap(fset, np.asarray(y, dtype=float), np.asarray(z, dtype=float))[2]


def _gap(fset, y, z):
    """(d, u, gap) at z: d = z - y, u = fset.lmo(d) and the Wolfe gap
    <d, u - z>, the one evaluation of condg's certificate."""
    d = z - y
    u = fset.lmo(d)
    return d, u, float(d @ (u - z))
