"""Registry of box-constrained nonlinear-system test problems.

Four classic discretized problems at their customary dimensions and boxes,
plus two synthetic problems with known roots for property tests:

- pb1_h_equation: Chandrasekhar's H-equation with c = 0.99 and composite
  midpoint quadrature (Kelley's standard discretization), box [0, 5].
- pb2_discrete_boundary: discrete two-point boundary value problem
  (More-Garbow-Hillstrom problem 28), box [-100, 100], tridiagonal Jacobian.
- pb3_troesch: Troesch's problem with lambda = 10 (boundary values x(0) = 0,
  x(1) = 1), box [-1, 1], tridiagonal Jacobian.
- pb4_discrete_integral: discrete integral equation (More-Garbow-Hillstrom
  problem 29), box [-10, 10], dense Jacobian.
- synthetic_quadratic: F(x) = x*x - 1 componentwise on [0, 2]^n, root at the
  all-ones vector, diagonal Jacobian.
- synthetic_linear: F(x) = A (x - xbar) for a fixed well-conditioned
  tridiagonal A and interior xbar, box [-5, 5]^n.

The banded and diagonal problems (pb2, pb3 and both synthetic ones) declare
scipy.sparse patterns and return sparse analytic Jacobians, so the solver
keeps their model matrices in CSR form and building them at any n allocates
no n-by-n array; pb1 and pb4 have full Jacobians, declare no pattern and
stay dense. pb1, pb2, pb3 and pb4 declare vectorized residuals (rows of a
2-D input are points), so a finite-difference Jacobian evaluates many
columns per residual call: pb1 and pb4 blocks of single columns, pb2 and
pb3 all three column groups of their tridiagonal pattern at once, one call
per Jacobian (a traced pass of the benchmark's banded workload makes 184
residual calls, against 308 with one call per group). Each of the four
sparse problems makes its canonical pattern (linsolve.canonical_pattern)
in make_problem, and its exact Jacobians are that pattern's models
(_SparseJacobian), as its finite-difference and Schubert models are: every
model of the problem shares the pattern's read-only index arrays and its
analysis, a call computes only its data, and the solver's as_model returns
it as it is.

pb1's n-by-n kernel starts at a 64-byte (cache-line) boundary
(_aligned_empty). Each point of a pb1 finite-difference block is one
matrix-vector product with the kernel, bound by cache bandwidth, and its
speed depends on where the kernel sits: on one BLAS thread of a 2-vCPU
virtual machine a 163-by-400 block took 3.4 ms at 0 mod 64, 3.7 ms at 32
and 4.6 ms at 16 or 48, with the same bits in every case, and a plain
n-by-n allocation lands at 0, 16, 32 or 48 mod 64 as the heap has it.
pb1's exact Jacobian I - w A is made in one n-by-n buffer, 0.0 - w A with
1.0 added on the diagonal: the bits of np.eye(n) - w A, signed zeros
included (np.negative would give -0.0 where w underflows to 0), without
allocating the identity.

The cubes of pb2 and pb4 go through _cube, which cubes |g| in place and
copies the sign of g back. numpy's `g ** 3` falls back to scalar code,
element by element, for a negative base: with numpy 2.4.6 it takes about
10 ms on a (65, 1000) block of negative bases against 0.4 ms for _cube,
and the gamma = 0 and 1 starts of both problems have negative bases. For
g >= 0 _cube is bit-identical to g ** 3; for g < 0 it returns -(|g| ** 3),
which can differ from g ** 3 in the last bit. `g * g * g` would round
differently for positive bases too.

All builders are pure and the produced Problems immutable. The starting-point
rule is x0(gamma) = l + 0.25 gamma (u - l) for finite boxes and
10**gamma * (1, ..., 1) (clipped to the capped box) when an upper bound is
infinite.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .core import Problem
from .feasible_set import Box, _is_count
from .linsolve import canonical_pattern


@dataclass(frozen=True)
class BenchEntry:
    id: str
    default_n: int
    builder: Callable[[int], Problem]
    description: str


def _tridiagonal(n):
    """The boolean band of an n-by-n tridiagonal matrix: its 3n - 2 entries."""
    return sparse.diags_array([1, 1, 1], offsets=[-1, 0, 1], shape=(n, n), dtype=bool)


class _SparseJacobian:
    """The exact Jacobians of one problem: models of its canonical pattern
    storing the values with a new main diagonal on each call.

    The pattern (the one the Problem keeps) is the one the finite-difference
    and Schubert models of the problem are built on, so every model of the
    problem shares its index arrays, its template and its analysis. A call
    stores a fresh data array, values everywhere and the given diagonal at
    (i, i) (every (i, i) must be in the pattern), so it builds no index
    array, runs no constructor check, and the solver's as_model returns it
    as it is.
    """

    def __init__(self, pattern, values):
        P = self.pattern = canonical_pattern(pattern)
        self.values = values
        self.diagonal = np.flatnonzero(P.indices == P.rows)  # where (i, i) is

    def __call__(self, diagonal):
        data = np.full(self.pattern.indices.size, self.values)
        data[self.diagonal] = diagonal
        return self.pattern.model(data)


def _cube(g):
    """g ** 3 elementwise, on numpy's vectorized pow whatever the sign of g."""
    # a negative base sends np.power to its scalar fallback; |g| ** 3 stays
    # on the SIMD path, and copysign restores the sign (-0.0, -inf and a
    # negative nan included), all in one buffer
    a = np.abs(g)
    np.power(a, 3, out=a)
    np.copysign(a, g, out=a)
    return a


def _second_difference(x):
    """2 x_i - x_{i-1} - x_{i+1} along the last axis, zero past either end.

    Subtracting in place takes one temporary; the same numbers are
    subtracted in the same order as from the shifted copies
    concatenate((0, x[:-1])) and concatenate((x[1:], 0)), so the result is
    the same bits (v - 0.0 is v, -0.0 included).
    """
    d = 2.0 * x
    d[..., 1:] -= x[..., :-1]
    d[..., :-1] -= x[..., 1:]
    return d


def _aligned_empty(shape):
    """An uninitialized float64 C-ordered array whose data starts at a
    64-byte boundary: a slice of an over-allocated byte buffer."""
    nbytes = 8 * math.prod(shape)
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(np.float64).reshape(shape)


def _h_equation(n, c=0.99):
    # midpoint nodes mu_i = (i - 1/2)/n; kernel (c/2n) mu_i/(mu_i + mu_j),
    # its operations in that order, computed in a cache-line-aligned buffer
    # (the module docstring says why)
    mu = (np.arange(1, n + 1) - 0.5) / n
    A = _aligned_empty((n, n))
    np.add(mu[:, None], mu[None, :], out=A)
    np.divide(mu[:, None], A, out=A)
    A *= c / (2.0 * n)

    def fun(h):
        # a stacked matrix-vector product per row: H @ A.T would be one GEMM,
        # whose sums differ in their last bits from A @ h; the rest of
        # h - 1 / (1 - A h) is computed in the product's buffer
        d = np.matmul(A, h[..., None])[..., 0]
        np.subtract(1.0, d, out=d)
        np.divide(1.0, d, out=d)
        np.subtract(h, d, out=d)
        return d

    def jac(h):
        # I - w A in one buffer: 0.0 - x, then + 1.0 on the diagonal, are the
        # bits of np.eye(n) - w A (1 - x is 1 + (-x)); np.negative would turn
        # the +0.0 of a w that underflowed to 0 into -0.0
        w = 1.0 / (1.0 - A @ h) ** 2
        J = np.multiply(w[:, None], A)
        np.subtract(0.0, J, out=J)
        J.flat[::n + 1] += 1.0
        return J

    return Problem(
        name="pb1_h_equation", n=n, fun=fun, jac=jac, vectorized=True,
        feasible_set=Box(np.zeros(n), np.full(n, 5.0)),
    )


def _discrete_boundary(n):
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h

    jacobian = _SparseJacobian(_tridiagonal(n), -1.0)

    def fun(x):
        d = _second_difference(x)
        d += h * h * _cube(x + t + 1.0) / 2.0
        return d

    def jac(x):
        return jacobian(2.0 + 1.5 * h * h * (x + t + 1.0) ** 2)

    return Problem(
        name="pb2_discrete_boundary", n=n, fun=fun, jac=jac, vectorized=True,
        pattern=jacobian.pattern,
        feasible_set=Box(np.full(n, -100.0), np.full(n, 100.0)),
    )


def _troesch(n, lam=10.0):
    h = 1.0 / (n + 1)

    jacobian = _SparseJacobian(_tridiagonal(n), -1.0)

    def fun(x):
        d = _second_difference(x)
        d[..., -1] -= 1.0  # right boundary value 1
        d += lam * h * h * np.sinh(lam * x)
        return d

    def jac(x):
        return jacobian(2.0 + lam * lam * h * h * np.cosh(lam * x))

    return Problem(
        name="pb3_troesch", n=n, fun=fun, jac=jac, vectorized=True,
        pattern=jacobian.pattern,
        feasible_set=Box(np.full(n, -1.0), np.full(n, 1.0)),
    )


# rows per block of pb4's n-by-n set-up (256 KB at n = 1000)
_ROW_BLOCK = 32


def _discrete_integral(n):
    h = 1.0 / (n + 1)
    t = np.arange(1, n + 1) * h
    u = 1.0 - t
    # weights w_ij = (1 - t_i) t_j for j <= i, t_i (1 - t_j) for j > i (t
    # increases strictly, so t_j <= t_i is j <= i): the lower formula
    # everywhere, then the upper triangle a block of rows at a time, so that
    # no second n-by-n array is made
    weights = np.multiply.outer(u, t)
    cols = np.arange(n)
    for r0 in range(0, n, _ROW_BLOCK):
        rows = slice(r0, r0 + _ROW_BLOCK)
        upper = cols > cols[rows, None]
        np.copyto(weights[rows], np.multiply.outer(t[rows], u), where=upper)
    weights *= 1.5 * h  # the Jacobian's scale, applied once

    def fun(x):
        # x + h ((1 - t) s1 + t (sum(tail) - cumsum(tail))) / 2 with
        # s1 = cumsum(t g), tail = (1 - t) g and g = (x + t + 1)^3: the
        # operations of that expression in its order, in three buffers, so
        # the same bits (the sums run along the last axis, and
        # multiplication and addition commute bit for bit)
        g = x + t
        g += 1.0
        g, s1 = _cube(g), g
        np.multiply(t, g, out=s1)
        np.cumsum(s1, axis=-1, out=s1)
        tail = np.multiply(u, g, out=g)
        total = np.sum(tail, axis=-1, keepdims=True)
        np.cumsum(tail, axis=-1, out=tail)
        np.subtract(total, tail, out=tail)
        tail *= t
        s1 *= u
        s1 += tail
        s1 *= h
        s1 /= 2.0
        s1 += x
        return s1

    def jac(x):
        J = np.multiply(weights, (x + t + 1.0) ** 2)
        J.flat[::n + 1] += 1.0
        return J

    return Problem(
        name="pb4_discrete_integral", n=n, fun=fun, jac=jac, vectorized=True,
        feasible_set=Box(np.full(n, -10.0), np.full(n, 10.0)),
    )


def _synthetic_quadratic(n):
    jacobian = _SparseJacobian(sparse.eye_array(n, dtype=bool), 0.0)

    def fun(x):
        return x * x - 1.0

    def jac(x):
        return jacobian(2.0 * x)

    return Problem(
        name="synthetic_quadratic", n=n, fun=fun, jac=jac,
        pattern=jacobian.pattern,
        feasible_set=Box(np.zeros(n), np.full(n, 2.0)),
        known_root=np.ones(n),
    )


def _synthetic_linear(n):
    jacobian = _SparseJacobian(_tridiagonal(n), -1.0)
    A = jacobian(4.0)
    xbar = 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)

    def fun(x):
        return A @ (x - xbar)

    def jac(x):
        return jacobian(4.0)  # A, in a fresh data array

    return Problem(
        name="synthetic_linear", n=n, fun=fun, jac=jac,
        pattern=jacobian.pattern,
        feasible_set=Box(np.full(n, -5.0), np.full(n, 5.0)),
        known_root=xbar,
    )


REGISTRY = {
    "pb1_h_equation": BenchEntry(
        "pb1_h_equation", 400, _h_equation,
        "Chandrasekhar H-equation, c = 0.99",
    ),
    "pb2_discrete_boundary": BenchEntry(
        "pb2_discrete_boundary", 500, _discrete_boundary,
        "discrete boundary value problem",
    ),
    "pb3_troesch": BenchEntry(
        "pb3_troesch", 500, _troesch,
        "Troesch problem, lambda = 10",
    ),
    "pb4_discrete_integral": BenchEntry(
        "pb4_discrete_integral", 1000, _discrete_integral,
        "discrete integral equation",
    ),
    "synthetic_quadratic": BenchEntry(
        "synthetic_quadratic", 10, _synthetic_quadratic,
        "componentwise x^2 - 1, root at ones",
    ),
    "synthetic_linear": BenchEntry(
        "synthetic_linear", 50, _synthetic_linear,
        "well-conditioned banded linear system",
    ),
}

PAPER_CORE = (
    "pb1_h_equation",
    "pb2_discrete_boundary",
    "pb3_troesch",
    "pb4_discrete_integral",
)

SYNTHETIC = ("synthetic_quadratic", "synthetic_linear")

# the gamma levels that starting_point accepts
GAMMAS = (0, 1, 2, 3)


def make_problem(problem_id, n=None):
    """Instantiate a registry problem at dimension n (its default when None).

    n is an integer >= 2 (Python or numpy, not a bool), as Problem counts
    it; 2.5 or "7" raises ValueError. An unknown problem_id raises KeyError.
    """
    try:
        entry = REGISTRY[problem_id]
    except KeyError:
        raise KeyError(f"unknown problem {problem_id!r}") from None
    n = entry.default_n if n is None else n
    if not _is_count(n, 2):
        raise ValueError("n must be an integer >= 2")
    return entry.builder(n)


def starting_point(problem, gamma):
    """x0(gamma): l + 0.25 gamma (u - l), or 10**gamma ones for infinite boxes.

    gamma is one of GAMMAS, an integer (Python or numpy, not a bool);
    anything else, 2.0 or "2" included, raises ValueError.
    """
    if not (_is_count(gamma, 0) and gamma in GAMMAS):
        raise ValueError(f"gamma must be one of {', '.join(map(str, GAMMAS))}")
    fset = problem.feasible_set
    if not isinstance(fset, Box):
        raise TypeError("starting_point needs a box feasible set")
    if np.all(np.isfinite(fset.upper)):
        return fset.lower + 0.25 * gamma * (fset.upper - fset.lower)
    return fset.project(np.full(problem.n, 10.0 ** gamma))
