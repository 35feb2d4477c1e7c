"""Properties of the public entry points over generated inputs, under the
deterministic hypothesis profile of conftest.py."""

import math

import numpy as np
import pytest
from scipy import sparse

import newton_condg.linsolve
from newton_condg import solve_inexact

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the model kinds, and whether lu_factor gives each an exact LU (gttrf or SuperLU)
MODELS = {"dense full": False, "dense tridiagonal": True, "csr tridiagonal": True,
          "csr superlu": True}
# the relative residual of a direct step on these well-conditioned models, at most
DIRECT_ROUNDING = 1e-14


def _model(kind, n, rng):
    """A diagonally dominant model of the kind: its nonzeros are random
    entries of the stored structure, plus 4 + n on the diagonal."""
    if kind == "dense full":
        return rng.standard_normal((n, n)) + (4.0 + n) * np.eye(n)
    offsets = [-1, 0, 1] if "tridiagonal" in kind else [-2, -1, 0, 1, 2]
    M = sparse.diags_array(
        [rng.standard_normal(n - abs(k)) + (4.0 + n) * (k == 0) for k in offsets],
        offsets=offsets, format="csr",
    )
    return M.toarray() if kind.startswith("dense") else M


@hypothesis.given(
    kind=st.sampled_from(sorted(MODELS)),
    n=st.integers(3, 40),
    seed=st.integers(0, 2 ** 32 - 1),
    eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_inexact_step_meets_its_contract_with_at_most_one_factorization(kind, n, seed, eta):
    rng = np.random.default_rng(seed)
    M = _model(kind, n, rng)
    b = rng.standard_normal(n)
    factored = []
    original = newton_condg.linsolve.lu_factor

    def counted(A):
        factored.append(A)
        return original(A)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newton_condg.linsolve, "lu_factor", counted)
        out = solve_inexact(M, b, eta)
    r = M @ out.s - b
    rnorm, bnorm = math.sqrt(np.vdot(r, r)), math.sqrt(np.vdot(b, b))
    if out.kernel == "gmres":  # GMRES met the contract
        assert out.eta_used == rnorm / bnorm <= eta
    else:  # the direct exit: the contract to rounding, which an eta below it cannot ask
        assert out.eta_used <= max(eta, DIRECT_ROUNDING)
        assert rnorm <= max(eta, DIRECT_ROUNDING) * bnorm
    assert len(factored) == (1 if MODELS[kind] else out.kernel != "gmres")
