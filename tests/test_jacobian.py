import numpy as np
import pytest
from scipy import sparse

import newton_condg.jacobian
from newton_condg import (
    Box,
    Problem,
    fd_jacobian,
    make_problem,
    next_jacobian,
    schubert_update,
    starting_point,
)
from newton_condg.jacobian import FD_BLOCK_ENTRIES, JacobianError
from newton_condg.linsolve import CSRModel

from oracles import column_by_column_jacobian as _column_by_column
from oracles import tridiagonal_residual as _tridiagonal_fun


class TestFDJacobian:
    def test_linear_map_recovered(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        for x in (np.zeros(2), np.array([1.0, -2.0]), np.array([100.0, 0.5])):
            np.testing.assert_allclose(fd_jacobian(lambda v: A @ v, x), A, atol=1e-6)

    def test_against_analytic_derivative(self):
        fun = lambda v: np.array([v[0] ** 2, v[1] ** 3])
        jac = fd_jacobian(fun, np.ones(2))
        np.testing.assert_allclose(jac, np.diag([2.0, 3.0]), atol=5e-7)

    def test_constant_map(self):
        np.testing.assert_array_equal(
            fd_jacobian(lambda v: np.ones(3), np.zeros(3)), np.zeros((3, 3))
        )

    def test_step_sign_follows_x(self):
        # forward step must stay on the same side as x so that domain edges
        # like sqrt(x) at the lower bound are never crossed
        fun = lambda v: np.sqrt(-v)
        jac = fd_jacobian(fun, np.array([-1.0]))
        np.testing.assert_allclose(jac, [[-0.5]], atol=1e-6)

    @pytest.mark.parametrize("m", [2, 5])
    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_pattern_of_another_shape_raises(self, kind, m):
        pattern = np.eye(m, dtype=bool)
        if kind == "csr":
            pattern = sparse.csr_array(pattern)
        with pytest.raises(ValueError, match="^x and pattern shapes differ$"):
            fd_jacobian(lambda v: v, np.ones(3), pattern=pattern)

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("x", [np.zeros(0), np.ones((2, 2)), np.ones((1, 3)), 1.0],
                             ids=["empty", "matrix", "row", "scalar"])
    def test_x_must_be_a_non_empty_vector(self, x, vectorized):
        with pytest.raises(ValueError, match="^x must be a 1-D array with at least one entry$"):
            fd_jacobian(lambda v: v, x, vectorized=vectorized)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_raises(self):
        fun = lambda v: np.array([1.0 / (v[0] - 1.0)])
        with pytest.raises(JacobianError):
            fd_jacobian(fun, np.array([1.0]))


class TestVectorizedFD:
    @pytest.mark.parametrize(
        "pid, n", [("pb1_h_equation", 400), ("pb4_discrete_integral", 1000),
                   ("pb4_discrete_integral", 2)],
    )
    def test_registry_problems_bit_identical(self, pid, n):
        p = make_problem(pid, n)
        assert p.vectorized
        assert n % (FD_BLOCK_ENTRIES // n) != 0  # the last block is partial
        rng = np.random.default_rng(3)
        for x in (starting_point(p, 1), p.feasible_set.sample(rng)):
            batched = fd_jacobian(p.fun, x, vectorized=True)
            assert batched.tobytes() == fd_jacobian(p.fun, x).tobytes()

    @pytest.mark.parametrize("groups_per_block", [1, 2, 3, 4, 100])
    def test_blocks_of_any_size_bit_identical(self, monkeypatch, groups_per_block):
        n = 10
        monkeypatch.setattr(newton_condg.jacobian, "FD_BLOCK_ENTRIES", groups_per_block * n)
        x = np.linspace(-2.0, 3.0, n)
        per_point = fd_jacobian(_tridiagonal_fun, x)
        batched = fd_jacobian(_tridiagonal_fun, x, vectorized=True)
        assert batched.tobytes() == per_point.tobytes()
        pattern = sparse.diags_array([np.ones(n - 1), np.ones(n), np.ones(n - 1)],
                                     offsets=[-1, 0, 1])
        grouped = fd_jacobian(_tridiagonal_fun, x, pattern=pattern, vectorized=True)
        reference = fd_jacobian(_tridiagonal_fun, x, pattern=pattern)
        assert isinstance(grouped, CSRModel)
        assert np.array_equal(grouped.indptr, reference.indptr)
        assert np.array_equal(grouped.indices, reference.indices)
        assert grouped.data.tobytes() == reference.data.tobytes()
        assert np.array_equal(grouped.toarray(), per_point)

    def test_one_unknown(self):
        fun = lambda v: v ** 3 - 2.0 * v
        x = np.array([1.3])
        for pattern in (None, np.ones((1, 1), dtype=bool)):
            batched = fd_jacobian(fun, x, pattern=pattern, vectorized=True)
            per_point = fd_jacobian(fun, x, pattern=pattern)
            batched = batched if pattern is None else batched.toarray()
            per_point = per_point if pattern is None else per_point.toarray()
            assert batched.shape == (1, 1)
            assert batched.tobytes() == per_point.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_inside_a_block_names_the_same_column(self, monkeypatch):
        # the steps follow the sign of x, so only columns 5 and 7 step into v > 0
        n = 10
        monkeypatch.setattr(newton_condg.jacobian, "FD_BLOCK_ENTRIES", 4 * n)
        fun = lambda v: np.where(v > 0.0, np.inf, v)
        x = -np.ones(n)
        x[[5, 7]] = 0.0
        for vectorized in (False, True):
            with pytest.raises(JacobianError, match=r"x\[5\]"):
                fd_jacobian(fun, x, vectorized=vectorized)


class TestDenseFD:
    # one-row blocks, a partial last block (blocks of 4 of 13 columns) and a
    # single block
    @pytest.mark.parametrize("groups_per_block", [1, 4, 13, 100])
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_model_is_the_column_by_column_model(self, monkeypatch, groups_per_block,
                                                 vectorized):
        n = 13
        monkeypatch.setattr(newton_condg.jacobian, "FD_BLOCK_ENTRIES", groups_per_block * n)
        rng = np.random.default_rng(11)
        # every entry of the Jacobian is non-zero, and the rows of a stack
        # are the 1-D values bit for bit (sums along the last axis only)
        def fun(v):
            ahead = np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]
            return np.sin(np.cumsum(v, axis=-1)) * ahead
        for x in (np.zeros(n), rng.uniform(-3.0, 3.0, n)):
            jac = fd_jacobian(fun, x, vectorized=vectorized)
            assert type(jac) is np.ndarray and jac.dtype == np.float64
            assert jac.flags.c_contiguous  # linsolve casts it to float32 without a copy
            assert jac.tobytes() == _column_by_column(fun, x).tobytes()

    @pytest.mark.parametrize("pid, n", [("pb1_h_equation", 40), ("pb4_discrete_integral", 50)])
    def test_registry_models_are_the_column_by_column_models(self, monkeypatch, pid, n):
        monkeypatch.setattr(newton_condg.jacobian, "FD_BLOCK_ENTRIES", 7 * n)
        p = make_problem(pid, n)
        for gamma in (0, 3):
            x = starting_point(p, gamma)
            jac = fd_jacobian(p.fun, x, vectorized=True)
            assert jac.flags.c_contiguous
            assert jac.tobytes() == _column_by_column(p.fun, x).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [0, 6, 12])
    def test_non_finite_column_is_named(self, monkeypatch, bad):
        n = 13
        monkeypatch.setattr(newton_condg.jacobian, "FD_BLOCK_ENTRIES", 4 * n)
        x = np.ones(n)
        x[bad] = 2.0
        # finite at x, non-finite only where x[bad] has been stepped past 2
        fun = lambda v: np.where(v[..., bad:bad + 1] > 2.0, np.nan, 1.0) * v
        for vectorized in (False, True):
            with pytest.raises(JacobianError, match=rf"x\[{bad}\]"):
                fd_jacobian(fun, x, vectorized=vectorized)


class TestSchubertUpdate:
    def test_one_dimensional_secant(self):
        M = schubert_update(
            np.array([[2.0]]), np.array([1.0]), np.array([3.0]),
            np.ones((1, 1), dtype=bool),
        )
        np.testing.assert_allclose(M, [[3.0]])

    def test_dense_broyden_is_the_rank_one_expression(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 300):
            M = rng.standard_normal((n, n))
            s, y = rng.standard_normal(n), rng.standard_normal(n)
            before = M.copy()
            updated = schubert_update(M, s, y)
            expected = M + np.outer((y - M @ s) / np.sum(s * s), s)
            assert updated.tobytes() == expected.tobytes()
            assert M.tobytes() == before.tobytes()
            assert not np.shares_memory(updated, M)

    def test_zero_step_is_identity(self):
        M0 = np.diag([1.0, 2.0])
        M = schubert_update(M0, np.zeros(2), np.array([5.0, 5.0]), np.eye(2, dtype=bool))
        np.testing.assert_array_equal(M, M0)
        np.testing.assert_array_equal(schubert_update(M0, np.zeros(2), np.ones(2)), M0)

    def test_diagonal_pattern_example(self):
        M = schubert_update(
            np.eye(2), np.array([1.0, 2.0]), np.array([2.0, 6.0]),
            np.eye(2, dtype=bool),
        )
        np.testing.assert_allclose(M, np.diag([2.0, 3.0]))

    def test_rowwise_secant_property(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            pattern = rng.uniform(size=(n, n)) < 0.6
            pattern[np.arange(n), np.arange(n)] = True  # keep rows supported
            M = np.where(pattern, rng.standard_normal((n, n)), 0.0)
            s = rng.standard_normal(n)
            yvec = rng.standard_normal(n)
            updated = schubert_update(M, s, yvec, pattern)
            # no write outside the pattern
            assert np.all(updated[~pattern] == 0.0)
            resid = updated @ s - yvec
            assert np.abs(resid).max() <= 1e-12 * (1.0 + np.abs(yvec).max())

    def test_dense_pattern_reduces_to_rank_one_secant(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            M = rng.standard_normal((n, n))
            s = rng.standard_normal(n)
            yvec = rng.standard_normal(n)
            dense = np.ones((n, n), dtype=bool)
            updated = schubert_update(M, s, yvec, dense)
            broyden = M + np.outer(yvec - M @ s, s) / (s @ s)
            np.testing.assert_allclose(updated, broyden, atol=1e-14, rtol=1e-14)

    def test_no_pattern_is_the_all_true_mask_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 300))
            M = rng.standard_normal((n, n))
            s = rng.standard_normal(n)
            yvec = rng.standard_normal(n)
            masked = schubert_update(M, s, yvec, np.ones((n, n), dtype=bool))
            assert np.array_equal(schubert_update(M, s, yvec), masked)

    def test_dense_m_takes_the_sparse_pattern_a_problem_stores(self):
        p = make_problem("pb3_troesch", 6)
        x = starting_point(p, 1)
        M = p.jac(x).toarray()
        rng = np.random.default_rng(6)
        s, yvec = rng.standard_normal(6), rng.standard_normal(6)
        updated = schubert_update(M, s, yvec, p.pattern)
        assert type(updated) is np.ndarray
        assert updated.tobytes() == schubert_update(M, s, yvec, p.pattern.toarray()).tobytes()
        full = sparse.csr_array(np.ones((6, 6), dtype=bool))
        assert np.array_equal(schubert_update(M, s, yvec, full), schubert_update(M, s, yvec))

    def test_sparse_m_needs_a_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            schubert_update(sparse.eye_array(2, format="csr"), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("model", ["dense", "csr"])
    def test_pattern_of_another_shape_raises(self, model):
        M = np.eye(3) if model == "dense" else sparse.eye_array(3, format="csr")
        with pytest.raises(ValueError, match="^M and pattern shapes differ$"):
            schubert_update(M, np.ones(3), np.ones(3), np.eye(4, dtype=bool))

    def test_pattern_violation_rejected(self):
        M = np.ones((2, 2))
        with pytest.raises(JacobianError, match="pattern"):
            schubert_update(M, np.ones(2), np.ones(2), np.eye(2, dtype=bool))


def _problem(n=3):
    return Problem(
        name="q", n=n,
        fun=lambda x: x * x - 1.0,
        jac=lambda x: np.diag(2.0 * x),
        pattern=np.eye(n, dtype=bool),
        feasible_set=Box(np.zeros(n), np.full(n, 2.0)),
    )


class TestNextJacobian:
    def test_exact_strategy(self):
        p = Problem(
            name="1d", n=1, fun=lambda x: x * x - 1.0, jac=lambda x: np.diag(2.0 * x),
            feasible_set=Box([0.0], [2.0]),
        )
        state = next_jacobian(None, 0, p, np.array([1.5]), "exact")
        np.testing.assert_allclose(state.M, [[3.0]])

    def test_exact_needs_analytic_jacobian(self):
        p = Problem(name="nojac", n=1, fun=lambda x: x, feasible_set=Box([0.0], [1.0]))
        with pytest.raises(JacobianError):
            next_jacobian(None, 0, p, np.array([0.5]), "exact")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            next_jacobian(None, 0, _problem(), np.ones(3), "bogus")

    def test_fd_strategy_carries_no_history(self):
        p = _problem()
        x = np.array([1.0, 1.5, 0.5])
        s1 = next_jacobian(None, 0, p, x, "finite_difference")
        s2 = next_jacobian(s1, 7, p, x, "finite_difference")
        np.testing.assert_array_equal(s1.M.toarray(), s2.M.toarray())

    def test_schubert_refresh_schedule(self, monkeypatch):
        # refresh at k in {0, 1, 6, 11, ...} for refresh_period 5
        builds = []
        original = newton_condg.jacobian.fd_jacobian

        def counted(*args, **kwargs):
            builds.append(k)  # the iteration of the loop below
            return original(*args, **kwargs)

        monkeypatch.setattr(newton_condg.jacobian, "fd_jacobian", counted)
        p = _problem()
        x = np.array([1.0, 1.2, 0.8])
        step = (np.full(3, 1e-3), 2.0 * x * 1e-3)
        state = None
        for k in range(13):
            state = next_jacobian(state, k, p, x, "schubert", refresh_period=5, step=step)
        assert builds == [0, 1, 6, 11]

    def test_secant_step_needs_the_step_data(self):
        p = _problem()
        x = np.array([1.0, 1.5, 0.5])
        state = next_jacobian(None, 0, p, x, "schubert")
        with pytest.raises(ValueError, match="^schubert update needs the previous step data$"):
            next_jacobian(state, 2, p, x, "schubert")

    def test_schubert_without_pattern_is_unmasked_broyden(self):
        n = 3
        p = Problem(
            name="diag", n=n, fun=lambda x: x * x - 1.0,
            feasible_set=Box(np.zeros(n), np.full(n, 2.0)),
        )
        x = np.full(n, 1.1)
        state = next_jacobian(None, 0, p, x, "schubert")
        assert type(state.M) is np.ndarray
        np.testing.assert_array_equal(state.M, fd_jacobian(p.fun, x))
        s = np.array([1e-3, -2e-3, 5e-4])
        step = (s, p.fun(x + s) - p.fun(x))
        updated = next_jacobian(state, 2, p, x + s, "schubert", step=step)
        assert np.array_equal(updated.M, schubert_update(state.M, *step))

    def test_schubert_masks_refresh_to_pattern(self):
        p = _problem()
        state = next_jacobian(None, 0, p, np.array([1.0, 1.5, 0.5]), "schubert")
        assert np.all(state.M.toarray()[~p.pattern.toarray()] == 0.0)

    def test_dense_mask_gives_csr_models(self):
        p = _problem()
        x = np.array([1.0, 1.5, 0.5])
        step = (np.full(3, 1e-3), 2.0 * x * 1e-3)
        for strategy in ("finite_difference", "schubert"):
            state = None
            for k in range(3):
                state = next_jacobian(state, k, p, x, strategy, step=step)
                assert isinstance(state.M, CSRModel)
                assert state.M.nnz == 3


def test_schubert_model_keeps_every_analytic_entry_of_pb1():
    # pb1 at n = 400 is structurally dense, with entries from about 1.6e-6 to
    # 7.5e4 at gamma = 3; a model held to a pattern guessed from the values
    # would zero the smallest of them
    p = make_problem("pb1_h_equation", 400)
    x0 = starting_point(p, 3)
    state = next_jacobian(None, 0, p, x0, "schubert")
    jac = p.jac(x0)
    assert np.all(jac != 0.0)
    assert np.count_nonzero(state.M[jac != 0.0] == 0.0) == 0
