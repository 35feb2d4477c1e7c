"""The sparse model path: grouped finite differences, CSR secant updates,
banded LU and SuperLU factorizations, ILU-preconditioned GMRES, and the
registry problems that declare sparse patterns."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, spilu

import newton_condg.jacobian
import newton_condg.linsolve
import newton_condg.solver
from newton_condg import (
    Box,
    ConstantEta,
    LinearSolveFailure,
    Problem,
    SolverConfig,
    TheoryParams,
    check_problem,
    fd_jacobian,
    make_problem,
    next_jacobian,
    schubert_update,
    solve,
    solve_direct,
    solve_inexact,
    starting_point,
    verify_mk_conditions,
)
from newton_condg.jacobian import CSRModel, JacobianError, as_model, column_colouring
from newton_condg.linsolve import _BandLU, lu_factor

SPARSE_IDS = (
    "pb2_discrete_boundary", "pb3_troesch", "synthetic_linear", "synthetic_quadratic",
)


def _tridiagonal(lower, diag, upper):
    n = len(diag)
    return sparse.diags_array(
        [np.full(n - 1, lower), diag, np.full(n - 1, upper)], offsets=[-1, 0, 1],
        format="csr",
    )


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _chain_residual(x):
    """Residual of 3 x_i + x_i^3 - x_{i-1} - x_{i+1} = 1: module level, so it pickles."""
    f = 3.0 * x + x ** 3 - 1.0
    f[1:] -= x[:-1]
    f[:-1] -= x[1:]
    return f


def _gmres_preconditioners(monkeypatch):
    """The M= argument of every linsolve.gmres call, in call order."""
    preconditioners = []
    original = newton_condg.linsolve.gmres

    def recorded(*args, **kwargs):
        preconditioners.append(kwargs.get("M"))
        return original(*args, **kwargs)

    monkeypatch.setattr(newton_condg.linsolve, "gmres", recorded)
    return preconditioners


class TestGroupedFD:
    @pytest.mark.parametrize("pid", SPARSE_IDS)
    def test_bit_identical_to_column_by_column(self, pid):
        p = make_problem(pid, 60)
        assert sparse.issparse(p.pattern)
        rng = np.random.default_rng(5)
        points = [starting_point(p, g) for g in (1, 2, 3)]
        points += [p.feasible_set.sample(rng) for _ in range(3)]
        for x in points:
            grouped = fd_jacobian(p.fun, x, pattern=p.pattern)
            assert isinstance(grouped, CSRModel)
            assert grouped.nnz == p.pattern.nnz
            assert np.array_equal(grouped.toarray(), fd_jacobian(p.fun, x))

    def test_one_residual_call_per_colour(self):
        p = make_problem("pb2_discrete_boundary", 200)
        calls = []

        def fun(x):
            calls.append(1)
            return p.fun(x)

        x = starting_point(p, 1)
        fd_jacobian(fun, x, p.fun(x), pattern=p.pattern)
        assert len(calls) == 3

    def test_full_pattern_degenerates_to_the_column_loop(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        fun = lambda v: np.tanh(A @ v)
        x = rng.standard_normal(6)
        full = np.ones((6, 6), dtype=bool)
        assert sorted(column_colouring(full)) == list(range(6))
        assert np.array_equal(fd_jacobian(fun, x, pattern=full).toarray(), fd_jacobian(fun, x))

    def test_diagonal_pattern_is_one_group(self):
        calls = []

        def fun(v):
            calls.append(1)
            return np.array([1.0, 2.0, 3.0, 4.0]) * v ** 3

        x = np.array([0.5, -1.0, 2.0, 0.0])
        grouped = fd_jacobian(fun, x, fun(x), pattern=sparse.eye_array(4))
        assert len(calls) == 2
        assert np.array_equal(grouped.toarray(), fd_jacobian(fun, x))

    def test_a_writable_pattern_is_read_afresh_on_every_call(self):
        fun = lambda v: np.array([v[0] + v[1], v[1], v[2]])
        x = np.array([1.0, 2.0, 3.0])
        mask = np.eye(3, dtype=bool)
        assert fd_jacobian(fun, x, pattern=mask).nnz == 3
        mask[0, 1] = True
        grouped = fd_jacobian(fun, x, pattern=mask)
        assert grouped.nnz == 4
        assert np.array_equal(grouped.toarray(), fd_jacobian(fun, x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_residual_raises(self):
        fun = lambda v: 1.0 / (v - 1.0)
        with pytest.raises(JacobianError):
            fd_jacobian(fun, np.array([1.0, 0.0]), pattern=sparse.eye_array(2))


class TestColouring:
    @staticmethod
    def _assert_valid(pattern, colour):
        P = sparse.csr_array(pattern, dtype=float)
        assert colour.shape == (P.shape[1],)
        for g in np.unique(colour):
            # at most one column of a group in any row
            assert P[:, np.flatnonzero(colour == g)].sum(axis=1).max() <= 1

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 500])
    def test_tridiagonal_needs_at_most_three_colours(self, n):
        pattern = make_problem("pb3_troesch", n).pattern
        colour = column_colouring(pattern)
        self._assert_valid(pattern, colour)
        assert colour.max() + 1 <= 3

    def test_random_patterns(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pattern = rng.uniform(size=(n, n)) < rng.uniform(0.02, 0.4)
            colour = column_colouring(sparse.csr_array(pattern))
            self._assert_valid(pattern, colour)

    def test_computed_once_per_problem(self, monkeypatch):
        calls = _counting(monkeypatch, newton_condg.jacobian, "column_colouring")
        p = make_problem("pb3_troesch", 100)
        x0 = starting_point(p, 1)
        assert solve(p, x0, SolverConfig(jacobian_strategy="exact")).status == "converged"
        assert calls == []  # built on the first finite-difference or Schubert build
        copy = dataclasses.replace(p, fun=lambda x: p.fun(x))  # as a tracer wraps fun
        assert copy.pattern is p.pattern
        for problem, strategy in (
            (p, "finite_difference"), (p, "schubert"), (copy, "finite_difference"),
        ):
            report = solve(problem, x0, SolverConfig(jacobian_strategy=strategy))
            assert report.status == "converged" and report.iterations > 1
        assert len(calls) == 1


def test_factor_plan_derived_once_per_problem(monkeypatch):
    plans = []
    original = newton_condg.linsolve._FactorPlan.__init__

    def counted(self, *args):
        plans.append(self)
        original(self, *args)

    monkeypatch.setattr(newton_condg.linsolve._FactorPlan, "__init__", counted)
    derived_in_lu = []
    lu_factor = newton_condg.linsolve.lu_factor

    def factor(M):
        before = len(plans)
        factors = lu_factor(M)
        derived_in_lu.append(len(plans) - before)
        return factors

    monkeypatch.setattr(newton_condg.linsolve, "lu_factor", factor)
    p = make_problem("pb3_troesch", 100)
    x0 = starting_point(p, 1)
    copy = dataclasses.replace(p, fun=lambda x: p.fun(x))
    for problem, strategy in (
        (p, "finite_difference"), (p, "schubert"), (copy, "finite_difference"),
    ):
        report = solve(problem, x0, SolverConfig(jacobian_strategy=strategy))
        assert report.status == "converged" and report.iterations > 1
    assert len(derived_in_lu) > 3
    assert len(plans) == 1
    assert plans[0] is p.pattern._jacobian_layout.plan
    # every exact model gets its plan when it is built, not when it is factorized
    report = solve(p, x0, SolverConfig(jacobian_strategy="exact"))
    assert report.status == "converged" and report.iterations > 1
    assert len(plans) == 1 + report.iterations
    assert not any(derived_in_lu)


def test_unpickled_problem_keeps_a_canonical_pattern(monkeypatch):
    n = 50
    p = Problem(name="chain", n=n, fun=_chain_residual, feasible_set=Box(-np.ones(n), np.ones(n)),
                pattern=_tridiagonal(1.0, np.ones(n), 1.0))
    x = np.full(n, 0.3)
    fd_jacobian(p.fun, x, pattern=p.pattern)  # caches a layout on the pattern
    q = pickle.loads(pickle.dumps(p))
    for arr in (q.pattern.data, q.pattern.indices, q.pattern.indptr):
        assert not arr.flags.writeable
    np.testing.assert_array_equal(q.pattern.toarray(), p.pattern.toarray())
    calls = _counting(monkeypatch, newton_condg.jacobian, "column_colouring")
    first = fd_jacobian(q.fun, x, pattern=q.pattern)
    second = fd_jacobian(q.fun, x, pattern=q.pattern)
    assert len(calls) == 1
    assert np.array_equal(first.toarray(), second.toarray())
    assert np.array_equal(first.toarray(), fd_jacobian(p.fun, x, pattern=p.pattern).toarray())


def _assert_same_history(a, b):
    assert a.status == b.status
    assert a.residual_norms == b.residual_norms
    assert len(a.iterates) == len(b.iterates)
    for u, v in zip(a.iterates, b.iterates):
        assert u.tobytes() == v.tobytes()


def test_pickle_leaves_the_cached_layout_behind():
    n = 500
    p = Problem(name="chain", n=n, fun=_chain_residual, feasible_set=Box(-np.ones(n), np.ones(n)),
                pattern=_tridiagonal(1.0, np.ones(n), 1.0))
    x0 = np.full(n, 0.3)
    fresh = pickle.dumps(p)
    report = solve(p, x0, SolverConfig())
    assert report.status == "converged" and report.iterations > 1
    assert hasattr(p.pattern, "_jacobian_layout")
    solved = pickle.dumps(p)
    assert len(solved) == len(fresh)
    for data in (fresh, solved):
        q = pickle.loads(data)
        assert not hasattr(q.pattern, "_jacobian_layout")
        _assert_same_history(solve(q, x0, SolverConfig()), report)


@pytest.mark.parametrize("strategy", ["finite_difference", "schubert"])
@pytest.mark.parametrize("pid", ["pb2_discrete_boundary", "pb3_troesch"])
def test_cached_layout_keeps_every_history_bit_for_bit(pid, strategy):
    p = make_problem(pid, 100)
    x0 = starting_point(p, 1)
    cfg = SolverConfig(jacobian_strategy=strategy)
    first = solve(p, x0, cfg)  # builds the layout
    assert first.status == "converged"
    _assert_same_history(solve(p, x0, cfg), first)  # reads it
    _assert_same_history(solve(make_problem(pid, 100), x0, cfg), first)


def test_non_canonical_input_is_never_touched():
    # [[4, 1, 0], [1, 4, 1], [0, 1, 4]] with unsorted indices and 4 = 3 + 1 in row 0
    data = np.array([1.0, 3.0, 1.0, 1.0, 4.0, 1.0, 4.0, 1.0])
    indices = np.array([1, 0, 0, 2, 1, 0, 2, 1])
    M = sparse.csr_array((data, indices, [0, 3, 6, 8]), shape=(3, 3))
    C = sparse.csr_array(M.toarray())
    assert not M.has_canonical_format and C.has_canonical_format
    before = [arr.tobytes() for arr in (M.data, M.indices, M.indptr)]
    b, s, yvec = np.array([5.0, 6.0, 5.0]), np.array([0.1, -0.2, 0.3]), np.ones(3)
    pattern = sparse.csr_array(C.toarray() != 0)
    problem = Problem(name="stored", n=3, fun=lambda x: C @ x - b, jac=lambda x: M,
                      feasible_set=Box(-np.ones(3), np.ones(3)))
    runs = (
        lambda A: lu_factor(A).solve(b),
        lambda A: solve_direct(A, b).s,
        lambda A: solve_inexact(A, b, 0.1).s,
        lambda A: schubert_update(A, s, yvec, pattern).toarray(),
        lambda A: next_jacobian(None, 0, dataclasses.replace(problem, jac=lambda x: A),
                                np.zeros(3), "exact").M.toarray(),
    )
    for run in runs:
        assert run(M).tobytes() == run(C).tobytes()
        assert [arr.tobytes() for arr in (M.data, M.indices, M.indptr)] == before
    exact = next_jacobian(None, 0, problem, np.zeros(3), "exact").M
    assert isinstance(exact, CSRModel) and exact.has_canonical_format
    np.testing.assert_array_equal(exact.indices, C.indices)
    assert [arr.tobytes() for arr in (M.data, M.indices, M.indptr)] == before


class TestSparseSchubert:
    def test_matches_dense_update_on_the_pattern(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            pattern = rng.uniform(size=(n, n)) < 0.5
            pattern[np.arange(n), np.arange(n)] = True
            M = np.where(pattern, rng.standard_normal((n, n)), 0.0)
            s = rng.standard_normal(n)
            yvec = rng.standard_normal(n)
            dense = schubert_update(M, s, yvec, pattern)
            updated = schubert_update(sparse.csr_array(M), s, yvec, sparse.csr_array(pattern))
            assert isinstance(updated, CSRModel)
            assert updated.nnz == pattern.sum()
            out = updated.toarray()
            assert np.all(out[~pattern] == 0.0)
            assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_model_missing_pattern_entries_is_embedded(self):
        pattern = np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool)
        M = sparse.csr_array(np.diag([1.0, 2.0, 3.0]))  # super-diagonal not stored
        s, yvec = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        updated = schubert_update(M, s, yvec, sparse.csr_array(pattern))
        expected = schubert_update(M.toarray(), s, yvec, pattern)
        assert updated.nnz == pattern.sum()
        np.testing.assert_allclose(updated.toarray(), expected, rtol=1e-14, atol=0.0)

    def test_pattern_violation_rejected(self):
        with pytest.raises(JacobianError, match="pattern"):
            schubert_update(
                sparse.csr_array(np.ones((2, 2))), np.ones(2), np.ones(2), sparse.eye_array(2),
            )

    def test_a_model_off_the_layout_derives_no_plan(self, monkeypatch):
        plans = []
        original = newton_condg.linsolve._FactorPlan.__init__

        def counted(self, *args):
            plans.append(self)
            original(self, *args)

        monkeypatch.setattr(newton_condg.linsolve._FactorPlan, "__init__", counted)
        p = make_problem("pb3_troesch", 500)
        x = starting_point(p, 1)
        s = 1e-3 * np.linspace(-1.0, 1.0, p.n)
        y = p.fun(x + s) - p.fun(x)
        J = p.jac(x)
        updated = schubert_update(J, s, y, p.pattern)
        layout = p.pattern._jacobian_layout
        assert plans == [layout.plan]  # the layout's, derived once
        assert updated._factor_plan is layout.plan
        schubert_update(J, s, y, p.pattern)
        assert len(plans) == 1
        start = layout.model(J[layout.plan.rows, layout.indices])
        assert updated.data.tobytes() == schubert_update(start, s, y, p.pattern).data.tobytes()


class TestSparseLinsolve:
    def test_sparse_and_dense_solves_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            M = _tridiagonal(-1.0, 4.0 + rng.uniform(0.0, 1.0, n), rng.uniform(-1.5, 1.5))
            b = rng.standard_normal(n)
            sparse_out = solve_direct(M, b)
            dense_out = solve_direct(M.toarray(), b)
            np.testing.assert_allclose(sparse_out.s, dense_out.s, rtol=1e-12, atol=1e-14)
            assert sparse_out.eta_used <= 1e-13
            inexact = solve_inexact(M, b, 0.1)
            assert np.linalg.norm(M @ inexact.s - b) <= 0.1 * np.linalg.norm(b)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize(
        "to_matrix", [lambda M: M, lambda M: M.toarray()], ids=["sparse", "dense"]
    )
    def test_zero_singular_and_non_finite_models_fail(self, to_matrix):
        n = 6
        diag = np.full(n, 2.0)
        diag[[0, -1]] = 1.0  # Neumann Laplacian: the constant vector is a null vector
        for M in (
            sparse.csr_array((n, n)),
            _tridiagonal(-1.0, diag, -1.0),
            _tridiagonal(0.0, np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]), 0.0),
            _tridiagonal(0.0, np.array([1.0, 1e-20, 1.0, 1.0, 1.0, 1.0]), 0.0),
            _tridiagonal(-1.0, np.array([4.0, np.nan, 4.0, 4.0, 4.0, 4.0]), -1.0),
        ):
            with pytest.raises(LinearSolveFailure):
                solve_direct(to_matrix(M), np.ones(n))

    def test_tridiagonal_ilu_step_is_the_direct_step(self, monkeypatch):
        # the incomplete LU of a tridiagonal matrix drops no fill: it is exact
        preconditioners = _gmres_preconditioners(monkeypatch)
        rng = np.random.default_rng(11)
        n = 300
        M = _tridiagonal(-1.0, 4.0 + rng.uniform(0.0, 1.0, n), 0.5)
        b = rng.standard_normal(n)
        out = solve_inexact(M, b, 0.1)
        assert np.linalg.norm(M @ out.s - b) <= 0.1 * np.linalg.norm(b)
        np.testing.assert_allclose(out.s, solve_direct(M, b).s, rtol=0.0, atol=1e-12)
        assert len(preconditioners) == 1
        assert isinstance(preconditioners[0], LinearOperator)

    def test_laplacian_meets_the_contract_with_an_inexact_ilu(self, monkeypatch):
        m = 30  # 5-point Laplacian on a 30 x 30 grid: n = 900
        T = _tridiagonal(-1.0, np.full(m, 2.0), -1.0)
        eye = sparse.eye_array(m)
        M = sparse.csr_array(sparse.kron(T, eye) + sparse.kron(eye, T))
        b = np.random.default_rng(12).standard_normal(m * m)
        ilu = spilu(sparse.csc_array(M))
        assert np.linalg.norm(M @ ilu.solve(b) - b) > 1e-4 * np.linalg.norm(b)
        preconditioners = _gmres_preconditioners(monkeypatch)
        direct = _counting(monkeypatch, newton_condg.linsolve, "solve_direct")
        for eta in (0.5, 0.1, 1e-3, 1e-8):
            out = solve_inexact(M, b, eta)
            assert np.linalg.norm(M @ out.s - b) <= eta * np.linalg.norm(b)
        assert direct == []
        assert len(preconditioners) == 4
        assert all(isinstance(P, LinearOperator) for P in preconditioners)

    def test_failed_ilu_falls_back_to_the_direct_solve(self, monkeypatch):
        n = 8
        M = _tridiagonal(-1.0, np.full(n, 4.0), -1.0).tolil()
        M[3, :] = 0.0
        M = sparse.csr_array(M)
        with pytest.raises(RuntimeError):
            spilu(sparse.csc_array(M))
        gmres_calls = _counting(monkeypatch, newton_condg.linsolve, "gmres")
        direct = _counting(monkeypatch, newton_condg.linsolve, "solve_direct")
        with pytest.raises(LinearSolveFailure):
            solve_inexact(M, np.ones(n), 0.1)
        assert len(direct) == 1
        assert gmres_calls == []

    def test_diagnostics_accept_sparse_models(self):
        M = _tridiagonal(-1.0, np.full(30, 4.0), -1.0)
        check = verify_mk_conditions(M, M, TheoryParams(omega1=1.0))
        assert check.norm_inv_jac == pytest.approx(1.0, abs=1e-7)
        assert check.norm_inv_jac_minus_identity == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
    def test_sparse_solve_factorizes_through_lu_factor(self, monkeypatch, strategy):
        factored = []  # (M, factors) of every lu_factor call
        original = newton_condg.linsolve.lu_factor

        def recorded(M):
            factored.append((M, original(M)))
            return factored[-1][1]

        monkeypatch.setattr(newton_condg.linsolve, "lu_factor", recorded)
        models = _counting(monkeypatch, newton_condg.solver, "solve_direct")
        for pid in ("pb2_discrete_boundary", "pb3_troesch", "synthetic_quadratic"):
            factored.clear()
            models.clear()
            p = make_problem(pid, 200)
            report = solve(p, starting_point(p, 1), SolverConfig(jacobian_strategy=strategy))
            assert report.status == "converged"
            assert len(factored) == len(models) == report.iterations
            for (M, _b) in models:
                assert isinstance(M, CSRModel)
                assert M.nbytes == M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
            for M, factors in factored:
                assert sparse.issparse(M)
                assert isinstance(factors, _BandLU)


def test_troesch_inexact_steps_meet_the_contract_without_fallback(monkeypatch):
    direct = _counting(monkeypatch, newton_condg.linsolve, "solve_direct")
    steps = []
    original = newton_condg.solver.solve_inexact

    def recorded(M, b, eta):
        out = original(M, b, eta)
        steps.append((M, b, eta, out.s))
        return out

    monkeypatch.setattr(newton_condg.solver, "solve_inexact", recorded)
    p = make_problem("pb3_troesch", 500)
    config = SolverConfig(
        jacobian_strategy="finite_difference", linsolve="inexact", eta_policy=ConstantEta(0.1)
    )
    report = solve(p, starting_point(p, 1), config)
    assert report.status == "converged"
    assert report.iterations <= 6
    assert len(steps) == report.iterations
    assert direct == []
    for M, b, eta, s in steps:
        assert sparse.issparse(M)
        assert np.linalg.norm(M @ s - b) <= eta * np.linalg.norm(b)


def test_fd_build_reuses_the_residual_at_the_iterate():
    # one residual per iterate plus one per colour (3) per FD build
    p = make_problem("pb2_discrete_boundary", 500)
    calls = []

    def fun(x):
        calls.append(1)
        return p.fun(x)

    counted = dataclasses.replace(p, fun=fun)
    report = solve(counted, starting_point(p, 1), SolverConfig())
    k = report.iterations
    assert report.status == "converged"
    assert len(calls) == (k + 1) + 3 * k


class TestSparseProblems:
    def test_pattern_stored_as_boolean_csr(self):
        pattern = sparse.coo_array(
            (np.array([2.0, 0.0, 1.0, 5.0]), (np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))),
            shape=(2, 2),
        )
        for pattern in (pattern, np.eye(2, dtype=bool)):  # either form: one boolean CSR
            p = Problem(name="s", n=2, fun=lambda x: x, pattern=pattern,
                        feasible_set=Box([0, 0], [1, 1]))
            assert p.pattern.format == "csr" and p.pattern.dtype == bool
            assert p.pattern.has_canonical_format
            np.testing.assert_array_equal(p.pattern.toarray(), np.eye(2, dtype=bool))
        with pytest.raises(ValueError):
            Problem(name="s", n=3, fun=lambda x: x, pattern=sparse.eye_array(2),
                    feasible_set=Box(np.zeros(3), np.ones(3)))

    def test_pattern_is_read_only_and_shared_by_copies(self):
        mask = np.eye(3, dtype=bool)
        p = Problem(name="s", n=3, fun=lambda x: x, pattern=mask,
                    feasible_set=Box(np.zeros(3), np.ones(3)))
        for arr in (p.pattern.data, p.pattern.indices, p.pattern.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        mask[0, 1] = True  # the caller's mask was copied and stays writable
        assert p.pattern.nnz == 3
        assert dataclasses.replace(p, name="t").pattern is p.pattern

    @pytest.mark.parametrize("sparse_pattern", [True, False])
    @pytest.mark.parametrize("sparse_jac", [True, False])
    def test_check_problem_flags_off_pattern_entries(self, sparse_pattern, sparse_jac):
        n = 4
        A = _tridiagonal(-1.0, np.full(n, 4.0), -1.0)
        diagonal = sparse.eye_array(n, dtype=bool)
        pattern = diagonal if sparse_pattern else diagonal.toarray()
        jac = (lambda x: A) if sparse_jac else (lambda x: A.toarray())
        box = Box(np.zeros(n), np.ones(n))
        bad = Problem(name="bad", n=n, fun=lambda x: A @ x, jac=jac, pattern=pattern, feasible_set=box)
        with pytest.raises(AssertionError, match="pattern"):
            check_problem(bad)
        nojac = Problem(name="bad", n=n, fun=lambda x: A @ x, pattern=pattern, feasible_set=box)
        with pytest.raises(AssertionError, match="pattern"):
            check_problem(nojac)
        good = dataclasses.replace(bad, pattern=sparse.csr_array(A) if sparse_pattern else A.toarray() != 0)
        check_problem(good)

    @pytest.mark.parametrize("pid", SPARSE_IDS)
    def test_large_instances_build_no_square_array(self, pid):
        n = 10 ** 5
        tracemalloc.start()
        try:
            p = make_problem(pid, n)
            x = starting_point(p, 1)
            jac = p.jac(x)
            p.fun(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sparse.issparse(p.pattern) and sparse.issparse(jac)
        assert peak < 64 * n * 8  # far below one n-by-n float array (8 n^2 bytes)

    @pytest.mark.parametrize("pid", ["pb2_discrete_boundary", "pb3_troesch"])
    @pytest.mark.parametrize("strategy", ["exact", "finite_difference", "schubert"])
    def test_converges_at_n_1e5(self, pid, strategy):
        p = make_problem(pid, 10 ** 5)
        report = solve(p, starting_point(p, 1), SolverConfig(jacobian_strategy=strategy))
        assert report.status == "converged"
        assert report.residual_norms[-1] <= 1e-6
        assert p.feasible_set.contains(report.x, 1e-12)


def test_dense_patterns_keep_dense_models(monkeypatch):
    models = _counting(monkeypatch, newton_condg.solver, "solve_direct")
    for pid in ("pb1_h_equation", "pb4_discrete_integral"):
        p = make_problem(pid, 40)
        for strategy in ("exact", "finite_difference", "schubert"):
            models.clear()
            report = solve(p, starting_point(p, 1), SolverConfig(jacobian_strategy=strategy))
            assert report.status == "converged"
            assert all(type(M) is np.ndarray for (M, _b) in models)
    assert isinstance(as_model(np.eye(2)), np.ndarray)
