import math

import numpy as np
import pytest

from newton_condg import (
    RunReport,
    SolverConfig,
    TheoryParams,
    holder_majorant,
    holder_radius,
    majorant_sequence,
    make_problem,
    nf,
    rate_check,
    smale_majorant,
    smale_radius,
    solve,
    starting_point,
    verify_mk_conditions,
)
from newton_condg import solver

from oracles import random_theory_params, rho_bisection

EXACT_NEWTON = TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.0, lam=0.0)


def _grid(majorant, points=1000):
    top = 0.99 * 2.0 * majorant.nu
    return np.linspace(0.0, top, points)


@pytest.mark.parametrize(
    "majorant", [holder_majorant(1.0, 1.0), holder_majorant(2.5, 0.4), smale_majorant(1.0),
                 smale_majorant(3.0)],
    ids=["holder11", "holder_frac", "smale1", "smale3"],
)
class TestMajorantShape:
    def test_origin_conditions(self, majorant):
        assert majorant.f(0.0) == pytest.approx(0.0, abs=1e-15)
        assert majorant.fprime(0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_derivative_strictly_increasing(self, majorant):
        vals = majorant.fprime(_grid(majorant))
        assert np.all(np.diff(vals) > 0)

    def test_newton_map_negative_inside_nu(self, majorant):
        ts = np.linspace(majorant.nu * 1e-6, majorant.nu * (1 - 1e-9), 1000)
        assert np.all(nf(majorant, ts) < 0)


class TestNewtonMap:
    def test_hand_value_holder(self):
        # f(t) = t^2/2 - t: nf(0.5) = 0.5 - (-0.375)/(-0.5)
        assert nf(holder_majorant(1.0, 1.0), 0.5) == pytest.approx(-0.25)

    def test_vanishing_ratio_at_zero(self):
        m = holder_majorant(1.0, 1.0)
        assert abs(nf(m, 1e-6)) / 1e-6 < 1e-5

    def test_hand_value_smale(self):
        m = smale_majorant(1.0)
        assert m.f(0.1) == pytest.approx(0.1 / 0.9 - 0.2)
        assert m.fprime(0.1) == pytest.approx(1.0 / 0.81 - 2.0)
        assert nf(m, 0.1) < 0

    def test_domain_enforced(self):
        m = holder_majorant(1.0, 1.0)
        for bad in (0.0, -0.1, 1.0, 2.0, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError):
                nf(m, bad)


class TestHolderRadius:
    def test_exact_newton_pinned_value(self):
        rb = holder_radius(1.0, 1.0, EXACT_NEWTON)
        assert rb.rho == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert rb.nu == 1.0
        assert rb.sigma == rb.rho  # kappa = inf

    def test_kappa_clamp(self):
        rb = holder_radius(1.0, 1.0, EXACT_NEWTON, kappa=0.1)
        assert rb.sigma == 0.1

    def test_rho_below_nu(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            om1, om2, vt, lam = random_theory_params(rng)
            tp = TheoryParams(om1, om2, vt, lam)
            rb = holder_radius(rng.uniform(0.1, 10), rng.uniform(0.3, 1.0), tp)
            assert 0.0 < rb.rho <= rb.nu

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            om1, om2, vt, lam = random_theory_params(rng)
            tp = TheoryParams(om1, om2, vt, lam)
            K = rng.uniform(0.1, 10.0)
            p = rng.uniform(0.3, 1.0)
            m = holder_majorant(K, p)
            rho = holder_radius(K, p, tp).rho
            oracle = rho_bisection(m.f, m.fprime, m.nu, tp)
            assert abs(rho - oracle) <= 1e-8 * rho

    def test_invalid_theory_rejected(self):
        with pytest.raises(ValueError):
            holder_radius(1.0, 1.0, TheoryParams(omega1=1.0, omega2=2.0))

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, math.nan])
    def test_non_positive_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            holder_radius(1.0, 1.0, EXACT_NEWTON, kappa=kappa)


class TestSmaleRadius:
    def test_exact_newton_pinned_value(self):
        rb = smale_radius(1.0, EXACT_NEWTON)
        assert rb.rho == pytest.approx((5.0 - math.sqrt(17.0)) / 4.0, rel=1e-15)
        # ordering rho < nu < 1/gamma
        assert rb.rho < rb.nu == pytest.approx(1.0 - 1.0 / math.sqrt(2.0))
        assert rb.nu < 1.0

    def test_kappa_clamp(self):
        assert smale_radius(1.0, EXACT_NEWTON, kappa=0.05).sigma == 0.05

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, math.nan])
    def test_non_positive_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            smale_radius(1.0, EXACT_NEWTON, kappa=kappa)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-320])
    def test_subnormal_gamma_gives_infinite_radii(self, gamma):
        # 4 gamma b underflows to 0 at 5e-324: rho is inf there as at 1e-320
        rb = smale_radius(gamma, TheoryParams(omega1=1.0, vartheta=0.5, lam=0.3))
        assert rb.nu == rb.rho == rb.sigma == math.inf

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            om1, om2, vt, lam = random_theory_params(rng)
            tp = TheoryParams(om1, om2, vt, lam)
            gamma = rng.uniform(0.1, 10.0)
            m = smale_majorant(gamma)
            rho = smale_radius(gamma, tp).rho
            oracle = rho_bisection(m.f, m.fprime, m.nu, tp)
            assert abs(rho - oracle) <= 1e-8 * rho


def test_contraction_inequality_on_grid():
    # omega1(1+vt)(1+lam)|nf(t)| + q t < t strictly inside (0, rho)
    rng = np.random.default_rng(3)
    for _ in range(20):
        om1, om2, vt, lam = random_theory_params(rng)
        tp = TheoryParams(om1, om2, vt, lam)
        K, p = rng.uniform(0.1, 5.0), rng.uniform(0.3, 1.0)
        m = holder_majorant(K, p)
        rho = holder_radius(K, p, tp).rho
        ts = np.linspace(rho * 1e-6, rho * (1 - 1e-9), 1000)
        q = om1 * ((1 + vt) * lam + vt) + om2
        lhs = om1 * (1 + vt) * (1 + lam) * np.abs(nf(m, ts)) + q * ts
        assert np.all(lhs < ts)
        assert np.all(lhs > 0)


def test_h3_ratio_strictly_increasing_for_holder():
    for K, p in ((1.0, 1.0), (2.0, 0.5), (0.3, 0.8)):
        m = holder_majorant(K, p)
        ts = np.linspace(m.nu * 1e-4, m.nu * (1 - 1e-9), 1000)
        ratio = (m.f(ts) / m.fprime(ts) - ts) / ts ** (p + 1)
        assert np.all(np.diff(ratio) > 0)


class TestMajorantSequence:
    def test_exact_newton_reduces_to_newton_map(self):
        m = holder_majorant(1.0, 1.0)
        ts = majorant_sequence(m, EXACT_NEWTON, 0.0, 0.5, 3)
        assert ts[1] == pytest.approx(0.25)
        assert ts[2] == pytest.approx(1.0 / 24.0)
        np.testing.assert_allclose(ts[1:], [abs(nf(m, t)) for t in ts[:-1]][: len(ts) - 1])

    def test_exact_newton_hits_floor_within_200(self):
        ts = majorant_sequence(holder_majorant(1.0, 1.0), EXACT_NEWTON, 0.0, 0.5, 200)
        assert ts[-1] < 1e-12

    def test_strictly_decreasing_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            om1, om2, vt, lam = random_theory_params(rng)
            tp = TheoryParams(om1, om2, vt, lam)
            theta = rng.uniform(0.0, lam ** 2 / 2.0) if lam > 0 else 0.0
            kind = rng.integers(0, 2)
            if kind == 0:
                K, p = rng.uniform(0.2, 4.0), rng.uniform(0.3, 1.0)
                m = holder_majorant(K, p)
                rho = holder_radius(K, p, tp).rho
            else:
                g = rng.uniform(0.2, 4.0)
                m = smale_majorant(g)
                rho = smale_radius(g, tp).rho
            t0 = rng.uniform(0.05, 0.95) * rho
            # the tail is linear with ratio omega1[(1+vt)sqrt(2 theta)+vt]+omega2
            # < 1, so the horizon to reach 1e-12 depends on the draw
            q = om1 * ((1 + vt) * math.sqrt(2 * theta) + vt) + om2
            kmax = 200 + int(40.0 / -math.log((1.0 + q) / 2.0))
            ts = majorant_sequence(m, tp, theta, t0, kmax)
            assert np.all(np.diff(ts) < 0)
            assert ts[-1] < 1e-12

    def test_preconditions(self):
        m = holder_majorant(1.0, 1.0)
        with pytest.raises(ValueError, match="t0"):
            majorant_sequence(m, EXACT_NEWTON, 0.0, 0.7, 10)  # 0.7 > rho = 2/3
        with pytest.raises(ValueError, match="theta"):
            majorant_sequence(m, EXACT_NEWTON, 1e-5, 0.5, 10)  # theta > lam^2/2 = 0

    @pytest.mark.parametrize("kmax", [2.5, 2.0, -1, True, np.float64(3.0)])
    def test_kmax_must_be_an_integer_at_least_0(self, kmax):
        with pytest.raises(ValueError, match="^kmax must be an integer >= 0$"):
            majorant_sequence(holder_majorant(1.0, 1.0), EXACT_NEWTON, 0.0, 0.5, kmax)

    def test_kmax_counts_the_terms_after_t0(self):
        m = holder_majorant(1.0, 1.0)
        assert majorant_sequence(m, EXACT_NEWTON, 0.0, 0.5, 0).tolist() == [0.5]
        assert majorant_sequence(m, EXACT_NEWTON, 0.0, 0.5, np.int64(3)).size == 4

    @pytest.mark.parametrize("family", ["holder", "smale"])
    def test_t0_bound_is_the_closed_form_rho(self, family):
        tp = TheoryParams(omega1=1.2, omega2=0.1, vartheta=0.05, lam=0.2)
        if family == "holder":
            m, rho = holder_majorant(1.5, 0.6), holder_radius(1.5, 0.6, tp).rho
        else:
            m, rho = smale_majorant(1.5), smale_radius(1.5, tp).rho
        assert majorant_sequence(m, tp, 0.0, np.nextafter(rho, 0.0), 1).size == 2
        with pytest.raises(ValueError, match="t0 < rho"):
            majorant_sequence(m, tp, 0.0, rho, 1)

    def test_t0_at_rho_names_rho(self):
        m = smale_majorant(1.0)
        rho = smale_radius(1.0, EXACT_NEWTON).rho
        with pytest.raises(ValueError, match="t0 < rho"):
            majorant_sequence(m, EXACT_NEWTON, 0.0, rho, 10)


class TestRateCheck:
    def _exact_run(self, theta=0.0):
        p = make_problem("synthetic_quadratic", 10)
        x0 = p.known_root + 0.03
        cfg = SolverConfig(jacobian_strategy="exact", theta=theta)
        return p, solve(p, x0, cfg)

    def test_exact_newton_run_superlinear(self):
        p, report = self._exact_run()
        diag = rate_check(report, p.known_root, holder_majorant(1.0, 1.0),
                          EXACT_NEWTON, 0.0)
        assert diag.ratio_cap == 0.0
        assert diag.ratio_within_cap  # ratios fall below the 0.1 slack
        assert diag.per_step_bound_ok
        assert diag.envelope_ok
        # superlinear: quadratic ratios stay bounded
        errs = diag.errors
        quad = [b / a ** 2 for a, b in zip(errs[:-1], errs[1:]) if a > 1e-10]
        assert max(quad) <= 10 * np.median(quad)

    def test_single_iterate_at_root_is_vacuous(self):
        p = make_problem("synthetic_quadratic", 10)
        report = solve(p, p.known_root, SolverConfig(jacobian_strategy="exact"))
        diag = rate_check(report, p.known_root, holder_majorant(1.0, 1.0),
                          EXACT_NEWTON, 0.0)
        assert diag.max_ratio_last5 is None
        assert diag.ratio_within_cap and diag.per_step_bound_ok and diag.envelope_ok

    def test_fd_run_with_inexactness_budget(self):
        p = make_problem("synthetic_quadratic", 10)
        x0 = p.known_root + 0.03
        report = solve(p, x0, SolverConfig(theta=1e-5))
        tp = TheoryParams(omega1=1.0, omega2=0.0, vartheta=0.0,
                          lam=math.sqrt(2e-5))
        diag = rate_check(report, p.known_root, holder_majorant(1.0, 1.0), tp, 1e-5)
        assert diag.ratio_within_cap
        assert diag.envelope_ok

    def test_envelope_pads_a_truncated_sequence_with_zeros(self):
        majorant = holder_majorant(1.0, 1.0)
        ts = majorant_sequence(majorant, EXACT_NEWTON, 0.0, 0.1, 20)
        assert ts.size == 6 and ts[-1] == 0.0  # stopped at an exact 0

        def diagnose(tail):
            errors = list(ts) + [tail, tail]
            report = RunReport(status="converged",
                               iterates=[np.array([e]) for e in errors])
            return rate_check(report, np.zeros(1), majorant, EXACT_NEWTON, 0.0)

        assert not diagnose(1e-11).envelope_ok  # 1e-11 > 0 + ENVELOPE_SLACK
        assert diagnose(0.0).envelope_ok

    def test_requires_convergence(self):
        p = make_problem("synthetic_quadratic", 10)
        report = solve(p, p.known_root + 0.03,
                       SolverConfig(jacobian_strategy="exact", max_outer=1,
                                    tol_inf=1e-12))
        with pytest.raises(ValueError, match="converged"):
            rate_check(report, p.known_root, holder_majorant(1.0, 1.0),
                       EXACT_NEWTON, 0.0)


@pytest.mark.parametrize("K, p, message", [
    (0.0, 1.0, "K must be positive"),
    (-1.0, 0.5, "K must be positive"),
    (1.0, 0.0, r"p must lie in \(0, 1\]"),
    (1.0, 1.5, r"p must lie in \(0, 1\]"),
])
def test_holder_majorant_rejects_its_constants(K, p, message):
    with pytest.raises(ValueError, match=message):
        holder_majorant(K, p)


def test_smale_majorant_rejects_a_non_positive_gamma():
    with pytest.raises(ValueError, match="gamma must be positive"):
        smale_majorant(0)


@pytest.mark.parametrize("scale", [1.0, 2.0], ids=["at_nu", "beyond_nu"])
def test_rate_check_rejects_a_start_outside_the_majorant_domain(scale):
    majorant = holder_majorant(1.0, 1.0)
    report = RunReport(status="converged",
                       iterates=[np.array([scale * majorant.nu]), np.zeros(1)])
    with pytest.raises(ValueError, match=r"starting error outside the majorant domain"):
        rate_check(report, np.zeros(1), majorant, EXACT_NEWTON, 0.0)


def _schubert_omega2(monkeypatch, pid, gamma):
    """(model, ||M_k^{-1} F'(x_k) - I||_2) of every step of a converged Schubert
    solve of pid at n = 100 from x0(gamma), F' being the exact Jacobian at the
    step's iterate: the omega2 each model needs for the paper's hypothesis."""
    real, built = solver.next_jacobian, []

    def record(state, k, problem, x, *args):
        out = real(state, k, problem, x, *args)
        built.append((x.copy(), out.M))
        return out

    monkeypatch.setattr(solver, "next_jacobian", record)
    p = make_problem(pid, 100)
    report = solve(p, starting_point(p, gamma), SolverConfig(jacobian_strategy="schubert"))
    assert report.status == "converged" and len(report.steps) == len(built) == 7
    unit = TheoryParams(omega1=1.0)
    return [(step.model, verify_mk_conditions(M, p.jac(x), unit).norm_inv_jac_minus_identity)
            for step, (x, M) in zip(report.steps, built)]


@pytest.mark.parametrize("pid, gamma", [("pb1_h_equation", 2), ("pb4_discrete_integral", 1)])
def test_finite_difference_models_are_near_the_jacobian(monkeypatch, pid, gamma):
    omega2 = [w for model, w in _schubert_omega2(monkeypatch, pid, gamma)
              if model == "finite_difference"]
    assert len(omega2) == 3 and max(omega2) < 0.01


def test_pb1_secant_models_leave_the_hypothesis(monkeypatch):
    # measured 0.85, 1.79, 2.68 and 3.25: the run converges outside omega2 < 1
    omega2 = [w for model, w in _schubert_omega2(monkeypatch, "pb1_h_equation", 2)
              if model == "secant"]
    assert len(omega2) == 4 and max(omega2) > 1.0


def test_pb4_secant_models_meet_the_hypothesis(monkeypatch):
    # measured 0.20, 0.18, 0.15 and 0.15
    omega2 = [w for model, w in _schubert_omega2(monkeypatch, "pb4_discrete_integral", 1)
              if model == "secant"]
    assert len(omega2) == 4 and max(omega2) < 0.5
