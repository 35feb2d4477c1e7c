import json

import numpy as np
import pytest

import newton_condg.cli
from newton_condg import AdaptiveEta, Box, ConstantEta, Problem, make_problem
from newton_condg.cli import CSV_HEADER, METHOD_TO_STRATEGY, build_parser, main, suite_runs
from newton_condg.jacobian import JACOBIAN_STRATEGIES


def _strip_wall(text):
    lines = text.strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestRadius:
    def test_holder_pinned(self, capsys):
        assert main([
            "radius", "--kind", "holder", "--K", "1", "--p", "1",
            "--omega1", "1", "--omega2", "0", "--vartheta", "0", "--lambda", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "rho = 0.666666666667" in out
        assert "nu = 1" in out
        assert "sigma = 0.666666666667" in out

    def test_smale_pinned(self, capsys):
        assert main(["radius", "--kind", "smale", "--gamma", "1"]) == 0
        out = capsys.readouterr().out
        assert "rho = 0.219223593596" in out

    def test_smale_subnormal_gamma_exit_0(self, capsys):
        assert main(["radius", "--kind", "smale", "--gamma", "5e-324",
                     "--vartheta", "0.5", "--lambda", "0.3"]) == 0
        assert "rho = inf" in capsys.readouterr().out

    def test_invalid_theory_params_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--kind", "holder", "--K", "1", "--p", "1",
                  "--omega1", "1", "--omega2", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "family",
        [["--kind", "holder", "--K", "1", "--p", "1"], ["--kind", "smale", "--gamma", "1"]],
        ids=["holder", "smale"],
    )
    def test_lambda_with_a_zero_radius_divisor_exit_2(self, family, capsys):
        # lambda is below the closed form (1 - omega2 - omega1 vartheta) /
        # (omega1 (1 + vartheta)), yet 1 - omega1((1 + vartheta) lambda +
        # vartheta) - omega2 rounds to 0: a usage error, not a
        # ZeroDivisionError or rho = 0
        with pytest.raises(SystemExit) as exc:
            main(["radius", *family, "--omega1", "0.6", "--omega2", "0.5499999999999999",
                  "--vartheta", "0.7499999999999999", "--lambda", "1.0007032796395773e-16"])
        assert exc.value.code == 2
        assert "violated: 0 <= lambda" in capsys.readouterr().err

    def test_missing_family_constant_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--kind", "holder"])
        assert exc.value.code == 2

    def test_smale_without_gamma_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--kind", "smale"])
        assert exc.value.code == 2
        assert "--kind smale needs --gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", ["-1", "0", "nan"])
    @pytest.mark.parametrize(
        "family",
        [["--kind", "holder", "--K", "1", "--p", "1"], ["--kind", "smale", "--gamma", "1"]],
        ids=["holder", "smale"],
    )
    def test_non_positive_kappa_exit_2(self, family, kappa, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", *family, "--kappa", kappa])
        assert exc.value.code == 2
        assert "sigma" not in capsys.readouterr().out


class TestSolve:
    def test_known_root_problem_converges(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main([
            "solve", "--problem", "synthetic_quadratic", "--n", "10",
            "--gamma", "1", "--method", "exact", "--theta", "0",
            "--trace", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "synthetic_quadratic"
        assert fields[6] == "converged"
        assert float(fields[5]) <= 1e-6
        payload = json.loads(trace.read_text())
        assert payload["status"] == "converged"
        assert len(payload["iterates"]) == len(payload["residual_norms"])
        assert len(payload["iterates"][0]) == 10
        assert payload["uncertified_steps"] == 0
        assert len(payload["steps"]) == len(payload["iterates"]) - 1
        for step in payload["steps"]:
            assert set(step) == {
                "step_norm", "eta_used", "inner_iters", "final_gap", "terminated_by",
                "model", "kernel",
            }
            assert step["model"] == "exact"
            assert step["kernel"] == "gttrf"  # synthetic_quadratic's diagonal model

    def test_json_output_to_file(self, tmp_path):
        out_path = tmp_path / "row.json"
        code = main([
            "solve", "--problem", "synthetic_linear", "--method", "fd",
            "--format", "json", "--out", str(out_path),
        ])
        assert code == 0
        row = json.loads(out_path.read_text())
        assert row["status"] == "converged"
        assert row["final_norm_inf"] <= 1e-6
        assert row["models"] == ["finite_difference"] * row["iters"]
        assert row["kernels"] == ["gttrf"] * row["iters"]  # its tridiagonal pattern

    def test_step_models_follow_the_refresh_schedule(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main([
            "solve", "--problem", "pb1_h_equation", "--n", "30", "--gamma", "3",
            "--method", "schubert", "--refresh", "2", "--format", "json",
            "--trace", str(trace),
        ])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        steps = json.loads(trace.read_text())["steps"]
        assert row["models"] == [step["model"] for step in steps]
        assert row["kernels"] == [step["kernel"] for step in steps]
        # a dense pb1 model at n = 30 is getrf's; a secant step has no float32
        # factors to update there, so it is factorized afresh
        assert set(row["kernels"]) == {"getrf"}
        # refresh at k = 0, 1, 3, 5, ...; a secant update between
        assert row["models"][:4] == ["finite_difference", "finite_difference", "secant",
                                     "finite_difference"]

    def test_failure_exit_code_1(self):
        code = main([
            "solve", "--problem", "synthetic_quadratic", "--method", "exact",
            "--tol", "1e-30", "--max-iter", "1",
        ])
        assert code == 1

    def test_missing_problem_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_problem_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", "pb99_unknown"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", "synthetic_quadratic", "--n", "1"])
        assert exc.value.code == 2
        assert "n must be an integer >= 2" in capsys.readouterr().err

    def test_h_equation_row(self, capsys):
        code = main(["solve", "--problem", "pb1_h_equation", "--n", "400",
                     "--gamma", "1", "--method", "fd"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[6] == "converged"
        assert int(row[4]) <= 8  # typically 5
        assert float(row[5]) <= 1e-6

    def test_inexact_linsolve_path(self, capsys):
        code = main(["solve", "--problem", "synthetic_linear", "--method", "exact",
                     "--linsolve", "inexact", "--eta-policy", "adaptive:1,0.1"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[6] == "converged"


class TestBenchmark:
    def test_paper_core_grid_is_24_lexicographic_rows(self):
        runs = suite_runs("paper-core", ["fd", "schubert"], [1, 2, 3])
        assert len(runs) == 24
        keys = [(pid, gamma, method) for pid, _, gamma, method in runs]
        assert keys == sorted(keys)

    def test_synthetic_suite_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["benchmark", "--suite", "synthetic", "--out", str(path)]) == 0
        a, b = (p.read_text() for p in paths)
        assert _strip_wall(a) == _strip_wall(b)  # wall_ms excluded by design
        lines = a.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 12  # 2 problems x 3 gammas x 2 methods

    def test_row_invariant_and_formats(self, tmp_path):
        path = tmp_path / "synthetic.csv"
        main(["benchmark", "--suite", "synthetic", "--out", str(path)])
        for line in path.read_text().strip().splitlines()[1:]:
            problem, n, gamma, method, iters, final, status, wall = line.split(",")
            assert status in ("converged", "max_iterations", "no_progress",
                              "linear_solve_failure", "error")
            if status == "converged":
                assert float(final) <= 1e-6
            assert "e" in final  # scientific notation, 6 significant digits
            int(n), int(gamma), int(iters)

    def test_unknown_method_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--suite", "synthetic", "--methods", "bogus"])
        assert exc.value.code == 2

    def test_bare_adaptive_eta_policy_takes_the_defaults(self):
        args = build_parser().parse_args(
            ["solve", "--problem", "synthetic_linear", "--linsolve", "inexact",
             "--eta-policy", "adaptive"])
        assert args.eta_policy == AdaptiveEta()

    @pytest.mark.parametrize("command", ["solve", "benchmark"])
    def test_eta_policy_with_a_direct_solve_exit_2(self, capsys, command):
        argv = [command, "--linsolve", "direct", "--eta-policy", "adaptive:1,0.1"]
        if command == "solve":
            argv += ["--problem", "synthetic_quadratic"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "eta_policy applies to inexact solves only" in capsys.readouterr().err

    @pytest.mark.parametrize("text, policy", [
        ("constant", ConstantEta()),
        ("constant:0.3", ConstantEta(0.3)),
        ("adaptive:2", AdaptiveEta(2.0)),
        ("adaptive:2,", AdaptiveEta(2.0)),
        ("adaptive:2,0.5", AdaptiveEta(2.0, 0.5)),
    ])
    def test_eta_policy_takes_the_policy_defaults(self, text, policy):
        args = build_parser().parse_args(
            ["solve", "--problem", "synthetic_linear", "--eta-policy", text])
        assert args.eta_policy == policy

    def test_inexact_default_policy_is_solver_configs(self, capsys):
        args = build_parser().parse_args(["solve", "--problem", "synthetic_linear"])
        assert args.eta_policy is None
        rows = []
        for extra in ([], ["--eta-policy", "constant"]):
            assert main(["solve", "--problem", "pb3_troesch", "--n", "50",
                         "--linsolve", "inexact", *extra]) == 0
            rows.append(_strip_wall(capsys.readouterr().out))
        assert rows[0] == rows[1]

    def test_bad_eta_policy_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", "synthetic_quadratic",
                  "--linsolve", "inexact", "--eta-policy", "bogus:1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "synthetic_linear", "--refresh", "0"],
    ["solve", "--problem", "synthetic_linear", "--tol", "-1"],
    ["benchmark", "--suite", "synthetic", "--max-condg", "0"],
    ["benchmark", "--suite", "synthetic", "--gammas", "5"],
    ["benchmark", "--suite", "synthetic", "--gammas", "1,x"],
    ["benchmark", "--suite", "synthetic", "--gammas", ""],
    ["benchmark", "--suite", "synthetic", "--methods", ""],
    ["benchmark", "--suite", "synthetic", "--eta-policy", "constant:2"],
    ["solve", "--problem", "pb1_h_equation", "--gamma", "3", "--theta", "nan"],
    ["solve", "--problem", "pb3_troesch", "--n", "50", "--linsolve", "inexact",
     "--eta-policy", "adaptive:nan,0.1"],
], ids=["refresh", "tol", "max-condg", "gammas-range", "gammas-int", "gammas-empty",
        "methods-empty", "eta-range", "theta-nan", "adaptive-c-nan"])
def test_bad_solver_flag_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_every_method_names_a_jacobian_strategy():
    assert all(s in JACOBIAN_STRATEGIES for s in METHOD_TO_STRATEGY.values())
    assert sorted(METHOD_TO_STRATEGY.values()) == sorted(JACOBIAN_STRATEGIES)


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as jq and JSON.parse do."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_error_row_names_the_exception(monkeypatch, tmp_path, capsys):
    def fun(x):
        raise RuntimeError("residual blew up")

    broken = Problem(name="broken", n=3, fun=fun, feasible_set=Box(np.zeros(3), np.ones(3)))
    monkeypatch.setattr(newton_condg.cli, "make_problem", lambda pid, n: broken)
    argv = ["solve", "--problem", "synthetic_linear", "--n", "3"]
    trace = tmp_path / "trace.json"
    assert main(argv + ["--format", "json", "--trace", str(trace)]) == 1
    row = _strict_json(capsys.readouterr().out)
    assert row["status"] == "error"
    assert row["error"] == "RuntimeError: residual blew up"
    assert row["final_norm_inf"] is None
    assert _strict_json(trace.read_text()) == {
        "status": "error", "error": "RuntimeError: residual blew up",
    }
    assert main(argv) == 1
    header, line = capsys.readouterr().out.strip().splitlines()
    assert header == CSV_HEADER
    assert line.split(",")[:7] == ["synthetic_linear", "3", "1", "fd", "0", "nan", "error"]


def test_non_finite_residual_is_null_in_json(monkeypatch, tmp_path, capsys):
    nan_everywhere = Problem(
        name="nan", n=3, fun=lambda x: np.full(3, np.nan),
        feasible_set=Box(np.zeros(3), np.ones(3)),
    )
    monkeypatch.setattr(newton_condg.cli, "make_problem", lambda pid, n: nan_everywhere)
    trace = tmp_path / "trace.json"
    argv = ["solve", "--problem", "synthetic_linear", "--n", "3", "--format", "json"]
    assert main(argv + ["--trace", str(trace)]) == 1
    row = _strict_json(capsys.readouterr().out)
    assert row["status"] == "linear_solve_failure"
    assert row["final_norm_inf"] is None
    assert _strict_json(trace.read_text())["residual_norms"] == [None]


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for pid in ("pb1_h_equation", "pb2_discrete_boundary", "pb3_troesch",
                "pb4_discrete_integral", "synthetic_quadratic", "synthetic_linear"):
        assert pid in out
    lines = out.splitlines()
    assert len(lines) == 6
    for line in lines:
        pid, _n, box = line.split()[:3]
        lower, upper = (float(v) for v in box.removeprefix("box=[").rstrip("]").split(","))
        fset = make_problem(pid, 7).feasible_set
        assert np.all(fset.lower == lower) and np.all(fset.upper == upper)
