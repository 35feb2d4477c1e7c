"""The theory layer keeps its recorded numbers.

tests/data/theory_golden.json holds, for seeded draws of `random_theory_params`
in each majorant family, the radii nu, rho and sigma and the first terms of
`majorant_sequence`, plus every `rate_check` field of two converged
`synthetic_quadratic` runs (exact Newton with theta = 0, and finite
differences with theta = 1e-5). A change that moves any of them by more than a
relative 1e-12 fails here and has to explain itself. To rewrite the table:

    PYTHONPATH=src python tests/test_theory_golden.py --write
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from newton_condg import (
    SolverConfig,
    TheoryParams,
    holder_majorant,
    holder_radius,
    majorant_sequence,
    make_problem,
    rate_check,
    smale_majorant,
    smale_radius,
    solve,
)

from oracles import random_theory_params

TABLE = Path(__file__).resolve().parent / "data" / "theory_golden.json"
DRAWS = 20
TERMS = 10
RTOL = 1e-12


def _draw(rng, family):
    om1, om2, vt, lam = random_theory_params(rng)
    theory = TheoryParams(om1, om2, vt, lam)
    kappa = math.inf if rng.uniform() < 0.5 else float(rng.uniform(0.01, 1.0))
    if family == "holder":
        K, p = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.3, 1.0))
        majorant = holder_majorant(K, p)
        radii = holder_radius(K, p, theory, kappa=kappa)
        constants = {"K": K, "p": p}
    else:
        gamma = float(rng.uniform(0.1, 10.0))
        majorant = smale_majorant(gamma)
        radii = smale_radius(gamma, theory, kappa=kappa)
        constants = {"gamma": gamma}
    theta = float(rng.uniform(0.0, lam ** 2 / 2.0))
    t0 = float(rng.uniform(0.05, 0.95)) * radii.rho
    ts = majorant_sequence(majorant, theory, theta, t0, TERMS - 1)
    return {
        "theory": [om1, om2, vt, lam], **constants, "kappa": _num(kappa),
        "nu": radii.nu, "rho": radii.rho, "sigma": radii.sigma,
        "theta": theta, "t0": t0, "sequence": [float(t) for t in ts],
    }


def _rate_fields(strategy, theta, theory):
    problem = make_problem("synthetic_quadratic", 10)
    report = solve(problem, problem.known_root + 0.03,
                   SolverConfig(jacobian_strategy=strategy, theta=theta))
    diag = rate_check(report, problem.known_root, holder_majorant(1.0, 1.0), theory,
                      theta)
    return {
        "strategy": strategy, "theta": theta,
        "errors": [float(e) for e in diag.errors],
        "ratios": [float(r) for r in diag.ratios],
        "max_ratio_last5": diag.max_ratio_last5, "ratio_cap": diag.ratio_cap,
        "ratio_within_cap": diag.ratio_within_cap,
        "per_step_bound_ok": diag.per_step_bound_ok, "envelope_ok": diag.envelope_ok,
    }


def _num(value):
    """value, with an infinite one as the string "inf" (JSON has no infinity)."""
    return "inf" if value == math.inf else value


def compute_table():
    rng = np.random.default_rng(20171)
    return {
        "holder": [_draw(rng, "holder") for _ in range(DRAWS)],
        "smale": [_draw(rng, "smale") for _ in range(DRAWS)],
        "rate_check": [
            _rate_fields("exact", 0.0, TheoryParams(omega1=1.0)),
            _rate_fields("finite_difference", 1e-5,
                         TheoryParams(omega1=1.0, lam=math.sqrt(2e-5))),
        ],
    }


def _assert_same(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def test_theory_layer_matches_the_recorded_table():
    want = json.loads(TABLE.read_text())
    got = json.loads(json.dumps(compute_table()))
    _assert_same(got, want, "table")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_theory_golden.py --write")
    TABLE.write_text(json.dumps(compute_table(), indent=1) + "\n")
