"""Tests of the benchmark's oracles, tracer and result comparison.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import math

import pytest
from scipy.integrate import quad

import compare
import oracle
import run
from mangledworlds import (analytic, born_experiment, monte_carlo, pde_solver,
                           special_functions)
from mangledworlds.model_params import (DecoherenceParams, DiffusionParams,
                                        binary_event_stats, to_diffusion)
from tracer import Tracer

BORN_DIFF = to_diffusion(DecoherenceParams(p=0.55, r=1.0), 0.2)
OUTCOMES = [(0.5, 1), (0.25, 1), (0.0625, 4)]
#: the same integral evaluated with mpmath at 30 digits
EXACT_RATIOS = [1.364194929, 0.9404510261, 0.3311591162]


def test_two_stage_ratios_pinned():
    got = oracle.two_stage_ratios(OUTCOMES, BORN_DIFF.w, BORN_DIFF.eps, 400.0, 3200.0)
    assert got == pytest.approx(EXACT_RATIOS, rel=1e-8)


def test_pde_engine_matches_oracle_at_born_pde_grid():
    outcomes = [born_experiment.BornOutcomeSpec(f"o{i}", f, g)
                for i, (f, g) in enumerate(OUTCOMES)]
    grid = pde_solver.suggested_grid(BORN_DIFF, 3600.0, max_abs_log_F=math.log(16.0),
                                     n_cells=4096)
    report = born_experiment.deviation_table(
        outcomes, DecoherenceParams(p=0.55, r=1.0), 0.2, 400.0, 3200.0,
        ("pde",), grid=grid)
    got = [r.share_over_born for r in report.rows]
    assert got == pytest.approx([1.36419, 0.94045, 0.33116], abs=1e-5)
    assert got == pytest.approx(EXACT_RATIOS, rel=run.PDE_RATIO_TOL)


def test_stage_one_density_integrates_to_survival_mass():
    s, eps = 4.0, 0.2
    mass, _ = quad(lambda u: oracle.stage_one_density(u, eps, s), 0.0, 60.0,
                   limit=200, epsrel=1e-12)
    assert mass == pytest.approx(oracle.survival_mass(eps, s), rel=1e-9)


@pytest.mark.parametrize("p,eps,n", [(0.6, 0.3, 12), (0.55, 0.2, 20), (0.7, 0.5, 18)])
def test_lattice_count_matches_enumeration(p, eps, n):
    exact = monte_carlo.enumerate_survivors(
        monte_carlo.WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n))
    got = math.exp(oracle.lattice_log_count(p, eps, n, binary_event_stats(p)[0]))
    assert got == pytest.approx(exact.count, rel=1e-12)


def test_outcomes_are_seeded_and_sum_to_one():
    assert run.draw_outcomes(3) == run.draw_outcomes(3) != run.draw_outcomes(4)
    for seed in range(50):
        outcomes = run.draw_outcomes(seed)
        born_experiment.validate_outcomes(
            [born_experiment.BornOutcomeSpec(*o) for o in outcomes])


def test_tracer_sees_from_imported_copies_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        assert analytic.bracket is special_functions.bracket
        assert hasattr(analytic.bracket, "__wrapped__")
        analytic.lambda_count(0.5, 1, 4.0, 8.0, DiffusionParams(1.0, 0.5, 0.1))
    finally:
        tracer.uninstall()
    assert not hasattr(analytic.bracket, "__wrapped__")
    names = {(s.layer, s.name) for s in tracer.spans}
    assert ("special_functions", "bracket") in names
    root = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in root] == ["lambda_count"]
    total = sum(v["self_s"] for v in tracer.summary()["layers"].values())
    assert total == pytest.approx(root[0].duration, rel=1e-9)


def test_parse_importtime_subtracts_nested_package_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     mangledworlds.errors",
        "import time:      2000 |       2000 |         scipy.linalg",
        "import time:        50 |       2050 |       mangledworlds._io",
        "import time:        10 |       2500 |     mangledworlds.pde_solver",
        "import time:         5 |       2605 |   mangledworlds",
        "import time:        30 |       2635 | mangledworlds.cli",
    ])
    own = run.parse_importtime(text)
    assert own["mangledworlds.pde_solver"] == pytest.approx(450e-6)
    assert own["mangledworlds._io"] == pytest.approx(2050e-6)
    assert own["mangledworlds"] == pytest.approx(5e-6)
    assert own["mangledworlds.cli"] == pytest.approx(30e-6)


def test_compare_verdicts():
    parent = [(s, 10.0 + 0.01 * s) for s in range(10)]
    assert compare.verdict(parent, [(s, v * 0.8) for s, v in parent], True, 0.1)[2] == "better"
    assert compare.verdict(parent, [(s, v * 1.2) for s, v in parent], True, 0.1)[2] == "REGRESSION"
    assert compare.verdict(parent, [(s, v * 1.01) for s, v in parent], True, 0.1)[2] == "within bound"
    noisy = [(s, 10.0 * (1 + 0.3 * (s % 2))) for s in range(10)]
    assert compare.verdict(noisy, noisy, True, 0.1)[2] == "unresolved"
