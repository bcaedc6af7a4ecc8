"""Acceptance suite: the binding cross-validation criteria, one test per
criterion (or sub-criterion), each printing a PASS/FAIL line with the
measured number next to its tolerance.

Three sub-criteria (6c, 7c, 8) assert tolerances that the faithfully
implemented model misses at the pinned parameters; the gaps are real
properties of the model, reproduced independently by the exact-composition
quadrature oracle (test_pde_solver.TestBornTwoStage) and the estimator
variance analysis (test_monte_carlo.TestTiltedEstimator).  They are left
red on purpose rather than loosened.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mangledworlds import analytic, born_experiment, monte_carlo, pde_solver
from mangledworlds.cli import run as cli_run
from mangledworlds.model_params import (DecoherenceParams, DiffusionParams,
                                        to_diffusion)
from mangledworlds.special_functions import (
    _SEAM, _erfcx_asymptotic, _erfcx_direct, bracket)

DESK = DiffusionParams(v=1.0, w=0.5, eps=0.1)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


# -- 1: headline reproduction ------------------------------------------------

def test_c01_headline_reproduction():
    rep = born_experiment.headline_check()
    gamma_ok = abs(rep.gamma - 0.3173105) <= 1e-6
    log_ok = abs(rep.log10_F - (-43429.45)) <= 0.01
    report("1", gamma_ok and log_ok,
           f"gamma = {rep.gamma:.9f} (want 0.3173105 +- 1e-6), "
           f"log10 F = {rep.log10_F:.3f} (want -43429.45 +- 0.01)")


# -- 2: near-Born property ---------------------------------------------------

def test_c02_near_born_property():
    worst = 0.0
    for log_f in np.linspace(-100.0, 0.0, 50):
        gamma = analytic.gamma_correction_log(float(log_f), 1e10, 1.0)
        worst = max(worst, 1.0 - gamma)
    report("2", worst <= 1e-3,
           f"max (1 - gamma) over 50 fractions down to e^-100 at w*t1 = 1e10 "
           f"is {worst:.3e} (tolerance 1e-3)")


# -- 3: density solves its equation ------------------------------------------

def test_c03_equation_consistency():
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        for k in (-2, -1, 0, 1, 2):
            x = -DESK.v * t + k * math.sqrt(DESK.w * t)
            worst = max(worst, abs(analytic.pde_residual_mu0(x, t, DESK, h=1e-4)))
    control = abs(analytic.pde_residual_mu0(-DESK.v, 1.0, DESK, h=1e-4,
                                            wrong_mean=True))
    report("3", worst <= 1e-5 and control > 0.1,
           f"worst normalized residual over 25 points {worst:.2e} "
           f"(tolerance 1e-5); flipped-mean control {control:.2f} (> 0.1)")


# -- 4: measure conservation ------------------------------------------------

def test_c04_measure_conservation():
    worst = 0.0
    for v, w, t in ((1.0, 0.5, 2.0), (0.7, 0.2, 5.0), (2.0, 1.5, 1.0)):
        dp = DiffusionParams(v=v, w=w, eps=0.1)
        mean, sd = -v * t, math.sqrt(w * t)
        total, _ = quad(lambda x: math.exp(x + analytic.log_mu0(x, t, dp)),
                        mean - 14.0 * sd - 1.0, mean + 16.0 * sd + 1.0,
                        limit=300)
        worst = max(worst, abs(total - 1.0))
    report("4", worst <= 1e-8,
           f"worst |integral e^x mu0 - 1| over three parameter triples "
           f"{worst:.2e} (tolerance 1e-8)")


# -- 5: closed forms vs quadrature -------------------------------------------

def test_c05_closed_form_vs_quadrature():
    worst_w = 0.0
    for t in (2.0, 8.0, 50.0):  # w t = 1, 4, 25
        got = analytic.quad_unmangled_count(t, DESK)
        want = analytic.log_unmangled_count(t, DESK)
        worst_w = max(worst_w, abs(math.expm1(got - want)))
    dp = DiffusionParams(v=1.0, w=0.5, eps=0.05)
    worst_l = 0.0
    for F in (0.25, math.exp(-5.0)):
        got = analytic.quad_lambda_count(F, 4, 50.0, 800.0, dp)
        want = analytic.lambda_count(F, 4, 50.0, 800.0, dp)
        worst_l = max(worst_l, abs(math.expm1(got - want)))
    report("5", worst_w <= 1e-6 and worst_l <= 0.02,
           f"count quadrature gap {worst_w:.2e} (tolerance 1e-6); "
           f"two-stage count quadrature gap {worst_l:.2e} (tolerance 2e-2)")


# -- 6: analytic vs grid solver ----------------------------------------------

@pytest.fixture(scope="module")
def pinned_solve():
    grid = pde_solver.Grid(y_max=40.0, n_cells=4096)
    field = pde_solver.solve(DESK, grid, 8.0)[-1]
    return grid, field


def test_c06a_survivor_count(pinned_solve):
    grid, field = pinned_solve
    got = pde_solver.survivor_count(field, grid, DESK)
    want = analytic.log_unmangled_count(8.0, DESK)
    rel = abs(math.expm1(got - want))
    report("6a", rel <= 0.01,
           f"survivor count vs closed form: rel gap {rel:.3e} (tolerance 1e-2) "
           f"at n_cells=4096, T=8")


def test_c06b_density_shape(pinned_solve):
    grid, field = pinned_solve
    y = grid.nodes()
    dens = field.values / field.mass(grid)
    logs = analytic.log_mu1_approx(y[1:], 8.0, DESK)
    ref = np.concatenate([[0.0], np.exp(logs - logs.max())])
    ref /= np.trapezoid(ref, y)
    l1 = float(np.trapezoid(np.abs(dens - ref), y))
    report("6b", l1 <= 0.02,
           f"unit-normalized density L1 distance {l1:.4f} (tolerance 0.02)")


def test_c06c_two_stage_gamma():
    """Pinned tolerance 3%; the exact model composition sits 5-14% above
    the factorized erfc form at t2/t1 = 8 (the form is exact only as
    t2/t1 -> infinity), so this criterion is expected red.  The solver
    itself matches the exact-composition oracle to ~0.1%."""
    t1, t2 = 50.0, 400.0
    gaps = {}
    for big_l in (2.0, 5.0, 10.0):
        y_max = float(math.ceil(DESK.eps + big_l
                                + 6.0 * math.sqrt(DESK.w * (t1 + t2)) + 1.0))
        grid = pde_solver.Grid(y_max=y_max, n_cells=4096)
        num = pde_solver.born_two_stage_counts(
            DESK, grid, t1, [(math.exp(-big_l), 1)], t2)[0]
        den = pde_solver.born_two_stage_counts(DESK, grid, t1, [(1.0, 1)], t2)[0]
        gamma = math.exp(num - den + big_l)
        want = analytic.gamma_correction(math.exp(-big_l), t1, DESK.w)
        gaps[f"e^-{big_l:g}"] = gamma / want - 1.0
    worst = max(abs(g) for g in gaps.values())
    detail = ", ".join(f"F={k}: {v:+.3f}" for k, v in gaps.items())
    report("6c", worst <= 0.03,
           f"two-stage gamma vs erfc form: {detail} (tolerance 0.03)")


# -- 7: walker vs the exact lattice count ------------------------------------

def test_c07a_enumeration_suite():
    worst = 0.0
    for p, eps, n, tilt in [(0.55, 0.2, 8, "none"), (0.55, 0.2, 16, "measure"),
                            (0.6, 0.3, 12, "none"), (0.6, 0.3, 12, "measure"),
                            (0.7, 1.0, 14, "none"), (0.7, 0.1, 10, "measure")]:
        spec = monte_carlo.WalkSpec(dp=DecoherenceParams(p=p), eps=eps,
                                    n_events=n, tilt=tilt)
        exact = monte_carlo.enumerate_survivors(spec).count
        ens = monte_carlo.simulate_survivors(spec, 150_000, seed=777)
        se = math.exp(ens.std_error())
        worst = max(worst, abs(math.exp(ens.estimate()) - exact) / max(se, 1e-9))
    report("7a", worst <= 4.0,
           f"worst |estimate - exact|/se over the N<=16 suite {worst:.2f} "
           f"(tolerance 4 sigma)")


@pytest.fixture(scope="module")
def n200_tilt_pair():
    dp = DecoherenceParams(p=0.55)
    none = monte_carlo.simulate_survivors(
        monte_carlo.WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="none"),
        1 << 21, seed=41, workers=2)
    measure = monte_carlo.simulate_survivors(
        monte_carlo.WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="measure"),
        1 << 21, seed=42, workers=2)
    return none, measure


def test_c07b_tilt_agreement(n200_tilt_pair):
    none, measure = n200_tilt_pair
    rel_n = math.exp(none.std_error() - none.estimate())
    rel_m = math.exp(measure.std_error() - measure.estimate())
    z = abs(none.estimate() - measure.estimate()) / math.hypot(rel_n, rel_m)
    report("7b", z <= 3.0,
           f"tilt=none vs tilt=measure at N=200: {z:.2f} mutual sigma "
           f"(tolerance 3)")


def test_c07c_variance_reduction(n200_tilt_pair):
    """Pinned >= 10x at N = 200, where uniform-walk survival is still ~1e-2
    and the tilt only buys ~2.5x; tenfold reduction sets in near N ~ 1000
    (see the depth-scaling test in test_monte_carlo).  Expected red."""
    none, measure = n200_tilt_pair
    ratio = math.exp(none.std_error() - measure.std_error())
    report("7c", ratio >= 10.0,
           f"tilted-estimator standard-error reduction at N=200 is "
           f"{ratio:.2f}x (tolerance >= 10x)")


# -- 8: walker vs analytic gamma ----------------------------------------------

def test_c08_mc_two_stage_gamma():
    """Pinned 10% against the erfc form at N2/N1 = 8; the exact composition
    plus the discrete-walk corrections sit ~15% above it (same regime gap
    as criterion 6c).  Expected red."""
    dp = DecoherenceParams(p=0.55)
    eps, n1, n2 = 0.2, 400, 3200
    n_paths = 1 << 23  # 2 runs -> 1.7e7 paths pooled
    s1 = monte_carlo.WalkSpec(dp=dp, eps=eps, n_events=n1, tilt="measure")
    F = math.exp(-3.0)
    num = monte_carlo.born_two_stage_mc_counts(s1, [(F, 1)], n2, n_paths,
                                               seed=11, workers=2)[0]
    den = monte_carlo.born_two_stage_mc_counts(s1, [(1.0, 1)], n2, n_paths,
                                               seed=12, workers=2)[0]
    gamma = math.exp(num.estimate() - den.estimate() - math.log(F))
    rel_se = math.hypot(
        math.exp(num.std_error() - num.estimate()),
        math.exp(den.std_error() - den.estimate()))
    want = analytic.gamma_correction(F, n1 / dp.r, to_diffusion(dp, eps).w)
    gap = gamma / want - 1.0
    report("8", abs(gap) <= 0.10,
           f"two-stage walker gamma {gamma:.5f} (+-{rel_se * gamma:.5f}) vs "
           f"erfc form {want:.5f}: gap {gap:+.3f} (tolerance 0.10), "
           f"{2 * n_paths} paths pooled")


# -- 9: numerical stability ---------------------------------------------------

def test_c09_numerical_stability():
    # 50-digit reference values for the bracket factor
    fixtures = [(1e-3, 24.256064832525035), (1.0, 0.27472797707261861),
                (1e3, 2.5156007088714833e-05), (1e6, 7.9788216716115113e-10),
                (1e10, 7.9788456056349999e-16)]
    worst = max(abs(bracket(wt) / want - 1.0)
                for wt, want in fixtures)
    seam = abs(_erfcx_direct(_SEAM) - _erfcx_asymptotic(_SEAM)) \
        / _erfcx_asymptotic(_SEAM)
    extreme = DiffusionParams(v=2.0, w=1.0, eps=0.1)
    w_log = analytic.log_unmangled_count(1e10, extreme)
    lam_log = analytic.log_lambda_count(-1e5, 1, 1e10, 1e10, extreme)
    extremes_ok = math.isfinite(w_log) and math.isfinite(lam_log)
    report("9", worst <= 1e-8 and seam <= 1e-12 and extremes_ok,
           f"bracket vs 50-digit oracle worst rel {worst:.2e} (tolerance 1e-8); "
           f"erfcx seam {seam:.2e} (tolerance 1e-12); counts at (v-w)t = 1e10 "
           f"finite and positive: {extremes_ok}")


# -- 10: determinism ------------------------------------------------------------

def test_c10_determinism_across_workers(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        name = f"w{workers}"
        code = cli_run(["mc", "--out", str(tmp_path), "--name", name,
                        "--seed", "90210", "--p", "0.55", "--eps", "0.2",
                        "--n-events", "120", "--n-paths", "65536",
                        "--workers", str(workers)])
        assert code == 0
        outputs.append(tuple((tmp_path / name / f).read_bytes()
                             for f in ("histogram.csv", "estimates.json")))
    report("10", outputs[0] == outputs[1] == outputs[2],
           "seeded walker artifacts byte-identical across 1, 2 and 8 workers")
