"""Walker against exact tree enumeration, estimator cross-agreement,
determinism, and the surviving-shape comparison.

The designated small-instance ground truth is :func:`enumerate_survivors`
(full 2^N tree with absorption at every event).  The N = 12 fixture below
was computed once by that enumeration and frozen as a regression anchor.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mangledworlds import analytic
from mangledworlds.errors import DomainError
from mangledworlds.model_params import (DecoherenceParams, binary_event_stats,
                                        to_diffusion)
from mangledworlds.monte_carlo import (TILTS, ExactCount, WalkSpec,
                                       born_two_stage_mc,
                                       default_tilt, empirical_distribution,
                                       enumerate_survivors, simulate_survivors)


def z_score(a, b) -> float:
    """Separation of two ensemble estimates in mutual standard errors."""
    ea, eb = a.estimate(), b.estimate()
    rel_a = math.exp(a.std_error().log_magnitude - ea.log_magnitude)
    rel_b = math.exp(b.std_error().log_magnitude - eb.log_magnitude)
    return (ea.log_magnitude - eb.log_magnitude) / math.hypot(rel_a, rel_b)


class TestWalkSpec:
    def test_validation(self):
        dp = DecoherenceParams(p=0.6)
        with pytest.raises(DomainError):
            WalkSpec(dp=dp, eps=0.0, n_events=10)
        with pytest.raises(DomainError):
            WalkSpec(dp=dp, eps=0.1, n_events=0)
        with pytest.raises(DomainError):
            WalkSpec(dp=dp, eps=0.1, n_events=10, tilt="nope")

    def test_default_tilt_rule(self):
        dp = DecoherenceParams(p=0.55)  # sigma1^2 ~ 0.00997
        assert default_tilt(dp, 200) == "none"    # N sigma1^2 ~ 2
        assert default_tilt(dp, 1000) == "measure"  # ~ 10


class TestAgainstEnumeration:
    def test_single_event_no_absorption(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=10.0, n_events=1)
        ens = simulate_survivors(spec, 5000, seed=1)
        assert ens.estimate().to_float() == pytest.approx(2.0, rel=1e-12)
        assert ens.std_error().is_zero

    def test_two_events_brute_force(self):
        # all four leaves checked by hand against the boundary at n = 1, 2
        p, eps = 0.6, 0.05
        xhat1 = binary_event_stats(p)[0]
        lp, lq = math.log(p), math.log(1.0 - p)
        exact = 0
        for s1 in (lp, lq):
            if s1 <= 1 * xhat1 - eps:
                continue
            for s2 in (lp, lq):
                if s1 + s2 > 2 * xhat1 - eps:
                    exact += 1
        spec = WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=2)
        assert enumerate_survivors(spec).count == exact
        ens = simulate_survivors(spec, 200_000, seed=2)
        se = ens.std_error().to_float()
        assert abs(ens.estimate().to_float() - exact) <= 3.0 * max(se, 1e-12)

    def test_no_boundary_gives_full_tree(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=math.inf, n_events=10)
        assert enumerate_survivors(spec).count == 2 ** 10
        ens = simulate_survivors(spec, 10_000, seed=3)
        assert ens.estimate().to_float() == pytest.approx(2.0 ** 10, rel=1e-12)
        assert ens.std_error().is_zero
        tilted = simulate_survivors(
            WalkSpec(dp=DecoherenceParams(p=0.6), eps=math.inf, n_events=10,
                     tilt="measure"), 40_000, seed=4)
        se = tilted.std_error().to_float()
        assert abs(tilted.estimate().to_float() - 2.0 ** 10) <= 3.0 * se

    def test_tight_boundary_absorbs_something(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=1e-9, n_events=6)
        assert enumerate_survivors(spec).count < 2 ** 6

    def test_frozen_regression_fixture(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=12)
        got = enumerate_survivors(spec)
        assert got == ExactCount(count=889, measure=pytest.approx(
            0.4287544565760002, rel=1e-12), n_events=12)

    def test_enumeration_refuses_large_trees(self):
        with pytest.raises(DomainError):
            enumerate_survivors(WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3,
                                         n_events=25))

    @pytest.mark.parametrize("p,eps,n,tilt", [
        (0.55, 0.2, 8, "none"),
        (0.55, 0.2, 16, "measure"),
        (0.6, 0.3, 12, "none"),
        (0.6, 0.3, 12, "measure"),
        (0.7, 1.0, 14, "none"),
        (0.7, 0.1, 10, "measure"),
    ])
    def test_estimates_within_four_sigma(self, p, eps, n, tilt):
        spec = WalkSpec(dp=DecoherenceParams(p=p), eps=eps, n_events=n, tilt=tilt)
        exact = enumerate_survivors(spec).count
        ens = simulate_survivors(spec, 150_000, seed=777)
        se = ens.std_error().to_float()
        assert abs(ens.estimate().to_float() - exact) <= 4.0 * max(se, 1e-9)


class TestTiltedEstimator:
    def test_two_tilts_agree_at_n200(self):
        dp = DecoherenceParams(p=0.55)
        none = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="none"),
            1 << 20, seed=41, workers=2)
        measure = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="measure"),
            1 << 20, seed=42, workers=2)
        assert abs(z_score(none, measure)) <= 3.0
        # the tilt helps here, though modestly: survival is only ~1e-2 rare
        ratio = math.exp(none.std_error().log_magnitude
                         - measure.std_error().log_magnitude)
        assert ratio > 1.5

    def test_variance_reduction_grows_with_depth(self):
        # at N = 1000 the uniform walk's survival is ~5e-4 and the tilted
        # estimator wins by an order of magnitude
        dp = DecoherenceParams(p=0.55)
        none = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=1000, tilt="none"),
            1 << 21, seed=21, workers=2)
        measure = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=1000, tilt="measure"),
            1 << 21, seed=22, workers=2)
        assert abs(z_score(none, measure)) <= 4.0
        ratio = math.exp(none.std_error().log_magnitude
                         - measure.std_error().log_magnitude)
        assert ratio >= 8.0


class TestDeterminism:
    def test_bit_identical_across_workers(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        runs = [simulate_survivors(spec, 100_000, seed=9, workers=k)
                for k in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    def test_seed_changes_the_answer(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        a = simulate_survivors(spec, 50_000, seed=1)
        b = simulate_survivors(spec, 50_000, seed=2)
        assert a.log_weight_sum != b.log_weight_sum

    def test_histogram_deterministic(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40)
        a = empirical_distribution(spec, 50_000, seed=5, workers=1)
        b = empirical_distribution(spec, 50_000, seed=5, workers=2)
        assert np.array_equal(a.weights, b.weights)
        assert a == b

    @pytest.mark.parametrize("tilt", TILTS)
    def test_histogram_walk_carries_the_estimate(self, tilt):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=40,
                        tilt=tilt)
        hist = empirical_distribution(spec, 50_000, seed=5)
        ens = simulate_survivors(spec, 50_000, seed=5)
        for name in ("n_paths", "survivor_count", "log_weight_sum",
                     "log_weight_sq_sum", "seed"):
            assert getattr(hist, name) == getattr(ens, name), name
        total = math.log(float(hist.weights.sum())) + hist.log_offset
        assert total == pytest.approx(hist.estimate().log_magnitude, abs=1e-9)


def _lattice_edges(p: float, eps: float, n_events: int, sites_per_bin: int,
                   n_bins: int) -> np.ndarray:
    """Bin edges aligned to the walk's log-size lattice.

    At fixed N the survivors' y-values live on a lattice of spacing
    ln(p/(1-p)); bins sized as integer multiples of that spacing (with the
    lattice mid-bin) avoid aliasing in shape comparisons.
    """
    delta = math.log(p / (1.0 - p))
    xhat1 = binary_event_stats(p)[0]
    y0 = (n_events * math.log(1.0 - p) - n_events * xhat1 + eps) % delta
    start = (y0 - 0.5 * delta) % delta
    return start + sites_per_bin * delta * np.arange(n_bins + 1)


class TestSurvivorHistogram:
    def test_no_mass_on_mangled_side(self):
        spec = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.3, n_events=30)
        edges = np.linspace(-2.0, 8.0, 51)
        hist = empirical_distribution(spec, 100_000, seed=6, bins=edges)
        below = hist.weights[edges[:-1] < -1e-12]
        assert float(below.sum()) == 0.0

    def test_empty_flag(self):
        # boundary tight enough that nothing survives 40 events
        spec = WalkSpec(dp=DecoherenceParams(p=0.9), eps=1e-6, n_events=40)
        hist = empirical_distribution(spec, 2_000, seed=7)
        assert hist.empty
        with pytest.raises(DomainError):
            hist.normalized()

    def test_shape_matches_closed_form_density(self):
        # p = 0.55, N = 400, eps = 0.2; importance sampling supplies the
        # >= 1e5 surviving-equivalent samples
        p, eps, n = 0.55, 0.2, 400
        dp = DecoherenceParams(p=p)
        spec = WalkSpec(dp=dp, eps=eps, n_events=n, tilt="measure")
        edges = _lattice_edges(p, eps, n, sites_per_bin=4, n_bins=17)
        hist = empirical_distribution(spec, 4_000_000, seed=3, bins=edges,
                                      workers=2)
        assert hist.survivor_count >= 100_000
        diff = to_diffusion(dp, eps)
        t1 = n / dp.r
        widths = np.diff(hist.edges)
        dens_mc = hist.normalized()
        dens_an = np.empty_like(dens_mc)
        for i, (lo, hi) in enumerate(zip(hist.edges[:-1], hist.edges[1:])):
            val, _ = quad(lambda yy: math.exp(analytic.log_mu1_approx(yy, t1, diff))
                          if yy > 0 else 0.0, lo, hi)
            dens_an[i] = val / (hi - lo)
        dens_an /= float((dens_an * widths).sum())
        l1 = float((np.abs(dens_mc - dens_an) * widths).sum())
        assert l1 <= 0.05

        num, _ = quad(lambda yy: yy * math.exp(analytic.log_mu1_approx(yy, t1, diff))
                      if yy > 0 else 0.0, 0.0, 30.0, limit=200)
        den, _ = quad(lambda yy: math.exp(analytic.log_mu1_approx(yy, t1, diff))
                      if yy > 0 else 0.0, 0.0, 30.0, limit=200)
        assert hist.first_moment() == pytest.approx(num / den, rel=0.05)


class TestBornTwoStage:
    def test_unit_split_is_bit_identical_to_plain_run(self):
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=100, tilt="measure")
        s2 = WalkSpec(dp=dp, eps=0.2, n_events=300, tilt="measure")
        plain = simulate_survivors(
            WalkSpec(dp=dp, eps=0.2, n_events=400, tilt="measure"),
            200_000, seed=11)
        staged = born_two_stage_mc(s1, 1.0, 1, s2, 200_000, seed=11)
        assert staged == plain

    def test_children_scale_exactly(self):
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=50, tilt="measure")
        s2 = WalkSpec(dp=dp, eps=0.2, n_events=150, tilt="measure")
        one = born_two_stage_mc(s1, 0.5, 1, s2, 100_000, seed=12)
        four = born_two_stage_mc(s1, 0.5, 4, s2, 100_000, seed=12)
        assert (four.estimate().log_magnitude - one.estimate().log_magnitude
                == pytest.approx(math.log(4.0), abs=1e-12))

    def test_stage_specs_must_agree(self):
        a = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.2, n_events=10)
        b = WalkSpec(dp=DecoherenceParams(p=0.6), eps=0.2, n_events=10)
        with pytest.raises(DomainError):
            born_two_stage_mc(a, 0.5, 1, b, 1000, seed=1)
        c = WalkSpec(dp=DecoherenceParams(p=0.55), eps=0.3, n_events=10)
        with pytest.raises(DomainError):
            born_two_stage_mc(a, 0.5, 1, c, 1000, seed=1)

    def test_gamma_monotone_in_fraction(self):
        # gamma estimates for F = e^-1, e^-3, e^-6 are nonincreasing
        # within pooled noise
        dp = DecoherenceParams(p=0.55)
        s1 = WalkSpec(dp=dp, eps=0.2, n_events=200, tilt="measure")
        s2 = WalkSpec(dp=dp, eps=0.2, n_events=800, tilt="measure")
        n = 1 << 19
        den = born_two_stage_mc(s1, 1.0, 1, s2, n, seed=100, workers=2)
        gammas, rels = [], []
        for k, lf in enumerate((-1.0, -3.0, -6.0)):
            num = born_two_stage_mc(s1, math.exp(lf), 1, s2, n,
                                    seed=200 + k, workers=2)
            gammas.append(math.exp(num.estimate().log_magnitude
                                   - den.estimate().log_magnitude - lf))
            rels.append(math.exp(num.std_error().log_magnitude
                                 - num.estimate().log_magnitude))
        for i in (0, 1):
            slack = 3.0 * math.hypot(rels[i], rels[i + 1]) * gammas[i]
            assert gammas[i] >= gammas[i + 1] - slack
