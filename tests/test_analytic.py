"""Closed forms against independent quadrature, finite-difference residuals,
and algebraic identities."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mangledworlds import analytic
from mangledworlds.errors import DomainError, NumericalError, RegimeWarning
from mangledworlds.model_params import DiffusionParams
from mangledworlds.special_functions import bracket


class TestMu0:
    def test_total_count_by_quadrature(self, desk):
        # integral of mu0 = e^{(v - w/2) t}
        t = 2.0
        lo = -desk.v * t - 12.0 * math.sqrt(desk.w * t)
        hi = -desk.v * t + 12.0 * math.sqrt(desk.w * t)
        total, _ = quad(lambda x: math.exp(analytic.log_mu0(x, t, desk)), lo, hi,
                        limit=200)
        assert total == pytest.approx(math.exp(1.5), rel=1e-8)

    @pytest.mark.parametrize("v,w,t", [(1.0, 0.5, 2.0), (0.7, 0.2, 5.0),
                                       (2.0, 1.5, 1.0)])
    def test_measure_conserved(self, v, w, t):
        dp = DiffusionParams(v=v, w=w, eps=0.1)
        mean = -v * t
        sd = math.sqrt(w * t)
        total, _ = quad(lambda x: math.exp(x + analytic.log_mu0(x, t, dp)),
                        mean - 14.0 * sd - 1.0, mean + 16.0 * sd + 1.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mode_at_minus_vt(self, desk):
        t = 3.0
        xs = np.linspace(-desk.v * t - 2.0, -desk.v * t + 2.0, 4001)
        logs = analytic.log_mu0(xs, t, desk)
        assert xs[int(np.argmax(logs))] == pytest.approx(-desk.v * t, abs=2e-3)

    def test_domain(self, desk):
        with pytest.raises(DomainError):
            analytic.log_mu0(0.0, 0.0, desk)
        with pytest.raises(DomainError):
            analytic.log_mu0(0.0, -1.0, desk)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, desk, t):
        with pytest.raises(DomainError, match="t must be positive and finite"):
            analytic.log_mu0(0.0, t, desk)
        with pytest.raises(DomainError, match="t1 must be positive and finite"):
            analytic.gamma_correction(0.5, t, desk.w)

    def test_rejects_nan(self, desk):
        with pytest.raises(DomainError, match="nan"):
            analytic.log_mu0(math.nan, 1.0, desk)
        with pytest.raises(DomainError, match="nan"):
            analytic.log_mu0(np.array([0.0, math.nan]), 1.0, desk)
        assert analytic.log_mu0(-math.inf, 1.0, desk) == -math.inf


class TestPdeResidual:
    def test_small_at_center(self, desk):
        assert abs(analytic.pde_residual_mu0(-desk.v, 1.0, desk, h=1e-4)) <= 1e-5

    def test_grid_of_points(self, desk):
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            for k in (-2, -1, 0, 1, 2):
                x = -desk.v * t + k * math.sqrt(desk.w * t)
                assert abs(analytic.pde_residual_mu0(x, t, desk, h=1e-4)) <= 1e-5

    def test_wrong_mean_control(self, desk):
        bad = abs(analytic.pde_residual_mu0(-desk.v, 1.0, desk, h=1e-4,
                                            wrong_mean=True))
        assert bad >= 0.1

    def test_second_order_in_h(self, desk):
        # central differences: residual shrinks ~4x when h halves
        x, t = -0.8, 1.5
        r1 = abs(analytic.pde_residual_mu0(x, t, desk, h=2e-3))
        r2 = abs(analytic.pde_residual_mu0(x, t, desk, h=1e-3))
        assert r1 / r2 == pytest.approx(4.0, rel=0.35)


class TestBoundary:
    def test_at_zero_time(self, desk):
        assert analytic.boundary(0.0, desk) == -desk.eps

    def test_stationary_when_v_equals_w(self):
        dp = DiffusionParams(v=0.5, w=0.5, eps=0.1)
        for t in (0.0, 1.0, 10.0):
            assert analytic.boundary(t, dp) == -0.1

    def test_arithmetic(self):
        dp = DiffusionParams(v=1.0, w=0.5, eps=0.1)
        assert analytic.boundary(2.0, dp) == pytest.approx(-1.1, rel=1e-15)

    def test_negative_time(self, desk):
        with pytest.raises(DomainError):
            analytic.boundary(-0.5, desk)

    def test_nan_time(self, desk):
        with pytest.raises(DomainError, match="nan"):
            analytic.boundary(math.nan, desk)


class TestMu1:
    def test_vanishes_at_boundary(self, desk):
        assert analytic.log_mu1_exact(0.0, 3.0, desk) == -math.inf
        assert analytic.log_mu1_approx(0.0, 3.0, desk) == -math.inf

    def test_rejects_mangled_side(self, desk):
        with pytest.raises(DomainError):
            analytic.log_mu1_exact(-0.1, 3.0, desk)
        with pytest.raises(DomainError):
            analytic.log_mu1_approx(np.array([0.5, -0.5]), 3.0, desk)

    @pytest.mark.parametrize("form", [analytic.log_mu1_exact, analytic.log_mu1_approx])
    def test_rejects_nan(self, desk, form):
        with pytest.raises(DomainError):
            form(math.nan, 3.0, desk)
        with pytest.raises(DomainError):
            form(np.array([0.0, math.nan]), 3.0, desk)

    def test_positive_in_interior(self, desk):
        y = np.linspace(1e-6, 12.0, 400)
        assert np.all(np.isfinite(analytic.log_mu1_exact(y, 4.0, desk)))
        assert np.all(np.isfinite(analytic.log_mu1_approx(y, 4.0, desk)))

    def test_exact_approaches_approx_in_regime(self, desk):
        # eps = 0.1 << sqrt(w t) = sqrt(2): pointwise ratio within 1%
        y = np.linspace(0.5, 4.0, 36)
        ratio = np.exp(analytic.log_mu1_exact(y, 4.0, desk)
                       - analytic.log_mu1_approx(y, 4.0, desk))
        assert ratio.min() >= 0.99 and ratio.max() <= 1.01

    def test_approx_mode_position(self, desk):
        # stationarity of ln y - y - y^2/(2 w t): bisection on the derivative
        t = 4.0  # w t = 2
        s = desk.w * t

        def dlog(y):
            return 1.0 / y - 1.0 - y / s

        lo, hi = 0.1, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dlog(mid) > 0:
                lo = mid
            else:
                hi = mid
        y_star = 0.5 * (lo + hi)
        closed = (-1.0 + math.sqrt(1.0 + 4.0 / s)) * s / 2.0
        assert y_star == pytest.approx(closed, rel=1e-10)
        assert closed == pytest.approx(0.7320508, rel=1e-6)
        ys = np.linspace(0.05, 4.0, 2001)
        logs = analytic.log_mu1_approx(ys, t, desk)
        assert ys[int(np.argmax(logs))] == pytest.approx(closed, abs=3e-3)


class TestUnmangledCount:
    @pytest.mark.parametrize("t", [2.0, 8.0, 50.0])  # w t = 1, 4, 25
    def test_quadrature_matches_closed_form(self, t, desk):
        got = analytic.quad_unmangled_count(t, desk)
        want = analytic.log_unmangled_count(t, desk)
        assert abs(math.expm1(got - want)) <= 1e-6

    def test_growth_sign_follows_v_minus_w(self):
        # d(log W)/dt at w t = 100
        grow = DiffusionParams(v=1.0, w=0.5, eps=0.1)
        shrink = DiffusionParams(v=0.4, w=0.5, eps=0.1)
        t = 200.0
        for dp, sign in ((grow, 1.0), (shrink, -1.0)):
            slope = (analytic.log_unmangled_count(t + 0.5, dp)
                     - analytic.log_unmangled_count(t - 0.5, dp))
            assert math.copysign(1.0, slope) == sign

    def test_extreme_time_stays_finite(self):
        dp = DiffusionParams(v=2.0, w=1.0, eps=0.1)
        log_w = analytic.log_unmangled_count(1e10, dp)
        assert math.isfinite(log_w)
        assert log_w == pytest.approx(1e10, rel=1e-6)

    def test_degenerate_rejected(self):
        dp = DiffusionParams(v=1.0, w=0.0, eps=0.1)
        with pytest.raises(DomainError):
            analytic.log_unmangled_count(1.0, dp)


class TestLambdaAndGamma:
    def test_children_enter_linearly(self, desk):
        a = analytic.lambda_count(0.5, 4, 50.0, 400.0, desk)
        b = analytic.lambda_count(0.5, 1, 50.0, 400.0, desk)
        assert a - b == pytest.approx(
            math.log(4.0), abs=1e-13)

    def test_unit_outcome_is_gamma_normalizer(self, desk):
        # gamma = lambda(F, G) / (F G lambda(1, 1)), cancelling in log space
        lam11 = analytic.lambda_count(1.0, 1, 50.0, 400.0, desk)
        for F in (0.5, 0.25, math.exp(-5.0)):
            lam = analytic.lambda_count(F, 3, 50.0, 400.0, desk)
            log_gamma = lam - math.log(F) - math.log(3.0) - lam11
            want = analytic.gamma_correction(F, 50.0, desk.w)
            assert log_gamma == pytest.approx(math.log(want), abs=1e-12)

    def test_closed_form_vs_quadrature_desk_scale(self):
        dp = DiffusionParams(v=1.0, w=0.5, eps=0.05)
        for F in (0.25, math.exp(-5.0)):
            got = analytic.quad_lambda_count(F, 4, 50.0, 800.0, dp)
            want = analytic.lambda_count(F, 4, 50.0, 800.0, dp)
            assert abs(math.expm1(got - want)) <= 0.02

    def test_log_input_variant_matches(self, desk):
        a = analytic.lambda_count(0.25, 2, 50.0, 400.0, desk)
        b = analytic.log_lambda_count(math.log(0.25), 2, 50.0, 400.0, desk)
        assert a == b

    def test_tiny_fraction_via_log_form(self, desk):
        assert math.isfinite(analytic.log_lambda_count(-1e5, 1, 2e10, 2e10, desk))

    def test_gamma_unit_fraction(self, desk):
        assert analytic.gamma_correction(1.0, 50.0, desk.w) == 1.0

    def test_gamma_headline_point(self):
        got = analytic.gamma_correction_log(-1e5, 1e10, 1.0)
        assert got == pytest.approx(0.3173105078629141, abs=1e-9)

    def test_gamma_everyday_fraction_is_near_unity(self):
        # F = 1/2 at w t1 = 1e10: deviation 2 ln2 / sqrt(2 pi w t1) ~ 5.5e-6
        got = analytic.gamma_correction(0.5, 1e10, 1.0)
        assert 1.0 - got == pytest.approx(5.5306e-6, rel=1e-3)

    def test_gamma_monotone(self):
        gs = [analytic.gamma_correction_log(lf, 100.0, 0.5)
              for lf in np.linspace(-40.0, 0.0, 60)]
        assert all(a <= b + 1e-15 for a, b in zip(gs, gs[1:]))
        gt = [analytic.gamma_correction_log(-5.0, t1, 0.5)
              for t1 in np.logspace(1, 8, 40)]
        assert all(a <= b + 1e-15 for a, b in zip(gt, gt[1:]))
        assert gt[-1] == pytest.approx(1.0, abs=1e-3)

    def test_domain(self, desk):
        with pytest.raises(DomainError):
            analytic.gamma_correction(0.0, 50.0, desk.w)
        with pytest.raises(DomainError):
            analytic.gamma_correction(1.5, 50.0, desk.w)
        with pytest.raises(DomainError):
            analytic.lambda_count(0.5, 0, 50.0, 400.0, desk)
        with pytest.raises(DomainError):
            analytic.lambda_count(0.5, 1, -1.0, 400.0, desk)
        # NaN fails every range check, each naming its parameter
        with pytest.raises(DomainError, match="ln F"):
            analytic.gamma_correction_log(math.nan, 50.0, desk.w)
        with pytest.raises(DomainError, match="ln F"):
            analytic.log_lambda_count(math.nan, 1, 50.0, 400.0, desk)
        with pytest.raises(DomainError, match="child count G"):
            analytic.log_lambda_count(-1.0, math.nan, 50.0, 400.0, desk)
        with pytest.raises(DomainError, match="child count G"):
            analytic.lambda_count(0.5, math.nan, 50.0, 400.0, desk)


def _scipy_log_quad(log_f, a, b):
    """ln of the integral of e^log_f over [a, b] by scipy's adaptive quad,
    scaled by the largest log_f on a dense probe."""
    shift = float(np.max(log_f(np.linspace(a, b, 4097)[1:-1])))
    val, _ = quad(lambda y: math.exp(log_f(y) - shift), a, b, epsabs=0.0,
                  epsrel=1e-13, limit=400)
    return math.log(val) + shift


class TestLogQuad:
    """The in-repo Gauss-Legendre quadrature against scipy's adaptive quad,
    on validate's integrands and this module's points, to 1e-12 in the log."""

    def test_measure_conservation_integrand(self, desk):
        t = 2.0
        lo = -1.0 - desk.v * t - 12.0 * math.sqrt(desk.w * t)
        hi = -desk.v * t + 14.0 * math.sqrt(desk.w * t)

        def log_f(x):
            return x + analytic.log_mu0(x, t, desk)

        got = analytic._log_quad(log_f, lo, hi)
        assert got == pytest.approx(_scipy_log_quad(log_f, lo, hi), abs=1e-12)

    @pytest.mark.parametrize("t", [2.0, 8.0, 50.0])  # w t = 1, 4, 25
    def test_unmangled_count(self, t, desk):
        y_hi = max(10.0, 8.0 * math.sqrt(desk.w * t))
        want = _scipy_log_quad(lambda y: analytic.log_mu1_approx(y, t, desk),
                               0.0, y_hi)
        assert analytic.quad_unmangled_count(t, desk) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("F", [0.25, math.exp(-5.0)])
    def test_lambda_count(self, F):
        dp = DiffusionParams(v=1.0, w=0.5, eps=0.05)
        t1, t2 = 50.0, 800.0
        const = math.log(4.0) + (dp.v - dp.w) * t2 + math.log(bracket(dp.w * t2))
        want = const + _scipy_log_quad(
            lambda y: np.log(y) + y + analytic.log_mu1_approx(y - math.log(F), t1, dp),
            0.0, max(10.0, 8.0 * math.sqrt(dp.w * t1)))
        got = analytic.quad_lambda_count(F, 4, t1, t2, dp)
        assert got == pytest.approx(want, abs=1e-12)

    def test_rule_matches_numpy_leggauss(self):
        # Golub-Welsch from numpy.linalg, so the import skips numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(20)
        np.testing.assert_allclose(analytic._GL_NODES, nodes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(analytic._GL_WEIGHTS, weights, rtol=0.0, atol=1e-14)

    def test_jump_inside_a_panel_is_loud(self):
        # a unit step at 1/pi never falls on a panel edge, so each doubling
        # only halves the error and two estimates never agree to 1e-13
        with pytest.raises(NumericalError, match="did not converge"):
            analytic._log_quad(lambda y: np.where(y < 1.0 / math.pi, 0.0, -np.inf),
                               0.0, 1.0)


class TestRegimeWarnings:
    def test_warns_when_wt1_small(self, desk):
        with pytest.warns(RegimeWarning):
            analytic.gamma_correction(0.5, 1.0, desk.w)  # w t1 = 0.5

    def test_warns_when_eps_large(self):
        dp = DiffusionParams(v=1.0, w=0.5, eps=2.0)  # eps > 0.3 sqrt(w t1)
        with pytest.warns(RegimeWarning):
            analytic.lambda_count(0.5, 1, 8.0, 8.0, dp)

    def test_silent_in_regime(self, desk):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic.lambda_count(0.5, 1, 50.0, 400.0, desk)
            analytic.gamma_correction(0.5, 50.0, desk.w)
