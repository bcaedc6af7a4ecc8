"""Error functions, the bracket factor, and log-space values.

Reference values were computed once with mpmath at 50 significant digits
(mp.erfc, exp(a^2)*mp.erfc(a), and the bracket expression evaluated in
extended precision) and frozen here as literals; anchors sit on both sides
of the one seam, a = 6 (wt = 72).  A dense sweep also compares against
mpmath at run time.
"""

import math

import mpmath
import numpy as np
import pytest

from mangledworlds.errors import DomainError
from mangledworlds.special_functions import (
    _SEAM, BRACKET_CROSSOVER_WT, _bracket_asymptotic, _bracket_direct,
    _erfcx_asymptotic, _erfcx_direct, bracket, erfc, erfcx, log_erfc,
    logsubexp)

# (a, erfc(a)) at 50-digit precision
ERFC_TABLE = [
    (0.0, 1.0),
    (0.5, 0.47950012218695346),
    (0.7071067811865476, 0.3173105078629141),   # 1/sqrt(2)
    (1.0, 0.15729920705028513),
    (1.4142135623730951, 0.045500263896358414),  # sqrt(2)
    (1.5, 0.033894853524689273),
    (2.0, 0.0046777349810472658),
    (3.0, 2.2090496998585441e-05),
    (5.0, 1.5374597944280349e-12),
    (10.0, 2.0884875837625448e-45),
    (20.0, 5.3958656116079009e-176),
    (26.0, 5.6631924088561428e-296),
]

# (a, erfcx(a)) at 50-digit precision
ERFCX_TABLE = [
    (0.0, 1.0),
    (0.5, 0.61569034419292587),
    (1.0, 0.427583576155807),
    (1.5, 0.3215854164543175),
    (2.0, 0.25539567631050574),
    (3.0, 0.17900115118138995),
    (5.0, 0.11070463773306863),
    (5.99, 0.092927413163163408),
    (6.0, 0.092776567800538354),
    (6.01, 0.092626205328484125),
    (10.0, 0.056140992743822586),
    (30.0, 0.018795888861416751),
]

# (a, ln erfc(a)) at 50-digit precision, above the seam
LOG_ERFC_TABLE = [
    (6.01, -38.499283182457471),
    (30.0, -903.97411711064388),
]

# (wt, bracket(wt)) at 50-digit precision
BRACKET_TABLE = [
    (1e-3, 24.256064832525035),
    (1.0, 0.27472797707261861),
    (2.0, 0.13660600739194928),
    (71.9, 0.0012575820260557969),
    (72.1, 0.0012524855175187166),
    (1e3, 2.5156007088714833e-05),
    (1e6, 7.9788216716115113e-10),
    (1e10, 7.9788456056349999e-16),
]


class TestErfc:
    @pytest.mark.parametrize("a,want", ERFC_TABLE)
    def test_oracle_values(self, a, want):
        assert erfc(a) == pytest.approx(want, rel=1e-13)

    def test_accuracy_sweep(self):
        # the multiplicative identity erfc = erfcx * e^{-a^2}: above the
        # seam (a > 6) erfcx is the independent tail series; below it erfcx
        # is erfc / e^{-a^2}, so there the identity is circular and only
        # pins the scaling
        for a in np.linspace(0.0, 26.0, 209):
            a = float(a)
            assert erfc(a) == pytest.approx(erfcx(a) * math.exp(-a * a), rel=2e-12)

    def test_reflection(self):
        for a in (0.3, 1.2, 4.0, 9.0):
            assert erfc(-a) == pytest.approx(2.0 - erfc(a), rel=1e-15)
        assert erfc(-10.0) == pytest.approx(2.0, rel=1e-15)

    def test_underflow_edge(self):
        assert erfc(28.0) == 0.0
        assert erfc(float("inf")) == 0.0
        assert erfc(float("-inf")) == 2.0

    def test_nan_propagates(self):
        assert math.isnan(erfc(float("nan")))

    def test_strictly_decreasing(self):
        # beyond |a| ~ 5.7 the complement saturates at 2.0 in binary64,
        # so strictness is asserted where floats can still resolve it
        grid = np.linspace(-5.5, 5.5, 111)
        vals = [erfc(float(a)) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestErfcx:
    @pytest.mark.parametrize("a,want", ERFCX_TABLE)
    def test_oracle_values(self, a, want):
        assert erfcx(a) == pytest.approx(want, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            erfcx(-0.1)

    def test_asymptotic_limit(self):
        # erfcx(a) * a * sqrt(pi) -> 1
        assert erfcx(1e8) * 1e8 * math.sqrt(math.pi) == pytest.approx(1.0, abs=1e-10)

    def test_seam_agreement(self):
        a = _SEAM
        small, large = _erfcx_direct(a), _erfcx_asymptotic(a)
        assert abs(small - large) / large <= 1e-12

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 30.0, 301)
        vals = [erfcx(float(a)) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_identity_with_erfc(self):
        for a in np.linspace(0.0, 26.0, 131):
            a = float(a)
            assert erfcx(a) * math.exp(-a * a) == pytest.approx(erfc(a), rel=1e-12)


class TestLogErfc:
    def test_matches_log_of_table(self):
        for a, want in ERFC_TABLE:
            assert log_erfc(a) == pytest.approx(math.log(want), abs=1e-12)

    @pytest.mark.parametrize("a,want", LOG_ERFC_TABLE)
    def test_oracle_values(self, a, want):
        assert log_erfc(a) == pytest.approx(want, abs=1e-12)

    def test_huge_argument(self):
        # ln erfc(100) = -10000 + ln erfcx(100); finite and sane
        got = log_erfc(100.0)
        assert got == pytest.approx(-10000.0 + math.log(erfcx(100.0)), rel=1e-15)
        assert log_erfc(math.inf) == -math.inf


class TestBracket:
    @pytest.mark.parametrize("wt,want", BRACKET_TABLE)
    def test_oracle_values(self, wt, want):
        assert bracket(wt) == pytest.approx(want, rel=1e-8)

    def test_positive_over_log_grid(self):
        for wt in np.logspace(-6, 12, 120):
            value = bracket(float(wt))
            assert 0.0 < value < math.inf

    def test_small_wt_divergence(self):
        # bracket -> sqrt(2/(pi wt)) - 1 as wt -> 0
        wt = 1e-8
        want = math.sqrt(2.0 / (math.pi * wt)) - 1.0
        assert bracket(wt) == pytest.approx(want, rel=1e-4)

    def test_large_wt_leading_order(self):
        # ratio against (1/sqrt(pi)) (2/wt)^{3/2} / 2 approaches 1
        wt = 1e6
        lead = (1.0 / math.sqrt(math.pi)) * (2.0 / wt) ** 1.5 / 2.0
        assert bracket(wt) / lead == pytest.approx(1.0, abs=0.01)

    def test_seam_agreement(self):
        wt = BRACKET_CROSSOVER_WT
        direct, asym = _bracket_direct(wt), _bracket_asymptotic(wt)
        assert abs(direct - asym) / asym <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            bracket(0.0)
        with pytest.raises(DomainError):
            bracket(-1.0)
        for wt in (5e-324, 1e-310):  # subnormal: wt / 2 loses bits or is 0
            with pytest.raises(DomainError, match="normal"):
                bracket(wt)

    def test_smallest_normal_wt(self):
        with mpmath.workdps(50):
            for wt in (1e-300, 2.2250738585072014e-308):
                want = (mpmath.sqrt(2 / (mpmath.pi * mpmath.mpf(wt)))
                        - mpmath.exp(mpmath.mpf(wt) / 2)
                        * mpmath.erfc(mpmath.sqrt(mpmath.mpf(wt) / 2)))
                assert bracket(wt) == pytest.approx(float(want), rel=1e-12)


class TestMpmathSweep:
    """Worst relative error against 50-digit mpmath on dense grids that
    cross the seam."""

    @staticmethod
    def worst(f, ref, grid):
        with mpmath.workdps(50):
            return max(float(abs(mpmath.mpf(f(x)) / ref(mpmath.mpf(x)) - 1))
                       for x in map(float, grid))

    def test_erfc(self):
        assert self.worst(erfc, mpmath.erfc, np.linspace(-5.0, 26.5, 1261)) <= 1e-15

    def test_erfcx(self):
        ref = lambda a: mpmath.exp(a * a) * mpmath.erfc(a)  # noqa: E731
        assert self.worst(erfcx, ref, np.linspace(0.0, 30.0, 1201)) <= 1e-15

    def test_bracket(self):
        def ref(wt):
            a = mpmath.sqrt(wt / 2)
            return mpmath.sqrt(2 / (mpmath.pi * wt)) - mpmath.exp(a * a) * mpmath.erfc(a)
        grid = np.concatenate([np.logspace(-6.0, 12.0, 721), np.linspace(60.0, 90.0, 121)])
        assert self.worst(bracket, ref, grid) <= 5e-14

    def test_nan_propagates(self):
        assert math.isnan(erfcx(float("nan")))
        assert math.isnan(log_erfc(float("nan")))


class TestLogSpaceSums:
    def test_raw_helpers(self):
        assert logsubexp(math.log(3.0), math.log(1.0)) == pytest.approx(math.log(2.0))
        assert logsubexp(2.0, 2.0) == -math.inf
        with pytest.raises(DomainError):
            logsubexp(1.0, 2.0)
