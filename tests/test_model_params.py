"""Parameter conversions and the per-event statistics.

Frozen reference values come from a 50-digit mpmath evaluation of the
defining formulas.
"""

import math

import pytest
from hypothesis import given, strategies as st

from mangledworlds.errors import DomainError
from mangledworlds.model_params import (DecoherenceParams, DiffusionParams,
                                        binary_event_stats, split_params,
                                        to_diffusion)

# the complement 1 - p itself carries ~1e-16 absolute representation error,
# which caps the attainable p <-> 1-p symmetry at extreme p; stay inside
probabilities = st.floats(min_value=1e-4, max_value=1.0 - 1e-4,
                          allow_nan=False)


class TestBinaryEventStats:
    def test_symmetric_split(self):
        xhat1, sigma1, xtilde1 = binary_event_stats(0.5)
        assert xhat1 == pytest.approx(-math.log(2.0), rel=1e-15)
        assert sigma1 == 0.0
        assert xtilde1 == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_p06_oracle(self):
        xhat1, sigma1, xtilde1 = binary_event_stats(0.6)
        assert xhat1 == pytest.approx(-0.67301166700925644, rel=1e-14)
        assert sigma1 == pytest.approx(0.19863652467348421, rel=1e-14)
        assert sigma1 ** 2 == pytest.approx(0.039456468934359703, rel=1e-13)
        assert xtilde1 == pytest.approx(-0.71246813594361614, rel=1e-14)

    def test_p055_oracle(self):
        xhat1, sigma1, _ = binary_event_stats(0.55)
        assert xhat1 == pytest.approx(-0.68813881371358847, rel=1e-14)
        assert sigma1 ** 2 == pytest.approx(0.0099665101842726951, rel=1e-13)

    def test_degenerate_no_split_limit(self):
        xhat1, sigma1, _ = binary_event_stats(1.0 - 1e-9)
        assert abs(xhat1) < 3e-8
        assert 0.0 <= sigma1 < 1e-3

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                binary_event_stats(bad)

    @given(probabilities)
    def test_branch_labels_immaterial(self, p):
        a = binary_event_stats(p)
        b = binary_event_stats(1.0 - p)
        assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-300)
        assert a[1] == pytest.approx(b[1], rel=1e-12, abs=1e-300)
        assert a[2] == pytest.approx(b[2], rel=1e-12, abs=1e-300)

    @given(probabilities)
    def test_ordering(self, p):
        xhat1, sigma1, xtilde1 = binary_event_stats(p)
        assert xhat1 < 0.0
        assert sigma1 >= 0.0
        assert xtilde1 <= xhat1
        if abs(p - 0.5) > 1e-9:
            assert xtilde1 < xhat1


class TestParamsTypes:
    def test_decoherence_validation(self):
        with pytest.raises(DomainError):
            DecoherenceParams(p=0.5, r=0.0)
        with pytest.raises(DomainError):
            DecoherenceParams(p=1.2)
        xhat1, sigma1, xtilde1 = binary_event_stats(DecoherenceParams(p=0.6, r=2.0).p)
        assert xtilde1 == pytest.approx(xhat1 - sigma1 ** 2, rel=1e-15)

    def test_diffusion_validation(self):
        with pytest.raises(DomainError):
            DiffusionParams(v=0.0, w=0.5, eps=0.1)
        with pytest.raises(DomainError):
            DiffusionParams(v=1.0, w=-0.1, eps=0.1)
        with pytest.raises(DomainError):
            DiffusionParams(v=1.0, w=0.5, eps=0.0)
        for field in ("v", "w", "eps"):
            kwargs = {"v": 1.0, "w": 0.5, "eps": 0.1, field: math.nan}
            with pytest.raises(DomainError, match=field):
                DiffusionParams(**kwargs)

    def test_split_validation(self):
        assert split_params(0.5, 2) == (math.log(0.5), 2)
        for F, G, name in ((0.0, 1, "F"), (math.nan, 1, "F"), (0.5, 0, "G"),
                           (0.5, math.nan, "G")):
            with pytest.raises(DomainError, match=name):
                split_params(F, G)

    def test_immutable(self):
        dp = DiffusionParams(v=1.0, w=0.5, eps=0.1)
        with pytest.raises(AttributeError):
            dp.v = 2.0

    def test_survival_regime_flag(self):
        assert DiffusionParams(v=1.0, w=0.5, eps=0.1).survival_regime
        assert not DiffusionParams(v=0.4, w=0.5, eps=0.1).survival_regime


class TestToDiffusion:
    def test_p06_oracle(self):
        diff = to_diffusion(DecoherenceParams(p=0.6, r=1.0), eps=0.1)
        assert diff.v == pytest.approx(0.71246813594361614, rel=1e-14)
        assert diff.w == pytest.approx(0.039456468934359703, rel=1e-13)
        assert diff.v > diff.w  # survival regime at p = 0.6

    def test_degenerate_half(self):
        diff = to_diffusion(DecoherenceParams(p=0.5, r=1.0), eps=0.1)
        assert diff.w == 0.0
        assert diff.degenerate
        with pytest.raises(DomainError):
            diff.require_diffusive()

    @given(probabilities.filter(lambda p: abs(p - 0.5) > 1e-4),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_growth_identity(self, p, r):
        # v - w = -r * xhat1 holds algebraically; assert to 1e-12 relative
        diff = to_diffusion(DecoherenceParams(p=p, r=r), eps=1.0)
        xhat1 = binary_event_stats(p)[0]
        assert diff.v - diff.w == pytest.approx(-r * xhat1, rel=1e-12)
        assert diff.v - diff.w > 0.0

    def test_homogeneous_in_rate(self):
        base = to_diffusion(DecoherenceParams(p=0.6, r=1.0), eps=0.1)
        doubled = to_diffusion(DecoherenceParams(p=0.6, r=2.0), eps=0.1)
        assert doubled.v == 2.0 * base.v
        assert doubled.w == 2.0 * base.w
