"""Model parameterizations and the conversions between them.

Two equivalent descriptions of the branching process are used throughout:

* discrete: binary split events at rate ``r``, the larger child keeping a
  fraction ``p`` of the parent's measure;
* continuum: log-size drift ``v`` and diffusion ``w``, with the absorbing
  boundary trailing the median measure by ``eps``.

Per split event the log-size statistics are

    xhat1   = p ln p + (1-p) ln(1-p)        (median-measure increment)
    sigma1  = sqrt(p (1-p)) |ln(p/(1-p))|   (measure-weighted std)
    xtilde1 = xhat1 - sigma1^2              (median-count increment)

and a constant event rate gives v = -r*xtilde1, w = r*sigma1^2.

``sigma1`` is returned as the nonnegative root; only its square enters any
dynamics.  :func:`binary_event_stats` gives all three statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"branch measure fraction p must lie in (0, 1), got {p!r}")
    return p


def binary_event_stats(p: float) -> tuple[float, float, float]:
    """Per-event (xhat1, sigma1, xtilde1) for a binary split of measure p : 1-p.

    xhat1 is always negative; sigma1 is returned as the nonnegative root and
    vanishes exactly at p = 1/2.
    """
    p = _check_probability(p)
    q = 1.0 - p
    log_p = math.log(p)
    log_q = math.log1p(-p)  # accurate for p near 0
    xhat1 = p * log_p + q * log_q
    sigma1 = math.sqrt(p * q) * abs(log_p - log_q)
    xtilde1 = xhat1 - sigma1 * sigma1
    return xhat1, sigma1, xtilde1


def _check_time(t: float, name: str = "t") -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {t!r}")
    return t


def split_params(F: float, G: float) -> tuple[float, float]:
    """(ln F, G) of one measurement split: G children, each carrying a
    fraction F of the parent's measure."""
    F = float(F)
    if not 0.0 < F <= 1.0:
        raise DomainError(f"measure fraction F must lie in (0, 1], got {F!r}")
    if not G >= 1:
        raise DomainError(f"child count G must be >= 1, got {G!r}")
    return math.log(F), G


@dataclass(frozen=True)
class DecoherenceParams:
    """Discrete binary-event model: branch fraction p, event rate r."""

    p: float
    r: float = 1.0

    def __post_init__(self):
        _check_probability(self.p)
        if not self.r > 0.0:
            raise DomainError(f"event rate r must be positive, got {self.r!r}")


@dataclass(frozen=True)
class DiffusionParams:
    """Continuum model: drift v, diffusion w (both per unit time, log-size
    units), boundary offset eps.

    w == 0 is accepted as a flagged degenerate (pure drift, from p = 1/2);
    the closed forms and the grid solver reject it, the discrete walk copes.
    """

    v: float
    w: float
    eps: float

    def __post_init__(self):
        if not self.v > 0.0:
            raise DomainError(f"drift v must be positive, got {self.v!r}")
        if not self.w >= 0.0:
            raise DomainError(f"diffusion w must be nonnegative, got {self.w!r}")
        if not self.eps > 0.0:
            raise DomainError(f"boundary offset eps must be positive, got {self.eps!r}")

    @property
    def degenerate(self) -> bool:
        """True when w == 0: pure drift, outside every closed form's domain."""
        return self.w == 0.0

    @property
    def survival_regime(self) -> bool:
        """True iff v > w, the condition for a growing unmangled count."""
        return self.v > self.w

    def require_diffusive(self) -> "DiffusionParams":
        if self.degenerate:
            raise DomainError("w = 0 (degenerate pure drift); closed forms and the "
                              "grid solver need w > 0")
        return self


def to_diffusion(dp: DecoherenceParams, eps: float) -> DiffusionParams:
    """Continuum (v, w, eps) equivalent of a discrete model: v = -r*xtilde1,
    w = r*sigma1^2.  p = 1/2 yields the degenerate w = 0."""
    xhat1, sigma1, xtilde1 = binary_event_stats(dp.p)
    return DiffusionParams(v=-dp.r * xtilde1, w=dp.r * sigma1 * sigma1, eps=eps)
