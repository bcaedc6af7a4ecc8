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

Both parameter types are valid by construction: r, v, w and eps must be
positive and finite.  So p = 1/2, whose w = 0 is pure drift, has no
continuum equivalent, and :func:`to_diffusion` raises for it.

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


def _check_positive(value: float, name: str = "t") -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


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
    """Discrete binary-event model: branch fraction p, event rate r
    (0 < r < inf)."""

    p: float
    r: float = 1.0

    def __post_init__(self):
        _check_probability(self.p)
        _check_positive(self.r, "event rate r")


@dataclass(frozen=True)
class DiffusionParams:
    """Continuum model: drift v, diffusion w (both per unit time, log-size
    units), boundary offset eps; each positive and finite.

    w > 0 is what every closed form and the grid solver need, so the pure
    drift of p = 1/2 (w = 0) cannot be built.
    """

    v: float
    w: float
    eps: float

    def __post_init__(self):
        _check_positive(self.v, "drift v")
        _check_positive(self.w, "diffusion w")
        _check_positive(self.eps, "boundary offset eps")

    @property
    def survival_regime(self) -> bool:
        """True iff v > w, the condition for a growing unmangled count."""
        return self.v > self.w


def _rates(dp: DecoherenceParams) -> tuple[float, float]:
    """(v, w) = (-r*xtilde1, r*sigma1^2) of a discrete model."""
    _, sigma1, xtilde1 = binary_event_stats(dp.p)
    return -dp.r * xtilde1, dp.r * sigma1 * sigma1


def to_diffusion(dp: DecoherenceParams, eps: float) -> DiffusionParams:
    """Continuum (v, w, eps) equivalent of a discrete model: v = -r*xtilde1,
    w = r*sigma1^2.  p = 1/2 gives w = 0 and raises :class:`DomainError`."""
    v, w = _rates(dp)
    return DiffusionParams(v=v, w=w, eps=eps)
