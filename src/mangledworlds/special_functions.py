"""Overflow-safe special functions and signed log-space arithmetic.

Every closed form in this package reduces to the complementary error
function, its scaled variant erfcx(a) = exp(a^2) * erfc(a), and the
cancellation-prone combination

    bracket(wt) = sqrt(2 / (pi * wt)) - erfcx(sqrt(wt / 2))

evaluated for wt anywhere between ~1e-6 and ~1e12.  The error functions are
implemented in-repo (series + Laplace continued fraction) so their accuracy
regimes are pinned by this module's tests instead of an unspecified platform
library.

Regime constants (each seam is covered by an agreement test):

    =====================  =======  ==============================================
    constant               value    role
    =====================  =======  ==============================================
    ERFCX_CROSSOVER        1.5      erfc/erfcx switch: truncated positive series
                                    below, continued fraction at and above
    _CF_MAX_ITER           700      Lentz iteration cap (worst case ~200 at a=1.0)
    BRACKET_CROSSOVER_WT   72.0     bracket switch: direct subtraction below,
                                    alternating asymptotic series above (a = 6)
    =====================  =======  ==============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, NumericalError

_SQRT_PI = math.sqrt(math.pi)

ERFCX_CROSSOVER = 1.5
BRACKET_CROSSOVER_WT = 72.0
_CF_MAX_ITER = 700
_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# signed log-space values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, ln|value|) so huge counts stay finite.

    ``sign == 0`` encodes exact zero and forces ``log_magnitude = -inf``.
    Multiplication adds logs; addition goes through :func:`log_sum_exp`.
    """

    log_magnitude: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if self.sign == 0 and self.log_magnitude != _NEG_INF:
            object.__setattr__(self, "log_magnitude", _NEG_INF)
        if math.isnan(self.log_magnitude):
            raise DomainError("log_magnitude is NaN")

    @classmethod
    def from_float(cls, value: float) -> "LogValue":
        if value == 0.0:
            return cls(_NEG_INF, 0)
        if math.isnan(value):
            raise DomainError("cannot build LogValue from NaN")
        return cls(math.log(abs(value)), 1 if value > 0 else -1)

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(_NEG_INF, 0)

    def to_float(self) -> float:
        """Back to a plain float; overflows to +-inf for huge magnitudes."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_magnitude)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

    def log10(self) -> float:
        return self.log_magnitude / math.log(10.0)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "LogValue | float") -> "LogValue":
        if not isinstance(other, LogValue):
            other = LogValue.from_float(float(other))
        s = self.sign * other.sign
        if s == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude, s)

    __rmul__ = __mul__

    def __truediv__(self, other: "LogValue | float") -> "LogValue":
        if not isinstance(other, LogValue):
            other = LogValue.from_float(float(other))
        if other.sign == 0:
            raise ZeroDivisionError("division by LogValue zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude - other.log_magnitude,
                        self.sign * other.sign)

    def __neg__(self) -> "LogValue":
        return LogValue(self.log_magnitude, -self.sign)

    def __lt__(self, other: "LogValue") -> bool:
        return _signed_less(self, other)

    def __le__(self, other: "LogValue") -> bool:
        return self == other or _signed_less(self, other)


def _signed_less(a: LogValue, b: LogValue) -> bool:
    if a.sign != b.sign:
        return a.sign < b.sign
    if a.sign == 0:
        return False
    if a.sign > 0:
        return a.log_magnitude < b.log_magnitude
    return a.log_magnitude > b.log_magnitude


def logaddexp(a: float, b: float) -> float:
    """ln(e^a + e^b) with the max factored out (floats are logs)."""
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def logsubexp(a: float, b: float) -> float:
    """ln(e^a - e^b) for a >= b (floats are logs); -inf when a == b."""
    if b == _NEG_INF:
        return a
    if b > a:
        raise DomainError(f"logsubexp requires a >= b, got a={a!r} b={b!r}")
    if a == b:
        return _NEG_INF
    return a + math.log1p(-math.exp(b - a))


def log_sum_exp(terms: Iterable[LogValue]) -> LogValue:
    """Sum of signed LogValues: positives and negatives accumulated
    separately, then one ordered difference."""
    pos = _NEG_INF
    neg = _NEG_INF
    for t in terms:
        if t.sign > 0:
            pos = logaddexp(pos, t.log_magnitude)
        elif t.sign < 0:
            neg = logaddexp(neg, t.log_magnitude)
    if neg == _NEG_INF:
        return LogValue(pos) if pos != _NEG_INF else LogValue.zero()
    if pos == _NEG_INF:
        return LogValue(neg, -1)
    if pos == neg:
        return LogValue.zero()
    if pos > neg:
        return LogValue(logsubexp(pos, neg), 1)
    return LogValue(logsubexp(neg, pos), -1)


def log_diff_exp(a: LogValue, b: LogValue) -> LogValue:
    """a - b for LogValues under the precondition a >= b (signed)."""
    if _signed_less(a, b):
        raise DomainError("log_diff_exp requires a >= b; reorder the arguments")
    return log_sum_exp([a, -b])


# ---------------------------------------------------------------------------
# error functions
# ---------------------------------------------------------------------------

def _exp_neg_sq(a: float) -> float:
    """exp(-a*a) with the argument split so the a^2 rounding does not
    inflate the relative error near the underflow edge (a ~ 26)."""
    c = 134217729.0 * a  # 2^27 + 1 Veltkamp split
    hi = c - (c - a)
    lo = a - hi
    try:
        return math.exp(-hi * hi) * math.exp(-(2.0 * hi * lo + lo * lo))
    except OverflowError:
        return math.inf


def _erf_series(a: float) -> float:
    """erf(a) from the all-positive Kummer series; no cancellation."""
    t = 1.0
    s = 1.0
    two_a2 = 2.0 * a * a
    n = 0
    while n < 200:
        n += 1
        t *= two_a2 / (2 * n + 1)
        s += t
        if t < 1e-18 * s:
            break
    return (2.0 * a / _SQRT_PI) * _exp_neg_sq(a) * s


def _erfcx_small(a: float) -> float:
    """erfcx for a <= ERFCX_CROSSOVER via exp(a^2) * (1 - erf(a))."""
    return math.exp(a * a) * (1.0 - _erf_series(a))


def _erfcx_cf(a: float) -> float:
    """erfcx for a >= ERFCX_CROSSOVER via the Laplace continued fraction
    (modified Lentz).  Converges in <100 iterations for a >= 1.5."""
    tiny = 1e-300
    f = a if a != 0.0 else tiny
    c = f
    d = 0.0
    for n in range(1, _CF_MAX_ITER + 1):
        an = 0.5 * n
        d = a + an * d
        if d == 0.0:
            d = tiny
        c = a + an / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return 1.0 / (_SQRT_PI * f)
    raise NumericalError(f"erfcx continued fraction did not converge at a={a!r}")


def erfc(a: float) -> float:
    """Complementary error function, <= ~1e-13 relative error for |a| <= 26.

    Results for a > ~26.6 are subnormal and finally underflow to 0 near
    a = 27.3; callers needing precision out there must use :func:`erfcx`.
    NaN propagates.
    """
    a = float(a)
    if math.isnan(a):
        return a
    if a < 0.0:
        return 2.0 - erfc(-a)
    if math.isinf(a):
        return 0.0
    if a <= ERFCX_CROSSOVER:
        return 1.0 - _erf_series(a)
    return _exp_neg_sq(a) * _erfcx_cf(a)


def erfcx(a: float) -> float:
    """Scaled complement exp(a^2) * erfc(a) for a >= 0, <= ~1e-12 relative."""
    a = float(a)
    if math.isnan(a):
        return a
    if a < 0.0:
        raise DomainError(f"erfcx requires a >= 0, got {a!r}")
    if math.isinf(a):
        return 0.0
    if a <= ERFCX_CROSSOVER:
        return _erfcx_small(a)
    return _erfcx_cf(a)


def log_erfc(a: float) -> float:
    """ln(erfc(a)) without underflow for large positive a."""
    a = float(a)
    if a <= ERFCX_CROSSOVER:
        v = erfc(a)
        return math.log(v) if v > 0.0 else _NEG_INF
    return -a * a + math.log(_erfcx_cf(a))


# ---------------------------------------------------------------------------
# the bracket factor of the survivor-count closed form
# ---------------------------------------------------------------------------

def _bracket_direct(wt: float) -> float:
    a = math.sqrt(0.5 * wt)
    return 1.0 / (a * _SQRT_PI) - erfcx(a)


def _bracket_asymptotic(wt: float) -> float:
    """bracket via the alternating tail series of erfcx,

        bracket = (1 / (a sqrt(pi))) * sum_{n>=1} (-1)^(n+1) (2n-1)!! / (2a^2)^n

    truncated at the smallest term (standard rule for divergent asymptotics).
    """
    a2 = 0.5 * wt
    u = 1.0 / (2.0 * a2)
    term = u
    total = term
    sign = 1.0
    n = 1
    while n < 400:
        nxt = term * (2 * n + 1) * u
        if nxt >= term:
            break  # smallest term reached
        term = nxt
        sign = -sign
        total += sign * term
        if term < 1e-18 * total:
            break
        n += 1
    return total / (math.sqrt(a2) * _SQRT_PI)


def bracket(wt: float) -> LogValue:
    """The positive factor sqrt(2/(pi*wt)) - erfcx(sqrt(wt/2)), in log form.

    Direct subtraction loses one digit per factor-of-ten in wt, so above
    ``BRACKET_CROSSOVER_WT`` the asymptotic tail series is used instead; the
    two regimes agree to ~4e-14 at the seam.
    """
    wt = float(wt)
    if not wt > 0.0:
        raise DomainError(f"bracket requires wt > 0, got {wt!r}")
    if wt < BRACKET_CROSSOVER_WT:
        value = _bracket_direct(wt)
    else:
        value = _bracket_asymptotic(wt)
    if not value > 0.0:
        raise NumericalError(f"bracket({wt!r}) evaluated non-positive: {value!r}")
    return LogValue(math.log(value))
