"""Overflow-safe special functions and log-space sums.

Every closed form in this package reduces to the complementary error
function, its scaled variant erfcx(a) = exp(a^2) * erfc(a), and the
cancellation-prone combination

    bracket(wt) = sqrt(2 / (pi * wt)) - erfcx(sqrt(wt / 2))

evaluated for wt anywhere between ~1e-6 and ~1e12.  The error functions are
implemented in-repo (series + Laplace continued fraction) so their accuracy
regimes are pinned by this module's tests instead of an unspecified platform
library.

Counts throughout the package are plain floats holding their natural log,
with -inf for zero, so a count like e^{1e10} stays finite;
:func:`logsubexp` subtracts them.

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

from .errors import DomainError, NumericalError

_SQRT_PI = math.sqrt(math.pi)

ERFCX_CROSSOVER = 1.5
BRACKET_CROSSOVER_WT = 72.0
_CF_MAX_ITER = 700
_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# log-space sums
# ---------------------------------------------------------------------------

def logsubexp(a: float, b: float) -> float:
    """ln(e^a - e^b) for a >= b (floats are logs); -inf when a == b."""
    if b == _NEG_INF:
        return a
    if b > a:
        raise DomainError(f"logsubexp requires a >= b, got a={a!r} b={b!r}")
    if a == b:
        return _NEG_INF
    return a + math.log1p(-math.exp(b - a))


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


def bracket(wt: float) -> float:
    """The positive factor sqrt(2/(pi*wt)) - erfcx(sqrt(wt/2)).

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
    return value
