"""Overflow-safe special functions and log-space sums.

Every closed form in this package reduces to the complementary error
function, its scaled variant erfcx(a) = exp(a^2) * erfc(a), and the
cancellation-prone combination

    bracket(wt) = sqrt(2 / (pi * wt)) - erfcx(sqrt(wt / 2))

evaluated for wt anywhere between ~1e-6 and ~1e12.  erfc is the C
library's (:func:`math.erfc`); erfcx and bracket are built on it, and this
module's tests pin all of them against 50-digit references.

Counts throughout the package are plain floats holding their natural log,
with -inf for zero, so a count like e^{1e10} stays finite;
:func:`logsubexp` subtracts them.

One seam, at a = 6 (wt = 2 a^2 = 72), covered by agreement tests:

    =====================  =======  ==============================================
    constant               value    role
    =====================  =======  ==============================================
    BRACKET_CROSSOVER_WT   72.0     erfcx: erfc(a) * exp(a^2) below, alternating
                                    asymptotic series above; bracket: direct
                                    subtraction below, the same series above
    =====================  =======  ==============================================
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NumericalError

_SQRT_PI = math.sqrt(math.pi)

BRACKET_CROSSOVER_WT = 72.0
_SEAM = math.sqrt(0.5 * BRACKET_CROSSOVER_WT)  # = 6, the seam in a
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
    inflate the relative error of erfc(a) / exp(-a^2)."""
    c = 134217729.0 * a  # 2^27 + 1 Veltkamp split
    hi = c - (c - a)
    lo = a - hi
    return math.exp(-hi * hi) * math.exp(-(2.0 * hi * lo + lo * lo))


def _erfcx_direct(a: float) -> float:
    """erfcx for 0 <= a <= 6, where erfc(a) >= 2e-17 is a normal float."""
    return math.erfc(a) / _exp_neg_sq(a)


def _erfcx_asymptotic(a: float) -> float:
    """erfcx for a >= 6 as 1/(a sqrt(pi)) minus the bracket's tail series."""
    return 1.0 / (a * _SQRT_PI) - _bracket_asymptotic(2.0 * a * a)


def erfc(a: float) -> float:
    """Complementary error function (the C library's, ~4e-16 relative).

    Results for a > ~26.6 are subnormal and finally underflow to 0 near
    a = 27.3; callers needing precision out there must use :func:`erfcx`.
    NaN propagates.
    """
    return math.erfc(a)


def erfcx(a: float) -> float:
    """Scaled complement exp(a^2) * erfc(a) for a >= 0, ~5e-16 relative."""
    a = float(a)
    if a < 0.0:
        raise DomainError(f"erfcx requires a >= 0, got {a!r}")
    if not a > _SEAM:  # NaN too
        return _erfcx_direct(a)
    return _erfcx_asymptotic(a)


def log_erfc(a: float) -> float:
    """ln(erfc(a)) without underflow for large positive a."""
    a = float(a)
    if not a > _SEAM:  # NaN too; erfc(a) >= erfc(6) > 0 here
        return math.log(math.erfc(a))
    if math.isinf(a):
        return _NEG_INF
    return -a * a + math.log(_erfcx_asymptotic(a))


# ---------------------------------------------------------------------------
# the bracket factor of the survivor-count closed form
# ---------------------------------------------------------------------------

def _bracket_direct(wt: float) -> float:
    a = math.sqrt(0.5 * wt)
    return 1.0 / (a * _SQRT_PI) - _erfcx_direct(a)


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
    two regimes agree to ~1e-14 at the seam.  wt must be a normal float:
    below ~2.2e-308 wt/2 loses bits, and at 5e-324 it rounds to 0.
    """
    wt = float(wt)
    if not wt >= sys.float_info.min:
        raise DomainError(f"bracket requires wt >= {sys.float_info.min!r} "
                          f"(a normal float), got {wt!r}")
    if wt < BRACKET_CROSSOVER_WT:
        value = _bracket_direct(wt)
    else:
        value = _bracket_asymptotic(wt)
    if not value > 0.0:
        raise NumericalError(f"bracket({wt!r}) evaluated non-positive: {value!r}")
    return value
