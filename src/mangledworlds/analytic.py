"""Closed-form solutions of the growth-drift-diffusion-absorption model.

All densities and counts refer to a single initial world of unit measure
(log-size x = 0 at t = 0).  Worlds multiply at rate v, their total count
grows like exp((v - w/2) t), the log-size distribution drifts to mean -v*t
with variance w*t, and an absorbing boundary trails the median measure
xhat = -(v - w) t at offset eps.  In the boundary-relative coordinate
y = x - x_b(t) the unmangled density, its small-eps approximation, the
surviving count W and the two-stage outcome count lambda all have closed
forms built from erfc/erfcx.

Two conventions are fixed here and relied on by the self-tests:

* Sign of the drifted mean: the all-worlds density uses mean -v*t.  The
  PDE-residual self-test (:func:`pde_residual_mu0`) differentiates
  :func:`log_mu0` itself, and the opposite sign fails it by nine orders of
  magnitude, so it is not a free choice.
* Count normalization: prefactors are pinned so that a unit-mass initial
  condition gives exactly these counts.  Concretely
  ``W(t; eps) = eps * e^eps * e^{(v-w)t} * bracket(w t)`` and the density
  prefactors follow by the same unit-mass convention; the finite-difference
  solver and direct quadrature agree with these normalizations to <1%,
  which pins them uniquely.  The Born correction
  ``gamma(F) = erfc(-ln F / sqrt(2 w t1))`` is a ratio and does not depend
  on any of this.

Counts are returned as their natural log, a plain float, so (v - w) t up
to ~1e10 stays representable; the ``log_*`` densities broadcast over numpy
arrays.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np

from .errors import DomainError, NumericalError, RegimeWarning
from .model_params import DiffusionParams, _check_positive, split_params
from .special_functions import bracket, erfc, log_erfc

_LOG_2PI = math.log(2.0 * math.pi)


def _warn_if_outside_regime(wt1: float, eps: float | None = None) -> None:
    if wt1 <= 1.0:
        message = (f"w*t1 = {wt1:.3g} <= 1: outside the diffusive regime the "
                   "closed forms were derived for")
    elif eps is not None and eps >= 0.3 * math.sqrt(wt1):
        message = (f"eps = {eps:.3g} is not small against sqrt(w*t1) = "
                   f"{math.sqrt(wt1):.3g}; small-eps forms degrade")
    else:
        return
    # name the first caller outside this module, however deep the call
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RegimeWarning, stacklevel=level)


def _density(out, name: str, t: float, dp: DiffusionParams):
    """A log-density as a float or an array.  The densities compute with
    numpy's warnings off; a nan, which only an overflow makes, is refused."""
    if np.isnan(out).any():
        raise DomainError(f"{name} overflows to nan at v={dp.v!r}, w={dp.w!r}, "
                          f"eps={dp.eps!r}, t={t!r}: a parameter is too large")
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# all-worlds density
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def log_mu0(x, t: float, dp: DiffusionParams):
    """ln of the all-worlds density over log-size x at time t > 0.

    A normal density with mean -v*t and variance w*t, carrying the total
    count e^{(v - w/2) t}.  Broadcasts over x.
    """
    t = _check_positive(t)
    var = dp.w * t
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("x must be a number, got nan")
    out = ((dp.v - 0.5 * dp.w) * t
           - 0.5 * (_LOG_2PI + math.log(var))
           - (x + dp.v * t) ** 2 / (2.0 * var))
    return _density(out, "log_mu0", t, dp)


def pde_residual_mu0(x: float, t: float, dp: DiffusionParams, h: float = 1e-4,
                     wrong_mean: bool = False) -> float:
    """Normalized residual of the growth-drift-diffusion equation

        mu_t = v (mu_x + mu) + (w/2) (mu_xx - mu)

    for :func:`log_mu0` itself, via central differences of step ``h``
    (scaled up with |x| and t so the stencil stays resolved).  Serves as the
    self-test that pins the sign of the drifted mean; ``wrong_mean``
    evaluates ``log_mu0(x - 2 v t, t)``, the flipped-mean (+v*t) variant, as
    a negative control.
    """
    t = _check_positive(t)
    shift = 2.0 * dp.v if wrong_mean else 0.0

    def mu(xx: float, tt: float) -> float:
        return math.exp(log_mu0(xx - shift * tt, tt, dp))

    hx = h * max(1.0, abs(x))
    ht = h * max(1.0, t)
    if t - ht <= 0.0:
        ht = 0.5 * t

    mu_c = mu(x, t)
    mu_t = (mu(x, t + ht) - mu(x, t - ht)) / (2.0 * ht)
    mu_x = (mu(x + hx, t) - mu(x - hx, t)) / (2.0 * hx)
    mu_xx = (mu(x + hx, t) - 2.0 * mu_c + mu(x - hx, t)) / (hx * hx)
    residual = mu_t - dp.v * (mu_x + mu_c) - 0.5 * dp.w * (mu_xx - mu_c)
    return residual / mu_c


# ---------------------------------------------------------------------------
# boundary and unmangled densities
# ---------------------------------------------------------------------------

def boundary(t: float, dp: DiffusionParams) -> float:
    """Absorbing-boundary position x_b(t) = -(v - w) t - eps in log-size."""
    if not t >= 0.0:
        raise DomainError(f"t must be nonnegative, got {t!r}")
    return -(dp.v - dp.w) * t - dp.eps


@np.errstate(all="ignore")
def log_mu1_exact(y, t: float, dp: DiffusionParams):
    """ln of the exact (image-method) unmangled density over y >= 0.

    -inf at y = 0, where the direct and image terms cancel.  Broadcasts
    over y; scalar y < 0 raises, array entries < 0 raise.
    """
    t = _check_positive(t)
    y_arr = np.asarray(y, dtype=float)
    if not np.all(y_arr >= 0.0):
        raise DomainError("mu1 is defined on the unmangled side y >= 0 only")
    s = dp.w * t
    eps = dp.eps
    log_a = -((y_arr - eps) ** 2) / (2.0 * s)
    log_b = -((y_arr + eps) ** 2) / (2.0 * s)
    diff = log_a + np.log1p(-np.exp(log_b - log_a))
    diff = np.where(log_b == log_a, -np.inf, diff)
    out = (eps - y_arr + (dp.v - dp.w) * t
           - 0.5 * (_LOG_2PI + math.log(s))
           + diff)
    return _density(out, "log_mu1_exact", t, dp)


@np.errstate(all="ignore")
def log_mu1_approx(y, t: float, dp: DiffusionParams):
    """ln of the small-eps unmangled density

        mu1(y, t) ~ (2 eps e^eps / sqrt(2 pi)) e^{(v-w)t} (w t)^{-3/2}
                     * y * exp(-y - y^2 / (2 w t))

    valid for eps << sqrt(w t); the regime is documented, not enforced.
    """
    t = _check_positive(t)
    y_arr = np.asarray(y, dtype=float)
    if not np.all(y_arr >= 0.0):
        raise DomainError("mu1 is defined on the unmangled side y >= 0 only")
    s = dp.w * t
    log_y = np.log(y_arr)
    out = (math.log(2.0 * dp.eps) + dp.eps + (dp.v - dp.w) * t
           - 0.5 * _LOG_2PI - 1.5 * math.log(s)
           + log_y - y_arr - y_arr ** 2 / (2.0 * s))
    return _density(out, "log_mu1_approx", t, dp)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def log_unmangled_count(t: float, dp: DiffusionParams) -> float:
    """ln W(t; eps) = ln(eps e^eps) + (v - w) t + ln(bracket(w t))."""
    t = _check_positive(t)
    return (math.log(dp.eps) + dp.eps + (dp.v - dp.w) * t
            + math.log(bracket(dp.w * t)))


def log_lambda_count(log_F: float, G: float, t1: float, t2: float,
                     dp: DiffusionParams) -> float:
    """ln lambda(F, G; t1, t2, eps) with F passed as ln F <= 0.

        lambda = F G erfc(-ln F / sqrt(2 w t1)) * eps e^eps
                 * e^{(v-w)(t1+t2)} * bracket(w t2)
    """
    t1 = _check_positive(t1, "t1")
    t2 = _check_positive(t2, "t2")
    log_F = float(log_F)
    if not log_F <= 0.0:
        raise DomainError(f"measure fraction F must satisfy F <= 1, got ln F = {log_F!r}")
    G = split_params(1.0, G)[1]  # the check of G alone
    wt1 = dp.w * t1
    _warn_if_outside_regime(wt1, dp.eps)
    return (log_F + math.log(G)
            + log_erfc(-log_F / math.sqrt(2.0 * wt1))
            + math.log(dp.eps) + dp.eps
            + (dp.v - dp.w) * (t1 + t2)
            + math.log(bracket(dp.w * t2)))


def lambda_count(F: float, G: float, t1: float, t2: float,
                 dp: DiffusionParams) -> float:
    """ln of the final unmangled count for an outcome of G children each F
    smaller.

    For F too small to represent as a float use :func:`log_lambda_count`.
    """
    log_F, G = split_params(F, G)
    return log_lambda_count(log_F, G, t1, t2, dp)


def gamma_correction(F: float, t1: float, w: float) -> float:
    """Born correction gamma(F) = erfc(-ln F / sqrt(2 w t1)), in (0, 1].

    Independent of G and t2 by construction.  For F below the float
    underflow threshold use :func:`gamma_correction_log`.
    """
    return gamma_correction_log(split_params(F, 1)[0], t1, w)


def gamma_correction_log(log_F: float, t1: float, w: float) -> float:
    """gamma(F) with F passed as ln F <= 0 (F = e^{-1e5} is a fine input)."""
    log_F = float(log_F)
    if not log_F <= 0.0:
        raise DomainError(f"measure fraction F must satisfy F <= 1, got ln F = {log_F!r}")
    t1 = _check_positive(t1, "t1")
    wt1 = float(w) * t1
    if not wt1 > 0.0:
        raise DomainError(f"w * t1 must be positive, got {wt1!r}")
    _warn_if_outside_regime(wt1)
    return erfc(-log_F / math.sqrt(2.0 * wt1))


# ---------------------------------------------------------------------------
# quadrature cross-checks (the independent route used by `validate`):
# composite 20-point Gauss-Legendre, panels doubled until two estimates agree
# ---------------------------------------------------------------------------

def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule: the eigenvalues
    of the Jacobi matrix (Golub & Welsch, Math. Comp. 1969), polished by
    Newton steps on P_n from its three-term recurrence; the weights are
    2 / ((1 - x^2) P_n'(x)^2)."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(3):
        before, p = np.ones(n), x
        for j in range(2, n + 1):
            before, p = p, ((2 * j - 1) * x * p - (j - 1) * before) / j
        slope = n * (x * p - before) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(20)
_QUAD_RTOL = 1e-13
_QUAD_MAX_PANELS = 1 << 12


def _log_quad(log_f, a: float, b: float) -> float:
    """ln of the integral of e^log_f over [a, b], log_f vectorized.

    Composite 20-point Gauss-Legendre (Golub-Welsch nodes) over 1, 2, 4, ...
    equal panels, until two successive estimates agree to 1e-13 relative.
    Each estimate is scaled by the largest e^log_f at its own nodes, so the
    integrand may lie far outside the float range.  Raises NumericalError if
    4096 panels do not converge (a kink or jump inside a panel does that).
    """
    previous = math.nan
    panels = 1
    while panels <= _QUAD_MAX_PANELS:
        half = 0.5 * (b - a) / panels
        centres = a + half * np.arange(1.0, 2.0 * panels, 2.0)
        logs = log_f(np.add.outer(centres, half * _GL_NODES))
        shift = float(np.max(logs))
        estimate = shift + math.log(half * float(np.exp(logs - shift).sum(axis=0)
                                                 @ _GL_WEIGHTS))
        if abs(math.expm1(estimate - previous)) <= _QUAD_RTOL:
            return estimate
        previous = estimate
        panels *= 2
    raise NumericalError(f"Gauss-Legendre quadrature over [{a!r}, {b!r}] did not "
                         f"converge to {_QUAD_RTOL:g} in {_QUAD_MAX_PANELS} panels")


def quad_unmangled_count(t: float, dp: DiffusionParams) -> float:
    """ln W(t; eps) by quadrature of the approximate density over
    [0, max(10, 8 sqrt(w t))]; the closed form must reproduce this."""
    t = _check_positive(t)
    y_hi = max(10.0, 8.0 * math.sqrt(dp.w * t))
    return _log_quad(lambda y: log_mu1_approx(y, t, dp), 0.0, y_hi)


def quad_lambda_count(F: float, G: float, t1: float, t2: float,
                      dp: DiffusionParams) -> float:
    """ln lambda by direct quadrature of the stage-composition integrand

        G * W(t2; y) * mu1(y - ln F, t1; eps)

    where W(t2; y) is the count formula with its boundary offset replaced by
    the stage-two starting height y."""
    t1 = _check_positive(t1, "t1")
    t2 = _check_positive(t2, "t2")
    log_F, G = split_params(F, G)
    big_l = -log_F
    log_b2 = math.log(bracket(dp.w * t2))
    vw = dp.v - dp.w

    def log_integrand(y: np.ndarray) -> np.ndarray:
        log_w_t2 = np.log(y) + y + vw * t2 + log_b2
        return log_w_t2 + log_mu1_approx(y + big_l, t1, dp)

    y_hi = max(10.0, 8.0 * math.sqrt(dp.w * t1))
    return math.log(G) + _log_quad(log_integrand, 0.0, y_hi)
