"""Exact reference values for the benchmark's output checks.

These oracles share no numerical code with the engines under test: the
continuum ones use scipy's normal CDF and adaptive quadrature, the lattice
one is a dynamic program over the discrete walk.

* :func:`two_stage_ratios` -- the continuum two-stage Born ratios
  share/(F G), from a 1-D quadrature of the exact stage-two survival mass
  against the image-method stage-one density (the construction of
  ``tests/test_pde_solver.py::test_gamma_against_exact_composition_oracle``).
* :func:`continuum_log_count` -- the exact one-stage surviving count of the
  continuum model (image method, no small-eps approximation).
* :func:`lattice_log_count` -- the exact surviving-leaf count of the discrete
  binary-split walk.  A lineage's log-size after n events depends only on
  k, its number of larger-branch steps, so the 2^N tree collapses to O(N)
  states per event.  The walker accumulates x event by event while this
  evaluates k ln p + (n - k) ln q in closed form, so a lineage sitting
  within roundoff of the boundary can be judged differently; such ties are
  far below the checks' statistical allowance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr


def survival_mass(y: float, s: float) -> float:
    """Probability that a walk with drift -1 and variance s per unit s,
    started at height y > 0, stays above 0 for a time s."""
    r = math.sqrt(s)
    return float(ndtr((y - s) / r) - math.exp(2.0 * y + log_ndtr(-(y + s) / r)))


def stage_one_density(u: float, eps: float, s: float) -> float:
    """Density at height u of the survivors of the same walk started at eps
    (image method), normalized to the single starting world."""
    if u <= 0.0:
        return 0.0
    log_gauss = eps - u - 0.5 * s - (u - eps) ** 2 / (2.0 * s)
    return (math.exp(log_gauss) * -math.expm1(-2.0 * u * eps / s)
            / math.sqrt(2.0 * math.pi * s))


def two_stage_ratios(outcomes, w: float, eps: float, t1: float,
                     t2: float) -> list[float]:
    """share_k / (F_k G_k) for outcomes [(F, G), ...] in the continuum model.

    lambda_k = G_k * integral_0^inf M(y; w t2) rho(y + |ln F_k|; w t1) dy, with
    M the stage-two survival mass and rho the stage-one density; the common
    growth factor cancels in the shares.
    """
    s1, s2 = w * t1, w * t2
    y_hi = eps + 20.0 * math.sqrt(s1)
    lams = []
    for f, g in outcomes:
        shift = -math.log(f)
        val, _ = quad(lambda y: survival_mass(y, s2)
                      * stage_one_density(y + shift, eps, s1),
                      0.0, y_hi, limit=400, epsabs=0.0, epsrel=1e-12)
        lams.append(g * val)
    total = math.fsum(lams)
    return [lam / total / (f * g) for lam, (f, g) in zip(lams, outcomes)]


def continuum_log_count(v: float, w: float, eps: float, t: float) -> float:
    """ln of the exact surviving count e^{(v - w/2) t} M(eps; w t)."""
    return math.log(survival_mass(eps, w * t)) + (v - 0.5 * w) * t


def lattice_log_count(p: float, eps: float, n_events: int,
                      boundary_step: float) -> float:
    """ln of the exact number of the 2^N leaves whose lineage stays above
    the boundary n * boundary_step - eps after every event n."""
    log_big = math.log(max(p, 1.0 - p))
    log_small = math.log(min(p, 1.0 - p))
    k = np.arange(n_events + 1)
    counts = np.zeros(n_events + 1)
    counts[0] = 1.0
    log_scale = 0.0
    for n in range(1, n_events + 1):
        counts[1:] += counts[:-1].copy()  # k grows by one on a larger branch
        counts[k * log_big + (n - k) * log_small <= n * boundary_step - eps] = 0.0
        total = counts.sum()
        if total == 0.0:
            return -math.inf
        counts /= total
        log_scale += math.log(total)
    return log_scale
