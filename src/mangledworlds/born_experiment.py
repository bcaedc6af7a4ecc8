"""Born-rule deviation tables across the three engines.

An experiment is a set of outcomes (label, F_k, G_k) with total probability
sum(F_k * G_k) = 1.  Each engine produces the expected unmangled-world count
lambda_k per outcome; the interesting observable is the normalized share
lambda_k / sum_j lambda_j, whose ratio to the Born probability F_k G_k
isolates the deviation.  Shares are reported rather than absolute counts
because the counts carry an enormous common factor e^{(v-w)(t1+t2)} that
cancels in any within-experiment comparison.

Background decoherence is represented entirely by (t1, t2); the counted
split is the single (F, G) event between the stages.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import analytic, monte_carlo, pde_solver
from .errors import DomainError
from .model_params import (DecoherenceParams, _rates, binary_event_stats,
                           to_diffusion)
from ._io import atomic_write_text, format_float, rows_to_csv

ENGINES = ("analytic", "pde", "mc")

#: reference value of erfc(1/sqrt(2)), the headline Born correction
GAMMA_HEADLINE = 0.3173105078629141
#: the headline point: w t1 = 1e10 and ln F = -1e5 (log10 F ~ -43430)
HEADLINE_WT1 = 1e10
HEADLINE_LOG_F = -1e5


@dataclass(frozen=True)
class BornOutcomeSpec:
    """One measurement outcome: G children, each a factor F smaller."""

    label: str
    F: float
    G: int

    def __post_init__(self):
        if not 0.0 < self.F <= 1.0:
            raise DomainError(f"outcome {self.label!r}: F must lie in (0, 1], got {self.F!r}")
        if not self.G >= 1:
            raise DomainError(f"outcome {self.label!r}: G must be >= 1, got {self.G!r}")

    @property
    def born_probability(self) -> float:
        return self.F * self.G


def validate_outcomes(outcomes: list[BornOutcomeSpec]) -> None:
    """Outcome probabilities F_k G_k must total 1 within 1e-12."""
    if not outcomes:
        raise DomainError("an experiment needs at least one outcome")
    total = math.fsum(o.born_probability for o in outcomes)
    if not abs(total - 1.0) <= 1e-12:
        raise DomainError(f"outcome probabilities sum to {total!r}, not 1 "
                          "(tolerance 1e-12)")


@dataclass
class OutcomeRow:
    engine: str
    label: str
    F: float
    G: int
    born_probability: float
    log10_lambda: float | None
    share: float | None
    share_over_born: float | None
    gamma_analytic: float
    status: str = "ok"


@dataclass
class DeviationReport:
    rows: list[OutcomeRow]
    metadata: dict

    def to_csv(self, path) -> None:
        header = ["engine", "label", "F", "G", "born_probability",
                  "log10_lambda", "share", "share_over_born",
                  "gamma_analytic", "status"]
        rows = [[r.engine, r.label, format_float(r.F), r.G,
                 format_float(r.born_probability),
                 "" if r.log10_lambda is None else format_float(r.log10_lambda),
                 "" if r.share is None else format_float(r.share),
                 "" if r.share_over_born is None else format_float(r.share_over_born),
                 format_float(r.gamma_analytic), r.status]
                for r in self.rows]
        rows_to_csv(path, header, rows)

    def to_json(self, path) -> None:
        atomic_write_text(path, json.dumps(
            {"metadata": self.metadata, "rows": [asdict(r) for r in self.rows]},
            indent=2, sort_keys=True) + "\n")


def _shares(log_lambdas: list[float]) -> list[float]:
    m = max(log_lambdas)
    if not math.isfinite(m):
        raise DomainError("engine produced no survivors for any outcome")
    weights = [math.exp(v - m) for v in log_lambdas]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _mc_lambdas(outcomes, dp, eps, t1, t2, n_paths, seed, workers,
                tilt) -> list[float]:
    n1 = dp.r * t1
    n2 = dp.r * t2
    if abs(n1 - round(n1)) > 1e-9 or abs(n2 - round(n2)) > 1e-9:
        raise DomainError(f"the discrete engine needs integer event counts: "
                          f"r*t1 = {n1!r}, r*t2 = {n2!r}")
    n1, n2 = int(round(n1)), int(round(n2))
    if tilt is None:
        tilt = monte_carlo.default_tilt(dp, n1 + n2)
    spec = monte_carlo.WalkSpec(dp=dp, eps=eps, n_events=n1, tilt=tilt)
    ensembles = monte_carlo.born_two_stage_mc_counts(
        spec, [(o.F, o.G) for o in outcomes], n2, n_paths, seed, workers)
    return [ens.estimate() for ens in ensembles]


def deviation_table(outcomes: list[BornOutcomeSpec], dp: DecoherenceParams,
                    eps: float, t1: float, t2: float,
                    engines: tuple[str, ...] = ("analytic",), *,
                    grid: pde_solver.Grid | None = None,
                    n_paths: int = 1 << 20, seed: int | None = None,
                    workers: int | None = None,
                    tilt: str | None = None) -> DeviationReport:
    """Per-outcome unmangled shares and Born ratios for each engine.

    Engine failures are recorded in the affected rows' ``status`` and do not
    abort the other engines.
    """
    validate_outcomes(outcomes)
    if not engines:
        raise DomainError("engines must be nonempty")
    for e in engines:
        if e not in ENGINES:
            raise DomainError(f"unknown engine {e!r}; choose from {ENGINES}")
    if "mc" in engines and seed is None:
        raise DomainError("the mc engine requires an explicit seed")
    if tilt not in (None, *monte_carlo.TILTS):
        raise DomainError(f"tilt must be one of {monte_carlo.TILTS} or None, "
                          f"got {tilt!r}")

    diff = to_diffusion(dp, eps)
    gammas = [analytic.gamma_correction(o.F, t1, diff.w) for o in outcomes]

    rows: list[OutcomeRow] = []
    for engine in engines:
        status = "ok"
        try:
            if engine == "analytic":
                lams = [analytic.lambda_count(o.F, o.G, t1, t2, diff)
                        for o in outcomes]
            elif engine == "pde":
                if grid is None:
                    max_l = max(-math.log(o.F) for o in outcomes)
                    grid = pde_solver.suggested_grid(diff, t1 + t2, max_abs_log_F=max_l)
                lams = pde_solver.born_two_stage_counts(
                    diff, grid, t1, [(o.F, o.G) for o in outcomes], t2)
            else:
                lams = _mc_lambdas(outcomes, dp, eps, t1, t2, n_paths, seed,
                                   workers, tilt)
            shares = _shares(lams)
        except Exception as exc:  # partial results stay useful
            lams = shares = [None] * len(outcomes)
            status = f"error: {exc}"
        for o, lam, share, g in zip(outcomes, lams, shares, gammas):
            rows.append(OutcomeRow(
                engine=engine, label=o.label, F=o.F, G=o.G,
                born_probability=o.born_probability,
                log10_lambda=None if lam is None else lam / math.log(10.0),
                share=share,
                share_over_born=None if share is None else share / o.born_probability,
                gamma_analytic=g, status=status))

    metadata = {
        "p": dp.p, "r": dp.r, "eps": eps, "t1": t1, "t2": t2,
        "v": diff.v, "w": diff.w, "wt1": diff.w * t1,
        "engines": list(engines), "n_paths": n_paths, "seed": seed,
        "grid": None if grid is None else asdict(grid),
    }
    return DeviationReport(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# headline numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadlineReport:
    """The flagship closed-form check: at w*t1 = 1e10 even a measure factor
    below 10^-43000 only pulls the Born correction down to about 1/3."""

    wt1: float
    log_F: float
    gamma: float
    log10_F: float
    gamma_double_suppression: float
    gamma_tenth_suppression: float

    @property
    def passed(self) -> bool:
        return (abs(self.gamma - GAMMA_HEADLINE) <= 1e-9
                and self.log10_F < -43000.0)

    def lines(self) -> list[str]:
        return [
            f"w*t1                 = {self.wt1:.6g}",
            f"ln F                 = {self.log_F:.6g}",
            f"log10 F              = {self.log10_F:.2f}  (< -43000: "
            f"{self.log10_F < -43000.0})",
            f"gamma(F)             = {self.gamma:.9f}  (erfc(1/sqrt 2) = "
            f"{GAMMA_HEADLINE:.9f})",
            f"gamma at ln F x2     = {self.gamma_double_suppression:.6f}",
            f"gamma at ln F / 10   = {self.gamma_tenth_suppression:.6f}",
            f"headline check       : {'PASS' if self.passed else 'FAIL'}",
        ]


def headline_check() -> HeadlineReport:
    """Evaluate gamma at the headline point plus two perturbations of ln F."""
    wt1, log_F = HEADLINE_WT1, HEADLINE_LOG_F
    g = analytic.gamma_correction_log(log_F, t1=wt1, w=1.0)
    return HeadlineReport(
        wt1=wt1, log_F=log_F, gamma=g,
        log10_F=log_F / math.log(10.0),
        gamma_double_suppression=analytic.gamma_correction_log(2.0 * log_F, wt1, 1.0),
        gamma_tenth_suppression=analytic.gamma_correction_log(0.1 * log_F, wt1, 1.0),
    )


# ---------------------------------------------------------------------------
# survival-condition scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    p: float
    r: float
    v: float
    w: float
    v_minus_w: float          # unmangled-count growth exponent
    all_growth: float         # all-worlds growth exponent v - w/2
    fraction_exponent: float  # unmangled fraction decays like e^{-w t / 2}
    degenerate: bool
    survival_regime: bool
    identity_residual: float  # |(v - w) - (-r xhat1)| / |r xhat1|


def survival_condition_scan(p_values, r_values=(1.0,)) -> list[ScanRow]:
    """Tabulate the growth exponents over a (p, r) grid.

    The unmangled count grows iff v > w, yet its share of all worlds always
    shrinks (the gap is w/2 > 0); the identity column pins v - w = -r*xhat1.
    """
    rows = []
    for p in p_values:
        xhat1 = binary_event_stats(p)[0]
        for r in r_values:
            v, w = _rates(DecoherenceParams(p=p, r=r))
            rows.append(ScanRow(
                p=p, r=r, v=v, w=w, v_minus_w=v - w,
                all_growth=v - 0.5 * w,
                fraction_exponent=-0.5 * w,
                degenerate=w == 0.0,
                survival_regime=v > w,
                identity_residual=abs(v - w - (-r * xhat1)) / abs(r * xhat1)))
    return rows


def scan_to_csv(rows: list[ScanRow], path) -> None:
    header = ["p", "r", "v", "w", "v_minus_w", "all_growth",
              "fraction_exponent", "degenerate", "survival_regime",
              "identity_residual"]
    rows_to_csv(path, header, [
        [format_float(s.p), format_float(s.r), format_float(s.v),
         format_float(s.w), format_float(s.v_minus_w),
         format_float(s.all_growth), format_float(s.fraction_exponent),
         int(s.degenerate), int(s.survival_regime),
         format_float(s.identity_residual)] for s in rows])
