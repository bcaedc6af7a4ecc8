"""Growth-drift-diffusion-absorption world-counting laboratory.

Three independent engines for the same model -- closed forms, a
finite-difference solver, and a branching random walk with importance
sampling -- plus the orchestration that cross-validates them and measures
how close surviving-world counting comes to the Born probabilities.
"""

from .errors import DomainError, NumericalError, RegimeWarning
from .model_params import (DecoherenceParams, DiffusionParams,
                           binary_event_stats, count_walk_stats, to_diffusion)
from .special_functions import LogValue, bracket, erfc, erfcx, log_erfc
from .analytic import (boundary, gamma_correction, gamma_correction_log,
                       lambda_count, lambda_count_log, pde_residual_mu0,
                       unmangled_count_W)
from .pde_solver import Field, Grid, born_two_stage, init_delta, solve, survivor_count
from .monte_carlo import (ExactCount, PathEnsemble, SurvivorHistogram,
                          WalkSpec, born_two_stage_mc, default_tilt,
                          empirical_distribution, enumerate_survivors,
                          simulate_survivors)
from .born_experiment import (BornOutcomeSpec, DeviationReport,
                              HeadlineReport, deviation_table, headline_check,
                              survival_condition_scan)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "NumericalError", "RegimeWarning",
    "DecoherenceParams", "DiffusionParams", "binary_event_stats",
    "count_walk_stats", "to_diffusion",
    "LogValue", "bracket", "erfc", "erfcx", "log_erfc",
    "boundary", "gamma_correction", "gamma_correction_log", "lambda_count",
    "lambda_count_log", "pde_residual_mu0", "unmangled_count_W",
    "Field", "Grid", "born_two_stage", "init_delta", "solve", "survivor_count",
    "ExactCount", "PathEnsemble", "SurvivorHistogram", "WalkSpec",
    "born_two_stage_mc", "default_tilt", "empirical_distribution",
    "enumerate_survivors", "simulate_survivors",
    "BornOutcomeSpec", "DeviationReport", "HeadlineReport", "deviation_table",
    "headline_check", "survival_condition_scan",
    "__version__",
]
