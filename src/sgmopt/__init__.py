"""sgmopt: a two-phase subdividing genetic method (SGM) for box-constrained
derivative-free optimization, with the accompanying test bed, baseline
solvers, and benchmark harness."""

from .core import (BoxDomain, BudgetExceeded, EvalContext, EvalCounter,
                   LabelStrategy, Objective, ObjectiveError, RngStream,
                   RunResult, Sense, SgmConfig, contains, counted_eval)
from .testbed import foxholes_matrix, make_objective
from .engine import default_config, solve
from .baselines import SaConfig, random_search, reference_table, simulated_annealing
from .bench import ExperimentSpec, Report, png_ratio, run_experiment

__all__ = [
    "BoxDomain", "BudgetExceeded", "EvalContext", "EvalCounter",
    "LabelStrategy", "Objective", "ObjectiveError", "RngStream",
    "RunResult", "Sense", "SgmConfig", "contains",
    "counted_eval", "foxholes_matrix", "make_objective", "default_config",
    "solve", "SaConfig", "random_search", "reference_table",
    "simulated_annealing", "ExperimentSpec", "Report", "png_ratio",
    "run_experiment",
]

__version__ = "0.1.0"
