"""Causally optimal interventions for linear and logistic predictions.

Couples a linear structural causal model with the causal structure of a
prediction model, ranks predictors by their causal effect on the
prediction, and computes the exact intervention value that steers the
expected prediction to a desired target.

Variables are numbered 1..n throughout the public API, matching the file
formats and printed output; vectors indexed by variable put variable k at
position k-1.
"""

__version__ = "0.1.0"

from .causal import (
    InterventionPlan,
    causal_effect_on_prediction,
    effects_on_prediction,
    naive_intervention_value,
    observation_specific_plan,
    optimal_intervention_value,
    plan_for_scm,
    select_intervention_target,
)
from .datagen import DagGenConfig, generate_random_scm, median_split_labels, pick_random_target
from .graph import Dag
from .models import AugmentedGraph, PredictionModel, augment_graph, fit_linear, fit_logistic, scores
from .scm import Dataset, NoiseSpec, Scm, analytic_means, estimate_noise_means, sample
from .sweep import SweepConfig, SweepResult, evaluate_intervention, run_sweep

__all__ = [
    "AugmentedGraph",
    "Dag",
    "DagGenConfig",
    "Dataset",
    "InterventionPlan",
    "NoiseSpec",
    "PredictionModel",
    "Scm",
    "SweepConfig",
    "SweepResult",
    "analytic_means",
    "augment_graph",
    "causal_effect_on_prediction",
    "effects_on_prediction",
    "estimate_noise_means",
    "evaluate_intervention",
    "fit_linear",
    "fit_logistic",
    "generate_random_scm",
    "median_split_labels",
    "naive_intervention_value",
    "observation_specific_plan",
    "optimal_intervention_value",
    "pick_random_target",
    "plan_for_scm",
    "run_sweep",
    "sample",
    "scores",
    "select_intervention_target",
]
