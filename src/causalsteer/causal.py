"""Causal effects on the prediction and optimal intervention values.

Under do(X_i = c) every variable's mean is mu_j + alpha_j * c, where alpha
is column i of the total-effect matrix (I - W)^-1: the sum over directed
paths i -> j of the products of their edge weights. From it follow the
causal effect of any variable on the prediction node, the ranking that
picks the intervention target, and the closed-form intervention value that
makes the expected prediction hit a desired value.

Each is one call of ``graph.solve``, the package's one forward
substitution: the plan solves two right-hand sides for (mu, alpha), the
identity gives every variable's effect at once. Unlike a dense solve it
keeps structural zeros exact, so a variable with no path to the prediction
has effect 0.0.
"""

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import (
    AllEffectsZero,
    InterveneOnTarget,
    ZeroCausalEffect,
    ZeroCoefficient,
    check_index,
)
from .graph import Dag
from .models import AugmentedGraph, PredictionModel, augment_graph, scores
from .scm import Scm, analytic_means, estimate_noise_means

#: Below this sensitivity the desired prediction is unreachable at finite c.
EFFECT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class InterventionPlan:
    """A single intervention do(X_i = value) aimed at a desired prediction.

    ``predicted_expectation`` is the expected prediction the plan achieves;
    for the closed-form optimal value it equals ``desired_prediction`` up to
    rounding. ``effects`` carries the per-variable sensitivity alpha. The
    value fields take the shape of the desired value, one plan per entry.
    """

    target_variable: int
    value: float | np.ndarray
    desired_prediction: float | np.ndarray
    predicted_expectation: float | np.ndarray
    effects: np.ndarray


def effects_on_prediction(augmented: AugmentedGraph, fixed: int | None = None) -> np.ndarray:
    """d/dc of the expected prediction under do(X_k = c), for every k at once.

    Entry k-1 is w . (column k of (I - W)^-1); solving on the identity
    yields all columns in one pass. Exactly 0.0 for a variable with no
    directed path into a predictor.

    With ``fixed = i`` the equation of X_i is cut, as under do(X_i = c), and
    entry k-1 is the weight of N_k in the post-intervention score: with the
    noise vector's entry i set to c, the score is bias + effects . noise.
    """
    n = augmented.base.n
    return graph.solve(augmented.base, np.eye(n), fixed=fixed) @ augmented.coeffs


def causal_effect_on_prediction(augmented: AugmentedGraph, i: int) -> float:
    """d/dc of the expected prediction under do(X_i = c)."""
    check_index(i, augmented.base.n)
    return float(effects_on_prediction(augmented)[i - 1])


def select_intervention_target(augmented: AugmentedGraph, candidates) -> int:
    """The candidate with the greatest absolute causal effect on the prediction.

    Ties break toward the lowest index. Raises AllEffectsZero when no
    candidate moves the prediction at all, and so when there is none.
    """
    cands = sorted(set(int(i) for i in candidates))
    for cand in cands:
        check_index(cand, augmented.base.n)
    effects = np.abs(effects_on_prediction(augmented)[[k - 1 for k in cands]])
    if not cands or effects.max() < EFFECT_THRESHOLD:
        raise AllEffectsZero("no candidate has a causal effect on the prediction")
    # argmax returns the first maximum, the lowest index among ties.
    return cands[int(np.argmax(effects))]


def optimal_intervention_value(
    mu,
    dag: Dag,
    noise,
    model: PredictionModel,
    i: int,
    d,
) -> InterventionPlan:
    """The intervention value c making E[prediction | do(X_i = c)] equal d.

    ``mu`` holds pre-intervention expectations (only root entries are
    consumed), ``noise`` the noise expectations (only non-root entries are
    consumed; pass the output of ``estimate_noise_means``). One solve with X_i's
    own equation cut gives every variable's mean under do(X_i = 0), mu_i (from
    the base terms with entry i zeroed), and its slope in c, alpha (from the
    unit vector e_i). The closed form is exact for linear structure:

        c = (d - w . mu_i - bias) / (w . alpha)

    with w the model coefficients scattered over all n variables (zero at
    the target). An array d reuses the one solve; each entry equals its
    scalar plan bit for bit. Raises ZeroCausalEffect when the denominator
    vanishes and InterveneOnTarget when i is the model's target variable.
    """
    if i == model.target_index:
        raise InterveneOnTarget(i)
    mu = np.asarray(mu, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if mu.shape != (dag.n,) or noise.shape != (dag.n,):
        raise ValueError(f"mu and noise must be length-{dag.n} vectors")
    d = np.asarray(d, dtype=float)[()]
    w = augment_graph(dag, model).coeffs
    check_index(i, dag.n)
    rhs = np.zeros((2, dag.n))
    rhs[0] = np.where(graph.root_mask(dag), mu, noise)
    rhs[:, i - 1] = (0.0, 1.0)
    mu_i, alpha = graph.solve(dag, rhs, fixed=i)
    sensitivity = float(w @ alpha)
    if abs(sensitivity) < EFFECT_THRESHOLD:
        raise ZeroCausalEffect(i, sensitivity)
    c = (d - float(w @ mu_i) - model.bias) / sensitivity
    # Row-wise, as BLAS sums a matrix-vector product in another order than a dot.
    achieved = ((mu_i + np.multiply.outer(c, alpha)) * w).sum(axis=-1) + model.bias
    return InterventionPlan(i, c, d, achieved, alpha)


def naive_intervention_value(model: PredictionModel, x, i: int, d):
    """Solve the prediction equation for x_i at a fixed observation.

    Ignores all causal propagation: the remaining predictors are held at
    their observed values, so the realized post-intervention prediction
    generally misses d whenever i has descendants among the predictors.
    An array d gives one value per entry.
    """
    if i not in model.predictor_indices:
        # A non-predictor has coefficient zero in the expanded vector.
        raise ZeroCoefficient(i)
    x = np.asarray(x, dtype=float)
    wi = model.coeffs[model.predictor_indices.index(i)]
    if wi == 0.0:
        raise ZeroCoefficient(i)
    return x[i - 1] + (np.asarray(d, dtype=float)[()] - scores(model, x)) / wi


def observation_specific_plan(
    observation,
    dag: Dag,
    model: PredictionModel,
    i: int,
    d,
) -> InterventionPlan:
    """Optimal intervention tailored to one fully-observed sample.

    The observation replaces the population expectations, and the noise
    values are recovered from it parent-by-parent, so the plan answers
    "what value would steer this individual's prediction to d" (one per d).
    """
    observation = np.asarray(observation, dtype=float)
    noise = estimate_noise_means(dag, observation)
    return optimal_intervention_value(observation, dag, noise, model, i, d)


def plan_for_scm(scm: Scm, model: PredictionModel, i: int, d) -> InterventionPlan:
    """Population-level plan with expectations taken from the Scm itself; ``d`` may be an array."""
    mu = analytic_means(scm)
    return optimal_intervention_value(mu, scm.dag, estimate_noise_means(scm.dag, mu), model, i, d)
