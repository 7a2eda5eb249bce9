"""Causal effects on the prediction and optimal intervention values.

Under do(X_i = c) every variable moves from the point x (the population
means, or one observation) by alpha_j * (c - x_i), where alpha is column i
of the total-effect matrix (I - W)^-1: the sum over directed paths i -> j
of the products of their edge weights. So the model's score s moves by
g_i * (c - x_i), with g_i = w . alpha the total effect of X_i on the
prediction (path analysis: Wright 1921; Pearl, *Causality*, 2009, section
5). It ranks the intervention targets, and the value that steers the
expected prediction to d is the naive one with g_i in place of the direct
coefficient w_i:

    optimal  c = x_i + (d - s(x)) / g_i
    naive    c = x_i + (d - s(x)) / w_i

Effects come from ``graph.solve``, the package's one forward substitution:
the plan solves e_i for alpha, the identity gives every effect at once.
Unlike a dense solve it keeps structural zeros exact, so a variable with no
path to the prediction has effect 0.0, and g_i == w_i exactly when no other
predictor descends from X_i.
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
from .scm import Scm, analytic_means

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


def _steer(x: np.ndarray, s, i: int, d, slope: float):
    """The value of X_i at which the line s + slope * (c - x_i) reaches d: x_i + (d - s) / slope."""
    return x[i - 1] + (d - s) / slope


def optimal_intervention_value(
    mu,
    dag: Dag,
    noise,
    model: PredictionModel,
    i: int,
    d,
) -> InterventionPlan:
    """The intervention value c making E[prediction | do(X_i = c)] equal d.

    ``mu`` is the point the plan starts from, the population means or one
    observation. The closed form, exact for linear structure (see the module
    docstring), is c = mu_i + (d - s(mu)) / g_i with g_i = w . alpha: w the
    model coefficients scattered over all n variables, alpha one solve of
    e_i. ``noise`` is not read, as the point alone fixes the plan; it stays
    for callers that pass it positionally, and the program passes None.
    An array d gives one plan per entry, each its scalar plan bit for bit.
    Raises ZeroCausalEffect when g_i vanishes and InterveneOnTarget when i
    is the model's target variable.
    """
    if i == model.target_index:
        raise InterveneOnTarget(i)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (dag.n,):
        raise ValueError(f"mu must be a length-{dag.n} vector")
    d = np.asarray(d, dtype=float)[()]
    w = augment_graph(dag, model).coeffs
    # Before the formula reads mu[i - 1], where 0 would address the last entry.
    check_index(i, dag.n)
    alpha = graph.solve(dag, np.arange(dag.n) == i - 1, fixed=i)  # from e_i
    g = float(w @ alpha)
    if abs(g) < EFFECT_THRESHOLD:
        raise ZeroCausalEffect(i, g)
    s = scores(model, mu)
    c = _steer(mu, s, i, d, g)
    return InterventionPlan(i, c, d, s + g * (c - mu[i - 1]), alpha)


def naive_intervention_value(model: PredictionModel, x, i: int, d):
    """Solve the prediction equation for x_i at a fixed observation.

    Ignores all causal propagation: the remaining predictors are held at
    their observed values: the optimal plan's line with the direct
    coefficient w_i as its slope in place of the total effect g_i. So the
    realized prediction misses d whenever g_i != w_i, which needs a
    descendant of i among the predictors. An array d gives one value per entry.
    """
    if i not in model.predictor_indices:
        # A non-predictor has coefficient zero in the expanded vector.
        raise ZeroCoefficient(i)
    x = np.asarray(x, dtype=float)
    wi = model.coeffs[model.predictor_indices.index(i)]
    if wi == 0.0:
        raise ZeroCoefficient(i)
    return _steer(x, scores(model, x), i, np.asarray(d, dtype=float)[()], wi)


def observation_specific_plan(
    observation,
    dag: Dag,
    model: PredictionModel,
    i: int,
    d,
) -> InterventionPlan:
    """Optimal intervention tailored to one fully-observed sample: the plan from that point (one per d)."""
    return optimal_intervention_value(observation, dag, None, model, i, d)


def plan_for_scm(scm: Scm, model: PredictionModel, i: int, d) -> InterventionPlan:
    """Population-level plan from the Scm's analytic means; ``d`` may be an array."""
    return optimal_intervention_value(analytic_means(scm), scm.dag, None, model, i, d)
