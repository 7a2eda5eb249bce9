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

Both come from the total-effect matrix without forming it: the plan's
alpha is one forward ``graph.solve`` of e_i, and the row of every effect,
g = w (I - W)^-1, is one reverse pass, ``graph.solve_transposed`` of w.
Unlike a dense solve these keep structural zeros exact, so a variable with
no path to the prediction has effect 0.0, and g_i == w_i exactly when no
other predictor descends from X_i.
"""

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import (
    AllEffectsZero,
    InterveneOnTarget,
    NonFiniteValue,
    ZeroCausalEffect,
    ZeroCoefficient,
    check_index,
    check_indices,
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

    Entry k-1 is w . (column k of (I - W)^-1), so the vector is the row
    w (I - W)^-1: one reverse pass from the coefficients to their ancestors,
    ``graph.solve_transposed``, which never builds the n columns. Exactly 0.0
    for a variable with no directed path into a predictor.

    With ``fixed = i`` the equation of X_i is cut, as under do(X_i = c), and
    entry k-1 is the weight of N_k in the post-intervention score: with the
    noise vector's entry i set to c, the score is bias + effects . noise.
    """
    return graph.solve_transposed(augmented.base, augmented.coeffs, fixed)


def causal_effect_on_prediction(augmented: AugmentedGraph, i: int) -> float:
    """d/dc of the expected prediction under do(X_i = c)."""
    check_index(i, augmented.base.n)
    return float(effects_on_prediction(augmented)[i - 1])


def target_order(augmented: AugmentedGraph, candidates) -> tuple[list[int], np.ndarray]:
    """The distinct candidates by absolute effect on the prediction, greatest first and ties to the lower index
    (numpy's sort puts a NaN effect last), and ``effects_on_prediction(augmented)``, the effects they are sorted by."""
    cands = np.unique(np.fromiter(map(int, candidates), dtype=int))
    check_indices(cands.tolist(), augmented.base.n)
    effects = effects_on_prediction(augmented)
    return cands[np.argsort(-np.abs(effects[cands - 1]), kind="stable")].tolist(), effects


def select_intervention_target(augmented: AugmentedGraph, candidates) -> int:
    """The head of ``target_order``. Raises AllEffectsZero when no candidate moves the prediction, or there is none."""
    order, effects = target_order(augmented, candidates)
    if not order or abs(effects[order[0] - 1]) < EFFECT_THRESHOLD:
        raise AllEffectsZero("no candidate has a causal effect on the prediction")
    return order[0]


def _steer(model: PredictionModel, x, i: int, d, slope: float):
    """(c, the line's value at c), where c = x_i + (d - s(x)) / slope puts the line s(x) + slope * (c - x_i) at d.

    Raises ValueError unless x is 1-D and covers i and every predictor, and
    NonFiniteValue unless the slope and c are finite, naming the first d whose c overflows.
    """
    x = np.asarray(x, dtype=float)
    need = max((i, *model.predictor_indices))
    if x.ndim != 1 or x.size < need:
        raise ValueError(f"x must be a 1-D point of length at least {need}, got shape {x.shape}")
    s = scores(model, x)
    if not np.isfinite(slope):
        raise NonFiniteValue(f"the effect of variable {i} on the prediction is not finite")
    d = np.asarray(d, dtype=float)[()]
    with np.errstate(over="ignore", invalid="ignore"):
        c = x[i - 1] + (d - s) / slope
        reached = s + slope * (c - x[i - 1])
    overflow = ~np.isfinite(c)
    if overflow.any():
        bad = np.broadcast_to(d, overflow.shape)[overflow][0]
        raise NonFiniteValue(f"the value of variable {i} that steers the prediction to {bad:g} is not finite")
    return c, reached


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
    Raises ZeroCausalEffect when g_i vanishes, NonFiniteValue when g_i or c
    is not finite, and InterveneOnTarget when i is the model's target variable.
    """
    if i == model.target_index:
        raise InterveneOnTarget(i)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (dag.n,):
        raise ValueError(f"mu must be a length-{dag.n} vector")
    d = np.asarray(d, dtype=float)[()]
    w = augment_graph(dag, model).coeffs
    # The solve checks i before the formula reads mu[i - 1], where 0 would address the last entry.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = graph.solve(dag, np.arange(dag.n) == i - 1, fixed=i)  # from e_i
        g = float(w @ alpha)
    if abs(g) < EFFECT_THRESHOLD:
        raise ZeroCausalEffect(i, g)
    c, reached = _steer(model, mu, i, d, g)
    return InterventionPlan(i, c, d, reached, alpha)


def naive_intervention_value(model: PredictionModel, x, i: int, d):
    """Solve the prediction equation for x_i at a fixed observation.

    Ignores all causal propagation: the remaining predictors are held at
    their observed values: the optimal plan's line with the direct
    coefficient w_i as its slope in place of the total effect g_i. So the
    realized prediction misses d whenever g_i != w_i, which needs a
    descendant of i among the predictors. An array d gives one value per entry.
    Raises ValueError unless x is 1-D and covers every predictor, i among them.
    """
    wi = model.coeffs[model.predictor_indices.index(i)] if i in model.predictor_indices else 0.0
    if wi == 0.0:
        raise ZeroCoefficient(i)
    return _steer(model, x, i, d, wi)[0]


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
