"""Properties of plans on random DAGs and models.

Plans for an array of desired values must equal the plans for each value
alone, bit for bit, and every plan must hit its desired value by the dense
solve in ``tests/oracles.py``. The optimal and the naive plan are one
steering line from the same point with different slopes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalsteer import (
    Dag,
    NoiseSpec,
    PredictionModel,
    Scm,
    analytic_means,
    augment_graph,
    effects_on_prediction,
    naive_intervention_value,
    observation_specific_plan,
    optimal_intervention_value,
    plan_for_scm,
    scores,
)

from .oracles import expanded_coeffs, interventional_means_solve

RTOL = 1e-9


@st.composite
def instances(draw):
    """A random DAG on 2..12 variables in shuffled order, a linear model on it,
    a variable i that moves the prediction, and a vector of desired values."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.1, 0.9))
    magnitude = rng.uniform(0.5, 1.5, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    lower = np.tril(magnitude * (rng.random((n, n)) < density), -1)
    perm = rng.permutation(n)
    dag = Dag(lower[np.ix_(perm, perm)])

    target = draw(st.integers(1, n))
    others = [k for k in range(1, n + 1) if k != target]
    preds = draw(st.lists(st.sampled_from(others), min_size=1, max_size=len(others), unique=True))
    coeffs = draw(st.lists(st.floats(0.1, 3.0), min_size=len(preds), max_size=len(preds)))
    signs = rng.choice([-1.0, 1.0], len(preds))
    model = PredictionModel("linear", draw(st.floats(-5.0, 5.0)), signs * coeffs, tuple(preds), target)

    effects = effects_on_prediction(augment_graph(dag, model))
    movable = [k for k in others if abs(effects[k - 1]) > 1e-6]
    assume(movable)
    i = draw(st.sampled_from(movable))
    d = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8)))
    return dag, model, i, rng.normal(0.0, 3.0, n), rng.normal(0.0, 1.0, n), d


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_hits(dag, base, model, i, c, d):
    """E[prediction | do(X_i = c)] equals d to RTOL of the largest term."""
    means = interventional_means_solve(dag, base, i, c)
    terms = expanded_coeffs(dag.n, model) * means
    scale = max(1.0, abs(d), abs(model.bias), float(np.abs(terms).max()))
    assert abs(terms.sum() + model.bias - d) <= RTOL * scale


def population_base(dag, mu, noise):
    roots = ~(dag.weights != 0.0).any(axis=1)
    return np.where(roots, mu, noise)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances())
def test_array_plan_is_the_scalar_plans(instance):
    dag, model, i, mu, noise, d = instance
    # The means the base terms describe: the point the plan starts from.
    base = population_base(dag, mu, noise)
    point = np.linalg.solve(np.eye(dag.n) - dag.weights, base)
    plan = optimal_intervention_value(point, dag, None, model, i, d)
    singles = [optimal_intervention_value(point, dag, None, model, i, float(dk)) for dk in d]
    assert plan.value.shape == plan.predicted_expectation.shape == d.shape
    assert bits(plan.value) == bits([p.value for p in singles])
    assert bits(plan.predicted_expectation) == bits([p.predicted_expectation for p in singles])
    assert bits(plan.desired_prediction) == bits(d)
    for c, dk in zip(plan.value, d):
        assert_hits(dag, base, model, i, c, dk)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances())
def test_array_observation_plan_is_the_scalar_plans(instance):
    dag, model, i, observation, _, d = instance
    plan = observation_specific_plan(observation, dag, model, i, d)
    singles = [observation_specific_plan(observation, dag, model, i, float(dk)) for dk in d]
    assert bits(plan.value) == bits([p.value for p in singles])
    assert bits(plan.predicted_expectation) == bits([p.predicted_expectation for p in singles])
    # The observation's own noise values: obs - W obs, its value at a root.
    base = observation - dag.weights @ observation
    for c, dk in zip(plan.value, d):
        assert_hits(dag, base, model, i, c, dk)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances(), st.data())
def test_array_naive_value_is_the_scalar_values(instance, data):
    dag, model, _, x, _, d = instance
    i = data.draw(st.sampled_from(model.predictor_indices))
    values = naive_intervention_value(model, x, i, d)
    assert values.shape == d.shape
    assert bits(values) == bits([naive_intervention_value(model, x, i, float(dk)) for dk in d])
    # Holding the other predictors at x, the model's score hits d.
    for c, dk in zip(values, d):
        moved = x.copy()
        moved[i - 1] = c
        terms = expanded_coeffs(dag.n, model) * moved
        scale = max(1.0, abs(dk), abs(model.bias), float(np.abs(terms).max()))
        assert abs(terms.sum() + model.bias - dk) <= RTOL * scale


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances(), st.booleans())
def test_the_plans_differ_only_in_their_slope(instance, population):
    """From the point x, (c - x_i) * slope = d - s(x): slope g_i for the optimal plan, w_i for the naive."""
    dag, model, i, observation, noise, d = instance
    if population:
        # An SCM whose noise means are the base terms, planned from its analytic means.
        scm = Scm(dag, tuple(NoiseSpec.constant(b) for b in population_base(dag, observation, noise)))
        x = analytic_means(scm)
        c_opt = plan_for_scm(scm, model, i, d).value
    else:
        x = observation
        c_opt = observation_specific_plan(x, dag, model, i, d).value
    w = expanded_coeffs(dag.n, model)
    slopes = [(c_opt, effects_on_prediction(augment_graph(dag, model))[i - 1])]
    if i in model.predictor_indices:
        slopes.append((naive_intervention_value(model, x, i, d), w[i - 1]))
    gap = d - scores(model, x)
    largest = max(1.0, abs(model.bias), float(np.abs(w * x).max()))
    for c, slope in slopes:
        step = (c - x[i - 1]) * slope
        assert (np.abs(step - gap) <= RTOL * np.maximum(largest, np.maximum(np.abs(d), np.abs(step)))).all()
