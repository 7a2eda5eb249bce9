import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from causalsteer import (
    Dag,
    DagGenConfig,
    Dataset,
    PredictionModel,
    augment_graph,
    evaluate_intervention,
    fit_linear,
    fit_logistic,
    generate_random_scm,
    median_split_labels,
    models,
    pick_random_target,
    sample,
    scores,
)
from causalsteer.errors import (
    DidNotConvergeWarning,
    IndexOutOfRange,
    InsufficientRows,
    RankDeficient,
    SingleClass,
)

from .conftest import constant_scm
from .oracles import irls_logistic, penalized_loglik


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def class1_fraction(chain3: Dag, bias: float, seed: int = 0) -> float:
    """The sweep's class-1 fraction on chain3 with every score exactly ``bias``.

    Constant noises (1, 0, 0) hold X = (1, 2, 1), where X1 - X2/2 is exactly 0.
    """
    model = PredictionModel("logistic", bias, np.array([1.0, -0.5]), (1, 2), 3)
    return evaluate_intervention(constant_scm(chain3, (1.0, 0.0, 0.0)), model, 1, 1.0, 100, seed)


class TestFitLinear:
    def test_exact_line(self):
        x = np.linspace(-2, 2, 20)
        data = Dataset(np.column_stack([x, 3.0 + 2.0 * x]))
        model = fit_linear(data, target_index=2)
        assert model.bias == pytest.approx(3.0, abs=1e-10)
        assert model.coeffs[0] == pytest.approx(2.0, abs=1e-10)
        assert model.predictor_indices == (1,)

    def test_constant_target(self):
        rng = np.random.default_rng(0)
        data = Dataset(np.column_stack([rng.normal(size=50), np.full(50, 5.0)]))
        model = fit_linear(data, target_index=2)
        assert model.bias == pytest.approx(5.0, abs=1e-10)
        assert model.coeffs[0] == pytest.approx(0.0, abs=1e-10)

    def test_consistency_with_noise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10_000, 2))
        y = x[:, 0] + x[:, 1] + rng.normal(0, 0.1, 10_000)
        model = fit_linear(Dataset(np.column_stack([x, y])), target_index=3)
        assert model.coeffs == pytest.approx([1.0, 1.0], abs=0.02)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(500, 3))
        y = 1.0 + x @ [0.5, -2.0, 1.5] + rng.normal(0, 1.0, 500)
        data = Dataset(np.column_stack([x, y]))
        model = fit_linear(data, target_index=4)
        residuals = y - scores(model, data.rows)
        scale = np.linalg.norm(y)
        assert abs(residuals.sum()) / scale < 1e-8
        for k in range(3):
            assert abs(residuals @ x[:, k]) / (scale * np.linalg.norm(x[:, k])) < 1e-8

    def test_collinear_predictors_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        data = Dataset(np.column_stack([x, 2.0 * x, rng.normal(size=100)]))
        with pytest.raises(RankDeficient):
            fit_linear(data, target_index=3)

    @pytest.mark.parametrize("scale", [1e17, 1e-17])
    def test_rank_does_not_depend_on_the_scale(self, scale):
        # lstsq cuts singular values relative to the largest: unscaled, these
        # columns hide the column of ones, or it hides them.
        x = np.random.default_rng(0).normal(size=(40, 3))
        plain = fit_linear(Dataset(x), target_index=3)
        model = fit_linear(Dataset(x * scale), target_index=3)
        assert model.coeffs == pytest.approx(plain.coeffs, rel=1e-9)
        assert model.bias == pytest.approx(plain.bias * scale, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-17, 1e17])
    @pytest.mark.parametrize("factor", [2.0, 0.0], ids=["proportional", "zero"])
    def test_collinear_predictors_rejected_at_any_scale(self, scale, factor):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        data = Dataset(np.column_stack([x, factor * x, rng.normal(size=100)]) * scale)
        with pytest.raises(RankDeficient):
            fit_linear(data, target_index=3)

    def test_insufficient_rows(self):
        data = Dataset(np.ones((2, 3)) * [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InsufficientRows):
            fit_linear(data, target_index=3)


class TestFitLogistic:
    def test_null_model(self):
        data, labels, target = _null_model_set()
        model = fit_logistic(data, labels, target_index=target)
        assert (np.abs(model.coeffs) < 0.1).all()
        p_hat = labels.mean()
        assert model.bias == pytest.approx(np.log(p_hat / (1 - p_hat)), abs=0.1)

    def test_separated_data_stays_finite(self):
        data, labels, target = _separated_set()
        model = fit_logistic(data, labels, target_index=target)
        assert model.converged
        assert np.isfinite(model.coeffs).all() and np.isfinite(model.bias)
        boundary = -model.bias / model.coeffs[0]
        assert -1.0 < boundary < 1.0

    def test_recovers_generating_coefficients(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100_000)
        labels = (rng.random(100_000) < _sigmoid(1.5 * x)).astype(int)
        data = Dataset(np.column_stack([x, np.zeros(100_000)]))
        model = fit_logistic(data, labels, target_index=2)
        assert model.coeffs[0] == pytest.approx(1.5, abs=0.05)
        assert model.bias == pytest.approx(0.0, abs=0.05)
        assert model.converged

    def test_zero_newton_direction_converges(self):
        # No predictors and balanced labels: beta = 0 is the optimum, so the first Newton
        # direction is exactly zero and so is the line search's curvature. The suite turns
        # every warning into an error, so a 0/0 there fails here.
        data = Dataset(np.zeros((6, 1)))
        model = fit_logistic(data, np.array([0, 1, 0, 1, 0, 1]), target_index=1)
        assert model.converged and model.n_iter == 1
        assert model.bias == 0.0 and model.coeffs.size == 0

    def test_design_that_overflows_the_hessian_rejected(self):
        # A Hessian entry is at most m max|x|^2 / 4; at 1e200 it overflows, and the fit returned
        # all-zero coefficients as converged.
        data = Dataset(np.random.default_rng(0).normal(size=(40, 3)) * 1e200)
        with pytest.raises(ValueError, match="overflows the logistic fit"):
            fit_logistic(data, median_split_labels(data, 3), target_index=3)

    def test_design_at_the_overflow_limit_fits(self):
        # The suite turns every warning into an error, so an overflow anywhere in the fit fails here.
        x = np.random.default_rng(0).normal(size=(40, 3))
        x *= np.sqrt(np.finfo(float).max / 40) / np.abs(x).max()
        assert np.abs(x).max() <= np.sqrt(np.finfo(float).max / 40)
        data = Dataset(x)
        assert fit_logistic(data, median_split_labels(data, 3), target_index=3).converged

    @pytest.mark.parametrize("seed, scale", [(0, 1e50), (2, 1e150)], ids=["singular-hessian", "no-length-gains"])
    def test_separable_design_at_large_scale(self, seed, scale):
        # Both take the lstsq solve of a numerically singular Hessian. Then seed 0 ends a
        # search of 30 trials on its last uphill length, and seed 2 ends the fit where no
        # length along the step gains. The suite turns any warning into an error.
        x = np.random.default_rng(seed).normal(size=(40, 2))
        labels = (x[:, 0] > 0).astype(int)
        model = fit_logistic(Dataset(np.column_stack([x * scale, labels])), labels, target_index=3)
        assert model.converged
        assert np.isfinite(model.bias) and np.isfinite(model.coeffs).all()

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.zeros((4, 1)), r"^expected 4 labels, got shape \(4, 1\)$"),
            ([0, 1, 2, 1], r"^labels must be 0/1, got \[0, 1, 2\]$"),
        ],
        ids=["shape", "values"],
    )
    def test_bad_labels_rejected(self, labels, message):
        data = Dataset(np.column_stack([np.arange(4.0), np.zeros(4)]))
        with pytest.raises(ValueError, match=message):
            fit_logistic(data, labels, target_index=2)

    def test_single_class_rejected(self):
        data = Dataset(np.column_stack([np.arange(4.0), np.zeros(4)]))
        with pytest.raises(SingleClass):
            fit_logistic(data, np.ones(4, dtype=int), target_index=2)

    def test_no_rows_rejected(self):
        with pytest.raises(SingleClass, match="^there are no rows; need both classes$"):
            fit_logistic(Dataset(np.empty((0, 3))), np.empty(0), target_index=1)

    def test_warning_when_iteration_capped(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(500, 2))
        labels = (rng.random(500) < _sigmoid(x @ [2.0, -1.0])).astype(int)
        data = Dataset(np.column_stack([x, np.zeros(500)]))
        monkeypatch.setattr(models, "IRLS_MAX_ITER", 1)
        with pytest.warns(DidNotConvergeWarning):
            model = fit_logistic(data, labels, target_index=3)
        assert not model.converged
        assert model.n_iter == 1


def _paper_size_training_set(seed: int):
    """The sweep's fitting problem on one default-size DAG: 1000 rows, 69 predictors."""
    scm = generate_random_scm(DagGenConfig(seed=seed))
    train = sample(scm, 1000, seed)
    target = pick_random_target(scm.n, seed)
    return train, median_split_labels(train, target), target


def _separated_set():
    """Four rows split at 0 with no overlap: only the L2 penalty keeps the fit finite."""
    return Dataset(np.column_stack([[-2.0, -1.0, 1.0, 2.0], np.zeros(4)])), np.array([0, 0, 1, 1]), 2


def _null_model_set():
    """Labels drawn independently of two standard normal predictors."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10_000, 2))
    return Dataset(np.column_stack([x, np.zeros(10_000)])), rng.integers(0, 2, size=10_000), 3


def _assert_meets_plain_irls(data, labels, target):
    """``fit_logistic`` lands on the plain IRLS of ``tests/oracles.py``, at a stationary point, in no more steps.

    The two differ in the step length (a line search against plain
    step-halving), in the Hessians reused in the quadratic phase and in
    rounding, so they agree to the fit's tolerance, not bit for bit; the
    line search never needs more Newton steps and never ends lower on the
    penalized log-likelihood.
    """
    model = fit_logistic(data, labels, target_index=target)
    x = np.column_stack([np.ones(data.m), data.rows[:, [p - 1 for p in model.predictor_indices]]])
    y = labels.astype(float)
    want, want_iter, want_converged = irls_logistic(x, y)
    beta = np.concatenate([[model.bias], model.coeffs])
    assert model.converged and want_converged
    assert np.abs(beta - want).max() <= 1e-6 * np.abs(want).max()
    assert model.n_iter <= want_iter
    penalty = np.full(beta.size, models.IRLS_L2)
    penalty[0] = 0.0
    # Relative to its value at the start, -m log 2: near separation the optimum is close to 0,
    # and scores in the tens cancel in each term, so rounding is not relative to the optimum.
    assert penalized_loglik(x, y, beta) >= penalized_loglik(x, y, want) - 1e-12 * data.m * np.log(2.0)
    prob = np.exp(-np.logaddexp(0.0, -(x @ beta)))
    grad = x.T @ (y - prob) - penalty * beta
    assert (np.abs(grad) <= 1e-9 * (np.abs(x).sum(axis=0) + penalty * np.abs(beta))).all()


@pytest.mark.parametrize(
    "make_set",
    [pytest.param(lambda s=s: _paper_size_training_set(s), id=f"paper-{s}") for s in range(20)]
    + [pytest.param(_separated_set, id="separated"), pytest.param(_null_model_set, id="null-model")],
)
def test_fit_logistic_matches_plain_irls(make_set):
    _assert_meets_plain_irls(*make_set())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    m=st.integers(20, 200),
    p=st.integers(1, 6),
    spread=st.sampled_from([1.0, 10.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_logistic_matches_plain_irls_on_small_designs(m, p, spread, seed):
    # A logistic draw below the score is a class-1 label with probability sigmoid(score);
    # a large spread makes the classes nearly or wholly separable.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, p))
    labels = (rng.logistic(size=m) < spread * (x @ rng.normal(size=p))).astype(int)
    assume(0 < labels.sum() < m)
    _assert_meets_plain_irls(Dataset(np.column_stack([x, np.zeros(m)])), labels, p + 1)


@pytest.mark.parametrize(("seed", "shape", "spread"), [(299, (73, 1), 100.0), (41, (120, 3), 100.0), (571, (58, 2), 10.0)])
def test_fit_logistic_never_goes_downhill(monkeypatch, seed, shape, spread):
    """No Newton step lowers the penalized log-likelihood, from -m log 2 at the start, by more than its rounding.

    On these near-separable designs a trial whose Newton move in the step
    length is under 1% can lie past the maximum along a step, below where
    the step began; the search stops there only once the ascent bound
    lo phi'(lo) + (t - lo) phi'(t) <= phi(t) - phi(0) of the trials' slopes
    rules that out. The fit after k steps is the fit with ``IRLS_MAX_ITER``
    set to k.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    m, p = shape
    labels = (rng.logistic(size=m) < spread * (x @ rng.normal(size=p))).astype(int)
    data = Dataset(np.column_stack([x, np.zeros(m)]))
    n_iter = fit_logistic(data, labels, target_index=p + 1).n_iter
    design = np.column_stack([np.ones(m), x])
    y = labels.astype(float)
    before = -m * np.log(2.0)
    for k in range(1, n_iter + 1):
        monkeypatch.setattr(models, "IRLS_MAX_ITER", k)
        with pytest.warns(DidNotConvergeWarning) if k < n_iter else contextlib.nullcontext():
            model = fit_logistic(data, labels, target_index=p + 1)
        beta = np.concatenate([[model.bias], model.coeffs])
        after = penalized_loglik(design, y, beta)
        assert after >= before - np.finfo(float).eps * (np.abs(design @ beta).sum() + m), f"step {k}"
        before = after


class TestPredictAndDecision:
    def test_predict_sums_predictors(self):
        model = PredictionModel("linear", 0.0, np.array([1.0, 1.0]), (1, 2), 3)
        assert scores(model, [2.0, 3.0, 99.0]) == 5.0

    def test_zero_coefficients_return_bias(self):
        model = PredictionModel("linear", 4.5, np.zeros(2), (1, 2), 3)
        assert scores(model, [7.0, -3.0, 0.0]) == 4.5

    def test_decision_signs(self, chain3):
        assert class1_fraction(chain3, -1.0) == 0.0
        assert class1_fraction(chain3, 0.001) == 1.0

    def test_decision_matches_score_sign(self):
        rng = np.random.default_rng(8)
        model = PredictionModel("logistic", 0.25, rng.normal(size=3), (1, 2, 3), 4)
        for seed in range(50):
            x = rng.normal(size=4)
            # Edgeless, so every sample is x; do(X1 = x1) changes nothing.
            scm = constant_scm(Dag(np.zeros((4, 4))), x)
            fraction = evaluate_intervention(scm, model, 1, x[0], 10, seed)
            assert fraction == (1.0 if scores(model, x) > 0 else 0.0)

    def test_tie_breaks_uniformly_across_seeds(self, chain3):
        fractions = [class1_fraction(chain3, 0.0, seed=s) for s in range(40)]
        se = np.sqrt(0.25 / (40 * 100))
        assert abs(np.mean(fractions) - 0.5) <= 4 * se

    def test_tie_coin_is_seeded(self, chain3):
        assert class1_fraction(chain3, 0.0, seed=7) == class1_fraction(chain3, 0.0, seed=7)
        assert len({class1_fraction(chain3, 0.0, seed=s) for s in range(5)}) > 1


class TestPredictionModelType:
    def test_target_cannot_be_predictor(self):
        with pytest.raises(ValueError):
            PredictionModel("linear", 0.0, np.array([1.0]), (2,), 2)

    def test_coeff_length_must_match(self):
        with pytest.raises(ValueError):
            PredictionModel("linear", 0.0, np.array([1.0, 2.0]), (1,), 3)

    @pytest.mark.parametrize("preds, target", [((0,), 2), ((1, -1), 3), ((1,), 0)])
    def test_indices_below_one_rejected(self, preds, target):
        # Index 0 would read position -1 of an observation, the last variable.
        with pytest.raises(ValueError, match="start at 1"):
            PredictionModel("linear", 0.0, np.ones(len(preds)), preds, target)

    @pytest.mark.parametrize("bias, coeffs", [(0.0, [np.nan, 1.0]), (np.inf, [1.0, 1.0]), (0.0, [1.0, -np.inf])])
    def test_non_finite_parameters_rejected(self, bias, coeffs):
        with pytest.raises(ValueError, match="finite"):
            PredictionModel("linear", bias, coeffs, (1, 2), 3)


class TestAugmentGraph:
    def test_seven_vertex_prediction_node(self, seven_vertex_dag):
        model = PredictionModel(
            "linear", 0.5, np.arange(1.0, 7.0), (1, 2, 3, 5, 6, 7), target_index=4
        )
        # the coefficients are the prediction node's in-weights, zero at the target
        coeffs = augment_graph(seven_vertex_dag, model).coeffs
        assert coeffs[3] == 0.0
        assert coeffs[[0, 1, 2, 4, 5, 6]].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_base_graph_unchanged(self, seven_vertex_dag):
        before = seven_vertex_dag.weights.copy()
        model = PredictionModel("linear", 0.0, np.ones(6), (1, 2, 3, 5, 6, 7), 4)
        augment_graph(seven_vertex_dag, model)
        assert (seven_vertex_dag.weights == before).all()

    def test_zero_coefficient_model(self, chain3):
        model = PredictionModel("linear", 1.0, np.zeros(2), (1, 2), 3)
        assert (augment_graph(chain3, model).coeffs == 0.0).all()

    def test_single_predictor(self, chain3):
        model = PredictionModel("linear", 0.0, np.array([2.5]), (2,), 3)
        assert augment_graph(chain3, model).coeffs.tolist() == [0.0, 2.5, 0.0]

    def test_no_predictors(self, chain3):
        model = PredictionModel("linear", 0.5, np.array([]), (), 3)
        assert augment_graph(chain3, model).coeffs.tolist() == [0.0, 0.0, 0.0]

    def test_out_of_range_predictor(self, chain3):
        model = PredictionModel("linear", 0.0, np.array([1.0]), (9,), 3)
        with pytest.raises(IndexOutOfRange):
            augment_graph(chain3, model)

    def test_first_out_of_range_index_is_named(self, chain3):
        model = PredictionModel("linear", 0.0, np.array([1.0, 1.0, 1.0]), (1, 7, 5), 9)
        with pytest.raises(IndexOutOfRange, match="^predictor index 7 out of range 1..3$"):
            augment_graph(chain3, model)
        model = PredictionModel("linear", 0.0, np.array([1.0]), (1,), 9)
        with pytest.raises(IndexOutOfRange, match="^target index 9 out of range 1..3$"):
            augment_graph(chain3, model)
