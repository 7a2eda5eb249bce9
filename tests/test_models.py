import numpy as np
import pytest

from causalsteer import (
    Dag,
    Dataset,
    PredictionModel,
    augment_graph,
    evaluate_intervention,
    fit_linear,
    fit_logistic,
    models,
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

    def test_insufficient_rows(self):
        data = Dataset(np.ones((2, 3)) * [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InsufficientRows):
            fit_linear(data, target_index=3)


class TestFitLogistic:
    def test_null_model(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10_000, 2))
        labels = rng.integers(0, 2, size=10_000)
        data = Dataset(np.column_stack([x, np.zeros(10_000)]))
        model = fit_logistic(data, labels, target_index=3)
        assert (np.abs(model.coeffs) < 0.1).all()
        p_hat = labels.mean()
        assert model.bias == pytest.approx(np.log(p_hat / (1 - p_hat)), abs=0.1)

    def test_separated_data_stays_finite(self):
        data = Dataset(np.column_stack([[-2.0, -1.0, 1.0, 2.0], np.zeros(4)]))
        labels = np.array([0, 0, 1, 1])
        model = fit_logistic(data, labels, target_index=2)
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

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2_000, 3))
        labels = (rng.random(2_000) < _sigmoid(x @ [1.0, -2.0, 0.5])).astype(int)
        data = Dataset(np.column_stack([x, np.zeros(2_000)]))
        model = fit_logistic(data, labels, target_index=4)
        trace = np.array(model.loglik_trace)
        assert (np.diff(trace) >= 0).all()

    def test_single_class_rejected(self):
        data = Dataset(np.column_stack([np.arange(4.0), np.zeros(4)]))
        with pytest.raises(SingleClass):
            fit_logistic(data, np.ones(4, dtype=int), target_index=2)

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
        augmented = augment_graph(seven_vertex_dag, model)
        assert augmented.yhat_parents == (1, 2, 3, 5, 6, 7)
        # the coefficients are the prediction node's in-weights, zero at the target
        expanded = augmented.expanded_coeffs()
        assert expanded[3] == 0.0
        assert expanded[[0, 1, 2, 4, 5, 6]].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_base_graph_unchanged(self, seven_vertex_dag):
        before = seven_vertex_dag.weights.copy()
        model = PredictionModel("linear", 0.0, np.ones(6), (1, 2, 3, 5, 6, 7), 4)
        augment_graph(seven_vertex_dag, model)
        assert (seven_vertex_dag.weights == before).all()

    def test_zero_coefficient_model(self, chain3):
        model = PredictionModel("linear", 1.0, np.zeros(2), (1, 2), 3)
        augmented = augment_graph(chain3, model)
        assert (augmented.expanded_coeffs() == 0.0).all()

    def test_single_predictor(self, chain3):
        model = PredictionModel("linear", 0.0, np.array([2.5]), (2,), 3)
        augmented = augment_graph(chain3, model)
        assert augmented.expanded_coeffs().tolist() == [0.0, 2.5, 0.0]

    def test_out_of_range_predictor(self, chain3):
        model = PredictionModel("linear", 0.0, np.array([1.0]), (9,), 3)
        with pytest.raises(IndexOutOfRange):
            augment_graph(chain3, model)
