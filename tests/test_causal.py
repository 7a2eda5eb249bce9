import numpy as np
import pytest

from causalsteer import (
    Dag,
    DagGenConfig,
    NoiseSpec,
    PredictionModel,
    Scm,
    analytic_means,
    augment_graph,
    causal_effect_on_prediction,
    effects_on_prediction,
    generate_random_scm,
    naive_intervention_value,
    observation_specific_plan,
    optimal_intervention_value,
    plan_for_scm,
    sample,
    select_intervention_target,
)
from causalsteer import causal
from causalsteer.causal import target_order
from causalsteer.errors import (
    AllEffectsZero,
    IndexOutOfRange,
    InterveneOnTarget,
    NonFiniteValue,
    ZeroCausalEffect,
    ZeroCoefficient,
)
from causalsteer.scm import noise_means

from .conftest import dense_random_scm, uniform_scm
from .oracles import (
    causal_effect_regression,
    expanded_coeffs,
    grid_refine_intervention_value,
    interventional_means_solve,
    path_product_effect,
    prediction_effects_dense,
)


def chain_model() -> PredictionModel:
    """Predictors {1, 2} with unit coefficients, target 3, zero bias."""
    return PredictionModel("linear", 0.0, np.array([1.0, 1.0]), (1, 2), 3)


def random_model(rng, n: int, kind: str = "linear") -> PredictionModel:
    target = int(rng.integers(1, n + 1))
    preds = tuple(i for i in range(1, n + 1) if i != target)
    coeffs = rng.uniform(0.5, 2.0, len(preds)) * rng.choice([-1.0, 1.0], len(preds))
    return PredictionModel(kind, float(rng.normal()), coeffs, preds, target)


def reading(j: int, n: int) -> PredictionModel:
    """A linear model reading X_j alone with unit coefficient and zero bias: its score is X_j."""
    return PredictionModel("linear", 0.0, np.array([1.0]), (j,), j % n + 1)


def alpha(dag: Dag, i: int) -> np.ndarray:
    """Column i of (I - W)^-1: the ``effects`` of a plan on X_i."""
    return optimal_intervention_value(np.zeros(dag.n), dag, np.zeros(dag.n), reading(i, dag.n), i, 0.0).effects


def effect(dag: Dag, i: int, j: int) -> float:
    """d/dc of E[X_j | do(X_i = c)]: alpha_j of the plan on X_i."""
    return float(alpha(dag, i)[j - 1])


class TestPropagate:
    """The per-variable response to do(X_i = c), mu + alpha * c, seen through plans."""

    def test_chain_alpha_and_mu(self, chain3):
        assert alpha(chain3, 1).tolist() == [1.0, 2.0, 1.0]
        # Zero base terms give mu = 0, so a model reading X2 reaches d at c = d / alpha_2.
        plan = optimal_intervention_value(np.zeros(3), chain3, np.zeros(3), reading(2, 3), 1, 3.0)
        assert plan.value == 1.5

    def test_leaf_intervention_keeps_other_means(self, chain3):
        # base terms: root mean 1.0, noise means 0.5 and 0.25, so the means are (1, 2.5, 1.5);
        # under do(X3 = c), X2 keeps its mean 2.5
        mu = np.array([1.0, 2.5, 1.5])
        model = PredictionModel("linear", 0.0, np.array([1.0, 1.0]), (2, 3), 1)
        plan = optimal_intervention_value(mu, chain3, None, model, 3, 4.5)
        assert plan.effects.tolist() == [0.0, 0.0, 1.0]
        assert plan.value == pytest.approx(2.0)
        assert plan.predicted_expectation == pytest.approx(4.5)

    def test_seven_vertex_unit_weights(self, seven_vertex_dag):
        expected = {2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0, 6: 2.0, 7: 2.0}
        for j, a in expected.items():
            assert effect(seven_vertex_dag, 1, j) == pytest.approx(a)

    def test_alpha_zero_off_descendants(self, seven_vertex_dag):
        assert np.flatnonzero(alpha(seven_vertex_dag, 6)).tolist() == [5, 6]  # X6 itself and X7

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            scm = dense_random_scm(3, int(rng.integers(2, 10)), 0.4, int(rng.integers(2**32)))
            base = noise_means(scm)
            i = int(rng.integers(1, scm.n + 1))
            slope = interventional_means_solve(scm.dag, base, i, 1.0) - interventional_means_solve(scm.dag, base, i, 0.0)
            assert alpha(scm.dag, i) == pytest.approx(slope, abs=1e-10)
            # The plan's value, put through the dense solve, gives the desired mean of X_i.
            d = float(rng.normal(scale=3.0))
            plan = plan_for_scm(scm, reading(i, scm.n), i, d)
            assert interventional_means_solve(scm.dag, base, i, plan.value)[i - 1] == pytest.approx(d, abs=1e-10)


class TestTotalEffectExpectation:
    """E[X_j | do(X_i = c)] through the plan of a model that reads X_j alone."""

    def test_intervened_variable_returns_c(self, chain3):
        scm = uniform_scm(chain3)
        for d in (-2.0, 0.0, 3.5):
            assert plan_for_scm(scm, reading(2, 3), 2, d).value == pytest.approx(d)

    def test_root_unmoved_by_any_intervention(self, seven_vertex_dag):
        scm = Scm(seven_vertex_dag, (NoiseSpec.uniform(0, 2),) * 7)
        assert effect(seven_vertex_dag, 4, 1) == 0.0
        # No value of X4 moves the mean of the root X1.
        with pytest.raises(ZeroCausalEffect):
            plan_for_scm(scm, reading(1, 7), 4, 5.0)

    def test_chain_against_monte_carlo(self, chain3):
        # E[X2 | do(X1 = c)] = 2c, so steering X2's mean to 6 needs c = 3.
        scm = uniform_scm(chain3)
        plan = plan_for_scm(scm, reading(2, 3), 1, 6.0)
        assert plan.value == pytest.approx(3.0)
        x2 = sample(scm, 100_000, seed=9, do=(1, plan.value)).rows[:, 1]
        se = x2.std(ddof=1) / np.sqrt(x2.size)
        assert abs(x2.mean() - 6.0) <= 4 * se

    def test_linearity_of_decomposition(self):
        scm = generate_random_scm(DagGenConfig(n_roots=4, n_descendants=10, seed=21))
        d1, d2 = -1.5, 4.0
        moved = 0
        for j in range(1, scm.n + 1):
            if j == 2 or effect(scm.dag, 2, j) == 0.0:
                continue
            # Each mean is affine in c with slope alpha_j, so d is too.
            plans = [plan_for_scm(scm, reading(j, scm.n), 2, d) for d in (d1, d2)]
            slope = (d1 - d2) / (plans[0].value - plans[1].value)
            assert slope == pytest.approx(plans[0].effects[j - 1], rel=1e-12)
            moved += 1
        assert moved > 0


class TestCausalEffect:
    def test_chain_path_product(self, chain3):
        assert effect(chain3, 1, 3) == pytest.approx(1.0)
        assert path_product_effect(chain3, 1, 3) == pytest.approx(1.0)

    def test_non_descendant_zero(self, seven_vertex_dag):
        assert effect(seven_vertex_dag, 5, 7) == 0.0
        assert effect(seven_vertex_dag, 2, 3) == 0.0

    def test_against_path_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            scm = dense_random_scm(2, int(rng.integers(2, 9)), 0.5, int(rng.integers(2**32)))
            dag = scm.dag
            i = int(rng.integers(1, dag.n + 1))
            j = int(rng.integers(1, dag.n + 1))
            assert effect(dag, i, j) == pytest.approx(path_product_effect(dag, i, j), abs=1e-12)

    def test_regression_estimator_agrees(self, chain3):
        scm = uniform_scm(chain3)
        data = sample(scm, 10_000, seed=14)
        est = causal_effect_regression(data, chain3, 1, 3)
        assert est == pytest.approx(effect(chain3, 1, 3), abs=0.05)

    def test_regression_estimator_with_parents_adjustment(self):
        # X3 = X1 + X2 + N, X2 = X1 + N: regressing X3 on X2 and pa(X2)={X1}
        dag = Dag.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
        scm = uniform_scm(dag)
        data = sample(scm, 20_000, seed=15)
        est = causal_effect_regression(data, dag, 2, 3)
        assert est == pytest.approx(1.0, abs=0.05)


class TestEffectOnPrediction:
    def test_chain_hand_values(self, chain3):
        augmented = augment_graph(chain3, chain_model())
        assert causal_effect_on_prediction(augmented, 1) == pytest.approx(3.0)
        assert causal_effect_on_prediction(augmented, 2) == pytest.approx(1.0)

    def test_monte_carlo_slope(self, chain3):
        scm = uniform_scm(chain3)
        model = chain_model()
        m = 40_000
        phi0 = model.bias + sample(scm, m, seed=16, do=(1, 0.0)).rows[:, :2] @ model.coeffs
        phi1 = model.bias + sample(scm, m, seed=17, do=(1, 1.0)).rows[:, :2] @ model.coeffs
        slope = phi1.mean() - phi0.mean()
        se = np.sqrt(phi0.var(ddof=1) / m + phi1.var(ddof=1) / m)
        augmented = augment_graph(chain3, model)
        assert abs(slope - causal_effect_on_prediction(augmented, 1)) <= 4 * se

    def test_disconnected_variable_zero(self):
        dag = Dag(np.zeros((3, 3)))
        model = PredictionModel("linear", 0.0, np.array([1.0]), (2,), 3)
        augmented = augment_graph(dag, model)
        assert causal_effect_on_prediction(augmented, 1) == 0.0


class TestEffectVector:
    @staticmethod
    def instances(permute: bool):
        rng = np.random.default_rng(27 + permute)
        for _ in range(30):
            scm = dense_random_scm(3, int(rng.integers(3, 15)), 0.3, int(rng.integers(2**32)))
            n = scm.n
            dag = scm.dag
            if permute:
                perm = rng.permutation(n)
                dag = Dag(dag.weights[np.ix_(perm, perm)])
            target = int(rng.integers(1, n + 1))
            others = [i for i in range(1, n + 1) if i != target]
            preds = tuple(sorted(int(i) for i in rng.choice(others, size=max(1, n // 3), replace=False)))
            coeffs = rng.uniform(0.5, 2.0, len(preds)) * rng.choice([-1.0, 1.0], len(preds))
            yield dag, PredictionModel("linear", 0.0, coeffs, preds, target)

    @pytest.mark.parametrize("permute", [False, True])
    def test_matches_dense_oracle(self, permute):
        lower_triangular = []
        for dag, model in self.instances(permute):
            lower_triangular.append(not np.triu(dag.weights).any())
            augmented = augment_graph(dag, model)
            effects = effects_on_prediction(augmented)
            dense = prediction_effects_dense(dag, expanded_coeffs(dag.n, model))
            np.testing.assert_allclose(effects, dense, rtol=1e-12, atol=1e-12)
            for i in range(1, dag.n + 1):
                assert causal_effect_on_prediction(augmented, i) == effects[i - 1]
        assert all(lower_triangular) != permute

    @pytest.mark.parametrize("permute", [False, True])
    def test_fixed_cuts_the_intervened_equation(self, permute):
        for dag, model in self.instances(permute):
            w = expanded_coeffs(dag.n, model)
            for i in range(1, dag.n + 1):
                effects = effects_on_prediction(augment_graph(dag, model), fixed=i)
                cut = dag.weights.copy()
                cut[i - 1] = 0.0
                np.testing.assert_allclose(effects, prediction_effects_dense(Dag(cut), w), rtol=1e-12, atol=1e-12)
                # Cutting X_i's own equation leaves its own effect as it was.
                assert effects[i - 1] == causal_effect_on_prediction(augment_graph(dag, model), i)

    @pytest.mark.parametrize("permute", [False, True])
    def test_exact_zero_off_ancestors(self, permute):
        zeros = 0
        for dag, model in self.instances(permute):
            adj = dag.weights != 0
            reach = np.linalg.matrix_power(adj + np.eye(dag.n, dtype=bool), dag.n)
            feeds = reach[np.array(model.predictor_indices) - 1].any(axis=0)
            effects = effects_on_prediction(augment_graph(dag, model))
            assert (effects[~feeds] == 0.0).all()
            zeros += int((~feeds).sum())
        assert zeros > 0


class TestSelectInterventionTarget:
    def test_chain_prefers_upstream(self, chain3):
        augmented = augment_graph(chain3, chain_model())
        assert select_intervention_target(augmented, (1, 2)) == 1

    def test_single_candidate(self, chain3):
        augmented = augment_graph(chain3, chain_model())
        assert select_intervention_target(augmented, (2,)) == 2

    def test_disconnected_candidates(self):
        dag = Dag(np.zeros((3, 3)))
        model = PredictionModel("linear", 0.0, np.array([1.0]), (2,), 3)
        augmented = augment_graph(dag, model)
        with pytest.raises(AllEffectsZero):
            select_intervention_target(augmented, (1,))

    def test_empty_candidates(self, chain3):
        augmented = augment_graph(chain3, chain_model())
        with pytest.raises(AllEffectsZero):
            select_intervention_target(augmented, ())

    def test_tie_breaks_to_lowest_index(self):
        # two symmetric parents of the predictor-feeding vertex
        dag = Dag.from_edges(4, [(1, 3, 1.0), (2, 3, 1.0)])
        model = PredictionModel("linear", 0.0, np.array([1.0]), (3,), 4)
        augmented = augment_graph(dag, model)
        assert select_intervention_target(augmented, (1, 2)) == 1

    def test_target_order_ranks_the_distinct_candidates(self, chain3):
        # Effects on the prediction 1 + 2 = 3, 1 and 0; a repeated candidate is ranked once.
        augmented = augment_graph(chain3, chain_model())
        order, effects = target_order(augmented, (2, 3, 1, 2))
        assert order == [1, 2, 3]
        assert effects.tolist() == effects_on_prediction(augmented).tolist() == [3.0, 1.0, 0.0]
        # Three equal effects of 1 through X3, the lower index first.
        ties = Dag.from_edges(4, [(1, 3, 1.0), (2, 3, 1.0)])
        model = PredictionModel("linear", 0.0, np.array([1.0]), (3,), 4)
        assert target_order(augment_graph(ties, model), (3, 2, 1))[0] == [1, 2, 3]

    def test_target_order_puts_a_nan_effect_last(self, chain3, monkeypatch):
        monkeypatch.setattr(causal, "effects_on_prediction", lambda augmented: np.array([np.nan, 1.0, -2.0]))
        assert target_order(augment_graph(chain3, chain_model()), (1, 2, 3))[0] == [3, 2, 1]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            scm = dense_random_scm(3, 9, 0.3, int(rng.integers(2**32)))
            n = scm.n
            model = random_model(rng, n)
            augmented = augment_graph(scm.dag, model)
            chosen = select_intervention_target(augmented, model.predictor_indices)

            perm = rng.permutation(n)  # new position k holds old vertex perm[k]
            to_new = np.argsort(perm)  # old 0-based -> new 0-based
            permuted = Dag(scm.dag.weights[np.ix_(perm, perm)])
            p_model = PredictionModel(
                model.kind,
                model.bias,
                model.coeffs,
                tuple(int(to_new[i - 1]) + 1 for i in model.predictor_indices),
                int(to_new[model.target_index - 1]) + 1,
            )
            p_augmented = augment_graph(permuted, p_model)
            p_chosen = select_intervention_target(p_augmented, p_model.predictor_indices)
            assert p_chosen == int(to_new[chosen - 1]) + 1


class TestOptimalInterventionValue:
    def test_chain_closed_form_and_forward_simulation(self, chain3):
        model = chain_model()
        plan = optimal_intervention_value(np.zeros(3), chain3, np.zeros(3), model, 1, 6.0)
        assert plan.value == pytest.approx(2.0)
        assert plan.predicted_expectation == pytest.approx(6.0)
        # forward-simulate with zero noise: do(X1=2) gives X2=4, score 2+4=6
        scm = Scm(chain3, (NoiseSpec.constant(0.0),) * 3)
        row = sample(scm, 1, seed=0, do=(1, plan.value)).rows[0]
        assert model.bias + row[:2] @ model.coeffs == pytest.approx(6.0)

    def test_status_quo_is_a_fixed_point(self):
        scm = generate_random_scm(DagGenConfig(n_roots=3, n_descendants=8, seed=19))
        rng = np.random.default_rng(20)
        model = random_model(rng, scm.n)
        mu = analytic_means(scm)
        d = float(model.bias + augment_graph(scm.dag, model).coeffs @ mu)
        for i in model.predictor_indices:
            try:
                plan = plan_for_scm(scm, model, i, d)
            except ZeroCausalEffect:
                continue
            # steering to the current expectation means holding X_i at its mean
            assert plan.value == pytest.approx(mu[i - 1], rel=1e-9, abs=1e-9)
            assert plan.predicted_expectation == pytest.approx(d, rel=1e-12)

    def test_zero_causal_effect(self):
        dag = Dag(np.zeros((3, 3)))
        model = PredictionModel("linear", 0.0, np.array([1.0]), (2,), 3)
        with pytest.raises(ZeroCausalEffect):
            optimal_intervention_value(np.zeros(3), dag, np.zeros(3), model, 1, 1.0)

    def test_value_that_overflows_is_refused(self):
        # Slope 0.5 on both lines: d = 1e308 needs c = 2e308, which overflows.
        dag = Dag(np.zeros((3, 3)))
        model = PredictionModel("linear", 0.0, np.array([0.5]), (1,), 3)
        message = "the value of variable 1 that steers the prediction to 1e[+]308 is not finite"
        with pytest.raises(NonFiniteValue, match=message):
            optimal_intervention_value(np.zeros(3), dag, None, model, 1, [1.0, 1e308, -1e308])
        with pytest.raises(NonFiniteValue, match=message):
            naive_intervention_value(model, np.zeros(3), 1, 1e308)
        assert optimal_intervention_value(np.zeros(3), dag, None, model, 1, [1.0, 5e307]).value.tolist() == [2.0, 1e308]

    @pytest.mark.parametrize("coeffs, preds", [([1.0, 1.0], (1, 3)), ([1.0], (1,))], ids=["infinite", "nan"])
    def test_effect_that_is_not_finite_is_refused(self, coeffs, preds):
        # The chain 1 -> 2 -> 3 with weights 1e200: alpha = (1, 1e200, inf), so g_1 is inf with
        # predictor 3 and 1 + 0 * inf = nan without it. No numpy warning escapes either solve.
        dag = Dag.from_edges(3, [(1, 2, 1e200), (2, 3, 1e200)])
        model = PredictionModel("logistic", 0.0, np.array(coeffs), preds, 2)
        with pytest.raises(NonFiniteValue, match="^the effect of variable 1 on the prediction is not finite$"):
            optimal_intervention_value(np.zeros(3), dag, None, model, 1, 3.0)

    @pytest.mark.parametrize("preds, target", [((4,), 3), ((2,), 4)])
    def test_index_beyond_n_is_out_of_range(self, chain3, preds, target):
        model = PredictionModel("linear", 0.0, np.array([1.0]), preds, target)
        with pytest.raises(IndexOutOfRange):
            plan_for_scm(uniform_scm(chain3), model, 1, 1.0)
        with pytest.raises(IndexOutOfRange):
            observation_specific_plan(np.zeros(3), chain3, model, 1, 1.0)

    @pytest.mark.parametrize("length", [2, 4])
    def test_point_of_another_length_rejected(self, chain3, length):
        with pytest.raises(ValueError, match="mu must be a length-3 vector"):
            optimal_intervention_value(np.zeros(length), chain3, None, chain_model(), 1, 1.0)

    def test_intervene_on_target_rejected(self, chain3):
        with pytest.raises(InterveneOnTarget):
            optimal_intervention_value(np.zeros(3), chain3, np.zeros(3), chain_model(), 3, 1.0)

    def test_achieves_desired_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            scm = generate_random_scm(
                DagGenConfig(n_roots=4, n_descendants=int(rng.integers(4, 16)),
                             seed=int(rng.integers(2**32)))
            )
            model = random_model(rng, scm.n, kind="logistic")
            d = float(rng.normal(scale=5.0))
            i = int(rng.choice(model.predictor_indices))
            try:
                plan = plan_for_scm(scm, model, i, d)
            except ZeroCausalEffect:
                continue
            assert abs(plan.predicted_expectation - d) <= 1e-9 * max(1.0, abs(d))

    def test_grid_refinement_agrees_with_closed_form(self, chain3):
        model = chain_model()
        mu = np.array([0.5, 1.5, 0.75])  # analytic means for base (0.5, 0.5, 0)
        noise = np.array([0.0, 0.5, 0.0])
        plan = optimal_intervention_value(mu, chain3, noise, model, 1, 4.0)
        approx = grid_refine_intervention_value(
            chain3, mu, noise, model, 1, 4.0, lo=-100.0, hi=100.0
        )
        assert approx == pytest.approx(plan.value, abs=1e-6)


class TestNaiveInterventionValue:
    def test_direct_substitution(self):
        model = chain_model()
        assert naive_intervention_value(model, [1.0, 2.0, 0.0], 1, 6.0) == pytest.approx(4.0)

    def test_fixed_point_returns_current_value(self):
        rng = np.random.default_rng(23)
        model = PredictionModel("linear", 1.5, rng.normal(size=3), (1, 2, 4), 3)
        x = rng.normal(size=4)
        d = model.bias + model.coeffs @ x[[0, 1, 3]]
        assert naive_intervention_value(model, x, 2, float(d)) == pytest.approx(x[1])

    def test_zero_coefficient(self):
        model = PredictionModel("linear", 0.0, np.array([0.0, 1.0]), (1, 2), 3)
        with pytest.raises(ZeroCoefficient):
            naive_intervention_value(model, [0.0, 0.0, 0.0], 1, 1.0)

    def test_non_predictor_rejected(self):
        model = PredictionModel("linear", 0.0, np.array([1.0]), (2,), 3)
        with pytest.raises(ZeroCoefficient):
            naive_intervention_value(model, [0.0, 0.0, 0.0], 1, 1.0)

    @pytest.mark.parametrize(
        "x, shape",
        [([1.0], r"\(1,\)"), ([[1.0, 2.0, 0.0]], r"\(1, 3\)"), (1.0, r"\(\)")],
        ids=["short", "2-d", "scalar"],
    )
    def test_point_that_does_not_cover_the_predictors_rejected(self, x, shape):
        # The formula reads x at the predictors {1, 2}, i = 2 among them; x[1] of a short point
        # would be a bare IndexError, as would any index into a scalar.
        with pytest.raises(ValueError, match=f"x must be a 1-D point of length at least 2, got shape {shape}"):
            naive_intervention_value(chain_model(), x, 2, 3.0)
        # A point as long as the last predictor suffices, though the model's target is variable 3.
        assert naive_intervention_value(chain_model(), [1.0, 2.0], 2, 3.0) == pytest.approx(2.0)


class TestObservationSpecificPlan:
    def test_observation_at_means_reproduces_population_plan(self):
        scm = generate_random_scm(DagGenConfig(n_roots=3, n_descendants=10, seed=24))
        rng = np.random.default_rng(25)
        model = random_model(rng, scm.n)
        i = int(model.predictor_indices[0])
        mu = analytic_means(scm)
        population = plan_for_scm(scm, model, i, 2.5)
        individual = observation_specific_plan(mu, scm.dag, model, i, 2.5)
        assert individual.value == population.value

    def test_hand_worked_chain_observation(self, chain3):
        # observation (1, 4, .): score 5, g_1 = 3, so c = 1 + (9 - 5) / 3
        plan = observation_specific_plan(np.array([1.0, 4.0, 0.0]), chain3, chain_model(), 1, 9.0)
        assert plan.value == pytest.approx(7.0 / 3.0)
        # forward check with the noise frozen at the observation's own: X2's is 4 - 2 * 1 = 2
        scm = Scm(chain3, (NoiseSpec.constant(0.0), NoiseSpec.constant(2.0), NoiseSpec.constant(0.0)))
        row = sample(scm, 1, seed=0, do=(1, plan.value)).rows[0]
        assert row[0] + row[1] == pytest.approx(9.0)

    def test_zero_effect_propagates(self):
        dag = Dag(np.zeros((3, 3)))
        model = PredictionModel("linear", 0.0, np.array([1.0]), (2,), 3)
        with pytest.raises(ZeroCausalEffect):
            observation_specific_plan(np.zeros(3), dag, model, 1, 1.0)


class TestReductionToNaive:
    def test_no_descendants_among_predictors(self):
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 30:
            scm = generate_random_scm(
                DagGenConfig(n_roots=3, n_descendants=int(rng.integers(3, 12)),
                             seed=int(rng.integers(2**32)))
            )
            model = random_model(rng, scm.n)
            mu = analytic_means(scm)
            adj = scm.dag.weights != 0
            reach = np.linalg.matrix_power(adj + np.eye(scm.n, dtype=bool), scm.n)
            for i in model.predictor_indices:
                descendants = set(np.flatnonzero(reach[:, i - 1]) + 1) - {i}
                if descendants & set(model.predictor_indices):
                    continue
                d = float(rng.normal(scale=3.0))
                try:
                    opt = plan_for_scm(scm, model, i, d).value
                    naive = naive_intervention_value(model, mu, i, d)
                except (ZeroCausalEffect, ZeroCoefficient):
                    continue
                # Structural zeros make g_i == w_i exactly, so the two lines coincide.
                assert opt == naive
                checked += 1
