"""The sweep's score-space class-1 count equals sampling and scoring, exactly.

``sweep._class1_counts`` scores do(X_i = c) as bias + e . noise without
solving for a sample; ``tests/oracles.py::class1_count_by_sampling`` draws
the same noise through ``sample`` and scores every row. On random dense
DAGs with mixed noise families and random models, the counts must be equal
for every intervened variable, including when every score is exactly 0 and
the tie coin decides. Scoring several values from one draw gives each the
count of its own sampling with the same seed, up to and including the
first value with a tie: later values' coins come after that one's.

The folded scores themselves must equal bias + e . noise on the noise
``scm._draw_noise`` draws within the rounding of the two sums, so every
row whose unfolded score is further than that from 0 is counted by its
sign, on every family with signed-zero parameters too, both when each
noise run is one block of draws and when it spans several.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsteer import (
    NoiseSpec,
    PredictionModel,
    Scm,
    augment_graph,
    effects_on_prediction,
    evaluate_intervention,
    sample,
    scores,
)
from causalsteer.scm import _draw_noise, _draw_standard
from causalsteer.sweep import BLOCK_DOUBLES, _block_rows, _class1_counts, _folded_sums

from .conftest import dense_random_scm
from .oracles import class1_count_by_sampling

N_POST = 64


def _random_noise(rng: np.random.Generator) -> NoiseSpec:
    family = rng.integers(3)
    if family == 0:
        return NoiseSpec.gaussian(rng.normal(0.0, 1.0), rng.uniform(0.0, 2.0))
    if family == 1:
        lo = rng.normal(0.0, 1.0)
        return NoiseSpec.uniform(lo, lo + rng.uniform(0.0, 2.0))
    return NoiseSpec.constant(rng.normal(0.0, 1.0))


@st.composite
def instances(draw):
    """A dense random SCM on 2..10 variables with Gaussian, uniform and
    constant noises, a random linear-score model, and a random c.

    With ``tie`` set, the bias and c are 0 and every noise that can reach a
    predictor is the constant 0, so every score is exactly 0.
    """
    n_roots = draw(st.integers(1, 4))
    n_descendants = draw(st.integers(1, 6))
    density = draw(st.floats(0.1, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dag = dense_random_scm(n_roots, n_descendants, density, rng).dag
    n = dag.n
    target = int(rng.integers(1, n + 1))
    others = [k for k in range(1, n + 1) if k != target]
    preds = tuple(int(k) for k in rng.choice(others, size=rng.integers(1, len(others) + 1), replace=False))
    noises = [_random_noise(rng) for _ in range(n)]
    bias = rng.normal(0.0, 2.0)
    c = rng.normal(0.0, 3.0)
    model = PredictionModel("logistic", bias, rng.normal(0.0, 1.0, len(preds)), preds, target)
    tie = draw(st.booleans())
    if tie:
        model = PredictionModel("logistic", 0.0, model.coeffs, preds, target)
        reaches = effects_on_prediction(augment_graph(dag, model)) != 0.0
        noises = [NoiseSpec.constant(0.0) if r else spec for r, spec in zip(reaches, noises)]
        c = 0.0
    return Scm(dag, tuple(noises)), model, c, draw(st.integers(0, 2**32 - 1)), tie


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances())
def test_score_space_count_equals_sampling(instance):
    scm, model, c, seed, tie = instance
    augmented = augment_graph(scm.dag, model)
    for i in range(1, scm.n + 1):
        effects = effects_on_prediction(augmented, fixed=i)
        [count] = _class1_counts(scm, model.bias, effects, i, [c], seed, N_POST)
        assert count == class1_count_by_sampling(scm, model, i, c, N_POST, seed)
        assert evaluate_intervention(scm, model, i, c, N_POST, seed) == count / N_POST
        if tie:
            # Every score is 0, so the coin decides each row: all 0 or all 1 has chance 2^-63.
            assert 0 < count < N_POST


@settings(derandomize=True, max_examples=100, deadline=None)
@given(instances(), st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=1, max_size=4))
def test_one_draw_counts_equal_sampling_up_to_the_first_tie(instance, others):
    scm, model, c, seed, _ = instance
    values = [*others, c]
    augmented = augment_graph(scm.dag, model)
    for i in range(1, scm.n + 1):
        effects = effects_on_prediction(augmented, fixed=i)
        counts = _class1_counts(scm, model.bias, effects, i, values, seed, N_POST)
        assert len(counts) == len(values)
        for value, count in zip(values, counts):
            assert count == class1_count_by_sampling(scm, model, i, value, N_POST, seed)
            rows = sample(scm, N_POST, np.random.default_rng(seed), do=(i, value)).rows
            if (scores(model, rows) == 0).any():
                break


SIGNED = st.sampled_from([0.0, -0.0, 0.75, -1.5, 3.0])


@st.composite
def signed_zero_specs(draw):
    """Gaussian, uniform or constant noise whose parameters may be 0.0 or -0.0."""
    family = draw(st.sampled_from(["gaussian", "uniform", "constant"]))
    a = draw(SIGNED)
    if family == "gaussian":
        return NoiseSpec.gaussian(a, draw(st.sampled_from([0.0, 0.5, 2.0])))
    if family == "uniform":
        return NoiseSpec.uniform(a, a + draw(st.sampled_from([0.0, 1.0])))
    return NoiseSpec.constant(a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instances(), st.data())
def test_folded_scores_equal_unfolded_within_rounding(instance, data):
    scm, model, c, seed, _ = instance
    noises = tuple(data.draw(st.one_of(st.just(spec), signed_zero_specs())) for spec in scm.noises)
    scm = Scm(scm.dag, noises)
    c = data.draw(st.one_of(st.just(c), SIGNED))
    # N_POST rows take one block per run; BLOCK_DOUBLES // 3 + 1 rows take two rows a block.
    m = data.draw(st.sampled_from([N_POST, BLOCK_DOUBLES // 3 + 1]))
    augmented = augment_graph(scm.dag, model)
    eps = np.finfo(float).eps
    for i in range(1, scm.n + 1):
        effects = effects_on_prediction(augmented, fixed=i)
        [count] = _class1_counts(scm, model.bias, effects, i, [c], seed, m)
        noise = _draw_noise(scm, np.random.default_rng(seed), np.empty((scm.n, m)), do=(i, c))
        unfolded = model.bias + effects @ noise
        u = _draw_standard(scm, np.random.default_rng(seed), np.empty((scm.n, m)))
        loc, scale = scm.loc_scale.copy()
        scale[i - 1] = 0.0
        # The score of do(X_i = c) is z + a(c), z the folded sums of the count's draw.
        z = _folded_sums(scm, effects * scale, np.random.default_rng(seed), np.empty((_block_rows(scm.n, m), m)))
        loc_c = loc.copy()
        loc_c[i - 1] = c
        folded = z + (model.bias + effects @ loc_c)
        # Either side is within about (n + 3) eps of the exact sum, relative
        # to the sum of its terms' magnitudes; allow twice that on each side.
        terms = np.abs(noise) + np.abs(loc)[:, None] + np.abs(scale[:, None] * u)
        magnitude = abs(model.bias) + abs(effects[i - 1] * c) + np.abs(effects) @ terms
        bound = 4 * (scm.n + 3) * eps * magnitude
        assert (np.abs(folded - unfolded) <= bound).all()
        assert np.count_nonzero(unfolded > bound) <= count <= np.count_nonzero(unfolded >= -bound)
