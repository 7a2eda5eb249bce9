import numpy as np
import pytest

from causalsteer import (
    DagGenConfig,
    Dataset,
    NoiseSpec,
    datagen,
    generate_random_scm,
    median_split_labels,
    pick_random_target,
)
from causalsteer.errors import InvalidConfig
from causalsteer.graph import root_mask


class TestGenerateRandomScm:
    def test_single_vertex(self):
        scm = generate_random_scm(DagGenConfig(n_roots=1, n_descendants=0, seed=0))
        assert scm.n == 1
        assert (scm.dag.weights == 0.0).all()

    def test_default_shape(self):
        scm = generate_random_scm(DagGenConfig(seed=1))
        assert scm.n == 70
        assert (np.triu(scm.dag.weights) == 0.0).all()
        # solve needs every vertex once, each after its parents
        pos = {v: k for k, (v, _) in enumerate(scm.dag.schedule)}
        assert sorted(pos) == list(range(70)) and len(scm.dag.schedule) == 70
        assert all(pos[p] < pos[v] for v, pa in scm.dag.schedule for p in pa)
        assert root_mask(scm.dag).tolist() == [True] * 20 + [False] * 50
        # every descendant has at least one parent
        n_parents = (scm.dag.weights != 0).sum(axis=1)
        assert (n_parents[20:] >= 1).all()

    def test_same_seed_same_weights(self):
        a = generate_random_scm(DagGenConfig(seed=7))
        b = generate_random_scm(DagGenConfig(seed=7))
        c = generate_random_scm(DagGenConfig(seed=8))
        assert (a.dag.weights == b.dag.weights).all()
        assert (a.dag.weights != c.dag.weights).any()

    def test_weight_magnitudes_in_range(self):
        scm = generate_random_scm(DagGenConfig(seed=2))
        magnitudes = np.abs(scm.dag.weights[scm.dag.weights != 0])
        assert magnitudes.min() >= 0.5
        assert magnitudes.max() <= 1.5

    def test_descendants_only_attach_backwards(self):
        scm = generate_random_scm(DagGenConfig(seed=3))
        w = scm.dag.weights
        assert (np.triu(w) == 0.0).all()

    def test_edge_density_concentrates_near_parent_prob(self):
        # estimate attachment probability over many seeds, excluding forced parents
        p = datagen.PARENT_PROB
        hits, trials, forced = 0, 0, 0
        for seed in range(40):
            config = DagGenConfig(n_roots=10, n_descendants=30, seed=seed)
            scm = generate_random_scm(config)
            counts = (scm.dag.weights != 0).sum(axis=1)[10:]
            forced += int((counts == 1).sum())  # may include forced top-ups
            hits += int(counts.sum())
            trials += sum(range(10, 40))
        rate = hits / trials
        # forced minimum parents bias the rate upward slightly
        assert p - 0.01 <= rate <= p + 0.03

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_random_scm(DagGenConfig(n_roots=0))
        with pytest.raises(InvalidConfig):
            generate_random_scm(DagGenConfig(n_descendants=-1))

    def test_noise_family_applied_everywhere(self):
        scm = generate_random_scm(DagGenConfig(n_roots=2, n_descendants=3, seed=4))
        assert scm.noises == (datagen.NOISE,) * 5
        assert datagen.NOISE == NoiseSpec.uniform(-1.0, 1.0)


class TestMedianSplitLabels:
    def test_documented_even_m_convention(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert median_split_labels(data, 1).tolist() == [0, 0, 1, 1]

    def test_constant_column_all_class_zero(self):
        data = Dataset(np.full((5, 2), 3.0))
        assert median_split_labels(data, 2).tolist() == [0] * 5

    def test_balance_on_continuous_column(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(10_000, 1)))
        labels = median_split_labels(data, 1)
        assert 0.47 <= labels.mean() <= 0.53

    def test_class_zero_always_nonempty(self):
        rng = np.random.default_rng(6)
        for m in (2, 3, 5, 8):
            data = Dataset(rng.normal(size=(m, 1)))
            labels = median_split_labels(data, 1)
            assert (labels == 0).sum() >= 1

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            median_split_labels(Dataset(np.zeros((1, 1))), 1)


class TestPickRandomTarget:
    def test_single_variable(self):
        assert pick_random_target(1, seed=0) == 1

    def test_deterministic_per_seed(self):
        assert pick_random_target(70, seed=9) == pick_random_target(70, seed=9)

    def test_uniform_over_indices(self):
        n = 70
        draws = np.array([pick_random_target(n, seed=s) for s in range(10_000)])
        counts = np.bincount(draws, minlength=n + 1)[1:]
        expected = draws.size / n
        sigma = np.sqrt(draws.size * (1 / n) * (1 - 1 / n))
        assert (np.abs(counts - expected) <= 5 * sigma).all()

    def test_range_check(self):
        with pytest.raises(ValueError):
            pick_random_target(0, seed=0)


class TestRootMaskHelper:
    def test_matches_roots(self):
        scm = generate_random_scm(DagGenConfig(n_roots=5, n_descendants=10, seed=10))
        assert root_mask(scm.dag).tolist() == [True] * 5 + [False] * 10
