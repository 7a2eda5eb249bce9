import hashlib

import numpy as np
import pytest

from causalsteer import (
    Dag,
    DagGenConfig,
    Dataset,
    NoiseSpec,
    Scm,
    analytic_means,
    estimate_noise_means,
    generate_random_scm,
    sample,
    sweep,
)
from causalsteer.errors import IndexOutOfRange
from causalsteer.scm import _draw_noise, _draw_standard, _row_blocks, noise_means
from causalsteer.sweep import BLOCK_DOUBLES, _folded_sums

from .conftest import constant_scm, uniform_scm
from .oracles import root_mask


class TestNoiseSpec:
    def test_means(self):
        assert NoiseSpec.gaussian(2.0, 3.0).mean() == 2.0
        assert NoiseSpec.uniform(0.0, 1.0).mean() == 0.5
        assert NoiseSpec.constant(7.0).mean() == 7.0

    @pytest.mark.parametrize(
        "lo, hi, mean", [(1e308, 1.7e308, 1.35e308), (-1.7e308, -1e308, -1.35e308), (5e-324, 5e-324, 5e-324)]
    )
    def test_uniform_mean_is_the_midpoint_at_the_float_extremes(self, lo, hi, mean):
        # lo + hi overflows in the first two; halving first would round the third to 0.
        assert NoiseSpec.uniform(lo, hi).mean() == mean

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseSpec.gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            NoiseSpec.uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("pareto", (1.0,))
        # numpy cannot draw from a range that overflows, nor with a scale or range of -0.0.
        with pytest.raises(ValueError, match="finite range"):
            NoiseSpec.uniform(-1e308, 1e308)
        with pytest.raises(ValueError, match="stddev >= 0"):
            NoiseSpec.gaussian(0.0, -0.0)
        with pytest.raises(ValueError, match="lo <= hi"):
            NoiseSpec.uniform(0.0, -0.0)

    @pytest.mark.parametrize("params", [(), (1.0, 2.0)])
    def test_constant_needs_one_value(self, params):
        with pytest.raises(ValueError, match="^constant noise needs a single value$"):
            NoiseSpec("constant", params)

    def test_draw_matches_family(self):
        rng = np.random.default_rng(0)
        draws = _draw_noise(_one_variable_scm(NoiseSpec.uniform(3.0, 4.0)), rng, 1000)
        assert draws.min() >= 3.0 and draws.max() <= 4.0
        constants = _draw_noise(_one_variable_scm(NoiseSpec.constant(-2.0)), rng, 5)
        assert (constants == -2.0).all()

    def test_gaussian_draw(self):
        draws = _draw_noise(_one_variable_scm(NoiseSpec.gaussian(2.0, 0.5)), np.random.default_rng(1), 20_000)[0]
        assert (draws == np.random.default_rng(1).normal(2.0, 0.5, 20_000)).all()
        assert draws.mean() == pytest.approx(2.0, abs=0.02)
        assert draws.std() == pytest.approx(0.5, abs=0.02)


def _one_variable_scm(spec: NoiseSpec) -> Scm:
    return Scm(Dag(np.zeros((1, 1))), (spec,))


@pytest.mark.parametrize(
    "rows, names, message",
    [
        (np.zeros(3), None, r"^rows must be 2-D, got shape \(3,\)$"),
        (np.zeros((2, 3)), ("a", "b"), "^expected 3 names, got 2$"),
    ],
    ids=["1-d", "names"],
)
def test_dataset_refusals(rows, names, message):
    with pytest.raises(ValueError, match=message):
        Dataset(rows, names)


class TestSample:
    def test_chain_with_constant_noise(self):
        dag = Dag(np.array([[0.0, 0.0], [2.0, 0.0]]))
        data = sample(constant_scm(dag, (1.0, 1.0)), 1, seed=0)
        assert data.rows.tolist() == [[1.0, 3.0]]

    def test_edgeless_constant_rows(self):
        scm = constant_scm(Dag(np.zeros((3, 3))), (1.0, 2.0, 3.0))
        data = sample(scm, 4, seed=1)
        assert (data.rows == [1.0, 2.0, 3.0]).all()

    def test_chain_uniform_mean(self):
        # X2 = 2*X1 + N2 with both noises U(0,1): E[X2] = 2*0.5 + 0.5 = 1.5
        dag = Dag(np.array([[0.0, 0.0], [2.0, 0.0]]))
        scm = Scm(dag, (NoiseSpec.uniform(0, 1), NoiseSpec.uniform(0, 1)))
        data = sample(scm, 100_000, seed=2)
        assert data.rows[:, 1].mean() == pytest.approx(1.5, abs=0.02)

    def test_seed_reproducibility(self):
        scm = uniform_scm(Dag(np.array([[0.0, 0.0], [1.0, 0.0]])))
        a = sample(scm, 50, seed=42).rows
        b = sample(scm, 50, seed=42).rows
        c = sample(scm, 50, seed=43).rows
        assert (a == b).all()
        assert (a != c).any()

    def test_rows_are_c_contiguous_and_read_only(self):
        rows = sample(uniform_scm(Dag(np.array([[0.0, 0.0], [1.0, 0.0]]))), 5, seed=0).rows
        assert rows.shape == (5, 2)
        assert rows.flags.c_contiguous
        assert not rows.flags.writeable

    def test_no_variables(self):
        assert sample(Scm(Dag(np.zeros((0, 0))), ()), 3, seed=0).rows.shape == (3, 0)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            sample(uniform_scm(Dag(np.zeros((1, 1)))), 0, seed=0)


# Noises that run gaussian, gaussian, uniform, constant, zero-sd gaussian, zero-width uniform.
MIXED_NOISES = (
    NoiseSpec.gaussian(0.5, 1.5),
    NoiseSpec.gaussian(0.5, 1.5),
    NoiseSpec.uniform(-1.0, 2.0),
    NoiseSpec.constant(0.25),
    NoiseSpec.gaussian(-1.0, 0.0),
    NoiseSpec.uniform(3.0, 3.0),
)

# Neighbours of one family with different parameters, and constants of both signed zeros.
ADJACENT_NOISES = (
    NoiseSpec.gaussian(0.5, 1.5),
    NoiseSpec.gaussian(-2.0, 0.25),
    NoiseSpec.uniform(-1.0, 2.0),
    NoiseSpec.uniform(0.5, 4.0),
    NoiseSpec.constant(-0.0),
    NoiseSpec.constant(0.0),
)


def _mixed_noise_scm(noises=MIXED_NOISES) -> Scm:
    """Six variables on one DAG with the given noises."""
    edges = [(1, 2, 0.5), (1, 3, -1.25), (2, 4, 2.0), (3, 4, 0.75), (4, 5, -0.5), (2, 6, 1.5), (5, 6, 0.25)]
    return Scm(Dag.from_edges(6, edges), noises)


# SHA-256 of the sample rows, as drawn with one numpy call per variable.
@pytest.mark.parametrize(
    "noises, do, digest",
    [
        (MIXED_NOISES, None, "6970ee86b5f49ac218f8bb422ad4ecd5d455dc81f5b7b0adedf07c4ae593ed72"),
        (MIXED_NOISES, (2, 1.5), "b42a81541373a9cf519d2af4cc1adabb393dd3bc622f0ae4e54111a5140d5ca3"),
        (ADJACENT_NOISES, None, "b723f6aa1499b95b8c786666b98a8e3f9a08cda2e193e38d2f16c26572d8571c"),
    ],
    ids=["observational", "do", "adjacent-family-runs"],
)
def test_mixed_family_sample_is_pinned(noises, do, digest):
    rows = sample(_mixed_noise_scm(noises), 3000, 7, do=do).rows
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def _runs(scm: Scm) -> list:
    """The noise runs: the spans of ``_row_blocks`` at n rows a span, one per run."""
    return list(_row_blocks(scm, scm.n))


def test_noise_runs():
    scm = _mixed_noise_scm()
    assert [(start, end) for start, end, _ in _runs(scm)] == [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    assert [spec for _, _, spec in _runs(scm)] == [scm.noises[k] for k in (0, 2, 3, 4, 5)]
    assert len(_runs(generate_random_scm(DagGenConfig(seed=1)))) == 1
    # A run is one family: the standard draws do not depend on the parameters.
    adjacent = _mixed_noise_scm(ADJACENT_NOISES)
    assert [(start, end) for start, end, _ in _runs(adjacent)] == [(0, 2), (2, 4), (4, 6)]


# Runs of 4 gaussians, 2 constants, 5 uniforms and 1 gaussian: at 2 or 3 rows a block,
# the gaussian and uniform runs each split across blocks.
BLOCK_NOISES = (
    *[NoiseSpec.gaussian(0.5, 1.5)] * 4,
    NoiseSpec.constant(-0.0),
    NoiseSpec.constant(2.0),
    *[NoiseSpec.uniform(-1.0, 2.0)] * 5,
    NoiseSpec.gaussian(-1.0, 0.0),
)


@pytest.mark.parametrize(
    "m, rows, spans",
    [
        (BLOCK_DOUBLES // 3, 3, [(0, 3), (3, 4), (4, 6), (6, 9), (9, 11), (11, 12)]),
        (BLOCK_DOUBLES // 3 + 1, 2, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 11), (11, 12)]),
    ],
)
def test_blocks_side_by_side_are_the_standard_draws(monkeypatch, m, rows, spans):
    scm = Scm(Dag.from_edges(len(BLOCK_NOISES), []), BLOCK_NOISES)
    # The scorer's block holds ``rows`` rows of m draws: the rows it walks the spans by.
    walked_by = []

    def record_rows(scm, rows):
        walked_by.append(rows)
        return _row_blocks(scm, rows)

    monkeypatch.setattr(sweep, "_row_blocks", record_rows)
    assert _folded_sums(scm, np.ones(scm.n), np.random.default_rng(5), m).shape == (m,)
    assert walked_by == [rows]
    buffer = np.empty((rows, m))
    rng = np.random.default_rng(5)
    walked, blocks = [], []
    for b0, b1, spec in _row_blocks(scm, rows):
        assert {s.family for s in scm.noises[b0:b1]} == {spec.family}
        block = buffer[: b1 - b0]
        spec.fill_standard(rng, block)
        walked.append((b0, b1))
        blocks.append(block.copy())
    # Whole rows of one run each, at most ``rows`` of them, in index order.
    assert walked == spans
    assert np.vstack(blocks).tobytes() == _draw_standard(scm, np.random.default_rng(5), m).tobytes()


def test_loc_scale_is_read_only_and_built_once():
    scm = _mixed_noise_scm()
    assert scm.loc_scale.tolist() == [list(pair) for pair in zip(*(spec.loc_scale() for spec in MIXED_NOISES))]
    assert not scm.loc_scale.flags.writeable
    assert scm.loc_scale is scm.loc_scale


class TestSampleInterventional:
    def test_chain_do_root(self):
        dag = Dag(np.array([[0.0, 0.0], [2.0, 0.0]]))
        data = sample(constant_scm(dag, (0.0, 0.0)), 1, seed=0, do=(1, 3.0))
        assert data.rows.tolist() == [[3.0, 6.0]]

    def test_do_on_leaf_leaves_other_columns_untouched(self, chain3):
        scm = uniform_scm(chain3)
        plain = sample(scm, 200, seed=5).rows
        intervened = sample(scm, 200, seed=5, do=(3, 99.0)).rows
        assert (intervened[:, 2] == 99.0).all()
        assert (intervened[:, :2] == plain[:, :2]).all()

    def test_seven_vertex_two_paths(self, seven_vertex_dag):
        # do(X1=1) reaches X4 via X2 and X3, so E[X4] = 2 with zero-mean noise
        scm = uniform_scm(seven_vertex_dag)
        data = sample(scm, 100_000, seed=6, do=(1, 1.0))
        assert data.rows[:, 3].mean() == pytest.approx(2.0, abs=0.03)

    # Refused before the noise write: there n + 1 is past the end and 0 addresses the last column.
    @pytest.mark.parametrize("i", [0, 4])
    def test_index_out_of_range(self, chain3, i):
        with pytest.raises(IndexOutOfRange):
            sample(uniform_scm(chain3), 1, seed=0, do=(i, 0.0))


class TestAnalyticMeans:
    def test_chain(self):
        dag = Dag(np.array([[0.0, 0.0], [2.0, 0.0]]))
        scm = Scm(dag, (NoiseSpec.constant(1.0), NoiseSpec.constant(0.5)))
        assert analytic_means(scm).tolist() == [1.0, 2.5]

    def test_zero_noise_means(self, seven_vertex_dag):
        assert (analytic_means(uniform_scm(seven_vertex_dag)) == 0.0).all()

    def test_against_monte_carlo_on_random_scm(self):
        scm = generate_random_scm(DagGenConfig(seed=11))
        mu = analytic_means(scm)
        data = sample(scm, 100_000, seed=12)
        se = data.rows.std(axis=0, ddof=1) / np.sqrt(data.m)
        assert (np.abs(data.rows.mean(axis=0) - mu) <= 3 * se + 1e-12).all()


class TestEstimateNoiseMeans:
    def test_chain_direct(self):
        dag = Dag(np.array([[0.0, 0.0], [2.0, 0.0]]))
        est = estimate_noise_means(dag, np.array([1.0, 2.5]))
        assert est.tolist() == [0.0, 0.5]

    def test_round_trip_recovers_non_root_means(self):
        scm = generate_random_scm(DagGenConfig(n_roots=4, n_descendants=12, seed=3))
        est = estimate_noise_means(scm.dag, analytic_means(scm))
        truth = noise_means(scm)
        non_root = ~root_mask(scm.dag)
        assert est[non_root] == pytest.approx(truth[non_root], abs=1e-12)
        assert (est[~non_root] == 0.0).all()

    def test_edgeless_all_zero(self):
        est = estimate_noise_means(Dag(np.zeros((3, 3))), np.array([5.0, -2.0, 0.5]))
        assert (est == 0.0).all()

    def test_observation_specific_values(self, chain3):
        # one observation (1, 4, x3): noise of X2 recovered as 4 - 2*1 = 2
        est = estimate_noise_means(chain3, np.array([1.0, 4.0, 3.0]))
        assert est[1] == pytest.approx(2.0)
        assert est[2] == pytest.approx(3.0 - 0.5 * 4.0)

    def test_length_check(self, chain3):
        with pytest.raises(ValueError):
            estimate_noise_means(chain3, np.zeros(2))
