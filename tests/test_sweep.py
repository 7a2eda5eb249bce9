import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from causalsteer import (
    Dag,
    DagGenConfig,
    NoiseSpec,
    PredictionModel,
    Scm,
    SweepConfig,
    fileio,
    generate_random_scm,
    models,
    run_sweep,
    sample,
    sweep,
)
from causalsteer.cli import main
from causalsteer.errors import AllEffectsZero, CausalSteerError, DidNotConvergeWarning, InvalidConfig, NonFiniteValue
from causalsteer.sweep import _run_dag, sweep_result_to_csv

GOLDEN_CONFIG = SweepConfig(
    n_dags=8,
    n_train=200,
    n_post=200,
    d_values=(0.0, 2.0, 4.0),
    datagen=DagGenConfig(n_roots=5, n_descendants=10),
    seed=3,
)

# The exact output of this sweep; any change to sampling, fitting, target
# selection or the intervention values shows up here.
GOLDEN_CSV = (
    "d,accuracy_optimal,accuracy_naive,n_failed\n"
    "0,0.496875,0.429375,0\n"
    "2,0.890000,0.850625,0\n"
    "4,0.966875,0.873125,0\n"
)


def _dag_counts(config: SweepConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """One DAG of a sweep on its own: (counts_optimal, counts_naive)."""
    return tuple(_run_dag(config, seed)[1].T)


def test_golden_csv():
    assert sweep_result_to_csv(run_sweep(GOLDEN_CONFIG)) == GOLDEN_CSV


# Few variables and many post-intervention rows, where evaluation is most of the work.
MANY_ROWS_CONFIG = SweepConfig(
    n_dags=3,
    n_train=200,
    n_post=5000,
    d_values=(0.0, 2.0, 4.0),
    datagen=DagGenConfig(n_roots=5, n_descendants=10),
    seed=11,
)

MANY_ROWS_CSV = (
    "d,accuracy_optimal,accuracy_naive,n_failed\n"
    "0,0.506467,0.669867,0\n"
    "2,0.887867,0.975133,0\n"
    "4,0.969600,0.999867,0\n"
)


def test_golden_csv_many_rows():
    assert sweep_result_to_csv(run_sweep(MANY_ROWS_CONFIG)) == MANY_ROWS_CSV


SWEEP_HASH = "cc2174eeecbe2e47281a06693e230aeefa2bf25df18c8443d66ad4fb70363e6a"


def _sweep_hash() -> str:
    """SHA-256 of the CSVs of three sweeps over six default-size DAGs, in seed order."""
    digest = hashlib.sha256()
    for seed in range(3):
        csv = sweep_result_to_csv(run_sweep(SweepConfig(n_dags=6, n_train=300, n_post=300, seed=seed)))
        digest.update(csv.encode())
    return digest.hexdigest()


def test_sweep_hash():
    assert _sweep_hash() == SWEEP_HASH


def test_paper_size_sweep_hash():
    """SHA-256 of the CSV of 30 default DAGs fitted and scored on 1000 rows each, as in the paper.

    The pins above train on at most 300 rows; this one holds the
    69-predictor fit and the 1000-row scoring at the paper's size.
    """
    csv = sweep_result_to_csv(run_sweep(SweepConfig(n_dags=30, seed=5)))
    assert hashlib.sha256(csv.encode()).hexdigest() == "ae4217a60f822a06371bf63223e4210139b4a2837eef54b3603d0c7eb0a34475"


def test_dag_order_does_not_matter():
    result = run_sweep(GOLDEN_CONFIG)
    seeds = np.random.SeedSequence(GOLDEN_CONFIG.seed).spawn(GOLDEN_CONFIG.n_dags)
    n_d = len(GOLDEN_CONFIG.d_values)
    opt, naive = np.zeros(n_d, dtype=int), np.zeros(n_d, dtype=int)
    for seed in reversed(seeds):
        opt_counts, naive_counts = _dag_counts(GOLDEN_CONFIG, seed)
        opt += opt_counts
        naive += naive_counts
    denom = GOLDEN_CONFIG.n_dags * GOLDEN_CONFIG.n_post
    assert [row.accuracy_optimal for row in result.rows] == (opt / denom).tolist()
    assert [row.accuracy_naive for row in result.rows] == (naive / denom).tolist()


def test_one_draw_follows_the_evaluation_size(monkeypatch):
    """From 2^16 draws per evaluation on (2 x 2^15 here) a DAG's plans share one draw; below it each has its own."""
    assert sweep.ONE_DRAW_MIN_DRAWS == 2 * 2**15
    # Below it: perfbench's 7 x 200 replay, GOLDEN_CONFIG and the sweep hash's 70 x 300.
    tiny = SweepConfig(n_post=200, datagen=DagGenConfig(n_roots=3, n_descendants=4))
    for config in (tiny, GOLDEN_CONFIG, SweepConfig(n_post=300)):
        assert not sweep._one_draw(config)
    # At or above it: the paper's 70 x 1000, MANY_ROWS_CONFIG and ONE_DRAW_CONFIG.
    for config in (SweepConfig(), MANY_ROWS_CONFIG, ONE_DRAW_CONFIG):
        assert sweep._one_draw(config)
    score = sweep._class1_counts
    calls = []

    def record_values(scm, bias, effects, i, values, seed, n_post):
        calls.append(len(values))
        return score(scm, bias, effects, i, values, seed, n_post)

    monkeypatch.setattr(sweep, "_class1_counts", record_values)
    at_threshold = SweepConfig(
        d_values=(0.0,), n_dags=1, n_train=20, n_post=2**15, datagen=DagGenConfig(n_roots=1, n_descendants=1)
    )
    run_sweep(at_threshold)
    assert calls == [2]
    calls.clear()
    run_sweep(dataclasses.replace(at_threshold, n_post=2**15 - 1))
    assert calls == [1, 1]


# 15 x 9000 draws per evaluation: each DAG's six plans are scored from one draw.
ONE_DRAW_CONFIG = dataclasses.replace(MANY_ROWS_CONFIG, n_post=9000)

ONE_DRAW_CSV = (
    "d,accuracy_optimal,accuracy_naive,n_failed\n"
    "0,0.499852,0.667741,0\n"
    "2,0.886852,0.975222,0\n"
    "4,0.967926,1.000000,0\n"
)


def test_golden_csv_one_draw():
    assert sweep_result_to_csv(run_sweep(ONE_DRAW_CONFIG)) == ONE_DRAW_CSV


def _assert_one_draw_agrees_with_a_draw_per_plan(monkeypatch, config: SweepConfig) -> None:
    """Each pooled fraction lies within 5 binomial SEs of the same sweep with a draw per plan."""
    one_draw = run_sweep(config)
    n = config.datagen.n_roots + config.datagen.n_descendants
    monkeypatch.setattr(sweep, "ONE_DRAW_MIN_DRAWS", n * config.n_post + 1)
    per_plan = run_sweep(config)
    assert sweep_result_to_csv(per_plan) != sweep_result_to_csv(one_draw)
    # Planning precedes scoring, so both sweeps exclude the same DAGs.
    trials = (config.n_dags - one_draw.n_failed) * config.n_post
    for a, b in zip(one_draw.rows, per_plan.rows):
        for p, q in ((a.accuracy_optimal, b.accuracy_optimal), (a.accuracy_naive, b.accuracy_naive)):
            assert abs(p - q) <= 5 * math.sqrt((p * (1 - p) + q * (1 - q)) / trials)


def test_one_draw_agrees_with_a_draw_per_plan(monkeypatch):
    _assert_one_draw_agrees_with_a_draw_per_plan(monkeypatch, ONE_DRAW_CONFIG)


def test_one_draw_agrees_with_a_draw_per_plan_at_paper_size(monkeypatch):
    # The paper's 70 x 1000 on 40 DAGs: one SE of a difference is at most 0.0036.
    _assert_one_draw_agrees_with_a_draw_per_plan(monkeypatch, SweepConfig(n_dags=40, seed=5))


def test_cli_sweep_writes_csv_and_manifest(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(fileio.fields_to_dict(GOLDEN_CONFIG)))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_CSV
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["n_dags"] == 8
    assert manifest["n_failed"] == 0
    assert manifest["failures"] == {}
    seeds = np.random.SeedSequence(GOLDEN_CONFIG.seed).spawn(GOLDEN_CONFIG.n_dags)
    fits = [_run_dag(GOLDEN_CONFIG, seed)[0] for seed in seeds]
    assert manifest["irls_not_converged"] == 0
    assert manifest["irls_iterations_mean"] == pytest.approx(np.mean([model.n_iter for model in fits]))
    assert fileio.fields_from_dict(SweepConfig, manifest["config"]) == GOLDEN_CONFIG
    # Every field is written, in declaration order.
    assert list(manifest["config"]) == [f.name for f in dataclasses.fields(SweepConfig)]
    assert list(manifest["config"]["datagen"]) == [f.name for f in dataclasses.fields(DagGenConfig)]
    environment = manifest["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["blas"] is None or isinstance(environment["blas"], str)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert environment["threads"][name] == os.environ.get(name, "unset")
    assert environment["cpus_usable"] == sweep._usable_cpus() >= 1
    assert "eval_threads" not in environment
    assert list(manifest)[:4] == ["causalsteer_version", "config", "environment", "one_draw"]
    # 15 x 200 draws per evaluation: each plan drew its own noise.
    assert manifest["one_draw"] is False


def test_manifest_records_no_blas_where_show_config_has_no_mode(monkeypatch):
    # numpy before 1.25 has show_config() without the mode argument.
    monkeypatch.setattr(np, "show_config", lambda: None)
    manifest = sweep.run_manifest(SweepConfig(n_dags=1), sweep.SweepResult((), {}, 0, 7.0))
    assert manifest["environment"]["blas"] is None


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_mask(monkeypatch, cpu_count, usable):
    # Platforms without os.sched_getaffinity, macOS and Windows among them, use the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert sweep._usable_cpus() == usable


def test_manifest_says_one_draw_scored_a_paper_size_sweep(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(fileio.fields_to_dict(SweepConfig(n_dags=1))))
    assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "sweep.csv")]) == 0
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["one_draw"] is True
    assert "one_draw" not in manifest["config"]


@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_evaluate_intervention_rejects_non_finite_value(c):
    scm = generate_random_scm(DagGenConfig(n_roots=2, n_descendants=2, seed=0))
    model = PredictionModel("logistic", 0.0, np.array([1.0]), (4,), 1)
    with pytest.raises(ValueError, match="finite"):
        sweep.evaluate_intervention(scm, model, 2, c, 10, 0)
    with pytest.raises(ValueError, match="intervention value must be finite"):
        sample(scm, 10, 0, do=(2, c))


@pytest.mark.parametrize(
    "x3, c",
    [(NoiseSpec.constant(-1e308), 1e308), (NoiseSpec.gaussian(0.0, 1e308), 0.5)],
    ids=["threshold", "sums"],
)
def test_evaluate_intervention_refuses_scores_that_overflow(x3, c):
    # x1 -> x2 <- x3, both of weight 2, scored on x2. Under do(X1 = 1e308) with x3 at -1e308
    # both terms of the threshold overflow, though the mean score is about 0; with x3 drawn
    # at scale 1e308 the sums overflow. Either way rows would be counted against inf or nan.
    scm = Scm(Dag.from_edges(4, [(1, 2, 2.0), (3, 2, 2.0)]), (NoiseSpec.gaussian(),) * 2 + (x3, NoiseSpec.gaussian()))
    model = PredictionModel("logistic", 0.0, np.array([1.0]), (2,), 4)
    with pytest.raises(NonFiniteValue, match="variable 1 are not finite"):
        sweep.evaluate_intervention(scm, model, 1, c, 1000, 0)


def test_sweep_counts_a_dag_whose_scores_overflow():
    # The DAG's plans for d = ±1e308 are finite, but their thresholds overflow.
    with pytest.raises(CausalSteerError, match=r"all 1 DAGs failed \(NonFiniteValue: 1\)"):
        run_sweep(SweepConfig(n_dags=1, d_values=(1e308, -1e308)))


@pytest.mark.parametrize("n_post", [0, -1])
def test_evaluate_intervention_rejects_no_samples(n_post):
    scm = generate_random_scm(DagGenConfig(n_roots=2, n_descendants=2, seed=0))
    model = PredictionModel("logistic", 0.0, np.array([1.0]), (4,), 1)
    with pytest.raises(ValueError, match=f"sample count must be >= 1, got {n_post}"):
        sweep.evaluate_intervention(scm, model, 2, 1.0, n_post, 0)


@pytest.mark.parametrize("field", ["n_dags", "n_post"])
def test_check_rejects_zero_counts(field):
    with pytest.raises(InvalidConfig, match=field):
        SweepConfig(**{field: 0})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: DagGenConfig(n_roots=0), "n_roots"),
        (lambda: dataclasses.replace(SweepConfig(), n_post=0), "n_post"),
    ],
    ids=["datagen", "replace"],
)
def test_config_is_checked_when_built(build, field):
    # test_check_rejects_zero_counts builds SweepConfig(n_dags=0) directly.
    with pytest.raises(InvalidConfig, match=f"{field} must be >= 1, got 0"):
        build()


@pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
def test_check_rejects_non_finite_d(d):
    with pytest.raises(InvalidConfig, match="d_values must be finite"):
        SweepConfig(d_values=(0.0, d)).check()


def test_check_rejects_single_training_row():
    # The median split needs two rows; the sweep must fail before it starts.
    with pytest.raises(InvalidConfig, match="n_train"):
        run_sweep(SweepConfig(n_dags=1, n_train=1))


def test_unknown_config_key_named():
    with pytest.raises(InvalidConfig, match="n_dag"):
        fileio.fields_from_dict(SweepConfig, {"n_dag": 3})


SMALL_CONFIG = SweepConfig(
    n_dags=3, n_train=100, n_post=100, d_values=(0.0, 2.0), datagen=DagGenConfig(n_roots=3, n_descendants=4), seed=1
)


def _degenerate_dags(monkeypatch, n_degenerate):
    """Make target selection raise AllEffectsZero on the first ``n_degenerate`` DAGs of a sweep."""
    select = sweep.select_intervention_target
    calls = []

    def select_or_fail(augmented, candidates):
        calls.append(None)
        if len(calls) <= n_degenerate:
            raise AllEffectsZero("no candidate has a causal effect on the prediction")
        return select(augmented, candidates)

    monkeypatch.setattr(sweep, "select_intervention_target", select_or_fail)


def test_degenerate_dag_is_counted_and_excluded(monkeypatch):
    seeds = np.random.SeedSequence(SMALL_CONFIG.seed).spawn(SMALL_CONFIG.n_dags)
    kept = np.array([_dag_counts(SMALL_CONFIG, s) for s in seeds[1:]]).sum(axis=0)
    _degenerate_dags(monkeypatch, 1)
    result = run_sweep(SMALL_CONFIG)
    assert result.n_failed == 1
    assert result.failures == {"AllEffectsZero": 1}
    denom = 2 * SMALL_CONFIG.n_post
    assert [row.accuracy_optimal for row in result.rows] == (kept[0] / denom).tolist()
    assert [row.accuracy_naive for row in result.rows] == (kept[1] / denom).tolist()
    assert all(line.endswith(",1") for line in sweep_result_to_csv(result).splitlines()[1:])


def test_irls_counts_cover_excluded_dags(monkeypatch):
    _degenerate_dags(monkeypatch, 1)
    monkeypatch.setattr(models, "IRLS_MAX_ITER", 1)
    with pytest.warns(DidNotConvergeWarning):
        result = run_sweep(SMALL_CONFIG)
    assert result.n_failed == 1
    assert result.irls_not_converged == SMALL_CONFIG.n_dags
    assert result.irls_iterations_mean == 1.0


def test_plan_that_overflows_is_counted_and_excluded():
    # Two of these DAGs have a total effect too small to reach d = 1.7e308 at a finite value.
    config = SweepConfig(
        d_values=(0.0, 1.7e308), n_dags=5, n_train=200, n_post=100, datagen=DagGenConfig(n_roots=3, n_descendants=5)
    )
    result = run_sweep(config)
    assert result.failures == {"NonFiniteValue": 2}
    assert [row.d for row in result.rows] == [0.0, 1.7e308]
    assert [line.split(",")[0] for line in sweep_result_to_csv(result).splitlines()[1:]] == ["0", "1.7e+308"]


def test_csv_d_column_reads_back_exactly():
    # %g keeps six significant digits: it would write 2 for the second and third d and 1.23457e+06 for the last.
    config = SweepConfig(
        d_values=(2.0, 2.0000001, 2.0000002, 1234567.0),
        n_dags=2,
        n_train=50,
        n_post=50,
        datagen=DagGenConfig(n_roots=3, n_descendants=4),
    )
    column = [line.split(",")[0] for line in sweep_result_to_csv(run_sweep(config)).splitlines()[1:]]
    assert column == ["2", "2.0000001", "2.0000002", "1234567.0"]
    assert tuple(map(float, column)) == config.d_values


def test_all_dags_degenerate_is_an_error(monkeypatch):
    _degenerate_dags(monkeypatch, SMALL_CONFIG.n_dags)
    with pytest.raises(CausalSteerError, match=r"all 3 DAGs failed \(AllEffectsZero: 3\)"):
        run_sweep(SMALL_CONFIG)
