import dataclasses
import json

import numpy as np
import pytest

from causalsteer import DagGenConfig, SweepConfig, fileio, run_sweep, sweep
from causalsteer.cli import main
from causalsteer.errors import AllEffectsZero, CausalSteerError, InvalidConfig
from causalsteer.sweep import _run_one_dag, sweep_result_to_csv

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


def test_golden_csv():
    assert sweep_result_to_csv(run_sweep(GOLDEN_CONFIG)) == GOLDEN_CSV


def test_dag_order_does_not_matter():
    result = run_sweep(GOLDEN_CONFIG)
    seeds = np.random.SeedSequence(GOLDEN_CONFIG.seed).spawn(GOLDEN_CONFIG.n_dags)
    n_d = len(GOLDEN_CONFIG.d_values)
    opt, naive = np.zeros(n_d, dtype=int), np.zeros(n_d, dtype=int)
    for seed in reversed(seeds):
        opt_counts, naive_counts = _run_one_dag(GOLDEN_CONFIG, seed)
        opt += opt_counts
        naive += naive_counts
    denom = GOLDEN_CONFIG.n_dags * GOLDEN_CONFIG.n_post
    assert [row.accuracy_optimal for row in result.rows] == (opt / denom).tolist()
    assert [row.accuracy_naive for row in result.rows] == (naive / denom).tolist()


def test_cli_sweep_writes_csv_and_manifest(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(fileio.fields_to_dict(GOLDEN_CONFIG)))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_CSV
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["n_dags"] == 8
    assert manifest["n_failed"] == 0
    assert fileio.fields_from_dict(SweepConfig, manifest["config"]) == GOLDEN_CONFIG
    # Every field is written, in declaration order.
    assert list(manifest["config"]) == [f.name for f in dataclasses.fields(SweepConfig)]
    assert list(manifest["config"]["datagen"]) == [f.name for f in dataclasses.fields(DagGenConfig)]


@pytest.mark.parametrize("field", ["n_dags", "n_post"])
def test_check_rejects_zero_counts(field):
    config = SweepConfig(**{field: 0})
    with pytest.raises(InvalidConfig, match=field):
        config.check()


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
    kept = np.array([_run_one_dag(SMALL_CONFIG, s) for s in seeds[1:]]).sum(axis=0)
    _degenerate_dags(monkeypatch, 1)
    result = run_sweep(SMALL_CONFIG)
    assert result.n_failed == 1
    denom = 2 * SMALL_CONFIG.n_post
    assert [row.accuracy_optimal for row in result.rows] == (kept[0] / denom).tolist()
    assert [row.accuracy_naive for row in result.rows] == (kept[1] / denom).tolist()
    assert all(line.endswith(",1") for line in sweep_result_to_csv(result).splitlines()[1:])


def test_all_dags_degenerate_is_an_error(monkeypatch):
    _degenerate_dags(monkeypatch, SMALL_CONFIG.n_dags)
    with pytest.raises(CausalSteerError, match="all 3 DAGs failed"):
        run_sweep(SMALL_CONFIG)
