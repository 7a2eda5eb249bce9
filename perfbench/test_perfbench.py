"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
from calibration import REFERENCE_S, Calibration
from spans import NullTracer, Tracer, patched

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
cs = run._import_package()


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc, lines = _bench("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    env = json.loads(lines[0])["environment"]
    assert env["seed"] == 5 and set(env["threads"]) == set(run.THREAD_VARS)


def test_all_prints_every_workload_and_metric():
    proc, lines = _bench("--all", "--smoke", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    assert lines[-1] == "all checks passed"
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in run.WORKLOADS:
        printed = {line.split()[2] for line in lines if line.startswith(workload + " ")}
        assert names <= printed


def test_inputs_follow_the_seed(tmp_path):
    def inputs(seed, name):
        bench = run.InterveneBench(cs, run.SMOKE_SIZES["intervene-paper"], seed, tmp_path / name)
        bench.setup()
        files = {f.name: f.read_text() for f in (tmp_path / name).glob("*.json")}
        return bench.requests, files

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(4, "c")
    sweep = run.SweepBench(cs, run.SMOKE_SIZES["sweep-paper"], 3, [])
    sweep.setup()
    assert sweep.chunk(0) != sweep.chunk(1)
    first, again = (sweep.replay(sweep.chunk(0), NullTracer()) for _ in range(2))
    assert first[0].tolist() == again[0].tolist() and first[1].tolist() == again[1].tolist()


def test_directory_without_the_program_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _bench("--workload", "sweep-paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)


def test_per_layer_names_follow_layers():
    names = [m["name"] for m in SPEC["per_layer"]]
    for layer in run.LAYERS:
        for suffix in ("calls", "ms_per_call", "share"):
            assert f"{layer}.{suffix}" in names
    assert len(names) == len(set(names))


def _paper_pair(seed=0):
    scm = cs.generate_random_scm(cs.DagGenConfig(seed=seed))
    train = cs.sample(scm, 400, seed + 1)
    model = cs.fit_logistic(train, cs.median_split_labels(train, 3), target_index=3)
    return scm, model


def test_oracle_accepts_the_programs_plans_and_rejects_perturbed_ones():
    scm, model = _paper_pair()
    w = scm.dag.weights
    i = cs.select_intervention_target(cs.augment_graph(scm.dag, model), model.predictor_indices)
    oracle.check_target_choice(w, model, i)
    for d in (0.0, 4.0, 10.0):
        plan = cs.plan_for_scm(scm, model, i, d)
        oracle.check_plan(w, oracle.population_base(scm), model, i, plan.value, d)
        with pytest.raises(oracle.CheckFailed):
            oracle.check_plan(w, oracle.population_base(scm), model, i, plan.value * (1 + 1e-6) + 1e-6, d)
    obs = cs.sample(scm, 1, 7).rows[0]
    plan = cs.observation_specific_plan(obs, scm.dag, model, i, 2.0)
    oracle.check_plan(w, oracle.observation_base(w, obs), model, i, plan.value, 2.0)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_plan(w, oracle.population_base(scm), model, i, plan.value, 2.0)


def test_oracle_rejects_a_weaker_target():
    scm, model = _paper_pair(1)
    aug = cs.augment_graph(scm.dag, model)
    effects = {j: abs(cs.causal_effect_on_prediction(aug, j)) for j in model.predictor_indices}
    weakest = min(effects, key=effects.get)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_target_choice(scm.dag.weights, model, weakest)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_target_choice(scm.dag.weights, model, model.target_index)


def _tiny_sweep():
    config = cs.SweepConfig(
        n_dags=3, n_train=60, n_post=200, d_values=(0.0, 1.0), datagen=cs.DagGenConfig(n_roots=3, n_descendants=4)
    )
    return config, cs.run_sweep(config)


def test_sweep_csv_check():
    config, result = _tiny_sweep()
    text = cs.sweep.sweep_result_to_csv(result)
    assert len(oracle.check_sweep_csv(text, config.d_values, config.n_dags)) == 2
    header, row0, row1 = text.splitlines()
    bad = [
        "\n".join([header, row0]),
        "\n".join(["d,acc", row0, row1]),
        "\n".join([header, "0,1.5,0.5,0", row1]),
        "\n".join([header, "0,0.5,0.5,4", "1,0.5,0.5,4"]),
        "\n".join([header, "0,0.5,0.5,0", "1,0.5,0.5,1"]),
        "\n".join([header, row1, row0]),
    ]
    for text in bad:
        with pytest.raises(oracle.CheckFailed):
            oracle.check_sweep_csv(text, config.d_values, config.n_dags)


def test_replay_matches_run_sweep():
    config, result = _tiny_sweep()
    bench = run.SweepBench(cs, dict(datagen={}, chunk=3), 0, [])
    bench.base = config
    opt, naive, n_ok, n_failed = bench.replay(config, NullTracer())
    assert n_failed == result.n_failed
    denom = n_ok * config.n_post
    assert oracle.check_replay_agreement(result, opt / denom, naive / denom, n_ok, config.n_post) == 0.0
    with pytest.raises(oracle.CheckFailed):
        oracle.check_replay_agreement(result, opt / denom + 0.2, naive / denom, n_ok, config.n_post)
    bench.check()


def test_tracer_self_time_and_patching():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (outer,) = tr.durations("outer")
    (inner,) = tr.durations("inner")
    assert tr.root_seconds() == outer
    assert tr.mean_self_ms("outer") == pytest.approx(1000 * (outer - inner))
    original = np.linalg.solve
    with patched([(np.linalg, "solve", tr.wrap("solve", original))]):
        np.linalg.solve(np.eye(2), np.ones(2))
    assert np.linalg.solve is original
    assert len(tr.durations("solve")) == 1


def test_calibration_scales_by_the_steps_around_a_call():
    cal = Calibration(("python", "rows"))
    reference = 2 * REFERENCE_S
    result, seconds, scaled = cal.measure(sum, [1, 2, 3])
    assert result == 6 and seconds > 0
    # The steps before the call last 4 reference steps; those after it, a share of the call.
    n_before = next(k for k in range(1, len(cal.steps) + 1) if sum(cal.steps[:k]) >= 4 * reference)
    assert len(cal.steps) > n_before
    before = sum(cal.steps[:n_before]) / n_before
    after = sum(cal.steps[n_before:]) / (len(cal.steps) - n_before)
    assert scaled == pytest.approx(seconds * 2 * reference / (before + after))


def test_every_workload_has_known_calibration_parts():
    assert set(run.CALIBRATION) == set(run.WORKLOADS)
    for parts in run.CALIBRATION.values():
        Calibration(parts)
    with pytest.raises(ValueError):
        Calibration(("python", "sleep"))
