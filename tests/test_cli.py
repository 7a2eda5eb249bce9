import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalsteer
from causalsteer import (
    DagGenConfig,
    SweepConfig,
    augment_graph,
    autompg,
    effects_on_prediction,
    fileio,
    fit_linear,
    observation_specific_plan,
    run_sweep,
    select_intervention_target,
)
from causalsteer.cli import build_parser, main
from causalsteer.sweep import sweep_result_to_csv

AUTOMPG = Path(__file__).parent / "data" / "autompg_synthetic.data"


class RawJson(str):
    """Document text written as is, for what json.dumps cannot produce."""


# Deeper than any recursion limit; the JSON parser gives up on it.
DEEP = RawJson("[" * 100_000)


@pytest.fixture
def files(tmp_path):
    """An SCM file, a training CSV drawn from it and a logistic model fitted on it."""
    scm_path, data_path, model_path = tmp_path / "scm.json", tmp_path / "train.csv", tmp_path / "model.json"
    config_path = tmp_path / "gen.json"
    config_path.write_text(json.dumps(fileio.fields_to_dict(DagGenConfig(n_roots=3, n_descendants=6))))
    assert main(["gen-scm", "--config", str(config_path), "--seed", "5", "--out", str(scm_path)]) == 0
    assert main(["sample", "--scm", str(scm_path), "--rows", "300", "--seed", "6", "--out", str(data_path)]) == 0
    argv = ["fit", "--data", str(data_path), "--kind", "logistic", "--target-index", "9", "--out", str(model_path)]
    assert main(argv) == 0
    return scm_path, data_path, model_path


def test_sample_do_fixes_the_column(files, tmp_path, capsys):
    scm_path, _, _ = files
    out = tmp_path / "do.csv"
    assert main(["sample", "--scm", str(scm_path), "--rows", "5", "--do", "2=1.5", "--seed", "1", "--out", str(out)]) == 0
    assert (fileio.load_dataset(out).column(2) == 1.5).all()
    assert main(["sample", "--scm", str(scm_path), "--do", "0=1"]) == 2
    assert capsys.readouterr().err == "error: variable index 0 out of range 1..9\n"


@pytest.mark.parametrize("spec", ["3", "x=1", "3=y", "=", "3=inf", "3=nan", "3=1e400"])
def test_malformed_do_is_a_usage_error(files, capsys, spec):
    scm_path, _, _ = files
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--scm", str(scm_path), "--do", spec])
    assert exc.value.code == 1
    assert "--do" in capsys.readouterr().err


def test_analyze_ranks_by_the_effect_vector(files, capsys):
    scm_path, _, model_path = files
    assert main(["analyze", "--scm", str(scm_path), "--model", str(model_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "variable,name,effect_on_prediction"
    scm = fileio.scm_from_dict(fileio.load_json(scm_path))
    model = fileio.model_from_dict(fileio.load_json(model_path))
    effects = effects_on_prediction(augment_graph(scm.dag, model))
    ranked = sorted(model.predictor_indices, key=lambda i: (-abs(effects[i - 1]), i))
    assert [int(line.split(",")[0]) for line in lines[1:]] == ranked


@pytest.fixture
def paper_files(tmp_path):
    """A default-sized SCM file from `gen-scm` (70 variables), training rows and a logistic model."""
    scm_path, data_path, model_path = tmp_path / "scm.json", tmp_path / "train.csv", tmp_path / "model.json"
    assert main(["gen-scm", "--seed", "1", "--out", str(scm_path)]) == 0
    assert main(["sample", "--scm", str(scm_path), "--rows", "500", "--seed", "2", "--out", str(data_path)]) == 0
    argv = ["fit", "--data", str(data_path), "--kind", "logistic", "--target-index", "70", "--out", str(model_path)]
    assert main(argv) == 0
    return scm_path, data_path, model_path


@pytest.mark.parametrize("pair", ["files", "paper_files"])
def test_analyze_ranks_first_the_variable_intervene_picks(request, tmp_path, capsys, pair):
    # analyze prints causal.target_order, whose head select_intervention_target returns and
    # intervene without --intervene-index uses.
    scm_path, _, model_path = request.getfixturevalue(pair)
    files_argv = ["--scm", str(scm_path), "--model", str(model_path)]
    assert main(["analyze", *files_argv]) == 0
    top = int(capsys.readouterr().out.splitlines()[1].split(",")[0])
    plan = tmp_path / "plan.json"
    assert main(["intervene", *files_argv, "--desired", "1", "--out", str(plan)]) == 0
    assert capsys.readouterr().out.startswith(f"do(X{top} = ")
    assert fileio.load_json(plan)["target_variable"] == top
    scm = fileio.scm_from_dict(fileio.load_json(scm_path))
    model = fileio.model_from_dict(fileio.load_json(model_path))
    assert select_intervention_target(augment_graph(scm.dag, model), model.predictor_indices) == top


def test_analyze_quotes_names_as_csv(files, tmp_path, capsys):
    # A name holding a comma, a quote or a newline is one quoted field, as in `sample`.
    scm_path, _, model_path = files
    doc = fileio.load_json(scm_path)
    doc["names"] = ["a,b", 'q"x', "c\nd", *(f"v{k}" for k in range(4, doc["n"] + 1))]
    named = tmp_path / "named.json"
    named.write_text(json.dumps(doc))
    assert main(["analyze", "--scm", str(named), "--model", str(model_path)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["variable", "name", "effect_on_prediction"]
    assert all(len(row) == 3 for row in rows)
    assert [row[1] for row in rows[1:]] == [doc["names"][int(row[0]) - 1] for row in rows[1:]]
    assert {"a,b", 'q"x', "c\nd"} <= {row[1] for row in rows[1:]}


def test_intervene_plan_hits_desired(files, capsys, tmp_path):
    scm_path, _, model_path = files
    plan_path = tmp_path / "plan.json"
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "2.0", "--out", str(plan_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("do(X")
    plan = fileio.load_json(plan_path)
    assert plan["predicted_expectation"] == pytest.approx(2.0, abs=1e-9)


def test_unknown_sweep_key_is_reported(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n_dags": 2, "n_dag": 3}))
    assert main(["sweep", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'n_dag'" in err


def test_unknown_datagen_key_is_reported(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_root": 3}))
    assert main(["gen-scm", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'n_root'" in err


def test_unknown_noise_key_is_reported(tmp_path, capsys):
    scm = tmp_path / "scm.json"
    noise = {"family": "uniform", "lo": 0, "hi": 1, "mean": 5}
    scm.write_text(json.dumps({"n": 2, "edges": [], "noises": [noise] * 2}))
    assert main(["sample", "--scm", str(scm)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scm}: ") and "'mean'" in err


@pytest.mark.parametrize(
    "noise, message",
    [
        ({"family": "uniform", "lo": -1e308, "hi": 1e308},
         "uniform noise needs a finite range hi - lo, got (-1e+308, 1e+308)"),
        ({"family": "uniform", "lo": 0.0, "hi": -0.0},
         "uniform noise needs (lo, hi) with lo <= hi, got (0.0, -0.0)"),
        ({"family": "gaussian", "mean": 0.0, "stddev": -0.0},
         "gaussian noise needs (mean, stddev) with stddev >= 0, got (0.0, -0.0)"),
    ],
    ids=["uniform-overflow", "uniform-negative-zero", "gaussian-negative-zero"],
)
def test_undrawable_noise_is_reported(tmp_path, capsys, noise, message):
    # numpy refuses to draw each of these; the SCM file is refused when read.
    scm = tmp_path / "scm.json"
    scm.write_text(json.dumps({"n": 2, "edges": [], "noises": [noise] * 2}))
    assert main(["sample", "--scm", str(scm)]) == 2
    assert capsys.readouterr().err == f"error: {scm}: {message}\n"


def test_sample_that_overflows_is_one_error_line(tmp_path, capsys):
    # Draws of N(0, 1e308) overflow when scaled and again through the edge; the
    # test suite turns a numpy warning into an error, so a leaked one fails here.
    scm = tmp_path / "scm.json"
    noises = [{"family": "gaussian", "mean": 0.0, "stddev": 1e308}, {"family": "gaussian", "mean": 0.0, "stddev": 1.0}]
    scm.write_text(json.dumps({"n": 2, "edges": [{"from": 1, "to": 2, "weight": 2.0}], "noises": noises}))
    assert main(["sample", "--scm", str(scm), "--rows", "1000"]) == 2
    assert capsys.readouterr().err == "error: dataset contains non-finite entries\n"


# The generator settings that are datagen constants, each with its value there.
FIXED_GENERATOR_SETTINGS = {
    "parent_prob": 0.05,
    "min_parents": 1,
    "weight_lo": 0.5,
    "weight_hi": 1.5,
    "random_sign": True,
    "noise": {"family": "uniform", "lo": -1.0, "hi": 1.0},
}


@pytest.mark.parametrize("key", list(FIXED_GENERATOR_SETTINGS))
@pytest.mark.parametrize("command", ["gen-scm", "sweep"])
def test_fixed_generator_setting_is_an_unknown_key(tmp_path, capsys, command, key):
    datagen = {"n_roots": 3, "n_descendants": 4, key: FIXED_GENERATOR_SETTINGS[key]}
    doc = datagen if command == "gen-scm" else {"n_dags": 1, "n_train": 50, "n_post": 50, "datagen": datagen}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: unknown DagGenConfig key(s): {key!r}\n"


def test_fit_on_empty_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["fit", "--data", str(empty), "--target-index", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fit_on_header_only_csv(tmp_path, capsys):
    header_only = tmp_path / "header.csv"
    header_only.write_text("x1,x2\n")
    assert main(["fit", "--data", str(header_only), "--target-index", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(header_only) in err and "no data rows" in err


@pytest.mark.parametrize(
    "text, reason",
    [
        ("x1,x2\n1,2\n3\n", "expected 2 fields, found 1"),
        ("x1,x2\n1,2\n3,abc\n", "could not convert"),
        ("x1,x2\n1,2\n3,nan\n", "non-finite"),
        ("x1,x2\n1,2\n-inf,4\n", "non-finite"),
    ],
    ids=["short-row", "not-a-number", "nan", "inf"],
)
def test_fit_on_malformed_csv_names_the_line(tmp_path, capsys, text, reason):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    assert main(["fit", "--data", str(data), "--target-index", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 3: ") and reason in err


@pytest.mark.parametrize(
    "doc",
    [
        {"a": 1}, 3.5, "1,2", [{"a": 1}], ["x"], [0.0] * 8 + [float("nan")], [float("inf")] + [0.0] * 8,
        [10**400] + [0] * 8, pytest.param(DEEP, id="deep"), pytest.param(RawJson("[1.0,"), id="not-json"),
        pytest.param([0.0] * 8, id="short"), pytest.param([0.0] * 10, id="long"),
    ],
)
def test_observation_file_must_be_a_number_array(files, tmp_path, capsys, doc):
    scm_path, _, model_path = files
    observation = tmp_path / "obs.json"
    observation.write_text(doc if isinstance(doc, RawJson) else json.dumps(doc))
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "1.0"]
    assert main(argv + ["--observation-file", str(observation)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(observation) in err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["intervene", "--scm", "{bad}", "--model", "{model}", "--desired", "1"], [1, 2]),
        (["intervene", "--scm", "{scm}", "--model", "{bad}", "--desired", "1"], [1, 2]),
        (["sample", "--scm", "{bad}"], 3),
        (["sweep", "--config", "{bad}"], 3),
        (["sweep", "--config", "{bad}"], [1, 2]),
        (["gen-scm", "--config", "{bad}"], [1, 2]),
    ],
)
def test_non_object_json_is_reported(files, tmp_path, capsys, argv, doc):
    scm_path, _, model_path = files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([a.format(bad=bad, scm=scm_path, model=model_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {bad}: expected a JSON object\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
def test_non_finite_desired_is_a_usage_error(files, capsys, value):
    scm_path, _, model_path = files
    with pytest.raises(SystemExit) as exc:
        main(["intervene", "--scm", str(scm_path), "--model", str(model_path), f"--desired={value}"])
    assert exc.value.code == 1
    assert "--desired" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["demo-autompg", "--data-file", "unused.data", f"--desired={value}"])
    assert exc.value.code == 1
    assert "--desired" in capsys.readouterr().err


def test_demo_data_file_error_names_the_file(tmp_path, capsys):
    data = tmp_path / "auto.data"
    data.write_text("1 2 3\n")
    assert main(["demo-autompg", "--data-file", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: line 1: expected 8 numeric fields, found 3\n"


def test_fetch_out_writes_the_dataset_csv(tmp_path):
    cache, out = tmp_path / "cache", tmp_path / "auto.csv"
    cache.mkdir()
    shutil.copy(AUTOMPG, cache / "auto-mpg.data")
    assert main(["fetch-autompg", "--cache-dir", str(cache), "--out", str(out)]) == 0
    assert out.read_text() == fileio.dataset_to_csv(autompg.parse_autompg(AUTOMPG.read_text()))


# A field longer than the csv module's default limit of 131072 characters.
OVERSIZED = (b"x1,x2,x3\n" + b"1" * 200_000 + b",0,0\n", "field larger than field limit (131072)")
NOT_UTF8 = (b"x1,x2,x3\n0,0,\xff\n", "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte")
MALFORMED_RAW = (b"1 2 3\n", "line 1: expected 8 numeric fields, found 3")


@pytest.mark.parametrize(
    "argv, name, fault",
    [
        (["fit", "--target-index", "1", "--data", "{file}"], "data.csv", OVERSIZED),
        (["fit", "--target-index", "1", "--data", "{file}"], "data.csv", NOT_UTF8),
        (["intervene", "--data", "{file}"], "data.csv", OVERSIZED),
        (["intervene", "--data", "{file}"], "data.csv", NOT_UTF8),
        (["demo-autompg", "--data-file", "{file}"], "auto.data", NOT_UTF8),
        (["fetch-autompg", "--cache-dir", "{cache}"], "cache/auto-mpg.data", MALFORMED_RAW),
        (["demo-autompg", "--cache-dir", "{cache}"], "cache/auto-mpg.data", MALFORMED_RAW),
    ],
    ids=["fit-oversized", "fit-not-utf8", "intervene-oversized", "intervene-not-utf8", "demo-data-file-not-utf8",
         "fetch-malformed-cache", "demo-malformed-cache"],
)
def test_unreadable_input_file_is_named_once(steer_files, tmp_path, capsys, argv, name, fault):
    content, reason = fault
    bad = tmp_path / name
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(content)
    argv = [a.format(file=bad, cache=bad.parent) for a in argv]
    assert main(steer_files + argv[1:] if argv[0] == "intervene" else argv) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {reason}\n")


def test_sweep_rejects_non_finite_d(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n_dags": 1, "d_values": [1.0, float("nan")]}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: d_values must be finite")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("gen-scm", {"n_roots": 0}, "n_roots must be >= 1, got 0"),
        ("gen-scm", {"n_descendants": -1}, "n_descendants must be >= 0, got -1"),
        ("sweep", {"n_dags": 0}, "n_dags must be >= 1, got 0"),
        ("sweep", {"n_post": 0}, "n_post must be >= 1, got 0"),
        ("sweep", {"d_values": []}, "d_values must be nonempty"),
        ("sweep", {"datagen": {"n_roots": 0}}, "n_roots must be >= 1, got 0"),
        ("gen-scm", {"seed": -1}, "seed must be >= 0, got -1"),
        ("sweep", {"seed": -1}, "seed must be >= 0, got -1"),
    ],
    ids=["n_roots", "n_descendants", "n_dags", "n_post", "d_values", "datagen", "gen-scm-seed", "sweep-seed"],
)
def test_config_range_error_names_the_file(tmp_path, capsys, command, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"


@pytest.mark.parametrize("value", ["-1", "abc"])
@pytest.mark.parametrize("command", ["gen-scm", "sample", "sweep"])
def test_seed_option_must_be_a_non_negative_integer(tmp_path, capsys, command, value):
    scm, config = tmp_path / "scm.json", tmp_path / "sweep.json"
    scm.write_text(json.dumps(STEER_SCM))
    config.write_text(json.dumps({"n_dags": 1, "n_train": 50, "n_post": 50}))
    argv = {"gen-scm": ["gen-scm"], "sample": ["sample", "--scm", str(scm)], "sweep": ["sweep", "--config", str(config)]}
    with pytest.raises(SystemExit) as exc:
        main(argv[command] + ["--seed", value])
    assert exc.value.code == 1
    reason = "expected a non-negative integer, got '-1'" if value == "-1" else "invalid int value: 'abc'"
    assert capsys.readouterr().err.endswith(f"error: argument --seed: {reason}\n")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_rows_option_must_be_a_positive_integer(tmp_path, capsys, value):
    scm = tmp_path / "scm.json"
    scm.write_text(json.dumps(STEER_SCM))
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--scm", str(scm), "--rows", value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: causalsteer sample")
    assert err.endswith(f"error: argument --rows: expected a positive integer, got '{value}'\n")
    assert "Traceback" not in err


def test_impossible_allocation_is_a_computation_error(tmp_path, capsys):
    # 70 variables x 1e13 rows of float64 is 4.97 PiB, beyond any address space: refused at once.
    scm = tmp_path / "scm.json"
    assert main(["gen-scm", "--seed", "1", "--out", str(scm)]) == 0
    assert main(["sample", "--scm", str(scm), "--rows", "10000000000000"]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate 4.97 PiB")


def test_sweep_rejects_single_training_row(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n_dags": 1, "n_train": 1}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert "n_train" in capsys.readouterr().err


def test_non_finite_model_is_reported(files, tmp_path, capsys):
    scm_path, _, model_path = files
    doc = fileio.load_json(model_path)
    doc["coeffs"][0] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "--scm", str(scm_path), "--model", str(bad)]) == 2
    assert "finite" in capsys.readouterr().err


def test_seeded_sample_is_reproducible(files, tmp_path):
    scm_path, _, _ = files
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["sample", "--scm", str(scm_path), "--rows", "20", "--seed", "9", "--out", str(path)]) == 0
    assert paths[0].read_text() == paths[1].read_text()


@pytest.mark.parametrize("command", ["fit", "analyze", "intervene", "fetch-autompg", "demo-autompg"])
def test_seed_is_refused_where_nothing_reads_it(files, tmp_path, capsys, command):
    scm_path, data_path, model_path = files
    cache = tmp_path / "cache"
    cache.mkdir()
    shutil.copy(AUTOMPG, cache / "auto-mpg.data")
    argv = {
        "fit": ["fit", "--data", str(data_path), "--target-index", "9"],
        "analyze": ["analyze", "--scm", str(scm_path), "--model", str(model_path)],
        "intervene": ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "1"],
        "fetch-autompg": ["fetch-autompg", "--cache-dir", str(cache)],
        "demo-autompg": ["demo-autompg", "--data-file", str(AUTOMPG)],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_intervene_takes_the_target_from_the_model(files, capsys):
    scm_path, _, model_path = files
    with pytest.raises(SystemExit) as exc:
        main(["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "1", "--target-index", "9"])
    assert exc.value.code == 1
    assert "--target-index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, change, message",
    [
        ("scm", {"edges": [1, 2]}, "edge must be a JSON object, got 1"),
        ("scm", {"noises": 5}, "noises must be an array, got 5"),
        ("scm", {"n": None}, None),
        ("model", {"predictor_indices": 5}, None),
        ("model", {"bias": 10**400}, None),
        ("sweep", {"n_dags": "3"}, None),
        ("sweep", {"d_values": 5}, None),
        ("sweep", {"datagen": {"n_roots": "x"}}, None),
        ("sweep", {"datagen": 7}, None),
        # int() would truncate each of these floats, and read true as 1.
        ("scm", {"n": 9.9}, None),
        ("scm", {"edges": [{"from": 1.7, "to": 2, "weight": 1.0}]}, None),
        ("scm", {"edges": [{"from": 1, "to": 2.0, "weight": 1.0}]}, None),
        ("model", {"predictor_indices": [1.7, 2.2], "coeffs": [1.0, 1.0]}, None),
        ("model", {"predictor_indices": [True, 2], "coeffs": [1.0, 1.0]}, None),
        ("model", {"target_index": 9.0}, None),
        ("model", {"coeffs": [[1.0] * 8]}, None),
        ("model", {"coeffs": [True] + [1.0] * 7}, None),
        # float() would read each of these as a number.
        ("model", {"bias": "0.5"}, None),
        ("scm", {"edges": [{"from": 1, "to": 2, "weight": True}]}, None),
        ("scm", {"noises": [{"family": "gaussian", "mean": "0.5", "stddev": 1.0}] * 9}, None),
        ("sweep", {"d_values": ["0.5", True]}, None),
        # float() of each character would read this as 1, 2.
        ("sweep", {"d_values": "12"}, None),
        # default_rng would raise TypeError on each of these seeds.
        ("gen-scm", {"seed": 1.5}, None),
        ("gen-scm", {"seed": "abc"}, None),
        ("gen-scm", {"seed": {"a": 1}}, None),
        # str() of each entry would read these as nine names.
        ("scm", {"names": "abcdefghi"}, None),
        ("scm", {"names": [[1], 2, 3, 4, 5, 6, 7, 8, 9]}, None),
        ("scm", DEEP, None),
        ("model", DEEP, None),
        ("sweep", DEEP, None),
        ("gen-scm", DEEP, None),
        ("scm", RawJson('{"n": 9,'), None),
        ("scm", {"noises": [{"family": "uniform", "lo": 0.0, "hi": 1.0, "mean": 5.0}] * 9}, None),
        # Unknown keys, which would otherwise be ignored.
        ("scm", {"nmes": list("abcdefghi")}, None),
        ("scm", {"edges": [{"from": 1, "to": 2, "weight": 1.0, "sign": -1}]}, None),
        ("model", {"note": "fitted"}, None),
        # Values the graph or the noise refuses.
        ("scm", {"noises": [{"family": "laplace", "scale": 1.0}] * 9}, None),
        ("scm", {"edges": [{"from": 1, "to": 2, "weight": 1.0}] * 2}, None),
        ("scm", {"edges": [{"from": 99, "to": 2, "weight": 1.0}]}, None),
        ("scm", {"edges": [{"from": 1, "to": 2, "weight": 1.0}, {"from": 2, "to": 1, "weight": 1.0}]},
         "cycle detected: 1 -> 2 -> 1"),
        # Entries that are not JSON objects, whose items a key check would read as keys.
        ("scm", {"edges": [[1, 2, 1.0]]}, "edge must be a JSON object, got [1, 2, 1.0]"),
        ("scm", {"edges": ["ab"]}, "edge must be a JSON object, got 'ab'"),
        ("scm", {"noises": [["gaussian", 0, 1]] * 9}, "noise must be a JSON object, got ['gaussian', 0, 1]"),
        ("scm", {"noises": [{"family": ["x"]}] * 9}, "family must be a string, got ['x']"),
        # Values where an array belongs, which iterating would split into characters or read as keys.
        ("scm", {"edges": 5}, "edges must be an array, got 5"),
        ("scm", {"edges": {"from": 1}}, "edges must be an array, got {'from': 1}"),
        ("scm", {"edges": "ab"}, "edges must be an array, got 'ab'"),
        ("scm", {"noises": "ab"}, "noises must be an array, got 'ab'"),
        # Values the SCM, the noise or the model refuses when built.
        ("scm", {"noises": [{"family": "uniform", "lo": -1.0, "hi": 1.0}] * 8}, "expected 9 noise specs, got 8"),
        ("scm", {"names": ["a"]}, "expected 9 names, got 1"),
        ("scm", {"noises": [{"family": "uniform", "lo": -1.0, "hi": float("inf")}] * 9},
         "noise parameters must be finite, got (-1.0, inf)"),
        ("model", {"kind": "tree"}, "unknown model kind 'tree'"),
        ("model", {"predictor_indices": [1, 1], "coeffs": [1.0, 1.0]}, "duplicate predictor indices"),
        # Refused before numpy allocates the n x n weights.
        ("scm", {"n": -1}, "n must be >= 0, got -1"),
    ],
    ids=[
        "edges", "noises", "n", "predictors", "bias", "n_dags", "d_values", "n_roots", "datagen",
        "n-float", "from-float", "to-float", "predictors-float", "predictors-true", "target-float",
        "coeffs-nested", "coeffs-true", "bias-string", "weight-true", "mean-string",
        "d_values-string-true", "d_values-string", "seed-float", "seed-string", "seed-object",
        "names-string", "names-nested", "scm-deep", "model-deep", "sweep-deep", "gen-scm-deep",
        "scm-not-json", "noise-unknown-key", "scm-unknown-key", "edge-unknown-key", "model-unknown-key",
        "noise-family", "duplicate-edge", "endpoint-out-of-range", "cycle",
        "edge-array", "edge-string", "noise-array", "family-array",
        "edges-number", "edges-object", "edges-string", "noises-string",
        "noises-one-short", "names-length", "noise-infinite", "model-kind", "predictors-duplicate",
        "n-negative",
    ],
)
def test_malformed_document_is_reported(files, tmp_path, capsys, document, change, message):
    scm_path, _, model_path = files
    paths = {"scm": scm_path, "model": model_path}
    bad = tmp_path / "bad.json"
    if document in paths:
        base = fileio.load_json(paths[document])
        paths[document] = bad
        argv = ["intervene", "--scm", str(paths["scm"]), "--model", str(paths["model"]), "--desired", "1"]
    else:
        base = {"n_dags": 1} if document == "sweep" else {}
        argv = [document, "--config", str(bad)]
    bad.write_text(change if isinstance(change, RawJson) else json.dumps({**base, **change}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    if message is not None:
        assert err == f"error: {bad}: {message}\n"


def test_main_keeps_no_state_between_calls(files, tmp_path, capsys):
    """Every call of main shares one parser, and no call changes what the next one does."""
    scm_path, _, model_path = files
    analyze = ["analyze", "--scm", str(scm_path), "--model", str(model_path)]
    demo = ["demo-autompg", "--data-file", str(AUTOMPG)]
    build_parser.cache_clear()
    assert main(analyze) == 0
    first_analyze = capsys.readouterr().out
    assert main(demo) == 0
    first_demo = capsys.readouterr().out
    # --out on one call does not redirect the next.
    ranking = tmp_path / "ranking.csv"
    assert main(analyze + ["--out", str(ranking)]) == 0
    assert capsys.readouterr().out == ""
    assert ranking.read_text() == first_analyze
    assert main(analyze) == 0
    assert capsys.readouterr().out == first_analyze
    # A usage error leaves nothing behind for the next call.
    with pytest.raises(SystemExit) as exc:
        main(["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "nan"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert main(analyze) == 0
    assert capsys.readouterr().out == first_analyze
    # Values given on one call do not become the defaults of the next.
    assert main(demo + ["--desired", "12", "40"]) == 0
    assert capsys.readouterr().out != first_demo
    assert main(demo) == 0
    assert capsys.readouterr().out == first_demo
    assert build_parser.cache_info().misses == 1
    assert build_parser.cache_info().hits == 7


def test_sweep_seed_option_overrides_the_config_seed(tmp_path):
    config_path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    config = SweepConfig(n_dags=2, n_train=50, n_post=50, datagen=DagGenConfig(n_roots=3, n_descendants=4), seed=1)
    config_path.write_text(json.dumps(fileio.fields_to_dict(config)))
    assert main(["sweep", "--config", str(config_path), "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text() == sweep_result_to_csv(run_sweep(dataclasses.replace(config, seed=7)))
    assert fileio.load_json(out.with_suffix(".manifest.json"))["config"]["seed"] == 7


def test_sweep_refuses_a_datagen_seed(tmp_path, capsys):
    # Each DAG draws from a seed spawned from the sweep's seed, so a datagen seed would go unread.
    config = tmp_path / "sweep.json"
    datagen = {"n_roots": 3, "n_descendants": 4, "seed": 7}
    config.write_text(json.dumps({"n_dags": 2, "n_train": 50, "n_post": 50, "datagen": datagen}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: datagen.seed must be null")


def test_observation_plan_equals_the_library_plan(files, tmp_path):
    scm_path, data_path, model_path = files
    observation = fileio.load_dataset(data_path).rows[0]
    obs_path, plan_path = tmp_path / "obs.json", tmp_path / "plan.json"
    obs_path.write_text(json.dumps(observation.tolist()))
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "1.5"]
    assert main(argv + ["--observation-file", str(obs_path), "--out", str(plan_path)]) == 0
    scm = fileio.scm_from_dict(fileio.load_json(scm_path))
    model = fileio.model_from_dict(fileio.load_json(model_path))
    i = select_intervention_target(augment_graph(scm.dag, model), model.predictor_indices)
    expected = observation_specific_plan(observation, scm.dag, model, i, 1.5)
    assert fileio.load_json(plan_path) == {**fileio.fields_to_dict(expected), "warnings": []}


# Dyadic weights and coefficients keep every plan number exact, so the bytes below do not depend on the BLAS.
STEER_SCM = {
    "n": 3,
    "edges": [
        {"from": 1, "to": 2, "weight": 2.0}, {"from": 1, "to": 3, "weight": 1.0}, {"from": 2, "to": 3, "weight": 0.5},
    ],
    "noises": [
        {"family": "gaussian", "mean": 1.0, "stddev": 1.0},
        {"family": "uniform", "lo": 0.0, "hi": 2.0},
        {"family": "constant", "value": 0.5},
    ],
}
STEER_MODEL = {"kind": "logistic", "bias": -0.5, "coeffs": [1.0, 0.5], "predictor_indices": [1, 2], "target_index": 3}

POPULATION_PLAN = """\
{
  "target_variable": 1,
  "value": 1.5,
  "desired_prediction": 3.0,
  "predicted_expectation": 3.0,
  "effects": [
    1.0,
    2.0,
    2.0
  ],
  "warnings": [
    "value 1.5 lies outside the observed range 0 .. 1 of variable 1"
  ]
}
"""

OBSERVATION_PLAN = """\
{
  "target_variable": 1,
  "value": 1.25,
  "desired_prediction": 3.0,
  "predicted_expectation": 3.0,
  "effects": [
    1.0,
    2.0,
    2.0
  ],
  "warnings": []
}
"""


@pytest.mark.parametrize(
    "option, content, plan, printed",
    [
        ("--data", "x1,x2,x3\n0,0,0\n1,1,1\n", POPULATION_PLAN, "do(X1 = 1.5) steers the expected prediction to 3\n"
         "naive per-equation value: 2\nwarning: value 1.5 lies outside the observed range 0 .. 1 of variable 1\n"),
        ("--observation-file", "[1.0, 4.0, 2.0]", OBSERVATION_PLAN,
         "do(X1 = 1.25) steers the expected prediction to 3\nnaive per-equation value: 1.5\n"),
    ],
    ids=["population", "observation"],
)
def test_plan_file_bytes_are_pinned(tmp_path, capsys, option, content, plan, printed):
    scm_path, model_path, extra, out = (tmp_path / name for name in ("scm.json", "model.json", "extra", "plan.json"))
    scm_path.write_text(json.dumps(STEER_SCM))
    model_path.write_text(json.dumps(STEER_MODEL))
    extra.write_text(content)
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "3", option, str(extra)]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == plan
    assert capsys.readouterr().out == printed


# SHA-256 of seeded outputs: a generated SCM, a sample of it under do(X3 = 1.5), and a
# sample with gaussian, uniform and constant noises. Any change to generation, drawing or
# the number formats shows here.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["gen-scm", "--seed", "1"], "ad5b6172f0c874941a9b7c5fee7d2d1a24a58e68050e781a2db0637004f8127f"),
        (["sample", "--scm", "{generated}", "--rows", "20", "--do", "3=1.5", "--seed", "2"],
         "0f23248ca7e6d84f1ede01705b7b007c10bae2a0c0e7e344de74bf14046869c2"),
        (["sample", "--scm", "{steer}", "--rows", "50", "--seed", "4"],
         "97310eba17e04590f6b330a394db2819bbca43b723cc74027fe638c5165f18d6"),
    ],
    ids=["gen-scm", "sample-do", "sample-families"],
)
def test_seeded_output_bytes_are_pinned(tmp_path, argv, digest):
    scm_paths = {"generated": tmp_path / "generated.json", "steer": tmp_path / "steer.json"}
    assert main(["gen-scm", "--seed", "1", "--out", str(scm_paths["generated"])]) == 0
    scm_paths["steer"].write_text(json.dumps(STEER_SCM))
    out = tmp_path / "out"
    assert main([a.format(**scm_paths) for a in argv] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture
def steer_files(tmp_path):
    """The SCM and model files of the pinned plans."""
    scm_path, model_path = tmp_path / "scm.json", tmp_path / "model.json"
    scm_path.write_text(json.dumps(STEER_SCM))
    model_path.write_text(json.dumps(STEER_MODEL))
    return ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "3"]


@pytest.mark.parametrize("header", ["x1,x2,x3,x4", "x1,x2", "x1"], ids=["wider", "narrower", "one-column"])
def test_data_of_another_width_is_reported(steer_files, tmp_path, capsys, header):
    data = tmp_path / "data.csv"
    width = header.count(",") + 1
    data.write_text(header + "\n" + ",".join(["0"] * width) + "\n")
    assert main(steer_files + ["--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {data}: expected 3 columns, one per variable, found {width}\n"


def test_non_predictor_index_prints_no_naive_value(tmp_path, capsys):
    # The model reads X2 alone; X1 moves it through the edge 1 -> 2 but has no coefficient.
    scm_path, model_path = tmp_path / "scm.json", tmp_path / "model.json"
    scm_path.write_text(json.dumps(STEER_SCM))
    model_path.write_text(json.dumps({**STEER_MODEL, "coeffs": [1.0], "predictor_indices": [2]}))
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "3", "--intervene-index", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "do(X1 = 1.25) steers the expected prediction to 3\n"


@pytest.mark.parametrize(
    "index, message",
    [
        ("3", "variable 3 is the prediction target; intervene on a different variable"),
        ("4", "variable index 4 out of range 1..3"),
        ("0", "variable index 0 out of range 1..3"),
    ],
    ids=["target", "beyond-n", "zero"],
)
def test_unplannable_index_exits_2(steer_files, tmp_path, capsys, index, message):
    # The population path, then the observation path: each refuses the index before reading x_i.
    observation = tmp_path / "obs.json"
    observation.write_text("[1.0, 4.0, 2.0]")
    for extra in ([], ["--observation-file", str(observation)]):
        assert main(steer_files + ["--intervene-index", index] + extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_plan_that_overflows_exits_2(tmp_path, capsys):
    # With coefficients (0.5, 0.5) the total effects are 1.5 on X1 and 0.5 on X2, and s(mu) = 1.5.
    scm_path, model_path, out = tmp_path / "scm.json", tmp_path / "model.json", tmp_path / "plan.json"
    scm_path.write_text(json.dumps(STEER_SCM))
    model_path.write_text(json.dumps({**STEER_MODEL, "coeffs": [0.5, 0.5]}))
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "1.7e308", "--out", str(out)]
    assert main(argv + ["--intervene-index", "2"]) == 2
    assert capsys.readouterr() == ("", "error: the value of variable 2 that steers the prediction to 1.7e+308 is not finite\n")
    assert not out.exists()
    # X1's plan is finite; its naive value, (d - s) / 0.5 from mu_1, is not, so that line is left out.
    assert main(argv + ["--intervene-index", "1"]) == 0
    assert capsys.readouterr() == ("do(X1 = 1.13333333333e+308) steers the expected prediction to 1.7e+308\n", "")


# The chain 1 -> 2 -> 3 with weights 1e200: column 1 of (I - W)^-1 is (1, 1e200, inf).
OVERFLOW_SCM = {
    "n": 3,
    "edges": [{"from": 1, "to": 2, "weight": 1e200}, {"from": 2, "to": 3, "weight": 1e200}],
    "noises": [{"family": "uniform", "lo": -1.0, "hi": 1.0}] * 3,
}


@pytest.mark.parametrize(
    "coeffs, predictors, ranking",
    [([1.0, 1.0], [1, 3], ["1,x1,inf", "3,x3,1"]), ([1.0], [1], ["1,x1,1"])],
    ids=["infinite", "nan"],
)
def test_plan_whose_effect_is_not_finite_exits_2(tmp_path, capsys, coeffs, predictors, ranking):
    # With X3 a predictor the effect of X1 is inf; without it alpha overflows off the predictors
    # and w . alpha = 0 * inf is nan. Either way no finite value steers the prediction, and no
    # numpy warning escapes (pytest turns one into an error).
    scm_path, model_path, out = tmp_path / "scm.json", tmp_path / "model.json", tmp_path / "plan.json"
    scm_path.write_text(json.dumps(OVERFLOW_SCM))
    model = {"kind": "logistic", "bias": 0.0, "coeffs": coeffs, "predictor_indices": predictors, "target_index": 2}
    model_path.write_text(json.dumps(model))
    files_argv = ["--scm", str(scm_path), "--model", str(model_path)]
    assert main(["intervene", *files_argv, "--desired", "3", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: the effect of variable 1 on the prediction is not finite\n")
    assert not out.exists()
    assert main(["analyze", *files_argv]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ranking


def test_uniform_noise_whose_bounds_sum_past_the_float_range_plans(tmp_path, capsys):
    # E[X2] = 1.35e308, though lo + hi overflows; the model reads it as 1e-308 * X2 = 1.35.
    noises = [{"family": "constant", "value": 0.0}, {"family": "uniform", "lo": 1e308, "hi": 1.7e308},
              {"family": "gaussian", "mean": 0.0, "stddev": 1.0}]
    model = {"kind": "linear", "bias": 0.0, "coeffs": [1e-308, 1.0], "predictor_indices": [2, 3], "target_index": 1}
    scm_path, model_path = tmp_path / "scm.json", tmp_path / "model.json"
    scm_path.write_text(json.dumps({"n": 3, "edges": [], "noises": noises}))
    model_path.write_text(json.dumps(model))
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", "2", "--intervene-index", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "do(X3 = 0.65) steers the expected prediction to 2"


def test_one_variable_sweep_counts_every_dag_as_failed(tmp_path, capsys):
    # The single variable is the target, so no DAG has a candidate to intervene on.
    config = tmp_path / "sweep.json"
    datagen = {"n_roots": 1, "n_descendants": 0}
    config.write_text(json.dumps({"n_dags": 2, "n_train": 50, "n_post": 50, "datagen": datagen}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: all 2 DAGs failed (AllEffectsZero: 2); nothing to report\n"


@pytest.mark.parametrize("command", ["analyze", "intervene"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"coeffs": [1.0], "predictor_indices": [99]}, "predictor index 99 out of range 1..70"),
        ({"target_index": 99}, "target index 99 out of range 1..70"),
    ],
    ids=["predictor", "target"],
)
def test_model_index_beyond_the_scm_names_both_files(tmp_path, capsys, command, change, message):
    scm_path, model_path = tmp_path / "scm.json", tmp_path / "model.json"
    assert main(["gen-scm", "--seed", "1", "--out", str(scm_path)]) == 0
    model_path.write_text(json.dumps({"kind": "logistic", "bias": 0.0, "coeffs": [1.0], "predictor_indices": [2],
                                      "target_index": 1, **change}))
    argv = [command, "--scm", str(scm_path), "--model", str(model_path)]
    assert main(argv + (["--desired", "1"] if command == "intervene" else [])) == 2
    assert capsys.readouterr().err == f"error: {model_path}: {message}, the variables of {scm_path}\n"


@pytest.mark.parametrize("desired, warned", [("0", False), ("40", True)])
def test_value_outside_the_data_is_warned(files, capsys, desired, warned):
    scm_path, data_path, model_path = files
    argv = ["intervene", "--scm", str(scm_path), "--model", str(model_path), "--desired", desired]
    assert main(argv + ["--data", str(data_path)]) == 0
    assert ("lies outside the observed range" in capsys.readouterr().out) == warned


def test_fit_linear_on_chosen_predictors(files, tmp_path):
    _, data_path, _ = files
    out = tmp_path / "linear.json"
    argv = ["fit", "--data", str(data_path), "--kind", "linear", "--target-index", "9", "--predictors", "1,2"]
    assert main(argv + ["--out", str(out)]) == 0
    expected = fit_linear(fileio.load_dataset(data_path), 9, (1, 2))
    assert fileio.load_json(out) == fileio.model_to_dict(expected)


@pytest.mark.parametrize(
    "document, entry, key",
    [
        ("model", (), "bias"),
        ("model", (), "kind"),
        ("scm", (), "noises"),
        ("scm", ("edges", 0), "weight"),
        ("scm", ("noises", 0), "family"),
        ("structure", (), "n"),
        ("scm", (), "edges"),
    ],
    ids=["bias", "kind", "noises", "weight", "family", "structure-n", "edges"],
)
def test_missing_key_names_the_file_and_the_key(files, tmp_path, capsys, document, entry, key):
    scm_path, _, model_path = files
    paths = {"scm": scm_path, "model": model_path, "structure": autompg.bundled_structure_path()}
    doc = fileio.load_json(paths[document])
    part = doc
    for step in entry:
        part = part[step]
    del part[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if document == "structure":
        argv = ["demo-autompg", "--structure", str(bad), "--data-file", str(AUTOMPG)]
    else:
        paths[document] = bad
        argv = ["analyze", "--scm", str(paths["scm"]), "--model", str(paths["model"])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: missing key {key!r}\n"


@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_fit_refuses_the_target_as_a_predictor(files, capsys, kind):
    _, data_path, _ = files
    argv = ["fit", "--data", str(data_path), "--kind", kind, "--target-index", "1", "--predictors", "1,2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: target variable 1 cannot be a predictor\n")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"names": ["mpg"]}, "{bad}: expected 6 names, got 1"),
        ({"n": 5, "names": ["cylinders", "weight", "displacement", "horsepower", "acceleration"]},
         "structure has 5 variables, data has 6"),
        ({"names": ["cylinders", "weight", "displacement", "horsepower", "acceleration", "MPG"]},
         "structure variables ('cylinders', 'weight', 'displacement', 'horsepower', 'acceleration', 'MPG') "
         "do not match data columns ('cylinders', 'weight', 'displacement', 'horsepower', 'acceleration', 'mpg')"),
    ],
    ids=["names-length", "fewer-variables", "other-names"],
)
def test_demo_structure_that_does_not_fit_the_data_exits_2(tmp_path, capsys, change, message):
    doc = fileio.load_json(autompg.bundled_structure_path())
    doc.update(change)
    doc["edges"] = [e for e in doc["edges"] if e["to"] <= doc["n"]]
    bad = tmp_path / "structure.json"
    bad.write_text(json.dumps(doc))
    assert main(["demo-autompg", "--structure", str(bad), "--data-file", str(AUTOMPG)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(bad=bad)}\n")


@pytest.mark.parametrize("spec", ["1.5", "a,b", "1,1"])
def test_malformed_predictors_is_a_usage_error(files, capsys, spec):
    _, data_path, _ = files
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(data_path), "--target-index", "9", "--predictors", spec])
    assert exc.value.code == 1
    assert "--predictors" in capsys.readouterr().err


def _gaussian(stddev):
    return {"family": "gaussian", "mean": 0.0, "stddev": stddev}


def _csv_text(rows) -> str:
    out = io.StringIO()
    np.savetxt(out, rows, delimiter=",", header="x1,x2,x3", comments="")
    return out.getvalue()


@pytest.mark.parametrize(
    "name, text, argv, pattern",
    [
        (
            "bad-seed.json",
            '{"seed": 1.5}',
            ["gen-scm", "--config", "bad-seed.json"],
            r"error: bad-seed\.json: DagGenConfig\.seed must be an integer or null, got 1\.5",
        ),
        # A CSV field past the csv module's limit.
        (
            "big.csv",
            "x1,x2\n" + "1" * 200_000 + ",0\n",
            ["fit", "--data", "big.csv", "--target-index", "1"],
            r"error: big\.csv: .+",
        ),
        # Draws of N(0, 1e308) overflow when scaled and again through the edge.
        (
            "huge.json",
            json.dumps(
                {"n": 2, "edges": [{"from": 1, "to": 2, "weight": 2.0}], "noises": [_gaussian(1e308), _gaussian(1.0)]}
            ),
            ["sample", "--scm", "huge.json", "--rows", "1000"],
            r"error: .+",
        ),
        # Design entries of 1e200 overflow the logistic fit's Hessian.
        (
            "huge.csv",
            _csv_text(np.random.default_rng(0).normal(size=(40, 3)) * 1e200),
            ["fit", "--data", "huge.csv", "--kind", "logistic", "--target-index", "3"],
            r"error: .+",
        ),
    ],
    ids=["bad-seed", "long-field", "sample-overflow", "hessian-overflow"],
)
def test_refusal_in_a_process_is_one_error_line(tmp_path, name, text, argv, pattern):
    # Only a real process shows the exit status and that no numpy warning and no traceback
    # reaches stderr. It imports the copy of the package these tests import.
    (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(causalsteer.__file__).parent.parent)}
    command = [sys.executable, "-m", "causalsteer", *argv]
    run = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert re.fullmatch(pattern + "\n", run.stderr), run.stderr
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr


def test_importing_the_cli_loads_no_network_stack():
    # Only fetch-autompg and demo-autompg download, so only they may load the network
    # stack. Compared against what the process had loaded before, since site hooks differ.
    script = """if True:
        import sys, numpy, argparse, json, csv
        before = set(sys.modules)
        import causalsteer, causalsteer.cli
        print(" ".join(sorted(set(sys.modules) - before)))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(causalsteer.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "causalsteer.cli" in loaded
    assert loaded.isdisjoint({"ssl", "socket", "http.client", "urllib.request", "email"}), loaded
