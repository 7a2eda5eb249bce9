import json

import numpy as np
import pytest

from causalsteer import Dag, DagGenConfig, Dataset, NoiseSpec, PredictionModel, Scm, SweepConfig, generate_random_scm
from causalsteer import fileio
from causalsteer.causal import InterventionPlan
from causalsteer.errors import CycleDetected, InvalidConfig


class TestGraphDocuments:
    def test_round_trip(self, seven_vertex_dag):
        doc = fileio.dag_to_dict(seven_vertex_dag)
        restored = fileio.dag_from_dict(doc)
        assert (restored.weights == seven_vertex_dag.weights).all()

    def test_names_preserved(self):
        dag = Dag(np.zeros((2, 2)), names=("a", "b"))
        assert fileio.dag_from_dict(fileio.dag_to_dict(dag)).names == ("a", "b")

    def test_duplicate_edges_rejected(self):
        doc = {"n": 2, "edges": [{"from": 1, "to": 2, "weight": 1.0},
                                 {"from": 1, "to": 2, "weight": 2.0}]}
        with pytest.raises(ValueError, match="duplicate"):
            fileio.dag_from_dict(doc)

    def test_cyclic_document_rejected(self):
        doc = {"n": 2, "edges": [{"from": 1, "to": 2, "weight": 1.0},
                                 {"from": 2, "to": 1, "weight": 1.0}]}
        with pytest.raises(CycleDetected):
            fileio.dag_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"n": 2, "edges": [], "nmes": ["a", "b"]}, "nmes"),
            ({"n": 2, "edges": [], "noises": []}, "noises"),
            ({"n": 2, "edges": [{"from": 1, "to": 2, "weight": 1.0, "sign": -1}]}, "sign"),
        ],
        ids=["top-level", "scm-key", "edge"],
    )
    def test_unknown_keys_rejected(self, doc, key):
        with pytest.raises(InvalidConfig, match=repr(key)):
            fileio.dag_from_dict(doc)

    def test_edge_types_are_checked_before_endpoints(self):
        # Every edge is decoded before any endpoint is checked, so a later type fault wins.
        doc = {"n": 2, "edges": [{"from": 1, "to": 3, "weight": 1.0},
                                 {"from": 1.5, "to": 2, "weight": 1.0}]}
        with pytest.raises(TypeError, match="from must be an integer, got 1.5"):
            fileio.dag_from_dict(doc)

    def test_one_based_orientation(self):
        # edge 1 -> 2 must land in weights[1, 0] (strength of 1 into 2)
        dag = fileio.dag_from_dict({"n": 2, "edges": [{"from": 1, "to": 2, "weight": 3.0}]})
        assert dag.weights[1, 0] == 3.0
        assert dag.weights[0, 1] == 0.0


class TestScmDocuments:
    def test_round_trip_all_noise_families(self):
        dag = Dag(np.array([[0.0, 0.0], [1.5, 0.0]]), names=("u", "v"))
        scm = Scm(dag, (NoiseSpec.gaussian(1.0, 2.0), NoiseSpec.uniform(-1.0, 3.0)))
        restored = fileio.scm_from_dict(fileio.scm_to_dict(scm))
        assert restored.noises == scm.noises
        assert (restored.dag.weights == dag.weights).all()

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec.gaussian(0.0, 2.0), NoiseSpec.uniform(-0.5, 2.5), NoiseSpec.constant(0.25)],
        ids=["gaussian", "uniform", "constant"],
    )
    def test_each_noise_family_survives_json_text(self, chain3, noise):
        scm = Scm(chain3, (noise,) * 3)
        restored = fileio.scm_from_dict(json.loads(json.dumps(fileio.scm_to_dict(scm))))
        assert restored.noises == scm.noises

    def test_generated_scm_survives_round_trip(self):
        scm = generate_random_scm(DagGenConfig(n_roots=3, n_descendants=7, seed=0))
        restored = fileio.scm_from_dict(fileio.scm_to_dict(scm))
        assert (restored.dag.weights == scm.dag.weights).all()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            fileio.noise_from_dict({"family": "cauchy", "scale": 1.0})


def decode_each_noise(doc: dict):
    """``scm_from_dict(doc)`` with every noise object decoded on its own."""
    dag = fileio.dag_from_dict({k: v for k, v in doc.items() if k != "noises"})
    return Scm(dag, tuple(fileio.noise_from_dict(d) for d in doc["noises"]))


def decoded_or_error(decode, doc: dict) -> str:
    """The repr of the decoded noises and runs (which keeps -0.0 apart from 0.0), or the error."""
    try:
        scm = decode(doc)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((scm.noises, scm.noise_runs))


def gaussian(mean, stddev) -> dict:
    return {"family": "gaussian", "mean": mean, "stddev": stddev}


class TestNoiseDecodedOncePerObject:
    """scm_from_dict decodes each distinct noise object once; the result is the per-object decode."""

    @pytest.mark.parametrize(
        "noises, expected",
        [
            ([{"family": "constant", "value": 1}] * 2 + [{"family": "constant", "value": True}],
             "TypeError: value must be a number, got True"),
            ([gaussian(0.0, 0.0), gaussian(0.0, -0.0)],
             "ValueError: gaussian noise needs (mean, stddev) with stddev >= 0, got (0.0, -0.0)"),
            ([gaussian(0.0, 1.0)] * 2 + [gaussian(-0.0, 1.0), gaussian(0.0, 1.0)], 3),
            ([{"family": "uniform", "lo": -1, "hi": 1}, {"hi": 1, "lo": -1, "family": "uniform"}] * 2, 1),
        ],
        ids=["true-after-1", "negative-zero-stddev", "negative-zero-mean-splits-run", "permuted-keys"],
    )
    def test_memo_equals_per_object_decode(self, noises, expected):
        doc = {"n": len(noises), "edges": [], "noises": noises}
        got = decoded_or_error(fileio.scm_from_dict, doc)
        assert got == decoded_or_error(decode_each_noise, doc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert len(fileio.scm_from_dict(doc).noise_runs) == expected


class TestModelDocuments:
    def test_round_trip(self):
        model = PredictionModel("logistic", -0.25, np.array([1.5, -2.0]), (1, 3), 2)
        restored = fileio.model_from_dict(fileio.model_to_dict(model))
        assert restored.kind == "logistic"
        assert restored.bias == -0.25
        assert restored.coeffs.tolist() == [1.5, -2.0]
        assert restored.predictor_indices == (1, 3)
        assert restored.target_index == 2

    def test_fit_metadata_not_serialized(self):
        model = PredictionModel("linear", 0.0, np.array([1.0]), (1,), 2,
                                converged=False, n_iter=7, loglik_trace=(1.0, 2.0))
        doc = fileio.model_to_dict(model)
        assert set(doc) == {"kind", "bias", "coeffs", "predictor_indices", "target_index"}


class TestPlanDocuments:
    def test_plan_export_fields(self):
        plan = InterventionPlan(2, 1.5, 6.0, 6.0, np.array([0.0, 1.0, 0.5]))
        doc = fileio.fields_to_dict(plan)
        assert list(doc) == ["target_variable", "value", "desired_prediction", "predicted_expectation", "effects"]
        assert doc["target_variable"] == 2
        assert doc["value"] == 1.5
        assert doc["effects"] == [0.0, 1.0, 0.5]
        json.dumps(doc)  # must be serializable as-is


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rows = np.array([[1.0, 2.5], [3.25, -4.0]])
        path = tmp_path / "data.csv"
        fileio.save_dataset(Dataset(rows, ("a", "b")), path)
        restored = fileio.load_dataset(path)
        assert restored.names == ("a", "b")
        assert (restored.rows == rows).all()

    def test_default_headers(self):
        text = fileio.dataset_to_csv(Dataset(np.zeros((1, 3))))
        assert text.splitlines()[0] == "x1,x2,x3"

    def test_numeric_formatting(self):
        text = fileio.dataset_to_csv(Dataset(np.array([[1 / 3]])))
        assert text.splitlines()[1] == f"{1 / 3:.12g}"

    def test_twelve_digit_round_trip_accuracy(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(20, 4)) * 10.0 ** rng.integers(-6, 6, size=(20, 4))
        path = tmp_path / "data.csv"
        fileio.save_dataset(Dataset(rows), path)
        restored = fileio.load_dataset(path)
        assert restored.rows == pytest.approx(rows, rel=1e-11)


def _through_json(config):
    """``config`` written by ``fields_to_dict``, through JSON text, and read back by ``fields_from_dict``."""
    return fileio.fields_from_dict(type(config), json.loads(json.dumps(fileio.fields_to_dict(config))))


class TestConfigDocuments:
    def test_datagen_round_trip(self):
        for seed in (3, None):
            config = DagGenConfig(n_roots=5, n_descendants=9, seed=seed)
            assert _through_json(config) == config

    def test_sweep_round_trip(self):
        datagen = DagGenConfig(n_roots=2, n_descendants=4)
        config = SweepConfig(d_values=(-1.0, 0.5, 3.0), n_dags=4, datagen=datagen, seed=7)
        assert _through_json(config) == config
