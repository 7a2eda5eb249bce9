import json

import numpy as np
import pytest

from causalsteer import Dag, DagGenConfig, Dataset, NoiseSpec, PredictionModel, Scm, SweepConfig, generate_random_scm
from causalsteer import fileio
from causalsteer.causal import InterventionPlan
from causalsteer.errors import CycleDetected, InvalidConfig
from causalsteer.scm import _row_blocks


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

    @pytest.mark.parametrize(
        "edge, error, message",
        [
            ({"from": 1, "to": 2, "weight": True}, TypeError, "weight must be a number, got True"),
            ({"from": 1, "to": 2.0, "weight": 1.0}, TypeError, "to must be an integer, got 2.0"),
            ({"from": 1, "to": 2, "weight": "0.5"}, TypeError, "weight must be a number, got '0.5'"),
            ({"from": 1, "to": 2}, KeyError, "'weight'"),
            ({"from": 1, "to": 2, "wieght": 1.0}, InvalidConfig, "unknown edge key(s): 'wieght'"),
            ({"from": 1, "to": 2, "weight": 1.0, "sign": -1}, InvalidConfig, "unknown edge key(s): 'sign'"),
            ([1, 2, 1.0], TypeError, "edge must be a JSON object, got [1, 2, 1.0]"),
            ({"from": 1, "to": 2, "weight": 10**400}, OverflowError, "int too large to convert to float"),
        ],
        ids=["bool-weight", "float-endpoint", "string-weight", "missing-key", "misspelled-key", "extra-key",
             "non-object", "huge-weight"],
    )
    @pytest.mark.parametrize("later", [[], [{"from": 9, "to": "x"}]], ids=["alone", "before-another-fault"])
    def test_bulk_edge_check_names_the_first_faulty_edge(self, edge, error, message, later):
        # Valid edges before the faulty one; a later fault, if any, must not be named.
        edges = [{"from": 1, "to": 2, "weight": 1.0}, {"from": 2, "to": 3, "weight": 2}, edge, *later]
        with pytest.raises(error) as exc:
            fileio.dag_from_dict({"n": 3, "edges": edges})
        assert str(exc.value) == message

    def test_bulk_edge_decode_equals_the_per_edge_decode(self):
        edges = [{"from": 1, "to": 2, "weight": 3}, {"weight": -0.5, "to": 3, "from": 2}]
        decoded = fileio._edges(edges)
        assert decoded == [fileio._edge(e) for e in edges] == [(1, 2, 3.0), (2, 3, -0.5)]
        assert [type(w) for _, _, w in decoded] == [float, float]
        assert fileio.dag_from_dict({"n": 3, "edges": edges}).weights[1, 0] == 3.0

    @pytest.mark.parametrize(
        "value, ftype, message",
        [
            ([1.0, 2, True, "x"], float, "coeffs must be a number, got True"),
            ([1, 2.0, "x"], int, "coeffs must be an integer, got 2.0"),
            (["a", 1, None], str, "coeffs must be a string, got 1"),
        ],
        ids=["float", "int", "str"],
    )
    def test_json_array_names_its_first_wrong_entry(self, value, ftype, message):
        with pytest.raises(TypeError) as exc:
            fileio._json_array(value, ftype, "coeffs")
        assert str(exc.value) == message
        assert fileio._json_array(value[:1], ftype, "coeffs") == value[:1]

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
    return repr((scm.noises, list(_row_blocks(scm, scm.n))))


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
            ([gaussian(0.0, 1.0)] * 2 + [gaussian(-0.0, 1.0), gaussian(0.0, 1.0)], 1),
            ([{"family": "uniform", "lo": -1, "hi": 1}, {"hi": 1, "lo": -1, "family": "uniform"}] * 2, 1),
        ],
        ids=["true-after-1", "negative-zero-stddev", "negative-zero-mean-one-run", "permuted-keys"],
    )
    def test_memo_equals_per_object_decode(self, noises, expected):
        doc = {"n": len(noises), "edges": [], "noises": noises}
        got = decoded_or_error(fileio.scm_from_dict, doc)
        assert got == decoded_or_error(decode_each_noise, doc)
        if isinstance(expected, str):
            assert got == expected
        else:
            scm = fileio.scm_from_dict(doc)
            assert len(list(_row_blocks(scm, scm.n))) == expected


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
        model = PredictionModel("linear", 0.0, np.array([1.0]), (1,), 2, converged=False, n_iter=7)
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


class TestJsonWriter:
    def test_without_a_path_writes_to_stdout(self, capsys):
        fileio.save_json({"a": [1, 2.5]}, None)
        assert capsys.readouterr().out == '{\n  "a": [\n    1,\n    2.5\n  ]\n}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_refused_and_nothing_written(self, tmp_path, value):
        # Strict JSON has no NaN or Infinity, which json.dumps would otherwise write.
        out = tmp_path / "doc.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            fileio.save_json({"effects": [1.0, value]}, out)
        assert not out.exists()


# Names csv_text must quote: a comma, a quote and a newline.
QUOTED_NAMES = ("a,b", 'q"x', "c\nd")


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rows = np.array([[1.0, 2.5, 0.0], [3.25, -4.0, 1e-300]])
        path = tmp_path / "data.csv"
        for names in (("a", "b", "c"), QUOTED_NAMES):
            path.write_text(fileio.dataset_to_csv(Dataset(rows, names)))
            restored = fileio.load_dataset(path)
            assert restored.names == names
            assert (restored.rows == rows).all()

    def test_quoted_header(self):
        assert fileio.dataset_to_csv(Dataset(np.zeros((1, 3)), QUOTED_NAMES)).startswith('"a,b","q""x","c\nd"\n')

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
        for names in (None, (*QUOTED_NAMES, "e")):
            path.write_text(fileio.dataset_to_csv(Dataset(rows, names)))
            restored = fileio.load_dataset(path)
            assert restored.names == (names or ("x1", "x2", "x3", "x4"))
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
