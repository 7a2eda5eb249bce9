"""Loading and saving of graphs, SCMs, models, datasets, and plans.

All documents are JSON with 1-based variable indices; datasets are headered
CSV with one column per variable and %.12g numeric formatting.
"""

import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

from .causal import InterventionPlan
from .datagen import DagGenConfig
from .errors import InvalidConfig
from .graph import Dag
from .models import PredictionModel
from .scm import Dataset, NoiseSpec, Scm


# The JSON values a config field of each scalar type accepts; true is not an int.
_JSON_SCALARS = {int: (int,), float: (int, float), bool: (bool,)}


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else TypeError: int() would truncate 2.7 and accept true."""
    if type(value) not in _JSON_SCALARS[int]:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _json_float(value, name: str) -> float:
    """``float(value)`` if it is a JSON number, else TypeError: float() would accept "0.5" and true."""
    if type(value) not in _JSON_SCALARS[float]:
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def dag_to_dict(dag: Dag) -> dict:
    edges = [
        {"from": int(j) + 1, "to": int(i) + 1, "weight": float(dag.weights[i, j])}
        for i, j in np.argwhere(dag.weights != 0.0)
    ]
    edges.sort(key=lambda e: (e["from"], e["to"]))
    doc = {"n": dag.n, "edges": edges}
    if dag.names is not None:
        doc["names"] = list(dag.names)
    return doc


def dag_from_dict(doc: dict) -> Dag:
    return Dag.from_edges(
        _json_int(doc["n"], "n"),
        (
            (_json_int(e["from"], "from"), _json_int(e["to"], "to"), _json_float(e["weight"], "weight"))
            for e in doc.get("edges", [])
        ),
        doc.get("names"),
    )


_NOISE_FIELDS = {"gaussian": ("mean", "stddev"), "uniform": ("lo", "hi"), "constant": ("value",)}


def noise_to_dict(spec: NoiseSpec) -> dict:
    doc = {"family": spec.family}
    doc.update(zip(_NOISE_FIELDS[spec.family], spec.params))
    return doc


def noise_from_dict(doc: dict) -> NoiseSpec:
    family = doc["family"]
    if family not in _NOISE_FIELDS:
        raise ValueError(f"unknown noise family {family!r}")
    return NoiseSpec(family, tuple(_json_float(doc[k], k) for k in _NOISE_FIELDS[family]))


def scm_to_dict(scm: Scm) -> dict:
    doc = dag_to_dict(scm.dag)
    doc["noises"] = [noise_to_dict(s) for s in scm.noises]
    return doc


def scm_from_dict(doc: dict) -> Scm:
    return Scm(dag_from_dict(doc), tuple(noise_from_dict(d) for d in doc["noises"]))


def model_to_dict(model: PredictionModel) -> dict:
    return {
        "kind": model.kind,
        "bias": model.bias,
        "coeffs": [float(c) for c in model.coeffs],
        "predictor_indices": list(model.predictor_indices),
        "target_index": model.target_index,
    }


def model_from_dict(doc: dict) -> PredictionModel:
    coeffs = doc["coeffs"]
    if not isinstance(coeffs, list) or not all(type(c) in _JSON_SCALARS[float] for c in coeffs):
        raise TypeError(f"coeffs must be a flat array of numbers, got {coeffs!r}")
    return PredictionModel(
        doc["kind"],
        _json_float(doc["bias"], "bias"),
        np.asarray(coeffs, dtype=float),
        tuple(_json_int(i, "predictor_indices") for i in doc["predictor_indices"]),
        _json_int(doc["target_index"], "target_index"),
    )


def plan_to_dict(plan: InterventionPlan) -> dict:
    return {
        "target_variable": plan.target_variable,
        "value": plan.value,
        "desired_prediction": plan.desired_prediction,
        "predicted_expectation": plan.predicted_expectation,
        "effects": [float(a) for a in plan.effects],
        "warnings": list(plan.warnings),
    }


def known_fields(cls, doc) -> dict:
    """A copy of ``doc``, checked against the fields of the dataclass ``cls``.

    Raises InvalidConfig on a key that is not a field, and TypeError when
    ``doc`` is not an object or a scalar field holds a value of another type.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise InvalidConfig(f"unknown {cls.__name__} key(s): {', '.join(map(repr, unknown))}")
    for name, value in doc.items():
        if type(value) not in _JSON_SCALARS.get(types[name], (type(value),)):
            raise TypeError(f"{cls.__name__}.{name} must be {types[name].__name__}, got {value!r}")
    return dict(doc)


def datagen_config_from_dict(doc: dict) -> DagGenConfig:
    kwargs = known_fields(DagGenConfig, doc)
    if "noise" in kwargs:
        kwargs["noise"] = noise_from_dict(kwargs["noise"])
    return DagGenConfig(**kwargs)


def fields_to_dict(config, **encoded) -> dict:
    """The fields of the dataclass ``config`` in declaration order, ``encoded`` replacing some values.

    The writing half of ``known_fields``: a field added to the dataclass
    appears in every document without being listed here.
    """
    return {f.name: encoded.get(f.name, getattr(config, f.name)) for f in dataclasses.fields(config)}


def datagen_config_to_dict(config: DagGenConfig) -> dict:
    return fields_to_dict(config, noise=noise_to_dict(config.noise))


def save_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_json(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def load_document(path, decode):
    """``decode(load_json(path))``, a missing or mistyped field reported as ValueError naming ``path``.

    A list where a number belongs, ``null`` for a count or an integer too
    large for a float surfaces from the decoders as TypeError or OverflowError,
    an absent key as KeyError.
    """
    doc = load_json(path)
    try:
        return decode(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def dataset_to_csv(data: Dataset) -> str:
    names = data.names or tuple(f"x{k + 1}" for k in range(data.n))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for row in data.rows:
        writer.writerow([f"{v:.12g}" for v in row])
    return out.getvalue()


def save_dataset(data: Dataset, path) -> None:
    Path(path).write_text(dataset_to_csv(data))


def load_dataset(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader]
    if not rows:
        raise ValueError(f"{path}: the file has no data rows")
    return Dataset(np.asarray(rows, dtype=float), tuple(header))
