"""Loading and saving of graphs, SCMs, models, configs, datasets, and plans.

All documents are JSON with 1-based variable indices; datasets are headered
CSV with one column per variable and %.12g numeric formatting. ``csv_text``
is the one CSV writer of the package, and ``naming`` the one place a file
name enters an error message, here and in the CLI.
"""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .datagen import Seed
from .errors import CausalSteerError, InvalidConfig
from .graph import Dag
from .models import PredictionModel
from .scm import NOISE_FAMILIES, Dataset, NoiseSpec, Scm


# The JSON values a field of each scalar type accepts, and their name; true is not an int.
_JSON_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    Seed: ((int, type(None)), "an integer or null"),
}


def _json_scalar(value, ftype, name: str):
    """``value`` if it is JSON of the scalar type ``ftype``, else TypeError.

    Checked, not converted: int() would truncate 2.7, float() accept "0.5"
    and true, and str() read [1] as a name.
    """
    accepted, what = _JSON_SCALARS[ftype]
    if type(value) not in accepted:
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return value


def _json_int(value, name: str) -> int:
    return _json_scalar(value, int, name)


def _json_float(value, name: str) -> float:
    return float(_json_scalar(value, float, name))


def _json_list(value, name: str) -> list:
    """``value`` if it is a JSON array, else TypeError: iterating would split "abc" or read an object's keys."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be an array, got {value!r}")
    return value


def _json_array(value, ftype, name: str) -> list:
    """``value`` if it is a JSON array of ``ftype`` scalars, else TypeError naming the first that is not."""
    if set(map(type, _json_list(value, name))) <= set(_JSON_SCALARS[ftype][0]):
        return value
    return [_json_scalar(v, ftype, name) for v in value]


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


_DAG_KEYS = ("n", "edges", "names")
_EDGE_KEYS = ("from", "to", "weight")


def _edge(doc) -> tuple[int, int, float]:
    _reject_unknown_keys(doc, _EDGE_KEYS, "edge")
    return _json_int(doc["from"], "from"), _json_int(doc["to"], "to"), _json_float(doc["weight"], "weight")


def _edges(docs: list) -> list[tuple[int, int, float]]:
    """The ``(from, to, weight)`` triples of a JSON array of edge objects.

    Checked in bulk: every edge a dict with exactly the three keys, integer
    endpoints and a number weight. Only when that fails is each edge decoded
    by ``_edge`` in order, so the error names the first faulty one.
    """
    if set(map(type, docs)) <= {dict} and set(map(len, docs)) <= {3}:
        try:
            frm, to, weight = ([d[k] for d in docs] for k in _EDGE_KEYS)
        except KeyError:
            pass
        else:
            if set(map(type, frm + to)) <= {int} and set(map(type, weight)) <= {int, float}:
                return list(zip(frm, to, map(float, weight)))
    return list(map(_edge, docs))


def dag_from_dict(doc: dict) -> Dag:
    _reject_unknown_keys(doc, _DAG_KEYS, "DAG")
    n = _json_int(doc["n"], "n")
    edges = _json_list(doc["edges"], "edges")
    names = _json_array(doc["names"], str, "names") if "names" in doc else None
    return Dag.from_edges(n, _edges(edges), names)


def noise_to_dict(spec: NoiseSpec) -> dict:
    doc = {"family": spec.family}
    doc.update(zip(NOISE_FAMILIES[spec.family], spec.params))
    return doc


def noise_from_dict(doc: dict) -> NoiseSpec:
    _json_object(doc, "noise")
    family = _json_scalar(doc["family"], str, "family")
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    _reject_unknown_keys(doc, ("family", *NOISE_FAMILIES[family]), f"{family} noise")
    return NoiseSpec(family, tuple(_json_float(doc[k], k) for k in NOISE_FAMILIES[family]))


def scm_to_dict(scm: Scm) -> dict:
    doc = dag_to_dict(scm.dag)
    doc["noises"] = [noise_to_dict(s) for s in scm.noises]
    return doc


def scm_from_dict(doc: dict) -> Scm:
    _reject_unknown_keys(doc, (*_DAG_KEYS, "noises"), "SCM")
    dag = dag_from_dict({k: v for k, v in doc.items() if k != "noises"})
    noises = _json_list(doc["noises"], "noises")
    # Each distinct noise object is decoded once, in order, so the first faulty one is
    # named. repr keeps 1, 1.0 and true apart, and 0.0 and -0.0.
    keys = [repr(d) for d in noises]
    specs = {}
    for key, d in zip(keys, noises):
        if key not in specs:
            specs[key] = noise_from_dict(d)
    return Scm(dag, tuple(map(specs.__getitem__, keys)))


def model_to_dict(model: PredictionModel) -> dict:
    return {
        "kind": model.kind,
        "bias": model.bias,
        "coeffs": [float(c) for c in model.coeffs],
        "predictor_indices": list(model.predictor_indices),
        "target_index": model.target_index,
    }


def model_from_dict(doc: dict) -> PredictionModel:
    _reject_unknown_keys(doc, ("kind", "bias", "coeffs", "predictor_indices", "target_index"), "model")
    return PredictionModel(
        doc["kind"],
        _json_float(doc["bias"], "bias"),
        np.asarray(_json_array(doc["coeffs"], float, "coeffs"), dtype=float),
        tuple(_json_array(doc["predictor_indices"], int, "predictor_indices")),
        _json_int(doc["target_index"], "target_index"),
    )


def _json_object(doc, what: str) -> None:
    """TypeError unless ``doc`` is a JSON object: the keys of an array or a string are no keys."""
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be a JSON object, got {doc!r}")


def _reject_unknown_keys(doc: dict, known, what: str) -> None:
    """TypeError unless ``doc`` is a JSON object, InvalidConfig if it has a key outside ``known``."""
    _json_object(doc, what)
    unknown = doc.keys() - known
    if unknown:
        raise InvalidConfig(f"unknown {what} key(s): {', '.join(map(repr, sorted(unknown)))}")


def fields_from_dict(cls, doc):
    """An instance of the dataclass ``cls`` from the JSON object ``doc``, each value decoded by its field's type.

    An absent field keeps its default. Raises InvalidConfig on a key that is
    not a field, and TypeError when ``doc`` is not an object or a value is
    not JSON of its field's type.
    """
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    _reject_unknown_keys(doc, types, cls.__name__)
    kwargs = {}
    for name, value in doc.items():
        ftype, field_name = types[name], f"{cls.__name__}.{name}"
        if dataclasses.is_dataclass(ftype):
            kwargs[name] = fields_from_dict(ftype, value)
        elif ftype == tuple[float, ...]:
            kwargs[name] = tuple(map(float, _json_array(value, float, field_name)))
        else:
            kwargs[name] = _json_scalar(value, ftype, field_name)
    return cls(**kwargs)


def fields_to_dict(obj) -> dict:
    """The fields of the dataclass ``obj`` in declaration order, each value encoded by its type.

    The writing half of ``fields_from_dict``: a field added to the dataclass
    appears in every document without being listed here.
    """
    doc = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = fields_to_dict(value)
        elif isinstance(value, (tuple, np.ndarray)):
            value = np.asarray(value).tolist()
        doc[f.name] = value
    return doc


def save_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@contextlib.contextmanager
def naming(path):
    """Report an error from reading or decoding ``path`` as ValueError("<path>: <message>").

    A KeyError reads ``<path>: missing key 'k'``. An OSError names its file
    already and passes through; never wrap a call that names its file itself.
    """
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, OverflowError, ValueError, RecursionError, csv.Error, CausalSteerError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path):
    """The JSON value in ``path``, read under ``naming``."""
    with naming(path):
        return json.loads(Path(path).read_text())


def load_json(path) -> dict:
    doc = read_json(path)
    with naming(path):
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
    return doc


def load_document(path, decode):
    """``decode(load_json(path))``, decoded under ``naming``."""
    doc = load_json(path)
    with naming(path):
        return decode(doc)


def csv_text(rows) -> str:
    """``rows`` as CSV lines, each ending in a newline; only a field holding a comma, a quote or a newline is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def dataset_to_csv(data: Dataset) -> str:
    names = data.names or tuple(f"x{k + 1}" for k in range(data.n))
    return csv_text(itertools.chain([names], ([f"{v:.12g}" for v in row] for row in data.rows)))


def load_dataset(path) -> Dataset:
    """The headered CSV in ``path``; a row that is not one finite number per column is a ValueError naming its line."""
    with open(path, newline="") as fh, naming(path):
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num}: expected {len(header)} fields, found {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {reader.line_num}: non-finite entry in {','.join(row)}")
            rows.append(values)
        if not rows:
            raise ValueError("the file has no data rows")
    return Dataset(np.asarray(rows, dtype=float), tuple(header))
