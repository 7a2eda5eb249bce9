"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 computation error. Every command
that draws randomness takes --seed and is bitwise reproducible.
"""

import argparse
import contextlib
import dataclasses
import json
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, autompg, fileio
from .causal import (
    effects_on_prediction,
    naive_intervention_value,
    observation_specific_plan,
    optimal_intervention_value,
    select_intervention_target,
)
from .datagen import DagGenConfig, generate_random_scm, median_split_labels
from .errors import CausalSteerError, IndexOutOfRange, NonFiniteValue, ZeroCoefficient
from .models import augment_graph, fit_linear, fit_logistic
from .scm import analytic_means, sample
from .sweep import SweepConfig, run_manifest, run_sweep, sweep_result_to_csv


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for
    # computation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_config(args, cls):
    """The --config document as a ``cls`` (``cls()`` without one), its seed replaced by --seed when given."""
    config = fileio.load_document(args.config, partial(fileio.fields_from_dict, cls)) if args.config else cls()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_gen_scm(args) -> None:
    scm = generate_random_scm(_load_config(args, DagGenConfig))
    _write(json.dumps(fileio.scm_to_dict(scm), indent=2) + "\n", args.out)


def _parse_do(spec: str) -> tuple[int, float]:
    idx, _, value = spec.partition("=")
    try:
        return int(idx), _finite_float(value)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expected I=C with a finite C, e.g. 3=1.5, got {spec!r}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_at_least(low: int, what: str):
    """An argparse type: the integer ``text`` if it is >= ``low``, else a usage error expecting ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_seed = _int_at_least(0, "a non-negative integer")
_rows = _int_at_least(1, "a positive integer")


def _cmd_sample(args) -> None:
    scm = fileio.load_document(args.scm, fileio.scm_from_dict)
    _write(fileio.dataset_to_csv(sample(scm, args.rows, args.seed, args.do)), args.out)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        indices = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        indices = ()
    if not indices or len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError(f"expected distinct integer indices, e.g. 1,2,5, got {text!r}")
    return indices


def _cmd_fit(args) -> None:
    data = fileio.load_dataset(args.data)
    if args.kind == "linear":
        model = fit_linear(data, args.target_index, args.predictors)
    else:
        labels = median_split_labels(data, args.target_index)
        model = fit_logistic(data, labels, args.predictors, target_index=args.target_index)
    _write(json.dumps(fileio.model_to_dict(model), indent=2) + "\n", args.out)


def _load_scm_and_model(args):
    """The --scm and --model documents and the model grafted onto the SCM's graph, as (scm, model, augmented)."""
    scm = fileio.load_document(args.scm, fileio.scm_from_dict)
    model = fileio.load_document(args.model, fileio.model_from_dict)
    try:
        augmented = augment_graph(scm.dag, model)
    except IndexOutOfRange as exc:
        raise ValueError(f"{args.model}: {exc}, the variables of {args.scm}") from None
    return scm, model, augmented


def _cmd_analyze(args) -> None:
    scm, model, augmented = _load_scm_and_model(args)
    effects = effects_on_prediction(augmented)
    ranked = sorted(model.predictor_indices, key=lambda i: (-abs(effects[i - 1]), i))
    rows = [(i, scm.dag.name_of(i), f"{effects[i - 1]:.6g}") for i in ranked]
    _write(fileio.csv_text([("variable", "name", "effect_on_prediction"), *rows]), args.out)


def _load_observation(path, n: int) -> np.ndarray:
    doc = fileio.read_json(path)
    with fileio.naming(path):
        # Compared, not converted: float() of a huge JSON integer overflows.
        if not isinstance(doc, list) or not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in doc):
            raise ValueError("expected a JSON array of finite numbers")
        if len(doc) != n:
            raise ValueError(f"expected {n} values, one per variable, found {len(doc)}")
    return np.asarray(doc, dtype=float)


def _cmd_intervene(args) -> None:
    scm, model, augmented = _load_scm_and_model(args)
    i = args.intervene_index
    if i is None:
        i = select_intervention_target(augmented, model.predictor_indices)

    if args.observation_file:
        x = _load_observation(args.observation_file, scm.n)
        plan = observation_specific_plan(x, scm.dag, model, i, args.desired)
    else:
        x = analytic_means(scm)
        plan = optimal_intervention_value(x, scm.dag, None, model, i, args.desired)

    warnings = []
    if args.data:
        data = fileio.load_dataset(args.data)
        with fileio.naming(args.data):
            if data.n != scm.n:
                raise ValueError(f"expected {scm.n} columns, one per variable, found {data.n}")
        column = data.column(i)
        lo, hi = float(column.min()), float(column.max())
        if not lo <= plan.value <= hi:
            warnings.append(
                f"value {plan.value:g} lies outside the observed range "
                f"{lo:g} .. {hi:g} of variable {i}"
            )

    print(f"do(X{i} = {plan.value:.12g}) steers the expected prediction to {plan.desired_prediction:g}")
    with contextlib.suppress(ZeroCoefficient, NonFiniteValue):
        print(f"naive per-equation value: {naive_intervention_value(model, x, i, args.desired):.12g}")
    for w in warnings:
        print(f"warning: {w}")
    if args.out:
        fileio.save_json({**fileio.fields_to_dict(plan), "warnings": warnings}, args.out)


def _cmd_sweep(args) -> None:
    config = _load_config(args, SweepConfig)
    result = run_sweep(config)
    _write(sweep_result_to_csv(result), args.out)
    if args.out:
        fileio.save_json(run_manifest(config, result), Path(args.out).with_suffix(".manifest.json"))


def _cmd_fetch_autompg(args) -> None:
    cached = autompg.cache_file(args.cache_dir)
    with fileio.naming(cached):
        data = autompg.fetch_autompg(cached)
    print(f"{cached}: {data.m} rows x {data.n} columns")
    if args.out:
        _write(fileio.dataset_to_csv(data), args.out)


def _cmd_demo_autompg(args) -> None:
    structure_path = args.structure or autompg.bundled_structure_path()
    structure = fileio.load_document(structure_path, fileio.dag_from_dict)
    path = args.data_file or autompg.cache_file(args.cache_dir)
    with fileio.naming(path):
        if args.data_file:
            data = autompg.parse_autompg(Path(path).read_text())
        else:
            data = autompg.fetch_autompg(path)
    _write(autompg.demo_autompg(structure, data, args.desired) + "\n", args.out)


@cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared by every later ``main``.

    Parsing reads the parser and writes only the fresh namespace it returns,
    so no call leaves state for the next; no default is mutable.
    """
    parser = _Parser(prog="causalsteer", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    def seeded(p):
        p.add_argument("--seed", type=_seed, default=None, help="run seed (reproducible output)")
        common(p)

    p = sub.add_parser("gen-scm", help="generate a random linear SCM")
    p.add_argument("--config", help="DagGenConfig JSON file (defaults used when omitted)")
    seeded(p)
    p.set_defaults(func=_cmd_gen_scm)

    p = sub.add_parser("sample", help="draw observations from an SCM file")
    p.add_argument("--scm", required=True)
    p.add_argument("--rows", type=_rows, default=1000)
    p.add_argument("--do", type=_parse_do, help="intervention I=C, e.g. --do 3=1.5")
    seeded(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="fit a prediction model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=("linear", "logistic"), default="linear")
    p.add_argument("--target-index", type=int, required=True)
    p.add_argument("--predictors", type=_parse_indices, help="predictor indices, e.g. '1,2,5' (default: all others)")
    common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("analyze", help="rank variables by causal effect on the prediction")
    p.add_argument("--scm", required=True)
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("intervene", help="compute the optimal intervention value")
    p.add_argument("--scm", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--desired", type=_finite_float, required=True)
    p.add_argument("--intervene-index", type=int, help="variable to intervene on (default: greatest effect)")
    p.add_argument("--observation-file", help="JSON array of all n values for an observation-specific plan")
    p.add_argument("--data", help="dataset CSV for the observed-range warning")
    common(p)
    p.set_defaults(func=_cmd_intervene)

    p = sub.add_parser("sweep", help="run the many-DAG intervention accuracy sweep")
    p.add_argument("--config", required=True, help="SweepConfig JSON file")
    seeded(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fetch-autompg", help="download and cache the Auto-MPG dataset")
    p.add_argument("--cache-dir")
    common(p)
    p.set_defaults(func=_cmd_fetch_autompg)

    p = sub.add_parser("demo-autompg", help="suggested MPG interventions on the Auto-MPG data")
    p.add_argument("--structure", help="causal-structure JSON (default: bundled illustrative file)")
    p.add_argument("--desired", type=_finite_float, nargs="+", default=(15.0, 21.0, 30.0))
    p.add_argument("--cache-dir")
    p.add_argument("--data-file", help="local raw file, skipping download/cache")
    common(p)
    p.set_defaults(func=_cmd_demo_autompg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CausalSteerError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
