"""Experiment harness: many random DAGs, one intervention sweep per DAG.

Per DAG: sample training data, median-split a random target, fit a logistic
model on the remaining variables, discover the predictor with the greatest
causal effect on the prediction, then steer the expected log-odds to each
desired value d both with the closed-form optimal value and with the naive
per-equation solution. The score per d is the fraction of fresh
post-intervention samples the classifier assigns to class 1.

The samples are scored in score space. Under do(X_i = c) a sample's score
is bias + e . noise, with the noise draws' entry i set to c and e =
``effects_on_prediction(augmented, fixed=i)``, computed once per DAG; no
sample is solved for. The noise and the tie coin are drawn as ``sample``
would draw them, so every class-1 count equals that of sampling under
do(X_i = c) and scoring each row (the oracle in ``tests/oracles.py``).

Each DAG's randomness derives from an independently spawned seed, so the
result is invariant to execution order and bitwise reproducible.
"""

import collections
import dataclasses
import io
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from .causal import (
    effects_on_prediction,
    naive_intervention_value,
    optimal_intervention_value,
    select_intervention_target,
)
from .datagen import DagGenConfig, generate_random_scm, median_split_labels, pick_random_target
from .errors import AllEffectsZero, CausalSteerError, InvalidConfig, ZeroCausalEffect, ZeroCoefficient
from .models import PredictionModel, augment_graph, fit_logistic
from .scm import Scm, _draw_noise, analytic_means, sample


@dataclass(frozen=True)
class SweepConfig:
    d_values: tuple[float, ...] = tuple(float(d) for d in range(11))
    n_dags: int = 1000
    n_train: int = 1000
    n_post: int = 1000
    datagen: DagGenConfig = field(default_factory=DagGenConfig)
    seed: int = 0

    def check(self) -> None:
        if not self.d_values:
            raise InvalidConfig("d_values must be nonempty")
        if not np.isfinite(self.d_values).all():
            raise InvalidConfig(f"d_values must be finite, got {list(self.d_values)}")
        # The median split of the training target needs two rows.
        for name, least in (("n_dags", 1), ("n_train", 2), ("n_post", 1)):
            if getattr(self, name) < least:
                raise InvalidConfig(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.datagen.seed is not None:
            # _run_one_dag draws each DAG from a seed spawned from ``seed``.
            raise InvalidConfig(f"datagen.seed must be null in a sweep, got {self.datagen.seed!r}; set seed instead")
        self.datagen.check()


@dataclass(frozen=True)
class SweepRow:
    d: float
    accuracy_optimal: float
    accuracy_naive: float


@dataclass(frozen=True)
class SweepResult:
    """One row per d, and the excluded DAGs counted by exception class name, e.g. ``{"AllEffectsZero": 3}``."""

    rows: tuple[SweepRow, ...]
    failures: dict[str, int]

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())


def _class1_count(scm: Scm, bias: float, effects: np.ndarray, i: int, c: float, n_post: int, seed) -> int:
    """How many of n_post samples under do(X_i = c) score above 0.

    ``effects`` is ``effects_on_prediction(augmented, fixed=i)``. Exact zero
    scores (measure zero for continuous data) get a fair coin each.
    """
    if not np.isfinite(c):
        raise ValueError(f"intervention value must be finite, got {c}")
    rng = np.random.default_rng(seed)
    noise = _draw_noise(scm, rng, n_post)
    noise[i - 1] = c
    s = bias + effects @ noise
    ones = np.count_nonzero(s > 0)
    ties = np.count_nonzero(s == 0)
    if ties:
        ones += int(rng.integers(2, size=ties).sum())
    return ones


def evaluate_intervention(scm: Scm, model: PredictionModel, i: int, c: float, n_post: int, seed) -> float:
    """Fraction of n_post samples under do(X_i = c) the model assigns to class 1.

    Scored in score space, as the sweep scores (see the module docstring):
    the fraction equals that of ``sample(scm, n_post, rng, do=(i, c))``
    scored row by row, with the same seed. Exact zero scores get a fair coin.
    """
    effects = effects_on_prediction(augment_graph(scm.dag, model), fixed=i)
    return _class1_count(scm, model.bias, effects, i, c, n_post, seed) / n_post


def _run_one_dag(config: SweepConfig, seed: np.random.SeedSequence):
    """Class-1 counts for one DAG: (counts_optimal, counts_naive), one count per d."""
    s_scm, s_train, s_target, s_eval = seed.spawn(4)
    scm = generate_random_scm(dataclasses.replace(config.datagen, seed=s_scm))
    train = sample(scm, config.n_train, s_train)
    target = pick_random_target(scm.n, s_target)
    labels = median_split_labels(train, target)
    model = fit_logistic(train, labels, target_index=target)
    augmented = augment_graph(scm.dag, model)
    intervene_on = select_intervention_target(augmented, model.predictor_indices)

    mu = analytic_means(scm)
    # Planned before any evaluation, so a degenerate DAG adds to no row.
    d = np.array(config.d_values)
    c_opt = optimal_intervention_value(mu, scm.dag, None, model, intervene_on, d).value
    c_naive = naive_intervention_value(model, mu, intervene_on, d)

    effects = effects_on_prediction(augmented, fixed=intervene_on)

    def class1_count(c, s):
        return _class1_count(scm, model.bias, effects, intervene_on, c, config.n_post, s)

    eval_seeds = s_eval.spawn(2 * d.size)
    opt_counts = [class1_count(c, s) for c, s in zip(c_opt, eval_seeds[0::2])]
    naive_counts = [class1_count(c, s) for c, s in zip(c_naive, eval_seeds[1::2])]
    return opt_counts, naive_counts


def run_sweep(config: SweepConfig) -> SweepResult:
    """Pool class-1 fractions over all DAGs for each desired value d.

    DAGs on which no finite intervention can move the prediction (zero
    causal effect, or a zero naive coefficient) are counted in ``failures``
    by exception class and excluded; individual failures never abort the
    sweep.
    """
    config.check()
    dag_seeds = np.random.SeedSequence(config.seed).spawn(config.n_dags)
    n_d = len(config.d_values)
    opt_total = np.zeros(n_d, dtype=int)
    naive_total = np.zeros(n_d, dtype=int)
    failures = collections.Counter()
    n_ok = 0
    for seed in dag_seeds:
        try:
            opt_counts, naive_counts = _run_one_dag(config, seed)
        except (ZeroCausalEffect, AllEffectsZero, ZeroCoefficient) as exc:
            failures[type(exc).__name__] += 1
            continue
        opt_total += opt_counts
        naive_total += naive_counts
        n_ok += 1
    failures = dict(sorted(failures.items()))
    if n_ok == 0:
        breakdown = ", ".join(f"{name}: {count}" for name, count in failures.items())
        raise CausalSteerError(f"all {config.n_dags} DAGs failed ({breakdown}); nothing to report")
    denom = n_ok * config.n_post
    rows = tuple(
        SweepRow(float(d), opt_total[k] / denom, naive_total[k] / denom)
        for k, d in enumerate(config.d_values)
    )
    return SweepResult(rows, failures)


def sweep_result_to_csv(result: SweepResult) -> str:
    out = io.StringIO()
    out.write("d,accuracy_optimal,accuracy_naive,n_failed\n")
    for row in result.rows:
        out.write(f"{row.d:g},{row.accuracy_optimal:.6f},{row.accuracy_naive:.6f},{result.n_failed}\n")
    return out.getvalue()


def run_manifest(config: SweepConfig, result: SweepResult) -> dict:
    from . import __version__

    return {
        "causalsteer_version": __version__,
        "config": fileio.fields_to_dict(config),
        "n_dags": config.n_dags,
        "n_failed": result.n_failed,
        "failures": result.failures,
    }
