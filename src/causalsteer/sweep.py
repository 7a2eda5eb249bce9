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
sample is solved for. Each noise draw is loc_k + scale_k * u_k for a
standard draw u_k, so the score is z + a(c), with z = (e * scale, entry i
zeroed) . u the same for every c and a(c) = bias + e . loc (loc_i := c),
(loc, scale) the SCM's own ``Scm.loc_scale``. The draws u, the stream
``sample`` scales, are taken span by span of ``scm._row_blocks`` into a
block of whole rows of at most ``BLOCK_DOUBLES`` draws, each folded into
z before the next is drawn, and the tie coins after them from the same
generator. A sample is class 1 when z > -a(c), exactly when the rounded
z + a(c) is > 0, so a class-1 count equals that of sampling under
do(X_i = c) and scoring each row (the oracle in ``tests/oracles.py``)
unless a score lies within rounding of 0.

Each DAG's randomness derives from an independently spawned seed, so the
result is invariant to DAG order and bitwise reproducible. A DAG's 2 *
len(d_values) plans all intervene on the same X_i, so one draw of u can
score them all (common random numbers): each count is still
Binomial(n_post, p(c)), and a DAG's optimal and naive counts are paired.
From ``ONE_DRAW_MIN_DRAWS`` standard draws per evaluation on, a DAG's
plans are scored from one draw; below it each plan draws its own, from
a seed spawned from the DAG's.
"""

import collections
import dataclasses
import os
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
from .errors import AllEffectsZero, CausalSteerError, InvalidConfig, NonFiniteValue, ZeroCausalEffect, ZeroCoefficient
from .models import PredictionModel, augment_graph, fit_logistic
from .scm import Scm, _check_do, _row_blocks, analytic_means, sample


@dataclass(frozen=True)
class SweepConfig:
    d_values: tuple[float, ...] = tuple(float(d) for d in range(11))
    n_dags: int = 1000
    n_train: int = 1000
    n_post: int = 1000
    datagen: DagGenConfig = field(default_factory=DagGenConfig)
    seed: int = 0

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """InvalidConfig unless every field is in range; run when a SweepConfig is built."""
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
            # _fit_one_dag draws each DAG from a seed spawned from ``seed``.
            raise InvalidConfig(f"datagen.seed must be null in a sweep, got {self.datagen.seed!r}; set seed instead")


@dataclass(frozen=True)
class SweepRow:
    d: float
    accuracy_optimal: float
    accuracy_naive: float


@dataclass(frozen=True)
class SweepResult:
    """One row per d, and the excluded DAGs counted by exception class name, e.g. ``{"AllEffectsZero": 3}``.

    ``irls_not_converged`` counts the DAGs whose logistic fit hit
    ``IRLS_MAX_ITER`` and ``irls_iterations_mean`` is the mean number of
    Newton steps per fit, both over every DAG of the sweep.
    """

    rows: tuple[SweepRow, ...]
    failures: dict[str, int]
    irls_not_converged: int
    irls_iterations_mean: float

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())


#: The most doubles a block of standard draws holds when scoring, unless one row of draws
#: is more: 2**16, 512 KiB, so one evaluation's draws stay small on any number of rows.
BLOCK_DOUBLES = 2**16


def _score_buffers(scm: Scm, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One draw's buffers for m rows: a block of as many rows of m draws as ``BLOCK_DOUBLES``
    doubles hold (at least one, at most n), the folded sums z and a temporary."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    return np.empty((min(scm.n, max(1, BLOCK_DOUBLES // m)), m)), np.empty(m), np.empty(m)


def _class1_counts(scm: Scm, bias: float, effects: np.ndarray, i: int, values, seed, buffers) -> list[int]:
    """How many of n_post samples under do(X_i = c) score above 0, for each c in ``values``, all from one draw.

    ``effects`` is ``effects_on_prediction(augmented, fixed=i)`` and
    ``buffers`` is ``_score_buffers(scm, n_post)``. z = (effects * scale,
    entry i zeroed) . u is folded span by span of ``scm._row_blocks``, each
    span's u filled into the top of the block before it is folded in; a
    sample counts for c when z > -(bias + effects . loc), loc_i := c. Exact
    zero scores (measure zero for continuous data) get a fair coin each,
    drawn after the draws, value by value.
    """
    for c in values:
        _check_do(scm, (i, c))
    rng = np.random.default_rng(seed)
    block, z, tmp = buffers
    loc, scale = scm.loc_scale.copy()
    weights = effects * scale
    weights[i - 1] = 0.0
    z.fill(0.0)
    for b0, b1, spec in _row_blocks(scm, len(block)):
        u = block[: b1 - b0]
        spec.fill_standard(rng, u)
        np.matmul(weights[b0:b1], u, out=tmp)
        z += tmp
    counts = []
    for c in values:
        loc[i - 1] = c
        t = -(bias + effects @ loc)
        ones = np.count_nonzero(z > t)
        ties = np.count_nonzero(z == t)
        if ties:
            ones += int(rng.integers(2, size=ties).sum())
        counts.append(ones)
    return counts


def evaluate_intervention(scm: Scm, model: PredictionModel, i: int, c: float, n_post: int, seed) -> float:
    """Fraction of n_post samples under do(X_i = c) the model assigns to class 1.

    Scored in score space, as the sweep scores (see the module docstring):
    the fraction equals that of ``sample(scm, n_post, rng, do=(i, c))``
    scored row by row, with the same seed. Exact zero scores get a fair coin.
    """
    effects = effects_on_prediction(augment_graph(scm.dag, model), fixed=i)
    return _class1_counts(scm, model.bias, effects, i, [c], seed, _score_buffers(scm, n_post))[0] / n_post


def _fit_one_dag(config: SweepConfig, seed: np.random.SeedSequence):
    """One DAG and its classifier: (scm, model, the seed left for evaluation)."""
    s_scm, s_train, s_target, s_eval = seed.spawn(4)
    scm = generate_random_scm(dataclasses.replace(config.datagen, seed=s_scm))
    train = sample(scm, config.n_train, s_train)
    target = pick_random_target(scm.n, s_target)
    labels = median_split_labels(train, target)
    return scm, fit_logistic(train, labels, target_index=target), s_eval


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The fewest standard draws per evaluation (variables x post rows) from which a DAG's
#: plans are scored from one draw: the largest power of two at or below the paper's
#: 70 x 1000. Below it each plan keeps its own draw, so every sweep pinned at those sizes
#: keeps its bytes, as does perfbench's per-plan replay, held to run_sweep bit for bit on a
#: small sweep.
ONE_DRAW_MIN_DRAWS = 2**16


def _one_draw(config: SweepConfig) -> bool:
    """Whether each DAG's plans are scored from one draw: from ``ONE_DRAW_MIN_DRAWS`` draws per evaluation on."""
    return (config.datagen.n_roots + config.datagen.n_descendants) * config.n_post >= ONE_DRAW_MIN_DRAWS


def _score_one_dag(config: SweepConfig, scm: Scm, model: PredictionModel, s_eval: np.random.SeedSequence):
    """Class-1 counts for one fitted DAG: (counts_optimal, counts_naive), one count per d.

    From ``ONE_DRAW_MIN_DRAWS`` draws per evaluation on, every plan is
    scored from one draw seeded by ``s_eval``; below it plan 2k (the
    optimal one for the k-th d) and plan 2k + 1 (the naive one) each draw
    from their own seed, spawned from ``s_eval``.
    """
    augmented = augment_graph(scm.dag, model)
    intervene_on = select_intervention_target(augmented, model.predictor_indices)

    mu = analytic_means(scm)
    # Planned before any evaluation, so a degenerate DAG adds to no row.
    d = np.array(config.d_values)
    c_opt = optimal_intervention_value(mu, scm.dag, None, model, intervene_on, d).value
    c_naive = naive_intervention_value(model, mu, intervene_on, d)

    effects = effects_on_prediction(augmented, fixed=intervene_on)
    values = np.column_stack([c_opt, c_naive]).ravel()
    buffers = _score_buffers(scm, config.n_post)
    if _one_draw(config):
        counts = _class1_counts(scm, model.bias, effects, intervene_on, values, s_eval, buffers)
    else:
        counts = [
            _class1_counts(scm, model.bias, effects, intervene_on, [c], seed, buffers)[0]
            for c, seed in zip(values, s_eval.spawn(values.size))
        ]
    return counts[0::2], counts[1::2]


def run_sweep(config: SweepConfig) -> SweepResult:
    """Pool class-1 fractions over all DAGs for each desired value d.

    DAGs on which no finite intervention can move the prediction (zero
    causal effect, a zero naive coefficient, or a planned value that
    overflows) are counted in ``failures`` by exception class and
    excluded; individual failures never abort the sweep. The IRLS counts
    cover every DAG's fit, excluded DAGs included.
    """
    dag_seeds = np.random.SeedSequence(config.seed).spawn(config.n_dags)
    n_d = len(config.d_values)
    opt_total = np.zeros(n_d, dtype=int)
    naive_total = np.zeros(n_d, dtype=int)
    failures = collections.Counter()
    n_ok = n_iter = not_converged = 0
    for seed in dag_seeds:
        scm, model, s_eval = _fit_one_dag(config, seed)
        n_iter += model.n_iter
        not_converged += not model.converged
        try:
            opt_counts, naive_counts = _score_one_dag(config, scm, model, s_eval)
        except (ZeroCausalEffect, AllEffectsZero, ZeroCoefficient, NonFiniteValue) as exc:
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
    return SweepResult(rows, failures, not_converged, n_iter / config.n_dags)


def sweep_result_to_csv(result: SweepResult) -> str:
    rows = [(f"{r.d:g}", f"{r.accuracy_optimal:.6f}", f"{r.accuracy_naive:.6f}", result.n_failed) for r in result.rows]
    return fileio.csv_text([("d", "accuracy_optimal", "accuracy_naive", "n_failed"), *rows])


#: The environment variables that set the BLAS thread count, which ``run_manifest`` records.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """What a sweep's speed depends on outside its config: the numpy version, its BLAS, the
    BLAS thread variables and the usable CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARIABLES},
        "cpus_usable": _usable_cpus(),
    }


def run_manifest(config: SweepConfig, result: SweepResult) -> dict:
    from . import __version__

    return {
        "causalsteer_version": __version__,
        "config": fileio.fields_to_dict(config),
        "environment": _environment(),
        "one_draw": _one_draw(config),
        "n_dags": config.n_dags,
        "n_failed": result.n_failed,
        "failures": result.failures,
        "irls_not_converged": result.irls_not_converged,
        "irls_iterations_mean": result.irls_iterations_mean,
    }
