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
standard draw u_k, (loc, scale) the SCM's own ``Scm.loc_scale``, so the
score is z + a(c), one affine function of u. ``_class1_counts`` makes both
edits of do(X_i = c): it zeroes entry i of the row r = e * scale in z =
r . u, the same for every c, and sets loc_i := c in a(c) = bias + e . loc.
``_folded_sums`` folds a given row r over the draws u, the stream
``sample`` scales, taken span by span of ``scm._row_blocks`` into a block
of whole rows of at most ``BLOCK_DOUBLES`` draws, each folded into z
before the next is drawn; the tie coins come after them from the same
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
from .datagen import DagGenConfig, _median_split, generate_random_scm, pick_random_target
from .errors import AllEffectsZero, CausalSteerError, InvalidConfig, NonFiniteValue, ZeroCausalEffect, ZeroCoefficient
from .models import PredictionModel, _irls, _label_values, _resolve_predictors, augment_graph
from .scm import Scm, _check_do, _check_finite, _row_blocks, _solved_draw, analytic_means


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
            # _run_dag draws each DAG from a seed spawned from ``seed``.
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


def _block_rows(n: int, m: int) -> int:
    """The rows of m draws in a scorer's block: as many as ``BLOCK_DOUBLES`` doubles hold, at least one, at most n."""
    return min(n, max(1, BLOCK_DOUBLES // m))


def _folded_sums(scm: Scm, weights: np.ndarray, rng: np.random.Generator, block: np.ndarray) -> np.ndarray:
    """z = weights . u for m standard draws u per variable, from ``rng``, m the row length of ``block``.

    The u are filled span by span of ``scm._row_blocks`` into the top of ``block``, a C-contiguous
    ``_block_rows(n, m)`` x m array whose values are not read, each span folded into z before the next is drawn.
    """
    m = block.shape[1]
    z, tmp = np.empty(m), np.empty(m)
    z.fill(0.0)
    for b0, b1, spec in _row_blocks(scm, len(block)):
        u = block[: b1 - b0]
        spec.fill_standard(rng, u)
        np.matmul(weights[b0:b1], u, out=tmp)
        z += tmp
    return z


def _class1_counts(scm: Scm, bias: float, effects: np.ndarray, i: int, values, seed, n_post: int, block=None) -> list[int]:
    """How many of n_post samples under do(X_i = c) score above 0, for each c in ``values``, all from one draw.

    ``effects`` is ``effects_on_prediction(augmented, fixed=i)``. Both edits
    of do(X_i = c) are made here: z of ``_folded_sums`` folds the row
    effects * scale, entry i zeroed, over the draws of a generator seeded
    by ``seed``, and a sample counts for c when z > -(bias + effects . loc),
    loc_i := c. Exact zero scores get a fair coin each, drawn from the same
    generator after the draws, value by value. The callers check i and the
    values. ``block`` is the block of ``_folded_sums``, made here when not
    given. Raises NonFiniteValue if a sum or a threshold overflows.
    """
    rng = np.random.default_rng(seed)
    loc = scm.loc_scale[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        weights = effects * scm.loc_scale[1]
        weights[i - 1] = 0.0
        z = _folded_sums(scm, weights, rng, np.empty((_block_rows(scm.n, n_post), n_post)) if block is None else block)
        thresholds = []
        for c in values:
            loc[i - 1] = c
            thresholds.append(-(bias + effects @ loc))
    if not (np.isfinite(z).all() and np.isfinite(thresholds).all()):
        raise NonFiniteValue(f"the scores of samples under an intervention on variable {i} are not finite")
    counts = []
    for t in thresholds:
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
    Raises ValueError unless c is finite and n_post >= 1.
    """
    effects = effects_on_prediction(augment_graph(scm.dag, model), fixed=i)
    _check_do(scm, (i, c))
    if n_post < 1:
        raise ValueError(f"sample count must be >= 1, got {n_post}")
    return _class1_counts(scm, model.bias, effects, i, [c], seed, n_post)[0] / n_post


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


def _work_arrays(config: SweepConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(draw, design, block), the arrays every DAG of a sweep trains, fits and scores in.

    ``draw``, n x n_train, takes the training rows and is then the fit's zt; ``design``, its twin, is the fit's
    xt. ``block``, the scorer's, starts where ``draw`` does, in one buffer that holds the larger of the two.
    """
    n, m = config.datagen.n_roots + config.datagen.n_descendants, config.n_post
    rows = _block_rows(n, m)
    room = np.empty(max(n * config.n_train, rows * m))
    draw = room[: n * config.n_train].reshape(n, config.n_train)
    return draw, np.empty_like(draw), room[: rows * m].reshape(rows, m)


def _run_dag(config: SweepConfig, seed: np.random.SeedSequence, arrays=None):
    """One DAG's pass through the sweep: (its fitted model, its counts or the failure's class name).

    ``seed`` is spawned into four: the SCM, its training rows, the target
    and the evaluation. The counts are a len(d_values) x 2 array, the
    class-1 counts of the optimal and the naive plan for each d. From
    ``ONE_DRAW_MIN_DRAWS`` draws per evaluation on, every plan is scored
    from one draw seeded by the evaluation seed; below it plan 2k (the
    optimal one for the k-th d) and plan 2k + 1 (the naive one) each draw
    from their own seed, spawned from it. A DAG on which no finite
    intervention moves the prediction gives the name of the exception that
    says so; its fit is still returned.

    ``arrays`` are ``_work_arrays(config)``, made here when not given; each is written before it is read. The
    model equals ``fit_logistic`` on ``sample(scm, n_train, s_train)`` and its median split, bit for bit.
    """
    s_scm, s_train, s_target, s_eval = seed.spawn(4)
    scm = generate_random_scm(dataclasses.replace(config.datagen, seed=s_scm))
    draw, design, block = _work_arrays(config) if arrays is None else arrays
    _check_finite(_solved_draw(scm, np.random.default_rng(s_train), draw))
    target = pick_random_target(scm.n, s_target)
    y = _label_values(_median_split(draw[target - 1]), config.n_train)
    preds = _resolve_predictors(scm.n, target, None)
    model = _irls(draw, y, preds, target, design, draw)
    augmented = augment_graph(scm.dag, model)
    try:
        intervene_on = select_intervention_target(augmented, model.predictor_indices)
        mu = analytic_means(scm)
        # Planned before any evaluation, so a degenerate DAG adds to no row.
        d = np.array(config.d_values)
        c_opt = optimal_intervention_value(mu, scm.dag, None, model, intervene_on, d).value
        c_naive = naive_intervention_value(model, mu, intervene_on, d)
        effects = effects_on_prediction(augmented, fixed=intervene_on)
        values = np.column_stack([c_opt, c_naive]).ravel()
        if _one_draw(config):
            counts = _class1_counts(scm, model.bias, effects, intervene_on, values, s_eval, config.n_post, block)
        else:
            counts = [
                _class1_counts(scm, model.bias, effects, intervene_on, [c], s_plan, config.n_post, block)[0]
                for c, s_plan in zip(values, s_eval.spawn(values.size))
            ]
    except (ZeroCausalEffect, AllEffectsZero, ZeroCoefficient, NonFiniteValue) as exc:
        return model, type(exc).__name__
    return model, np.reshape(counts, (-1, 2))


def run_sweep(config: SweepConfig) -> SweepResult:
    """Pool class-1 fractions over all DAGs for each desired value d.

    DAGs on which no finite intervention can move the prediction (zero
    causal effect, a zero naive coefficient, or a planned value that
    overflows) are counted in ``failures`` by exception class and
    excluded; individual failures never abort the sweep. The IRLS counts
    cover every DAG's fit, excluded DAGs included.
    """
    totals = np.zeros((len(config.d_values), 2), dtype=int)
    failures = collections.Counter()
    n_iter = not_converged = 0
    arrays = _work_arrays(config)
    for seed in np.random.SeedSequence(config.seed).spawn(config.n_dags):
        model, outcome = _run_dag(config, seed, arrays)
        n_iter += model.n_iter
        not_converged += not model.converged
        if isinstance(outcome, str):
            failures[outcome] += 1
        else:
            totals += outcome
    failures = dict(sorted(failures.items()))
    n_ok = config.n_dags - sum(failures.values())
    if n_ok == 0:
        breakdown = ", ".join(f"{name}: {count}" for name, count in failures.items())
        raise CausalSteerError(f"all {config.n_dags} DAGs failed ({breakdown}); nothing to report")
    denom = n_ok * config.n_post
    rows = tuple(SweepRow(float(d), opt / denom, naive / denom) for d, (opt, naive) in zip(config.d_values, totals))
    return SweepResult(rows, failures, not_converged, n_iter / config.n_dags)


def _d_text(d: float) -> str:
    """``d`` as ``%g`` where that reads back as the same float, else as its repr, which always does."""
    text = f"{d:g}"
    return text if float(text) == d else repr(float(d))


def sweep_result_to_csv(result: SweepResult) -> str:
    rows = [(_d_text(r.d), f"{r.accuracy_optimal:.6f}", f"{r.accuracy_naive:.6f}", result.n_failed) for r in result.rows]
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
