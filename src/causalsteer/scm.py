"""Linear structural causal models: the data generation process.

Every variable obeys X_i = sum_k b_ik * X_k + N_i with independent noise
N_i; a root variable's value is its noise draw. Sampling is the ground
truth oracle for all interventional expectations. ``sample`` draws both
observational and interventional data; its ``seed`` is anything
``numpy.random.default_rng`` accepts (int, SeedSequence, or Generator), and
identical seeds give bitwise-identical datasets.

Every noise draw is ``loc + scale * u`` for a standard draw u, as numpy
computes a gaussian or uniform draw per element. ``_row_blocks`` is the
one order of the standard stream: spans of whole rows of one noise run, a
maximal run of consecutive specs of one family that it finds in
``Scm.noises``, in index order, each filled by one numpy call of its run's
first spec. The standard stream does not depend on the parameters, and a
fill of a contiguous block takes the draws in the same C order, so spans
filled one after another from one generator are the stream of one draw
per variable in index order, however many rows a span holds.
``_draw_standard`` fills one span per run of an n x m array it is given;
``_draw_noise`` then scales and shifts the u in place by ``Scm.loc_scale``,
giving numpy's own bits; a constant draws nothing, and its u of -0.0 times
its scale of 0.0 plus its value is that value, sign of a zero included.

Under do(X_i = c), ``_draw_noise`` draws every noise as usual, then
overwrites variable i's draws with c; ``sample`` draws through it.
``_check_do`` is the one rule on (i, c), for ``sample`` and for
``sweep.evaluate_intervention``, whose scoring walks the same spans.

Samples and analytic means both come from the package's one forward
substitution, ``graph._substitute``, which ``_solved_draw`` runs in place
on the n x m draw; unlike a dense solve it keeps the variables an
intervention cannot reach bitwise equal to the observational sample.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import graph
from .errors import check_index
from .graph import Dag

#: Each noise family and the names of its parameters, in the order of ``NoiseSpec.params``.
NOISE_FAMILIES = {"gaussian": ("mean", "stddev"), "uniform": ("lo", "hi"), "constant": ("value",)}


@dataclass(frozen=True)
class NoiseSpec:
    """One noise distribution: gaussian(mean, stddev), uniform(lo, hi), or constant(value).

    A draw is ``loc + scale * u`` for a standard draw u: ``loc_scale``
    gives (loc, scale) and ``fill_standard`` the u.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        params = tuple(float(p) for p in self.params)
        if not all(map(math.isfinite, params)):
            raise ValueError(f"noise parameters must be finite, got {params}")
        # numpy refuses a scale or range with the sign bit set, -0.0 included,
        # and a uniform range that overflows; so do these checks.
        if self.family == "gaussian":
            if len(params) != 2 or math.copysign(1.0, params[1]) < 0:
                raise ValueError(f"gaussian noise needs (mean, stddev) with stddev >= 0, got {params}")
        elif self.family == "uniform":
            if len(params) != 2 or math.copysign(1.0, params[1] - params[0]) < 0:
                raise ValueError(f"uniform noise needs (lo, hi) with lo <= hi, got {params}")
            if not math.isfinite(params[1] - params[0]):
                raise ValueError(f"uniform noise needs a finite range hi - lo, got {params}")
        elif len(params) != 1:
            raise ValueError("constant noise needs a single value")
        object.__setattr__(self, "params", params)

    @classmethod
    def gaussian(cls, mean: float = 0.0, stddev: float = 1.0) -> "NoiseSpec":
        return cls("gaussian", (mean, stddev))

    @classmethod
    def uniform(cls, lo: float = -1.0, hi: float = 1.0) -> "NoiseSpec":
        return cls("uniform", (lo, hi))

    @classmethod
    def constant(cls, value: float) -> "NoiseSpec":
        return cls("constant", (value,))

    def mean(self) -> float:
        if self.family != "uniform":
            return self.params[0]
        lo, hi = self.params
        # Halving first would round a subnormal bound, so only when the sum overflows.
        return 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.5 * lo + 0.5 * hi

    def loc_scale(self) -> tuple[float, float]:
        """(loc, scale) such that a draw is ``loc + scale * u`` for its standard draw u.

        u is N(0, 1) for a gaussian and U[0, 1) for a uniform; a constant
        is (value, 0.0).
        """
        if self.family == "uniform":
            return self.params[0], self.params[1] - self.params[0]
        if self.family == "gaussian":
            return self.params
        return self.params[0], 0.0

    def fill_standard(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Overwrite the C-contiguous float array ``out`` with standard draws u, in C order.

        ``rng.standard_normal`` or ``rng.random`` into ``out``, the stream of
        ``rng.normal`` or ``rng.uniform`` of ``out.size`` draws; a constant
        writes -0.0 and draws nothing.
        """
        if self.family == "gaussian":
            rng.standard_normal(out=out)
        elif self.family == "uniform":
            rng.random(out=out)
        else:
            out.fill(-0.0)


@dataclass(frozen=True)
class Scm:
    """A Dag plus one NoiseSpec per variable.

    ``loc_scale`` is every spec's ``loc_scale()`` as a read-only 2 x n
    array, built on first use. The noise runs, maximal runs of consecutive
    specs of one family, are found in ``noises`` by ``_row_blocks``.
    """

    dag: Dag
    noises: tuple[NoiseSpec, ...]

    def __post_init__(self):
        noises = tuple(self.noises)
        if len(noises) != self.dag.n:
            raise ValueError(f"expected {self.dag.n} noise specs, got {len(noises)}")
        object.__setattr__(self, "noises", noises)

    @functools.cached_property
    def loc_scale(self) -> np.ndarray:
        pairs = [spec.loc_scale() for spec in self.noises]
        table = np.array([[loc for loc, _ in pairs], [scale for _, scale in pairs]])
        table.flags.writeable = False
        return table

    @property
    def n(self) -> int:
        return self.dag.n


@dataclass(frozen=True)
class Dataset:
    """An m x n matrix of observations; column k holds variable k+1."""

    rows: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float, order="C")
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        _check_finite(rows)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != rows.shape[1]:
                raise ValueError(f"expected {rows.shape[1]} names, got {len(names)}")
            object.__setattr__(self, "names", names)

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def column(self, i: int) -> np.ndarray:
        check_index(i, self.n)
        return self.rows[:, i - 1]


def _check_finite(x: np.ndarray) -> None:
    """ValueError unless every value of a dataset, in either layout, is finite."""
    if not np.isfinite(x).all():
        raise ValueError("dataset contains non-finite entries")


def noise_means(scm: Scm) -> np.ndarray:
    """Vector of E[N_k]; for a root this is also its pre-intervention mean."""
    return np.array([spec.mean() for spec in scm.noises])


def _check_do(scm: Scm, do: tuple[int, float]) -> None:
    """The rule for do(X_i = c): i names a variable of ``scm`` and c is finite."""
    i, c = do
    check_index(i, scm.n)
    if not math.isfinite(c):
        raise ValueError(f"intervention value must be finite, got {c}")


def _row_blocks(scm: Scm, rows: int):
    """Yield (b0, b1, spec) for spans of variables b0+1..b1, in index order.

    A noise run is a maximal run of consecutive specs of one family in
    ``scm.noises``, found here on each call. Each span is at most ``rows``
    whole rows of one run, all but a run's last exactly ``rows``, and
    ``spec`` is the run's first spec, whose ``fill_standard`` fills the
    span's draws. Filled one after another from one generator, the spans
    side by side are the n x m standard draws of ``_draw_standard``.
    """
    end = 0
    for _, run in itertools.groupby(scm.noises, key=attrgetter("family")):
        start, spec = end, scm.noises[end]
        end += len(list(run))
        for b0 in range(start, end, rows):
            yield b0, min(b0 + rows, end), spec


def _draw_standard(scm: Scm, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous n x m ``out`` with the standard draws u of ``_draw_noise``: one fill per noise run."""
    for b0, b1, spec in _row_blocks(scm, scm.n):
        spec.fill_standard(rng, out[b0:b1])
    return out


def _draw_noise(scm: Scm, rng: np.random.Generator, out: np.ndarray, do: tuple[int, float] | None = None) -> np.ndarray:
    """Fill the C-contiguous n x m ``out`` with m draws of N_k in row k-1, and c in row i-1 under a checked do(X_i = c).

    The standard draws scaled and shifted in place by ``scm.loc_scale``,
    numpy's own draws bit for bit (see the module docstring). The
    intervened variable's noise is drawn too, then overwritten, so an
    intervention leaves every other variable's draws untouched.
    """
    _draw_standard(scm, rng, out)
    loc, scale = scm.loc_scale[:, :, None]
    out *= scale
    out += loc
    if do is not None:
        out[do[0] - 1] = do[1]
    return out


def _solved_draw(scm: Scm, rng: np.random.Generator, out: np.ndarray, do: tuple[int, float] | None = None) -> np.ndarray:
    """Fill ``out`` by ``_draw_noise`` and solve it in place: m observations, one per column, not checked finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        graph._substitute(scm.dag, _draw_noise(scm, rng, out, do), None if do is None else do[0])
    return out


def sample(scm: Scm, m: int, seed, do: tuple[int, float] | None = None) -> Dataset:
    """Draw m observations, under do(X_i = c) when ``do`` is ``(i, c)``.

    Variables are evaluated in topological order. An intervened variable is
    fixed to c (its parents and noise ignored) and its descendants respond
    through the structural equations; with the same seed, the columns of
    variables the intervention does not reach match the unintervened sample
    exactly. Values that overflow reach ``Dataset``, which refuses them.
    """
    if do is not None:
        # Before the draw writes row i - 1, where 0 would address the last row.
        _check_do(scm, do)
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    return Dataset(_solved_draw(scm, np.random.default_rng(seed), np.empty((scm.n, m)), do).T, scm.dag.names)


def analytic_means(scm: Scm) -> np.ndarray:
    """E[X_k] for every variable: the structural equations solved at the noise means."""
    return graph.solve(scm.dag, noise_means(scm))


def estimate_noise_means(dag: Dag, mu: np.ndarray) -> np.ndarray:
    """Recover noise expectations from per-variable expectations.

    Entry k is mu_k minus the weighted sum of its parents' entries; root
    entries are reported as 0. ``mu`` may be analytic means, empirical
    column means, or one observation (giving its own noise values). No plan
    needs it, as a plan reads only its starting point; the benchmark in
    ``perfbench/`` still calls it.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (dag.n,):
        raise ValueError(f"expected a length-{dag.n} vector, got shape {mu.shape}")
    est = mu - dag.weights @ mu
    est[~dag.weights.any(axis=1)] = 0.0
    return est
