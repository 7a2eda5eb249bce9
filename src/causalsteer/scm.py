"""Linear structural causal models: the data generation process.

Every variable obeys X_i = sum_k b_ik * X_k + N_i with independent noise
N_i; a root variable's value is its noise draw. Sampling is the ground
truth oracle for all interventional expectations. ``sample`` draws both
observational and interventional data; its ``seed`` is anything
``numpy.random.default_rng`` accepts (int, SeedSequence, or Generator), and
identical seeds give bitwise-identical datasets.

The noise is drawn with one in-place fill per run of consecutive equal
specs (``Scm.noise_runs``), which takes the same stream as one draw per
variable in index order: numpy computes each gaussian or uniform draw as
``loc + scale * u`` per element from standard draws taken in order, and a
fill of a contiguous block takes those draws in the same C order, then
applies the same two operations.

Samples and analytic means both come from ``graph.solve``, the package's
one forward substitution; unlike a dense solve it keeps the columns an
intervention cannot reach bitwise equal to the observational sample.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import graph
from .errors import check_index
from .graph import Dag

#: Each noise family and the names of its parameters, in the order of ``NoiseSpec.params``.
NOISE_FAMILIES = {"gaussian": ("mean", "stddev"), "uniform": ("lo", "hi"), "constant": ("value",)}


@dataclass(frozen=True)
class NoiseSpec:
    """One noise distribution: gaussian(mean, stddev), uniform(lo, hi), or constant(value)."""

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
        if self.family == "gaussian":
            return self.params[0]
        if self.family == "uniform":
            return 0.5 * (self.params[0] + self.params[1])
        return self.params[0]

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Overwrite the C-contiguous float array ``out`` with draws, in C order.

        The values and the stream position equal ``rng.normal(mean, stddev,
        out.size)`` or ``rng.uniform(lo, hi, out.size)``; a constant draws nothing.
        """
        if self.family == "constant":
            out.fill(self.params[0])
            return
        if self.family == "gaussian":
            loc, scale = self.params
            rng.standard_normal(out=out)
        else:
            loc, scale = self.params[0], self.params[1] - self.params[0]
            rng.random(out=out)
        out *= scale
        out += loc


def _run_key(spec: NoiseSpec):
    return spec.family, spec.params, math.copysign(1.0, spec.params[0])


@dataclass(frozen=True)
class Scm:
    """A Dag plus one NoiseSpec per variable.

    The constructor stores ``noise_runs``: ``(start, end, spec)`` for each
    maximal run of consecutive equal specs, 0-based and end-exclusive, in
    index order. Equal specs draw the same bits except where a gaussian mean
    or a constant is 0.0 in one and -0.0 in the other (0.0 + -0.0 is 0.0),
    so the sign of the first parameter splits runs too. The other
    parameters cannot differ that way: a stddev and a uniform ``hi - lo``
    are never -0.0.
    """

    dag: Dag
    noises: tuple[NoiseSpec, ...]
    noise_runs: tuple[tuple[int, int, NoiseSpec], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        noises = tuple(self.noises)
        if len(noises) != self.dag.n:
            raise ValueError(f"expected {self.dag.n} noise specs, got {len(noises)}")
        object.__setattr__(self, "noises", noises)
        runs, start = [], 0
        for _, group in itertools.groupby(noises, key=_run_key):
            end = start + len(list(group))
            runs.append((start, end, noises[start]))
            start = end
        object.__setattr__(self, "noise_runs", tuple(runs))

    @property
    def n(self) -> int:
        return self.dag.n


@dataclass(frozen=True)
class Dataset:
    """An m x n matrix of observations; column k holds variable k+1."""

    rows: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise ValueError("dataset contains non-finite entries")
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


def noise_means(scm: Scm) -> np.ndarray:
    """Vector of E[N_k]; for a root this is also its pre-intervention mean."""
    return np.array([spec.mean() for spec in scm.noises])


def _draw_noise(scm: Scm, rng: np.random.Generator, m: int) -> np.ndarray:
    """An n x m array whose row k-1 holds m draws of N_k.

    One fill per run of equal specs, the same stream as one draw per
    variable in index order (see the module docstring). The order does not
    depend on the evaluation order, so an intervention leaves every other
    variable's draws untouched.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    noise = np.empty((scm.n, m))
    for start, end, spec in scm.noise_runs:
        spec.fill(rng, noise[start:end])
    return noise


def _simulate(scm: Scm, m: int, seed, do: tuple[int, float] | None) -> np.ndarray:
    if do is not None:
        # Before the noise write, where 0 would address the last row.
        check_index(do[0], scm.n)
    noise = _draw_noise(scm, np.random.default_rng(seed), m)
    if do is not None:
        noise[do[0] - 1] = do[1]
    # One sample per row for solve. Rebinding frees the drawn array before
    # solve copies, and the copy is freed before Dataset copies the result.
    noise = np.ascontiguousarray(noise.T)
    return graph.solve(scm.dag, noise, fixed=None if do is None else do[0])


def sample(scm: Scm, m: int, seed, do: tuple[int, float] | None = None) -> Dataset:
    """Draw m observations, under do(X_i = c) when ``do`` is ``(i, c)``.

    Variables are evaluated in topological order. An intervened variable is
    fixed to c (its parents and noise ignored) and its descendants respond
    through the structural equations; with the same seed, the columns of
    variables the intervention does not reach match the unintervened sample
    exactly.
    """
    return Dataset(_simulate(scm, m, seed, do), scm.dag.names)


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
    est[graph.root_mask(dag)] = 0.0
    return est
