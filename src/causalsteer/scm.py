"""Linear structural causal models: the data generation process.

Every variable obeys X_i = sum_k b_ik * X_k + N_i with independent noise
N_i; a root variable's value is its noise draw. Sampling is the ground
truth oracle for all interventional expectations. ``sample`` draws both
observational and interventional data; its ``seed`` is anything
``numpy.random.default_rng`` accepts (int, SeedSequence, or Generator), and
identical seeds give bitwise-identical datasets.

Samples and analytic means both come from ``graph.solve``, the package's
one forward substitution; unlike a dense solve it keeps the columns an
intervention cannot reach bitwise equal to the observational sample.
"""

from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import check_index
from .graph import Dag

_FAMILIES = ("gaussian", "uniform", "constant")


@dataclass(frozen=True)
class NoiseSpec:
    """One noise distribution: gaussian(mean, stddev), uniform(lo, hi), or constant(value)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        params = tuple(float(p) for p in self.params)
        if not all(np.isfinite(params)):
            raise ValueError(f"noise parameters must be finite, got {params}")
        if self.family == "gaussian":
            if len(params) != 2 or params[1] < 0:
                raise ValueError("gaussian noise needs (mean, stddev) with stddev >= 0")
        elif self.family == "uniform":
            if len(params) != 2 or params[0] > params[1]:
                raise ValueError("uniform noise needs (lo, hi) with lo <= hi")
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

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        if self.family == "gaussian":
            return rng.normal(self.params[0], self.params[1], size=m)
        if self.family == "uniform":
            return rng.uniform(self.params[0], self.params[1], size=m)
        return np.full(m, self.params[0])


@dataclass(frozen=True)
class Scm:
    """A Dag plus one NoiseSpec per variable."""

    dag: Dag
    noises: tuple[NoiseSpec, ...]

    def __post_init__(self):
        noises = tuple(self.noises)
        if len(noises) != self.dag.n:
            raise ValueError(f"expected {self.dag.n} noise specs, got {len(noises)}")
        object.__setattr__(self, "noises", noises)

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

    Drawn per variable in index order, independent of evaluation order, so
    that an intervention leaves every other variable's draws untouched.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    noise = np.empty((scm.n, m))
    for k, spec in enumerate(scm.noises):
        noise[k] = spec.draw(rng, m)
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

    Entry k is mu_k minus the weighted sum of its parents' entries. Root
    entries are reported as 0: the intervention algorithm never consumes
    them (root means travel through the mu vector instead).

    ``mu`` may be analytic means, empirical column means, or one observation
    (which yields the observation-specific noise values).
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (dag.n,):
        raise ValueError(f"expected a length-{dag.n} vector, got shape {mu.shape}")
    est = mu - dag.weights @ mu
    est[graph.root_mask(dag)] = 0.0
    return est
