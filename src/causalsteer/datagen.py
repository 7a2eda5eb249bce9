"""Random linear-SCM generation and median-split labeling.

The topology follows the experiment protocol: a block of root variables
followed by descendants that each attach to earlier vertices at random.
Only the root/descendant counts and the seed are configurable; the paper
fixes only the graph size. Everything distributional beyond it (attachment
probability, weight range and sign, noise family) is fixed by the module
constants below and is not configurable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .graph import Dag
from .scm import Dataset, NoiseSpec, Scm

#: What ``numpy.random.default_rng`` receives as a generator's seed; a config document holds an integer or null.
Seed = int | np.random.SeedSequence | None

#: Probability that a descendant attaches to each earlier vertex; one with no parent gets one uniform pick.
PARENT_PROB = 0.05
#: Edge magnitudes are uniform in this range, each sign an independent coin flip.
WEIGHT_RANGE = (0.5, 1.5)
#: The two signs, indexed by the coin flip.
SIGNS = np.array([-1.0, 1.0])
#: The exogenous noise of every generated variable.
NOISE = NoiseSpec.uniform(-1.0, 1.0)


@dataclass(frozen=True)
class DagGenConfig:
    """Size and seed of a random DAG: ``n_roots`` roots, then ``n_descendants`` descendants."""

    n_roots: int = 20
    n_descendants: int = 50
    seed: Seed = None

    def check(self) -> None:
        if self.n_roots < 1:
            raise InvalidConfig(f"n_roots must be >= 1, got {self.n_roots}")
        if self.n_descendants < 0:
            raise InvalidConfig(f"n_descendants must be >= 0, got {self.n_descendants}")
        # numpy refuses a negative seed without naming it; a SeedSequence needs no check.
        if isinstance(self.seed, int) and self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


def generate_random_scm(config: DagGenConfig) -> Scm:
    """Draw a random linear SCM; deterministic given ``config.seed``.

    Vertices 1..n_roots are roots; descendant k attaches to each earlier
    vertex with probability ``PARENT_PROB``, and to one uniform pick when
    none attaches.
    """
    config.check()
    rng = np.random.default_rng(config.seed)
    n = config.n_roots + config.n_descendants
    weights = np.zeros((n, n))
    for k in range(config.n_roots, n):
        attach = np.flatnonzero(rng.random(k) < PARENT_PROB)
        if attach.size == 0:
            attach = rng.integers(0, k, size=1)
        magnitude = rng.uniform(*WEIGHT_RANGE, attach.size)
        magnitude *= SIGNS[rng.integers(0, 2, attach.size)]
        weights[k, attach] = magnitude
    return Scm(Dag(weights), (NOISE,) * n)


def median_split_labels(data: Dataset, target_index: int) -> np.ndarray:
    """Binary labels: 1 where the target column exceeds its median, else 0.

    For even m the median is the lower of the two middle order statistics,
    so at least one sample always lands in class 0. Classes are balanced in
    expectation for a continuous target.
    """
    y = data.column(target_index)
    if y.size < 2:
        raise ValueError(f"need at least 2 samples to split, got {y.size}")
    median = np.sort(y)[(y.size - 1) // 2]
    return (y > median).astype(int)


def pick_random_target(n: int, seed) -> int:
    """Uniform draw from 1..n, deterministic per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return int(np.random.default_rng(seed).integers(1, n + 1))
