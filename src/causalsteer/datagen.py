"""Random linear-SCM generation and median-split labeling.

The topology follows the experiment protocol: a block of root variables
followed by descendants that each attach to earlier vertices at random.
Everything distributional beyond the root/descendant counts (attachment
probability, weight range and sign, noise family) is a documented default
of this package, configurable and recorded in experiment manifests.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .graph import Dag
from .scm import Dataset, NoiseSpec, Scm

#: What ``numpy.random.default_rng`` receives as a generator's seed; a config document holds an integer or null.
Seed = int | np.random.SeedSequence | None


@dataclass(frozen=True)
class DagGenConfig:
    """Knobs of the random DAG generator.

    Descendant k connects to each of the vertices 1..k-1 independently with
    probability ``parent_prob`` and is topped up to ``min_parents`` by
    uniform choice when too few attach. Edge magnitudes are uniform in
    [weight_lo, weight_hi]; ``random_sign`` flips each independently.
    """

    n_roots: int = 20
    n_descendants: int = 50
    parent_prob: float = 0.05
    min_parents: int = 1
    weight_lo: float = 0.5
    weight_hi: float = 1.5
    random_sign: bool = True
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec.uniform(-1.0, 1.0))
    seed: Seed = None

    def check(self) -> None:
        if self.n_roots < 1:
            raise InvalidConfig(f"n_roots must be >= 1, got {self.n_roots}")
        if self.n_descendants < 0:
            raise InvalidConfig(f"n_descendants must be >= 0, got {self.n_descendants}")
        if not 0.0 <= self.parent_prob <= 1.0:
            raise InvalidConfig(f"parent_prob must be in [0, 1], got {self.parent_prob}")
        if self.min_parents < 1:
            raise InvalidConfig(f"min_parents must be >= 1, got {self.min_parents}")
        if self.min_parents > self.n_roots:
            raise InvalidConfig(
                f"min_parents={self.min_parents} exceeds the {self.n_roots} vertices "
                "available to the first descendant"
            )
        if not 0.0 < self.weight_lo <= self.weight_hi:
            raise InvalidConfig(
                "weight magnitudes must satisfy 0 < weight_lo <= weight_hi, "
                f"got [{self.weight_lo}, {self.weight_hi}]"
            )


def generate_random_scm(config: DagGenConfig) -> Scm:
    """Draw a random linear SCM; deterministic given ``config.seed``.

    Vertices 1..n_roots are roots; every descendant ends up with at least
    ``min_parents`` parents among the earlier vertices.
    """
    config.check()
    rng = np.random.default_rng(config.seed)
    n = config.n_roots + config.n_descendants
    weights = np.zeros((n, n))
    for k in range(config.n_roots, n):
        attach = np.flatnonzero(rng.random(k) < config.parent_prob)
        if attach.size < config.min_parents:
            pool = np.setdiff1d(np.arange(k), attach)
            extra = rng.choice(pool, size=config.min_parents - attach.size, replace=False)
            attach = np.sort(np.concatenate([attach, extra]))
        magnitude = rng.uniform(config.weight_lo, config.weight_hi, attach.size)
        if config.random_sign:
            magnitude *= rng.choice([-1.0, 1.0], attach.size)
        weights[k, attach] = magnitude
    return Scm(Dag(weights), (config.noise,) * n)


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
