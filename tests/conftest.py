import numpy as np
import pytest

from causalsteer import Dag, NoiseSpec, Scm


@pytest.fixture
def chain3() -> Dag:
    """1 -> 2 -> 3 with weights b21=2, b32=0.5."""
    return Dag(np.array([[0, 0, 0], [2, 0, 0], [0, 0.5, 0]], dtype=float))


@pytest.fixture
def seven_vertex_dag() -> Dag:
    """1->2, 1->3, 2->4, 3->4, 4->5, 4->6, 6->7 with unit weights."""
    return Dag.from_edges(
        7,
        [(1, 2, 1.0), (1, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0), (4, 5, 1.0), (4, 6, 1.0), (6, 7, 1.0)],
    )


def constant_scm(dag: Dag, values) -> Scm:
    return Scm(dag, tuple(NoiseSpec.constant(v) for v in values))


def uniform_scm(dag: Dag, lo: float = -1.0, hi: float = 1.0) -> Scm:
    return Scm(dag, (NoiseSpec.uniform(lo, hi),) * dag.n)


def dense_random_scm(n_roots: int, n_descendants: int, density: float, seed) -> Scm:
    """A random SCM with many directed paths, for properties the sparse generated DAGs rarely exercise.

    Each descendant attaches to each earlier vertex with probability
    ``density``; magnitudes are uniform in [0.5, 1.5] with random signs, and
    every noise is uniform(-1, 1).
    """
    rng = np.random.default_rng(seed)
    n = n_roots + n_descendants
    weights = rng.uniform(0.5, 1.5, (n, n)) * rng.choice([-1.0, 1.0], (n, n)) * (rng.random((n, n)) < density)
    weights = np.tril(weights, k=-1)
    weights[:n_roots] = 0.0
    return uniform_scm(Dag(weights))
