"""Weighted directed acyclic graphs holding the causal connection matrix.

Variables are numbered 1..n in every public signature, file format, and
printed output. Internally weights are stored as a dense n x n numpy array
where ``weights[i-1, j-1]`` is the connection strength of variable j into
variable i; an entry of exactly zero means "no edge".
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, NonFiniteWeight, NonzeroDiagonal, check_index


@dataclass(frozen=True)
class Dag:
    """Immutable weighted DAG over variables 1..n, valid by construction.

    The constructor raises NonFiniteWeight, NonzeroDiagonal, or
    CycleDetected (with one witness cycle) unless the weights describe a
    finite, zero-diagonal DAG. It then stores the evaluation schedule once:
    ``(vertex, parent indices)`` pairs, 0-based, in topological order with
    the lowest ready index first, so the order is deterministic.
    """

    weights: np.ndarray
    names: tuple[str, ...] | None = None
    schedule: tuple[tuple[int, np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != w.shape[0]:
                raise ValueError(f"expected {w.shape[0]} names, got {len(names)}")
            object.__setattr__(self, "names", names)
        bad = np.argwhere(~np.isfinite(w))
        if bad.size:
            i, j = bad[0]
            raise NonFiniteWeight(int(i) + 1, int(j) + 1)
        diag = np.flatnonzero(np.diagonal(w))
        if diag.size:
            raise NonzeroDiagonal(int(diag[0]) + 1)
        order = _kahn_order(w != 0.0)
        object.__setattr__(self, "schedule", tuple((v, np.flatnonzero(w[v])) for v in order))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def name_of(self, i: int) -> str:
        check_index(i, self.n)
        return self.names[i - 1] if self.names is not None else f"x{i}"

    @classmethod
    def from_edges(cls, n: int, edges, names=None) -> "Dag":
        """Build a Dag from ``(from, to, weight)`` triples with 1-based indices.

        Duplicate (from, to) pairs are rejected.
        """
        w = np.zeros((n, n))
        seen = set()
        for frm, to, weight in edges:
            for idx in (frm, to):
                check_index(idx, n, "edge endpoint")
            if (frm, to) in seen:
                raise ValueError(f"duplicate edge {frm} -> {to}")
            seen.add((frm, to))
            w[to - 1, frm - 1] = weight
        return cls(w, names)


def _kahn_order(adj: np.ndarray) -> list[int]:
    # Kahn's algorithm, lowest ready index first; raises CycleDetected when
    # no order exists.
    n = adj.shape[0]
    indegree = adj.sum(axis=1)
    ready = [v for v in range(n) if indegree[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for child in np.flatnonzero(adj[:, v]):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, int(child))
    if len(order) < n:
        raise CycleDetected(_find_cycle(adj, set(range(n)) - set(order)))
    return order


def solve(dag: Dag, rhs, fixed: int | None = None) -> np.ndarray:
    """Solve x = W~ x + rhs along the last axis of ``rhs``; W~ is W with row ``fixed`` zeroed.

    The package's one evaluation of the linear SCM: rows of noise draws give
    samples, noise means give means, and the unit vector e_i gives column i
    of the total-effect matrix (I - W)^-1. For do(X_fixed = c), put c in rhs.
    Forward substitution over parents, not a dense solve, so a variable no
    path reaches stays exactly 0.0 and the values of non-descendants of
    ``fixed`` stay bitwise equal to the unintervened ones.
    """
    x = np.array(rhs, dtype=float)
    if x.shape[-1:] != (dag.n,):
        raise ValueError(f"expected a last axis of length {dag.n}, got shape {x.shape}")
    if fixed is not None:
        check_index(fixed, dag.n)
    w = dag.weights
    for v, pa in dag.schedule:
        if pa.size and v + 1 != fixed:
            x[..., v] = x[..., pa] @ w[v, pa] + x[..., v]
    return x


def _find_cycle(adj: np.ndarray, remaining: set[int]) -> list[int]:
    # Every vertex left over by Kahn's algorithm has a parent among the
    # leftovers, so walking parent links must revisit a vertex.
    start = min(remaining)
    walk = [start]
    pos = {start: 0}
    while True:
        parents_in = [p for p in np.flatnonzero(adj[walk[-1]]) if p in remaining]
        nxt = int(min(parents_in))
        if nxt in pos:
            s = pos[nxt]
            tail = walk[s:]
            # tail = [v_s .. v_t] with edges v_{k+1} -> v_k and closing edge
            # v_s -> v_t; report vertices in edge order starting at v_s.
            cycle = [tail[0]] + tail[:0:-1]
            m = cycle.index(min(cycle))
            cycle = cycle[m:] + cycle[:m]
            return [v + 1 for v in cycle]
        pos[nxt] = len(walk)
        walk.append(nxt)


def root_mask(dag: Dag) -> np.ndarray:
    """Boolean vector, position k true iff variable k+1 has no parents."""
    return ~(dag.weights != 0.0).any(axis=1)
