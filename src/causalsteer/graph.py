"""Weighted directed acyclic graphs holding the causal connection matrix.

Variables are numbered 1..n in every public signature, file format, and
printed output. Internally weights are stored as a dense n x n numpy array
where ``weights[i-1, j-1]`` is the connection strength of variable j into
variable i; an entry of exactly zero means "no edge".
"""

import graphlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, NonFiniteWeight, NonzeroDiagonal, check_index


@dataclass(frozen=True)
class Dag:
    """Immutable weighted DAG over variables 1..n, valid by construction.

    The constructor raises NonFiniteWeight, NonzeroDiagonal, or
    CycleDetected (with one witness cycle) unless the weights describe a
    finite, zero-diagonal DAG. It then stores the evaluation schedule once:
    ``(vertex, parent indices)`` pairs, 0-based, the parents a read-only
    array, in the deterministic topological order of
    ``graphlib.TopologicalSorter``. ``solve`` sets each vertex from its
    parents' final values only, so any topological order gives the same
    results.
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
        # One nonzero pass lists the edges row by row, each row's columns ascending;
        # bounds[v]:bounds[v + 1] is vertex v's run of parents.
        rows, cols = np.nonzero(w)
        cols.flags.writeable = False
        bounds = np.searchsorted(rows, np.arange(w.shape[0] + 1)).tolist()
        parents = [cols[a:b] for a, b in zip(bounds, bounds[1:])]
        sorter = graphlib.TopologicalSorter({v: pa.tolist() for v, pa in enumerate(parents)})
        try:
            order = tuple(sorter.static_order())
        except graphlib.CycleError as exc:
            # args[1] lists the cycle in edge order with its first vertex repeated at the end.
            cycle = [v + 1 for v in exc.args[1][:-1]]
            m = cycle.index(min(cycle))
            raise CycleDetected(cycle[m:] + cycle[:m]) from None
        object.__setattr__(self, "schedule", tuple((v, parents[v]) for v in order))

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


def root_mask(dag: Dag) -> np.ndarray:
    """Boolean vector, position k true iff variable k+1 has no parents."""
    return ~(dag.weights != 0.0).any(axis=1)
