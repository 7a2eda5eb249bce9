"""Weighted directed acyclic graphs holding the causal connection matrix.

Variables are numbered 1..n in every public signature, file format, and
printed output. Internally weights are stored as a dense n x n numpy array
where ``weights[i-1, j-1]`` is the connection strength of variable j into
variable i; an entry of exactly zero means "no edge".
"""

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
    array, in the static order ``graphlib.TopologicalSorter`` gives for
    each vertex's parents (computed by ``_static_order``; graphlib is not
    used), and ``parent_weights``, each scheduled vertex's weights on those
    parents, read-only and in the same order. ``solve`` sets each vertex
    from its parents' final values only, so any topological order gives the
    same results.
    """

    weights: np.ndarray
    names: tuple[str, ...] | None = None
    schedule: tuple[tuple[int, np.ndarray], ...] = field(init=False, repr=False, compare=False)
    parent_weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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
        if not np.isfinite(w).all():
            i, j = np.argwhere(~np.isfinite(w))[0]
            raise NonFiniteWeight(int(i) + 1, int(j) + 1)
        diag = np.flatnonzero(np.diagonal(w))
        if diag.size:
            raise NonzeroDiagonal(int(diag[0]) + 1)
        # One nonzero pass lists the edges row by row, each row's columns ascending;
        # bounds[v]:bounds[v + 1] is vertex v's run of parents and of their weights.
        rows, cols = np.nonzero(w)
        cols.flags.writeable = False
        gathered = w[rows, cols]
        gathered.flags.writeable = False
        bounds = np.searchsorted(rows, np.arange(w.shape[0] + 1)).tolist()
        runs = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        order = _static_order(rows, cols, bounds)
        object.__setattr__(self, "schedule", tuple((v, cols[runs[v]]) for v in order))
        object.__setattr__(self, "parent_weights", tuple(gathered[runs[v]] for v in order))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def name_of(self, i: int) -> str:
        check_index(i, self.n)
        return self.names[i - 1] if self.names is not None else f"x{i}"

    @classmethod
    def from_edges(cls, n: int, edges, names=None) -> "Dag":
        """Build a Dag from ``(from, to, weight)`` triples with 1-based indices.

        Duplicate (from, to) pairs are rejected. The edges are checked in
        bulk; only when a check fails are they walked one by one, so the
        error names the first faulty edge.
        """
        w = np.zeros((n, n))
        edges = list(edges)
        if edges:
            frm, to, weight = zip(*edges)
            ends = frm + to
            if not (1 <= min(ends) and max(ends) <= n and len(set(zip(frm, to))) == len(edges)):
                _first_faulty_edge(n, edges)
            w[np.subtract(to, 1), np.subtract(frm, 1)] = weight
        return cls(w, names)


def _first_faulty_edge(n: int, edges) -> None:
    """Raise for the first edge with an endpoint outside 1..n or a repeated (from, to) pair."""
    seen = set()
    for frm, to, _ in edges:
        for idx in (frm, to):
            check_index(idx, n, "edge endpoint")
        if (frm, to) in seen:
            raise ValueError(f"duplicate edge {frm} -> {to}")
        seen.add((frm, to))


def _static_order(rows: np.ndarray, cols: np.ndarray, bounds: list[int]) -> list[int]:
    """The 0-based vertices in ``graphlib.TopologicalSorter.static_order`` order for the graph
    {v: parents of v} built from the edges ``(cols[e] -> rows[e])`` listed row by row.

    Kahn's algorithm (Kahn, "Topological sorting of large networks", 1962)
    with graphlib's tie rule: the parentless vertices in the order graphlib
    first meets them (each vertex, then its parents), then each vertex as
    its last parent is done, first in, first out. On a cycle, raises
    CycleDetected with the cycle met by walking from the smallest unordered
    vertex to an unordered parent until a vertex repeats.
    """
    n = len(bounds) - 1
    waiting = np.diff(bounds).tolist()
    children = [[] for _ in range(n)]
    for v, p in zip(rows.tolist(), cols.tolist()):
        children[p].append(v)

    def met(u):  # where graphlib first meets u: at its own key, or as a parent of its first child
        c = children[u][0] if children[u] else u
        return min(c, u), c < u, u

    order = sorted((u for u in range(n) if not waiting[u]), key=met)
    for p in order:
        for v in children[p]:
            waiting[v] -= 1
            if not waiting[v]:
                order.append(v)
    if len(order) == n:
        return order
    # Every unordered vertex has an unordered parent, so the walk closes a cycle.
    v, walk = next(u for u in range(n) if waiting[u]), {}
    while v not in walk:
        walk[v] = len(walk)
        v = next(p for p in cols[bounds[v]:bounds[v + 1]].tolist() if waiting[p])
    cycle = [u + 1 for u in list(walk)[walk[v]:][::-1]]
    m = cycle.index(min(cycle))
    raise CycleDetected(cycle[m:] + cycle[:m])


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
    # xt[v] is the view x[..., v], and xt[pa].transpose(last) is x[..., pa] in values and
    # strides alike, so the product is the (..., k) @ k of x[..., pa] @ weights[v, pa], bit
    # for bit: the BLAS kernel, and with it the rounding, depends on the strides.
    xt = np.moveaxis(x, -1, 0)
    last = (*range(1, x.ndim), 0)
    for (v, pa), wv in zip(dag.schedule, dag.parent_weights):
        if pa.size and v + 1 != fixed:
            xt[v] = xt[pa].transpose(last) @ wv + xt[v]
    return x


def root_mask(dag: Dag) -> np.ndarray:
    """Boolean vector, position k true iff variable k+1 has no parents."""
    return ~(dag.weights != 0.0).any(axis=1)
