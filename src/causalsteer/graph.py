"""Weighted directed acyclic graphs holding the causal connection matrix.

Variables are numbered 1..n in every public signature, file format, and
printed output. Internally weights are stored as a dense n x n numpy array
where ``weights[i-1, j-1]`` is the connection strength of variable j into
variable i; an entry of exactly zero means "no edge".

The SCM is evaluated in two passes over the Dag's stored schedule, both
against the total-effect matrix (I - W)^-1 and neither forming it:
``solve`` substitutes forward, x = (I - W)^-1 rhs, for a vector or for one
column per sample; ``solve_transposed`` accumulates in reverse, y = rhs (I -
W)^-1, for one row, such as the total effect of every variable on a score.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, NonFiniteWeight, NonzeroDiagonal, check_index, check_indices


@dataclass(frozen=True)
class Dag:
    """Immutable weighted DAG over variables 1..n, valid by construction.

    The constructor raises NonFiniteWeight, NonzeroDiagonal, or
    CycleDetected (with one witness cycle) unless the weights describe a
    finite, zero-diagonal DAG. It then stores the evaluation schedule once:
    ``(vertex, parents, weights)`` triples, 0-based, in Kahn order (see
    ``_static_order``); ``parents`` are the vertex's parent indices
    ascending and ``weights`` its weights on them, both read-only arrays.
    ``solve`` sets each vertex from its parents' final values only, so any
    topological order gives the same results.
    """

    weights: np.ndarray
    names: tuple[str, ...] | None = None
    schedule: tuple[tuple[int, np.ndarray, np.ndarray], ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "schedule", tuple((v, cols[runs[v]], gathered[runs[v]]) for v in order))

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
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
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
        check_indices((frm, to), n, "edge endpoint")
        if (frm, to) in seen:
            raise ValueError(f"duplicate edge {frm} -> {to}")
        seen.add((frm, to))


def _static_order(rows: np.ndarray, cols: np.ndarray, bounds: list[int]) -> list[int]:
    """The 0-based vertices in a topological order of the edges ``(cols[e] -> rows[e])``,
    listed row by row.

    Kahn's algorithm (Kahn, "Topological sorting of large networks", 1962):
    the parentless vertices in index order, then each vertex as its last
    parent is done, first in, first out. On a cycle, raises CycleDetected
    with the cycle met by walking from the smallest unordered vertex to an
    unordered parent until a vertex repeats.
    """
    n = len(bounds) - 1
    waiting = np.diff(bounds).tolist()
    children = [[] for _ in range(n)]
    for v, p in zip(rows.tolist(), cols.tolist()):
        children[p].append(v)
    order = [u for u in range(n) if not waiting[u]]
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
    """Solve x = W~ x + rhs for a length-n ``rhs`` or each column of an n x m one; W~ is W, row ``fixed`` zeroed.

    The package's one forward evaluation of the linear SCM: noise draws,
    one column per sample, give samples, noise means give means, and the
    unit vector e_i gives column i of the total-effect matrix (I - W)^-1.
    For do(X_fixed = c), put c in rhs.
    Forward substitution over parents, not a dense solve, so a variable no
    path reaches stays exactly 0.0 and the values of non-descendants of
    ``fixed`` stay bitwise equal to the unintervened ones.
    """
    x = np.array(rhs, dtype=float)
    if x.ndim > 2 or x.shape[:1] != (dag.n,):
        raise ValueError(f"expected a vector or matrix with {dag.n} rows, got shape {x.shape}")
    if fixed is not None:
        check_index(fixed, dag.n)
    _substitute(dag, x, fixed)
    return x


def _substitute(dag: Dag, x: np.ndarray, fixed: int | None = None) -> None:
    """``solve``'s substitution, in place on the float array ``x``; its shape and ``fixed`` are checked."""
    for v, pa, wv in dag.schedule:
        if pa.size and v + 1 != fixed:
            x[v] = x[pa].T @ wv + x[v]


def solve_transposed(dag: Dag, rhs, fixed: int | None = None) -> np.ndarray:
    """The row vector y = rhs (I - W~)^-1 for a length-n ``rhs``; W~ is W with row ``fixed`` zeroed.

    The adjoint of ``solve``: u . solve(dag, v) == solve_transposed(dag, u) . v.
    One pass over the schedule in reverse, in which each vertex other than
    ``fixed`` adds its weight times its final value into each parent, so it
    costs O(edges) where solving the identity costs O(n edges). Python floats
    keep structural zeros exact: a vertex with no path to a nonzero entry of
    ``rhs`` stays exactly 0.0, and y[k] == rhs[k] when none of k's
    descendants carries a nonzero entry.
    """
    y = np.asarray(rhs, dtype=float)
    if y.shape != (dag.n,):
        raise ValueError(f"expected a vector of length {dag.n}, got shape {y.shape}")
    if fixed is not None:
        check_index(fixed, dag.n)
    y = y.tolist()
    for v, pa, wv in reversed(dag.schedule):
        yv = y[v]
        if yv and v + 1 != fixed:
            for p, w in zip(pa.tolist(), wv.tolist()):
                y[p] += w * yv
    return np.array(y)
