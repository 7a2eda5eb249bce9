"""Brute-force reference implementations the library code must agree with.

Deliberately naive: path enumeration, dense linear solves and regressions
on samples instead of forward substitution, so the two sides share no code.
The one exception is ``class1_count_by_sampling``, which must draw the very
noise the sweep draws and so samples through ``causalsteer.sample``.
"""

import numpy as np

from causalsteer import Dag, PredictionModel, Scm, sample, scores


def enumerate_paths(dag: Dag, i: int, j: int):
    """All directed paths i -> ... -> j as lists of 1-based vertices."""
    w = dag.weights
    paths = []

    def walk(v: int, trail: list[int]):
        if v == j:
            paths.append(trail.copy())
            return
        for child in np.flatnonzero(w[:, v - 1]):
            walk(int(child) + 1, trail + [int(child) + 1])

    walk(i, [i])
    return paths


def path_product_effect(dag: Dag, i: int, j: int) -> float:
    """Sum over directed paths i -> j of the product of edge weights."""
    if i == j:
        return 1.0
    total = 0.0
    for path in enumerate_paths(dag, i, j):
        product = 1.0
        for a, b in zip(path, path[1:]):
            product *= dag.weights[b - 1, a - 1]
        total += product
    return total


def causal_effect_regression(data, dag: Dag, i: int, j: int) -> float:
    """Sampled causal effect of X_i on X_j: the coefficient of X_i in a least-squares
    regression of X_j on X_i and its parents pa(X_i), the back-door adjustment set.
    """
    pa = [int(p) + 1 for p in np.flatnonzero(dag.weights[i - 1]) if p != j - 1]
    x = data.rows[:, [c - 1 for c in [i] + pa]]
    design = np.column_stack([np.ones(len(x)), x])
    return float(np.linalg.lstsq(design, data.rows[:, j - 1], rcond=None)[0][1])


def expanded_coeffs(n: int, model: PredictionModel) -> np.ndarray:
    """Model coefficients on all n variables, zero off the predictors."""
    w = np.zeros(n)
    for k, p in enumerate(model.predictor_indices):
        w[p - 1] = model.coeffs[k]
    return w


def solve_by_rows(dag: Dag, rhs, fixed: int | None = None) -> np.ndarray:
    """``graph.solve`` as one loop over the weight rows, in an order of its own.

    Each pass sets every vertex whose parents are all set, with the same
    product as ``graph.solve``: the parents' values along the last axis of
    ``x`` times the vertex's weight row restricted to them.
    """
    x = np.array(rhs, dtype=float)
    w = dag.weights
    done: set[int] = set()
    while len(done) < dag.n:
        for v in sorted(set(range(dag.n)) - done):
            pa = np.flatnonzero(w[v])
            if done.issuperset(pa.tolist()):
                if pa.size and v + 1 != fixed:
                    x[..., v] = x[..., pa] @ w[v, pa] + x[..., v]
                done.add(v)
    return x


def interventional_means_solve(dag: Dag, base_terms, i: int, c: float) -> np.ndarray:
    """E[X | do(X_i = c)] by a dense linear solve.

    Solves (I - W~) x = t where W~ zeroes the intervened row and t holds the
    base terms with t_i = c.
    """
    w = dag.weights.copy()
    t = np.asarray(base_terms, dtype=float).copy()
    w[i - 1, :] = 0.0
    t[i - 1] = c
    return np.linalg.solve(np.eye(dag.n) - w, t)


def prediction_effects_dense(dag: Dag, w) -> np.ndarray:
    """Every variable's total effect on the prediction w . x: (I - W)^-T w."""
    return np.linalg.solve((np.eye(dag.n) - dag.weights).T, np.asarray(w, dtype=float))


def grid_refine_intervention_value(
    dag: Dag,
    mu,
    noise,
    model: PredictionModel,
    i: int,
    d: float,
    lo: float = -1e6,
    hi: float = 1e6,
    rounds: int = 12,
    points: int = 129,
) -> float:
    """Minimize the squared prediction gap over c on a shrinking grid.

    A brute-force check of the closed form, evaluating the objective through
    ``interventional_means_solve``.
    """
    roots = ~(dag.weights != 0.0).any(axis=1)
    base = np.where(roots, np.asarray(mu, float), np.asarray(noise, float))
    w = expanded_coeffs(dag.n, model)

    def objective(c: float) -> float:
        means = interventional_means_solve(dag, base, i, c)
        return (float(w @ means) + model.bias - d) ** 2

    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        values = [objective(c) for c in grid]
        k = int(np.argmin(values))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, points - 1)]
    return float(0.5 * (lo + hi))


def draw_noise_per_variable(scm: Scm, rng: np.random.Generator, m: int) -> np.ndarray:
    """The n x m noise of ``scm._draw_noise`` drawn one variable at a time,
    in index order, through numpy's own ``normal`` and ``uniform``.
    """
    noise = np.empty((scm.n, m))
    for k, spec in enumerate(scm.noises):
        if spec.family == "gaussian":
            noise[k] = rng.normal(spec.params[0], spec.params[1], size=m)
        elif spec.family == "uniform":
            noise[k] = rng.uniform(spec.params[0], spec.params[1], size=m)
        else:
            noise[k] = spec.params[0]
    return noise


def class1_count_by_sampling(scm: Scm, model: PredictionModel, i: int, c: float, n_post: int, seed) -> int:
    """The sweep's class-1 count the long way: sample n_post rows under
    do(X_i = c), score every row, and flip a fair coin for each exact zero.
    """
    rng = np.random.default_rng(seed)
    s = scores(model, sample(scm, n_post, rng, do=(i, c)).rows)
    ones = int((s > 0).sum())
    ties = int((s == 0).sum())
    if ties:
        ones += int(rng.integers(2, size=ties).sum())
    return ones
