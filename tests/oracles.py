"""Brute-force reference implementations the library code must agree with.

Deliberately naive: path enumeration, dense linear solves and regressions
on samples instead of forward substitution, so the two sides share no code.
The one exception is ``class1_count_by_sampling``, which must draw the very
noise the sweep draws and so samples through ``causalsteer.sample``.
"""

import numpy as np

from causalsteer import Dag, PredictionModel, Scm, sample, scores
from causalsteer.models import IRLS_L2, IRLS_MAX_ITER, IRLS_TOL


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


def root_mask(dag: Dag) -> np.ndarray:
    """Boolean vector, position k true iff variable k+1 has no parents, found row by row."""
    return np.array([np.flatnonzero(dag.weights[k]).size == 0 for k in range(dag.n)], dtype=bool)


def expanded_coeffs(n: int, model: PredictionModel) -> np.ndarray:
    """Model coefficients on all n variables, zero off the predictors."""
    w = np.zeros(n)
    for k, p in enumerate(model.predictor_indices):
        w[p - 1] = model.coeffs[k]
    return w


def solve_by_rows(dag: Dag, rhs, fixed: int | None = None) -> np.ndarray:
    """``graph.solve`` as one loop over the weight rows, in an order of its own: the sample-major reference.

    ``rhs`` is a length-n vector or an m x n matrix with one sample per row,
    the transpose of what ``graph.solve`` takes. Each pass sets every vertex
    whose parents are all set, with the same product as ``graph.solve``: the
    parents' values along the last axis of ``x`` times the vertex's weight
    row restricted to them.
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


def penalized_loglik(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """The log-likelihood of the 0/1 labels ``y`` at ``beta`` less ``IRLS_L2 / 2`` times the squared coefficients.

    ``x`` is the design matrix with its leading column of ones, the bias's,
    which is not penalized.
    """
    penalty = np.full(beta.size, IRLS_L2)
    penalty[0] = 0.0
    score = x @ beta
    return float((y * score - np.logaddexp(0.0, score)).sum() - 0.5 * penalty @ beta**2)


def irls_logistic(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Penalized logistic IRLS written the plain way: (beta, n_iter, converged).

    ``x`` is the design matrix with its leading column of ones and ``y`` the
    0/1 labels as floats. The plain Newton method with step-halving: every
    step tries the full Newton step first, halves it until the penalized
    log-likelihood does not drop and forms a fresh Hessian, the full
    product ``(x.T * w) @ x``. ``fit_logistic`` searches the step length
    and reuses a Hessian near the optimum instead; it shares only the L2
    penalty on all but the bias, the tolerance and the iteration cap. Each
    step recomputes ``x @ beta`` and the sigmoid splits on the sign by
    boolean masks.
    """

    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    penalty = np.full(x.shape[1], IRLS_L2)
    penalty[0] = 0.0
    beta = np.zeros(x.shape[1])
    current = penalized_loglik(x, y, beta)
    converged = False
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        prob = sigmoid(x @ beta)
        grad = x.T @ (y - prob) - penalty * beta
        w = prob * (1.0 - prob)
        hess = (x.T * w) @ x + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        scale = 1.0
        improved = False
        for _ in range(30):
            candidate = beta + scale * step
            ll = penalized_loglik(x, y, candidate)
            if ll >= current:
                improved = True
                break
            scale *= 0.5
        if not improved:
            converged = True
            break
        beta, current = candidate, ll
        if np.max(np.abs(scale * step)) < IRLS_TOL:
            converged = True
            break
    return beta, it, converged
