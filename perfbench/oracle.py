"""Correctness checks the benchmark applies to every run.

The plan oracle is a dense linear solve written here, sharing no code with
causalsteer: under do(X_i = c) the mean vector x solves (I - W~) x = t,
where W~ is W with row i zeroed and t holds the base terms with t_i = c.
Base terms are the noise means for a population plan and the
observation's own noise values, obs - W obs, for an observation-specific
plan (a root's row of W is zero, so its base term is its observed value).
"""

import math

import numpy as np

#: A plan's expected prediction must hit d to this relative tolerance.
PLAN_RTOL = 1e-9
#: Sweep accuracies and their replay may differ by this many standard
#: errors of the difference of two binomial proportions.
REPLAY_Z = 5.0

CSV_HEADER = "d,accuracy_optimal,accuracy_naive,n_failed"


class CheckFailed(Exception):
    pass


def noise_mean(family: str, params) -> float:
    if family == "uniform":
        return 0.5 * (params[0] + params[1])
    if family in ("gaussian", "constant"):
        return params[0]
    raise CheckFailed(f"unknown noise family {family!r}")


def population_base(scm) -> np.ndarray:
    return np.array([noise_mean(s.family, s.params) for s in scm.noises])


def observation_base(weights: np.ndarray, observation) -> np.ndarray:
    obs = np.asarray(observation, dtype=float)
    return obs - weights @ obs


def full_coeffs(n: int, model) -> np.ndarray:
    w = np.zeros(n)
    for k, p in enumerate(model.predictor_indices):
        w[p - 1] = model.coeffs[k]
    return w


def check_plan(weights: np.ndarray, base: np.ndarray, model, i: int, c: float, d: float) -> None:
    """E[prediction | do(X_i = c)] must equal d, by a dense solve."""
    n = weights.shape[0]
    w_do = np.array(weights, dtype=float)
    w_do[i - 1, :] = 0.0
    t = np.array(base, dtype=float)
    t[i - 1] = c
    x = np.linalg.solve(np.eye(n) - w_do, t)
    coef = full_coeffs(n, model)
    achieved = float(coef @ x) + model.bias
    # Relative to the largest term of the sum, so cancellation is allowed for.
    scale = max(1.0, abs(d), float(np.abs(coef * x).sum()) + abs(model.bias))
    if not abs(achieved - d) <= PLAN_RTOL * scale:
        raise CheckFailed(f"plan do(X{i} = {c!r}) gives expected prediction {achieved!r}, wanted {d!r}")


def check_target_choice(weights: np.ndarray, model, chosen: int) -> None:
    """``chosen`` must maximise |total effect on the prediction| over the predictors.

    The total effects of all variables on the prediction are (I - W)^-T w.
    """
    n = weights.shape[0]
    effects = np.abs(np.linalg.solve((np.eye(n) - weights).T, full_coeffs(n, model)))
    candidates = model.predictor_indices
    if chosen not in candidates:
        raise CheckFailed(f"chosen variable {chosen} is not a predictor")
    best = max(effects[c - 1] for c in candidates)
    if effects[chosen - 1] < best * (1.0 - PLAN_RTOL):
        got = float(effects[chosen - 1])
        raise CheckFailed(f"variable {chosen} has |effect| {got!r}, the best is {float(best)!r}")


def check_sweep_csv(text: str, d_values, n_dags: int) -> list[tuple[float, float, float, int]]:
    """Parse ``sweep_result_to_csv`` output, checking it is well formed."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"sweep CSV header is {lines[:1]!r}")
    if len(lines) != 1 + len(d_values):
        raise CheckFailed(f"sweep CSV has {len(lines) - 1} rows for {len(d_values)} d values")
    rows = []
    for line, d in zip(lines[1:], d_values):
        fields = line.split(",")
        if len(fields) != 4:
            raise CheckFailed(f"sweep CSV row {line!r} has {len(fields)} fields")
        try:
            row = (float(fields[0]), float(fields[1]), float(fields[2]), int(fields[3]))
        except ValueError as exc:
            raise CheckFailed(f"sweep CSV row {line!r}: {exc}") from None
        if row[0] != d:
            raise CheckFailed(f"sweep CSV row {line!r} is not for d={d:g}")
        if not (0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0):
            raise CheckFailed(f"sweep CSV row {line!r} has an accuracy outside [0, 1]")
        if not 0 <= row[3] <= n_dags:
            raise CheckFailed(f"sweep CSV row {line!r}: n_failed outside 0..{n_dags}")
        rows.append(row)
    if len({r[3] for r in rows}) != 1:
        raise CheckFailed("sweep CSV rows disagree on n_failed")
    return rows


def check_replay_agreement(result, replay_opt, replay_naive, n_ok: int, n_post: int) -> float:
    """Per-d accuracies of ``run_sweep`` against the public-call replay.

    Both pool n_ok * n_post Bernoulli outcomes per d, so they may differ by
    REPLAY_Z standard errors of a difference of two binomial proportions.
    Returns the largest absolute difference seen.
    """
    trials = n_ok * n_post
    worst = 0.0
    for row, opt, naive in zip(result.rows, replay_opt, replay_naive):
        for got, want in ((row.accuracy_optimal, opt), (row.accuracy_naive, naive)):
            p = 0.5 * (got + want)
            bound = REPLAY_Z * math.sqrt(2.0 * p * (1.0 - p) / trials) + 1e-12
            diff = abs(got - want)
            if not diff <= bound:
                raise CheckFailed(f"d={row.d:g}: sweep accuracy {got!r} vs replay {want!r} exceeds {bound:.3g}")
            worst = max(worst, diff)
    return worst
