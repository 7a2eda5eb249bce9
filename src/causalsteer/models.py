"""Linear and logistic prediction models and their grafting into the DAG.

A fitted model's coefficients live on the original variable scales; they
become edge weights of the prediction node when the model is grafted onto
the causal graph.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DidNotConvergeWarning, InsufficientRows, RankDeficient, SingleClass, check_index
from .graph import Dag
from .scm import Dataset

#: IRLS stops when the largest absolute coefficient update drops below this.
IRLS_TOL = 1e-8
#: L2 penalty on the logistic coefficients (never the bias).
IRLS_L2 = 1e-6
#: IRLS gives up, with a DidNotConvergeWarning, after this many Newton steps.
IRLS_MAX_ITER = 100


@dataclass(frozen=True)
class PredictionModel:
    """Bias and coefficients of a linear or logistic model.

    ``coeffs[k]`` belongs to variable ``predictor_indices[k]`` (1-based).
    For a logistic model the linear score is the log-odds of class 1.
    """

    kind: str
    bias: float
    coeffs: np.ndarray
    predictor_indices: tuple[int, ...]
    target_index: int
    converged: bool = True
    n_iter: int = 0
    loglik_trace: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind not in ("linear", "logistic"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        coeffs = np.array(self.coeffs, dtype=float).reshape(-1)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        preds = tuple(int(i) for i in self.predictor_indices)
        object.__setattr__(self, "predictor_indices", preds)
        if len(preds) != coeffs.size:
            raise ValueError(f"{len(preds)} predictors but {coeffs.size} coefficients")
        if not (np.isfinite(self.bias) and np.isfinite(coeffs).all()):
            raise ValueError(f"bias and coefficients must be finite, got {self.bias} and {coeffs}")
        if len(set(preds)) != len(preds):
            raise ValueError("duplicate predictor indices")
        if min(preds + (self.target_index,)) < 1:
            raise ValueError(f"variable indices start at 1, got predictors {preds} and target {self.target_index}")
        if self.target_index in preds:
            raise ValueError(f"target variable {self.target_index} cannot be a predictor")


@dataclass(frozen=True)
class AugmentedGraph:
    """A Dag with the prediction node grafted on as a sink.

    The prediction node's parents are the predictors and its incoming
    weights are the model coefficients. The model bias is not carried: it
    shifts the prediction but no causal effect. Adding a sink keeps the
    graph acyclic.
    """

    base: Dag
    yhat_parents: tuple[int, ...]
    yhat_weights: np.ndarray

    def expanded_coeffs(self) -> np.ndarray:
        """Coefficients scattered into a length-n vector, zero off-predictor.

        The model target (and any unused variable) gets a zero, which is the
        "insert a zero at the target position" expansion when the predictors
        are all remaining variables.
        """
        w = np.zeros(self.base.n)
        w[np.array(self.yhat_parents) - 1] = self.yhat_weights
        return w


def fit_linear(data: Dataset, target_index: int, predictor_indices=None) -> PredictionModel:
    """Ordinary least squares of the target column on the predictor columns.

    Defaults to all remaining variables as predictors. Requires more rows
    than predictors and a full-rank design matrix.
    """
    preds = _resolve_predictors(data.n, target_index, predictor_indices)
    x = data.rows[:, [p - 1 for p in preds]]
    y = data.rows[:, target_index - 1]
    m, p = x.shape
    if m <= p:
        raise InsufficientRows(f"{m} rows cannot identify {p} coefficients plus a bias")
    design = np.column_stack([np.ones(m), x])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        raise RankDeficient(f"design matrix rank {rank} < {p + 1}; predictors are collinear")
    return PredictionModel("linear", float(beta[0]), beta[1:], preds, target_index)


def fit_logistic(data: Dataset, labels, predictor_indices=None, *, target_index: int) -> PredictionModel:
    """Penalized maximum-likelihood logistic regression via IRLS.

    Newton updates with step-halving keep the penalized log-likelihood
    non-decreasing; the L2 penalty ``IRLS_L2`` on the coefficients (never
    the bias) guarantees a finite optimum under complete separation.
    Converged when the largest absolute coefficient update drops below
    ``IRLS_TOL``. On hitting ``IRLS_MAX_ITER`` a DidNotConvergeWarning is
    issued and the model is returned with ``converged=False``.

    ``target_index`` records which variable the labels were derived from;
    the predictors default to all other variables.
    """
    labels = np.asarray(labels)
    if labels.shape != (data.m,):
        raise ValueError(f"expected {data.m} labels, got shape {labels.shape}")
    classes = set(np.unique(labels).tolist())
    if not classes <= {0, 1}:
        raise ValueError(f"labels must be 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise SingleClass(f"all labels are {classes.pop()}; need both classes")

    preds = _resolve_predictors(data.n, target_index, predictor_indices)

    x = np.column_stack([np.ones(data.m), data.rows[:, [p - 1 for p in preds]]])
    y = labels.astype(float)
    penalty = np.full(x.shape[1], IRLS_L2)
    penalty[0] = 0.0

    beta = np.zeros(x.shape[1])
    trace = [_penalized_loglik(x, y, beta, penalty)]
    converged = False
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        score = x @ beta
        prob = _sigmoid(score)
        grad = x.T @ (y - prob) - penalty * beta
        w = prob * (1.0 - prob)
        hess = (x.T * w) @ x + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # Step-halving: shrink until the penalized log-likelihood does not drop.
        scale = 1.0
        current = trace[-1]
        improved = False
        for _ in range(30):
            candidate = beta + scale * step
            ll = _penalized_loglik(x, y, candidate, penalty)
            if ll >= current:
                improved = True
                break
            scale *= 0.5
        if not improved:
            # No movement along the Newton direction helps; the optimum is
            # resolved to machine precision.
            converged = True
            break
        beta = candidate
        trace.append(ll)
        if np.max(np.abs(scale * step)) < IRLS_TOL:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"IRLS did not meet tol={IRLS_TOL} within {IRLS_MAX_ITER} iterations",
            DidNotConvergeWarning,
        )
    return PredictionModel(
        "logistic",
        float(beta[0]),
        beta[1:],
        preds,
        target_index,
        converged=converged,
        n_iter=it,
        loglik_trace=tuple(trace),
    )


def _resolve_predictors(n: int, target_index: int, predictor_indices) -> tuple[int, ...]:
    check_index(target_index, n, "target index")
    if predictor_indices is None:
        return tuple(i for i in range(1, n + 1) if i != target_index)
    preds = tuple(int(i) for i in predictor_indices)
    for i in preds:
        check_index(i, n, "predictor index")
    if target_index in preds:
        raise ValueError(f"target variable {target_index} cannot be a predictor")
    return preds


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _penalized_loglik(x, y, beta, penalty) -> float:
    score = x @ beta
    return float((y * score - np.logaddexp(0.0, score)).sum() - 0.5 * penalty @ beta**2)


def scores(model: PredictionModel, x) -> np.ndarray:
    """Linear score bias + coeffs . x along the last axis of ``x``.

    ``x`` is one observation of all n variables (giving a scalar) or an
    m x n matrix of them (giving m scores); only predictor positions are
    read. For a logistic model this is the log-odds, not the probability.
    """
    x = np.asarray(x, dtype=float)
    return model.bias + x[..., [p - 1 for p in model.predictor_indices]] @ model.coeffs


def augment_graph(dag: Dag, model: PredictionModel) -> AugmentedGraph:
    """Graft the prediction node onto the graph as a sink.

    Its parents are the model predictors with the coefficients as incoming
    weights; the base graph is not modified.
    """
    for i in model.predictor_indices + (model.target_index,):
        check_index(i, dag.n)
    return AugmentedGraph(dag, model.predictor_indices, model.coeffs)
