"""Linear and logistic prediction models and their grafting into the DAG.

A fitted model's coefficients live on the original variable scales; they
become edge weights of the prediction node when the model is grafted onto
the causal graph.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DidNotConvergeWarning, InsufficientRows, RankDeficient, SingleClass, check_index, check_indices
from .graph import Dag
from .scm import Dataset

#: IRLS stops when the largest absolute coefficient update drops below this.
IRLS_TOL = 1e-8
#: L2 penalty on the logistic coefficients (never the bias).
IRLS_L2 = 1e-6
#: IRLS gives up, with a DidNotConvergeWarning, after this many Newton steps.
IRLS_MAX_ITER = 100
# An update below this puts IRLS in Newton's quadratic phase (see fit_logistic).
_QUADRATIC_PHASE = np.sqrt(IRLS_TOL)
_EPS = np.finfo(float).eps


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
        _check_not_a_predictor(self.target_index, preds)


@dataclass(frozen=True)
class AugmentedGraph:
    """A Dag with the prediction node grafted on as a sink.

    ``coeffs`` holds the prediction node's incoming weights scattered over
    the n variables: each predictor's model coefficient, zero elsewhere (the
    target included). The model bias is not carried: it shifts the
    prediction but no causal effect. Adding a sink keeps the graph acyclic.
    """

    base: Dag
    coeffs: np.ndarray


def fit_linear(data: Dataset, target_index: int, predictor_indices=None) -> PredictionModel:
    """Ordinary least squares of the target column on the predictor columns.

    Defaults to all remaining variables as predictors. Requires more rows
    than predictors and a full-rank design matrix, tested on the predictor
    columns scaled to largest magnitude 1 so that no column's scale matters.
    """
    preds = _resolve_predictors(data.n, target_index, predictor_indices)
    x = data.rows[:, [p - 1 for p in preds]]
    y = data.rows[:, target_index - 1]
    m, p = x.shape
    if m <= p:
        raise InsufficientRows(f"{m} rows cannot identify {p} coefficients plus a bias")
    divisors = np.where(x.any(axis=0), np.abs(x).max(axis=0), 1.0)
    design = np.column_stack([np.ones(m), x / divisors])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        raise RankDeficient(f"design matrix rank {rank} < {p + 1}; predictors are collinear")
    return PredictionModel("linear", float(beta[0]), beta[1:] / divisors, preds, target_index)


def fit_logistic(data: Dataset, labels, predictor_indices=None, *, target_index: int) -> PredictionModel:
    """Penalized maximum-likelihood logistic regression via IRLS.

    Newton steps; the L2 penalty ``IRLS_L2`` on the coefficients (never the
    bias) guarantees a finite optimum under complete separation. Each step's
    length t is searched by Newton's method in t on the penalized
    log-likelihood phi, concave along the step, from t = 1 inside a bracket
    of its maximum; a trial costs O(m), not a product with the design. The
    search stops only at a trial whose move is under 1% of t and whose slopes
    prove the step does not go downhill: by concavity, phi(t) - phi(0) >=
    lo phi'(lo) + (t - lo) phi'(t), lo the last trial with phi' > 0 (else 0),
    and that bound must reach minus phi's rounding. After 30 trials without
    such a stop the step takes lo, and lo = 0 means no length gains: the fit
    has converged. No log-likelihood is ever evaluated.
    The Hessian X^T diag(w) X is one symmetric product z^T z with
    z = diag(sqrt(w)) X, formed unless the last update is below
    ``sqrt(IRLS_TOL)``: in Newton's quadratic phase a step solves with the
    last Hessian formed. The plain method, full Newton steps halved as
    needed and a fresh Hessian each, is ``irls_logistic`` in
    ``tests/oracles.py``: the two reach the same optimum to the fit's
    tolerance, not bit for bit, and this one in no more steps on every
    design tested.
    Converged when the largest absolute coefficient update drops below
    ``IRLS_TOL``. On hitting ``IRLS_MAX_ITER`` a DidNotConvergeWarning is
    issued and the model is returned with ``converged=False``. A design
    entry above sqrt(max float / m) in magnitude, where a Hessian entry (at
    most m max|x|^2 / 4) could overflow, raises ValueError.

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
        found = f"all labels are {classes.pop()}" if classes else "there are no rows"
        raise SingleClass(f"{found}; need both classes")

    preds = _resolve_predictors(data.n, target_index, predictor_indices)

    # The design transposed, one row per coefficient (the bias first): a
    # step that forms a Hessian scales its rows by sqrt(w) into the one
    # buffer zt, and zt @ zt.T is a single symmetric BLAS product (syrk),
    # half the flops of a general one. No array of the design's size is
    # allocated inside the loop.
    xt = np.empty((len(preds) + 1, data.m))
    xt[0] = 1.0
    # The predictors are checked, so mode="clip" never clips; it spares take
    # the m x p copy that the default mode buffers its output through.
    np.take(data.rows.T, [p - 1 for p in preds], axis=0, out=xt[1:], mode="clip")
    y = labels.astype(float)
    penalty = np.full(xt.shape[0], IRLS_L2)
    penalty[0] = 0.0
    diag = np.diag_indices(xt.shape[0])

    zt = np.empty_like(xt)
    limit = np.sqrt(np.finfo(float).max / data.m)
    largest = np.abs(xt, out=zt).max()
    if largest > limit:
        raise ValueError(f"a design entry of magnitude {largest:g} overflows the logistic fit; the limit is {limit:g}")
    beta = np.zeros(xt.shape[0])
    score = np.zeros(data.m)
    # The residuals and weights at the current score: each step's accepted
    # trial hands on its own, so no step forms them twice.
    resid, weight = _residuals_and_weights(y, score)
    converged = False
    update = np.inf
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        grad = xt @ resid - penalty * beta
        # In Newton's quadratic phase the step solves with the last Hessian formed.
        if update >= _QUADRATIC_PHASE:
            np.multiply(xt, np.sqrt(weight), out=zt)
            hess = zt @ zt.T
            hess[diag] += penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # The step length maximizes phi, concave along the step: Newton's
        # method from 1, kept inside a bracket [lo, hi] of the maximum, until
        # a move under 1% (within about 1e-4) at a trial that the ascent bound
        # of the docstring shows is not downhill. q is the change of the score
        # per unit length.
        q = step @ xt
        q2 = q * q
        step_penalty = (penalty * step) @ step
        noise = _EPS * (np.abs(score).sum() + data.m)
        scale, lo, hi, lo_slope = 1.0, 0.0, np.inf, 0.0
        for _ in range(30):
            trial = score + scale * q
            resid, weight = _residuals_and_weights(y, trial)
            slope = q @ resid - (penalty * (beta + scale * step)) @ step
            curv = q2 @ weight + step_penalty
            if not curv > 0:  # a zero step
                break
            move = slope / curv
            if abs(move) <= 0.01 * scale and lo * lo_slope + (scale - lo) * slope >= -noise:
                break
            lo, lo_slope, hi = (scale, slope, hi) if slope > 0 else (lo, lo_slope, scale)
            if lo < scale + move < hi:
                scale += move
            else:
                scale = 2.0 * scale if hi == np.inf else 0.5 * (lo + hi)
        else:
            if lo == 0.0:
                # No length along the Newton direction gains; the optimum is
                # resolved to machine precision.
                converged = True
                break
            scale = lo
            trial = score + scale * q
            resid, weight = _residuals_and_weights(y, trial)
        beta, score = beta + scale * step, trial
        update = np.max(np.abs(scale * step))
        if update < IRLS_TOL:
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
    )


def _resolve_predictors(n: int, target_index: int, predictor_indices) -> tuple[int, ...]:
    check_index(target_index, n, "target index")
    if predictor_indices is None:
        return tuple(i for i in range(1, n + 1) if i != target_index)
    preds = tuple(int(i) for i in predictor_indices)
    check_indices(preds, n, "predictor index")
    _check_not_a_predictor(target_index, preds)
    return preds


def _check_not_a_predictor(target_index: int, preds: tuple[int, ...]) -> None:
    # PredictionModel and _resolve_predictors both call this: a model read from
    # a file reaches no fit, and a fit must refuse before it runs.
    if target_index in preds:
        raise ValueError(f"target variable {target_index} cannot be a predictor")


def _residuals_and_weights(y: np.ndarray, score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The logistic residuals y - sigma(score) and IRLS weights sigma (1 - sigma).
    prob = _sigmoid(score)
    return y - prob, prob * (1.0 - prob)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh saturates at +-1 instead of overflowing, so no z needs a branch.
    return 0.5 + 0.5 * np.tanh(0.5 * z)


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
    weights; the base graph is not modified. The one check of a model's indices
    against a graph, it raises IndexOutOfRange: "predictor index k out of range
    1..n" for the first predictor past n, else "target index k out of range 1..n".
    """
    check_indices(model.predictor_indices, dag.n, "predictor index")
    check_index(model.target_index, dag.n, "target index")
    coeffs = np.zeros(dag.n)
    coeffs[[p - 1 for p in model.predictor_indices]] = model.coeffs
    coeffs.flags.writeable = False
    return AugmentedGraph(dag, coeffs)
