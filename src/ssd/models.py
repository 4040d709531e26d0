"""From-scratch classifiers behind one train/predict/probability contract.

Five families: one-vs-rest logistic regression (truncated Newton-CG on
Hessian-vector products, with an Armijo line search on the exact objective,
so the recorded loss trace never increases), one-vs-rest linear SVM
(Pegasos subgradient schedule), one-vs-rest RBF kernel SVM (simplified
sequential minimal optimization), a CART decision tree, and a bagged random
forest. Soft and hard voting combine trained models.

This module alone decides what a model sees. Every trainer and
`predict_proba` take any finite 2-D matrix, sparse or dense, through one
input step. The linear families (lr, svm_linear) work on it in the form
they are given: CSR rows for sparse input, dense rows for dense input.
svm_rbf, dt and rf work on a dense array, made within their
`densify_budget` (100 000 000 elements by default), or a `DataError`; their
output depends on the values of the input, not on its storage. lr,
svm_linear and svm_rbf share one one-vs-rest loop; a decision tree is the
one-tree, no-bootstrap case of the forest trainer.

Trees search a node's splits with array code, a chunk of features at a
time within a fixed element budget, and route rows to their leaves one
tree level at a time. Both give, bit for bit, what a loop over every
threshold and a loop over every row give (the tests keep those loops as
oracles): the same trees, the same RNG draws, the same probabilities. A
trainer whose fitted state is not finite raises `DataError` instead of
returning a model that cannot be saved.
"""

from __future__ import annotations

import base64
import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import DataError, UsageError
from .util import (
    canonical_json,
    check_envelope,
    derive_rng,
    read_envelope,
    write_envelope,
)

MODEL_FORMAT = "ssd-model-v1"
_OVERFLOWED = "training overflowed to a non-finite model; rescale the features"

# rows x columns a dense family may densify: 800 MB of float64, enough for
# the paper's setting of ~10k comments with up to ~10k TF-IDF columns
_DENSIFY_BUDGET = 100_000_000

_HYPER_DEFAULTS: dict[str, dict] = {
    "lr": {"C": 1.0, "max_iter": 1000, "tol": 1e-6},
    "svm_linear": {"lam": 1e-4, "epochs": 50},
    "svm_rbf": {
        "C": 1.0,
        "gamma": "scale",
        "tol": 1e-3,
        "max_passes": 10,
        "densify_budget": _DENSIFY_BUDGET,
    },
    "dt": {
        "max_depth": None,
        "min_samples_split": 2,
        "max_features": None,
        "densify_budget": _DENSIFY_BUDGET,
    },
    "rf": {
        "n_trees": 100,
        "bootstrap": True,
        "max_features": "sqrt",
        "densify_budget": _DENSIFY_BUDGET,
    },
}


def _check_hyper(family: str, name: str, value) -> None:
    positive = {"C", "lam"}
    at_least_one = {"max_iter", "epochs", "max_passes", "n_trees", "densify_budget"}
    if name in positive and not (isinstance(value, (int, float)) and value > 0):
        raise UsageError(f"{family}.{name} must be positive, got {value!r}")
    if name in at_least_one and not (isinstance(value, int) and value >= 1):
        raise UsageError(f"{family}.{name} must be an integer >= 1, got {value!r}")
    if name == "tol" and not (isinstance(value, (int, float)) and value >= 0):
        raise UsageError(f"{family}.tol must be >= 0, got {value!r}")
    if name == "gamma" and value != "scale" and not (
        isinstance(value, (int, float)) and value > 0
    ):
        raise UsageError(f"{family}.gamma must be 'scale' or positive, got {value!r}")
    if name == "max_depth" and value is not None and not (
        isinstance(value, int) and value >= 1
    ):
        raise UsageError(f"{family}.max_depth must be None or >= 1, got {value!r}")
    if name == "min_samples_split" and not (isinstance(value, int) and value >= 2):
        raise UsageError(f"{family}.min_samples_split must be >= 2, got {value!r}")
    if name == "max_features" and value is not None and value != "sqrt" and not (
        isinstance(value, int) and value >= 1
    ):
        raise UsageError(f"{family}.max_features must be None, 'sqrt', or >= 1")
    if name == "bootstrap" and not isinstance(value, bool):
        raise UsageError(f"{family}.bootstrap must be a bool, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in _HYPER_DEFAULTS:
            raise UsageError(f"unknown model family {self.family!r}")
        defaults = _HYPER_DEFAULTS[self.family]
        unknown = set(self.hyperparameters) - set(defaults)
        if unknown:
            raise UsageError(
                f"unknown {self.family} hyperparameters: {sorted(unknown)}"
            )
        for name, value in self.hyperparameters.items():
            _check_hyper(self.family, name, value)

    def hyper(self, name: str):
        return self.hyperparameters.get(name, _HYPER_DEFAULTS[self.family][name])


def make_spec(family: str, seed: int = 0, **hyperparameters) -> ModelSpec:
    return ModelSpec(family, hyperparameters, seed)


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    classes: tuple[str, ...]
    priors: np.ndarray
    n_features: int
    state: dict


# ---------------------------------------------------------------------------
# the model-input contract and the trainer preamble

# families that work on dense arrays only
_DENSE_FAMILIES = ("svm_rbf", "dt", "rf")


def _model_input(X, spec: ModelSpec, n_features: int | None = None):
    """The matrix a model of spec's family sees: finite values, in CSR or
    dense form as given for the linear families, and as a dense array,
    densified within `densify_budget`, for the others. A prediction
    passes the fitted width, which is checked before anything is
    densified."""
    if sparse.issparse(X):
        X = sparse.csr_matrix(X)
        values = X.data
    else:
        X = values = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise UsageError(f"feature matrix must be 2-D, got shape {X.shape}")
    if not np.isfinite(values).all():
        raise DataError("feature matrix has NaN or infinite entries")
    if n_features is not None and X.shape[1] != n_features:
        raise UsageError(
            f"feature layout mismatch: model fitted on {n_features} columns, "
            f"input has {X.shape[1]}"
        )
    if spec.family in _DENSE_FAMILIES and sparse.issparse(X):
        budget = spec.hyper("densify_budget")
        if X.shape[0] * X.shape[1] > budget:
            raise DataError(
                f"densifying a {X.shape[0]}x{X.shape[1]} matrix exceeds the "
                f"{spec.family} densify_budget of {budget} elements"
            )
        X = X.toarray()
    return X


def _resolve_classes(y: Sequence[str], classes: Sequence[str] | None):
    y = list(y)
    observed = set(y)
    if len(observed) < 2:
        raise DataError(f"training labels contain {len(observed)} distinct class(es); need >= 2")
    if classes is None:
        classes = tuple(sorted(observed))
    else:
        classes = tuple(classes)
        extra = observed - set(classes)
        if extra:
            raise DataError(f"labels outside the declared class list: {sorted(extra)}")
        absent = [c for c in classes if c not in observed]
        if absent:
            # _resolve_classes < _train < train_<family> < its caller
            warnings.warn(
                f"classes absent from training data score zero probability: {absent}",
                stacklevel=4,
            )
    counts = np.array([sum(1 for v in y if v == c) for c in classes], dtype=float)
    return y, classes, counts / len(y)


def _train(fit_state, X, y, spec: ModelSpec, classes) -> TrainedModel:
    """What every trainer does around its family's fit: take the input
    step, resolve the classes, check the sample count, and wrap the
    state that `fit_state(X, y, classes, spec)` returns once it is
    finite."""
    X = _model_input(X, spec)
    y, classes, priors = _resolve_classes(y, classes)
    if len(y) != X.shape[0]:
        raise UsageError("X and y disagree on sample count")
    state = fit_state(X, y, classes, spec)
    if not _finite(state):
        raise DataError(f"{spec.family} {_OVERFLOWED}")
    return TrainedModel(spec, classes, priors, X.shape[1], state)


def _finite(value) -> bool:
    """Whether every number in a fitted state is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, float):  # numpy's float64 too
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return True


def _one_vs_rest(y, classes, spec: ModelSpec, negative: float, fit_binary):
    """One binary machine per class: `fit_binary(targets, rng)` gets
    targets 1 for the class and `negative` for the rest, and the class's
    own RNG stream (family, class). A class absent from y gets None.
    Returns the machines and the present-class mask."""
    present = np.array([c in y for c in classes], dtype=bool)
    machines = []
    for cls, here in zip(classes, present):
        targets = np.array([1.0 if v == cls else negative for v in y])
        rng = derive_rng(spec.seed, spec.family, cls)
        machines.append(fit_binary(targets, rng) if here else None)
    return machines, present


def _linear_state(machines, present, n_features: int, traces_key: str) -> dict:
    """Stack (w, b, trace) machines into one weight matrix; an absent
    class keeps zero weights and an empty trace."""
    W = np.zeros((len(machines), n_features))
    b = np.zeros(len(machines))
    for k, machine in enumerate(machines):
        if machine is not None:
            W[k], b[k] = machine[0], machine[1]
    traces = [machine[2] if machine is not None else [] for machine in machines]
    return {"W": W, "b": b, "present": present, traces_key: traces}


def _normalize_rows(scores: np.ndarray) -> np.ndarray:
    totals = scores.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return scores / totals


# ---------------------------------------------------------------------------
# logistic regression


def lr_objective_grad(w: np.ndarray, b: float, X, targets: np.ndarray, C: float):
    """Mean cross-entropy plus ||w||^2 / (2 C n); returns (J, dJ/dw, dJ/db)."""
    n = len(targets)
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - targets * z)) + float(w @ w) / (2 * C * n)
    p = expit(z)
    grad_w = X.T @ (p - targets) / n + w / (C * n)
    grad_b = float(np.mean(p - targets))
    return loss, np.asarray(grad_w).ravel(), grad_b


# CG products per Newton step, at most; the forcing tolerance usually stops
# CG after about ten
_CG_MAX_ITER = 200
# the Armijo line search accepts a step that achieves this share of the
# decrease its slope predicts
_ARMIJO = 1e-4


def _lr_hessian_product(X, D, C: float, v: np.ndarray) -> np.ndarray:
    """H v for `lr_objective_grad`'s objective over (w, b), where D = p (1 - p)
    at the current point and the bias is the last, unregularized coordinate.
    X.T is a transposed view: sparse input gets no transposed copy."""
    n = X.shape[0]
    u = D * (X @ v[:-1] + v[-1])
    return np.append(X.T @ u / n + v[:-1] / (C * n), u.sum() / n)


def _newton_direction(hess_product, g: np.ndarray) -> np.ndarray:
    """Conjugate gradient on H s = -g from s = 0, stopped at the forcing
    tolerance ||r|| <= min(0.5, sqrt(||g||)) ||g||, at a direction of no
    positive curvature, or after _CG_MAX_ITER products (at most one per
    coordinate, after which exact CG has converged). Every CG iterate
    descends, so the step falls back to -g only if none was taken."""
    g_norm = float(np.linalg.norm(g))
    forcing = min(0.5, math.sqrt(g_norm)) * g_norm
    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = float(r @ r)
    for _ in range(min(len(g), _CG_MAX_ITER)):
        Hd = hess_product(d)
        curvature = float(d @ Hd)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        s += alpha * d
        r -= alpha * Hd
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= forcing:
            break
        d = r + (rr_next / rr) * d
        rr = rr_next
    return s if s.any() else -g


def _fit_binary_lr(X, targets, C, max_iter, tol):
    """Truncated Newton-CG (Lin, Weng & Keerthi, JMLR 2008) on
    `lr_objective_grad`'s objective, from w = 0, b = 0. Each step solves the
    Newton system by CG on Hessian-vector products, then backtracks from
    the full step until the exact objective meets the Armijo condition, so
    the trace of accepted losses never increases. Stops when a step
    improves the loss by less than tol, after max_iter steps, at a zero
    gradient (a minimum), or when no step decreases the loss."""
    theta = np.zeros(X.shape[1] + 1)
    loss, gw, gb = lr_objective_grad(theta[:-1], 0.0, X, targets, C)
    g = np.append(gw, gb)
    trace = [loss]
    for _ in range(max_iter):
        if not g.any():
            break
        p = expit(X @ theta[:-1] + theta[-1])
        D = p * (1.0 - p)
        s = _newton_direction(lambda v: _lr_hessian_product(X, D, C, v), g)
        slope = float(g @ s)
        step = 1.0
        while True:
            trial = theta + step * s
            loss2, gw2, gb2 = lr_objective_grad(trial[:-1], trial[-1], X, targets, C)
            if loss2 <= loss + _ARMIJO * step * slope:
                break
            step *= 0.5
            if step < 1e-12:
                return theta[:-1], float(theta[-1]), trace
        improvement = loss - loss2
        theta, loss, g = trial, loss2, np.append(gw2, gb2)
        trace.append(loss)
        if improvement < tol:
            break
    return theta[:-1], float(theta[-1]), trace


LR_CAPPED_WARNING = (
    "logistic regression stopped at max_iter before its loss improvement "
    "fell below tol; raise max_iter or tol"
)


def _lr_state(X, y, classes, spec: ModelSpec) -> dict:
    max_iter = spec.hyper("max_iter")
    hyper = (spec.hyper("C"), max_iter, spec.hyper("tol"))
    machines, present = _one_vs_rest(
        y, classes, spec, 0.0, lambda targets, rng: _fit_binary_lr(X, targets, *hyper)
    )
    # a trace holds the starting loss plus one loss per iteration
    if any(m is not None and len(m[2]) - 1 >= max_iter for m in machines):
        # _lr_state < _train < train_lr < its caller
        warnings.warn(LR_CAPPED_WARNING, stacklevel=4)
    return _linear_state(machines, present, X.shape[1], "loss_traces")


def train_lr(X, y, spec: ModelSpec, classes: Sequence[str] | None = None) -> TrainedModel:
    return _train(_lr_state, X, y, spec, classes)


# ---------------------------------------------------------------------------
# linear SVM (Pegasos)


def svm_linear_objective(w: np.ndarray, b: float, X, targets: np.ndarray, lam: float):
    margins = np.asarray(X @ w).ravel() + b
    hinge = np.maximum(0.0, 1.0 - targets * margins)
    return lam / 2 * float(w @ w) + float(hinge.mean())


def _fit_binary_pegasos(X, targets, lam, epochs, rng):
    """Pegasos on the bias-augmented problem (constant last column), so the
    intercept shrinks with the rest of the weights instead of accumulating
    the huge early 1/(lambda t) steps."""
    n = X.shape[0]
    is_sparse = sparse.issparse(X)
    if is_sparse:
        Xa = sparse.hstack([X, np.ones((n, 1))], format="csr")
        indptr, indices, data = Xa.indptr, Xa.indices, Xa.data
    else:
        Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(Xa.shape[1])
    objective_trace = []
    t = 0
    avg_w = w
    for _ in range(epochs):
        order = rng.permutation(n)
        # early epochs are dominated by the giant first steps, so the model
        # keeps the average of the final epoch's iterates
        epoch_w = np.zeros_like(w)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            if is_sparse:
                cols = indices[indptr[i]:indptr[i + 1]]
                vals = data[indptr[i]:indptr[i + 1]]
                # summed left to right in stored order, as a CSR row product
                # sums, without building a one-row matrix per step
                margin = float(np.cumsum(vals * w[cols])[-1])
            else:
                cols, vals = slice(None), Xa[i]
                margin = float(vals @ w)
            w *= 1.0 - eta * lam
            if targets[i] * margin < 1.0:
                w[cols] += eta * targets[i] * vals
            epoch_w += w
        avg_w = epoch_w / n
        objective_trace.append(
            svm_linear_objective(avg_w[:-1], float(avg_w[-1]), X, targets, lam)
        )
    return avg_w[:-1], float(avg_w[-1]), objective_trace


def _svm_linear_state(X, y, classes, spec: ModelSpec) -> dict:
    lam, epochs = spec.hyper("lam"), spec.hyper("epochs")
    machines, present = _one_vs_rest(
        y, classes, spec, -1.0,
        lambda targets, rng: _fit_binary_pegasos(X, targets, lam, epochs, rng),
    )
    return _linear_state(machines, present, X.shape[1], "objective_traces")


def train_svm_linear(
    X, y, spec: ModelSpec, classes: Sequence[str] | None = None
) -> TrainedModel:
    return _train(_svm_linear_state, X, y, spec, classes)


# ---------------------------------------------------------------------------
# RBF-kernel SVM (simplified SMO)


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def resolve_gamma(gamma, X: np.ndarray) -> float:
    if gamma != "scale":
        return float(gamma)
    scaled = X.shape[1] * float(X.var())
    # a zero or subnormal variance would give an infinite gamma, a NaN kernel
    if scaled == 0.0 or not math.isfinite(1.0 / scaled):
        return 1.0
    return 1.0 / scaled


def _fit_binary_smo(K, targets, C, tol, max_passes, rng):
    n = K.shape[0]
    alphas = np.zeros(n)
    b = 0.0
    passes = 0
    while passes < max_passes:
        changed = 0
        for i in range(n):
            err_i = float((alphas * targets) @ K[:, i]) + b - targets[i]
            if (targets[i] * err_i < -tol and alphas[i] < C) or (
                targets[i] * err_i > tol and alphas[i] > 0
            ):
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
                err_j = float((alphas * targets) @ K[:, j]) + b - targets[j]
                alpha_i, alpha_j = alphas[i], alphas[j]
                if targets[i] != targets[j]:
                    low = max(0.0, alpha_j - alpha_i)
                    high = min(C, C + alpha_j - alpha_i)
                else:
                    low = max(0.0, alpha_i + alpha_j - C)
                    high = min(C, alpha_i + alpha_j)
                if low == high:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                new_j = alpha_j - targets[j] * (err_i - err_j) / eta
                new_j = min(high, max(low, new_j))
                if abs(new_j - alpha_j) < 1e-5:
                    continue
                new_i = alpha_i + targets[i] * targets[j] * (alpha_j - new_j)
                b1 = (
                    b
                    - err_i
                    - targets[i] * (new_i - alpha_i) * K[i, i]
                    - targets[j] * (new_j - alpha_j) * K[i, j]
                )
                b2 = (
                    b
                    - err_j
                    - targets[i] * (new_i - alpha_i) * K[i, j]
                    - targets[j] * (new_j - alpha_j) * K[j, j]
                )
                if 0 < new_i < C:
                    b = b1
                elif 0 < new_j < C:
                    b = b2
                else:
                    b = (b1 + b2) / 2.0
                alphas[i], alphas[j] = new_i, new_j
                changed += 1
        passes = passes + 1 if changed == 0 else 0
    return alphas, b


def _svm_rbf_state(X, y, classes, spec: ModelSpec) -> dict:
    gamma = resolve_gamma(spec.hyper("gamma"), X)
    K = _rbf_kernel(X, X, gamma)
    # entries lie in [0, 1], so only a NaN one (from overflow) makes the sum NaN
    if math.isnan(K.sum()):
        raise DataError(f"{spec.family} {_OVERFLOWED}")
    C, tol, max_passes = spec.hyper("C"), spec.hyper("tol"), spec.hyper("max_passes")

    def fit_binary(targets, rng):
        alphas, b = _fit_binary_smo(K, targets, C, tol, max_passes, rng)
        keep = alphas > 0
        return {
            "alphas": alphas[keep] * targets[keep],
            "sv": X[keep],
            "b": b,
            "all_alphas": alphas,
        }

    machines, present = _one_vs_rest(y, classes, spec, -1.0, fit_binary)
    return {"machines": machines, "gamma": gamma, "present": present}


def train_svm_rbf(
    X, y, spec: ModelSpec, classes: Sequence[str] | None = None
) -> TrainedModel:
    return _train(_svm_rbf_state, X, y, spec, classes)


# ---------------------------------------------------------------------------
# decision tree and random forest


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity `1 - p.p` of each nonzero class-count vector along the
    last axis. `p.p` is the BLAS `ddot` of one vector pair per call, as a
    1-D `p @ p` is, which `matmul` of a row by a column gives; a row-wise
    sum or `einsum` rounds differently in the last bit, and a last-bit
    change in an impurity can move a split and so change the tree."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - np.matmul(p[..., None, :], p[..., None])[..., 0, 0]


# elements of one (rows x features x classes) array in a node's split search;
# wider nodes are searched a chunk of features at a time to stay within it
_SPLIT_BUDGET = 1 << 18


def _best_split(X, y_idx, rows, n_classes, max_features, rng):
    """Lowest weighted-child-impurity split over (sampled) features, or
    None when every sampled feature is constant on the node.

    Candidates are met feature by feature (ascending), each feature's
    thresholds ascending, and one replaces the best so far only when its
    weighted impurity is lower by more than 1e-15: near-ties go to the
    lower feature index, then the lower threshold. A threshold is the
    midpoint of two neighbouring distinct values.

    A chunk of features is scored at once: a stable argsort per column,
    cumulative class counts left and right of each split position, their
    `_gini` (whose dot product must be `ddot`-exact, see there), and the
    replacement rule stepped along the running minimum of the
    impurities."""
    d = X.shape[1]
    if max_features is not None and max_features < d:
        feats = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        feats = np.arange(d)
    n = len(rows)
    onehot = np.eye(n_classes)[y_idx[rows]]
    parent_counts = onehot.sum(axis=0)
    split_at = np.arange(1.0, n)[:, None]  # rows left of each split position
    # (weighted_impurity, feature, threshold); any finite impurity is lower
    best = (np.inf, -1, 0.0)
    step = max(1, _SPLIT_BUDGET // (n * n_classes))
    for start in range(0, len(feats), step):
        chunk = feats[start:start + step]
        values = X[np.ix_(rows, chunk)]
        order = np.argsort(values, axis=0, kind="stable")
        values = np.take_along_axis(values, order, axis=0)
        left = np.cumsum(onehot[order[:-1]], axis=0)
        right = parent_counts - left
        weighted = (split_at * _gini(left) + (n - split_at) * _gini(right)) / n
        weighted[values[1:] == values[:-1]] = np.inf  # no threshold between ties
        weighted = weighted.T.ravel()  # in the order the candidates are met
        # no candidate met before the best so far is below its impurity, so
        # the next replacement is where the running minimum first drops
        # more than 1e-15 below it
        falling = -np.minimum.accumulate(weighted)
        at, bound = -1, best[0]
        while True:
            nxt = int(np.searchsorted(falling, -(bound - 1e-15), side="right"))
            if nxt == len(weighted):
                break
            at, bound = nxt, weighted[nxt]
        if at < 0:
            continue
        f, below = divmod(at, n - 1)
        low, high = values[below, f], values[below + 1, f]
        threshold = (low + high) / 2.0
        if threshold >= high:
            # the midpoint of adjacent floats can round up to `high`,
            # and `x <= high` would then send every row left
            threshold = low
        best = (bound, int(chunk[f]), float(threshold))
    if best[1] < 0:
        return None
    return best[1], best[2]


class _TreeBuilder:
    def __init__(self, n_classes):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.proba: list[np.ndarray] = []
        self.n_classes = n_classes

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.proba.append(np.zeros(self.n_classes))
        return len(self.feature) - 1


def _grow_tree(X, y_idx, n_classes, min_split, max_depth, max_features, rng):
    tree = _TreeBuilder(n_classes)
    root = tree.add()
    stack = [(root, np.arange(len(y_idx)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        counts = np.bincount(y_idx[rows], minlength=n_classes).astype(float)
        tree.proba[node] = counts / counts.sum()
        if (
            len(rows) < min_split
            or (max_depth is not None and depth >= max_depth)
            or _gini(counts) == 0.0
        ):
            continue
        split = _best_split(X, y_idx, rows, n_classes, max_features, rng)
        if split is None:
            continue
        f, thr = split
        tree.feature[node] = f
        tree.threshold[node] = thr
        mask = X[rows, f] <= thr
        left_id = tree.add()
        right_id = tree.add()
        tree.left[node] = left_id
        tree.right[node] = right_id
        # push right first so the left child is expanded (and numbered) next
        stack.append((right_id, rows[~mask], depth + 1))
        stack.append((left_id, rows[mask], depth + 1))
    return {
        "feature": np.array(tree.feature, dtype=np.int64),
        "threshold": np.array(tree.threshold),
        "left": np.array(tree.left, dtype=np.int64),
        "right": np.array(tree.right, dtype=np.int64),
        "proba": np.vstack(tree.proba),
    }


def _tree_proba(tree: dict, X: np.ndarray) -> np.ndarray:
    # every row walks down one level per step until it stands on a leaf
    feature, threshold = tree["feature"], tree["threshold"]
    left, right = tree["left"], tree["right"]
    node = np.zeros(X.shape[0], dtype=np.int64)
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        at = node[live]
        node[live] = np.where(X[live, feature[at]] <= threshold[at], left[at], right[at])
        live = live[feature[node[live]] >= 0]
    return tree["proba"][node]


def _resolve_max_features(value, d: int) -> int | None:
    if value is None:
        return None
    if value == "sqrt":
        return int(np.ceil(np.sqrt(d)))
    return min(int(value), d)


def _forest(n_trees: int, bootstrap: bool, min_split: int, max_depth: int | None):
    """The state function of a forest of n_trees, tree t grown on its own
    RNG stream ("tree", t) from a bootstrap sample or from every row."""

    def forest_state(X, y, classes, spec: ModelSpec) -> dict:
        index = {c: i for i, c in enumerate(classes)}
        y_idx = np.array([index[v] for v in y])
        max_features = _resolve_max_features(spec.hyper("max_features"), X.shape[1])
        n = X.shape[0]
        trees = []
        for t in range(n_trees):
            rng = derive_rng(spec.seed, "tree", t)
            rows = rng.integers(0, n, size=n) if bootstrap else slice(None)
            trees.append(
                _grow_tree(
                    X[rows], y_idx[rows], len(classes), min_split, max_depth,
                    max_features, rng,
                )
            )
        return {"trees": trees}

    return forest_state


def train_dt(X, y, spec: ModelSpec, classes: Sequence[str] | None = None) -> TrainedModel:
    # the one-tree, no-bootstrap forest, with its own depth and split limits
    tree = _forest(1, False, spec.hyper("min_samples_split"), spec.hyper("max_depth"))
    return _train(tree, X, y, spec, classes)


def train_rf(X, y, spec: ModelSpec, classes: Sequence[str] | None = None) -> TrainedModel:
    forest = _forest(spec.hyper("n_trees"), spec.hyper("bootstrap"), 2, None)
    return _train(forest, X, y, spec, classes)


# ---------------------------------------------------------------------------
# prediction


def predict_proba(m, X) -> np.ndarray:
    """Per-class probabilities; rows sum to one."""
    if isinstance(m, VotingModel):
        return _voting_proba(m, X)
    X = _model_input(X, m.spec, m.n_features)
    family = m.spec.family
    if X.shape[0] == 0:
        return np.zeros((0, len(m.classes)))
    if family in ("lr", "svm_linear"):
        margins = np.asarray(X @ m.state["W"].T) + m.state["b"]
        scores = expit(margins)
        scores[:, ~m.state["present"]] = 0.0
        return _normalize_rows(scores)
    if family == "svm_rbf":
        scores = np.zeros((X.shape[0], len(m.classes)))
        for k, machine in enumerate(m.state["machines"]):
            if machine is None:
                continue
            # a machine without support vectors loads with shape (0,)
            sv = machine["sv"].reshape(-1, X.shape[1])
            K = _rbf_kernel(X, sv, m.state["gamma"])
            scores[:, k] = expit(K @ machine["alphas"] + machine["b"])
        return _normalize_rows(scores)
    acc = np.zeros((X.shape[0], len(m.classes)))
    for tree in m.state["trees"]:
        acc += _tree_proba(tree, X)
    return acc / len(m.state["trees"])


def labels_from_proba(m, proba: np.ndarray) -> list[str]:
    """The labels `predict` gives for probabilities `predict_proba` gave.
    Exact ties resolve to the earlier fit-time class; a hard vote's tied
    shares resolve to the higher prior, then the earlier class."""
    if isinstance(m, VotingModel) and m.kind == "hard":
        # shares are vote counts over one common total, so ties stay exact
        order = sorted(range(len(m.classes)), key=lambda k: (-m.priors[k], k))
        tied = proba[:, order] == proba.max(axis=1, keepdims=True)
        return [m.classes[order[j]] for j in np.argmax(tied, axis=1)]
    return [m.classes[i] for i in np.argmax(proba, axis=1)]


def predict(m, X) -> list[str]:
    """Labels from one scoring pass; ties break as in `labels_from_proba`."""
    return labels_from_proba(m, predict_proba(m, X))


# ---------------------------------------------------------------------------
# voting ensembles


@dataclass(frozen=True)
class VotingModel:
    kind: str  # "soft" | "hard"
    members: tuple
    classes: tuple[str, ...]
    priors: np.ndarray

    @property
    def n_features(self) -> int:
        return self.members[0].n_features


def make_voting(kind: str, members: Sequence) -> VotingModel:
    if kind not in ("soft", "hard"):
        raise UsageError(f"voting kind must be 'soft' or 'hard', got {kind!r}")
    if not members:
        raise UsageError("a voting ensemble needs at least one member")
    base = set(members[0].classes)
    for m in members[1:]:
        if set(m.classes) != base:
            raise UsageError("voting members disagree on the class set")
    classes = members[0].classes
    aligned_priors = np.mean(
        [
            [m.priors[m.classes.index(c)] for c in classes]
            for m in members
        ],
        axis=0,
    )
    return VotingModel(kind, tuple(members), classes, aligned_priors)


def _aligned_proba(member, X, classes) -> np.ndarray:
    proba = predict_proba(member, X)
    if member.classes == classes:
        return proba
    cols = [member.classes.index(c) for c in classes]
    return proba[:, cols]


def _voting_proba(vm: VotingModel, X) -> np.ndarray:
    stacked = [_aligned_proba(m, X, vm.classes) for m in vm.members]
    if vm.kind == "soft":
        return np.mean(stacked, axis=0)
    # hard: vote shares
    n = stacked[0].shape[0]
    votes = np.zeros((n, len(vm.classes)))
    for proba in stacked:
        winners = np.argmax(proba, axis=1)
        votes[np.arange(n), winners] += 1
    return _normalize_rows(votes)


def soft_vote(models: Sequence, X) -> tuple[list[str], np.ndarray]:
    vm = make_voting("soft", models)
    proba = predict_proba(vm, X)
    return [vm.classes[i] for i in np.argmax(proba, axis=1)], proba


def hard_vote(models: Sequence, X) -> list[str]:
    return predict(make_voting("hard", models), X)


# ---------------------------------------------------------------------------
# serialization


def _to_jsonable(value):
    if isinstance(value, np.ndarray):
        return {"__array__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def _from_jsonable(value):
    if isinstance(value, dict):
        if "__array__" in value:
            return np.array(value["__array__"], dtype=value["dtype"])
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def model_to_envelope(m) -> dict:
    if isinstance(m, VotingModel):
        state = {"members": [model_to_envelope(member) for member in m.members]}
        spec = {"family": f"{m.kind}_vote", "hyperparameters": {}, "seed": 0}
    else:
        state = _to_jsonable(m.state)
        spec = {
            "family": m.spec.family,
            "hyperparameters": _to_jsonable(m.spec.hyperparameters),
            "seed": m.spec.seed,
        }
    blob = base64.b64encode(canonical_json(state).encode("utf-8")).decode("ascii")
    return {
        "format": MODEL_FORMAT,
        "spec": spec,
        "labels": list(m.classes),
        "priors": [float(p) for p in m.priors],
        "n_features": m.n_features,
        "state": blob,
    }


def model_from_envelope(env: dict):
    check_envelope(env, MODEL_FORMAT, "model")
    state = _from_jsonable(
        json.loads(base64.b64decode(env["state"]).decode("utf-8"))
    )
    family = env["spec"]["family"]
    classes = tuple(env["labels"])
    priors = np.array(env["priors"], dtype=float)
    if family in ("soft_vote", "hard_vote"):
        members = tuple(model_from_envelope(e) for e in state["members"])
        return VotingModel(family.split("_")[0], members, classes, priors)
    spec = ModelSpec(family, env["spec"]["hyperparameters"], env["spec"]["seed"])
    return TrainedModel(spec, classes, priors, int(env["n_features"]), state)


def save_model(m, path: str) -> None:
    write_envelope(path, model_to_envelope(m), "model")


def load_model(path: str):
    return model_from_envelope(read_envelope(path, "model"))
