"""From-scratch classifiers behind one train/predict/probability contract.

Five families: one-vs-rest logistic regression (truncated Newton-CG on
Hessian-vector products, with an Armijo line search on the exact objective,
so the recorded loss trace never increases), one-vs-rest linear SVM
(Pegasos subgradient schedule), one-vs-rest RBF kernel SVM (sequential
minimal optimization with LIBSVM's second-order working-set selection, on
a kept dual gradient, drawing no random numbers), a CART decision tree, and
a bagged random forest. Soft and hard voting combine trained models.

Each family is one row of `FAMILIES`: its hyperparameters (defaults and
admitted values), its fit, its scorer and its input form. This module
alone decides what a model sees: every trainer and `predict_proba` take
any finite 2-D matrix, sparse or dense, through one input step. lr and
svm_linear work on it in the form it is given (CSR or dense rows); the
`dense` families, svm_rbf, dt and rf, on a dense array made within their
`densify_budget`, or a `DataError`, so their output depends on the values
of the input, not on its storage. lr, svm_linear and svm_rbf share one
one-vs-rest loop; a decision tree is the one-tree, no-bootstrap case of
the forest trainer.

A forest's trees grow together, each depth first on its own stack: a
round takes the next node of every tree, draws each node's feature sample
from its own tree's RNG, and searches all of them in one array pass, in
chunks within a fixed element budget, scoring only the boundaries between
distinct values. Scoring walks every tree at once, one level a step. Both
give, bit for bit, what growing one tree after another with a loop over
every threshold, and walking each tree row by row, give (the tests keep
those as oracles): the same trees and node numbers, the same RNG draws,
the same probabilities. A trainer whose fitted state is not finite raises
`DataError` instead of returning a model that cannot be saved.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import DataError, UsageError
from .util import (
    canonical_json,
    check_envelope,
    derive_rng,
    read_envelope,
    read_section,
    write_envelope,
)

MODEL_FORMAT = "ssd-model-v1"
_OVERFLOWED = "training overflowed to a non-finite model; rescale the features"


def _is_number(value) -> bool:
    # bool is an int to isinstance, but `true` is no number; NaN, infinity
    # and integers past the float range can be neither computed with nor
    # saved in a model file or report
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class Rule(NamedTuple):
    """The values a hyperparameter admits: in words, and as a test."""
    says: str
    admits: Callable[[object], bool]


_POSITIVE = Rule("a positive number", lambda v: _is_number(v) and v > 0)
_NON_NEGATIVE = Rule("a number >= 0", lambda v: _is_number(v) and v >= 0)
_AT_LEAST_ONE = Rule("an integer >= 1", lambda v: _is_number(v) and isinstance(v, int) and v >= 1)
_MAX_FEATURES = Rule("null, 'sqrt' or an integer >= 1",
                     lambda v: v is None or v == "sqrt" or _AT_LEAST_ONE.admits(v))
_MAX_DEPTH = Rule("null or an integer >= 1", lambda v: v is None or _AT_LEAST_ONE.admits(v))
_MIN_SPLIT = Rule("an integer >= 2", lambda v: _AT_LEAST_ONE.admits(v) and v >= 2)
_GAMMA = Rule("'scale' or a positive number", lambda v: v == "scale" or _POSITIVE.admits(v))
_BOOL = Rule("true or false", lambda v: isinstance(v, bool))
# rows x columns a dense family may densify, and rows x rows of svm_rbf's
# training kernel: 800 MB of float64, enough for the paper's setting of
# ~10k comments with up to ~10k TF-IDF columns
_DENSIFY_BUDGET = (100_000_000, _AT_LEAST_ONE)


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise UsageError(f"unknown model family {self.family!r}")
        known = FAMILIES[self.family].hyper
        unknown = set(self.hyperparameters) - set(known)
        if unknown:
            raise UsageError(f"unknown {self.family} hyperparameters: {sorted(unknown)}")
        for name, value in self.hyperparameters.items():
            rule = known[name][1]
            if not rule.admits(value):
                raise UsageError(f"{self.family}.{name} must be {rule.says}, got {value!r}")

    def hyper(self, name: str):
        return self.hyperparameters.get(name, FAMILIES[self.family].hyper[name][0])


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


def _model_input(X, spec: ModelSpec, n_features: int | None = None):
    """The matrix a model of spec's family sees: finite values, in CSR or
    dense form as given for the linear families, and as a dense array,
    densified within `densify_budget`, for the others. A `csr_matrix`
    passes through without a copy; other sparse forms become one. A
    prediction passes the fitted width, which is checked before anything
    is densified."""
    if sparse.issparse(X):
        if not isinstance(X, sparse.csr_matrix):
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
    if FAMILIES[spec.family].dense and sparse.issparse(X):
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


def _train(family: str, X, y, spec: ModelSpec, classes) -> TrainedModel:
    """What every trainer does around its family's fit: check that the
    spec is of `family`, take the input step, resolve the classes, check
    the sample count, and wrap the state that the family's `fit` returns
    once it is finite."""
    if spec.family != family:
        raise UsageError(f"train_{family} was given a {spec.family} spec")
    X = _model_input(X, spec)
    y, classes, priors = _resolve_classes(y, classes)
    if len(y) != X.shape[0]:
        raise UsageError("X and y disagree on sample count")
    state = FAMILIES[family].fit(X, y, classes, spec)
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


def _margin_proba(margins: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Each present class's expit(margin), normalized per row; an absent
    class scores zero. Where every present class's expit underflows to 0,
    a row takes the limit of those ratios: a softmax of its margins."""
    scores = expit(margins)
    scores[:, ~present] = 0.0
    totals = scores.sum(axis=1, keepdims=True)
    lost = totals[:, 0] == 0.0
    if lost.any():
        at = np.ix_(lost, present)
        scores[at] = np.exp(margins[at] - margins[at].max(axis=1, keepdims=True))
        totals[lost] = scores[lost].sum(axis=1, keepdims=True)
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


def _linear_scores(state: dict, X) -> np.ndarray:
    return _margin_proba(np.asarray(X @ state["W"].T) + state["b"], state["present"])


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


# ---------------------------------------------------------------------------
# RBF-kernel SVM (SMO with second-order working-set selection)


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * |a - b|^2) for every row a of A and b of B, computed as
    `exp(-gamma * max(|a|^2 + |b|^2 - 2 a.b, 0))` in two len(A) x len(B)
    buffers, with no other temporary of that size."""
    cross = 2.0 * A @ B.T
    sq = np.add(np.sum(A * A, axis=1)[:, None], np.sum(B * B, axis=1)[None, :])
    np.subtract(sq, cross, out=sq)
    np.maximum(sq, 0.0, out=sq)
    np.multiply(sq, -gamma, out=sq)
    return np.exp(sq, out=sq)


def resolve_gamma(gamma, X: np.ndarray) -> float:
    if gamma != "scale":
        return float(gamma)
    scaled = X.shape[1] * float(X.var())
    # a zero or subnormal variance would give an infinite gamma, a NaN kernel
    if scaled == 0.0 or not math.isfinite(1.0 / scaled):
        return 1.0
    return 1.0 / scaled


# stands in for a pair's curvature when it is not positive (LIBSVM's TAU)
_TAU = 1e-12


def _fit_binary_smo(K, targets, C, tol, max_passes):
    """Minimize the dual 1/2 a.Qa - sum(a), Q = (y y') * K, over 0 <= a <= C
    and y.a = 0 by SMO with second-order working-set selection (Fan, Chen &
    Lin, JMLR 2005; the solver of LIBSVM, Chang & Lin, ACM TIST 2011).

    The gradient G = Qa - 1 is kept current with two kernel rows a step.
    Each step takes i, the row of I_up with the largest -y.G, and j, the
    row of I_low whose pair with i promises the largest decrease of the
    objective, and solves that two-variable problem exactly within the box.
    The fit stops once the gap m(a) - M(a) between the largest -y.G over
    I_up and the smallest over I_low is at most tol, or after
    max_passes * n steps. Returns the multipliers, the intercept b (minus
    LIBSVM's rho) and whether the step cap stopped the fit. No random
    numbers are drawn."""
    n = len(targets)
    alphas = np.zeros(n)
    G = -np.ones(n)
    diag = K.diagonal()
    positive = targets > 0
    steps = 0
    while True:
        score = -targets * G
        up = np.where(positive, alphas < C, alphas > 0)
        low = np.where(positive, alphas > 0, alphas < C)
        up_score = np.where(up, score, -np.inf)
        low_score = np.where(low, score, np.inf)
        i = int(up_score.argmax())
        m_up, m_low = up_score[i], low_score.min()
        converged = m_up - m_low <= tol
        if converged or steps == max_passes * n:
            break
        # j minimizes -gain^2 / curvature over the rows of I_low that
        # violate the optimality condition with i (gain > 0)
        gain = m_up - low_score
        curvature = diag[i] + diag - 2.0 * K[i]
        curvature[curvature <= 0] = _TAU
        j = int(np.where(gain > 0, -(gain * gain) / curvature, np.inf).argmin())
        old_i, old_j = alphas[i], alphas[j]
        if targets[i] != targets[j]:
            delta = (-G[i] - G[j]) / curvature[j]
            diff = old_i - old_j
            new_i, new_j = old_i + delta, old_j + delta
            if diff > 0:
                if new_j < 0:
                    new_i, new_j = diff, 0.0
                if new_i > C:
                    new_i, new_j = C, C - diff
            else:
                if new_i < 0:
                    new_i, new_j = 0.0, -diff
                if new_j > C:
                    new_i, new_j = C + diff, C
        else:
            delta = (G[i] - G[j]) / curvature[j]
            total = old_i + old_j
            new_i, new_j = old_i - delta, old_j + delta
            if total > C:
                if new_i > C:
                    new_i, new_j = C, total - C
                if new_j > C:
                    new_i, new_j = total - C, C
            else:
                if new_j < 0:
                    new_i, new_j = total, 0.0
                if new_i < 0:
                    new_i, new_j = 0.0, total
        alphas[i], alphas[j] = new_i, new_j
        G += targets * (K[i] * (targets[i] * (new_i - old_i))
                        + K[j] * (targets[j] * (new_j - old_j)))
        steps += 1
    free = (alphas > 0) & (alphas < C)
    # with no free multiplier, b is the midpoint of the bounds m and M
    b = score[free].mean() if free.any() else (m_up + m_low) / 2.0
    return alphas, float(b), not converged


SVM_RBF_CAPPED_WARNING = (
    "RBF SVM stopped at max_passes x rows SMO steps before its optimality "
    "gap fell to tol; raise max_passes or tol"
)


def _svm_rbf_state(X, y, classes, spec: ModelSpec) -> dict:
    n, budget = X.shape[0], spec.hyper("densify_budget")
    if n * n > budget:
        raise DataError(
            f"the {n}x{n} training kernel exceeds the {spec.family} "
            f"densify_budget of {budget} elements"
        )
    gamma = resolve_gamma(spec.hyper("gamma"), X)
    K = _rbf_kernel(X, X, gamma)
    # entries lie in [0, 1], so only a NaN one (from overflow) makes the sum NaN
    if math.isnan(K.sum()):
        raise DataError(f"{spec.family} {_OVERFLOWED}")
    C, tol, max_passes = spec.hyper("C"), spec.hyper("tol"), spec.hyper("max_passes")
    capped = []

    def fit_binary(targets, rng):
        alphas, b, stopped_at_cap = _fit_binary_smo(K, targets, C, tol, max_passes)
        capped.append(stopped_at_cap)
        keep = alphas > 0
        return {
            "alphas": alphas[keep] * targets[keep],
            "sv": X[keep],
            "b": b,
            "all_alphas": alphas,
        }

    machines, present = _one_vs_rest(y, classes, spec, -1.0, fit_binary)
    if any(capped):
        # _svm_rbf_state < _train < train_svm_rbf < its caller
        warnings.warn(SVM_RBF_CAPPED_WARNING, stacklevel=4)
    return {"machines": machines, "gamma": gamma, "present": present}


def _svm_rbf_scores(state: dict, X: np.ndarray) -> np.ndarray:
    margins = np.zeros((X.shape[0], len(state["machines"])))
    for k, machine in enumerate(state["machines"]):
        if machine is not None:
            # a machine without support vectors loads with shape (0,)
            sv = machine["sv"].reshape(-1, X.shape[1])
            K = _rbf_kernel(X, sv, state["gamma"])
            margins[:, k] = K @ machine["alphas"] + machine["b"]
    return _margin_proba(margins, state["present"])


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


# elements of one (rows x features x classes) array in a round's split
# search; a round's nodes are searched in chunks that stay within it, and a
# node wider than it a chunk of features at a time
_SPLIT_BUDGET = 1 << 14


class _Search:
    """The best split found so far for each node of one round, under the
    replacement rule of `_grow_forest`, with the left child's class counts."""

    def __init__(self, n_nodes: int, n_classes: int):
        self.bound = np.full(n_nodes, np.inf)
        self.feature = np.full(n_nodes, -1, dtype=np.int64)
        self.threshold = np.zeros(n_nodes)
        self.left_counts = np.zeros((n_nodes, n_classes))


def _search_chunk(X, y_idx, n_classes, pieces, rows, parent_counts, best: _Search):
    """Score every split of the (node, features) pieces of one chunk and
    update each node's best. A column holds one node's values of one
    feature, padded to the chunk's widest node with +inf (X is finite), and
    is sorted stably, so tied values keep the node's row order. Only the
    boundaries between distinct values are scored."""
    nodes = np.array([i for i, _ in pieces])
    widths = np.array([len(f) for _, f in pieces])
    col_piece = np.repeat(np.arange(len(pieces)), widths)
    col_feature = np.concatenate([f for _, f in pieces])
    sizes = np.array([len(rows[i]) for i in nodes])
    n_col = sizes[col_piece]
    length = int(sizes.max())
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    node_rows = np.concatenate([rows[i] for i in nodes])
    at = np.minimum(np.arange(length), n_col[:, None] - 1) + starts[col_piece][:, None]
    at = node_rows[at]
    values = X[at, col_feature[:, None]]
    values[np.arange(length) >= n_col[:, None]] = np.inf
    order = np.argsort(values, axis=1, kind="stable")
    order += np.arange(0, values.size, length)[:, None]
    values = values.ravel()[order]
    labels = y_idx[at.ravel()[order]]
    del at, order  # freed before the class counts, to keep the chunk's peak low
    # split position s (rows left of it) lies between sorted rows s-1 and s
    col, below = np.nonzero((values[:, 1:] != values[:, :-1])
                            & (np.arange(1, length) < n_col[:, None]))
    if not len(col):
        return
    left = np.stack([np.cumsum(labels == k, axis=1)[col, below]
                     for k in range(n_classes)], axis=1).astype(float)
    piece = col_piece[col]
    n = sizes[piece]
    right = parent_counts[nodes[piece]] - left
    split_at = below + 1.0
    weighted = (split_at * _gini(left) + (n - split_at) * _gini(right)) / n
    # A piece's candidates are met in (feature, threshold) order, and one
    # replaces the best so far only when it is lower by more than 1e-15. So
    # the piece's first minimum m is chosen if m beats the best so far and
    # every candidate before it lies more than 1e-15 above m; otherwise the
    # rule is stepped along the piece's running minimum.
    bounds = np.searchsorted(piece, np.arange(len(pieces) + 1))
    found = np.flatnonzero(bounds[1:] > bounds[:-1])
    first = bounds[found]
    least = np.minimum.reduceat(weighted, first)
    least_each = np.repeat(least, bounds[found + 1] - first)
    argmin = np.flatnonzero(weighted == least_each)
    argmin = argmin[np.searchsorted(argmin, first)]
    near = np.flatnonzero(~(least_each < weighted - 1e-15))
    near = near[np.searchsorted(near, first)]
    before = best.bound[nodes[found]]
    chosen = np.where(least < before - 1e-15, argmin, -1)
    for j in np.flatnonzero((chosen >= 0) & (near != argmin)):
        lo, hi = first[j], bounds[found[j] + 1]
        falling = -np.minimum.accumulate(weighted[lo:hi])
        step, bound = -1, before[j]
        while True:
            nxt = int(np.searchsorted(falling, -(bound - 1e-15), side="right"))
            if nxt == hi - lo:
                break
            step, bound = nxt, weighted[lo + nxt]
        chosen[j] = lo + step
    keep = chosen >= 0
    chosen, node = chosen[keep], nodes[found[keep]]
    c, s = col[chosen], below[chosen]
    low, high = values[c, s], values[c, s + 1]
    # the midpoint of adjacent floats can round up to `high`, and
    # `x <= high` would then send every row left
    threshold = (low + high) / 2.0
    best.bound[node] = weighted[chosen]
    best.feature[node] = col_feature[c]
    best.threshold[node] = np.where(threshold >= high, low, threshold)
    best.left_counts[node] = left[chosen]


def _search_round(X, y_idx, n_classes, rows, counts, features) -> _Search:
    """The best split of each node of a round, node i having rows[i],
    class counts counts[i] and the sorted features features[i]: the lowest
    weighted child impurity, feature -1 where every feature is constant on
    the node. Nodes are packed into chunks widest first; a node too wide for
    one chunk is searched a chunk of features at a time, in feature order."""
    best = _Search(len(rows), n_classes)
    cap = max(1, _SPLIT_BUDGET // n_classes)  # rows x features a chunk
    pieces: list[tuple[int, np.ndarray]] = []
    length = columns = 0
    for i in sorted(range(len(rows)), key=lambda i: -len(rows[i])):
        feats, start = features[i], 0
        while start < len(feats):
            if not pieces:
                length = len(rows[i])
            room = cap // length - columns
            if room <= 0 and pieces:
                _search_chunk(X, y_idx, n_classes, pieces, rows, counts, best)
                pieces, columns = [], 0
                continue
            take = feats[start:start + max(room, 1)]
            pieces.append((i, take))
            columns += len(take)
            start += len(take)
    if pieces:
        _search_chunk(X, y_idx, n_classes, pieces, rows, counts, best)
    return best


def _feature_sample(rng, d: int, max_features: int | None) -> np.ndarray:
    """A node's features, ascending: max_features of the d drawn without
    replacement from its tree's RNG, or all d, which draws nothing."""
    if max_features is None or max_features >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=max_features, replace=False))


def _grow_forest(X, y_idx, n_classes, samples, rngs, min_split, max_depth, max_features):
    """Grow one tree per (sample, rng) pair, all at once.

    Each tree grows depth first: it splits the top node of its own stack
    and pushes the right child, then the left, so the left subtree is grown
    (and numbered) first. A round takes the next node of every tree that
    has one; each such node draws its sorted feature sample (`max_features`
    of them, or all) from its tree's RNG, and one search scores them all.
    A node becomes a leaf, and is never pushed, when it has fewer than
    min_split rows, lies at max_depth or is pure; a searched node stays a
    leaf when every sampled feature is constant on it.

    Candidates are met feature by feature (ascending), each feature's
    thresholds ascending, and one replaces the best so far only when its
    weighted impurity is lower by more than 1e-15: near-ties go to the
    lower feature index, then the lower threshold. A threshold is the
    midpoint of two neighbouring distinct values. Rows at or below it go
    left, and each child takes its class counts from the split."""
    d = X.shape[1]
    feature = [[-1] for _ in samples]
    threshold = [[0.0] for _ in samples]
    left = [[-1] for _ in samples]
    right = [[-1] for _ in samples]
    proba = [[] for _ in samples]
    stacks: list[list] = [[] for _ in samples]

    def searched(counts, depth):
        # the nodes to search: those with min_split rows, below max_depth
        # and impure; the others are leaves
        search = (counts.sum(axis=1) >= min_split) & (_gini(counts) != 0.0)
        if max_depth is not None:
            search &= depth < max_depth
        return search

    counts = np.array([np.bincount(y_idx[s], minlength=n_classes) for s in samples],
                      dtype=float)
    for t, (sample, c, search) in enumerate(zip(samples, counts, searched(counts, 0))):
        proba[t].append(c / c.sum())
        if search:
            stacks[t].append((0, sample, 0, c))
    while True:
        popped = [(t, stacks[t].pop()) for t in range(len(samples)) if stacks[t]]
        if not popped:
            break
        rows = [entry[1] for _, entry in popped]
        counts = np.array([entry[3] for _, entry in popped])
        feats = [_feature_sample(rngs[t], d, max_features) for t, _ in popped]
        best = _search_round(X, y_idx, n_classes, rows, counts, feats)
        split = np.flatnonzero(best.feature >= 0)
        if not split.size:
            continue
        sizes = [len(rows[i]) for i in split]
        at_or_below = X[np.concatenate([rows[i] for i in split]),
                        np.repeat(best.feature[split], sizes)] \
            <= np.repeat(best.threshold[split], sizes)
        # each split's left and right child, side by side
        children = np.empty((len(split), 2, n_classes))
        children[:, 0] = best.left_counts[split]
        children[:, 1] = counts[split] - children[:, 0]
        depth = np.array([popped[i][1][2] + 1 for i in split])
        search = searched(children.reshape(-1, n_classes), np.repeat(depth, 2)).reshape(-1, 2)
        distribution = children / children.sum(axis=2, keepdims=True)
        for j, goes_left in enumerate(np.split(at_or_below, np.cumsum(sizes)[:-1])):
            t, (node, r, _, _) = popped[split[j]]
            child = len(feature[t])
            feature[t][node] = int(best.feature[split[j]])
            threshold[t][node] = float(best.threshold[split[j]])
            left[t][node], right[t][node] = child, child + 1
            feature[t] += [-1, -1]
            threshold[t] += [0.0, 0.0]
            left[t] += [-1, -1]
            right[t] += [-1, -1]
            proba[t] += [distribution[j, 0], distribution[j, 1]]
            # the left child goes on top, to be grown (and numbered) next
            if search[j, 1]:
                stacks[t].append((child + 1, r[~goes_left], depth[j], children[j, 1]))
            if search[j, 0]:
                stacks[t].append((child, r[goes_left], depth[j], children[j, 0]))
    return [
        {
            "feature": np.array(feature[t], dtype=np.int64),
            "threshold": np.array(threshold[t]),
            "left": np.array(left[t], dtype=np.int64),
            "right": np.array(right[t], dtype=np.int64),
            "proba": np.vstack(proba[t]),
        }
        for t in range(len(samples))
    ]


def _resolve_max_features(value, d: int) -> int | None:
    if value is None:
        return None
    if value == "sqrt":
        return int(np.ceil(np.sqrt(d)))
    return min(int(value), d)


def _forest_state(X, y, classes, spec: ModelSpec, n_trees: int, bootstrap: bool,
                  min_split: int, max_depth: int | None) -> dict:
    """A forest of n_trees, tree t grown on its own RNG stream ("tree", t)
    from a bootstrap sample or from every row."""
    index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([index[v] for v in y])
    max_features = _resolve_max_features(spec.hyper("max_features"), X.shape[1])
    n = X.shape[0]
    rngs = [derive_rng(spec.seed, "tree", t) for t in range(n_trees)]
    samples = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    return {"trees": _grow_forest(X, y_idx, len(classes), samples, rngs, min_split,
                                  max_depth, max_features)}


def _dt_state(X, y, classes, spec: ModelSpec) -> dict:
    # the one-tree, no-bootstrap forest, with its own depth and split limits
    return _forest_state(X, y, classes, spec, 1, False,
                         spec.hyper("min_samples_split"), spec.hyper("max_depth"))


def _rf_state(X, y, classes, spec: ModelSpec) -> dict:
    return _forest_state(X, y, classes, spec, spec.hyper("n_trees"),
                         spec.hyper("bootstrap"), 2, None)


def _forest_scores(state: dict, X: np.ndarray) -> np.ndarray:
    """The mean of the trees' leaf distributions, summed in tree order.
    Every tree is walked at once: each (tree, row) pair steps down one level
    per step until it stands on a leaf."""
    trees = state["trees"]
    n = X.shape[0]
    offsets = np.cumsum([0] + [len(tree["feature"]) for tree in trees[:-1]])
    feature = np.concatenate([tree["feature"] for tree in trees])
    threshold = np.concatenate([tree["threshold"] for tree in trees])
    left = np.concatenate([tree["left"] + o for tree, o in zip(trees, offsets)])
    right = np.concatenate([tree["right"] + o for tree, o in zip(trees, offsets)])
    node = np.repeat(offsets, n)  # tree by tree, row by row
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        at = node[live]
        node[live] = np.where(X[live % n, feature[at]] <= threshold[at], left[at], right[at])
        live = live[feature[node[live]] >= 0]
    leaves = np.concatenate([tree["proba"] for tree in trees])[node]
    return sum(leaves.reshape(len(trees), n, -1)) / len(trees)


# ---------------------------------------------------------------------------
# the families


class Family(NamedTuple):
    """What a model family is, in one place."""
    hyper: dict  # each hyperparameter's name -> (its default, its Rule)
    fit: Callable  # (X, y, classes, spec) -> the fitted state
    scores: Callable  # (state, X) -> class probabilities, one row per row of X
    dense: bool  # works on a dense array, which sparse input is densified to


# in the default order of a voter's members, which soft-vote means keep
FAMILIES = {
    "lr": Family({"C": (1.0, _POSITIVE), "max_iter": (1000, _AT_LEAST_ONE),
                  "tol": (1e-6, _NON_NEGATIVE)}, _lr_state, _linear_scores, dense=False),
    "svm_linear": Family({"lam": (1e-4, _POSITIVE), "epochs": (50, _AT_LEAST_ONE)},
                         _svm_linear_state, _linear_scores, dense=False),
    "svm_rbf": Family({"C": (1.0, _POSITIVE), "gamma": ("scale", _GAMMA),
                       "tol": (1e-3, _NON_NEGATIVE), "max_passes": (10, _AT_LEAST_ONE),
                       "densify_budget": _DENSIFY_BUDGET},
                      _svm_rbf_state, _svm_rbf_scores, dense=True),
    "dt": Family({"max_depth": (None, _MAX_DEPTH), "min_samples_split": (2, _MIN_SPLIT),
                  "max_features": (None, _MAX_FEATURES), "densify_budget": _DENSIFY_BUDGET},
                 _dt_state, _forest_scores, dense=True),
    "rf": Family({"n_trees": (100, _AT_LEAST_ONE), "bootstrap": (True, _BOOL),
                  "max_features": ("sqrt", _MAX_FEATURES), "densify_budget": _DENSIFY_BUDGET},
                 _rf_state, _forest_scores, dense=True),
}


def _trainer(family: str):
    def train(X, y, spec: ModelSpec, classes: Sequence[str] | None = None) -> TrainedModel:
        return _train(family, X, y, spec, classes)
    train.__name__ = train.__qualname__ = f"train_{family}"
    return train


# bound by name: callers, and wrappers that time them, look up `train_<family>`
train_lr, train_svm_linear, train_svm_rbf, train_dt, train_rf = map(_trainer, FAMILIES)


# ---------------------------------------------------------------------------
# prediction


def predict_proba(m, X) -> np.ndarray:
    """Per-class probabilities; rows sum to one."""
    if isinstance(m, VotingModel):
        return _voting_proba(m, X)
    X = _model_input(X, m.spec, m.n_features)
    if X.shape[0] == 0:
        return np.zeros((0, len(m.classes)))
    return FAMILIES[m.spec.family].scores(m.state, X)


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


# each voter's model name -> its voting kind
VOTERS = {"soft_vote": "soft", "hard_vote": "hard"}


@dataclass(frozen=True)
class VotingModel:
    kind: str  # a value of VOTERS
    members: tuple
    classes: tuple[str, ...]
    priors: np.ndarray

    @property
    def n_features(self) -> int:
        return self.members[0].n_features


def make_voting(kind: str, members: Sequence) -> VotingModel:
    if kind not in VOTERS.values():
        raise UsageError(f"voting kind must be one of {list(VOTERS.values())}, got {kind!r}")
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


def vote_proba(vm: VotingModel, member_probas: Sequence[np.ndarray]) -> np.ndarray:
    """A voter's probabilities from its members' `predict_proba` outputs,
    in member order: their mean for a soft vote, the share of members whose
    most probable class each class is for a hard one."""
    stacked = [
        proba if m.classes == vm.classes else proba[:, [m.classes.index(c) for c in vm.classes]]
        for m, proba in zip(vm.members, member_probas)
    ]
    if vm.kind == "soft":
        return np.mean(stacked, axis=0)
    # hard: vote shares
    n = stacked[0].shape[0]
    votes = np.zeros((n, len(vm.classes)))
    for proba in stacked:
        winners = np.argmax(proba, axis=1)
        votes[np.arange(n), winners] += 1
    return votes / len(stacked)


def _voting_proba(vm: VotingModel, X) -> np.ndarray:
    return vote_proba(vm, [predict_proba(m, X) for m in vm.members])


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
        name = next(name for name, kind in VOTERS.items() if kind == m.kind)
        spec = {"family": name, "hyperparameters": {}, "seed": 0}
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
    section = partial(read_section, kind="model")
    state = section("state", lambda: _from_jsonable(
        json.loads(base64.b64decode(env["state"]).decode("utf-8"))
    ))
    kind = section("spec", lambda: VOTERS.get(env["spec"]["family"]))
    classes = section("labels", lambda: tuple(env["labels"]))
    priors = section("priors", lambda: np.array(env["priors"], dtype=float))
    if kind is not None:
        members = section("state", lambda: state["members"])
        return VotingModel(kind, tuple(map(model_from_envelope, members)),
                           classes, priors)
    n_features = section("n_features", lambda: int(env["n_features"]))
    spec = section("spec", lambda: ModelSpec(
        env["spec"]["family"], env["spec"]["hyperparameters"], env["spec"]["seed"]
    ))
    return TrainedModel(spec, classes, priors, n_features, state)


def save_model(m, path: str) -> None:
    write_envelope(path, model_to_envelope(m), "model")


def load_model(path: str):
    return model_from_envelope(read_envelope(path, "model"))
