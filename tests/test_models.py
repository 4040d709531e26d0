"""Classifier families: training contracts, capability separations,
probability calibration shape, voting, and serialization."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

from ssd import models as M
from ssd.errors import DataError, FormatError, UsageError
from ssd.models import (
    ModelSpec,
    lr_objective_grad,
    load_model,
    make_spec,
    make_voting,
    model_from_envelope,
    model_to_envelope,
    predict,
    predict_proba,
    save_model,
    train_dt,
    train_lr,
    train_rf,
    train_svm_linear,
    train_svm_rbf,
)
from ssd.util import canonical_json, derive_rng

from conftest import (
    oracle_best_split,
    oracle_forest_proba,
    oracle_forest_state,
    oracle_gini,
    oracle_rbf_kernel,
    two_buffer_rbf_kernel,
    reference_simplified_smo,
    smo_dual_objective,
    smo_gap,
)

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = ["a", "b", "b", "a"]


def blobs(n=60, seed=0, centers=((0.0, 0.0), (6.0, 6.0))):
    rng = derive_rng(seed, "blobs")
    X, y = [], []
    for label, center in zip("ab", centers):
        X.append(rng.normal(loc=center, scale=0.6, size=(n // 2, 2)))
        y += [label] * (n // 2)
    return np.vstack(X), y


def accuracy(model, X, y):
    return float(np.mean(np.array(predict(model, X)) == np.array(y)))


TRAINERS = {
    "lr": train_lr,
    "svm_linear": train_svm_linear,
    "svm_rbf": train_svm_rbf,
    "dt": train_dt,
    "rf": train_rf,
}


class TestCapabilities:
    @pytest.mark.parametrize("family", ["lr", "svm_linear"])
    def test_linear_models_cannot_solve_xor(self, family):
        model = TRAINERS[family](XOR_X, XOR_Y, make_spec(family, seed=0))
        assert accuracy(model, XOR_X, XOR_Y) <= 0.75

    @pytest.mark.parametrize("family", ["svm_rbf", "dt", "rf"])
    def test_nonlinear_models_solve_xor(self, family):
        model = TRAINERS[family](XOR_X, XOR_Y, make_spec(family, seed=0))
        assert accuracy(model, XOR_X, XOR_Y) == 1.0

    @pytest.mark.parametrize("family", sorted(TRAINERS))
    def test_all_families_solve_separable_blobs(self, family):
        X, y = blobs(seed=3)
        model = TRAINERS[family](X, y, make_spec(family, seed=0))
        assert accuracy(model, X, y) == 1.0

    def test_multiclass_lr(self):
        rng = derive_rng(1, "multi")
        X = np.vstack([rng.normal(c, 0.5, size=(20, 2))
                       for c in [(0, 0), (6, 0), (0, 6)]])
        y = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        model = train_lr(X, y, make_spec("lr", seed=0))
        assert accuracy(model, X, y) == 1.0
        assert model.classes == ("a", "b", "c")


class TestOptimizerContracts:
    def test_lr_gradient_matches_finite_differences(self):
        rng = derive_rng(2, "fd")
        worst = 0.0
        for _ in range(20):
            n, d = int(rng.integers(4, 12)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            t = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            _, gw, gb = lr_objective_grad(w, b, X, t, C=1.0)
            eps = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = eps
                hi, _, _ = lr_objective_grad(w + e, b, X, t, C=1.0)
                lo, _, _ = lr_objective_grad(w - e, b, X, t, C=1.0)
                fd = (hi - lo) / (2 * eps)
                worst = max(worst, abs(fd - gw[j]) / max(1.0, abs(fd)))
            hi, _, _ = lr_objective_grad(w, b + eps, X, t, C=1.0)
            lo, _, _ = lr_objective_grad(w, b - eps, X, t, C=1.0)
            fd = (hi - lo) / (2 * eps)
            worst = max(worst, abs(fd - gb) / max(1.0, abs(fd)))
        assert worst < 1e-5

    def test_lr_loss_trace_monotone_non_increasing(self):
        X, y = blobs(seed=4)
        model = train_lr(X, y, make_spec("lr", seed=0))
        for trace in model.state["loss_traces"]:
            diffs = np.diff(trace)
            assert (diffs <= 1e-12).all()

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_squared_hinge_gradient_matches_finite_differences(self, layout):
        rng = derive_rng(3, "fd")
        worst = 0.0
        for _ in range(20):
            n, d = int(rng.integers(4, 12)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.7)
            t = np.where(rng.integers(0, 2, size=n) == 1, 1.0, -1.0)
            lam = float(rng.choice([1e-4, 0.1, 1.0]))
            objective, _ = M._svm_linear_problem(
                lam, sparse.csr_matrix(X) if layout == "csr" else X, t)
            theta = rng.normal(size=d + 1)
            loss, g = objective(theta)
            w, b = theta[:-1], theta[-1]
            assert loss == pytest.approx(
                lam / 2 * w @ w + np.mean(np.maximum(0.0, 1.0 - t * (X @ w + b)) ** 2),
                rel=1e-12)
            eps = 1e-6
            for j in range(d + 1):
                e = np.zeros(d + 1)
                e[j] = eps
                fd = (objective(theta + e)[0] - objective(theta - e)[0]) / (2 * eps)
                worst = max(worst, abs(fd - g[j]) / max(1.0, abs(fd)))
        assert worst < 1e-5

    def test_squared_hinge_loss_trace_monotone_non_increasing(self):
        X, y = blobs(seed=5)
        model = train_svm_linear(X, y, make_spec("svm_linear", seed=0))
        for trace in model.state["loss_traces"]:
            assert len(trace) >= 2
            assert (np.diff(trace) <= 0.0).all()
        # no random numbers are drawn: the seed changes nothing
        other = train_svm_linear(X, y, make_spec("svm_linear", seed=9))
        assert canonical_json(model_to_envelope(other)["state"]) == \
            canonical_json(model_to_envelope(model)["state"])

    def test_squared_hinge_fit_stops_below_tol(self):
        # overlapping classes, so that no step reaches a zero gradient
        X, y = blobs(seed=5, centers=((0.0, 0.0), (1.0, 1.0)))
        for lam in (1e-4, 1e-2):
            model = train_svm_linear(X, y, make_spec("svm_linear", lam=lam))
            for trace in model.state["loss_traces"]:
                assert 2 <= len(trace) - 1 < M.FAMILIES["svm_linear"].hyper["max_iter"][0]
                assert 0.0 <= trace[-2] - trace[-1] < M._NEWTON_TOL
                assert (np.diff(trace)[:-1] <= -M._NEWTON_TOL).all()

    def test_smo_multipliers_within_box(self):
        X, y = blobs(n=40, seed=6)
        spec = make_spec("svm_rbf", seed=0, C=1.0)
        model = train_svm_rbf(X, y, spec)
        for machine in model.state["machines"]:
            if machine is None:
                continue
            alphas = np.asarray(machine["all_alphas"])
            assert (alphas >= -1e-9).all()
            assert (alphas <= 1.0 + 1e-9).all()

    def test_sparse_and_dense_linear_paths_agree(self):
        X, y = blobs(seed=7)
        Xs = sparse.csr_matrix(X)
        for family in ("lr", "svm_linear"):
            dense = TRAINERS[family](X, y, make_spec(family, seed=0))
            sparse_m = TRAINERS[family](Xs, y, make_spec(family, seed=0))
            assert np.allclose(dense.state["W"], sparse_m.state["W"])
            assert predict(dense, X) == predict(sparse_m, Xs)
            for model, form in ((dense, Xs), (sparse_m, X), (sparse_m, Xs)):
                assert np.abs(predict_proba(model, form) - predict_proba(dense, X)).max() \
                    <= 1e-12, family


def gradient_descent_lr(X, targets, C, learning_rate=0.1, max_iter=1000, tol=1e-6):
    """The gradient-descent loop `lr` used before Newton-CG, with a
    halving-only step: the reference the solver's final objective must
    match or beat."""
    w, b = np.zeros(X.shape[1]), 0.0
    step = learning_rate
    loss, gw, gb = lr_objective_grad(w, b, X, targets, C)
    for _ in range(max_iter):
        while True:
            w2, b2 = w - step * gw, b - step * gb
            loss2, gw2, gb2 = lr_objective_grad(w2, b2, X, targets, C)
            if loss2 <= loss:
                break
            step *= 0.5
            if step < 1e-12:
                return loss
        improvement = loss - loss2
        w, b, loss, gw, gb = w2, b2, loss2, gw2, gb2
        if improvement < tol:
            break
    return loss


class TestNewtonSolver:
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_hessian_product_matches_central_differences(self, layout):
        rng = derive_rng(50, "hessian")
        worst = 0.0
        for _ in range(10):
            n, d = int(rng.integers(5, 15)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
            X = sparse.csr_matrix(X) if layout == "csr" else X
            t = rng.integers(0, 2, size=n).astype(float)
            C = float(rng.choice([0.3, 1.0, 4.0]))
            theta = rng.normal(size=d + 1)
            p = 1.0 / (1.0 + np.exp(-(X @ theta[:-1] + theta[-1])))
            v = rng.normal(size=d + 1)
            Hv = M._lr_hessian_product(X, X.T, p * (1.0 - p), C, v)

            def grad(th):
                _, gw, gb = lr_objective_grad(th[:-1], th[-1], X, t, C)
                return np.append(gw, gb)

            eps = 1e-5
            fd = (grad(theta + eps * v) - grad(theta - eps * v)) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - Hv))) / max(1.0, float(np.max(np.abs(fd)))))
        assert worst < 1e-7

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_lr_fit_equals_a_fit_that_transposes_on_every_call(self, layout):
        """X.T made once per machine gives the W, b and loss traces of a fit
        whose objective and Hessian products each make their own."""
        rng = derive_rng(52, "transpose")
        X = rng.normal(size=(60, 7)) * (rng.random((60, 7)) < 0.5)
        X = sparse.csr_matrix(X) if layout == "csr" else X
        y = [str(v) for v in rng.integers(0, 3, size=60)]
        spec = make_spec("lr", seed=0)
        state = train_lr(X, y, spec).state

        def per_call(targets):
            C = spec.hyper("C")

            def objective(theta):
                loss, gw, gb = lr_objective_grad(theta[:-1], theta[-1], X, targets, C)
                return loss, np.append(gw, gb)

            def hessian(theta):
                p = expit(X @ theta[:-1] + theta[-1])
                return lambda v: M._lr_hessian_product(X, X.T, p * (1.0 - p), C, v)

            return M._newton_fit(objective, hessian, X.shape[1] + 1, spec.hyper("max_iter"),
                                 spec.hyper("tol"), "lr")

        machines, present = M._one_vs_rest(y, sorted(set(y)), 0.0, per_call)
        oracle = M._linear_state(machines, present, X.shape[1])
        assert np.asarray(state["W"]).tobytes() == oracle["W"].tobytes()
        assert state["b"].tobytes() == oracle["b"].tobytes()
        assert state["loss_traces"] == oracle["loss_traces"]

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_squared_hinge_hessian_product_matches_central_differences(self, layout):
        # away from a kink (a row with t z = 1) the generalized Hessian is
        # the Hessian; a random point lies that far from every kink
        rng = derive_rng(51, "hessian")
        worst = 0.0
        for _ in range(10):
            n, d = int(rng.integers(5, 15)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
            X = sparse.csr_matrix(X) if layout == "csr" else X
            t = np.where(rng.integers(0, 2, size=n) == 1, 1.0, -1.0)
            lam = float(rng.choice([1e-4, 0.1, 1.0]))
            theta = rng.normal(size=d + 1)
            v = rng.normal(size=d + 1)
            objective, hessian = M._svm_linear_problem(lam, X, t)
            Hv = hessian(theta)(v)
            eps = 1e-6
            fd = (objective(theta + eps * v)[1] - objective(theta - eps * v)[1]) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(fd - Hv))) / max(1.0, float(np.max(np.abs(fd)))))
        assert worst < 1e-7

    def test_backtracks_past_an_overflowed_trial(self):
        # a loss that is infinite past theta = 0.5, under a Hessian that
        # understates the curvature: the full step (3.2) and two halvings
        # overflow, and the third halving lands on the minimum at 0.4
        def objective(theta):
            loss = (theta[0] - 0.4) ** 2 if theta[0] < 0.5 else np.inf
            return loss, np.array([2.0 * (theta[0] - 0.4), 0.0])

        def hessian(theta):
            return lambda v: np.array([0.25 * v[0], v[1]])

        w, b, trace = M._newton_fit(objective, hessian, 2, 10, 0.0, "lr")
        assert w.tolist() == [0.4] and b == 0.0
        assert trace == [(0.0 - 0.4) ** 2, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_traces_fall_and_forms_agree_and_gradient_descent_is_matched(self, data):
        n = data.draw(st.integers(6, 20), label="rows")
        d = data.draw(st.integers(1, 5), label="columns")
        values = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False))
        X = np.array(data.draw(st.lists(
            st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))) + 0.0
        labels = data.draw(st.sampled_from(["ab", "abc"]), label="classes")
        y = list(labels) + data.draw(st.lists(
            st.sampled_from(labels), min_size=n - len(labels), max_size=n - len(labels)))
        C = data.draw(st.sampled_from([0.1, 1.0, 10.0]), label="C")
        spec = make_spec("lr", seed=0, C=C)
        dense = train_lr(X, y, spec)
        from_csr = train_lr(sparse.csr_matrix(X), y, spec)
        assert np.allclose(dense.state["W"], from_csr.state["W"], rtol=1e-6, atol=1e-8)
        assert np.allclose(dense.state["b"], from_csr.state["b"], rtol=1e-6, atol=1e-8)
        for k, cls in enumerate(dense.classes):
            trace = dense.state["loss_traces"][k]
            assert (np.diff(trace) <= 0.0).all()
            targets = np.array([1.0 if v == cls else 0.0 for v in y])
            assert trace[-1] <= gradient_descent_lr(X, targets, C) + 1e-12


class TestSmo:
    """The WSS2 SMO solver against the simplified SMO it replaced
    (`reference_simplified_smo`), on random RBF kernels."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_solves_the_dual_within_tol(self, data):
        n = data.draw(st.integers(2, 40), label="rows")
        distinct = data.draw(st.integers(1, n), label="distinct rows")
        positives = data.draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)),
                              label="rows of the +1 class")
        C = data.draw(st.sampled_from([0.05, 1.0, 20.0]), label="C")
        gamma = data.draw(st.sampled_from([0.02, 0.5, 8.0]), label="gamma")
        tol = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.5]), label="tol")
        max_passes = data.draw(st.sampled_from([1, 10]), label="max_passes")
        rng = derive_rng(data.draw(st.integers(0, 2**16), label="seed"), "smo")
        # rows drawn from a pool of `distinct` points, so some repeat, and
        # a repeated row may carry both labels
        X = rng.normal(size=(distinct, 3))[rng.integers(0, distinct, size=n)]
        targets = np.where(rng.permutation(n) < positives, 1.0, -1.0)
        K = M._rbf_kernel(X, X, gamma)

        alphas, b, capped = M._fit_binary_smo(K, targets, C, tol, max_passes)
        assert (alphas >= 0).all() and (alphas <= C).all()
        assert abs(float(alphas @ targets)) <= 1e-9 * n * C
        slack = 1e-9 * n * C  # G is kept, the gap here is recomputed
        if not capped:
            assert smo_gap(K, targets, alphas, C) <= tol + slack
            # b puts every free multiplier's row on its margin, within the gap
            free = (alphas > 0) & (alphas < C)
            margins = targets * (K @ (alphas * targets) + b)
            assert (np.abs(margins[free] - 1.0) <= tol + slack).all()
        rerun = M._fit_binary_smo(K, targets, C, tol, max_passes)
        assert rerun[0].tobytes() == alphas.tobytes() and rerun[1:] == (b, capped)

        if tol == 1e-6 and not capped:
            ref, _ = reference_simplified_smo(K, targets, C, tol, max_passes,
                                              derive_rng(0, "reference"))
            ours, theirs = (smo_dual_objective(K, targets, a) for a in (alphas, ref))
            assert ours <= theirs + 1e-9 * abs(theirs)

    @pytest.mark.parametrize("C", [0.5, 1.0, 100.0])
    def test_two_rows_are_solved_in_one_step(self, C):
        # with k = K[0, 1], the dual optimum is a = min(C, 1 / (1 - k)) for
        # both rows, and b = 0 by symmetry, free or at the bound
        X = np.array([[0.0], [0.8]])
        K = M._rbf_kernel(X, X, 1.0)
        alphas, b, capped = M._fit_binary_smo(K, np.array([1.0, -1.0]), C, 1e-12, 1)
        expected = min(C, 1.0 / (1.0 - K[0, 1]))
        assert alphas == pytest.approx([expected, expected], rel=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12) and not capped

    def test_stopping_at_the_step_cap_warns_and_ends(self):
        X, y = blobs(n=40, seed=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train_svm_rbf(X, y, make_spec("svm_rbf", seed=0, tol=0, max_passes=1))
        capped = [w for w in caught if str(w.message) == M.SVM_RBF_CAPPED_WARNING]
        assert len(capped) == 1 and capped[0].filename == __file__
        # the machine for "a" stopped at its cap of 40 steps, short of a zero gap
        K = M._rbf_kernel(X, X, model.state["gamma"])
        targets = np.where(np.array(y) == "a", 1.0, -1.0)
        alphas, _, stopped_at_cap = M._fit_binary_smo(K, targets, 1.0, 0.0, 1)
        assert stopped_at_cap and smo_gap(K, targets, alphas, 1.0) > 0
        assert alphas.tobytes() == model.state["machines"][0]["all_alphas"].tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train_svm_rbf(X, y, make_spec("svm_rbf", seed=0))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kernel_is_bit_equal_to_the_one_expression(self, data):
        rng = derive_rng(data.draw(st.integers(0, 2**16), label="seed"), "kernel")
        n, m, d = (data.draw(st.integers(1, 12)) for _ in range(3))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 50.0]), label="scale")
        A = rng.normal(size=(n, d)) * scale
        # B repeats rows of A and its own rows, so distances of exactly 0 occur
        B = np.vstack([A, rng.normal(size=(m, d)) * scale])[
            rng.integers(0, n + m, size=m)]
        B = np.vstack([B, B[:1]])
        gamma = data.draw(st.sampled_from([1e-4, 0.3, 7.0]), label="gamma")
        for left, right in ((A, B), (A, A), (B, B)):
            assert M._rbf_kernel(left, right, gamma).tobytes() == \
                oracle_rbf_kernel(left, right, gamma).tobytes()

    @pytest.mark.parametrize("n, m, d", [(1, 7, 3), (9, 1, 3), (1, 1, 5), (40, 25, 30),
                                         (200, 120, 60), (64, 64, 1)])
    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 4.0])
    def test_kernel_bytes_equal_the_two_buffer_formula(self, n, m, d, gamma):
        rng = derive_rng(n * m * d, "kernel")
        A, B = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        for left, right in ((A, B), (B, A), (A, A)):
            assert M._rbf_kernel(left, right, gamma).tobytes() == \
                two_buffer_rbf_kernel(left, right, gamma).tobytes()

    def test_kernel_is_built_in_one_buffer(self):
        import tracemalloc

        rng = derive_rng(0, "kernel")
        A, B = rng.normal(size=(600, 20)), rng.normal(size=(500, 20))
        tracemalloc.start()
        try:
            K = M._rbf_kernel(A, B, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * K.nbytes


class TestTrees:
    def test_root_split_at_midpoint(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = ["a", "a", "b", "b"]
        model = train_dt(X, y, make_spec("dt", seed=0))
        tree = model.state["trees"][0]
        assert tree["feature"][0] == 0
        assert tree["threshold"][0] == pytest.approx(2.5)

    def test_adjacent_floats_still_split(self):
        # the midpoint of these two values rounds up to the larger one
        low = np.nextafter(1.0, 2.0)
        high = np.nextafter(low, 2.0)
        assert (low + high) / 2.0 == high
        X = np.array([[low], [high], [low], [high]])
        y = ["a", "b", "a", "b"]
        model = train_dt(X, y, make_spec("dt", seed=0, max_depth=3))
        assert model.state["trees"][0]["threshold"][0] == low
        assert predict(model, X) == y

    def test_identical_rows_become_single_leaf(self):
        X = np.ones((6, 3))
        y = ["a", "b", "a", "b", "a", "b"]
        model = train_dt(X, y, make_spec("dt", seed=0))
        assert len(model.state["trees"][0]["feature"]) == 1

    def test_min_samples_split_caps_growth(self):
        X, y = blobs(n=40, seed=8)
        spec = make_spec("dt", seed=0, min_samples_split=1000)
        model = train_dt(X, y, spec)
        assert len(model.state["trees"][0]["feature"]) == 1

    def test_rf_single_tree_no_bootstrap_equals_dt(self):
        X, y = blobs(n=30, seed=9)
        rf = train_rf(X, y, make_spec("rf", seed=3, n_trees=1, bootstrap=False))
        dt = train_dt(X, y, make_spec("dt", seed=3, max_features="sqrt"))
        rf_tree, dt_tree = rf.state["trees"][0], dt.state["trees"][0]
        assert sorted(rf_tree) == sorted(dt_tree)
        for key in rf_tree:
            assert np.array_equal(rf_tree[key], dt_tree[key])

    def test_rf_deterministic_per_seed(self):
        X, y = blobs(n=30, seed=10)
        a = train_rf(X, y, make_spec("rf", seed=5, n_trees=5))
        b = train_rf(X, y, make_spec("rf", seed=5, n_trees=5))
        assert model_to_envelope(a) == model_to_envelope(b)
        c = train_rf(X, y, make_spec("rf", seed=6, n_trees=5))
        assert model_to_envelope(a) != model_to_envelope(c)


# ---------------------------------------------------------------------------
# the forest grower and walk agree with the per-tree grower, the threshold
# loop and the row loop they replaced (tests/conftest.py keeps all three)


NODE_KINDS = ("continuous", "discrete", "mostly_zero", "adjacent")


def node_matrix(kind, n, d, seed):
    """n x d values of one kind; about a fifth of the columns constant."""
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        X = rng.normal(size=(n, d))
    elif kind == "discrete":  # many ties
        X = rng.integers(0, 4, size=(n, d)).astype(float)
    elif kind == "mostly_zero":  # 98% zeros of either sign, like TF-IDF
        zeros = np.where(rng.random((n, d)) < 0.5, 0.0, -0.0)
        X = np.where(rng.random((n, d)) < 0.02, rng.random((n, d)), zeros)
    else:  # neighbouring floats, whose midpoint rounds up to the larger
        low = np.nextafter(1.0, 2.0) + rng.integers(0, 3, size=d)
        X = np.where(rng.random((n, d)) < 0.5, low, np.nextafter(low, np.inf))
    constant = rng.random(d) < 0.2
    X[:, constant] = X[0, constant]
    return X


def _counts(y_idx, rows, n_classes):
    return np.array([np.bincount(y_idx[r], minlength=n_classes) for r in rows], dtype=float)


def _split_bits(split):
    """A split as (feature, threshold.hex()), so that -0.0 and 0.0 differ."""
    return None if split is None else (int(split[0]), float(split[1]).hex())


def _searched(best, i):
    return None if best.feature[i] < 0 else (best.feature[i], best.threshold[i])


def _forest_model(state, classes, spec, d):
    return M.TrainedModel(spec, tuple(classes), np.full(len(classes), 1 / len(classes)),
                          d, state)


class TestSplitSearchOracle:
    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_gini_is_the_loop_dot_product_bit_for_bit(self, n_classes):
        # a row-wise sum or einsum differs from `ddot` on about a quarter
        # of such vectors
        rng = np.random.default_rng(n_classes)
        counts = rng.integers(0, 300, size=(20_000, n_classes)).astype(float)
        counts[:, 0] += 1
        expected = np.array([oracle_gini(row) for row in counts])
        assert M._gini(counts).tobytes() == expected.tobytes()
        stacked = counts.reshape(100, 200, n_classes)  # as the split search has them
        assert M._gini(stacked).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_split_and_rng_state_as_the_loop(self, data):
        # one round: up to four nodes of different sizes, rows in any order
        kind = data.draw(st.sampled_from(NODE_KINDS), label="kind")
        n_rows = data.draw(st.integers(1, 60), label="rows")
        d = data.draw(st.integers(1, 12), label="features")
        n_classes = data.draw(st.integers(2, 4), label="classes")
        n_nodes = data.draw(st.integers(1, 4), label="nodes")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        X = node_matrix(kind, n_rows + 5, d, seed)
        rng = np.random.default_rng(seed)
        y_idx = rng.integers(0, n_classes, size=n_rows + 5)
        sizes = [n_rows] + [int(rng.integers(1, n_rows + 1)) for _ in range(n_nodes - 1)]
        rows = [rng.permutation(n_rows + 5)[:size] for size in sizes]
        max_features = data.draw(st.sampled_from(
            [None, int(np.ceil(np.sqrt(d))), int(rng.integers(1, d + 1))]),
            label="max_features")
        # a budget of a few features forces several chunks per node, and
        # fits several smaller nodes in one chunk
        budget = data.draw(st.sampled_from(
            [M._SPLIT_BUDGET, n_rows * n_classes * int(rng.integers(1, 4))]),
            label="budget")
        ours = [derive_rng(seed, "split", i) for i in range(n_nodes)]
        theirs = [derive_rng(seed, "split", i) for i in range(n_nodes)]
        features = [M._feature_sample(r, d, max_features) for r in ours]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "_SPLIT_BUDGET", budget)
            best = M._search_round(X, y_idx, n_classes, rows, _counts(y_idx, rows, n_classes),
                                   features)
        for i in range(n_nodes):
            want = oracle_best_split(X, y_idx, rows[i], n_classes, max_features, theirs[i])
            assert _split_bits(_searched(best, i)) == _split_bits(want)
            assert ours[i].bit_generator.state == theirs[i].bit_generator.state

    def test_best_split_in_an_earlier_chunk_survives_later_ties(self, monkeypatch):
        rng = np.random.default_rng(7)
        y_idx = np.repeat([0, 1], 20)
        X = rng.normal(size=(40, 9))
        # feature 1 separates the classes; feature 7, four chunks later,
        # separates them just as well and must not replace it
        X[:, 1] = np.where(y_idx == 0, -1.0, 1.0) + rng.normal(0, 0.1, 40)
        X[:, 7] = X[:, 1] * 3.0
        rows = [np.arange(40)]
        monkeypatch.setattr(M, "_SPLIT_BUDGET", 40 * 2 * 2)  # two features a chunk
        got = _searched(M._search_round(X, y_idx, 2, rows, _counts(y_idx, rows, 2),
                                        [np.arange(9)]), 0)
        assert got == oracle_best_split(X, y_idx, rows[0], 2, None, None)
        assert got[0] == 1

    @pytest.mark.parametrize("features_a_chunk", [1, 2, None])
    def test_near_tie_does_not_replace_the_earlier_split(self, monkeypatch, features_a_chunk):
        # found by a search over node_matrix draws: the first candidate met
        # (feature 0) scores 0.6000000000000001, and four later ones, on
        # features 1 to 3, score within 1e-15 of it, one of them
        # 0.5999999999999999; none is lower by more than 1e-15, so feature
        # 0 stays, where a plain argmin would take feature 2. One or two
        # features a chunk carry the best across chunks; all four in one
        # chunk step the rule inside it.
        X = node_matrix("discrete", 20, 4, 2601)
        y_idx = np.random.default_rng(2601).integers(0, 3, size=20)
        rows = [np.arange(20)]
        if features_a_chunk is not None:
            monkeypatch.setattr(M, "_SPLIT_BUDGET", 20 * 3 * features_a_chunk)
        got = _searched(M._search_round(X, y_idx, 3, rows, _counts(y_idx, rows, 3),
                                        [np.arange(4)]), 0)
        assert _split_bits(got) == _split_bits(oracle_best_split(X, y_idx, rows[0], 3, None, None))
        assert _split_bits(got) == (0, (2.5).hex())

    def test_constant_node_has_no_split(self):
        X = np.ones((5, 3))
        rows = [np.arange(5), np.arange(3)]
        y_idx = np.array([0, 1, 0, 1, 0])
        best = M._search_round(X, y_idx, 2, rows, _counts(y_idx, rows, 2),
                               [np.arange(3), np.arange(3)])
        assert best.feature.tolist() == [-1, -1]
        # an impure node whose rows all agree stays a leaf once searched
        X = np.array([[1.0], [1.0], [2.0]])
        y = ["a", "b", "a"]
        spec = make_spec("dt", seed=0)
        model = train_dt(X, y, spec)
        tree = model.state["trees"][0]
        assert tree["feature"].tolist() == [0, -1, -1]
        assert tree["proba"][1].tolist() == [0.5, 0.5]
        assert model_to_envelope(model)["state"] == model_to_envelope(_forest_model(
            oracle_forest_state(X, y, ("a", "b"), spec, 1, False, 2, None),
            ("a", "b"), spec, 1))["state"]

    def test_one_row_child_takes_its_counts_from_the_split(self):
        # the only split leaves one row on the right; the left child is
        # impure but constant, so both children are leaves
        X = np.array([[0.0], [0.0], [0.0], [5.0]])
        y = ["a", "a", "b", "b"]
        spec = make_spec("dt", seed=0)
        model = train_dt(X, y, spec)
        tree = model.state["trees"][0]
        assert tree["feature"].tolist() == [0, -1, -1]
        assert tree["threshold"][0] == 2.5
        assert tree["proba"].tolist() == [[0.5, 0.5], [2 / 3, 1 / 3], [0.0, 1.0]]
        oracle = oracle_forest_state(X, y, ("a", "b"), spec, 1, False, 2, None)
        assert model_to_envelope(model)["state"] == model_to_envelope(
            _forest_model(oracle, ("a", "b"), spec, 1))["state"]

    def test_signed_zeros_tie_and_round_to_the_lower_value(self):
        # -0.0 and 0.0 tie, so no threshold lies between them; the first
        # split met, between -5e-324 and the zeros, has a midpoint that
        # rounds to -0.0, which is not below `high`, so the threshold is
        # -5e-324 itself, and the zeros of either sign go right
        tiny = -5e-324
        X = np.array([[tiny], [-0.0], [0.0], [-0.0], [0.0], [1.0]])
        y = ["a", "b", "b", "b", "b", "a"]
        spec = make_spec("dt", seed=0)
        model = train_dt(X, y, spec)
        tree = model.state["trees"][0]
        assert tree["threshold"][0].hex() == tiny.hex()
        oracle = oracle_forest_state(X, y, ("a", "b"), spec, 1, False, 2, None)
        assert model_to_envelope(model)["state"] == model_to_envelope(
            _forest_model(oracle, ("a", "b"), spec, 1))["state"]
        unseen = np.array([[-0.0], [0.0], [tiny], [-1e-300], [0.5]])
        for Z in (X, unseen):
            assert predict_proba(model, Z).tobytes() == oracle_forest_proba(oracle, Z).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_forest_matches_the_per_tree_grower(self, data):
        kind = data.draw(st.sampled_from(NODE_KINDS), label="kind")
        n = data.draw(st.integers(2, 40), label="rows")
        d = data.draw(st.integers(1, 6), label="features")
        n_classes = data.draw(st.integers(2, 4), label="classes")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        n_trees = data.draw(st.integers(1, 6), label="n_trees")
        bootstrap = data.draw(st.booleans(), label="bootstrap")
        max_features = data.draw(st.sampled_from([None, "sqrt", 1, 2, 5]), label="max_features")
        max_depth = data.draw(st.sampled_from([None, 1, 2, 4]), label="max_depth")
        min_split = data.draw(st.integers(2, 6), label="min_samples_split")
        # a root wider than one chunk spans several, and one chunk holds
        # several of the smaller nodes below
        budget = data.draw(st.sampled_from(
            [n * n_classes * k for k in (1, 2, 3)] + [M._SPLIT_BUDGET]), label="budget")
        X = node_matrix(kind, 2 * n, d, seed)
        fit, unseen = X[:n], X[n:]
        classes = tuple("abcd"[:n_classes])
        y = list(classes[:2]) + [classes[i % n_classes]
                                 for i in np.random.default_rng(seed).integers(0, 4, n - 2)]
        spec = make_spec("rf", seed=seed % 1000, max_features=max_features)
        ours_rngs, their_rngs = [], []

        def recorded(*key):
            ours_rngs.append(derive_rng(*key))
            return ours_rngs[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "_SPLIT_BUDGET", budget)
            mp.setattr(M, "derive_rng", recorded)
            ours = M._forest_state(fit, y, classes, spec, n_trees, bootstrap, min_split,
                                   max_depth)
        theirs = oracle_forest_state(fit, y, classes, spec, n_trees, bootstrap, min_split,
                                     max_depth, rngs=their_rngs)
        model = _forest_model(ours, classes, spec, d)
        assert canonical_json(model_to_envelope(model)) == canonical_json(
            model_to_envelope(_forest_model(theirs, classes, spec, d)))
        assert [r.bit_generator.state for r in ours_rngs] == \
            [r.bit_generator.state for r in their_rngs]
        for Z in (fit, unseen):
            assert predict_proba(model, Z).tobytes() == oracle_forest_proba(theirs, Z).tobytes()

    TREE_SPECS = (
        ("dt", {}),
        ("dt", {"max_depth": 3, "min_samples_split": 4, "max_features": 2}),
        ("rf", {"n_trees": 4}),
    )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_trees_and_probabilities_match_the_loops(self, data):
        kind = data.draw(st.sampled_from(NODE_KINDS), label="kind")
        n = data.draw(st.integers(4, 40), label="rows")
        d = data.draw(st.integers(1, 6), label="features")
        n_classes = data.draw(st.integers(2, 4), label="classes")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        X = node_matrix(kind, 2 * n, d, seed)
        fit, unseen = X[:n], X[n:]
        labels = "abcd"[:n_classes]
        y = list(labels[:2]) + [labels[i % n_classes]
                                for i in np.random.default_rng(seed).integers(0, 4, n - 2)]
        for family, hyper in self.TREE_SPECS:
            spec = make_spec(family, seed=seed % 1000, **hyper)
            model = TRAINERS[family](fit, y, spec)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(M, "_forest_state", oracle_forest_state)
                oracle = TRAINERS[family](fit, y, spec)
            assert canonical_json(model_to_envelope(model)) == \
                canonical_json(model_to_envelope(oracle)), (family, hyper)
            for Z in (fit, unseen):
                assert predict_proba(model, Z).tobytes() == \
                    oracle_forest_proba(oracle.state, Z).tobytes()


class TestProbabilities:
    @pytest.mark.parametrize("family", sorted(TRAINERS))
    def test_rows_sum_to_one(self, family):
        X, y = blobs(n=30, seed=11)
        model = TRAINERS[family](X, y, make_spec(family, seed=0))
        proba = predict_proba(model, X)
        assert proba.shape == (30, 2)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert (proba >= 0).all()

    def test_rows_sum_to_one_where_every_expit_underflows(self):
        # found by TestEveryFamilyProperties: far from its training rows, a
        # linear model with large weights gives both classes margins below
        # -745, whose expit is 0, and the row once summed to 0
        model = M.TrainedModel(
            make_spec("svm_linear"), ("a", "b"), np.array([0.5, 0.5]), 4,
            {"W": np.array([[0.0, 900.0, 0.0, 100.0], [0.0, 10.0, 0.0, -1000.0]]),
             "b": np.array([-50.0, 200.0]), "present": np.array([True, True])},
        )
        unseen = np.array([[0.0, -1.0, 0.0, 1.0]])
        margins = unseen @ model.state["W"].T + model.state["b"]
        assert (margins < -745).all()
        proba = predict_proba(model, unseen)
        assert proba.sum() == 1.0
        # the limit of the expit ratios: the larger margin takes the row
        assert proba[0, np.argmax(margins)] == 1.0

    def test_declared_absent_class_warns_and_zeroes(self):
        X, y = blobs(n=20, seed=12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train_lr(X, y, make_spec("lr", seed=0),
                             classes=("a", "b", "zzz"))
        assert any("zzz" in str(w.message) for w in caught)
        proba = predict_proba(model, X)
        assert proba[:, 2].max() == 0.0

    def test_single_class_training_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(DataError):
            train_lr(X, ["a"] * 4, make_spec("lr", seed=0))

    def test_argmax_tie_prefers_earlier_class(self):
        # constant features force a single leaf with proba (0.5, 0.5)
        X = np.ones((6, 2))
        y = ["b", "a", "b", "a", "b", "a"]
        model = train_dt(X, y, make_spec("dt", seed=0))
        proba = predict_proba(model, X[:1])
        assert np.allclose(proba, [[0.5, 0.5]])
        assert predict(model, X[:1]) == ["a"]


class TestVoting:
    def fit_members(self, X, y):
        return [
            train_lr(X, y, make_spec("lr", seed=0)),
            train_dt(X, y, make_spec("dt", seed=0)),
            train_rf(X, y, make_spec("rf", seed=0, n_trees=3)),
        ]

    def test_soft_vote_is_probability_mean(self):
        X, y = blobs(n=20, seed=14)
        members = self.fit_members(X, y)
        vm = make_voting("soft", members)
        expected = np.mean([predict_proba(m, X) for m in members], axis=0)
        assert np.allclose(predict_proba(vm, X), expected, atol=1e-12)

    def test_soft_vote_hand_example(self):
        # (0.9, 0.1) and (0.2, 0.8) average to (0.55, 0.45) -> first class
        X, y = blobs(n=20, seed=15)
        members = self.fit_members(X, y)
        vm = make_voting("soft", members)
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(p.mean(axis=0), [0.55, 0.45])
        assert predict(vm, X[:1])[0] in vm.classes

    def test_permutation_invariance(self):
        X, y = blobs(n=20, seed=16)
        members = self.fit_members(X, y)
        a = predict_proba(make_voting("soft", members), X)
        b = predict_proba(make_voting("soft", members[::-1]), X)
        assert np.allclose(a, b, atol=1e-12)

    def test_single_member_reduction(self):
        X, y = blobs(n=20, seed=17)
        member = train_lr(X, y, make_spec("lr", seed=0))
        vm = make_voting("soft", [member])
        assert np.allclose(predict_proba(vm, X), predict_proba(member, X))
        hard = make_voting("hard", [member])
        assert predict(hard, X) == predict(member, X)

    def test_hard_vote_majority_and_shares(self):
        X, y = blobs(n=20, seed=18)
        members = self.fit_members(X, y)
        vm = make_voting("hard", members)
        votes = np.array([predict(m, X) for m in members])
        for i, label in enumerate(predict(vm, X)):
            counts = {c: int((votes[:, i] == c).sum()) for c in vm.classes}
            assert counts[label] == max(counts.values())
        shares = predict_proba(vm, X)
        assert np.allclose(shares.sum(axis=1), 1.0)

    def test_mismatched_member_classes_rejected(self):
        X, y = blobs(n=20, seed=19)
        m1 = train_lr(X, y, make_spec("lr", seed=0))
        m2 = train_lr(X, ["x" if v == "a" else "y" for v in y],
                      make_spec("lr", seed=0))
        with pytest.raises(UsageError):
            make_voting("soft", [m1, m2])


class TestHardVoteLabels:
    @staticmethod
    def old_labels(vm, X):
        """Hard-vote labels as a second pass over member labels computed them:
        most votes, then the higher prior, then the earlier class."""
        member_preds = [predict(m, X) for m in vm.members]
        out = []
        for i in range(X.shape[0]):
            votes = np.zeros(len(vm.classes))
            for preds in member_preds:
                votes[vm.classes.index(preds[i])] += 1
            tied = [k for k in range(len(vm.classes)) if votes[k] == votes.max()]
            out.append(vm.classes[max(tied, key=lambda k: (vm.priors[k], -k))])
        return out

    def test_labels_keep_the_prior_tie_break(self, monkeypatch):
        # noise labels over three classes with uneven priors: five members
        # disagree often, so many rows tie two ways
        rng = derive_rng(23, "ties")
        X = rng.normal(size=(90, 3))
        y = list(rng.choice(["a", "b", "c"], size=90, p=[0.2, 0.3, 0.5]))
        vm = make_voting("hard", [
            train_lr(X, y, make_spec("lr", seed=0)),
            train_svm_linear(X, y, make_spec("svm_linear", seed=0, max_iter=20)),
            train_svm_rbf(X, y, make_spec("svm_rbf", seed=0)),
            train_dt(X, y, make_spec("dt", seed=0, max_depth=3)),
            train_rf(X, y, make_spec("rf", seed=1, n_trees=3)),
        ])
        shares = predict_proba(vm, X)
        assert (np.sort(shares, axis=1)[:, -2] == shares.max(axis=1)).sum() >= 10
        expected = self.old_labels(vm, X)
        calls = []
        original = M.predict_proba
        monkeypatch.setattr(
            M, "predict_proba",
            lambda m, X: calls.append(type(m).__name__) or original(m, X))
        assert predict(vm, X) == expected
        assert calls.count("TrainedModel") == 5


class TestNonFiniteInput:
    HYPER = {"rf": {"n_trees": 3}, "svm_linear": {"max_iter": 20}}

    @staticmethod
    def corrupt(X, bad, layout):
        X = X.copy()
        X[3, 1] = bad
        return sparse.csr_matrix(X) if layout == "sparse" else X

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("family", sorted(TRAINERS))
    def test_training_rejects(self, family, bad, layout):
        X, y = blobs(n=20, seed=21)
        spec = make_spec(family, seed=0, **self.HYPER.get(family, {}))
        with pytest.raises(DataError, match="NaN or infinite"):
            TRAINERS[family](self.corrupt(X, bad, layout), y, spec)

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("family", sorted(TRAINERS))
    def test_prediction_rejects(self, family, bad, layout):
        X, y = blobs(n=20, seed=22)
        spec = make_spec(family, seed=0, **self.HYPER.get(family, {}))
        model = TRAINERS[family](X, y, spec)
        for score in (predict_proba, predict):
            with pytest.raises(DataError, match="NaN or infinite"):
                score(model, self.corrupt(X, bad, layout))

    @pytest.mark.parametrize("family", sorted(TRAINERS))
    def test_non_finite_fitted_state_is_data_error(self, family):
        # finite input whose scale overflows a trainer's arithmetic
        X = np.array([[1e300], [-1e300], [1e300], [-1e300]])
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                model = TRAINERS[family](X, ["a", "b", "a", "b"], make_spec(family))
            except DataError as exc:
                assert family in str(exc) and "non-finite" in str(exc)
                return
        # the Newton direction overflows to NaN: once, the fit returned
        # w = 0, b = 0, which predicts 0.5/0.5 for every row
        assert family not in ("lr", "svm_linear")
        envelope = model_to_envelope(model)
        assert canonical_json(model_to_envelope(model_from_envelope(envelope))) == \
            canonical_json(envelope)

    @pytest.mark.parametrize("scale, gamma", [(1e300, "scale"), (1e200, 1.0)])
    def test_svm_rbf_nan_kernel_is_data_error(self, scale, gamma):
        # every kernel entry overflows to NaN, where SMO would take no step
        # and leave a model that predicts 0.5/0.5
        X = np.array([[scale], [-scale], [scale], [-scale]])
        spec = make_spec("svm_rbf", gamma=gamma)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            with pytest.raises(DataError, match="svm_rbf training overflowed.*rescale"):
                train_svm_rbf(X, ["a", "b", "a", "b"], spec)


class TestSerialization:
    @pytest.mark.parametrize("family", sorted(TRAINERS))
    def test_round_trip_preserves_predictions(self, family, tmp_path):
        X, y = blobs(n=24, seed=20)
        model = TRAINERS[family](X, y, make_spec(family, seed=1))
        path = tmp_path / "m.json"
        save_model(model, str(path))
        again = load_model(str(path))
        assert predict(again, X) == predict(model, X)
        assert np.allclose(predict_proba(again, X), predict_proba(model, X))

    @pytest.mark.parametrize("family", ["lr", "svm_linear"])
    def test_linear_weights_are_held_for_the_sparse_product(self, family, tmp_path):
        """Fitted or loaded, a linear model holds W so that W.T is
        C-contiguous, with the same state keys; both score bit for bit as
        row-order weights do, on sparse and dense rows alike, and save ->
        load -> save gives the same bytes."""
        rng = derive_rng(24, "wide")
        X = rng.normal(size=(45, 30))
        y = [("a", "b", "c")[k] for k in np.argmax(X[:, :3], axis=1)]
        X[X < 0.3] = 0.0
        Xs = sparse.csr_matrix(X)
        model = TRAINERS[family](Xs, y, make_spec(family, seed=1))
        path, again_path = tmp_path / "m.json", tmp_path / "again.json"
        save_model(model, str(path))
        again = load_model(str(path))
        save_model(again, str(again_path))
        assert again_path.read_bytes() == path.read_bytes()
        row_order = M.TrainedModel(model.spec, model.classes, model.priors, model.n_features,
                                   {**model.state, "W": np.ascontiguousarray(model.state["W"])})
        for m in (model, again):
            assert m.state["W"].T.flags.c_contiguous
            assert set(m.state) == {"W", "b", "present", "loss_traces"}
        for rows in (Xs, X, Xs[:1], X[:1]):
            want = predict_proba(row_order, rows).tobytes()
            assert predict_proba(model, rows).tobytes() == want
            assert predict_proba(again, rows).tobytes() == want

    def test_save_is_byte_deterministic(self, tmp_path):
        X, y = blobs(n=24, seed=21)
        model = train_rf(X, y, make_spec("rf", seed=2, n_trees=3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, str(p1))
        save_model(model, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_voting_round_trip(self, tmp_path):
        X, y = blobs(n=24, seed=22)
        members = [
            train_lr(X, y, make_spec("lr", seed=0)),
            train_dt(X, y, make_spec("dt", seed=0)),
        ]
        vm = make_voting("soft", members)
        path = tmp_path / "vm.json"
        save_model(vm, str(path))
        again = load_model(str(path))
        assert np.allclose(predict_proba(again, X), predict_proba(vm, X))

    def test_foreign_format_rejected(self):
        with pytest.raises(FormatError):
            model_from_envelope({"format": "pickle-v9"})

    @pytest.mark.parametrize("section", ["spec", "labels", "priors", "n_features", "state"])
    def test_missing_section_is_format_error_naming_it(self, tmp_path, section):
        X, y = blobs(n=24, seed=23)
        path = tmp_path / "m.json"
        save_model(train_lr(X, y, make_spec("lr", seed=0)), str(path))
        env = json.loads(path.read_text())
        del env[section]
        path.write_text(json.dumps(env))
        with pytest.raises(FormatError, match=f"'{section}'"):
            load_model(str(path))

    def test_voting_state_without_members_is_format_error(self):
        X, y = blobs(n=24, seed=24)
        env = model_to_envelope(make_voting("soft", [train_lr(X, y, make_spec("lr"))]))
        env["state"] = model_to_envelope(train_lr(X, y, make_spec("lr")))["state"]
        with pytest.raises(FormatError, match="'state'"):
            model_from_envelope(env)

    @pytest.mark.parametrize("family", ["lr", "svm_linear"])
    def test_linear_state_without_weights_is_format_error(self, family):
        """A loaded linear state is put in its held form at load, so a state
        without W fails there, not at the first prediction."""
        X, y = blobs(n=24, seed=25)
        model = TRAINERS[family](X, y, make_spec(family))
        state = {k: v for k, v in model.state.items() if k != "W"}
        env = model_to_envelope(M.TrainedModel(
            model.spec, model.classes, model.priors, model.n_features, state))
        with pytest.raises(FormatError, match="'state'"):
            model_from_envelope(env)

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            make_spec("perceptron")
        with pytest.raises(UsageError):
            make_spec("lr", C=-1.0)
        with pytest.raises(UsageError):
            ModelSpec("rf", {"n_trees": 0}, 0)


class TestFamilyTable:
    """`M.FAMILIES` is the one owner of what a family is; the test-side
    copies of it must cover it."""

    def test_test_copies_cover_the_table(self):
        assert list(TRAINERS) == list(M.FAMILIES)
        assert all(TRAINERS[f] is getattr(M, f"train_{f}") for f in M.FAMILIES)
        assert set(TestInputContract.DENSE) == {
            family for family, row in M.FAMILIES.items() if row.dense}

    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_every_default_passes_its_own_rule(self, family):
        for name, (default, rule) in M.FAMILIES[family].hyper.items():
            assert rule.admits(default), name
            assert make_spec(family, **{name: default}).hyper(name) == default

    @pytest.mark.parametrize("family,name", [
        (family, name) for family, row in M.FAMILIES.items()
        for name in row.hyper if name != "bootstrap"
    ])
    def test_true_is_no_number(self, family, name):
        # {"rf": {"n_trees": true}} once fitted one tree
        with pytest.raises(UsageError, match=f"{family}.{name} must be"):
            ModelSpec(family, {name: True})

    @pytest.mark.parametrize("family,name,value", [
        ("lr", "C", float("inf")), ("lr", "tol", float("inf")),
        ("svm_rbf", "gamma", float("nan")), ("svm_linear", "lam", float("inf")),
        ("lr", "C", 10**400), ("rf", "n_trees", 10**400),
    ])
    def test_number_past_the_float_range_is_usage_error(self, family, name, value):
        # no model file or report could hold it, and C = 10**400 made lr
        # raise a raw OverflowError
        with pytest.raises(UsageError, match=f"{family}.{name} must be"):
            ModelSpec(family, {name: value})

    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_trainer_refuses_another_familys_spec(self, family):
        # train_lr with a dt spec once died on a raw KeyError: 'max_iter'
        other = next(f for f in M.FAMILIES if f != family)
        with pytest.raises(UsageError, match=f"train_{family} was given a {other} spec"):
            TRAINERS[family](XOR_X, XOR_Y, make_spec(other))


class TestInputContract:
    """The trainers and `predict_proba` decide a model's input form. The
    dense families, and voters over them, give the same model for the
    sparse and the dense form of the same values; the linear families
    compute on the form they are given (see
    `test_sparse_and_dense_linear_paths_agree`)."""

    DENSE = ("svm_rbf", "dt", "rf")
    HYPER = {
        "lr": {"max_iter": 40},
        "svm_linear": {"max_iter": 40},
        "svm_rbf": {"max_passes": 2},
        "rf": {"n_trees": 3},
    }

    @classmethod
    def spec(cls, family):
        return make_spec(family, seed=3, **cls.HYPER.get(family, {}))

    @classmethod
    def fit_all(cls, X, y):
        fitted = {family: TRAINERS[family](X, y, cls.spec(family)) for family in cls.DENSE}
        members = [fitted[f] for f in sorted(fitted)]
        fitted["soft_vote"] = make_voting("soft", members)
        fitted["hard_vote"] = make_voting("hard", members)
        return fitted

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sparse_and_dense_forms_give_one_model(self, data):
        n = data.draw(st.integers(4, 16), label="rows")
        d = data.draw(st.integers(1, 6), label="columns")
        values = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))
        X = np.array(data.draw(st.lists(
            st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n)))
        X = X + 0.0  # -0.0 has no sparse form
        y = ["a", "b"] + data.draw(
            st.lists(st.sampled_from("abc"), min_size=n - 2, max_size=n - 2))
        Xs = sparse.csr_matrix(X)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from_dense, from_sparse = self.fit_all(X, y), self.fit_all(Xs, y)
        assert set(from_dense) == set(self.DENSE) | {"soft_vote", "hard_vote"}
        for name, model in from_dense.items():
            other = from_sparse[name]
            assert canonical_json(model_to_envelope(model)) == canonical_json(
                model_to_envelope(other)), name
            expected = predict_proba(model, X).tobytes()
            for m, form in ((model, Xs), (other, X), (other, Xs)):
                assert predict_proba(m, form).tobytes() == expected, name

    def test_subnormal_variance_gives_finite_rbf_state(self, tmp_path):
        # the variance, 1.7e-314, is subnormal: 1/variance overflows, so
        # gamma="scale" falls back to 1.0 as for a zero variance
        X = np.array([[0.0], [0.0], [0.0], [3.0e-157]])
        model = train_svm_rbf(X, ["a", "b", "a", "b"], self.spec("svm_rbf"))
        assert model.state["gamma"] == 1.0
        path = tmp_path / "rbf.json"
        save_model(model, str(path))
        proba = predict_proba(load_model(str(path)), X)
        assert np.isfinite(proba).all()
        assert proba.tobytes() == predict_proba(model, X).tobytes()

    @pytest.mark.parametrize("family", ["svm_rbf", "dt", "rf"])
    def test_densify_budget_bounds_training_and_prediction(self, family):
        X, y = blobs(n=20, seed=30)
        # 22 columns, so that svm_rbf's 20x20 training kernel, which the
        # budget also bounds, fits where the 20x22 matrix does not
        X = np.hstack([X, derive_rng(30, "wide").normal(size=(20, 20))])
        spec = make_spec(family, seed=0, densify_budget=X.size - 1,
                         **self.HYPER.get(family, {}))
        with pytest.raises(DataError, match="densify_budget"):
            TRAINERS[family](sparse.csr_matrix(X), y, spec)
        # dense input needs no densifying
        if family == "svm_rbf":
            # two SMO passes on these random columns end at the step cap
            with pytest.warns(UserWarning, match=re.escape(M.SVM_RBF_CAPPED_WARNING)):
                model = TRAINERS[family](X, y, spec)
        else:
            model = TRAINERS[family](X, y, spec)
        assert predict_proba(model, sparse.csr_matrix(X[:19])).shape == (19, 2)
        with pytest.raises(DataError, match="densify_budget"):
            predict_proba(model, sparse.csr_matrix(X))

    def test_densify_budget_bounds_the_rbf_training_kernel(self, monkeypatch):
        X, y = blobs(n=20, seed=30)
        assert train_svm_rbf(X, y, make_spec("svm_rbf", densify_budget=400)).state
        # an over-large kernel is refused before it is allocated
        monkeypatch.setattr(M, "_rbf_kernel", lambda *args: pytest.fail("kernel built"))
        with pytest.raises(DataError, match="20x20 training kernel exceeds the svm_rbf "
                                            "densify_budget of 399 elements"):
            train_svm_rbf(X, y, make_spec("svm_rbf", densify_budget=399))

    @pytest.mark.parametrize("family", ["lr", "svm_linear"])
    def test_linear_families_keep_the_input_form(self, family):
        # dense input stays dense, so its row products run in BLAS, with
        # no CSR copy per fit or per prediction
        X, _ = blobs(n=20, seed=31)
        assert isinstance(M._model_input(X, make_spec(family)), np.ndarray)
        assert M._model_input(sparse.csc_matrix(X), make_spec(family)).format == "csr"
        # a csr_matrix is used as it is; a csr_array becomes a csr_matrix
        csr = sparse.csr_matrix(X)
        assert M._model_input(csr, make_spec(family)) is csr
        as_array = M._model_input(sparse.csr_array(X), make_spec(family))
        assert type(as_array) is sparse.csr_matrix


class TestLrCap:
    """The Newton-CG step cap of lr and svm_linear, and where trainer
    warnings point."""

    @staticmethod
    def three_classes():
        rng = derive_rng(40, "three")
        X = rng.normal(size=(30, 3))
        y = [("a", "b", "c")[i % 3] for i in range(30)]
        X[:, 0] += [3.0 * ("abc".index(v)) for v in y]
        return X, y

    CAPPED = {"lr": M.LR_CAPPED_WARNING, "svm_linear": M.SVM_LINEAR_CAPPED_WARNING}

    def test_capped_fit_warns_once(self):
        X, y = self.three_classes()
        for family, message in self.CAPPED.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = TRAINERS[family](X, y, make_spec(family, seed=0, max_iter=1))
            assert all(len(trace) == 2 for trace in model.state["loss_traces"]), family
            capped = [w for w in caught if str(w.message) == message]
            assert len(capped) == 1, family
            assert capped[0].filename == __file__
            assert "max_iter" in message

    def test_converged_fit_is_silent(self):
        X, y = self.three_classes()
        for family, hyper in (("lr", {"tol": 1.0}), ("svm_linear", {})):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = TRAINERS[family](X, y, make_spec(family, seed=0, **hyper))
            tol = hyper.get("tol", M._NEWTON_TOL)
            for trace in model.state["loss_traces"]:
                assert trace[-2] - trace[-1] < tol, family
                # tol = 1 stops lr after its first step
                assert family != "lr" or len(trace) == 2

    def test_absent_class_warning_points_at_the_caller(self):
        X, y = blobs(n=20, seed=41)
        for family, trainer in TRAINERS.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                trainer(X, y, TestInputContract.spec(family), classes=("a", "b", "zzz"))
            absent = [w for w in caught if "zzz" in str(w.message)]
            assert [w.filename for w in absent] == [__file__], family


class TestEveryFamilyProperties:
    """Every family and both voters, on small random data in sparse and in
    dense form: each row of probabilities sums to 1, a model saved and
    loaded again scores bit for bit as before, and a refit on the same
    seed and rows gives the same file."""

    @staticmethod
    def fit_all(X, y):
        fitted = {family: TRAINERS[family](X, y, TestInputContract.spec(family))
                  for family in M.FAMILIES}
        members = list(fitted.values())
        fitted.update((name, make_voting(kind, members)) for name, kind in M.VOTERS.items())
        return fitted

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_models_keep_their_invariants(self, data):
        n = data.draw(st.integers(4, 12), label="rows")
        d = data.draw(st.integers(1, 5), label="columns")
        values = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))

        def matrix(rows, label):
            return np.array(data.draw(st.lists(st.lists(
                values, min_size=d, max_size=d), min_size=rows, max_size=rows), label=label))

        X, unseen = matrix(n, "X"), matrix(3, "unseen")
        y = ["a", "b"] + data.draw(
            st.lists(st.sampled_from("abc"), min_size=n - 2, max_size=n - 2), label="y")
        if data.draw(st.booleans(), label="sparse"):
            X, unseen = sparse.csr_matrix(X), sparse.csr_matrix(unseen)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted, refitted = self.fit_all(X, y), self.fit_all(X, y)
        assert list(fitted) == [*M.FAMILIES, *M.VOTERS]
        for name, model in fitted.items():
            text = canonical_json(model_to_envelope(model))
            assert canonical_json(model_to_envelope(refitted[name])) == text, name
            again = model_from_envelope(json.loads(text))
            for Z in (X, unseen):
                proba = predict_proba(model, Z)
                assert np.allclose(proba.sum(axis=1), 1.0, rtol=0.0, atol=1e-12), name
                assert predict_proba(again, Z).tobytes() == proba.tobytes(), name


class TestRowOrder:
    """The families that draw no random numbers fit the same model whatever
    the order of their training rows: `dt` bit for bit, on sparse and dense
    input, and `lr` to within rounding, since its sums over rows run in
    another order."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permuted_rows_fit_the_same_model(self, data):
        n = data.draw(st.integers(4, 14), label="rows")
        d = data.draw(st.integers(1, 4), label="columns")
        # few distinct values, so that rows, thresholds and impurities tie
        values = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.0])
        X = np.array(data.draw(st.lists(st.lists(
            values, min_size=d, max_size=d), min_size=n, max_size=n), label="X"))
        y = ["a", "b"] + data.draw(
            st.lists(st.sampled_from("abc"), min_size=n - 2, max_size=n - 2), label="y")
        order = data.draw(st.permutations(range(n)), label="order")
        X_perm, y_perm = X[order], [y[i] for i in order]
        for form in (np.asarray, sparse.csr_matrix):
            dt = train_dt(form(X), y, make_spec("dt"))
            dt_perm = train_dt(form(X_perm), y_perm, make_spec("dt"))
            assert predict_proba(dt_perm, form(X)).tobytes() == \
                predict_proba(dt, form(X)).tobytes()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lr = train_lr(X, y, make_spec("lr"))
            lr_perm = train_lr(X_perm, y_perm, make_spec("lr"))
        proba = predict_proba(lr, X)
        assert np.abs(predict_proba(lr_perm, X) - proba).max() <= 1e-9
        margins = X @ lr.state["W"].T + lr.state["b"]
        margins[:, ~lr.state["present"]] = -np.inf
        top = np.sort(margins, axis=1)
        clear = top[:, -1] - top[:, -2] > 1e-9
        labels, labels_perm = predict(lr, X), predict(lr_perm, X)
        assert [a for a, c in zip(labels, clear) if c] == \
            [b for b, c in zip(labels_perm, clear) if c]
