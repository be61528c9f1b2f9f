import numpy as np
import pytest

import _oracles as orc
from conftest import count_calls
from m2dne import logreg
from m2dne.logreg import L2_DEFAULT, LogisticRegression, f1_scores


def blobs(seed=0, n=60, gap=6.0, d=4, classes=2):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(classes):
        center = np.zeros(d)
        center[c % d] = gap * (c + 1)
        X.append(center + rng.normal(0, 0.3, (n // classes, d)))
        y.append(np.full(n // classes, c))
    return np.vstack(X), np.concatenate(y)


class TestLogisticRegression:
    def test_separable_binary_perfect(self):
        X, y = blobs(seed=1)
        clf = LogisticRegression().fit(X, y, 2)
        assert np.array_equal(clf.predict(X), y)

    def test_separable_multiclass_perfect(self):
        X, y = blobs(seed=2, n=90, classes=3)
        clf = LogisticRegression().fit(X, y, 3)
        assert np.array_equal(clf.predict(X), y)

    def test_deterministic(self):
        X, y = blobs(seed=3)
        p1 = LogisticRegression().fit(X, y, 2).predict_proba(X)
        p2 = LogisticRegression().fit(X, y, 2).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_duplicated_features_deterministic(self):
        # duplicating feature columns must not break determinism of the run
        X, y = blobs(seed=4)
        X2 = np.hstack([X, X])
        r1 = LogisticRegression().fit(X2, y, 2).predict(X2)
        r2 = LogisticRegression().fit(X2, y, 2).predict(X2)
        assert np.array_equal(r1, r2)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, np.zeros(10, dtype=np.int64), 1)

    def test_probabilities_normalized(self):
        X, y = blobs(seed=5, classes=3, n=90)
        proba = LogisticRegression().fit(X, y, 3).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0.0)


def objective(clf, X, y):
    """The documented objective and its gradient norm over all weights and
    biases, at the classifier's current parameters, from the reference in
    ``tests/_oracles.py`` (not from the fit's own kernel)."""
    loss, gw, gb = orc.softmax_objective_oracle(X, y, clf.weights, clf.bias,
                                                L2_DEFAULT)
    return loss, float(np.sqrt(np.sum(gw ** 2) + np.sum(gb ** 2)))


def overlapping(seed=7, n=400, d=6):
    """Two classes with overlapping Gaussian features: a finite optimum
    that the fit must find."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None] * rng.normal(size=d)
    return np.abs(X), y


class TestBinaryOptimum:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_gradient_vanishes(self, seed):
        X, y = overlapping(seed)
        clf = LogisticRegression().fit(X, y, 2)
        loss, gnorm = objective(clf, X, y)
        assert gnorm <= 1e-8 * (1.0 + loss)

    def test_coordinate_probes_do_not_lower_objective(self):
        X, y = overlapping()
        clf = LogisticRegression().fit(X, y, 2)
        loss, _ = objective(clf, X, y)
        for params in (clf.weights, clf.bias):
            for idx in np.ndindex(params.shape):
                for h in (1e-3, -1e-3):
                    params[idx] += h
                    probed, _ = objective(clf, X, y)
                    params[idx] -= h
                    assert probed >= loss, (idx, h)

    def test_classes_antisymmetric(self):
        X, y = overlapping()
        clf = LogisticRegression().fit(X, y, 2)
        assert np.array_equal(clf.weights[0], -clf.weights[1])
        assert clf.bias[0] == -clf.bias[1]

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_separable_finite_and_repeatable(self, duplicate):
        X, y = blobs(seed=6)
        if duplicate:
            X = np.hstack([X, X])
        fits = [LogisticRegression().fit(X, y, 2) for _ in range(2)]
        for clf in fits:
            assert np.all(np.isfinite(clf.weights))
            assert np.all(np.isfinite(clf.bias))
            loss, gnorm = objective(clf, X, y)
            assert gnorm <= 1e-8 * (1.0 + loss)
        assert fits[0].weights.tobytes() == fits[1].weights.tobytes()
        assert fits[0].bias.tobytes() == fits[1].bias.tobytes()


class TestWarmStart:
    """Every fit starts from zero, whatever the object fitted before; link
    prediction's folds carry their optimum and Hessian through
    ``logreg._binary_newton`` itself (``TestChordNewton`` and
    ``test_evaluate.py``'s ``TestTemporalLinkPrediction``)."""

    def test_other_features_start_from_zero(self):
        X, y = overlapping()
        warm = LogisticRegression().fit(X[:, :3], y, 2)
        warm.fit(X, y, 2)
        cold = LogisticRegression().fit(X, y, 2)
        assert warm.weights.tobytes() == cold.weights.tobytes()
        assert warm.bias.tobytes() == cold.bias.tobytes()

    def test_two_class_refit_starts_from_zero(self):
        X, y = overlapping(n=500)
        fold = np.arange(y.size) % 5
        refit = LogisticRegression().fit(X[fold != 0], y[fold != 0], 2)
        refit.fit(X[fold != 1], y[fold != 1], 2)
        cold = LogisticRegression().fit(X[fold != 1], y[fold != 1], 2)
        assert refit.weights.tobytes() == cold.weights.tobytes()
        assert refit.bias.tobytes() == cold.bias.tobytes()
        assert refit.n_evals == cold.n_evals

    def test_multiclass_refit_starts_from_zero(self):
        X, y = blobs(seed=4, n=300, gap=0.8, d=4, classes=3)
        refit = LogisticRegression().fit(X[::2], y[::2], 3).fit(X, y, 3)
        cold = LogisticRegression().fit(X, y, 3)
        assert refit.weights.tobytes() == cold.weights.tobytes()
        assert refit.bias.tobytes() == cold.bias.tobytes()


def two_class_fit(v, c):
    """(weights, bias) of the two-class fit whose logit difference is
    X v + c."""
    return np.stack([-0.5 * v, 0.5 * v]), np.array([-0.5 * c, 0.5 * c])


def duplicated_features(seed=8):
    X, y = overlapping(seed)
    return np.hstack([X, X]), y


CHORD_CASES = {
    "overlapping": lambda: overlapping(seed=9),
    "separable": lambda: blobs(seed=6),
    "duplicated": duplicated_features,
}


class TestChordNewton:
    """The two-class fit keeps its Hessian while each step cuts the gradient
    norm tenfold; plain Newton, a fresh Hessian at every iteration
    (``tests/_oracles.py``), must reach the same optimum from the same
    start."""

    @staticmethod
    def assert_same_optimum(clf, X, y, v, c):
        W, b = two_class_fit(v, c)
        ref, _, _ = orc.softmax_objective_oracle(X, y, W, b, L2_DEFAULT)
        loss, _ = objective(clf, X, y)
        assert abs(loss - ref) <= 1e-12 * (1.0 + ref)
        assert np.array_equal(clf.predict(X), np.argmax(X @ W.T + b, axis=1))

    @pytest.mark.parametrize("case", sorted(CHORD_CASES))
    def test_matches_plain_newton(self, case, monkeypatch):
        builds = count_calls(monkeypatch, logreg, "_hessian")
        X, y = CHORD_CASES[case]()
        clf = LogisticRegression().fit(X, y, 2)
        v, c, ref_builds = orc.binary_newton_oracle(X, y, L2_DEFAULT)
        self.assert_same_optimum(clf, X, y, v, c)
        assert 1 <= len(builds) <= ref_builds

    def test_warm_started_folds_build_fewer_hessians(self, monkeypatch):
        # five cross-validation folds, each fit starting from the optimum and
        # the last Hessian of the fold before, as link prediction runs them
        builds = count_calls(monkeypatch, logreg, "_hessian")
        X, y = overlapping(n=500)
        fold = np.arange(y.size) % 5
        theta, H = np.zeros(X.shape[1] + 1), None
        for f in range(5):
            train = fold != f
            start = None if f == 0 else theta
            builds.clear()
            Xt = np.vstack([X[train].T, np.ones(int(train.sum()))])
            theta, H, _ = logreg._binary_newton(
                Xt, y[train].astype(np.float64), L2_DEFAULT, theta, H,
                np.empty_like(Xt))
            clf = LogisticRegression()
            clf.weights, clf.bias = two_class_fit(theta[:-1], theta[-1])
            v, c, ref_builds = orc.binary_newton_oracle(
                X[train], y[train], L2_DEFAULT, start)
            self.assert_same_optimum(clf, X[train], y[train], v, c)
            if start is not None:
                assert len(builds) < ref_builds, f


def _not_called(*args, **kwargs):
    raise AssertionError("the fit ran on invalid input")


class TestInvalidInput:
    def test_binary_label_out_of_range(self, monkeypatch):
        # a label 2 makes the binary loss unbounded below, so Newton would
        # never return: the solver is stubbed so a lost check fails, not hangs
        monkeypatch.setattr(logreg, "_binary_newton", _not_called)
        X, y = blobs(seed=1)
        y[0] = 2
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            LogisticRegression().fit(X, y, 2)

    def test_negative_label(self, monkeypatch):
        # -1 would otherwise index the last class
        monkeypatch.setattr(logreg, "_softmax_lbfgs", _not_called)
        X, y = blobs(seed=2, n=90, classes=3)
        y[5] = -1
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\); got -1"):
            LogisticRegression().fit(X, y, 3)

    @pytest.mark.parametrize("shape", [(60, 1), (59,)])
    def test_labels_not_one_per_row(self, shape):
        X, y = blobs(seed=1)
        bad = np.resize(y, shape)
        with pytest.raises(ValueError, match="one label per row of X"):
            LogisticRegression().fit(X, bad, 2)

    def test_features_not_2d(self):
        X, y = blobs(seed=1)
        with pytest.raises(ValueError, match="X must be 2-D"):
            LogisticRegression().fit(X[:, 0], y, 2)


def overlapping_classes(seed, n=240, d=8, classes=4, spread=0.5):
    """Gaussian classes whose centres (N(0, spread^2) per feature) sit
    inside the unit noise at spread 0.5, as the benchmark's planted
    communities do, and are well separated at 1.0 and 2.0."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, n)
    centers = spread * rng.normal(size=(classes, d))
    return rng.normal(size=(n, d)) + centers[y], y


def kernel(theta, X, y, l2):
    """The multiclass fit's loss-and-gradient kernel at theta = [W | b]."""
    n = X.shape[0]
    return logreg._softmax_loss_grad(theta, X, np.ascontiguousarray(X.T),
                                     y * n + np.arange(n), l2)


class TestSoftmaxKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference(self, seed):
        X, y = overlapping_classes(seed, spread=1.0)
        theta = np.random.default_rng(seed).normal(size=(4, X.shape[1] + 1))
        loss, grad = kernel(theta, X, y, 0.3)
        ref_loss, ref_gw, ref_gb = orc.softmax_objective_oracle(
            X, y, theta[:, :-1], theta[:, -1], 0.3)
        assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
        np.testing.assert_allclose(grad[:, :-1], ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad[:, -1], ref_gb, rtol=0, atol=1e-12)

    def test_matches_central_differences(self):
        X, y = overlapping_classes(4, spread=1.0)
        theta = np.random.default_rng(4).normal(size=(4, X.shape[1] + 1))
        _, grad = kernel(theta, X, y, 0.3)
        h = 1e-6
        for idx in np.ndindex(theta.shape):
            up, down = theta.copy(), theta.copy()
            up[idx] += h
            down[idx] -= h
            fd = (kernel(up, X, y, 0.3)[0] - kernel(down, X, y, 0.3)[0]) / (2 * h)
            assert fd == pytest.approx(grad[idx], rel=0, abs=1e-7), idx


class TestMulticlassDescent:
    """The multiclass fit is L-BFGS run to its gradient rule; this pins that
    it ends at the optimum of the stated objective, found independently by
    Newton's method on all parameters, overlapping classes or not."""

    def test_oracle_matches_binary_newton(self):
        X, y = overlapping(seed=8)
        clf = LogisticRegression().fit(X, y, 2)
        loss, _ = objective(clf, X, y)
        opt, _, _ = orc.softmax_newton_oracle(X, y, 2, L2_DEFAULT)
        assert opt == pytest.approx(loss, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_ends_near_the_optimum(self, seed):
        # largest measured gaps over these seeds: spread 0.5 1.1e-11,
        # 1.0 1.5e-10 and 2.0 2.3e-9 (the former descent: up to 2.4e-5 at 0.5,
        # 9.3e-3 at 1.0)
        for spread in (0.5, 1.0, 2.0):
            X, y = overlapping_classes(seed, spread=spread)
            clf = LogisticRegression().fit(X, y, 4)
            loss, _ = objective(clf, X, y)
            opt, _, _ = orc.softmax_newton_oracle(X, y, 4, L2_DEFAULT)
            assert opt <= loss <= opt + 1e-8, spread

    def test_evaluation_count_on_separated_classes(self):
        # measured: 62-137 loss evaluations (the former descent: 182-360)
        for seed in range(1, 6):
            X, y = overlapping_classes(seed, spread=1.0)
            assert LogisticRegression().fit(X, y, 4).n_evals <= 250, seed

    def test_badly_scaled_feature_stops_when_no_step_lowers_the_loss(self):
        # at a feature scale of 1e6 the line search runs out of resolution
        # before the gradient rule holds, and the fit ends there
        X = np.random.default_rng(0).normal(size=(30, 1)) * 1e6
        y = np.arange(30) % 3
        clf = self._finite_and_repeatable(X, y, 3)
        loss, grad = kernel(np.hstack([clf.weights, clf.bias[:, None]]),
                            X, y, L2_DEFAULT)
        assert np.linalg.norm(grad) > logreg._LBFGS_GRAD_TOL * (1.0 + loss)

    @staticmethod
    def _finite_and_repeatable(X, y, n_classes):
        fits = [LogisticRegression().fit(X, y, n_classes) for _ in range(2)]
        for clf in fits:
            assert np.all(np.isfinite(clf.weights))
            assert np.all(np.isfinite(clf.bias))
        assert fits[0].weights.tobytes() == fits[1].weights.tobytes()
        assert fits[0].bias.tobytes() == fits[1].bias.tobytes()
        return fits[0]

    def test_class_without_rows_ends_finite_and_repeatable(self):
        # class 3 has no training row: its bias has no finite optimum
        X, y = overlapping_classes(1, spread=1.0)
        keep = y != 3
        clf = self._finite_and_repeatable(X[keep], y[keep], 4)
        assert clf.bias[3] < clf.bias[:3].min()

    def test_separable_finite_and_repeatable(self):
        self._finite_and_repeatable(*blobs(seed=2, n=90, classes=3), 3)


class TestF1Scores:
    def test_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        macro, micro = f1_scores(y, y)
        assert macro == 1.0
        assert micro == 1.0

    def test_known_confusion(self):
        # class 0: tp=2 fp=1 fn=0 -> f1 = 4/5; class 1: tp=1 fp=0 fn=1 -> 2/3
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 1, 0])
        macro, micro = f1_scores(y_true, y_pred)
        assert macro == pytest.approx((0.8 + 2.0 / 3.0) / 2.0)
        assert micro == pytest.approx(0.75)

    def test_micro_is_accuracy(self):
        rng = np.random.default_rng(6)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        _, micro = f1_scores(y_true, y_pred)
        assert micro == pytest.approx(float(np.mean(y_true == y_pred)))
