import numpy as np
import pytest

import _oracles as orc
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
        clf = LogisticRegression().fit(X, y)
        assert np.array_equal(clf.predict(X), y)

    def test_separable_multiclass_perfect(self):
        X, y = blobs(seed=2, n=90, classes=3)
        clf = LogisticRegression().fit(X, y, 3)
        assert np.array_equal(clf.predict(X), y)

    def test_deterministic(self):
        X, y = blobs(seed=3)
        p1 = LogisticRegression().fit(X, y).predict_proba(X)
        p2 = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_duplicated_features_deterministic(self):
        # duplicating feature columns must not break determinism of the run
        X, y = blobs(seed=4)
        X2 = np.hstack([X, X])
        r1 = LogisticRegression().fit(X2, y).predict(X2)
        r2 = LogisticRegression().fit(X2, y).predict(X2)
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
    """The documented objective and its gradient norm over all 2-class
    weights and biases, at the classifier's current parameters."""
    onehot = np.eye(clf.n_classes)[y]
    loss, gw, gb = clf._loss_grads(X, onehot)
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


def overlapping_classes(seed, n=240, d=8, classes=4, spread=0.5):
    """Gaussian classes whose centres (N(0, spread^2) per feature) sit
    inside the unit noise, as the benchmark's planted communities do."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, n)
    centers = spread * rng.normal(size=(classes, d))
    return rng.normal(size=(n, d)) + centers[y], y


class TestMulticlassDescent:
    """The multiclass fit is a descent with a stopping rule, not an exact
    solve; this pins how far from the optimum it stops."""

    def test_oracle_matches_binary_newton(self):
        X, y = overlapping(seed=8)
        clf = LogisticRegression().fit(X, y, 2)
        loss, _ = objective(clf, X, y)
        opt, _, _ = orc.softmax_newton_oracle(X, y, 2, L2_DEFAULT)
        assert opt == pytest.approx(loss, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_ends_near_the_optimum(self, seed):
        # measured gaps on these seeds: 2.4e-5, 2.5e-6, 5.8e-6, 8.8e-6 and
        # 1.5e-5. On well-separated classes (spread 1.0) the same rule
        # stops 2e-4 to 9e-3 above the optimum.
        X, y = overlapping_classes(seed)
        clf = LogisticRegression().fit(X, y, 4)
        loss, _ = objective(clf, X, y)
        opt, _, _ = orc.softmax_newton_oracle(X, y, 4, L2_DEFAULT)
        assert opt <= loss <= opt + 1e-4


class TestF1Scores:
    def test_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        macro, micro = f1_scores(y, y, 3)
        assert macro == 1.0
        assert micro == 1.0

    def test_known_confusion(self):
        # class 0: tp=2 fp=1 fn=0 -> f1 = 4/5; class 1: tp=1 fp=0 fn=1 -> 2/3
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 1, 0])
        macro, micro = f1_scores(y_true, y_pred, 2)
        assert macro == pytest.approx((0.8 + 2.0 / 3.0) / 2.0)
        assert micro == pytest.approx(0.75)

    def test_micro_is_accuracy(self):
        rng = np.random.default_rng(6)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        _, micro = f1_scores(y_true, y_pred, 4)
        assert micro == pytest.approx(float(np.mean(y_true == y_pred)))
