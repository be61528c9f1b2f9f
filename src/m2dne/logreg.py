"""Built-in logistic regression (softmax + L2), deterministic bit for bit.

Both fits start from zero weights and minimise mean cross-entropy +
0.5 * l2 * ||W||^2 with the bias unpenalised.

- Two classes (link prediction): the exact optimum by Newton's method
  (IRLS) with an Armijo backtracking line search, stopping when the
  gradient norm is at most 1e-10 * (1 + loss) or when a step no longer
  lowers the loss.
- More classes (node classification): full-batch gradient descent with a
  multiplicative step adaptation, stopping at an absolute loss change of
  TOL or after MAX_ITER accepted/rejected proposals.
"""

from __future__ import annotations

import numpy as np

from .util import sigmoid, softplus

L2_DEFAULT = 1e-4
TOL = 1e-6
MAX_ITER = 500
_GRAD_TOL = 1e-10         # Newton stops at ||g|| <= _GRAD_TOL * (1 + loss)
_ARMIJO = 1e-4            # sufficient-decrease fraction of the line search
_EPS = float(np.finfo(np.float64).eps)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def _binary_newton(X: np.ndarray, y: np.ndarray,
                   l2: float) -> tuple[np.ndarray, float]:
    """(v, c) minimising mean log-loss of sigmoid(X v + c) + l2/4 ||v||^2.

    This is the two-class softmax objective in the logit difference
    v = w_1 - w_0, c = b_1 - b_0: at its optimum w_1 = -w_0 = v / 2. The
    loss strictly falls at every kept step, so the loop ends.
    """
    n, D = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    ridge = np.full(D + 1, 0.5 * l2)
    ridge[D] = 0.0                      # bias unpenalised
    yf = y.astype(np.float64)

    def loss_of(theta):
        z = Xa @ theta
        return (float(np.mean(softplus(z) - yf * z))
                + 0.5 * float(ridge @ theta ** 2)), z

    theta = np.zeros(D + 1)
    loss, z = loss_of(theta)
    while True:
        p = sigmoid(z)
        g = Xa.T @ (p - yf) / n + ridge * theta
        if float(np.linalg.norm(g)) <= _GRAD_TOL * (1.0 + loss):
            break
        w = p * sigmoid(-z)             # p (1 - p) without cancellation
        H = (Xa.T * w) @ Xa / n + np.diag(ridge)
        delta = np.linalg.solve(H, -g)
        slope = float(g @ delta)
        step = 1.0
        # Halve the step until the loss falls by _ARMIJO of the decrease the
        # slope predicts; stop once that decrease is below the resolution of
        # the loss (or the slope is not finite): no step lowers it any more.
        while _EPS * loss < -slope * step < np.inf:
            new_loss, new_z = loss_of(theta + step * delta)
            if new_loss < loss and new_loss <= loss + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        theta, loss, z = theta + step * delta, new_loss, new_z
    return theta[:D], float(theta[D])


class LogisticRegression:
    """Softmax regression with bias.

    Objective: mean cross-entropy + 0.5 * l2 * ||W||^2 (bias excluded),
    solved exactly for two classes and by gradient descent otherwise (see
    the module docstring).
    """

    def __init__(self, l2: float = L2_DEFAULT):
        self.l2 = float(l2)
        self.weights: np.ndarray | None = None   # (C, D)
        self.bias: np.ndarray | None = None      # (C,)
        self.n_classes: int = 0

    def _loss_grads(self, X, onehot):
        z = X @ self.weights.T + self.bias
        p = _softmax(z)
        n = X.shape[0]
        ce = -np.sum(onehot * np.log(np.maximum(p, 1e-300))) / n
        loss = ce + 0.5 * self.l2 * float(np.sum(self.weights ** 2))
        diff = (p - onehot) / n
        gw = diff.T @ X + self.l2 * self.weights
        gb = diff.sum(axis=0)
        return loss, gw, gb

    def fit(self, X: np.ndarray, y: np.ndarray,
            n_classes: int | None = None) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        self.n_classes = n_classes
        if n_classes == 2:
            v, c = _binary_newton(X, y, self.l2)
            self.weights = np.stack([-0.5 * v, 0.5 * v])
            self.bias = np.array([-0.5 * c, 0.5 * c])
            return self
        D = X.shape[1]
        self.weights = np.zeros((n_classes, D))
        self.bias = np.zeros(n_classes)
        onehot = np.zeros((X.shape[0], n_classes))
        onehot[np.arange(X.shape[0]), y] = 1.0

        loss, gw, gb = self._loss_grads(X, onehot)
        step = 1.0 / (1.0 + float(np.sqrt(np.sum(gw ** 2) + np.sum(gb ** 2))))
        for _ in range(MAX_ITER):
            w_old, b_old = self.weights, self.bias
            self.weights = w_old - step * gw
            self.bias = b_old - step * gb
            new_loss, new_gw, new_gb = self._loss_grads(X, onehot)
            if np.isfinite(new_loss) and new_loss < loss:
                if abs(loss - new_loss) <= TOL:
                    loss, gw, gb = new_loss, new_gw, new_gb
                    break
                loss, gw, gb = new_loss, new_gw, new_gb
                step *= 1.2
            else:
                self.weights, self.bias = w_old, b_old
                step *= 0.5
                if step < 1e-16:
                    break
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(np.asarray(X, dtype=np.float64) @ self.weights.T
                        + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def f1_scores(y_true: np.ndarray, y_pred: np.ndarray,
              n_classes: int) -> tuple[float, float]:
    """(macro_f1, micro_f1) with per-class F1 = 0 when undefined.

    Macro averages over the classes present in the truth or the predictions;
    micro equals accuracy for single-label classification.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    present = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    per_class = []
    for c in present:
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        per_class.append(2.0 * tp / denom if denom else 0.0)
    macro = float(np.mean(per_class)) if per_class else 0.0
    micro = float(np.mean(y_true == y_pred)) if y_true.size else 0.0
    return macro, micro
