"""Built-in logistic regression (softmax + L2), deterministic bit for bit.

Both fits minimise mean cross-entropy + 0.5 * l2 * ||W||^2, l2 = L2_DEFAULT,
with the bias unpenalised, to the optimum:

- Two classes (link prediction): Newton's method (IRLS) with an Armijo
  backtracking line search, stopping when the gradient norm is at most
  1e-10 * (1 + loss) or when a step no longer lowers the loss. The Hessian
  is built at the first iteration and after any step that cut the gradient
  norm by less than tenfold; every other step solves with the Hessian kept
  from before (a chord, or Shamanskii, step: Kelley, Iterative Methods for
  Linear and Nonlinear Equations, SIAM 1995, ch. 5). Every fit starts
  from zero; link prediction's cross-validation calls the same routine
  directly and starts each fold from the fold before's optimum and last
  Hessian.
- More classes (node classification): limited-memory BFGS (Nocedal &
  Wright, Numerical Optimization, 2nd ed., algorithm 7.4) from zero, with
  memory MEMORY and the same line search, stopping when the gradient norm
  is at most 1e-6 * (1 + loss), when a step no longer lowers the loss, or
  after MAX_ITER iterations.
"""

from __future__ import annotations

import numpy as np

from .util import sigmoid, softplus

L2_DEFAULT = 1e-4
MAX_ITER = 500            # L-BFGS iterations
MEMORY = 10               # (s, y) pairs L-BFGS keeps
_GRAD_TOL = 1e-10         # Newton stops at ||g|| <= _GRAD_TOL * (1 + loss)
_LBFGS_GRAD_TOL = 1e-6    # L-BFGS stops at ||g|| <= _LBFGS_GRAD_TOL * (1 + loss)
_ARMIJO = 1e-4            # sufficient-decrease fraction of the line search
_EPS = float(np.finfo(np.float64).eps)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def _backtrack(f, theta, delta, loss, slope):
    """Halve the step from 1 until the loss falls by _ARMIJO of the decrease
    the slope predicts; (step, f(theta + step * delta)), or None once that
    decrease is below the resolution of the loss (or the slope is not
    finite): no step lowers it any more."""
    step = 1.0
    while _EPS * loss < -slope * step < np.inf:
        new = f(theta + step * delta)
        if new[0] < loss and new[0] <= loss + _ARMIJO * step * slope:
            return step, new
        step *= 0.5
    return None


def _hessian(Xt: np.ndarray, p: np.ndarray, z: np.ndarray,
             ridge: np.ndarray, Xs: np.ndarray) -> np.ndarray:
    """Xt diag(w) Xt^T / n + diag(ridge) at logits z with p = sigmoid(z).

    w = p (1 - p) >= 0 is computed without cancellation; each row of Xt is
    scaled by sqrt(w) into the buffer ``Xs`` (Xt's shape), and the product
    of Xs with its own transpose runs as a symmetric rank-k update."""
    np.multiply(Xt, np.sqrt(p * sigmoid(-z)), out=Xs)
    return Xs @ Xs.T / Xt.shape[1] + np.diag(ridge)


def _binary_newton(Xt: np.ndarray, y: np.ndarray, l2: float,
                   theta: np.ndarray, H: np.ndarray | None,
                   Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(theta, H, loss evaluations) with theta = [v | c] minimising mean
    log-loss of sigmoid(v.x + c) + l2/4 ||v||^2 over the columns
    [x | 1] of the (D + 1, n) design ``Xt`` (its last row ones) and the
    float 0/1 labels ``y``, from ``theta``; H is the last Hessian built.

    This is the two-class softmax objective in the logit difference
    v = w_1 - w_0, c = b_1 - b_0: at its optimum w_1 = -w_0 = v / 2. A
    kept Hessian (see the module docstring) is close to the current one,
    since every step made with it cut the gradient norm tenfold. A given
    ``H``, the last Hessian of a fit on rows this one mostly shares, counts
    as kept; with None the first iteration builds one. ``Xs`` is a buffer
    of Xt's shape for the Hessian's weighted copy. The loss strictly falls
    at every kept step, so the loop ends.
    """
    D1, n = Xt.shape
    ridge = np.full(D1, 0.5 * l2)
    ridge[-1] = 0.0                     # bias unpenalised
    evals = 0

    def loss_of(theta):
        nonlocal evals
        evals += 1
        z = theta @ Xt
        return (float(np.mean(softplus(z) - y * z))
                + 0.5 * float(ridge @ theta ** 2)), z

    loss, z = loss_of(theta)
    last_gnorm = np.inf
    while True:
        p = sigmoid(z)
        g = Xt @ (p - y) / n + ridge * theta
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _GRAD_TOL * (1.0 + loss):
            break
        if H is None or 10.0 * gnorm > last_gnorm:
            H = _hessian(Xt, p, z, ridge, Xs)
        delta = np.linalg.solve(H, -g)
        found = _backtrack(loss_of, theta, delta, loss, float(g @ delta))
        if found is None:
            break
        step, (loss, z) = found
        theta = theta + step * delta
        last_gnorm = gnorm
    return theta, H, evals


def _softmax_loss_grad(theta: np.ndarray, X: np.ndarray, Xt: np.ndarray,
                       flat: np.ndarray, l2: float) -> tuple[float, np.ndarray]:
    """Objective and gradient at theta = [W | b] (shape (C, D + 1)).

    Class-major: z = W X^T + b has shape (C, n), so the softmax's max and sum
    run along the samples. ``Xt`` is X^T made contiguous and ``flat`` the
    flat positions y * n + arange(n) of the label entries of z. The
    cross-entropy is mean(lse - z[y, i]), read at the label entries only;
    the gradient comes from P - onehot, formed in place as P[y, i] -= 1.
    """
    D, n = Xt.shape
    W = theta[:, :D]
    z = W @ Xt
    z += theta[:, D:]
    top = z.max(axis=0)
    picked = z.ravel()[flat]
    z -= top
    np.exp(z, out=z)
    total = z.sum(axis=0)
    loss = (float(np.mean(np.log(total) + top - picked))
            + 0.5 * l2 * float(np.sum(W * W)))
    z /= total
    z.ravel()[flat] -= 1.0
    grad = np.empty_like(theta)
    np.matmul(z, X, out=grad[:, :D])
    grad[:, D] = z.sum(axis=1)
    grad /= n
    grad[:, :D] += l2 * W
    return loss, grad


def _lbfgs_direction(g: np.ndarray, pairs: list) -> np.ndarray:
    """-H g by the two-loop recursion over the stored (s, y, 1 / s.y),
    oldest first, with H_0 = (s.y / y.y) I from the newest pair; with no
    pair, -g / (1 + ||g||)."""
    if not pairs:
        return -g / (1.0 + float(np.linalg.norm(g)))
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(pairs):
        a = rho * float(np.vdot(s, q))
        q -= a * yv
        alphas.append(a)
    s, yv, rho = pairs[-1]
    q *= 1.0 / (rho * float(np.vdot(yv, yv)))
    for (s, yv, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(np.vdot(yv, q))) * s
    return -q


def _softmax_lbfgs(X: np.ndarray, y: np.ndarray, n_classes: int,
                   l2: float) -> tuple[np.ndarray, int]:
    """([W | b], loss evaluations) at the multiclass optimum by L-BFGS.

    A pair is stored only when s.y > 0, so the implied inverse Hessian stays
    positive definite and every direction is a descent direction; the loss
    strictly falls at every kept step.
    """
    n, D = X.shape
    Xt = np.ascontiguousarray(X.T)
    flat = y * n + np.arange(n)
    evals = 0

    def f(theta):
        nonlocal evals
        evals += 1
        return _softmax_loss_grad(theta, X, Xt, flat, l2)

    theta = np.zeros((n_classes, D + 1))
    loss, g = f(theta)
    pairs: list = []
    for _ in range(MAX_ITER):
        if float(np.linalg.norm(g)) <= _LBFGS_GRAD_TOL * (1.0 + loss):
            break
        delta = _lbfgs_direction(g, pairs)
        found = _backtrack(f, theta, delta, loss, float(np.vdot(g, delta)))
        if found is None:
            break
        step, (loss, new_g) = found
        s = step * delta
        yv = new_g - g
        sy = float(np.vdot(s, yv))
        if sy > 0.0:
            pairs.append((s, yv, 1.0 / sy))
            del pairs[:-MEMORY]
        theta = theta + s
        g = new_g
    return theta, evals


class LogisticRegression:
    """Softmax regression with bias.

    Objective: mean cross-entropy + 0.5 * l2 * ||W||^2 (bias excluded),
    solved to its optimum: by Newton's method for two classes and by
    L-BFGS otherwise (see the module docstring), from zero at every fit.
    The two-class fit builds its Hessian at the first iteration and after
    any step that cut the gradient norm by less than tenfold, and otherwise
    solves with the one it kept. ``n_evals`` is the number of loss
    evaluations the last fit took.
    """

    def __init__(self):
        self.weights: np.ndarray | None = None   # (C, D)
        self.bias: np.ndarray | None = None      # (C,)
        self.n_evals: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray,
            n_classes: int) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must be 1-D with one label per row of X "
                             f"({X.shape[0]}), got shape {y.shape}")
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        bad = (y < 0) | (y >= n_classes)
        if bad.any():
            raise ValueError(f"labels must lie in [0, {n_classes}); "
                             f"got {int(y[bad][0])}")
        if n_classes == 2:
            Xt = np.vstack([X.T, np.ones(X.shape[0])])
            theta, _, self.n_evals = _binary_newton(
                Xt, y.astype(np.float64), L2_DEFAULT, np.zeros(Xt.shape[0]),
                None, np.empty_like(Xt))
            v, c = theta[:-1], theta[-1]
            self.weights = np.stack([-0.5 * v, 0.5 * v])
            self.bias = np.array([-0.5 * c, 0.5 * c])
            return self
        theta, self.n_evals = _softmax_lbfgs(X, y, n_classes, L2_DEFAULT)
        self.weights = theta[:, :-1].copy()
        self.bias = theta[:, -1].copy()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(np.asarray(X, dtype=np.float64) @ self.weights.T
                        + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def class_f1(y_true: np.ndarray, y_pred: np.ndarray, c: int) -> float:
    """F1 of class ``c``, 0 when undefined (no true or predicted c)."""
    tp = int(np.sum((y_pred == c) & (y_true == c)))
    fp = int(np.sum((y_pred == c) & (y_true != c)))
    fn = int(np.sum((y_pred != c) & (y_true == c)))
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def f1_scores(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[float, float]:
    """(macro_f1, micro_f1) with per-class F1 = 0 when undefined.

    Macro averages over the classes present in the truth or the predictions;
    micro equals accuracy for single-label classification.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    present = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    per_class = [class_f1(y_true, y_pred, c) for c in present]
    macro = float(np.mean(per_class)) if per_class else 0.0
    micro = float(np.mean(y_true == y_pred)) if y_true.size else 0.0
    return macro, micro
