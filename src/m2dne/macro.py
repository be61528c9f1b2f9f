"""Network-scale growth model: linking rate, new-edge prediction, squared
error against the observed increments, and cumulative forecasting.

The number of new edges arriving after epoch t is modeled as

    n(t) * r(t) * zeta * (n(t) - 1) ** gamma

with the linking rate r(t) = S(U) / t ** theta, where S(U) is the mean
sigmoid(-||u_i - u_j||^2) over the training-window temporal edges. zeta is
kept positive through a softplus reparameterization; the rate numerator is
computed over training edges only so forecasts never touch held-out data.
The three growth scalars are fitted by a Levenberg-Marquardt least-squares
solve on the residuals pred - delta_e (Marquardt 1963).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MacroSeries
from .util import sigmoid, softplus

# stopping rule of fit_params
_GRAD_TOL = 1e-10
_REL_DECREASE_TOL = 1e-15
_MAX_DAMPING = 1e16
_MAX_ITER = 200


@dataclass
class MacroParams:
    """Growth-model parameters; effective zeta = softplus(zeta_raw) > 0."""

    zeta_raw: float = 0.0
    gamma: float = 1.0
    theta: float = 1.0

    @property
    def zeta(self) -> float:
        return float(softplus(self.zeta_raw))

    def copy(self) -> "MacroParams":
        return MacroParams(float(self.zeta_raw), float(self.gamma), float(self.theta))


def edge_affinity(embeddings: np.ndarray, edge_src: np.ndarray,
                  edge_dst: np.ndarray, max_edges: int | None = None,
                  rng: np.random.Generator | None = None) -> float:
    """Mean sigmoid(-squared distance) over the given temporal edges.

    Above ``max_edges`` the mean is estimated on a uniform subsample (the
    acceptance paths always use the full set).
    """
    if edge_src.shape[0] == 0:
        raise ValueError("empty edge set")
    if max_edges is not None and edge_src.shape[0] > max_edges:
        if rng is None:
            raise ValueError("subsampling requires an rng")
        keep = rng.choice(edge_src.shape[0], size=max_edges, replace=False)
        edge_src, edge_dst = edge_src[keep], edge_dst[keep]
    diff = embeddings[edge_src] - embeddings[edge_dst]
    return float(np.mean(sigmoid(-(diff ** 2).sum(axis=1))))


def linking_rate(embeddings: np.ndarray, edge_src: np.ndarray,
                 edge_dst: np.ndarray, t: float, theta: float) -> float:
    """Embedding-level affinity divided by the temporal fizzling term t**theta."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return edge_affinity(embeddings, edge_src, edge_dst) / float(t) ** theta


def predicted_new_edges(n_t: float, r_t: float, zeta: float, gamma: float) -> float:
    """Expected new edges after an epoch with n_t nodes and rate r_t."""
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    return float(n_t * r_t * zeta * np.power(n_t - 1.0, gamma))


def _predict_series(S: float, n: np.ndarray, t: np.ndarray,
                    params: MacroParams) -> np.ndarray:
    # extreme exponents can overflow during line-search probes; the resulting
    # inf/nan losses are rejected by the caller, so silence the warnings
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = params.zeta
        base = np.power(np.maximum(n - 1.0, 0.0), params.gamma)
        return n * (S / np.power(t.astype(np.float64), params.theta)) * zeta * base


def macro_loss(series: MacroSeries, embeddings: np.ndarray,
               edge_src: np.ndarray, edge_dst: np.ndarray,
               params: MacroParams) -> float:
    """Sum of squared errors between observed and predicted increments."""
    if len(series.delta_e) == 0:
        return 0.0
    S = edge_affinity(embeddings, edge_src, edge_dst)
    pred = _predict_series(S, series.n[:-1], series.epochs[:-1], params)
    return float(np.sum((series.delta_e - pred) ** 2))


def _residual_jacobian(S: float, n: np.ndarray, t: np.ndarray,
                       d_obs: np.ndarray, params: MacroParams):
    """Residuals pred - d_obs and their Jacobian with respect to
    (zeta_raw, gamma, theta), one column per parameter."""
    pred = _predict_series(S, n, t, params)
    # an overflowed prediction gives inf/nan columns; its loss is not finite
    # either, so the solver rejects that point before using them
    with np.errstate(over="ignore", invalid="ignore"):
        log_n1 = np.where(n > 1.0, np.log(np.maximum(n - 1.0, 1e-300)), 0.0)
        J = np.stack([pred * (float(sigmoid(params.zeta_raw)) / params.zeta),
                      pred * log_n1,
                      -pred * np.log(t)], axis=1)
    return pred - d_obs, J


def macro_loss_and_grads(series: MacroSeries, embeddings: np.ndarray,
                         edge_src: np.ndarray, edge_dst: np.ndarray,
                         params: MacroParams):
    """Loss plus gradients for (embeddings, zeta_raw, gamma, theta).

    The embedding gradient flows through the affinity numerator, which is the
    coupling that lets the scale constraint shape the embedding space.
    """
    if len(series.delta_e) == 0:
        return 0.0, np.zeros_like(embeddings), 0.0, 0.0, 0.0
    diff = embeddings[edge_src] - embeddings[edge_dst]
    sig = sigmoid(-(diff ** 2).sum(axis=1))
    M = edge_src.shape[0]
    S = float(sig.mean())

    err, J = _residual_jacobian(S, series.n[:-1],
                                series.epochs[:-1].astype(np.float64),
                                series.delta_e, params)
    loss = float(np.sum(err ** 2))
    d_zeta_raw, d_gamma, d_theta = (float(g) for g in 2.0 * (J.T @ err))

    pred = err + series.delta_e
    d_S = float(np.sum(2.0 * err * pred) / S) if S > 0 else 0.0
    dU = np.zeros_like(embeddings)
    per_edge = (d_S / M) * (sig * (1.0 - sig))[:, None] * (-2.0) * diff
    np.add.at(dU, edge_src, per_edge)
    np.add.at(dU, edge_dst, -per_edge)
    return loss, dU, d_zeta_raw, d_gamma, d_theta


def fit_params(series: MacroSeries, embeddings: np.ndarray,
               edge_src: np.ndarray, edge_dst: np.ndarray,
               init: MacroParams | None = None) -> MacroParams:
    """Fit (zeta, gamma, theta) by Levenberg-Marquardt with frozen embeddings.

    Each iteration solves (J^T J + lam * diag(J^T J)) delta = -J^T r on the
    residuals r = pred - delta_e, starting from ``init`` (default
    (softplus(0), 1, 1)). A step is kept only if the loss is finite and
    lower, after which lam shrinks tenfold; otherwise lam grows tenfold and
    the step is retried. The solve stops when the gradient norm is at most
    1e-10 * (1 + loss), when a kept step lowers the loss by a relative 1e-15
    or less, when lam exceeds 1e16 (no step lowers the loss any more), or
    after 200 iterations.
    """
    if len(series.delta_e) == 0:
        raise ValueError("cannot fit on a series without increments")
    S = edge_affinity(embeddings, edge_src, edge_dst)
    n = series.n[:-1]
    t = series.epochs[:-1].astype(np.float64)
    d_obs = series.delta_e

    def loss_jac(x):
        r, J = _residual_jacobian(S, n, t, d_obs, MacroParams(*x))
        return float(np.sum(r ** 2)), r, J

    x = np.array([init.zeta_raw, init.gamma, init.theta]) if init \
        else np.array([0.0, 1.0, 1.0])
    loss, r, J = loss_jac(x)
    if not np.isfinite(loss):
        raise ValueError("growth loss is not finite at the start point")
    lam = 1e-3
    for _ in range(_MAX_ITER):
        A, g = J.T @ J, J.T @ r
        if 2.0 * float(np.linalg.norm(g)) <= _GRAD_TOL * (1.0 + loss) \
                or lam > _MAX_DAMPING:
            break
        delta = np.linalg.lstsq(A + lam * np.diag(np.diag(A)), -g,
                                rcond=None)[0]
        loss_new, r_new, J_new = loss_jac(x + delta)
        if np.isfinite(loss_new) and loss_new < loss:
            decrease = (loss - loss_new) / loss
            x, loss, r, J = x + delta, loss_new, r_new, J_new
            lam /= 10.0
            if decrease < _REL_DECREASE_TOL:
                break
        else:
            lam *= 10.0
    return MacroParams(*x)


def linear_node_forecast(series_train: MacroSeries,
                         horizon: np.ndarray) -> np.ndarray:
    """Extrapolate cumulative node counts by a least-squares line over the
    last quarter of training epochs (at least two points)."""
    T = len(series_train.epochs)
    if T < 4:
        raise ValueError("linear extrapolation needs at least 4 training epochs")
    k = max(2, T // 4)
    xs = series_train.epochs[-k:].astype(np.float64)
    ys = series_train.n[-k:]
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = intercept + slope * np.asarray(horizon, dtype=np.float64)
    return np.maximum(pred, series_train.n[-1])


def forecast_scale(embeddings: np.ndarray, params: MacroParams,
                   series_train: MacroSeries, edge_src: np.ndarray,
                   edge_dst: np.ndarray, horizon: np.ndarray,
                   n_future: np.ndarray | None) -> np.ndarray:
    """Cumulative edge-count forecast over the horizon epochs.

    The first step uses the node count and rate of the last training epoch;
    later steps consume ``n_future`` (cumulative node counts aligned with the
    horizon). An empty horizon returns an empty forecast, i.e. the final
    training count stands.
    """
    horizon = np.asarray(horizon, dtype=np.int64)
    if horizon.size == 0:
        return np.zeros(0, dtype=np.float64)
    t_last = int(series_train.epochs[-1])
    if horizon[0] != t_last + 1 or np.any(np.diff(horizon) != 1):
        raise ValueError("horizon must be consecutive epochs right after training")
    if n_future is None:
        raise ValueError("n_future is required for a non-empty horizon")
    n_future = np.asarray(n_future, dtype=np.float64)
    if n_future.shape[0] != horizon.shape[0]:
        raise ValueError("n_future must align with the horizon")

    S = edge_affinity(embeddings, edge_src, edge_dst)
    zeta = params.zeta
    out = np.empty(horizon.shape[0], dtype=np.float64)
    e_cum = float(series_train.e[-1])
    n_prev = float(series_train.n[-1])
    t_prev = float(t_last)
    for m in range(horizon.shape[0]):
        rate = S / t_prev ** params.theta
        e_cum += predicted_new_edges(n_prev, rate, zeta, params.gamma)
        out[m] = e_cum
        n_prev = float(n_future[m])
        t_prev = float(horizon[m])
    return out
