"""Network-scale growth model: linking rate, new-edge prediction, squared
error against the observed increments, and cumulative forecasting.

The number of new edges arriving after epoch t is modeled as

    n(t) * r(t) * zeta * (n(t) - 1) ** gamma

with the linking rate r(t) = S(U) / t ** theta, where S(U) is the mean
sigmoid(-||u_i - u_j||^2) over the training-window temporal edges. The
embeddings U enter only through that scalar, so the fit, the loss and the
forecast take S, and a caller computes it once per set of embeddings (only
``macro_loss_and_grads``, which differentiates through S, takes U). zeta is
kept positive through a softplus reparameterization; the rate numerator is
computed over training edges only so forecasts never touch held-out data.
The three growth scalars are fitted by a Levenberg-Marquardt least-squares
solve on the residuals pred - delta_e (Marquardt 1963).

Between refits the scalars are fixed, so pred is S times a fixed vector q
and the loss's derivative in S is 2 * (a * S - b), with a = sum q^2 and
b = sum delta_e * q. ``macro_loss_and_grads`` differentiates through S
exactly over all E edges; :class:`SampledCoupling` uses the identity to
estimate the same embedding gradient from 2 * COUPLING_SAMPLE edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MacroSeries
from .util import (Workspace, row_positions, scatter_rows, sigmoid, softplus,
                   take_rows)

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
                  edge_dst: np.ndarray, out: np.ndarray | None = None) -> float:
    """Mean sigmoid(-squared distance) over the given temporal edges; the
    per-edge sigmoids are also written into ``out`` when given."""
    if edge_src.shape[0] == 0:
        raise ValueError("empty edge set")
    diff = embeddings[edge_src] - embeddings[edge_dst]
    sig = sigmoid(-(diff ** 2).sum(axis=1))
    if out is not None:
        out[...] = sig
    return float(np.mean(sig))


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


def macro_loss(series: MacroSeries, S: float, params: MacroParams) -> float:
    """Sum of squared errors between observed and predicted increments at
    affinity ``S`` (see :func:`edge_affinity`)."""
    if len(series.delta_e) == 0:
        return 0.0
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
    coupling that lets the scale constraint shape the embedding space. This
    is the exact path, O(E * d) over every edge; :class:`SampledCoupling`
    estimates the same embedding gradient from a fixed-size edge sample.
    """
    if len(series.delta_e) == 0:
        return 0.0, np.zeros_like(embeddings), 0.0, 0.0, 0.0
    M = edge_src.shape[0]
    V, d = embeddings.shape
    diff = embeddings[edge_src] - embeddings[edge_dst]
    sig = sigmoid(-np.square(diff).sum(axis=1))
    S = float(sig.mean())

    err, J = _residual_jacobian(S, series.n[:-1],
                                series.epochs[:-1].astype(np.float64),
                                series.delta_e, params)
    loss = float(np.sum(err ** 2))
    d_zeta_raw, d_gamma, d_theta = (float(g) for g in 2.0 * (J.T @ err))

    pred = err + series.delta_e
    d_S = float(np.sum(2.0 * err * pred) / S) if S > 0 else 0.0
    grad = diff * ((d_S / M) * (sig * (1.0 - sig)) * (-2.0))[:, None]
    positions = row_positions(np.concatenate([edge_src, edge_dst]), d,
                              out=np.empty(2 * M * d, dtype=np.int64))
    dU = scatter_rows(positions, np.concatenate([grad, -grad]), V)
    return loss, dU, d_zeta_raw, d_gamma, d_theta


# edges per draw of SampledCoupling: each step draws two sets of this many;
# train.fit samples only on networks of more than twice as many edges
COUPLING_SAMPLE = 512


class SampledCoupling:
    """Unbiased estimate of the coupling's embedding gradient at O(M * d) per
    call, anchored at one growth refit (Johnson & Zhang 2013's snapshot
    control variate).

    With the growth scalars fixed, pred = S * q where q does not depend on
    S, so dL/dS = sum 2 * (pred - delta_e) * pred / S = 2 * (a * S - b) with
    a = sum q^2 and b = sum delta_e * q, both fixed until the next refit.
    The anchor keeps them and the exact per-edge sigmoids ``sig_ref`` at the
    refit's embeddings, whose mean is ``S``; ``sig_ref`` is kept, not
    copied, so the caller must not write to it afterwards. :meth:`add_grad` draws two
    independent sets of M = COUPLING_SAMPLE edges, uniformly with
    replacement. The first estimates S as S + mean(sigma_e - sig_ref_e), the
    second dS/dU as the mean of the per-edge gradients; independence makes
    the product, linear in the S estimate, unbiased for the exact
    ``macro_loss_and_grads`` embedding gradient at the anchor's scalars.
    Near the refit point sigma_e - sig_ref_e is small, so the S estimate's
    spread is far below that of a raw sample mean.
    """

    def __init__(self, series: MacroSeries, sig_ref: np.ndarray, S: float,
                 params: MacroParams, rng: np.random.Generator):
        q = _predict_series(1.0, series.n[:-1], series.epochs[:-1], params)
        self.sig_ref = sig_ref
        self.S = float(S)
        self.a = float(q @ q)
        self.b = float(series.delta_e @ q)
        self.rng = rng

    def add_grad(self, embeddings: np.ndarray, edge_src: np.ndarray,
                 edge_dst: np.ndarray, scale: float, out: np.ndarray,
                 work: Workspace) -> None:
        """Add ``scale`` times one draw of the estimate into ``out`` (the
        (V, d) embedding gradient, C-contiguous), in place. ``work`` holds
        the (4M, d) rows and the scatter positions between calls."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        M = COUPLING_SAMPLE
        d = embeddings.shape[1]
        picked = self.rng.integers(edge_src.shape[0], size=2 * M)
        src, dst = edge_src[picked], edge_dst[picked]
        # rows[:2M] holds u_src - u_dst of both sets, later the second set's
        # gradient at its source rows; rows[2M:] first u_dst, then the
        # squared diffs, then the negated gradient at the target rows
        rows = work.get("coupling.rows", (4 * M, d))
        diff = take_rows(embeddings, src, rows[:2 * M])
        diff -= take_rows(embeddings, dst, rows[2 * M:])
        sig = sigmoid(-np.square(diff, out=rows[2 * M:]).sum(axis=1))
        S_hat = self.S + float(np.mean(sig[:M] - self.sig_ref[picked[:M]]))
        d_S = 2.0 * (self.a * S_hat - self.b)
        grad = rows[M:2 * M]
        grad *= ((scale * d_S / M) * (sig[M:] * (1.0 - sig[M:]))
                 * (-2.0))[:, None]
        np.negative(grad, out=rows[2 * M:3 * M])
        positions = work.get("coupling.positions", (2 * M * d,), np.int64)
        row_positions(np.concatenate([src[M:], dst[M:]]), d, out=positions)
        # ufunc.at has a buffered fast path from NumPy 1.25 (the floor in
        # pyproject.toml); before it, this would be the slow unbuffered loop
        np.add.at(out.reshape(-1), positions, rows[M:3 * M].reshape(-1))


def fit_params(series: MacroSeries, S: float,
               init: MacroParams | None = None) -> MacroParams:
    """Fit (zeta, gamma, theta) by Levenberg-Marquardt at a fixed affinity
    ``S`` (the embeddings are frozen).

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


def forecast_scale(S: float, params: MacroParams, series_train: MacroSeries,
                   horizon: np.ndarray, n_future: np.ndarray | None) -> np.ndarray:
    """Cumulative edge-count forecast over the horizon epochs at affinity
    ``S`` over the training edges.

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

    # step m grows the count from epoch horizon[m] - 1, whose node count is
    # the last training one for m = 0 and n_future[m - 1] after that
    n = np.concatenate([series_train.n[-1:], n_future[:-1]])
    t = np.concatenate([[t_last], horizon[:-1]])
    new_edges = _predict_series(S, n, t, params)
    return np.cumsum(np.concatenate([series_train.e[-1:], new_edges]))[1:]
