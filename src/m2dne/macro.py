"""Network-scale growth model: new-edge prediction, squared error against
the observed increments, the growth fit, and cumulative forecasting.

The number of new edges arriving after epoch t is modeled as

    n(t) * r(t) * zeta * (n(t) - 1) ** gamma

with the linking rate r(t) = S(U) / t ** theta, where S(U) is the mean
sigmoid(-||u_i - u_j||^2) over the training-window temporal edges. The
embeddings U enter only through that scalar, so the fit, the loss and the
forecast take S, and a caller computes it once per set of embeddings (only
``macro_loss_and_grads``, which differentiates through S, takes U). zeta is
kept positive through a softplus reparameterization; the rate numerator is
computed over training edges only so forecasts never touch held-out data.

S and zeta enter only as kappa = S * zeta: the prediction is kappa * q with
q = n (n - 1) ** gamma / t ** theta. ``fit_params`` fits (kappa, gamma,
theta), which do not depend on S, and returns zeta = kappa / S. Re-anchored
at S_ref, the scale loss is its fitted minimum plus a * (S(U) - S_ref) ** 2,
a = zeta^2 * sum q^2: ``macro_loss_and_grads`` differentiates it through S
exactly over all E edges, :class:`SampledCoupling` from a sample of edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MacroSeries
from .util import (Workspace, row_positions, scatter_rows, sigmoid, softplus,
                   softplus_inv, take_rows)

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


def _growth_basis(n: np.ndarray, t: np.ndarray, gamma: float,
                  theta: float) -> np.ndarray:
    """q = n (n - 1) ** gamma / t ** theta, the predicted increments per unit
    kappa = S * zeta."""
    return n * np.power(np.maximum(n - 1.0, 0.0), gamma) \
        / np.power(t.astype(np.float64), theta)


def _log_factors(n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Columns d log q / d(gamma, theta): log(n - 1) (0 where n <= 1), -log t."""
    log_n1 = np.where(n > 1.0, np.log(np.maximum(n - 1.0, 1e-300)), 0.0)
    return np.stack([log_n1, -np.log(t)], axis=1)


def _predict_series(S: float, n: np.ndarray, t: np.ndarray,
                    params: MacroParams) -> np.ndarray:
    return (S * params.zeta) * _growth_basis(n, t, params.gamma, params.theta)


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
    J = np.column_stack([pred * (sigmoid(params.zeta_raw) / params.zeta),
                         pred[:, None] * _log_factors(n, t)])
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
    call, anchored at one re-anchor of the growth fit (Johnson & Zhang
    2013's snapshot control variate).

    The anchor keeps ``a`` and ``S_ref`` of the penalty a * (S - S_ref)^2,
    whose dL/dS is 2 * a * (S - S_ref), and the exact per-edge sigmoids
    ``sig_ref`` at its embeddings (mean ``S_ref``; kept, not copied, so the
    caller must not write to them afterwards). :meth:`add_grad` draws two
    independent sets of M = COUPLING_SAMPLE edges, uniformly with
    replacement: the first estimates S - S_ref as mean(sigma_e - sig_ref_e),
    the second dS/dU as the mean of the per-edge gradients, so the product
    is unbiased for the exact ``macro_loss_and_grads`` embedding gradient.
    Near the anchor sigma_e - sig_ref_e is small, so the estimate's spread
    is far below that of a raw sample mean; at the anchor it is 0.
    """

    def __init__(self, series: MacroSeries, sig_ref: np.ndarray, S: float,
                 params: MacroParams, rng: np.random.Generator):
        q = _predict_series(1.0, series.n[:-1], series.epochs[:-1], params)
        self.sig_ref = sig_ref
        self.S_ref = float(S)
        self.a = float(q @ q)
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
        # dL/dS = 2 a (S_hat - S_ref), with the difference estimated directly
        d_S = 2.0 * self.a * float(np.mean(sig[:M] - self.sig_ref[picked[:M]]))
        grad = rows[M:2 * M]
        grad *= ((scale * d_S / M) * (sig[M:] * (1.0 - sig[M:]))
                 * (-2.0))[:, None]
        np.negative(grad, out=rows[2 * M:3 * M])
        positions = work.get("coupling.positions", (2 * M * d,), np.int64)
        row_positions(np.concatenate([src[M:], dst[M:]]), d, out=positions)
        # ufunc.at has a buffered fast path from NumPy 1.25 (the floor in
        # pyproject.toml); before it, this would be the slow unbuffered loop
        np.add.at(out.reshape(-1), positions, rows[M:3 * M].reshape(-1))


def _projected_loss(x: np.ndarray, n: np.ndarray, t: np.ndarray,
                    d_obs: np.ndarray, log_factors: np.ndarray):
    """(loss, g, A, kappa) at (gamma, theta) = x: the loss sum r^2 with
    r = kappa * q - d_obs at the best kappa, half its gradient, and half its
    Hessian (kappa eliminated by a Schur complement) where that is positive
    definite, else the Gauss-Newton J^T J. A probe that overflows q or makes
    it 0 has a non-finite loss, which the solver rejects: no warnings."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = _growth_basis(n, t, x[0], x[1])
        # kappa absorbs the scale of q, so dividing it out changes nothing
        # but keeps q . q and the derivatives from overflowing where r does not
        scale = np.max(q)
        q = q / scale
        qq = q @ q
        kappa = (d_obs @ q) / qq
        r = kappa * q - d_obs
        dq = q[:, None] * log_factors
        p, s = dq.T @ q, dq.T @ r
        gauss_newton = kappa ** 2 * (dq.T @ dq - np.outer(p, p) / qq)
        A = gauss_newton + kappa * (dq.T @ (r[:, None] * log_factors)) \
            - (kappa * (np.outer(p, s) + np.outer(s, p)) + np.outer(s, s)) / qq
        if not (A[0, 0] > 0.0 and np.linalg.det(A) > 0.0):
            A = gauss_newton
        return float(r @ r), kappa * s, A, float(kappa / scale)


def fit_params(series: MacroSeries, S: float) -> MacroParams:
    """Fit the growth model at a fixed affinity ``S`` (the embeddings are
    frozen); returns zeta = kappa / S with the fitted (kappa, gamma, theta).

    For fixed (gamma, theta) the best kappa is delta_e . q / q . q, so a
    Levenberg-Marquardt loop runs on (gamma, theta) alone, from (1, 1)
    (variable projection, Golub & Pereyra 1973), solving
    (A + lam * diag(A)) delta = -g (see :func:`_projected_loss`; J^T J alone
    converges only linearly, as the residuals at the optimum are not 0). A
    step is kept if the loss is finite and lower, and lam then shrinks
    tenfold, else grows tenfold. The loop stops when the gradient norm is at
    most 1e-10 * (1 + loss), when a kept step lowers the loss by a relative
    1e-15 or less, when lam exceeds 1e16, or after 200 iterations. Raises
    ValueError when S <= 0, when no increment epoch has n >= 2, when the
    loss is not finite at the start, or when the fitted kappa is not > 0.
    """
    if not S > 0.0:
        raise ValueError(f"edge affinity S = {S} is not positive: every "
                         "training-edge sigmoid underflowed")
    n = series.n[:-1]
    if not np.any(n >= 2.0):
        raise ValueError("no increment epoch has 2 or more nodes, so the "
                         "growth model predicts no new edges")
    t = series.epochs[:-1].astype(np.float64)
    args = (n, t, series.delta_e, _log_factors(n, t))
    x = np.array([1.0, 1.0])
    loss, g, A, kappa = _projected_loss(x, *args)
    if not np.isfinite(loss):
        raise ValueError("growth loss is not finite at the start point")
    lam = 1e-3
    for _ in range(_MAX_ITER):
        if 2.0 * float(np.linalg.norm(g)) <= _GRAD_TOL * (1.0 + loss) \
                or lam > _MAX_DAMPING:
            break
        delta = np.linalg.lstsq(A + lam * np.diag(np.diag(A)), -g,
                                rcond=None)[0]
        loss_new, g_new, A_new, kappa_new = _projected_loss(x + delta, *args)
        if np.isfinite(loss_new) and loss_new < loss:
            decrease = (loss - loss_new) / loss
            x, loss, g, A, kappa = x + delta, loss_new, g_new, A_new, kappa_new
            lam /= 10.0
            if decrease < _REL_DECREASE_TOL:
                break
        else:
            lam *= 10.0
    if not kappa > 0.0:
        raise ValueError(f"fitted kappa = S * zeta is {kappa}, not positive: "
                         "the series has no new edges to fit")
    return MacroParams(softplus_inv(kappa / S), float(x[0]), float(x[1]))


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
