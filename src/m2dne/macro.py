"""Network-scale growth model: new-edge prediction, squared error against
the observed increments, the growth fit, the coupling of the scale loss into
the embeddings, and cumulative forecasting.

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
theta), which do not depend on S, and returns zeta = kappa / S. For fixed
growth parameters the scale loss is a * S^2 - 2 b * S + c, so the whole
coupling is the scalar dL/dS = 2 (a S - b) times dS/dU: a :class:`Coupling`
holds (a, b), and ``macro_loss_and_grads`` adds that gradient into a step's,
exactly over all E edges, or from two samples of edges above
2 * COUPLING_SAMPLE edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MacroSeries
from .util import (PAIR_CHUNK, Workspace, row_positions, sigmoid, softplus,
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


def edge_affinity(embeddings: np.ndarray, edge_src: np.ndarray,
                  edge_dst: np.ndarray, out: np.ndarray | None = None) -> float:
    """Mean sigmoid(-squared distance) over the given temporal edges; the
    per-edge sigmoids are also written into ``out`` when given. The edges
    are taken PAIR_CHUNK at a time, so the temporaries stay O(PAIR_CHUNK d)
    at any edge count. A distance that overflows is inf, whose sigmoid is
    exactly 0, its limit."""
    E = edge_src.shape[0]
    if E == 0:
        raise ValueError("empty edge set")
    sig = np.empty(E) if out is None else out
    for a in range(0, E, PAIR_CHUNK):
        at = slice(a, a + PAIR_CHUNK)
        with np.errstate(over="ignore"):
            diff = embeddings.take(edge_src[at], axis=0)
            diff -= embeddings.take(edge_dst[at], axis=0)
            diff *= diff
            sig[at] = sigmoid(-diff.sum(axis=1))
    return float(np.mean(sig))


def _growth_basis(n: np.ndarray, t: np.ndarray, gamma: float,
                  theta: float) -> np.ndarray:
    """q = n (n - 1) ** gamma / t ** theta, the predicted increments per unit
    kappa = S * zeta."""
    return n * np.power(np.maximum(n - 1.0, 0.0), gamma) / np.power(t, theta)


def _log_factors(n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Columns d log q / d(gamma, theta): log(n - 1) (0 where n <= 1), -log t."""
    log_n1 = np.where(n > 1.0, np.log(np.maximum(n - 1.0, 1e-300)), 0.0)
    return np.stack([log_n1, -np.log(t)], axis=1)


def _predict_series(S: float, n: np.ndarray, t: np.ndarray,
                    params: MacroParams) -> np.ndarray:
    return (S * params.zeta) * _growth_basis(n, t, params.gamma, params.theta)


def macro_loss(series: MacroSeries, S: float, params: MacroParams) -> float:
    """Sum of squared errors between observed and predicted increments at
    affinity ``S`` (see :func:`edge_affinity`); 0 for a one-epoch series."""
    pred = _predict_series(S, series.n[:-1], series.epochs[:-1], params)
    return float(np.sum((series.delta_e - pred) ** 2))


# edges per draw of a sampled coupling: each step draws two sets of this
# many, so only a network of more than twice as many edges is sampled
COUPLING_SAMPLE = 512


@dataclass(frozen=True)
class Coupling:
    """The scale loss as a function of the affinity S for fixed growth
    parameters, a * S^2 - 2 b * S + c, so dL/dS = 2 (a S - b); with
    ``sig_ref`` and ``rng`` set it is sampled (see
    :func:`macro_loss_and_grads`). ``sig_ref`` is kept, not copied, so the
    caller must not write to it afterwards."""

    a: float
    b: float
    sig_ref: np.ndarray | None = None
    rng: np.random.Generator | None = None


def coupling_at(series: MacroSeries, params: MacroParams,
                sig_ref: np.ndarray | None = None,
                rng: np.random.Generator | None = None) -> Coupling:
    """The coupling of the growth fit ``params``: a = zeta^2 * sum q^2 and
    b = zeta * delta_e . q with q the predictions per unit kappa. Given the
    per-edge sigmoids ``sig_ref`` (mean S_ref) of the refit that set
    ``params``, so a S_ref = b, on more than 2 * COUPLING_SAMPLE edges, it
    is sampled from ``rng``; on fewer, a sample's two draws would touch no
    fewer edges than the exact pass, and it stays exact."""
    q = _predict_series(1.0, series.n[:-1], series.epochs[:-1], params)
    if sig_ref is None or sig_ref.shape[0] <= 2 * COUPLING_SAMPLE:
        sig_ref = rng = None
    return Coupling(float(q @ q), float(series.delta_e @ q), sig_ref, rng)


def macro_loss_and_grads(coupling: Coupling, embeddings: np.ndarray,
                         edge_src: np.ndarray, edge_dst: np.ndarray,
                         scale: float, out: np.ndarray,
                         work: Workspace) -> float:
    """Add ``scale`` times the scale loss's embedding gradient into ``out``
    (the (V, d) embedding gradient, C-contiguous), in place, and return the
    dL/dS it used. A prefix of ``work``'s array, which a training step's
    event-level engine has used before, holds the rows and the positions.

    Exact, the S term and the dS/dU term both run over all E edges,
    O(E * d). Sampled, two independent sets of M = COUPLING_SAMPLE edges
    are drawn uniformly with replacement, O(M * d): the first estimates
    S - S_ref as mean(sigma_e - sig_ref_e), so dL/dS = 2 a (S - S_ref) at the
    refit's optimum a S_ref = b (Johnson & Zhang 2013's snapshot control
    variate), and the second dS/dU, so the product is unbiased for the exact
    gradient. Near the refit sigma_e - sig_ref_e is small, so the estimate's
    spread is far below that of a raw sample mean; at the refit it is 0.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    d = embeddings.shape[1]
    if coupling.sig_ref is None:
        src, dst, k = edge_src, edge_dst, 0
    else:
        k = COUPLING_SAMPLE
        picked = coupling.rng.integers(edge_src.shape[0], size=2 * k)
        src, dst = edge_src[picked], edge_dst[picked]
    # edges [k, n) give dS/dU: all of them when exact, the second set when
    # sampled. rows[:n] holds u_src - u_dst, later the gradient at the source
    # rows in rows[k:n], which the target rows take negated; rows[n:] first
    # u_dst, then the squared diffs. The positions of the source rows come
    # before the target rows'
    n = src.shape[0]
    m = n - k
    space = work.take(2 * (n + m) * d)
    rows = space[:2 * n * d].reshape(2 * n, d)
    diff = take_rows(embeddings, src, rows[:n])
    diff -= take_rows(embeddings, dst, rows[n:])
    sig = sigmoid(-np.square(diff, out=rows[n:]).sum(axis=1))
    if coupling.sig_ref is None:
        d_S = 2.0 * (coupling.a * float(np.mean(sig)) - coupling.b)
    else:
        d_S = 2.0 * coupling.a * float(np.mean(sig[:k]
                                               - coupling.sig_ref[picked[:k]]))
    grad = rows[k:n]
    grad *= ((scale * d_S / m) * (sig[k:] * (1.0 - sig[k:])) * (-2.0))[:, None]
    positions = space[2 * n * d:].view(np.int64).reshape(2, m * d)
    # ufunc.at has a buffered fast path from NumPy 1.25 (the floor in
    # pyproject.toml); before it, these would be the slow unbuffered loop
    flat = out.reshape(-1)
    np.add.at(flat, row_positions(src[k:], d, out=positions[0]),
              grad.reshape(-1))
    np.subtract.at(flat, row_positions(dst[k:], d, out=positions[1]),
                   grad.reshape(-1))
    return d_S


def _projected_loss(x, n: np.ndarray, t: np.ndarray, d_obs: np.ndarray,
                    log_factors: np.ndarray):
    """(loss, g, A, kappa) at (gamma, theta) = x: the loss sum r^2 with
    r = kappa * q - d_obs at the best kappa, half its gradient (g0, g1), and
    half its Hessian (a00, a01, a10, a11) (kappa eliminated by a Schur
    complement) where that is positive definite, else the Gauss-Newton
    J^T J. The length-T products are array operations, the 2 x 2 algebra
    is on float64 scalars. A probe that overflows q or makes it 0 has a
    non-finite loss, which the solver rejects; it also warns, so
    :func:`fit_params` calls this under ``np.errstate``."""
    q = _growth_basis(n, t, x[0], x[1])
    # kappa absorbs the scale of q, so dividing it out changes nothing
    # but keeps q . q and the derivatives from overflowing where r does not
    scale = q.max()
    q = q / scale
    qq = q @ q
    kappa = (d_obs @ q) / qq
    r = kappa * q - d_obs
    dq = q[:, None] * log_factors
    p0, p1 = (dq.T @ q).flat
    s0, s1 = (dq.T @ r).flat
    j00, j01, j10, j11 = (dq.T @ dq).flat
    h00, h01, h10, h11 = (dq.T @ (r[:, None] * log_factors)).flat
    k2 = kappa ** 2
    gauss_newton = (k2 * (j00 - p0 * p0 / qq), k2 * (j01 - p0 * p1 / qq),
                    k2 * (j10 - p1 * p0 / qq), k2 * (j11 - p1 * p1 / qq))
    A = (gauss_newton[0] + kappa * h00
         - (kappa * (p0 * s0 + s0 * p0) + s0 * s0) / qq,
         gauss_newton[1] + kappa * h01
         - (kappa * (p0 * s1 + s0 * p1) + s0 * s1) / qq,
         gauss_newton[2] + kappa * h10
         - (kappa * (p1 * s0 + s1 * p0) + s1 * s0) / qq,
         gauss_newton[3] + kappa * h11
         - (kappa * (p1 * s1 + s1 * p1) + s1 * s1) / qq)
    if not (A[0] > 0.0 and A[0] * A[3] - A[1] * A[2] > 0.0):
        A = gauss_newton
    return float(r @ r), (kappa * s0, kappa * s1), A, float(kappa / scale)


def _damped_step(A, g, lam: float):
    """delta solving (A + lam * diag(A)) delta = -g for the 2 x 2 ``A``
    (a00, a01, a10, a11) by Cramer's rule, on float64 scalars. Where
    |det| <= 1e-8 ||M||_F^2 (or either is not finite) the smaller singular
    value of M may be within lstsq's default cut-off, 2 eps times the
    larger, so lstsq solves it instead and drops that direction: a series
    whose node count never grows has no gamma direction at all."""
    a00, a01, a10, a11 = A
    m00, m11 = a00 + lam * a00, a11 + lam * a11
    det = m00 * m11 - a01 * a10
    if abs(det) > 1e-8 * (m00 * m00 + a01 * a01 + a10 * a10 + m11 * m11):
        return (a01 * g[1] - m11 * g[0]) / det, (a10 * g[0] - m00 * g[1]) / det
    M = np.array([[m00, a01], [a10, m11]])
    return tuple(np.linalg.lstsq(M, -np.array(g), rcond=None)[0])


def _check_affinity(S: float) -> None:
    if not S > 0.0:
        raise ValueError(f"edge affinity S = {S} is not positive: every "
                         "training-edge sigmoid underflowed")


def fit_params(series: MacroSeries, S: float) -> MacroParams:
    """Fit the growth model at a fixed affinity ``S`` (the embeddings are
    frozen); returns zeta = kappa / S with the fitted (kappa, gamma, theta).

    For fixed (gamma, theta) the best kappa is delta_e . q / q . q, so a
    Levenberg-Marquardt loop runs on (gamma, theta) alone, from (1, 1)
    (variable projection, Golub & Pereyra 1973), solving
    (A + lam * diag(A)) delta = -g (see :func:`_projected_loss`; J^T J alone
    converges only linearly, as the residuals at the optimum are not 0) by
    Cramer's rule, or by lstsq where that matrix is near singular (see
    :func:`_damped_step`), all under one ``np.errstate``. A step is kept if
    the loss is finite and lower, and lam then shrinks tenfold, else grows
    tenfold. The loop stops when the gradient norm is at most
    1e-10 * (1 + loss), when a kept step lowers the loss by a relative
    1e-15 or less, when lam exceeds 1e16, or after 200 iterations. Raises
    ValueError when S <= 0, when no increment epoch has n >= 2, when the
    loss is not finite at the start, or when the fitted kappa is not > 0.
    """
    _check_affinity(S)
    n = series.n[:-1]
    if not np.any(n >= 2.0):
        raise ValueError("no increment epoch has 2 or more nodes, so the "
                         "growth model predicts no new edges")
    t = series.epochs[:-1].astype(np.float64)
    args = (n, t, series.delta_e, _log_factors(n, t))
    x = (1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss, g, A, kappa = _projected_loss(x, *args)
        if not np.isfinite(loss):
            raise ValueError("growth loss is not finite at the start point")
        lam = 1e-3
        for _ in range(_MAX_ITER):
            if 2.0 * np.sqrt(g[0] * g[0] + g[1] * g[1]) \
                    <= _GRAD_TOL * (1.0 + loss) or lam > _MAX_DAMPING:
                break
            delta = _damped_step(A, g, lam)
            trial = (x[0] + delta[0], x[1] + delta[1])
            loss_new, g_new, A_new, kappa_new = _projected_loss(trial, *args)
            if np.isfinite(loss_new) and loss_new < loss:
                decrease = (loss - loss_new) / loss
                x, loss, g, A, kappa = trial, loss_new, g_new, A_new, kappa_new
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
                   horizon: np.ndarray, n_future: np.ndarray) -> np.ndarray:
    """Cumulative edge-count forecast over the horizon epochs at affinity
    ``S`` > 0 over the training edges.

    The first step uses the node count and rate of the last training epoch;
    later steps consume ``n_future`` (cumulative node counts aligned with the
    horizon). An empty horizon returns an empty forecast, i.e. the final
    training count stands.
    """
    _check_affinity(S)
    horizon = np.asarray(horizon, dtype=np.int64)
    if horizon.size == 0:
        return np.zeros(0, dtype=np.float64)
    t_last = int(series_train.epochs[-1])
    if horizon[0] != t_last + 1 or np.any(np.diff(horizon) != 1):
        raise ValueError("horizon must be consecutive epochs right after training")
    n_future = np.asarray(n_future, dtype=np.float64)
    if n_future.shape[0] != horizon.shape[0]:
        raise ValueError("n_future must align with the horizon")

    # step m grows the count from epoch horizon[m] - 1, whose node count is
    # the last training one for m = 0 and n_future[m - 1] after that
    n = np.concatenate([series_train.n[-1:], n_future[:-1]])
    t = np.concatenate([[t_last], horizon[:-1]])
    new_edges = _predict_series(S, n, t, params)
    return np.cumsum(np.concatenate([series_train.e[-1:], new_edges]))[1:]
