"""Vectorized negative-sampling loss and analytic gradients.

One batch row is an observed event (i, j, t) plus the pre-event histories of
both endpoints and K corruption ids per endpoint slot. Corrupted pairs reuse
the event's histories with the corrupted endpoint substituted everywhere it
appears (base similarity, attention center, decay rate).

Layout: per endpoint family there are C = 1 + K "centers" (column 0 is the
true endpoint). Per-entry quantities are (B, C, h) arrays masked on padding;
the three pair blocks are the positive (col 0 vs col 0), source-corrupted
(col k vs col 0) and target-corrupted (col 0 vs col k) combinations.

Everything here is checked against the straight-line reference in
``tests/_oracles.py`` and against central finite differences; keep the
forward caches and backward formulas in sync when touching either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SnapshotArrays, TemporalNetwork
from .micro import AttentionParams
from .util import sigmoid, softplus

# |score| above which a pair counts as a range hit; it feeds the stats only.
RANGE_BOUND = 50.0


@dataclass
class EventBatch:
    """Array view of sampled events with per-event history snapshots."""

    src: np.ndarray          # (B,)
    dst: np.ndarray          # (B,)
    t: np.ndarray            # (B,)
    src_hist_nodes: np.ndarray   # (B, h)
    src_hist_times: np.ndarray   # (B, h)
    src_len: np.ndarray          # (B,)
    dst_hist_nodes: np.ndarray
    dst_hist_times: np.ndarray
    dst_len: np.ndarray

    @classmethod
    def take(cls, net: TemporalNetwork, snapshots: SnapshotArrays,
             idx: np.ndarray) -> "EventBatch":
        """Events ``idx`` of ``net`` with their pre-event history rows."""
        return cls(src=net.src[idx], dst=net.dst[idx], t=net.time[idx],
                   src_hist_nodes=snapshots.src_nodes[idx],
                   src_hist_times=snapshots.src_times[idx],
                   src_len=snapshots.src_len[idx],
                   dst_hist_nodes=snapshots.dst_nodes[idx],
                   dst_hist_times=snapshots.dst_times[idx],
                   dst_len=snapshots.dst_len[idx])

    def __len__(self) -> int:
        return int(self.src.shape[0])


class _Side:
    """Forward caches for one endpoint family (true + corrupted centers)."""

    def __init__(self, centers, nodes, times, length, t, embeddings,
                 params: AttentionParams):
        B, C = centers.shape
        h = nodes.shape[1]

        self.centers = centers
        self.nodes = nodes
        self.mask = (np.arange(h)[None, :] < length[:, None]).astype(np.float64)
        self.m = length.astype(np.float64)
        self.nonempty = length > 0
        self.dt = (t[:, None] - times).astype(np.float64) * self.mask

        d = params.dim
        a1 = params.att_vector[:d]
        a2 = params.att_vector[d:]
        W = params.local_weight
        self.Uc = embeddings[centers]                     # (B, C, d)
        self.Uh = embeddings[nodes]                       # (B, h, d)
        self.Wc = self.Uc @ W.T
        self.Wh = self.Uh @ W.T
        self.dotc = self.Wc @ a1                          # (B, C)
        self.dotp = self.Wh @ a2                          # (B, h)
        self.raw_c = params.decay_raw[centers]            # (B, C)
        self.delta = softplus(self.raw_c)
        self.kap = np.exp(-self.delta[:, :, None] * self.dt[:, None, :]) \
            * self.mask[:, None, :]                       # (B, C, h)
        self.pre = self.kap * (self.dotc[:, :, None] + self.dotp[:, None, :])
        self.at = sigmoid(self.pre)
        ex = np.exp(self.at) * self.mask[:, None, :]
        denom = ex.sum(axis=2, keepdims=True)
        self.alpha = ex / np.where(denom > 0, denom, 1.0)
        self.ak = self.alpha * self.kap
        self.agg = np.einsum("bch,bhd->bcd", self.alpha, self.Wh)
        self.ut = sigmoid(self.agg)
        self.mdt = self.dt.sum(axis=1) / np.maximum(self.m, 1.0)  # (B,)
        self.kbar = np.exp(-self.delta * self.mdt[:, None])       # (B, C)
        self.btil = (self.kbar[:, :, None] * self.ut) @ params.s_weight \
            + params.s_bias                                       # (B, C)

        # accumulated by the pair blocks, consumed by _side_backward
        self.d_btil = np.zeros((B, C))
        self.d_alpha = np.zeros((B, C, h))
        self.d_kap = np.zeros((B, C, h))


def _pair_beta(side_l: _Side, btil_l, side_r: _Side, btil_r):
    """Neighborhood weight of the left side, with empty-history pinning."""
    both = side_l.nonempty & side_r.nonempty
    fixed = np.where(side_l.nonempty, 1.0, 0.0)
    if btil_l.ndim > side_l.nonempty.ndim:
        both = both[:, None]
        fixed = fixed[:, None]
    return np.where(both, sigmoid(btil_l - btil_r), fixed), both


def _hist_vs_centers(side: _Side, other_centers_emb):
    """diff[b, c, p, :] = u_hist[b, p] - u_center_other[b, c]; g = -||diff||^2."""
    diff = side.Uh[:, None, :, :] - other_centers_emb[:, :, None, :]
    g = -(diff ** 2).sum(axis=3)
    return diff, g


def batch_loss_and_grads(batch: EventBatch, neg_src: np.ndarray,
                         neg_dst: np.ndarray, embeddings: np.ndarray,
                         params: AttentionParams, want_grads: bool = True):
    """Negative-sampling loss of one batch and, optionally, its gradients.

    Returns (loss, grads-or-None, stats). ``grads`` maps every parameter
    group name to an array of the group's shape. ``stats["range_hits"]``
    counts pair scores whose magnitude exceeded ``RANGE_BOUND`` (the sampled
    loss itself is evaluated unclamped through a stable log-sigmoid).
    """
    B = len(batch)
    neg_src = np.asarray(neg_src, dtype=np.int64).reshape(B, -1)
    neg_dst = np.asarray(neg_dst, dtype=np.int64).reshape(B, -1)
    K = neg_src.shape[1]
    V, d = embeddings.shape
    t = batch.t

    centers_i = np.concatenate([batch.src[:, None], neg_src], axis=1)
    centers_j = np.concatenate([batch.dst[:, None], neg_dst], axis=1)
    side_i = _Side(centers_i, batch.src_hist_nodes, batch.src_hist_times,
                   batch.src_len, t, embeddings, params)
    side_j = _Side(centers_j, batch.dst_hist_nodes, batch.dst_hist_times,
                   batch.dst_len, t, embeddings, params)

    diff_hi, g_hi = _hist_vs_centers(side_i, side_j.Uc)   # (B, C, h[, d])
    diff_hj, g_hj = _hist_vs_centers(side_j, side_i.Uc)

    # forward: the three pair blocks ---------------------------------------
    diff0 = embeddings[batch.src] - embeddings[batch.dst]           # (B, d)
    g0 = -(diff0 ** 2).sum(axis=1)
    A_i0 = np.einsum("bh,bh->b", side_i.ak[:, 0, :], g_hi[:, 0, :])
    A_j0 = np.einsum("bh,bh->b", side_j.ak[:, 0, :], g_hj[:, 0, :])
    beta0, both0 = _pair_beta(side_i, side_i.btil[:, 0], side_j, side_j.btil[:, 0])
    lam0 = g0 + beta0 * A_i0 + (1.0 - beta0) * A_j0

    if K:
        diffI = embeddings[neg_src] - embeddings[batch.dst][:, None, :]  # (B, K, d)
        gI = -(diffI ** 2).sum(axis=2)
        A_iI = np.einsum("bkh,bh->bk", side_i.ak[:, 1:, :], g_hi[:, 0, :])
        A_jI = np.einsum("bh,bkh->bk", side_j.ak[:, 0, :], g_hj[:, 1:, :])
        betaI, bothI = _pair_beta(side_i, side_i.btil[:, 1:],
                                  side_j, side_j.btil[:, 0][:, None])
        lamI = gI + betaI * A_iI + (1.0 - betaI) * A_jI

        diffJ = embeddings[batch.src][:, None, :] - embeddings[neg_dst]
        gJ = -(diffJ ** 2).sum(axis=2)
        A_iJ = np.einsum("bh,bkh->bk", side_i.ak[:, 0, :], g_hi[:, 1:, :])
        A_jJ = np.einsum("bkh,bh->bk", side_j.ak[:, 1:, :], g_hj[:, 0, :])
        betaJ, bothJ = _pair_beta(side_i, side_i.btil[:, 0][:, None],
                                  side_j, side_j.btil[:, 1:])
        lamJ = gJ + betaJ * A_iJ + (1.0 - betaJ) * A_jJ
    else:
        lamI = lamJ = np.zeros((B, 0))

    loss = float(np.sum(softplus(-lam0)) + np.sum(softplus(lamI))
                 + np.sum(softplus(lamJ)))
    stats = {
        "pairs": B * (1 + 2 * K),
        "range_hits": int((np.abs(lam0) > RANGE_BOUND).sum()
                          + (np.abs(lamI) > RANGE_BOUND).sum()
                          + (np.abs(lamJ) > RANGE_BOUND).sum()),
    }
    if not want_grads:
        return loss, None, stats

    # backward --------------------------------------------------------------
    dU = np.zeros((V, d))
    grads = {
        "att_vector": np.zeros(2 * d),
        "local_weight": np.zeros((d, d)),
        "s_weight": np.zeros(d),
        "s_bias": 0.0,
        "decay_raw": np.zeros(V),
    }
    d_ghi = np.zeros_like(g_hi)
    d_ghj = np.zeros_like(g_hj)

    # positive block
    dlam0 = -sigmoid(-lam0)
    dx0 = dlam0 * (A_i0 - A_j0) * beta0 * (1.0 - beta0) * both0
    side_i.d_btil[:, 0] += dx0
    side_j.d_btil[:, 0] -= dx0
    dA_i0 = dlam0 * beta0
    dA_j0 = dlam0 * (1.0 - beta0)
    c = dA_i0[:, None] * g_hi[:, 0, :]
    side_i.d_alpha[:, 0, :] += c * side_i.kap[:, 0, :]
    side_i.d_kap[:, 0, :] += c * side_i.alpha[:, 0, :]
    d_ghi[:, 0, :] += dA_i0[:, None] * side_i.ak[:, 0, :]
    c = dA_j0[:, None] * g_hj[:, 0, :]
    side_j.d_alpha[:, 0, :] += c * side_j.kap[:, 0, :]
    side_j.d_kap[:, 0, :] += c * side_j.alpha[:, 0, :]
    d_ghj[:, 0, :] += dA_j0[:, None] * side_j.ak[:, 0, :]
    np.add.at(dU, batch.src, dlam0[:, None] * (-2.0) * diff0)
    np.add.at(dU, batch.dst, dlam0[:, None] * 2.0 * diff0)

    if K:
        # source-corrupted block: i columns 1.., j column 0
        dlamI = sigmoid(lamI)
        dxI = dlamI * (A_iI - A_jI) * betaI * (1.0 - betaI) * bothI
        side_i.d_btil[:, 1:] += dxI
        side_j.d_btil[:, 0] -= dxI.sum(axis=1)
        dA_iI = dlamI * betaI
        dA_jI = dlamI * (1.0 - betaI)
        cI = dA_iI[:, :, None] * g_hi[:, 0, :][:, None, :]
        side_i.d_alpha[:, 1:, :] += cI * side_i.kap[:, 1:, :]
        side_i.d_kap[:, 1:, :] += cI * side_i.alpha[:, 1:, :]
        d_ghi[:, 0, :] += np.einsum("bk,bkh->bh", dA_iI, side_i.ak[:, 1:, :])
        cJ = np.einsum("bk,bkh->bh", dA_jI, g_hj[:, 1:, :])
        side_j.d_alpha[:, 0, :] += cJ * side_j.kap[:, 0, :]
        side_j.d_kap[:, 0, :] += cJ * side_j.alpha[:, 0, :]
        d_ghj[:, 1:, :] += dA_jI[:, :, None] * side_j.ak[:, 0, :][:, None, :]
        np.add.at(dU, neg_src, dlamI[:, :, None] * (-2.0) * diffI)
        np.add.at(dU, batch.dst, np.einsum("bk,bkd->bd", dlamI, 2.0 * diffI))

        # target-corrupted block: i column 0, j columns 1..
        dlamJ = sigmoid(lamJ)
        dxJ = dlamJ * (A_iJ - A_jJ) * betaJ * (1.0 - betaJ) * bothJ
        side_i.d_btil[:, 0] += dxJ.sum(axis=1)
        side_j.d_btil[:, 1:] -= dxJ
        dA_iJ = dlamJ * betaJ
        dA_jJ = dlamJ * (1.0 - betaJ)
        cI = np.einsum("bk,bkh->bh", dA_iJ, g_hi[:, 1:, :])
        side_i.d_alpha[:, 0, :] += cI * side_i.kap[:, 0, :]
        side_i.d_kap[:, 0, :] += cI * side_i.alpha[:, 0, :]
        d_ghi[:, 1:, :] += dA_iJ[:, :, None] * side_i.ak[:, 0, :][:, None, :]
        cJ = dA_jJ[:, :, None] * g_hj[:, 0, :][:, None, :]
        side_j.d_alpha[:, 1:, :] += cJ * side_j.kap[:, 1:, :]
        side_j.d_kap[:, 1:, :] += cJ * side_j.alpha[:, 1:, :]
        d_ghj[:, 0, :] += np.einsum("bk,bkh->bh", dA_jJ, side_j.ak[:, 1:, :])
        np.add.at(dU, batch.src, np.einsum("bk,bkd->bd", dlamJ, -2.0 * diffJ))
        np.add.at(dU, neg_dst, dlamJ[:, :, None] * 2.0 * diffJ)

    # history-vs-center distance terms
    for side, other, d_g, diff in ((side_i, side_j, d_ghi, diff_hi),
                                   (side_j, side_i, d_ghj, diff_hj)):
        vec = d_g[:, :, :, None] * diff                      # (B, C, h, d)
        np.add.at(dU, side.nodes, -2.0 * vec.sum(axis=1))
        np.add.at(dU, other.centers, 2.0 * vec.sum(axis=2))

    _side_backward(side_i, params, dU, grads)
    _side_backward(side_j, params, dU, grads)
    grads["embeddings"] = dU
    grads["s_bias"] = float(grads["s_bias"])
    return loss, grads, stats


def _side_backward(side: _Side, params: AttentionParams, dU, grads):
    d = params.dim
    a1 = params.att_vector[:d]
    a2 = params.att_vector[d:]
    W = params.local_weight

    d_btil, d_alpha, d_kap = side.d_btil, side.d_alpha, side.d_kap
    grads["s_weight"] += np.einsum("bc,bcd->d", d_btil,
                                   side.kbar[:, :, None] * side.ut)
    grads["s_bias"] += d_btil.sum()
    d_ut = d_btil[:, :, None] * side.kbar[:, :, None] * params.s_weight
    d_kbar = d_btil * (side.ut @ params.s_weight)
    d_delta = d_kbar * side.kbar * (-side.mdt[:, None])

    d_agg = d_ut * side.ut * (1.0 - side.ut)
    d_alpha = d_alpha + np.einsum("bcd,bhd->bch", d_agg, side.Wh)
    d_Wh = np.einsum("bch,bcd->bhd", side.alpha, d_agg)

    s = np.einsum("bch,bch->bc", side.alpha, d_alpha)
    d_at = side.alpha * (d_alpha - s[:, :, None])
    d_pre = d_at * side.at * (1.0 - side.at)

    d_kap = d_kap + d_pre * (side.dotc[:, :, None] + side.dotp[:, None, :])
    d_scal = d_pre * side.kap
    d_dotc = d_scal.sum(axis=2)
    d_dotp = d_scal.sum(axis=1)
    d_delta += np.einsum("bch,bch->bc", d_kap,
                         side.kap * (-side.dt[:, None, :]))

    grads["att_vector"][:d] += np.einsum("bc,bcd->d", d_dotc, side.Wc)
    grads["att_vector"][d:] += np.einsum("bh,bhd->d", d_dotp, side.Wh)
    d_Wc = d_dotc[:, :, None] * a1
    d_Wh = d_Wh + d_dotp[:, :, None] * a2

    grads["local_weight"] += np.einsum("bcr,bcs->rs", d_Wc, side.Uc)
    grads["local_weight"] += np.einsum("bhr,bhs->rs", d_Wh, side.Uh)
    np.add.at(dU, side.centers, d_Wc @ W)
    np.add.at(dU, side.nodes, d_Wh @ W)
    np.add.at(grads["decay_raw"], side.centers, d_delta * sigmoid(side.raw_c))
