"""Vectorized negative-sampling loss and analytic gradients.

One batch row is an observed event (i, j, t) plus the pre-event histories of
both endpoints and K corruption ids per endpoint slot. Corrupted pairs reuse
the event's histories with the corrupted endpoint substituted everywhere it
appears (base similarity, attention center, decay rate).

Layout: per endpoint family there are C = 1 + K "centers" (column 0 is the
true endpoint). Per-entry quantities are (B, C, h) arrays masked on padding.
Each event is one block of P = 1 + 2K pairs, all scored by the same
intensity: the event (col 0 vs col 0), then K source-corrupted (col k vs
col 0) and K target-corrupted (col 0 vs col k) pairs. Only the sign of the
score in the loss softplus(-sign * score) tells them apart, and the backward
pass folds each pair's terms back onto its two columns.

The embeddings gradient is summed on the batch's own slots, one (B, C, d)
array per center family and one (B, h, d) array per history, and reaches the
V x d gradient in a single scatter. History-vs-center distances come from
squared norms and one batched matmul, so no (B, C, h, d) tensor is built.

Everything here is checked against the straight-line reference in
``tests/_oracles.py`` and against central finite differences; keep the
forward caches and backward formulas in sync when touching either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SnapshotArrays, TemporalNetwork
from .micro import AttentionParams
from .util import (Workspace, row_positions, scatter_rows, sigmoid, softplus,
                   take_rows)

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


def _carve(buf: np.ndarray, *shapes) -> list:
    """Consecutive views of the flat buffer ``buf``, one per shape."""
    views, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[at:at + n].reshape(shape))
        at += n
    return views


def _scratch_len(B: int, C: int, h_i: int, h_j: int, d: int) -> int:
    """Entries of the scratch region: the largest of its successive uses, in
    units of B * d entries (see batch_loss_and_grads)."""
    K, h = C - 1, max(h_i, h_j)
    units = max(C,                          # the in-place sigmoid of ut
                2 * (1 + 2 * K),            # the pair diffs and a product
                max(h, C),                  # history-vs-center backward
                C + h + max(C, 2 * h),      # side backward
                2 * C + h_i + h_j)          # the scatter's int64 positions
    return units * B * d


def _pair_columns(K: int):
    """Columns and loss signs of one event's P = 1 + 2K pairs: the event
    (0, 0), then K source-corrupted (k, 0) and K target-corrupted (0, k)
    pairs, as (ci, cj, sign)."""
    ks = np.arange(1, K + 1)
    sign = np.where(np.arange(1 + 2 * K) == 0, 1.0, -1.0)
    return (np.concatenate([[0], ks, 0 * ks]), np.concatenate([[0], 0 * ks, ks]),
            sign)


def _sigmoid_inplace(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """x <- sigmoid(x) with the bits of :func:`util.sigmoid`; ``tmp`` is
    scratch of x's shape."""
    np.negative(x, out=tmp)
    np.minimum(x, tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.add(1.0, tmp, out=tmp)
    np.minimum(x, 0.0, out=x)
    np.exp(x, out=x)
    x /= tmp
    return x


class _Side:
    """Forward caches for one endpoint family (true + corrupted centers).

    The (B, C, d), (B, h, d) and (B, C, h) caches live in ``work`` under
    ``name``; ``scratch`` holds at least B * C * d entries free for the
    forward pass. Both default to fresh storage.
    """

    def __init__(self, centers, nodes, times, length, t, embeddings,
                 params: AttentionParams, work: Workspace | None = None,
                 name: str = "side", scratch: np.ndarray | None = None):
        B, C = centers.shape
        h = nodes.shape[1]
        d = params.dim
        if work is None:
            work = Workspace()
        if scratch is None:
            scratch = np.empty(B * C * d)

        def buf(key, *shape):
            return work.get(f"{name}.{key}", shape)

        self.centers = centers
        self.nodes = nodes
        self.mask = (np.arange(h)[None, :] < length[:, None]).astype(np.float64)
        self.m = length.astype(np.float64)
        self.nonempty = length > 0
        self.dt = (t[:, None] - times).astype(np.float64) * self.mask

        a1 = params.att_vector[:d]
        a2 = params.att_vector[d:]
        W = params.local_weight
        self.Uc = take_rows(embeddings, centers, buf("Uc", B, C, d))
        self.Uh = take_rows(embeddings, nodes, buf("Uh", B, h, d))
        self.sqc = np.einsum("bcd,bcd->bc", self.Uc, self.Uc)
        self.sqh = np.einsum("bhd,bhd->bh", self.Uh, self.Uh)
        self.Wh = np.matmul(self.Uh, W.T, out=buf("Wh", B, h, d))
        self.dotc = self.Uc @ (W.T @ a1)                  # (B, C)
        self.dotp = self.Wh @ a2                          # (B, h)
        self.raw_c = params.decay_raw[centers]            # (B, C)
        self.delta = softplus(self.raw_c)
        self.kap = np.multiply(-self.delta[:, :, None], self.dt[:, None, :],
                               out=buf("kap", B, C, h))
        np.exp(self.kap, out=self.kap)
        self.kap *= self.mask[:, None, :]
        # at = sigmoid(kap * (dotc + dotp)), built in place
        self.at = np.add(self.dotc[:, :, None], self.dotp[:, None, :],
                         out=buf("at", B, C, h))
        self.at *= self.kap
        _sigmoid_inplace(self.at, np.empty_like(self.at))
        self.alpha = np.exp(self.at, out=buf("alpha", B, C, h))
        self.alpha *= self.mask[:, None, :]
        denom = self.alpha.sum(axis=2, keepdims=True)
        self.alpha /= np.where(denom > 0, denom, 1.0)
        self.ak = np.multiply(self.alpha, self.kap, out=buf("ak", B, C, h))
        # ut = sigmoid(alpha @ Wh); the aggregate itself is not kept
        self.ut = np.matmul(self.alpha, self.Wh, out=buf("ut", B, C, d))
        _sigmoid_inplace(self.ut, scratch[:B * C * d].reshape(B, C, d))
        self.mdt = self.dt.sum(axis=1) / np.maximum(self.m, 1.0)  # (B,)
        self.kbar = np.exp(-self.delta * self.mdt[:, None])       # (B, C)
        self.us = self.ut @ params.s_weight                       # (B, C)
        self.btil = self.kbar * self.us + params.s_bias


def _pair_beta(side_l: _Side, btil_l, side_r: _Side, btil_r):
    """Neighborhood weight of the left side, with empty-history pinning."""
    both = side_l.nonempty & side_r.nonempty
    fixed = np.where(side_l.nonempty, 1.0, 0.0)
    if btil_l.ndim > side_l.nonempty.ndim:
        both = both[:, None]
        fixed = fixed[:, None]
    return np.where(both, sigmoid(btil_l - btil_r), fixed), both


def _hist_vs_centers(side: _Side, other: _Side):
    """g[b, c, p] = -||u_hist[b, p] - u_center_other[b, c]||^2, expanded as
    2 a.b - ||a||^2 - ||b||^2."""
    cross = other.Uc @ side.Uh.transpose(0, 2, 1)         # (B, C, h)
    return 2.0 * cross - other.sqc[:, :, None] - side.sqh[:, None, :]


def _hist_vs_centers_backward(d_g, side: _Side, other: _Side, d_hist, d_other,
                              scratch):
    """Add the embeddings gradient of g onto the history slots of ``side``
    and the center slots of ``other``; ``scratch`` holds at least
    B * max(h, C) * d free entries."""
    B, C, h = d_g.shape
    d = other.Uc.shape[2]
    d_g2 = 2.0 * d_g
    prod = scratch[:B * h * d].reshape(B, h, d)
    d_hist += np.matmul(d_g2.transpose(0, 2, 1), other.Uc, out=prod)
    d_hist -= np.multiply(d_g2.sum(axis=1)[:, :, None], side.Uh, out=prod)
    prod = scratch[:B * C * d].reshape(B, C, d)
    d_other += np.matmul(d_g2, side.Uh, out=prod)
    d_other -= np.multiply(d_g2.sum(axis=2)[:, :, None], other.Uc, out=prod)


def batch_loss_and_grads(batch: EventBatch, neg_src: np.ndarray,
                         neg_dst: np.ndarray, embeddings: np.ndarray,
                         params: AttentionParams, want_grads: bool = True,
                         work: Workspace | None = None):
    """Negative-sampling loss of one batch and, optionally, its gradients.

    Returns (loss, grads-or-None, stats). ``grads`` maps every parameter
    group name to an array of the group's shape. ``stats["range_hits"]``
    counts pair scores whose magnitude exceeded ``RANGE_BOUND`` (the sampled
    loss itself is evaluated unclamped through a stable log-sigmoid).

    ``work`` holds the working set: both sides' forward caches, the slot
    buffer and one scratch region, which carries the pair diffs, then
    the backward products, then (as int64) the scatter's positions. Passing
    the same workspace to every batch of one shape allocates it once; None
    uses a fresh one. The returned gradients never alias it.
    """
    B = len(batch)
    neg_src = np.asarray(neg_src, dtype=np.int64).reshape(B, -1)
    neg_dst = np.asarray(neg_dst, dtype=np.int64).reshape(B, -1)
    K = neg_src.shape[1]
    C = K + 1
    V, d = embeddings.shape
    h_i = batch.src_hist_nodes.shape[1]
    h_j = batch.dst_hist_nodes.shape[1]
    t = batch.t
    if work is None:
        work = Workspace()
    scratch = work.get("scratch", (_scratch_len(B, C, h_i, h_j, d),))

    centers_i = np.concatenate([batch.src[:, None], neg_src], axis=1)
    centers_j = np.concatenate([batch.dst[:, None], neg_dst], axis=1)
    side_i = _Side(centers_i, batch.src_hist_nodes, batch.src_hist_times,
                   batch.src_len, t, embeddings, params, work, "i", scratch)
    side_j = _Side(centers_j, batch.dst_hist_nodes, batch.dst_hist_times,
                   batch.dst_len, t, embeddings, params, work, "j", scratch)

    g_hi = _hist_vs_centers(side_i, side_j)               # (B, C, h)
    g_hj = _hist_vs_centers(side_j, side_i)

    # forward: one block of P = 1 + 2K pairs --------------------------------
    # pair p joins column ci[p] of side i with column cj[p] of side j. The
    # diffs stay in the scratch until the backward; the columns are in
    # range, so "clip" gathers into ``out`` without a checking copy.
    ci, cj, sign = _pair_columns(K)
    P = ci.size
    diff, prod = _carve(scratch, (B, P, d), (B, P, d))
    np.take(side_i.Uc, ci, axis=1, out=diff, mode="clip")
    diff -= np.take(side_j.Uc, cj, axis=1, out=prod, mode="clip")
    g = -np.square(diff, out=prod).sum(axis=2)             # (B, P)
    # A_i: side i's attention-weighted history distance to the j center,
    # taken for all C x C center pairs and read at each pair's entry
    A_i = np.matmul(side_i.ak, g_hi.transpose(0, 2, 1))[:, ci, cj]
    A_j = np.matmul(side_j.ak, g_hj.transpose(0, 2, 1))[:, cj, ci]
    beta, both = _pair_beta(side_i, side_i.btil[:, ci],
                            side_j, side_j.btil[:, cj])
    lam = g + beta * A_i + (1.0 - beta) * A_j
    loss = float(softplus(-sign * lam).sum())
    stats = {"pairs": lam.size,
             "range_hits": int((np.abs(lam) > RANGE_BOUND).sum())}
    if not want_grads:
        return loss, None, stats

    # backward --------------------------------------------------------------
    # embeddings gradient per batch slot: centers i, centers j, histories i, j
    slots = work.get("slots", (B, 2 * C + h_i + h_j, d))
    slots.fill(0.0)
    dUc_i, dUc_j, dUh_i, dUh_j = np.split(slots, [C, 2 * C, 2 * C + h_i],
                                          axis=1)
    grads = {
        "att_vector": np.zeros(2 * d),
        "local_weight": np.zeros((d, d)),
        "s_weight": np.zeros(d),
        "s_bias": 0.0,
    }
    dlam = -sign * sigmoid(-sign * lam)
    # a per-pair scalar sits at its (ci, cj) entry of a (B, C, C) matrix,
    # whose sums and products fold it back onto both sides' columns. The
    # (cj, ci) entries are the same set, so each write replaces the last.
    pair = np.zeros((B, C, C))
    pair[:, ci, cj] = dlam * (A_i - A_j) * beta * (1.0 - beta) * both
    d_btil_i = pair.sum(axis=2)
    d_btil_j = -pair.sum(axis=1)
    pair[:, ci, cj] = dlam * beta
    d_ak_i = pair @ g_hi                                    # (B, C, h)
    d_ghi = pair.transpose(0, 2, 1) @ side_i.ak
    pair[:, cj, ci] = dlam * (1.0 - beta)
    d_ak_j = pair @ g_hj
    d_ghj = pair.transpose(0, 2, 1) @ side_j.ak
    # the diffs' terms fold through the 0/1 (C, P) matrix [ci[p] == c]
    # (cj for side j), one matmul per side, into the head of the dead diffs
    np.multiply(diff, (-2.0 * dlam)[:, :, None], out=prod)
    head = scratch[:B * C * d].reshape(B, C, d)
    cols = np.arange(C)[:, None]
    dUc_i += np.matmul((cols == ci).astype(np.float64), prod, out=head)
    dUc_j -= np.matmul((cols == cj).astype(np.float64), prod, out=head)

    # the scratch takes the backward products from here on
    _hist_vs_centers_backward(d_ghi, side_i, side_j, dUh_i, dUc_j, scratch)
    _hist_vs_centers_backward(d_ghj, side_j, side_i, dUh_j, dUc_i, scratch)
    d_raw_i = _side_backward(side_i, params, d_btil_i, d_ak_i, dUc_i, dUh_i,
                             grads, scratch)
    d_raw_j = _side_backward(side_j, params, d_btil_j, d_ak_j, dUc_j, dUh_j,
                             grads, scratch)

    # and last the scatter's positions, one int64 per slot entry
    rows = np.concatenate([centers_i, centers_j, side_i.nodes, side_j.nodes],
                          axis=1)
    positions = row_positions(rows, d, out=scratch[:slots.size].view(np.int64))
    grads["embeddings"] = scatter_rows(positions, slots, V)
    grads["decay_raw"] = np.bincount(
        np.concatenate([centers_i, centers_j], axis=1).reshape(-1),
        weights=np.concatenate([d_raw_i, d_raw_j], axis=1).reshape(-1),
        minlength=V)
    grads["s_bias"] = float(grads["s_bias"])
    return loss, grads, stats


def _side_backward(side: _Side, params: AttentionParams, d_btil, d_ak, dUc,
                   dUh, grads, scratch):
    """Backward through one side's attention, given the loss gradient of its
    btil (B, C) and ak = alpha * kap (B, C, h): adds onto the group
    gradients and the side's embedding slots, and returns the decay_raw
    gradient of each center, (B, C). ``scratch`` holds at least
    (C + h + max(C, 2h)) * B * d free entries.

    The attention scores use W only through a1.W u_c and a2.W u_p, so their
    share of the W, att_vector and embedding gradients is rank one per slot.
    """
    d = params.dim
    a1 = params.att_vector[:d]
    a2 = params.att_vector[d:]
    W = params.local_weight
    B, C, h = side.alpha.shape
    d_agg, d_Wh, rest = _carve(scratch, (B, C, d), (B, h, d),
                               (B * max(C, 2 * h) * d,))

    d_btil_k = d_btil * side.kbar
    grads["s_weight"] += d_btil_k.reshape(-1) @ side.ut.reshape(-1, d)
    grads["s_bias"] += d_btil.sum()
    d_delta = d_btil * side.us * side.kbar * (-side.mdt[:, None])

    # d_agg = (d_btil_k * s_weight) * ut * (1 - ut)
    np.multiply(d_btil_k[:, :, None], params.s_weight, out=d_agg)
    d_agg *= side.ut
    d_agg *= np.subtract(1.0, side.ut, out=rest[:B * C * d].reshape(B, C, d))
    d_alpha = d_ak * side.kap + d_agg @ side.Wh.transpose(0, 2, 1)
    np.matmul(side.alpha.transpose(0, 2, 1), d_agg, out=d_Wh)

    s = np.einsum("bch,bch->bc", side.alpha, d_alpha)
    d_at = side.alpha * (d_alpha - s[:, :, None])
    d_pre = d_at * side.at * (1.0 - side.at)

    d_kap = d_ak * side.alpha \
        + d_pre * (side.dotc[:, :, None] + side.dotp[:, None, :])
    d_scal = d_pre * side.kap
    d_dotc = d_scal.sum(axis=2)
    d_dotp = d_scal.sum(axis=1)
    d_delta += np.einsum("bch,bch->bc", d_kap,
                         side.kap * (-side.dt[:, None, :]))

    Uh = side.Uh.reshape(-1, d)
    uc = d_dotc.reshape(-1) @ side.Uc.reshape(-1, d)    # sum of d_dotc * u_c
    up = d_dotp.reshape(-1) @ Uh                        # sum of d_dotp * u_p
    grads["att_vector"][:d] += W @ uc
    grads["att_vector"][d:] += W @ up
    grads["local_weight"] += np.outer(a1, uc) + np.outer(a2, up) \
        + d_Wh.reshape(-1, d).T @ Uh
    dUc += np.multiply(d_dotc[:, :, None], a1 @ W, out=d_agg)
    # dUh += d_Wh @ W + d_dotp * (a2 @ W)
    hist, hist2 = _carve(rest, (B, h, d), (B, h, d))
    np.matmul(d_Wh, W, out=hist)
    hist += np.multiply(d_dotp[:, :, None], a2 @ W, out=hist2)
    dUh += hist
    return d_delta * sigmoid(side.raw_c)
