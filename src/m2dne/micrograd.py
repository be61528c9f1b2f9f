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

A batch's slots (centers i, centers j, histories i, histories j) name far
fewer distinct nodes than they number, so the engine works on the distinct
rows. One np.unique over the slot ids gives a node table that holds, once
per distinct row, u, W u, ||u||^2, a1.W u, a2.W u and the decay
pre-activation; each side gathers its slots from it. The backward pass keeps
per slot only the vectors that differ from slot to slot (the pair diffs and
the history-vs-center products) and sums them onto the distinct rows in one
bincount. Terms proportional to a slot's own row fold into one coefficient
per distinct row. Everything that reaches u through W folds into one
(n, d) matrix M = sum(d W u) + c1 a1 + c2 a2, so the embeddings' M W, the
local weight's M^T U and the attention vector's two products run once over
the distinct rows. The compact gradient is then written into the dense
V x d one. History-vs-center distances come from squared norms and one
batched matmul, so no (B, C, h, d) tensor is built.

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
from .util import Workspace, row_positions, sigmoid, softplus

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


class _NodeTable:
    """The batch's distinct node rows and the per-node terms its slots read:
    u, W u, ||u||^2, a1.W u, a2.W u and the decay pre-activation.

    ``slot_ids`` are arrays of node ids. ``inverse`` holds, for each, the
    table row of every id (same shape), and ``slot_rows`` all of them flat,
    in the order given. An id outside [0, V) raises IndexError before
    anything is read. The (n, d) tables live in ``work`` (default: fresh).
    """

    def __init__(self, slot_ids, embeddings: np.ndarray,
                 params: AttentionParams, work: Workspace | None = None):
        V, d = embeddings.shape
        if work is None:
            work = Workspace()
        flat = np.concatenate([np.asarray(ids, dtype=np.int64).reshape(-1)
                               for ids in slot_ids])
        if flat.min() < 0 or flat.max() >= V:
            raise IndexError(f"node id out of range [0, {V})")
        # the input is flat, so the inverse is flat under every NumPy
        self.ids, self.slot_rows = np.unique(flat, return_inverse=True)
        parts = np.split(self.slot_rows,
                         np.cumsum([np.size(ids) for ids in slot_ids])[:-1])
        self.inverse = [part.reshape(np.shape(ids))
                        for part, ids in zip(parts, slot_ids)]

        n = self.ids.size
        cap = min(V, flat.size) * d

        def rows(key):
            return work.get(f"rows.{key}", (cap,))[:n * d].reshape(n, d)

        W = params.local_weight
        self.U = np.take(embeddings, self.ids, axis=0, out=rows("U"),
                         mode="clip")
        self.WU = np.matmul(self.U, W.T, out=rows("WU"))
        self.sq = np.einsum("nd,nd->n", self.U, self.U)
        self.dotc = self.U @ (W.T @ params.att_vector[:d])    # a1.W u
        self.dotp = self.WU @ params.att_vector[d:]           # a2.W u
        self.raw = params.decay_raw[self.ids]


class _Side:
    """Forward caches for one endpoint family (true + corrupted centers).

    ``centers`` (B, C) and ``nodes`` (B, h) are rows of ``table``. The
    (B, C, d), (B, h, d) and (B, C, h) caches live in ``work`` under
    ``name``; ``scratch`` holds at least B * max(C, h) * d entries free for
    the forward pass. Both default to fresh storage.
    """

    def __init__(self, table: _NodeTable, centers, nodes, times, length, t,
                 params: AttentionParams, work: Workspace | None = None,
                 name: str = "side", scratch: np.ndarray | None = None):
        B, C = centers.shape
        h = nodes.shape[1]
        d = params.dim
        if work is None:
            work = Workspace()
        if scratch is None:
            scratch = np.empty(B * max(C, h) * d)

        def buf(key, *shape):
            return work.get(f"{name}.{key}", shape)

        self.mask = (np.arange(h)[None, :] < length[:, None]).astype(np.float64)
        self.m = length.astype(np.float64)
        self.nonempty = length > 0
        self.dt = (t[:, None] - times).astype(np.float64) * self.mask

        self.nodes = nodes
        # table rows are in range, so "clip" gathers without a checking copy
        self.Uc = np.take(table.U, centers, axis=0, out=buf("Uc", B, C, d),
                          mode="clip")
        self.Uh = np.take(table.U, nodes, axis=0, out=buf("Uh", B, h, d),
                          mode="clip")
        self.sqc = table.sq[centers]                      # (B, C)
        self.sqh = table.sq[nodes]                        # (B, h)
        self.dotc = table.dotc[centers]                   # (B, C)
        self.dotp = table.dotp[nodes]                     # (B, h)
        self.raw_c = table.raw[centers]                   # (B, C)
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
        # ut = sigmoid(alpha @ W u_p): the W u_p are gathered into the
        # scratch, which then takes the sigmoid's temporary
        Wh = np.take(table.WU, nodes, axis=0,
                     out=scratch[:B * h * d].reshape(B, h, d), mode="clip")
        self.ut = np.matmul(self.alpha, Wh, out=buf("ut", B, C, d))
        _sigmoid_inplace(self.ut, scratch[:B * C * d].reshape(B, C, d))
        self.mdt = self.dt.sum(axis=1) / np.maximum(self.m, 1.0)  # (B,)
        self.kbar = np.exp(-self.delta * self.mdt[:, None])       # (B, C)
        self.us = self.ut @ params.s_weight                       # (B, C)
        self.btil = self.kbar * self.us


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
    """Embeddings gradient of g: writes the history slots' vectors of
    ``side`` into ``d_hist`` and adds the center slots' vectors of ``other``
    onto ``d_other``. ``d_g`` is overwritten, and ``scratch`` holds at least
    B * C * d free entries.
    Returns the coefficients of each slot's own row, (B, h) for the
    histories and (B, C) for the centers."""
    d_g2 = np.multiply(d_g, 2.0, out=d_g)
    np.matmul(d_g2.transpose(0, 2, 1), other.Uc, out=d_hist)
    d_other += np.matmul(d_g2, side.Uh,
                         out=scratch[:d_other.size].reshape(d_other.shape))
    return -d_g2.sum(axis=1), -d_g2.sum(axis=2)


def batch_loss_and_grads(batch: EventBatch, neg_src: np.ndarray,
                         neg_dst: np.ndarray, embeddings: np.ndarray,
                         params: AttentionParams, want_grads: bool = True,
                         work: Workspace | None = None):
    """Negative-sampling loss of one batch and, optionally, its gradients.

    Returns (loss, grads-or-None, stats). ``grads`` maps every parameter
    group name to an array of the group's shape. ``stats["range_hits"]``
    counts pair scores whose magnitude exceeded ``RANGE_BOUND`` (the sampled
    loss itself is evaluated unclamped through a stable log-sigmoid). A node
    id outside [0, V) raises IndexError.

    ``work`` holds the working set: the node table, both sides' forward
    caches, the slot buffer and one scratch region. The scratch carries the
    pair diffs, then the center products, then (as int64) the scatter's
    positions, the centers' and then the histories'. Once the slots are
    scattered, the slot buffer takes the side backward's products. Passing
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
    hist_at = 2 * B * C          # slots before the histories' (the centers')
    slots_len = (2 * C + h_i + h_j) * B * d
    scratch = work.get("scratch", (max(2 * C, h_i + h_j) * B * d,))

    centers_i = np.concatenate([batch.src[:, None], neg_src], axis=1)
    centers_j = np.concatenate([batch.dst[:, None], neg_dst], axis=1)
    table = _NodeTable([centers_i, centers_j, batch.src_hist_nodes,
                        batch.dst_hist_nodes], embeddings, params, work)
    row_ci, row_cj, row_hi, row_hj = table.inverse
    side_i = _Side(table, row_ci, row_hi, batch.src_hist_times, batch.src_len,
                   t, params, work, "i", scratch)
    side_j = _Side(table, row_cj, row_hj, batch.dst_hist_times, batch.dst_len,
                   t, params, work, "j", scratch)

    g_hi = _hist_vs_centers(side_i, side_j)               # (B, C, h)
    g_hj = _hist_vs_centers(side_j, side_i)

    # forward: one block of P = 1 + 2K pairs --------------------------------
    # pair p joins column ci[p] of side i with column cj[p] of side j: the
    # event (0, 0), then (k, 0) for pairs 1..K and (0, k) for K+1..2K. The
    # diffs stay in the scratch until the backward.
    ci, cj, sign = _pair_columns(K)
    P = ci.size
    diff = scratch[:B * P * d].reshape(B, P, d)
    np.subtract(side_i.Uc, side_j.Uc[:, :1], out=diff[:, :C])
    np.subtract(side_i.Uc[:, :1], side_j.Uc[:, 1:], out=diff[:, C:])
    g = -np.einsum("bpd,bpd->bp", diff, diff)              # (B, P)
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
    # the embeddings gradient's per-slot vectors, in the table's slot order:
    # centers i, centers j, histories i, histories j
    slots = work.get("slots", (slots_len,))
    dUc_i, dUc_j, dUh_i, dUh_j = _carve(slots, (B, C, d), (B, C, d),
                                        (B, h_i, d), (B, h_j, d))
    d_sw = np.zeros(d)
    dlam = -sign * sigmoid(-sign * lam)
    # the diffs' terms fold onto the columns by slices: side i's column 0
    # takes pairs 0 and K+1..2K, its column k pair k; side j's column 0
    # takes pairs 0..K, its column k pair K + k
    diff *= (-2.0 * dlam)[:, :, None]
    np.copyto(dUc_i, diff[:, :C])
    dUc_i[:, 0] += diff[:, C:].sum(axis=1)
    dUc_j[:, 0] = -diff[:, :C].sum(axis=1)
    np.negative(diff[:, C:], out=dUc_j[:, 1:])

    # a per-pair scalar sits at its (ci, cj) entry of a (B, C, C) matrix,
    # whose sums and products fold it back onto both sides' columns. The
    # (cj, ci) entries are the same set, so each write replaces the last.
    # The scratch takes the center products, then the scatter's positions.
    pair = np.zeros((B, C, C))
    pair[:, ci, cj] = dlam * (A_i - A_j) * beta * (1.0 - beta) * both
    d_btil_i = pair.sum(axis=2)
    d_btil_j = -pair.sum(axis=1)
    pair[:, ci, cj] = dlam * beta
    d_ak_i = pair @ g_hi                                    # (B, C, h)
    own_hi, own_cj = _hist_vs_centers_backward(
        pair.transpose(0, 2, 1) @ side_i.ak, side_i, side_j, dUh_i, dUc_j,
        scratch)
    pair[:, cj, ci] = dlam * (1.0 - beta)
    d_ak_j = pair @ g_hj
    own_hj, own_ci = _hist_vs_centers_backward(
        pair.transpose(0, 2, 1) @ side_j.ak, side_j, side_i, dUh_j, dUc_i,
        scratch)
    del g_hi, g_hj, pair        # freed before the scatter's arrays
    # the scatter's int64 positions fill the scratch twice: the centers',
    # then the histories', which M reuses
    n = table.ids.size
    positions = row_positions(table.slot_rows[:hist_at], d,
                              out=scratch[:hist_at * d].view(np.int64))
    G = np.bincount(positions, weights=slots[:hist_at * d], minlength=n * d)
    positions = row_positions(
        table.slot_rows[hist_at:], d,
        out=scratch[:slots_len - hist_at * d].view(np.int64))
    G += np.bincount(positions, weights=slots[hist_at * d:], minlength=n * d)
    G = G.reshape(n, d)

    # the slot buffer now takes both sides' W u gradients and the backward
    # products
    dWh_i, dWh_j, rest = _carve(slots, (B, h_i, d), (B, h_j, d),
                                (2 * B * C * d,))
    raw_i, dotc_i, dotp_i = _side_backward(side_i, table, params, d_btil_i,
                                           d_ak_i, dWh_i, d_sw, rest)
    raw_j, dotc_j, dotp_j = _side_backward(side_j, table, params, d_btil_j,
                                           d_ak_j, dWh_j, d_sw, rest)

    # fold onto the distinct rows: per-row coefficients of u (own), a1, a2
    # and decay_raw, and M, everything that reaches u through W
    rows_c, rows_h = table.slot_rows[:hist_at], table.slot_rows[hist_at:]
    own = _fold(table.slot_rows, n, own_ci, own_cj, own_hi, own_hj)
    c_a1 = _fold(rows_c, n, dotc_i, dotc_j)
    c_a2 = _fold(rows_h, n, dotp_i, dotp_j)
    M = np.bincount(positions, weights=slots[:positions.size],
                    minlength=n * d).reshape(n, d)
    # the table's W u rows are read by now; their buffer is the temporary
    U, tmp = table.U, table.WU
    a1, a2 = params.att_vector[:d], params.att_vector[d:]
    W = params.local_weight
    M += np.multiply(c_a1[:, None], a1, out=tmp)
    M += np.multiply(c_a2[:, None], a2, out=tmp)
    grads = {
        "att_vector": np.concatenate([W @ (c_a1 @ U), W @ (c_a2 @ U)]),
        "local_weight": M.T @ U,
        "s_weight": d_sw,
    }
    G += np.multiply(own[:, None], U, out=tmp)
    G += np.matmul(M, W, out=tmp)
    del M                       # freed before the dense gradient
    grads["embeddings"] = np.zeros((V, d))
    grads["embeddings"][table.ids] = G
    grads["decay_raw"] = np.zeros(V)
    grads["decay_raw"][table.ids] = _fold(rows_c, n, raw_i, raw_j)
    return loss, grads, stats


def _fold(rows: np.ndarray, n: int, *parts) -> np.ndarray:
    """Per-slot scalars ``parts``, laid out in the order of ``rows``, summed
    onto the n table rows."""
    return np.bincount(rows, weights=np.concatenate(
        [part.reshape(-1) for part in parts]), minlength=n)


def _side_backward(side: _Side, table: _NodeTable, params: AttentionParams,
                   d_btil, d_ak, d_Wh, d_sw, scratch):
    """Backward through one side's attention, given the loss gradient of its
    btil (B, C) and ak = alpha * kap (B, C, h). Adds onto the s_weight
    gradient ``d_sw`` (d,), writes the gradient of each history entry's
    W u_p into ``d_Wh`` (B, h, d) and returns the gradients of each center's
    decay_raw and a1.W u_c, (B, C), and of each history entry's a2.W u_p,
    (B, h).
    ``scratch`` holds at least 2 * B * C * d free entries.
    """
    d = params.dim
    B, C, h = side.alpha.shape
    d_agg, tmp = _carve(scratch, (B, C, d), (B, C, d))

    d_btil_k = d_btil * side.kbar
    d_sw += d_btil_k.reshape(-1) @ side.ut.reshape(-1, d)
    d_delta = d_btil * side.us * side.kbar * (-side.mdt[:, None])

    # d_agg = (d_btil_k * s_weight) * ut * (1 - ut)
    np.multiply(d_btil_k[:, :, None], params.s_weight, out=d_agg)
    d_agg *= side.ut
    d_agg *= np.subtract(1.0, side.ut, out=tmp)
    # the W u_p are gathered into d_Wh, read, then overwritten
    Wh = np.take(table.WU, side.nodes, axis=0, out=d_Wh, mode="clip")
    d_alpha = d_ak * side.kap + d_agg @ Wh.transpose(0, 2, 1)
    np.matmul(side.alpha.transpose(0, 2, 1), d_agg, out=d_Wh)

    s = np.einsum("bch,bch->bc", side.alpha, d_alpha)
    d_at = side.alpha * (d_alpha - s[:, :, None])
    d_pre = d_at * side.at * (1.0 - side.at)

    d_kap = d_ak * side.alpha \
        + d_pre * (side.dotc[:, :, None] + side.dotp[:, None, :])
    d_scal = d_pre * side.kap
    d_delta += np.einsum("bch,bch->bc", d_kap,
                         side.kap * (-side.dt[:, None, :]))
    return (d_delta * sigmoid(side.raw_c), d_scal.sum(axis=2),
            d_scal.sum(axis=1))
