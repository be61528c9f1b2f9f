"""Vectorized negative-sampling loss and analytic gradients.

One batch row is an observed event (i, j, t) plus the pre-event histories of
both endpoints and K corruption ids per endpoint slot. Corrupted pairs reuse
the event's histories with the corrupted endpoint substituted everywhere it
appears (base similarity, attention center, decay rate).

Layout: per endpoint family there are C = 1 + K "centers" (column 0 is the
true endpoint). Both families share every parameter, so the engine runs
them as one side of 2B rows, the source family over the target family. The
histories (:class:`EventBatch`) and the negatives
(:func:`micro.draw_event_negatives`) arrive stacked as (2, B, ...), half 0
the source's, and are read as (2B, ...) without a copy; a term that crosses
the sides reads the other half reversed.
Per-entry quantities are (2B, C, h) arrays masked on padding. Each event is
one block of P = 1 + 2K pairs, all scored by the same intensity: the event
(col 0 vs col 0), then K source-corrupted (col k vs col 0) and K
target-corrupted (col 0 vs col k) pairs. Only the sign of the score in the
loss softplus(-sign * score) tells them apart, and the backward pass folds
each pair's terms back onto its two columns.

The side's slots (centers, then histories) name far fewer distinct nodes
than they number, so the engine works on the distinct rows of a node table
(one np.unique over the slot ids) that holds u, W u, ||u||^2, a1.W u, a2.W u
and the decay pre-activation. The backward pass keeps per slot only the
vectors that differ from slot to slot (the pair diffs and the
history-vs-center products) and sums them onto the distinct rows, one
bincount for the centers and one for the histories; terms proportional to
a slot's own row fold into one coefficient per row. Everything that reaches
u through W folds into one (n, d) matrix M = sum(d W u) + c1 a1 + c2 a2, a
third bincount, so M W, M^T U and the attention vector's two products run
once over the distinct rows. History-vs-center distances come from squared
norms and one batched matmul, so no (2B, C, h, d) tensor is built.

Everything here is checked against the straight-line reference in
``tests/_oracles.py`` and against central finite differences; keep the
forward caches and backward formulas in sync when touching either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SnapshotArrays, TemporalNetwork
from .micro import AttentionParams
from .util import Workspace, row_positions, sigmoid, softplus

# |score| above which a pair counts as a range hit; it feeds the stats only.
RANGE_BOUND = 50.0


@dataclass
class EventBatch:
    """Array view of sampled events with their pre-event histories, the
    source's stacked over the target's as in :class:`graph.SnapshotArrays`.
    Entries past ``hist_len`` are masked."""

    src: np.ndarray          # (B,)
    dst: np.ndarray          # (B,)
    t: np.ndarray            # (B,)
    hist_nodes: np.ndarray   # (2, B, h)
    hist_times: np.ndarray   # (2, B, h)
    hist_len: np.ndarray     # (2, B)

    @classmethod
    def take(cls, net: TemporalNetwork, snapshots: SnapshotArrays,
             idx: np.ndarray) -> "EventBatch":
        """Events ``idx`` of ``net`` with their pre-event history rows."""
        return cls(src=net.src[idx], dst=net.dst[idx], t=net.time[idx],
                   hist_nodes=snapshots.nodes[:, idx],
                   hist_times=snapshots.times[:, idx],
                   hist_len=snapshots.length[:, idx])

    def __len__(self) -> int:
        return int(self.src.shape[0])


def _pair_columns(K: int):
    """Columns, (2, P) with the source's over the target's, and loss signs of
    one event's P = 1 + 2K pairs: the event (0, 0), then K source-corrupted
    (k, 0) and K target-corrupted (0, k) pairs."""
    ks = np.arange(1, K + 1)
    sign = np.where(np.arange(1 + 2 * K) == 0, 1.0, -1.0)
    return np.stack([np.concatenate([[0], ks, 0 * ks]),
                     np.concatenate([[0], 0 * ks, ks])]), sign


def _halves(rows: np.ndarray) -> np.ndarray:
    """A (2B, ...) array of stacked sides viewed as (2, B, ...)."""
    return rows.reshape(2, rows.shape[0] // 2, *rows.shape[1:])


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

    ``centers`` (R, C) and ``nodes`` (R, h) are node ids. ``rows_c`` and
    ``rows_h`` hold the table row of each (same shapes), and ``slot_rows``
    both flat, centers first. An id outside [0, V) raises IndexError before
    anything is read. The (n, d) tables live in ``work`` (default: fresh).
    """

    def __init__(self, centers: np.ndarray, nodes: np.ndarray,
                 embeddings: np.ndarray, params: AttentionParams,
                 work: Workspace | None = None):
        V, d = embeddings.shape
        if work is None:
            work = Workspace()
        flat = np.concatenate([centers.reshape(-1),
                               nodes.reshape(-1)]).astype(np.int64)
        if flat.min() < 0 or flat.max() >= V:
            raise IndexError(f"node id out of range [0, {V})")
        # the input is flat, so the inverse is flat under every NumPy
        self.ids, self.slot_rows = np.unique(flat, return_inverse=True)
        self.rows_c = self.slot_rows[:centers.size].reshape(centers.shape)
        self.rows_h = self.slot_rows[centers.size:].reshape(nodes.shape)

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
    """Forward caches of the table's rows, one endpoint family (true +
    corrupted centers) per row: R = 2B in the engine.

    The (R, C, d), (R, h, d) and (R, C, h) caches live in ``work``
    (default: fresh), and so does the forward pass's scratch, "scratch" of
    R * max(C, h) * d entries.
    """

    def __init__(self, table: _NodeTable, times, length, t,
                 params: AttentionParams, work: Workspace | None = None):
        centers, nodes = table.rows_c, table.rows_h
        B, C = centers.shape
        h = nodes.shape[1]
        d = params.dim
        if work is None:
            work = Workspace()
        scratch = work.get("scratch", (B * max(C, h) * d,))

        def buf(key, *shape):
            return work.get(f"side.{key}", shape)

        self.mask = (np.arange(h)[None, :] < length[:, None]).astype(np.float64)
        self.nonempty = length > 0
        self.dt = (t[:, None] - times).astype(np.float64) * self.mask

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
        self.mdt = self.dt.sum(axis=1) / np.maximum(length, 1.0)  # (B,)
        self.kbar = np.exp(-self.delta * self.mdt[:, None])       # (B, C)
        self.us = self.ut @ params.s_weight                       # (B, C)
        self.btil = self.kbar * self.us


def _pair_beta(btil: np.ndarray, nonempty: np.ndarray):
    """Neighborhood weights of the two sides of each pair, (beta, 1 - beta)
    stacked as (2, B, P), from the sides' btil (2, B, P) and history flags
    (2, B). beta is pinned to the side with a history unless both have one;
    also returns where both do, (B, 1)."""
    both = (nonempty[0] & nonempty[1])[:, None]
    beta = np.where(both, sigmoid(btil[0] - btil[1]), nonempty[0][:, None])
    return np.stack([beta, 1.0 - beta]), both


def _hist_vs_centers(side: _Side):
    """g[s, b, c, p] = -||u_hist[s, b, p] - u_center[1 - s, b, c]||^2, each
    half's histories against the other half's centers, expanded as
    2 a.b - ||a||^2 - ||b||^2. Returns (2, B, C, h)."""
    cross = _halves(side.Uc)[::-1] @ _halves(side.Uh).transpose(0, 1, 3, 2)
    return 2.0 * cross - _halves(side.sqc)[::-1, :, :, None] \
        - _halves(side.sqh)[:, :, None, :]


def _hist_vs_centers_backward(d_g, side: _Side, d_hist, d_centers, scratch):
    """Embeddings gradient of :func:`_hist_vs_centers`: writes the history
    slots' vectors into ``d_hist`` (2, B, h, d), adds the center slots' onto
    ``d_centers`` (2, B, C, d) and returns the coefficients of each slot's
    own row, (2, B, h) and (2, B, C). ``d_g`` is overwritten, and
    ``scratch`` holds at least 2 * B * C * d free entries."""
    d_g2 = np.multiply(d_g, 2.0, out=d_g)
    np.matmul(d_g2.transpose(0, 1, 3, 2), _halves(side.Uc)[::-1], out=d_hist)
    d_centers += np.matmul(
        d_g2, _halves(side.Uh),
        out=scratch[:d_centers.size].reshape(d_centers.shape))[::-1]
    return -d_g2.sum(axis=2), -d_g2.sum(axis=3)[::-1]


def batch_loss_and_grads(batch: EventBatch, negatives: np.ndarray,
                         embeddings: np.ndarray, params: AttentionParams,
                         want_grads: bool = True,
                         work: Workspace | None = None):
    """Negative-sampling loss of one batch and, optionally, its gradients.

    ``negatives`` (2, B, K) holds the corruption ids of the source's slot
    over the target's, as :func:`micro.draw_event_negatives` draws them.
    Returns (loss, grads-or-None, stats). ``grads`` maps every parameter
    group name to an array of the group's shape. ``stats["range_hits"]``
    counts pair scores whose magnitude exceeded ``RANGE_BOUND`` (the sampled
    loss itself is evaluated unclamped through a stable log-sigmoid). A node
    id outside [0, V) raises IndexError.

    ``work`` holds the working set: the node table, the side's forward
    caches, the slot buffer and one scratch region, which carries the side's
    forward temporaries, the pair diffs, the center products, then (as int64)
    the scatter's positions, the centers' and the histories'. Once the slots
    are scattered, the slot buffer takes the side backward's products. One
    workspace passed to every batch of one shape is allocated once; None
    uses a fresh one. The returned gradients never alias it.
    """
    B = len(batch)
    V, d = embeddings.shape
    if work is None:
        work = Workspace()

    # 2B rows, source family over target family; centers are never padded
    centers = np.concatenate([np.stack([batch.src, batch.dst])[:, :, None],
                              negatives], axis=2).reshape(2 * B, -1)
    C, h = centers.shape[1], batch.hist_nodes.shape[2]
    table = _NodeTable(centers, batch.hist_nodes.reshape(2 * B, h),
                       embeddings, params, work)
    side = _Side(table, batch.hist_times.reshape(2 * B, h),
                 batch.hist_len.reshape(2 * B), np.tile(batch.t, 2), params,
                 work)
    scratch = work.get("scratch", (2 * max(C, h) * B * d,))   # the side's
    Uc = _halves(side.Uc)
    g_h = _hist_vs_centers(side)                          # (2, B, C, h)

    # forward: one block of P = 1 + 2K pairs --------------------------------
    # pair p joins column cols[0, p] of the source half with column
    # cols[1, p] of the target half: the event (0, 0), then (k, 0) for pairs
    # 1..K and (0, k) for K+1..2K. The diffs stay in the scratch until the
    # backward.
    cols, sign = _pair_columns(C - 1)
    diff = scratch[:B * sign.size * d].reshape(B, sign.size, d)
    np.subtract(Uc[0], Uc[1, :, :1], out=diff[:, :C])
    np.subtract(Uc[0, :, :1], Uc[1, :, 1:], out=diff[:, C:])
    g = -np.einsum("bpd,bpd->bp", diff, diff)              # (B, P)
    # entry (s, b, p) of a (2, B, C, C) stack is half s's column of pair p
    # against the other half's: A is each half's attention-weighted history
    # distance to the other half's center, taken for all C x C center pairs
    pair_at = (np.arange(2)[:, None, None], np.arange(B)[:, None],
               cols[:, None], cols[::-1, None])
    A = (_halves(side.ak) @ g_h.transpose(0, 1, 3, 2))[pair_at]  # (2, B, P)
    w, both = _pair_beta(_halves(side.btil)[pair_at[:3]],
                         _halves(side.nonempty))
    lam = g + w[0] * A[0] + w[1] * A[1]
    loss = float(softplus(-sign * lam).sum())
    stats = {"pairs": lam.size,
             "range_hits": int((np.abs(lam) > RANGE_BOUND).sum())}
    if not want_grads:
        return loss, None, stats

    # backward --------------------------------------------------------------
    # the embeddings gradient's per-slot vectors, in the table's slot order:
    # centers, then histories, each the source half over the target half
    slots = work.get("slots", (2 * (C + h) * B * d,))
    dUc = slots[:2 * B * C * d].reshape(2, B, C, d)
    dUh = slots[dUc.size:].reshape(2, B, h, d)
    dlam = -sign * sigmoid(-sign * lam)
    # the diffs' terms fold onto the columns by slices: the source's column
    # 0 takes pairs 0 and K+1..2K, its column k pair k; the target's column
    # 0 takes pairs 0..K, its column k pair K + k
    diff *= (-2.0 * dlam)[:, :, None]
    np.copyto(dUc[0], diff[:, :C])
    dUc[0, :, 0] += diff[:, C:].sum(axis=1)
    dUc[1, :, 0] = -diff[:, :C].sum(axis=1)
    np.negative(diff[:, C:], out=dUc[1, :, 1:])

    # a per-pair scalar of each half sits at its pair_at entry of the
    # (2, B, C, C) stack, whose sums and products fold it back onto both
    # halves' columns; each write replaces all entries of the last. The
    # scratch takes the center products, then the scatter's positions.
    pair = np.zeros((2, B, C, C))
    pair[pair_at] = dlam * (A - A[::-1]) * w[0] * w[1] * both
    d_btil = pair.sum(axis=3)                               # (2, B, C)
    pair[pair_at] = dlam * w
    d_ak = pair @ g_h                                       # (2, B, C, h)
    own_h, own_c = _hist_vs_centers_backward(
        pair.transpose(0, 1, 3, 2) @ _halves(side.ak), side, dUh, dUc,
        scratch)
    del g_h, pair               # freed before the scatter's arrays
    # the scatter's int64 positions fill the scratch twice: the centers',
    # then the histories', which M reuses
    n = table.ids.size
    positions = row_positions(table.rows_c, d,
                              out=scratch[:dUc.size].view(np.int64))
    G = np.bincount(positions, weights=dUc.reshape(-1), minlength=n * d)
    positions = row_positions(table.rows_h, d,
                              out=scratch[:dUh.size].view(np.int64))
    G += np.bincount(positions, weights=dUh.reshape(-1), minlength=n * d)
    G = G.reshape(n, d)

    # the slot buffer now takes the W u gradients and the backward products
    dWh = slots[:dUh.size].reshape(2 * B, h, d)
    d_sw, raw, dotc, dotp = _side_backward(
        side, table, params, d_btil.reshape(2 * B, C),
        d_ak.reshape(2 * B, C, h), dWh, slots[dWh.size:])

    # fold onto the distinct rows: per-row coefficients of u (own), a1, a2
    # and decay_raw, and M, everything that reaches u through W
    own = _fold(table.slot_rows, n, own_c, own_h)
    c_a1 = _fold(table.rows_c, n, dotc)
    c_a2 = _fold(table.rows_h, n, dotp)
    M = np.bincount(positions, weights=dWh.reshape(-1),
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
    grads["decay_raw"][table.ids] = _fold(table.rows_c, n, raw)
    return loss, grads, stats


def _fold(rows: np.ndarray, n: int, *parts) -> np.ndarray:
    """Per-slot scalars ``parts``, laid out in the order of ``rows``, summed
    onto the n table rows."""
    return np.bincount(rows.reshape(-1), weights=np.concatenate(
        [part.reshape(-1) for part in parts]), minlength=n)


def _side_backward(side: _Side, table: _NodeTable, params: AttentionParams,
                   d_btil, d_ak, d_Wh, scratch):
    """Backward through the side's attention, given the loss gradient of its
    btil (R, C) and ak = alpha * kap (R, C, h). Writes the gradient of each
    history entry's W u_p into ``d_Wh`` (R, h, d) and returns the s_weight
    gradient (d,), the gradients of each center's decay_raw and a1.W u_c,
    (R, C), and of each history entry's a2.W u_p, (R, h).
    ``scratch`` holds at least R * C * d free entries.
    """
    d = params.dim
    R, C, h = side.alpha.shape

    d_btil_k = d_btil * side.kbar
    d_sw = d_btil_k.reshape(-1) @ side.ut.reshape(-1, d)
    d_delta = d_btil * side.us * side.kbar * (-side.mdt[:, None])

    # d_agg = (1 - ut) * ut * d_btil_k * s_weight, built in place
    d_agg = np.subtract(1.0, side.ut, out=scratch[:R * C * d].reshape(R, C, d))
    d_agg *= side.ut
    d_agg *= d_btil_k[:, :, None]
    d_agg *= params.s_weight
    # the W u_p are gathered into d_Wh, read, then overwritten
    Wh = np.take(table.WU, table.rows_h, axis=0, out=d_Wh, mode="clip")
    d_alpha = np.matmul(d_agg, Wh.transpose(0, 2, 1))
    np.matmul(side.alpha.transpose(0, 2, 1), d_agg, out=d_Wh)
    # d_alpha becomes d_pre, then d_scal, in place: the (R, C, h) gradients
    # of kap * (dotc + dotp) and of dotc + dotp
    d_alpha += d_ak * side.kap
    d_alpha -= np.einsum("bch,bch->bc", side.alpha, d_alpha)[:, :, None]
    d_pre = np.multiply(d_alpha, side.alpha, out=d_alpha)
    d_pre *= side.at
    d_pre *= 1.0 - side.at
    d_kap = d_pre * (side.dotc[:, :, None] + side.dotp[:, None, :])
    d_kap += d_ak * side.alpha
    d_delta += np.einsum("bch,bch->bc", d_kap,
                         side.kap * (-side.dt[:, None, :]))
    d_scal = np.multiply(d_pre, side.kap, out=d_pre)
    return (d_sw, d_delta * sigmoid(side.raw_c), d_scal.sum(axis=2),
            d_scal.sum(axis=1))
