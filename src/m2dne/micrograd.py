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
Per-entry quantities are (R, C, h) arrays over a block's R side rows (see
below), masked on padding. Each event is
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
scatter-add for the centers and one for the histories; terms proportional
to a slot's own row fold into one coefficient per row. Everything that
reaches u through W folds into one (n, d) matrix M = sum(d W u) + c1 a1 +
c2 a2, a third scatter-add, so M W, M^T U and the attention vector's two
products run once over the distinct rows. History-vs-center distances come
from squared norms and one batched matmul, so no (2B, C, h, d) tensor is
built.

The node table is built once per batch; the per-slot work runs over blocks
of events. The side's forward pass, the pair block, the history-vs-center
products and both backward passes take one block at a time, as many events
as BLOCK_BYTES (4 MiB) of slot buffers hold: 31.6 KB per event at d = 64,
K = 5 and h = 5, so 132 events, and fit-micro's B = 512 runs as four
blocks. Each block writes its per-slot scalars (the pair scores and the
own-row, decay, a1 and a2 coefficients) into batch-wide arrays, whose loss,
range hits and folds onto the rows are taken once, after the last block;
it scatters its per-slot vectors into batch-wide (n, d) accumulators, the
centers', the histories' and M, and adds its s_weight gradient to the
sum of the blocks before it. So a batch of one block gives the bits of the
whole batch run at once, and more blocks move the gradients by summation
order only, in those scatters and that sum; the loss and the range hits
do not move.

The working set is a prefix of a :class:`util.Workspace`'s one array: the
node table's two (n, d) arrays, sized for n = min(V, 2B (C + h)), one row
per slot and per node at most, then the buffers of one block, sized for
min(B, block) events. For the block's R = 2 * events side rows those are
the side's caches (two (R, C, d), one (R, h, d) and four (R, C, h)), a
scratch of R max(C, h) d entries and the centers' slot buffer of R C d.
The histories' per-slot vectors have no buffer of their own: they are
written over the side's history rows once the center products have read
those, and the W u gradients follow them there, while the slot buffer takes
the side backward's products. Caches the backward has read for the last
time take its (R, C, h) gradients. At fit-micro's shape (V = 1200) the array is
5.15 MiB, 1.17 MiB of it the table and 3.98 MiB the block; a larger batch
holds the same block and a table of at most 2 V d entries. A call allocates
about 2.6 MiB beyond it (tracemalloc), the accumulators and the dense
gradients included.

Everything here is checked against the straight-line reference in
``tests/_oracles.py`` and against central finite differences; keep the
forward caches and backward formulas in sync when touching either.
"""

from __future__ import annotations

import functools
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
    """Array view of sampled events with their pre-event histories, the
    source's stacked over the target's and padded to the capacity h, as
    :meth:`graph.SnapshotArrays.take` gathers them. Nodes past ``hist_len``
    are masked, and ages there must be 0."""

    src: np.ndarray          # (B,)
    dst: np.ndarray          # (B,)
    hist_nodes: np.ndarray   # (2, B, h)
    hist_age: np.ndarray     # (2, B, h) t - t_p of each neighbor p
    hist_len: np.ndarray     # (2, B)

    @classmethod
    def take(cls, net: TemporalNetwork, snapshots: SnapshotArrays,
             idx: np.ndarray) -> "EventBatch":
        """Events ``idx`` of ``net`` with their pre-event histories, gathered
        from ``snapshots`` (the index of ``net``)."""
        return cls(net.src[idx], net.dst[idx], *snapshots.take(idx))

    def __len__(self) -> int:
        return int(self.src.shape[0])


@functools.lru_cache(maxsize=None)
def _pair_columns(K: int):
    """Columns, (2, P) with the source's over the target's, and loss signs of
    one event's P = 1 + 2K pairs: the event (0, 0), then K source-corrupted
    (k, 0) and K target-corrupted (0, k) pairs. Cached per K, so both
    arrays are read-only."""
    ks = np.arange(1, K + 1)
    sign = np.where(np.arange(1 + 2 * K) == 0, 1.0, -1.0)
    cols = np.stack([np.concatenate([[0], ks, 0 * ks]),
                     np.concatenate([[0], 0 * ks, ks])])
    cols.flags.writeable = sign.flags.writeable = False
    return cols, sign


def _halves(rows: np.ndarray) -> np.ndarray:
    """A (2B, ...) array of stacked sides viewed as (2, B, ...)."""
    return rows.reshape(2, rows.shape[0] // 2, *rows.shape[1:])


class _NodeTable:
    """The batch's distinct node rows and the per-node terms its slots read:
    u, W u, ||u||^2, a1.W u, a2.W u and the decay pre-activation.

    ``centers`` (R, C) and ``nodes`` (R, h) are node ids. ``rows_c`` and
    ``rows_h`` hold the table row of each (same shapes), and ``slot_rows``
    both flat, centers first. An id outside [0, V) raises IndexError before
    anything is read. The two (n, d) tables are written into ``rows``, which
    holds at least 2 n d free entries.
    """

    def __init__(self, centers: np.ndarray, nodes: np.ndarray,
                 embeddings: np.ndarray, params: AttentionParams,
                 rows: np.ndarray):
        V, d = embeddings.shape
        flat = np.concatenate([centers.reshape(-1),
                               nodes.reshape(-1)]).astype(np.int64)
        if flat.min() < 0 or flat.max() >= V:
            raise IndexError(f"node id out of range [0, {V})")
        # the input is flat, so the inverse is flat under every NumPy
        self.ids, self.slot_rows = np.unique(flat, return_inverse=True)
        self.rows_c = self.slot_rows[:centers.size].reshape(centers.shape)
        self.rows_h = self.slot_rows[centers.size:].reshape(nodes.shape)

        n = self.ids.size
        W = params.local_weight
        self.U = np.take(embeddings, self.ids, axis=0,
                         out=rows[:n * d].reshape(n, d), mode="clip")
        self.WU = np.matmul(self.U, W.T,
                            out=rows[n * d:2 * n * d].reshape(n, d))
        self.sq = np.einsum("nd,nd->n", self.U, self.U)
        self.dotc = self.U @ (W.T @ params.att_vector[:d])    # a1.W u
        self.dotp = self.WU @ params.att_vector[d:]           # a2.W u
        self.raw = params.decay_raw[self.ids]


# bytes of slot buffers one block of events holds: the engine runs a batch's
# per-slot work a block at a time, about 130 events at d = 64, K = 5, h = 5
BLOCK_BYTES = 4 * 2 ** 20


def _row_floats(C: int, h: int, d: int) -> int:
    """Entries of the block array per side row: the caches Uc, ut (C d each)
    and Uh (h d), four (C, h) caches, the scratch (max(C, h) d) and the
    centers' slot buffer (C d)."""
    return (3 * C + h + max(C, h)) * d + 4 * C * h


def _blocks(block: np.ndarray, B: int, C: int, h: int, d: int):
    """Yield the batch's blocks of events in order, each as (slice of events,
    buffers). A block holds as many events as ``block`` has room for; the
    buffers of its R = 2 * events side rows are carved from its start."""
    per_row = _row_floats(C, h, d)
    size = block.size // (2 * per_row)
    for start in range(0, B, size):
        R = 2 * (min(B, start + size) - start)
        bufs, pos = {}, 0
        for key, shape in (("Uc", (R, C, d)), ("Uh", (R, h, d)),
                           ("ut", (R, C, d)), ("kap", (R, C, h)),
                           ("at", (R, C, h)), ("alpha", (R, C, h)),
                           ("ak", (R, C, h)),
                           ("scratch", (R * max(C, h) * d,)),
                           ("slots", (R * C * d,))):
            count = math.prod(shape)
            bufs[key] = block[pos:pos + count].reshape(shape)
            pos += count
        yield slice(start, start + R // 2), bufs


class _Side:
    """Forward caches of one block's side rows, one endpoint family (true +
    corrupted centers) per row: R = 2 * events, the source family over the
    target family.

    ``centers`` (R, C) and ``nodes`` (R, h) are table rows. The (R, C, d),
    (R, h, d) and (R, C, h) caches live in ``bufs`` (:func:`_blocks`), and
    so does the forward pass's scratch.
    """

    def __init__(self, table: _NodeTable, centers, nodes, ages, length,
                 params: AttentionParams, bufs: dict):
        B, C = centers.shape
        h = nodes.shape[1]
        d = params.dim
        scratch = bufs["scratch"]
        self.centers, self.nodes = centers, nodes

        self.mask = (np.arange(h)[None, :] < length[:, None]).astype(np.float64)
        self.nonempty = length > 0
        self.dt = ages.astype(np.float64)                 # 0 on padding

        # table rows are in range, so "clip" gathers without a checking copy
        self.Uc = np.take(table.U, centers, axis=0, out=bufs["Uc"],
                          mode="clip")
        self.Uh = np.take(table.U, nodes, axis=0, out=bufs["Uh"],
                          mode="clip")
        self.sqc = table.sq[centers]                      # (B, C)
        self.sqh = table.sq[nodes]                        # (B, h)
        self.dotc = table.dotc[centers]                   # (B, C)
        self.dotp = table.dotp[nodes]                     # (B, h)
        self.raw_c = table.raw[centers]                   # (B, C)
        self.delta = softplus(self.raw_c)
        self.kap = np.multiply(-self.delta[:, :, None], self.dt[:, None, :],
                               out=bufs["kap"])
        np.exp(self.kap, out=self.kap)
        # at = sigmoid(kap * (dotc + dotp)), built in place
        self.at = np.add(self.dotc[:, :, None], self.dotp[:, None, :],
                         out=bufs["at"])
        self.at *= self.kap
        sigmoid(self.at, out=self.at)
        self.alpha = np.exp(self.at, out=bufs["alpha"])
        self.alpha *= self.mask[:, None, :]
        denom = self.alpha.sum(axis=2, keepdims=True)
        self.alpha /= np.where(denom > 0, denom, 1.0)
        self.ak = np.multiply(self.alpha, self.kap, out=bufs["ak"])
        # ut = sigmoid(alpha @ W u_p): the W u_p are gathered into the
        # scratch, which then takes the sigmoid's temporary
        Wh = np.take(table.WU, nodes, axis=0,
                     out=scratch[:B * h * d].reshape(B, h, d), mode="clip")
        self.ut = np.matmul(self.alpha, Wh, out=bufs["ut"])
        sigmoid(self.ut, out=self.ut,
                scratch=scratch[:B * C * d].reshape(B, C, d))
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


def _hist_vs_centers_backward(d_g, side: _Side, d_centers, scratch):
    """Embeddings gradient of :func:`_hist_vs_centers`: adds the center
    slots' vectors onto ``d_centers`` (2, B, C, d), then writes the history
    slots' over ``side.Uh``, which the center products read last. Returns
    those (2, B, h, d) and the coefficients of each slot's own row, (2, B, h)
    and (2, B, C). ``d_g`` is overwritten, and ``scratch`` holds at least
    2 * B * C * d free entries."""
    d_g2 = np.multiply(d_g, 2.0, out=d_g)
    Uh = _halves(side.Uh)
    d_centers += np.matmul(
        d_g2, Uh,
        out=scratch[:d_centers.size].reshape(d_centers.shape))[::-1]
    d_hist = np.matmul(d_g2.transpose(0, 1, 3, 2), _halves(side.Uc)[::-1],
                       out=Uh)
    return d_hist, -d_g2.sum(axis=2), -d_g2.sum(axis=3)[::-1]


def batch_loss_and_grads(batch: EventBatch, negatives: np.ndarray,
                         embeddings: np.ndarray, params: AttentionParams,
                         work: Workspace, want_grads: bool = True):
    """Negative-sampling loss of one batch and, optionally, its gradients.

    ``negatives`` (2, B, K) holds the corruption ids of the source's slot
    over the target's, as :func:`micro.draw_event_negatives` draws them.
    Returns (loss, grads-or-None, stats). ``grads`` maps every parameter
    group name to an array of the group's shape. ``stats["range_hits"]``
    counts pair scores whose magnitude exceeded ``RANGE_BOUND`` (the sampled
    loss itself is evaluated unclamped through a stable log-sigmoid). A node
    id outside [0, V) raises IndexError.

    The node table is built once per batch, and the per-slot work runs over
    blocks of events (:func:`_blocks`), in a prefix of ``work``'s array laid
    out as the module docstring says. The block's scratch carries the side's
    forward temporaries, the pair diffs, the center products, then (as
    int64) the scatter's positions, the centers' and the histories'. The
    returned gradients never alias the array.
    """
    B = len(batch)
    V, d = embeddings.shape

    # source family over target family; centers are never padded
    centers = np.concatenate([np.stack([batch.src, batch.dst])[:, :, None],
                              negatives], axis=2)
    C, h = centers.shape[2], batch.hist_nodes.shape[2]
    # one array holds the node table, at most one row per slot and per node,
    # then the buffers of one block: as many events as BLOCK_BYTES hold, at
    # least one and at most B
    per_row = _row_floats(C, h, d)
    table_size = 2 * min(V, 2 * B * (C + h)) * d
    events = min(B, max(1, BLOCK_BYTES // (16 * per_row)))
    space = work.take(table_size + 2 * events * per_row)
    table = _NodeTable(centers.reshape(2 * B, C),
                       batch.hist_nodes.reshape(2 * B, h), embeddings, params,
                       space[:table_size])
    rows_c, rows_h = _halves(table.rows_c), _halves(table.rows_h)
    n = table.ids.size
    cols, sign = _pair_columns(C - 1)
    # the blocks write the per-slot scalars into batch-wide arrays, which
    # are summed and folded once, and scatter the per-slot vectors into the
    # centers', the histories' and M's (n, d) accumulators
    lam = np.empty((B, sign.size))
    if want_grads:
        own_c, raw, dotc = np.empty((3, 2, B, C))
        own_h, dotp = np.empty((2, 2, B, h))
        G_c, G_h, M = (np.zeros(n * d) for _ in range(3))
        d_sw = None

    for at, bufs in _blocks(space[table_size:], B, C, h, d):
        R = 2 * (at.stop - at.start)
        side = _Side(table, rows_c[:, at].reshape(R, C),
                     rows_h[:, at].reshape(R, h),
                     batch.hist_age[:, at].reshape(R, h),
                     batch.hist_len[:, at].reshape(R), params, bufs)
        Uc = _halves(side.Uc)
        scratch, slots = bufs["scratch"], bufs["slots"]
        g_h = _hist_vs_centers(side)                      # (2, b, C, h)

        # forward: one block of P = 1 + 2K pairs per event ----------------
        # pair p joins column cols[0, p] of the source half with column
        # cols[1, p] of the target half: the event (0, 0), then (k, 0) for
        # pairs 1..K and (0, k) for K+1..2K. The diffs stay in the scratch
        # until the backward.
        b = R // 2
        diff = scratch[:b * sign.size * d].reshape(b, sign.size, d)
        np.subtract(Uc[0], Uc[1, :, :1], out=diff[:, :C])
        np.subtract(Uc[0, :, :1], Uc[1, :, 1:], out=diff[:, C:])
        g = -np.einsum("bpd,bpd->bp", diff, diff)          # (b, P)
        # entry (s, b, p) of a (2, b, C, C) stack is half s's column of pair
        # p against the other half's: A is each half's attention-weighted
        # history distance to the other half's center, taken for all C x C
        # center pairs
        pair_at = (np.arange(2)[:, None, None], np.arange(b)[:, None],
                   cols[:, None], cols[::-1, None])
        A = (_halves(side.ak) @ g_h.transpose(0, 1, 3, 2))[pair_at]
        w, both = _pair_beta(_halves(side.btil)[pair_at[:3]],
                             _halves(side.nonempty))
        lam[at] = g + w[0] * A[0] + w[1] * A[1]
        if not want_grads:
            continue

        # backward ----------------------------------------------------------
        # the embeddings gradient's per-slot vectors of the centers, the
        # source half over the target half; the histories' take side.Uh's
        # buffer
        dUc = slots.reshape(2, b, C, d)
        dlam = -sign * sigmoid(-sign * lam[at])
        # the diffs' terms fold onto the columns by slices: the source's
        # column 0 takes pairs 0 and K+1..2K, its column k pair k; the
        # target's column 0 takes pairs 0..K, its column k pair K + k
        diff *= (-2.0 * dlam)[:, :, None]
        np.copyto(dUc[0], diff[:, :C])
        dUc[0, :, 0] += diff[:, C:].sum(axis=1)
        dUc[1, :, 0] = -diff[:, :C].sum(axis=1)
        np.negative(diff[:, C:], out=dUc[1, :, 1:])

        # a per-pair scalar of each half sits at its pair_at entry of the
        # (2, b, C, C) stack, whose sums and products fold it back onto both
        # halves' columns; each write replaces all entries of the last.
        # side.ak is read last by the history distances' gradient, and its
        # buffer takes d_ak. The scratch takes the center products, then the
        # scatter's positions.
        pair = np.zeros((2, b, C, C))
        pair[pair_at] = dlam * (A - A[::-1]) * w[0] * w[1] * both
        d_btil = pair.sum(axis=3)                           # (2, b, C)
        pair[pair_at] = dlam * w
        d_g = pair.transpose(0, 1, 3, 2) @ _halves(side.ak)  # (2, b, C, h)
        d_ak = np.matmul(pair, g_h, out=_halves(side.ak))   # (2, b, C, h)
        dUh, own_h[:, at], own_c[:, at] = _hist_vs_centers_backward(
            d_g, side, dUc, scratch)
        del g_h, pair, d_g      # freed before the side backward's arrays
        # the scatter's int64 positions fill the scratch twice: the
        # centers', then the histories', which M reuses
        positions = row_positions(side.centers, d,
                                  out=scratch[:dUc.size].view(np.int64))
        np.add.at(G_c, positions, dUc.reshape(-1))
        positions = row_positions(side.nodes, d,
                                  out=scratch[:dUh.size].view(np.int64))
        np.add.at(G_h, positions, dUh.reshape(-1))

        # the history vectors' buffer now takes the W u gradients, and the
        # slot buffer the side backward's products
        dWh = dUh.reshape(R, h, d)
        part, *scalars = _side_backward(
            side, table, params, d_btil.reshape(R, C),
            d_ak.reshape(R, C, h), dWh, slots)
        raw[:, at], dotc[:, at], dotp[:, at] = map(_halves, scalars)
        np.add.at(M, positions, dWh.reshape(-1))
        d_sw = part if d_sw is None else d_sw + part

    loss = float(softplus(-sign * lam).sum())
    stats = {"pairs": lam.size,
             "range_hits": int((np.abs(lam) > RANGE_BOUND).sum())}
    if not want_grads:
        return loss, None, stats

    # fold onto the distinct rows: per-row coefficients of u (own), a1, a2
    # and decay_raw, and M, everything that reaches u through W
    own = _fold(table.slot_rows, n, own_c, own_h)
    c_a1 = _fold(table.rows_c, n, dotc)
    c_a2 = _fold(table.rows_h, n, dotp)
    G, M = G_c.reshape(n, d), M.reshape(n, d)
    G += G_h.reshape(n, d)
    del G_h
    # the table's W u rows are read by now; their buffer is the temporary
    U, tmp = table.U, table.WU
    a1, a2 = params.att_vector[:d], params.att_vector[d:]
    W = params.local_weight
    # einsum writes the outer products straight into tmp; a broadcasting
    # multiply would stage them through ufunc buffers
    M += np.einsum("n,d->nd", c_a1, a1, out=tmp)
    M += np.einsum("n,d->nd", c_a2, a2, out=tmp)
    grads = {
        "att_vector": np.concatenate([W @ (c_a1 @ U), W @ (c_a2 @ U)]),
        "local_weight": M.T @ U,
        "s_weight": d_sw,
    }
    G += np.einsum("nd,n->nd", U, own, out=tmp)
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
    ``scratch`` holds at least R * C * d free entries. ``d_ak`` and
    ``side.at`` are overwritten: their buffers take two of the (R, C, h)
    temporaries.
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
    Wh = np.take(table.WU, side.nodes, axis=0, out=d_Wh, mode="clip")
    d_alpha = np.matmul(d_agg, Wh.transpose(0, 2, 1))
    np.matmul(side.alpha.transpose(0, 2, 1), d_agg, out=d_Wh)
    # d_alpha becomes d_pre, then d_scal, in place: the (R, C, h) gradients
    # of kap * (dotc + dotp) and of dotc + dotp
    d_alpha += d_ak * side.kap
    d_alpha -= np.einsum("bch,bch->bc", side.alpha, d_alpha)[:, :, None]
    d_pre = np.multiply(d_alpha, side.alpha, out=d_alpha)
    d_pre *= side.at
    # at is read last here: its buffer takes 1 - at, then d_kap, and d_ak's
    # buffer takes kap * -dt after d_ak's last read
    d_pre *= np.subtract(1.0, side.at, out=side.at)
    d_kap = np.add(side.dotc[:, :, None], side.dotp[:, None, :], out=side.at)
    d_kap *= d_pre
    d_kap += np.multiply(d_ak, side.alpha, out=d_ak)
    d_delta += np.einsum("bch,bch->bc", d_kap, np.multiply(
        side.kap, -side.dt[:, None, :], out=d_ak))
    d_scal = np.multiply(d_pre, side.kap, out=d_pre)
    return (d_sw, d_delta * sigmoid(side.raw_c), d_scal.sum(axis=2),
            d_scal.sum(axis=1))
