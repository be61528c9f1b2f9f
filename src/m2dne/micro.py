"""Parameters and negative sampling of the event-level model.

The intensity of an event (i, j, t) combines a base similarity of the two
endpoints with time-decayed influence from both endpoints' recent neighbors,
weighted by a two-level (per-neighbor, per-neighborhood) attention mechanism.
Its negative-sampling loss and gradients are computed by
:mod:`m2dne.micrograd`; this module holds the attention parameters and the
sampler that draws the corruption ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEGATIVE_EXPONENT = 0.75


@dataclass
class AttentionParams:
    """Learnable attention parameters.

    att_vector:   length 2d, scores the (transformed center, transformed
                  neighbor) concatenation
    local_weight: d x d shared linear map applied to embeddings
    s_weight/s_bias: affine layer producing the neighborhood-level score
    decay_raw:    per-node pre-activation of the decay rate; the effective
                  rate is softplus(decay_raw) > 0
    """

    att_vector: np.ndarray
    local_weight: np.ndarray
    s_weight: np.ndarray
    s_bias: float
    decay_raw: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.local_weight.shape[0])

    def copy(self) -> "AttentionParams":
        return AttentionParams(self.att_vector.copy(), self.local_weight.copy(),
                               self.s_weight.copy(), float(self.s_bias),
                               self.decay_raw.copy())


class NegativeTable:
    """Unigram sampler over nodes with probability proportional to
    degree ** 0.75, with rejection of one excluded node per draw.

    The cumulative table is laid out in first-appearance order of the event
    stream so that sampling commutes with any relabeling of node ids.
    """

    def __init__(self, degrees: np.ndarray, order: np.ndarray | None = None):
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.shape[0] < 2:
            raise ValueError("negative sampling needs at least two nodes")
        if order is None:
            order = np.arange(degrees.shape[0], dtype=np.int64)
        self.order = np.asarray(order, dtype=np.int64)
        weights = np.power(np.maximum(degrees[self.order], 0.0), NEGATIVE_EXPONENT)
        total = weights.sum()
        if total <= 0:
            raise ValueError("all degrees are zero")
        self.cum = np.cumsum(weights) / total

    def sample(self, k: int, rng: np.random.Generator,
               exclude: int | None = None) -> np.ndarray:
        """Draw k node ids, rejecting (and redrawing) the excluded node."""
        out = np.empty(k, dtype=np.int64)
        for m in range(k):
            while True:
                pos = int(np.searchsorted(self.cum, rng.random(), side="right"))
                node = int(self.order[min(pos, len(self.order) - 1)])
                if node != exclude:
                    out[m] = node
                    break
        return out


def draw_event_negatives(batch_src: np.ndarray, batch_dst: np.ndarray,
                         table: NegativeTable, k: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the per-event corruption ids in a fixed, replayable order.

    For each event in batch order: k replacements for the source (keeping the
    target, which is rejected), then k replacements for the target.
    """
    B = batch_src.shape[0]
    neg_src = np.empty((B, k), dtype=np.int64)
    neg_dst = np.empty((B, k), dtype=np.int64)
    if k == 0:
        return neg_src, neg_dst
    for b in range(B):
        neg_src[b] = table.sample(k, rng, exclude=int(batch_dst[b]))
        neg_dst[b] = table.sample(k, rng, exclude=int(batch_src[b]))
    return neg_src, neg_dst
